//! Deterministic fault injection: jamming, crash/restart, deaf rounds, and
//! clock skew.
//!
//! The paper's adversary controls only packet injection; real shared channels
//! also fail. This module adds four fault families, all derived from a
//! dedicated seed in [`FaultSpec`] — never wall-clock — so faulty scenarios
//! inherit every determinism guarantee of fault-free ones (golden digests,
//! campaign checkpoints, frontier maps, batch lane-exactness):
//!
//! - **Jamming** — with probability `jam` per round the slot is corrupted
//!   regardless of what was transmitted: nothing is heard, no packet leaves
//!   its sender's queue, and every switched-on station observes `Collision`.
//! - **Crash/restart** — with probability `crash` per round a uniformly drawn
//!   station goes dark for `crash_len` rounds. While dark it takes no
//!   actions, hears nothing, and consumes no energy; injections still land in
//!   its queue. `retain_queue` chooses retention (queued packets survive the
//!   outage) vs loss (the queue is emptied at crash onset).
//! - **Deaf rounds** — with probability `deaf` per round a uniformly drawn
//!   station, if switched on, misses that round's feedback: it observes
//!   `Silence` whatever the channel actually carried.
//! - **Clock skew** — each station's schedule lookups are offset by a fixed
//!   per-station amount drawn once from `0..=skew`, so stations disagree
//!   about the current round of a precomputed `OnSchedule`. (Adaptive
//!   algorithms keep their own timers and are unaffected.)
//!
//! The fault stream is private to [`FaultPlan`]: it is a separate
//! [`SmallRng`] seeded from [`FaultSpec::seed`], independent of the
//! scenario seed, so the independent lanes of a seed ensemble all see the
//! identical fault schedule and lane `i` is byte-identical to a solo run
//! with seed `i`. Draws happen in a fixed order each round — jam, crash (plus a
//! station draw on a hit), deaf (plus a station draw on a hit) — and a
//! family whose rate is zero draws nothing, so enabling one family never
//! perturbs the stream a disabled family would have consumed.
//!
//! Feedback corrupted by a fault is environment noise, not an algorithm
//! error: the engine suppresses protocol flags raised in a jammed round (for
//! all stations) and by a deaf station on its deaf round, and a jammed slot
//! does not count toward `violations.collisions`. Genuine downstream
//! consequences (e.g. a packet lost because its would-be adopter was deaf)
//! remain visible.

use crate::packet::{Round, StationId};
use crate::rate::Rate;
use crate::rng::SmallRng;

/// Declarative description of the faults to inject into a run.
///
/// The default spec is a no-op: all rates zero, no skew. Probabilities are
/// exact rationals ([`Rate`]) evaluated without floating point, so a spec is
/// reproducible across platforms.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Seed for the fault stream (independent of the simulation seed).
    pub seed: u64,
    /// Per-round probability that the slot is jammed.
    pub jam: Rate,
    /// Per-round probability that a uniformly drawn station crashes.
    pub crash: Rate,
    /// Rounds a crashed station stays dark before restarting.
    pub crash_len: u64,
    /// Whether a crashed station keeps its queue (`true`) or loses it.
    pub retain_queue: bool,
    /// Per-round probability that a uniformly drawn station is deaf.
    pub deaf: Rate,
    /// Maximum per-station clock offset applied to schedule lookups.
    pub skew: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self {
            seed: 0,
            jam: Rate::zero(),
            crash: Rate::zero(),
            crash_len: 64,
            retain_queue: true,
            deaf: Rate::zero(),
            skew: 0,
        }
    }
}

impl FaultSpec {
    /// Whether this spec injects nothing (the engine skips plan construction).
    pub fn is_noop(&self) -> bool {
        self.jam.num() == 0 && self.crash.num() == 0 && self.deaf.num() == 0 && self.skew == 0
    }

    /// Whether any family changes the wake set (crash or skew).
    ///
    /// Such faults bypass the packed schedule cache: the engine evaluates
    /// every station against its own clock when this is true.
    pub fn affects_wake(&self) -> bool {
        self.crash.num() > 0 || self.skew > 0
    }

    /// Validate that probabilities are probabilities and intervals non-empty.
    pub fn validate(&self) -> Result<(), String> {
        for (name, rate) in [("jam", self.jam), ("crash", self.crash), ("deaf", self.deaf)] {
            if Rate::one().lt(&rate) {
                return Err(format!("fault rate {name} must be at most 1, got {rate}"));
            }
        }
        if self.crash.num() > 0 && self.crash_len == 0 {
            return Err("crash_len must be positive when crash rate is nonzero".into());
        }
        Ok(())
    }
}

/// The faults drawn for one round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundFaults {
    /// The slot is jammed this round.
    pub jammed: bool,
    /// A station freshly crashed this round (already-dark stations only have
    /// their outage extended, with no new onset reported).
    pub crash: Option<StationId>,
    /// A station is deaf this round (may be asleep, in which case the engine
    /// treats the event as a no-op).
    pub deaf: Option<StationId>,
}

/// Runtime state of the fault injector for one simulator.
///
/// Built once per run from a [`FaultSpec`] and the station count; [`roll`]
/// advances the fault stream by exactly one round.
///
/// [`roll`]: FaultPlan::roll
#[derive(Clone, Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
    rng: SmallRng,
    /// Per station: first round it is operational again (0 = never crashed).
    crashed_until: Vec<Round>,
    /// Per-station schedule offset, drawn once at construction.
    skew: Vec<u64>,
}

impl FaultPlan {
    /// Build the plan for `n` stations. Skew offsets are drawn first (one
    /// per station, in station order) when `spec.skew > 0`.
    pub fn new(spec: &FaultSpec, n: usize) -> Self {
        let mut rng = SmallRng::seed_from_u64(spec.seed);
        let skew = if spec.skew > 0 {
            (0..n).map(|_| rng.random_range_u64(0..spec.skew + 1)).collect()
        } else {
            vec![0; n]
        };
        Self { spec: spec.clone(), rng, crashed_until: vec![0; n], skew }
    }

    /// Exact Bernoulli trial; a zero rate draws nothing from the stream.
    fn hit(&mut self, rate: Rate) -> bool {
        rate.num() > 0 && self.rng.random_range_u64(0..rate.den()) < rate.num()
    }

    /// Draw this round's faults and advance crash timers.
    pub fn roll(&mut self, r: Round, n: usize) -> RoundFaults {
        let mut out = RoundFaults::default();
        if self.hit(self.spec.jam) {
            out.jammed = true;
        }
        if self.hit(self.spec.crash) {
            let s = self.rng.random_range(0..n);
            let fresh = self.crashed_until[s] <= r;
            self.crashed_until[s] = r + self.spec.crash_len;
            if fresh {
                out.crash = Some(s);
            }
        }
        if self.hit(self.spec.deaf) {
            out.deaf = Some(self.rng.random_range(0..n));
        }
        out
    }

    /// Whether station `s` is dark in round `r`.
    pub fn is_crashed(&self, s: StationId, r: Round) -> bool {
        self.crashed_until[s] > r
    }

    /// Station `s`'s fixed clock offset.
    pub fn skew_of(&self, s: StationId) -> u64 {
        self.skew[s]
    }

    /// Whether crashed stations keep their queues.
    pub fn retain_queue(&self) -> bool {
        self.spec.retain_queue
    }

    /// Whether this plan changes the wake set (see [`FaultSpec::affects_wake`]).
    pub fn affects_wake(&self) -> bool {
        self.spec.affects_wake()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_noop_and_valid() {
        let spec = FaultSpec::default();
        assert!(spec.is_noop());
        assert!(!spec.affects_wake());
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn validation_rejects_super_unit_rates_and_zero_crash_len() {
        let spec = FaultSpec { jam: Rate::new(3, 2), ..Default::default() };
        assert!(spec.validate().unwrap_err().contains("jam"));
        let spec = FaultSpec { crash: Rate::new(1, 100), crash_len: 0, ..Default::default() };
        assert!(spec.validate().unwrap_err().contains("crash_len"));
    }

    #[test]
    fn fault_stream_is_seed_deterministic() {
        let spec = FaultSpec {
            seed: 42,
            jam: Rate::new(1, 4),
            crash: Rate::new(1, 16),
            crash_len: 8,
            deaf: Rate::new(1, 8),
            skew: 3,
            ..Default::default()
        };
        let mut a = FaultPlan::new(&spec, 8);
        let mut b = FaultPlan::new(&spec, 8);
        for r in 0..512 {
            assert_eq!(a.roll(r, 8), b.roll(r, 8));
        }
        for s in 0..8 {
            assert_eq!(a.skew_of(s), b.skew_of(s));
            assert!(a.skew_of(s) <= 3);
        }
    }

    #[test]
    fn jam_rate_one_jams_every_round() {
        let spec = FaultSpec { jam: Rate::one(), ..Default::default() };
        let mut plan = FaultPlan::new(&spec, 4);
        for r in 0..64 {
            assert!(plan.roll(r, 4).jammed);
        }
    }

    #[test]
    fn crash_marks_station_dark_for_exactly_crash_len_rounds() {
        let spec = FaultSpec { seed: 7, crash: Rate::one(), crash_len: 5, ..Default::default() };
        let mut plan = FaultPlan::new(&spec, 4);
        let first = plan.roll(100, 4).crash.expect("rate-1 crash must fire");
        assert!(plan.is_crashed(first, 100));
        assert!(plan.is_crashed(first, 104));
        assert!(!plan.is_crashed(first, 105));
    }

    #[test]
    fn recrash_of_dark_station_extends_without_new_onset() {
        let spec = FaultSpec { seed: 1, crash: Rate::one(), crash_len: 1000, ..Default::default() };
        // n = 1 forces every crash onto station 0: round 0 is a fresh onset,
        // every later roll only extends the outage.
        let mut plan = FaultPlan::new(&spec, 1);
        assert_eq!(plan.roll(0, 1).crash, Some(0));
        for r in 1..50 {
            assert_eq!(plan.roll(r, 1).crash, None);
            assert!(plan.is_crashed(0, r));
        }
    }

    #[test]
    fn disabled_families_draw_nothing() {
        // With only deaf enabled, the deaf draws must match a plan where the
        // same seed drives a deaf-only stream (jam/crash disabled families
        // consume nothing).
        let deaf_only = FaultSpec { seed: 9, deaf: Rate::new(1, 3), ..Default::default() };
        let mut a = FaultPlan::new(&deaf_only, 6);
        let mut rng = SmallRng::seed_from_u64(9);
        for r in 0..256 {
            let expect =
                if rng.random_range_u64(0..3) < 1 { Some(rng.random_range(0..6)) } else { None };
            assert_eq!(a.roll(r, 6).deaf, expect);
        }
    }

    #[test]
    fn zero_skew_draws_no_offsets() {
        let spec = FaultSpec { seed: 3, jam: Rate::new(1, 2), ..Default::default() };
        let plan = FaultPlan::new(&spec, 5);
        for s in 0..5 {
            assert_eq!(plan.skew_of(s), 0);
        }
    }
}
