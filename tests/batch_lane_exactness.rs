//! Batch lane exactness over the full golden registry matrix.
//!
//! For every scenario in the golden-determinism matrix (every registry
//! algorithm × its applicable adversaries × β ∈ {1, 3/2}), a seed batch is
//! run through the same executor the frontier's seed ensembles use
//! ([`emac_core::campaign::execute_batch`]) and every lane's full
//! [`RunReport`] digest is compared against a solo run of the same
//! scenario with that lane's seed. Batch lanes are independent solo
//! simulations, so lane `i` must be bit-for-bit the solo execution with
//! seed `i` — for periodic-schedule algorithms, adaptive ones, and the
//! aperiodic duty-cycle baseline alike, with and without faults, and for
//! probes whose lanes trip the probe cap.
//!
//! [`RunReport`]: emac_core::runner::RunReport

use emac::registry::Registry;
use emac_core::campaign::{execute_batch, Campaign, ScenarioSpec};
use emac_core::digest::report_digest_hex;
use emac_core::runner::RunReport;
use emac_sim::{FaultSpec, Rate};

const N: usize = 8;
const K: usize = 4;
const ROUNDS: u64 = 4_096;

/// Seeds exercised per scenario: the golden matrix seed plus two others.
const SEEDS: [u64; 3] = [7, 8, 19];

/// The golden-determinism matrix (kept in lockstep with
/// `tests/golden_determinism.rs`).
fn matrix() -> Vec<ScenarioSpec> {
    let algorithms: &[&str] = &[
        "orchestra",
        "orchestra-nomb",
        "count-hop",
        "adjust-window",
        "k-cycle",
        "k-cycle:1/2",
        "k-clique",
        "k-subsets",
        "k-subsets-rrw",
        "duty-cycle",
    ];
    let oblivious: &[&str] =
        &["k-cycle", "k-cycle:1/2", "k-clique", "k-subsets", "k-subsets-rrw", "duty-cycle"];
    let betas = [Rate::integer(1), Rate::new(3, 2)];
    let mut specs = Vec::new();
    for &alg in algorithms {
        let mut adversaries = vec!["uniform", "round-robin"];
        if oblivious.contains(&alg) {
            adversaries.push("least-on");
        }
        for adv in adversaries {
            for beta in betas {
                specs.push(
                    ScenarioSpec::new(alg, adv)
                        .n(N)
                        .k(K)
                        .rho(Rate::new(1, 8))
                        .beta(beta)
                        .rounds(ROUNDS)
                        .seed(7)
                        .horizon(2_000)
                        .label(format!("{alg}|{adv}|beta={}/{}", beta.num(), beta.den())),
                );
            }
        }
    }
    specs
}

/// Run `spec` as a batch over `seeds` and assert every lane equals the
/// solo run with its seed: the report digest and the probe's tripping
/// round (probe telemetry the digest deliberately excludes). Returns the
/// lanes.
fn assert_lane_exact_over(spec: &ScenarioSpec, seeds: &[u64]) -> Vec<RunReport> {
    let label = spec.display_label();
    let lanes = execute_batch(spec, seeds, &Registry)
        .unwrap_or_else(|e| panic!("{label}: batch failed: {e}"));
    assert_eq!(lanes.len(), seeds.len());
    for (&seed, lane) in seeds.iter().zip(&lanes) {
        let mut solo_spec = spec.clone();
        solo_spec.seed = seed;
        let solo = Campaign::new().threads(1).run(std::slice::from_ref(&solo_spec), &Registry);
        let solo = solo.runs[0]
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("{label} seed {seed}: solo failed: {e}"));
        assert_eq!(
            report_digest_hex(lane),
            report_digest_hex(solo),
            "{label}: lane digest for seed {seed} diverged from the solo run"
        );
        assert_eq!(
            lane.tripped_round, solo.tripped_round,
            "{label}: lane tripping round for seed {seed} diverged from the solo run"
        );
    }
    lanes
}

fn assert_lane_exact(spec: &ScenarioSpec) {
    assert_lane_exact_over(spec, &SEEDS);
}

#[test]
fn every_matrix_scenario_is_lane_exact() {
    let specs = matrix();
    assert_eq!(specs.len(), 52, "matrix drifted from the golden registry");
    for spec in specs {
        assert_lane_exact(&spec);
    }
}

/// Lane exactness under every fault family. Jamming and deaf rounds leave
/// the wake set alone (the fault stream is lane-independent); crash and
/// skew change it, so the engine bypasses its schedule cache — both routes
/// must stay bit-for-bit equal to solo runs. Scenarios cover the
/// periodic-schedule path (k-cycle, cached wake table) and the aperiodic
/// path (duty-cycle); the control-message algorithms (count-hop, orchestra,
/// adjust-window) assume a reliable channel by construction and abort when
/// jamming eats a message they must hear, so only the wake-only skew
/// family covers the adaptive route (below).
#[test]
fn faulty_scenarios_are_lane_exact() {
    let families: &[(&str, FaultSpec)] = &[
        ("jam", FaultSpec { jam: Rate::new(1, 10), seed: 5, ..Default::default() }),
        (
            "crash-retain",
            FaultSpec {
                crash: Rate::new(1, 200),
                crash_len: 48,
                retain_queue: true,
                seed: 5,
                ..Default::default()
            },
        ),
        (
            "crash-loss",
            FaultSpec {
                crash: Rate::new(1, 200),
                crash_len: 48,
                retain_queue: false,
                seed: 5,
                ..Default::default()
            },
        ),
        ("deaf", FaultSpec { deaf: Rate::new(1, 6), seed: 5, ..Default::default() }),
        ("skew", FaultSpec { skew: 3, seed: 5, ..Default::default() }),
        (
            "all-at-once",
            FaultSpec {
                jam: Rate::new(1, 16),
                crash: Rate::new(1, 300),
                crash_len: 32,
                retain_queue: false,
                deaf: Rate::new(1, 12),
                skew: 2,
                seed: 5,
            },
        ),
    ];
    for (tag, faults) in families {
        for alg in ["k-cycle", "duty-cycle"] {
            let spec = ScenarioSpec::new(alg, "uniform")
                .n(N)
                .k(K)
                .rho(Rate::new(1, 8))
                .rounds(ROUNDS)
                .seed(7)
                .faults(faults.clone())
                .label(format!("{alg}|uniform|faults={tag}"));
            assert_lane_exact(&spec);
        }
    }

    // Adaptive algorithms keep their own timers, so clock skew is the one
    // family that is defined for them (it only offsets `OnSchedule`
    // lookups); an active wake-affecting plan sends the engine down its
    // per-station wake path, which must stay lane-exact for adaptive
    // stepping too.
    let spec = ScenarioSpec::new("count-hop", "uniform")
        .n(N)
        .k(K)
        .rho(Rate::new(1, 8))
        .rounds(ROUNDS)
        .seed(7)
        .faults(FaultSpec { skew: 3, seed: 5, ..Default::default() })
        .label("count-hop|uniform|faults=skew");
    assert_lane_exact(&spec);
}

/// Lane exactness for probes: with `probe_cap` set, a flooded k-Cycle lane
/// stops the round its queues pass the cap. Every lane — tripped at its
/// own seed-dependent round or not — must equal the solo probe with its
/// seed, tripping round included.
#[test]
fn early_exit_lane_matches_solo_probe() {
    let spec = ScenarioSpec::new("k-cycle", "uniform")
        .n(N)
        .k(K)
        .rho(Rate::new(1, 1))
        .rounds(ROUNDS)
        .seed(7)
        .probe_cap(64)
        .label("k-cycle|uniform|probe_cap=64");
    let seeds = [0, 1, 2, 3, 4, 5, 6, 7];
    let lanes = assert_lane_exact_over(&spec, &seeds);
    let tripped: Vec<u64> = lanes.iter().filter_map(|l| l.tripped_round).collect();
    assert_eq!(tripped.len(), seeds.len(), "every flooded lane must trip: {tripped:?}");
    assert!(tripped.iter().all(|&r| r < ROUNDS / 2), "lanes must trip early: {tripped:?}");
}
