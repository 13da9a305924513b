//! End-to-end and per-layer benchmark of emac.
//!
//! `run` measures one workload for a fixed time: repeated set-up and
//! execution of the same generated inputs, each execution's output bytes
//! verified. With tracing off it reports the end-to-end metrics; with
//! tracing on it alternates untraced and traced executions and reports the
//! per-layer metrics of [`layers`]. See `README.md` for the metrics and
//! what each one should move.

#![warn(missing_docs)]

pub mod layers;
pub mod sys;
pub mod trace;
pub mod workload;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use emac::registry::Registry;
use emac_core::digest::Fnv64;

use layers::LayerSample;
use workload::{Inputs, Outcome, Size, Workload};

/// The seed whose output digests are pinned below.
pub const DEFAULT_SEED: u64 = 1;

/// FNV-1a digests of each workload's output bytes at full size for
/// [`DEFAULT_SEED`].
pub const PINNED: [(Workload, u64); 4] = [
    (Workload::SweepStable, 0xa79d_b7b2_0f44_435c),
    (Workload::BacklogDeep, 0x2a28_d6b1_0d97_987f),
    (Workload::FrontierBand, 0x610a_2956_58f3_3050),
    (Workload::FleetShortRows, 0x2735_3dea_e55e_3a7f),
];

/// Measured executions per run at least, whatever `--seconds` says.
pub const MIN_REPS: usize = 3;

/// Set-up-only repetitions after each execution of an untraced run, so
/// `setup_s` is a median of many short samples taken across the whole run
/// rather than in one burst: set-up writes files, and the disk's latency
/// drifts within a run.
pub const SETUP_REPS_PER_EXECUTION: usize = 4;

/// FNV-1a over raw bytes.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.bytes(bytes);
    h.finish()
}

/// What a run's outputs must match.
#[derive(Clone, Debug, Default)]
pub struct Check {
    /// The pinned digest, for the default seed at full size.
    pub pinned: Option<u64>,
    /// The fleet's single-process reference digest.
    pub reference: Option<u64>,
    /// The first execution's digest: later ones must repeat it.
    pub first: Option<u64>,
}

impl Check {
    /// The checks for `inputs` generated from `seed` at `size`.
    pub fn new(inputs: &Inputs, seed: u64, size: Size) -> Result<Self, String> {
        let pinned = if seed == DEFAULT_SEED && size == Size::Full {
            PINNED.iter().find(|(w, _)| *w == inputs.workload).map(|&(_, d)| d)
        } else {
            None
        };
        let reference = match inputs.workload {
            Workload::FleetShortRows => Some(digest(&workload::fleet_reference(inputs)?)),
            _ => None,
        };
        Ok(Self { pinned, reference, first: None })
    }

    /// Failures in one execution's outcome: failed or unclean units, plus
    /// one per digest that does not match.
    pub fn failures(&mut self, outcome: &Outcome) -> usize {
        let d = digest(&outcome.output);
        let expected = *self.first.get_or_insert(d);
        let mismatches = [Some(expected), self.pinned, self.reference]
            .iter()
            .filter(|want| want.is_some_and(|w| w != d))
            .count();
        outcome.failed + mismatches
    }
}

/// One execution's measurements.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Set-up time.
    pub setup: Duration,
    /// Wall and CPU time of the execution, when its output verified.
    pub timed: Option<(Duration, Duration)>,
    /// Units attempted.
    pub units: usize,
    /// Units failed (plus digest mismatches).
    pub failed: usize,
    /// Output digest.
    pub digest: u64,
    /// Peak resident memory during set-up and execution, MiB.
    pub peak_rss: f64,
}

impl Rep {
    /// An execution's record: a failed one is counted but not timed.
    pub fn new(
        outcome: &Outcome,
        failed: usize,
        setup: Duration,
        wall: Duration,
        cpu: Duration,
    ) -> Self {
        Self {
            setup,
            timed: (failed == 0).then_some((wall, cpu)),
            units: outcome.units.max(1),
            failed,
            digest: digest(&outcome.output),
            peak_rss: sys::peak_rss_mib(),
        }
    }
}

/// Options of one run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Working directory for outputs; removed afterwards.
    pub work: PathBuf,
}

/// A metric as reported.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A run's result.
#[derive(Clone, Debug)]
pub struct Report {
    /// Every execution verified.
    pub correct: bool,
    /// Units attempted over all executions.
    pub attempted: usize,
    /// Units failed over all executions.
    pub failed: usize,
    /// End-to-end or per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Executions made, untraced and traced.
    pub reps: (usize, usize),
    /// Spans of the traced executions, one JSON line each.
    pub spans: Vec<String>,
    /// Digest of the verified output.
    pub digest: u64,
    /// Names of the exact (machine-independent) metrics among `metrics`.
    pub exact: Vec<String>,
    /// Wall time of each timed untraced execution, in order, s.
    pub walls: Vec<f64>,
    /// Exact counts of the traced run that differ from `exact_work.json`
    /// (default seed only): `(name, pinned, measured)`.
    pub drift: Vec<(String, f64, f64)>,
}

impl Report {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn remove(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// One untraced execution in `dir`: set-up, then execution, timed apart.
fn untraced_rep(inputs: &Inputs, check: &mut Check, dir: &Path) -> Result<Rep, String> {
    sys::reset_peak_rss();
    let t = Instant::now();
    let prepared = workload::setup(inputs, dir)?;
    let setup = t.elapsed();
    let cpu = sys::process_cpu();
    let t = Instant::now();
    let outcome = workload::execute(prepared, &Registry, None)?;
    let failed = check.failures(&outcome);
    let rep = Rep::new(&outcome, failed, setup, t.elapsed(), sys::process_cpu() - cpu);
    remove(dir);
    Ok(rep)
}

/// One traced execution in `dir`, with its layer sample.
fn traced_rep(
    inputs: &Inputs,
    check: &mut Check,
    dir: &Path,
) -> Result<(Rep, LayerSample), String> {
    let _ = trace::take_spans();
    let io = trace::IoHandle::default();
    let t = Instant::now();
    let prepared = workload::setup(inputs, dir)?;
    let setup = t.elapsed();
    let cpu = sys::process_cpu();
    let t = Instant::now();
    let outcome = workload::execute(prepared, &trace::TracedFactory::new(&Registry), Some(&io))?;
    let failed = check.failures(&outcome);
    let wall = t.elapsed();
    let rep = Rep::new(&outcome, failed, setup, wall, sys::process_cpu() - cpu);
    let spans = trace::take_spans();
    let io = io.lock().expect("io stats poisoned").clone();
    let sample = LayerSample::collect(inputs, &outcome, spans, io, wall, dir)?;
    remove(dir);
    Ok((rep, sample))
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Run one workload as `opts` says.
pub fn run(opts: &Options) -> Result<Report, String> {
    let inputs = workload::generate(opts.workload, opts.seed, opts.size);
    let mut check = Check::new(&inputs, opts.seed, opts.size)?;
    std::fs::create_dir_all(&opts.work).map_err(|e| format!("{}: {e}", opts.work.display()))?;
    let dir = |i: usize| opts.work.join(format!("rep-{i}"));
    let budget = Duration::from_secs_f64(opts.seconds);

    // Warm-up: verified, not timed.
    let warm = untraced_rep(&inputs, &mut check, &dir(0))?;
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<(Rep, LayerSample)> = Vec::new();
    if opts.trace {
        trace::calibrate_clock();
    }
    let mut setups: Vec<f64> = Vec::new();
    let started = Instant::now();
    let mut i = 1;
    while started.elapsed() < budget
        || untraced.len() < MIN_REPS
        || (opts.trace && traced.len() < MIN_REPS)
    {
        let rep = untraced_rep(&inputs, &mut check, &dir(i))?;
        i += 1;
        setups.push(secs(rep.setup));
        untraced.push(rep);
        if opts.trace {
            traced.push(traced_rep(&inputs, &mut check, &dir(i))?);
            i += 1;
        } else {
            for _ in 0..SETUP_REPS_PER_EXECUTION {
                let d = dir(i);
                i += 1;
                let t = Instant::now();
                let prepared = workload::setup(&inputs, &d)?;
                setups.push(secs(t.elapsed()));
                drop(prepared);
                remove(&d);
            }
        }
    }
    remove(&opts.work);

    let all = std::iter::once(&warm).chain(&untraced).chain(traced.iter().map(|(r, _)| r));
    let (attempted, failed) = all.clone().fold((0, 0), |(a, f), r| (a + r.units, f + r.failed));
    let correct = failed == 0;
    let walls = |reps: &mut dyn Iterator<Item = &Rep>| -> Vec<f64> {
        reps.filter_map(|r| r.timed.map(|(w, _)| secs(w))).collect()
    };
    let untraced_wall = sys::median(&walls(&mut untraced.iter()));
    let metric =
        |name: &str, value: f64, unit: &'static str| Metric { name: name.into(), value, unit };
    let exact: Vec<String> = match traced.first() {
        Some((_, s)) => s.exact().into_iter().map(|(name, _, _)| name.to_string()).collect(),
        None => Vec::new(),
    };
    let metrics = if opts.trace {
        let traced_wall = sys::median(&walls(&mut traced.iter().map(|(r, _)| r)));
        let samples: Vec<&LayerSample> = traced.iter().map(|(_, s)| s).collect();
        let mut m = layers::metrics(&samples)?;
        m.push(metric("trace.overhead_s", traced_wall - untraced_wall, "s"));
        m.push(metric("trace.traced_wall_s", traced_wall, "s"));
        m
    } else {
        let cpus: Vec<f64> =
            untraced.iter().filter_map(|r| r.timed.map(|(_, c)| secs(c))).collect();
        let rss: Vec<f64> =
            untraced.iter().filter(|r| r.timed.is_some()).map(|r| r.peak_rss).collect();
        vec![
            metric("wall_s", untraced_wall, "s"),
            metric("cpu_s", sys::median(&cpus), "s"),
            metric("peak_rss_mb", sys::median(&rss), "MiB"),
            metric("setup_s", sys::median(&setups), "s"),
        ]
    };
    let spans = traced
        .iter()
        .enumerate()
        .flat_map(|(rep, (_, s))| {
            s.spans.iter().map(move |sp| format!("{{\"rep\":{rep},\"unit\":{}}}", sp.to_json()))
        })
        .collect();
    let drift = if opts.trace && opts.seed == DEFAULT_SEED && opts.size == Size::Full {
        exact_drift(opts.workload, &metrics)?
    } else {
        Vec::new()
    };
    let digest = warm.digest;
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics,
        reps: (untraced.len(), traced.len()),
        spans,
        digest,
        exact,
        walls: walls(&mut untraced.iter()),
        drift,
    })
}

/// Exact work of every workload for [`DEFAULT_SEED`], as committed.
pub const EXACT_WORK: &str = include_str!("../exact_work.json");

/// Compare a traced run's exact counts with [`EXACT_WORK`]. A change is
/// reported, not failed: a change that alters work on purpose explains it.
fn exact_drift(w: Workload, metrics: &[Metric]) -> Result<Vec<(String, f64, f64)>, String> {
    let doc = emac_core::campaign::json::Json::parse(EXACT_WORK)?;
    let Some(pinned) = doc.get(w.name()) else {
        return Ok(Vec::new());
    };
    Ok(metrics
        .iter()
        .filter_map(|m| {
            let want = pinned.get(&m.name)?.as_f64()?;
            (want != m.value).then(|| (m.name.clone(), want, m.value))
        })
        .collect())
}
