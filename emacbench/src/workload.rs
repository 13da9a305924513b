//! The four workloads: inputs generated from a seed, set-up, execution
//! through the library entry points `emac campaign|frontier|shard` use,
//! and the work each one reports for checking.
//!
//! Each workload is a batch of independent units (rows or probes) pulled
//! by two workers as they come free — a closed loop with two clients. The
//! program sees only the generated spec documents.

use std::fs::File;
use std::path::{Path, PathBuf};

use emac::registry::Registry;
use emac_core::campaign::{
    parse_campaign_spec, spec_list_digest, Campaign, Checkpoint, DurableFile, JsonLinesSink,
    MetricsDetail, ScenarioFactory, ScenarioSpec, TallySink,
};
use emac_core::frontier::{CsvMapSink, Frontier, FrontierCheckpoint, FrontierSpec, MapSink};
use emac_core::obs::{EventLog, Observer};
use emac_core::shard::{self, ShardFormat, ShardPlan, ShardRunner};
use emac_sim::SmallRng;

use crate::trace::{IoHandle, TracedMapSink, TracedSink, TracedWrite};

/// Worker threads: the machine this benchmark was defined on has two
/// cores, and no workload uses more threads than that.
pub const THREADS: usize = 2;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Long below-threshold rows of the paper's algorithms, streamed to
    /// slim JSONL with a checkpoint: the round loop dominates.
    SweepStable,
    /// Above-threshold floods whose queues grow to 10⁴–10⁵ packets: the
    /// per-round cost depends on queue depth.
    BacklogDeep,
    /// A seed-ensemble k-Cycle frontier map with escalation and a
    /// continuation chain: bisection, lockstep lanes, early exits.
    FrontierBand,
    /// About a hundred short rows as a two-shard fleet plus merge: every
    /// row pays its durable writes (lease, claim, checkpoint, sink
    /// fsyncs) and its construction.
    FleetShortRows,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::SweepStable,
        Workload::BacklogDeep,
        Workload::FrontierBand,
        Workload::FleetShortRows,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepStable => "sweep_stable",
            Workload::BacklogDeep => "backlog_deep",
            Workload::FrontierBand => "frontier_band",
            Workload::FleetShortRows => "fleet_short_rows",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's units are frontier probes (else campaign rows).
    pub fn probes(self) -> bool {
        self == Workload::FrontierBand
    }
}

/// Input size: `Full` is what the benchmark measures; `Smoke` is the same
/// shape shrunk for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// Measured size.
    Full,
    /// Test size.
    Smoke,
}

/// The spec documents a workload hands the program.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// Campaign spec, frontier specs, or the fleet's campaign spec.
    pub docs: Vec<String>,
    /// Rounds per frontier probe lane (the probe horizon); 0 otherwise.
    pub horizon: u64,
}

fn seeds(rng: &mut SmallRng, count: usize) -> Vec<u64> {
    (0..count).map(|_| rng.random_range_u64(1..1_000_000)).collect()
}

fn scenario(fields: &str, seed: u64) -> String {
    format!("{{{fields}, \"seed\": {seed}}}")
}

/// Generate a workload's inputs from `seed`: the seed picks scenario seeds
/// (and the flooded station), never sizes or rates, so every seed asks for
/// the same amount of work up to the randomness of the runs themselves.
pub fn generate(workload: Workload, seed: u64, size: Size) -> Inputs {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x656d_6163_6265_6e63);
    let smoke = size == Size::Smoke;
    let mut horizon = 0;
    let docs = match workload {
        Workload::SweepStable => {
            let r = if smoke { 20_000 } else { 200_000 };
            // Longest rows first, each configuration twice (two seeds), so
            // the two workers finish together and the last rows are short.
            let rows = [
                r#""algorithm": "orchestra", "adversary": "uniform", "n": 6, "rho": "1""#,
                r#""algorithm": "k-subsets", "adversary": "uniform", "n": 128, "k": 2, "rho": "0.5 * k_subsets_threshold""#,
                r#""algorithm": "count-hop", "adversary": "sleeper", "n": 6, "rho": "1/2""#,
                r#""algorithm": "k-cycle", "adversary": "uniform", "n": 64, "k": 8, "rho": "0.5 * k_cycle_threshold""#,
                r#""algorithm": "k-clique", "adversary": "uniform", "n": 12, "k": 4, "rho": "0.5 * k_clique_threshold""#,
                r#""algorithm": "k-cycle", "adversary": "uniform", "n": 16, "k": 4, "rho": "0.5 * k_cycle_threshold""#,
                r#""algorithm": "k-cycle", "adversary": "least-on", "n": 16, "k": 4, "rho": "0.5 * group_share""#,
            ];
            let s = seeds(&mut rng, 2 * rows.len());
            let items: Vec<String> = rows
                .iter()
                .flat_map(|f| [f, f])
                .zip(s)
                .map(|(f, sd)| scenario(&format!("{f}, \"beta\": \"2\", \"rounds\": {r}"), sd))
                .collect();
            vec![format!("{{\"scenarios\": [\n  {}\n]}}\n", items.join(",\n  "))]
        }
        Workload::BacklogDeep => {
            let r = if smoke { 20_000 } else { 200_000 };
            let target = rng.random_range(0..9);
            let dest = (target + 1 + rng.random_range(0..8)) % 9;
            let rows = [
                (r#""algorithm": "k-clique", "adversary": "least-on-pair", "n": 6, "k": 3, "rho": "1/3""#.to_string(), r / 2),
                (r#""algorithm": "k-subsets", "adversary": "least-on-pair", "n": 6, "k": 3, "rho": "1/3""#.to_string(), 4 * r),
                (r#""algorithm": "k-cycle", "adversary": "least-on", "n": 9, "k": 3, "rho": "1.5 * group_share""#.to_string(), r),
                (format!(r#""algorithm": "k-cycle", "adversary": "single-target", "n": 9, "k": 3, "rho": "1.5 * group_share", "target": {target}, "dest": {dest}"#), r),
                (r#""algorithm": "count-hop", "adversary": "uniform", "n": 6, "rho": "1""#.to_string(), r),
            ];
            let s = seeds(&mut rng, rows.len());
            let items: Vec<String> = rows
                .iter()
                .zip(s)
                .map(|((f, rounds), sd)| {
                    scenario(&format!("{f}, \"beta\": \"2\", \"rounds\": {rounds}"), sd)
                })
                .collect();
            vec![format!("{{\"scenarios\": [\n  {}\n]}}\n", items.join(",\n  "))]
        }
        Workload::FrontierBand => {
            let (rounds, cap, tol) =
                if smoke { (4_000, 200, "0.02") } else { (16_000, 400, "0.004") };
            horizon = rounds;
            let base = rng.random_range_u64(1..100_000);
            let ensemble: Vec<String> = (base..base + 5).map(|s| s.to_string()).collect();
            let template = format!(
                r#""template": {{"algorithm": "k-cycle", "adversary": "spread-from-one-rand", "target": 1, "beta": "1", "rounds": {rounds}, "probe_cap": {cap}}},
  "axis": "rho", "lo": "0.5 * group_share", "hi": "1.25 * k_cycle_threshold", "tol": {tol},
  "seeds": [{}], "escalate": {{"max_seeds": 9, "step": 4}}"#,
                ensemble.join(", ")
            );
            vec![
                // Independent points: every wave runs all unfinished points.
                // Sixteen of them, so that how many probes escalate (the
                // seed-dependent part of the work) averages out.
                format!(
                    "{{\n  {template},\n  \"map\": {{\"n\": [9, 10, 11, 12, 13, 14, 15, 16], \"k\": [3, 4]}}\n}}\n"
                ),
                // A continuation chain: waves of one probe.
                format!(
                    "{{\n  {template},\n  \"map\": {{\"n\": [9, 11, 13], \"k\": [3]}},\n  \"continuation\": \"n\"\n}}\n"
                ),
            ]
        }
        Workload::FleetShortRows => {
            // 104 rows of 32 k rounds: the durable writes are about a tenth
            // of the wall time. With rows of 2 k rounds they were over half
            // of it, and fsync latency on a shared disk drifts by a third
            // from minute to minute, so `wall_s` measured the disk.
            let (rounds, per) = if smoke { (500, 8) } else { (32_000, 13) };
            let s: Vec<String> = seeds(&mut rng, per).iter().map(u64::to_string).collect();
            vec![format!(
                "{{\"grids\": [{{\"algorithms\": [\"k-cycle\", \"k-clique\", \"count-hop\", \"orchestra\"], \
                 \"adversary\": \"uniform\", \"n\": [6, 9], \"k\": 3, \"rho\": \"1/5\", \"beta\": \"2\", \
                 \"rounds\": {rounds}, \"seeds\": [{}]}}]}}\n",
                s.join(", ")
            )]
        }
    };
    Inputs { workload, docs, horizon }
}

/// One frontier map ready to run.
pub struct MapJob {
    spec: FrontierSpec,
    ckpt: FrontierCheckpoint,
    out: File,
    out_path: PathBuf,
    events: EventLog,
}

/// What set-up produced: parsed specs, the output directory with its
/// checkpoints and open outputs, or the fleet's plan.
pub enum Prepared {
    /// A streaming checkpointed campaign.
    Campaign {
        /// Parsed and expanded scenarios.
        specs: Vec<ScenarioSpec>,
        /// Fresh checkpoint.
        ckpt: Checkpoint,
        /// The output file.
        out: File,
        /// Where the output goes.
        out_path: PathBuf,
    },
    /// Frontier maps run one after the other.
    Frontier(Vec<MapJob>),
    /// A planned two-shard fleet.
    Fleet {
        /// The plan directory.
        dir: PathBuf,
        /// One runner per shard.
        runners: Vec<ShardRunner>,
    },
}

fn create(path: &Path) -> Result<File, String> {
    File::create(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Set-up, timed as `setup_s`: parse and expand the spec, create the
/// output directory, checkpoints and outputs, or plan the shards.
pub fn setup(inputs: &Inputs, dir: &Path) -> Result<Prepared, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    match inputs.workload {
        Workload::SweepStable | Workload::BacklogDeep => {
            let specs = parse_campaign_spec(&inputs.docs[0])?;
            let ckpt = Checkpoint::fresh(
                &dir.join("campaign.ckpt"),
                spec_list_digest(&specs),
                specs.len(),
            )?;
            let out_path = dir.join("campaign.jsonl");
            let out = create(&out_path)?;
            Ok(Prepared::Campaign { specs, ckpt, out, out_path })
        }
        Workload::FrontierBand => {
            let mut jobs = Vec::new();
            for (i, doc) in inputs.docs.iter().enumerate() {
                let spec = FrontierSpec::parse(doc)?;
                let ckpt = FrontierCheckpoint::fresh(
                    &dir.join(format!("map{i}.ckpt")),
                    spec.digest("csv"),
                    spec.points().len(),
                )?;
                let out_path = dir.join(format!("map{i}.csv"));
                let out = create(&out_path)?;
                let events_path = dir.join(format!("map{i}.events.jsonl"));
                let events = EventLog::create(&events_path)
                    .map_err(|e| format!("{}: {e}", events_path.display()))?;
                jobs.push(MapJob { spec, ckpt, out, out_path, events });
            }
            Ok(Prepared::Frontier(jobs))
        }
        Workload::FleetShortRows => {
            let plan = ShardPlan::build(
                &inputs.docs[0],
                ShardFormat::JsonLines,
                MetricsDetail::Slim,
                THREADS,
            )?;
            plan.save(dir)?;
            let runners = (0..THREADS)
                .map(|s| ShardRunner::new(dir, plan.clone(), s).map(|r| r.threads(1)))
                .collect::<Result<_, _>>()?;
            Ok(Prepared::Fleet { dir: dir.to_path_buf(), runners })
        }
    }
}

/// What one execution produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The output bytes the checks digest (maps concatenated in order).
    pub output: Vec<u8>,
    /// Units attempted: rows, or frontier probes run.
    pub units: usize,
    /// Failed or unclean rows and probes.
    pub failed: usize,
    /// Frontier: probes whose ensemble escalated.
    pub escalated_probes: usize,
    /// Frontier: refinement waves.
    pub waves: usize,
    /// Frontier: wall time of the maps, ns.
    pub maps_ns: u64,
    /// Fleet: `shard::merge` wall time, ns.
    pub merge_ns: u64,
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Execute a prepared workload through `factory`. With `io`, the sinks and
/// the durable file under them are traced into it. Ends with the output
/// bytes read back, ready to verify.
pub fn execute<F: ScenarioFactory + Sync>(
    prepared: Prepared,
    factory: &F,
    io: Option<&IoHandle>,
) -> Result<Outcome, String> {
    match prepared {
        Prepared::Campaign { specs, mut ckpt, out, out_path } => {
            let todo: Vec<usize> = (0..specs.len()).collect();
            let executor = Campaign::new().threads(THREADS).detail(MetricsDetail::Slim);
            let file = DurableFile::new(out);
            let (failed, units) = match io {
                None => {
                    let mut sink = TallySink::new(JsonLinesSink::new(file));
                    executor.run_subset(&specs, &todo, factory, &mut sink, Some(&mut ckpt))?;
                    (sink.unclean() + sink.failed(), sink.total())
                }
                Some(io) => {
                    let writer = TracedWrite::new(file, io.clone());
                    let mut sink =
                        TallySink::new(TracedSink::new(JsonLinesSink::new(writer), io.clone()));
                    executor.run_subset(&specs, &todo, factory, &mut sink, Some(&mut ckpt))?;
                    (sink.unclean() + sink.failed(), sink.total())
                }
            };
            Ok(Outcome { output: read(&out_path)?, units, failed, ..Outcome::default() })
        }
        Prepared::Frontier(jobs) => {
            let engine = Frontier::new().threads(THREADS);
            let mut outcome = Outcome::default();
            let started = std::time::Instant::now();
            for job in jobs {
                let MapJob { spec, mut ckpt, out, out_path, events } = job;
                let mut observer = Observer::new().with_log(events);
                let summary = match io {
                    None => {
                        let mut sink = CsvMapSink::new(DurableFile::new(out));
                        engine.run_into_observed(
                            &spec,
                            factory,
                            &mut sink,
                            Some(&mut ckpt),
                            &mut observer,
                        )?
                    }
                    Some(io) => {
                        let mut csv =
                            CsvMapSink::new(TracedWrite::new(DurableFile::new(out), io.clone()));
                        let mut sink = TracedMapSink::new(&mut csv as &mut dyn MapSink, io.clone());
                        engine.run_into_observed(
                            &spec,
                            factory,
                            &mut sink,
                            Some(&mut ckpt),
                            &mut observer,
                        )?
                    }
                };
                observer.flush()?;
                if summary.completed != summary.points {
                    return Err(format!(
                        "frontier map finished {} of {} points",
                        summary.completed, summary.points
                    ));
                }
                outcome.units += summary.probes_run;
                outcome.failed += summary.unclean_probes;
                outcome.escalated_probes += summary.escalated_probes;
                outcome.waves += summary.waves;
                outcome.output.extend(read(&out_path)?);
            }
            outcome.maps_ns = started.elapsed().as_nanos() as u64;
            Ok(outcome)
        }
        Prepared::Fleet { dir, runners } => {
            let summaries = std::thread::scope(|scope| {
                let handles: Vec<_> =
                    runners.iter().map(|r| scope.spawn(move || r.run(factory, false))).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().map_err(|_| "a shard runner panicked".to_string())?)
                    .collect::<Result<Vec<_>, String>>()
            })?;
            let merged = dir.join("merged.jsonl");
            let t = std::time::Instant::now();
            let merge = shard::merge(&dir, &merged)?;
            let merge_ns = t.elapsed().as_nanos() as u64;
            let failed = summaries.iter().map(|s| s.unclean + s.failed).sum();
            Ok(Outcome {
                output: read(&merged)?,
                units: merge.rows,
                failed,
                merge_ns,
                ..Outcome::default()
            })
        }
    }
}

/// The fleet's single-process reference: the same spec run by one
/// in-process campaign into memory. Merged fleet bytes must equal it.
pub fn fleet_reference(inputs: &Inputs) -> Result<Vec<u8>, String> {
    let specs = parse_campaign_spec(&inputs.docs[0])?;
    let mut sink = JsonLinesSink::new(Vec::new());
    Campaign::new()
        .threads(THREADS)
        .detail(MetricsDetail::Slim)
        .run_into(&specs, &Registry, &mut sink)?;
    Ok(sink.into_inner())
}
