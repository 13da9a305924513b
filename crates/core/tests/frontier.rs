//! Integration tests of the frontier subsystem: the k-Cycle
//! concentrated-flood re-derivation, thread-count byte-identity,
//! checkpointed interrupt/resume byte-identity, and the solo-map
//! checkpoint record of `Inconclusive` probes.

use std::sync::Arc;

use emac_adversary::{SpreadFromOne, UniformRandom};
use emac_core::campaign::{ScenarioFactory, ScenarioSpec};
use emac_core::frontier::{
    csv_row, CsvMapSink, Frontier, FrontierCheckpoint, FrontierSpec, FrontierSummary,
    MemoryMapSink, Status,
};
use emac_core::prelude::*;
use emac_sim::{Adversary, OnSchedule, Rate};

/// Minimal factory for the algorithms/adversaries these maps touch (the
/// production registry lives in the facade crate).
struct TestFactory;

impl ScenarioFactory for TestFactory {
    fn algorithm(&self, spec: &ScenarioSpec) -> Result<Box<dyn Algorithm>, String> {
        Ok(match spec.algorithm.as_str() {
            "k-cycle" => Box::new(KCycle::new(spec.k)),
            "count-hop" => Box::new(CountHop::new()),
            "duty-cycle" => Box::new(DutyCycle::seeded(spec.k, spec.seed)),
            other => return Err(format!("unknown algorithm {other:?}")),
        })
    }

    fn adversary(
        &self,
        spec: &ScenarioSpec,
        _schedule: Option<&Arc<dyn OnSchedule>>,
    ) -> Result<Box<dyn Adversary>, String> {
        Ok(match spec.adversary.as_str() {
            "uniform" => Box::new(UniformRandom::new(spec.seed)),
            "spread-from-one" => Box::new(SpreadFromOne::new(spec.target.unwrap_or(0))),
            other => return Err(format!("unknown adversary {other:?}")),
        })
    }
}

/// The committed Theorem-5 template, shrunk to one map point and a 60k
/// horizon (the flip between stable and diverging sits in the same 0.005
/// window as at 150k — verified against the pinned k-Cycle test).
const KCYCLE_FLOOD_MAP: &str = r#"{
  "template": {"algorithm": "k-cycle", "adversary": "spread-from-one",
               "target": 1, "beta": "1", "rounds": 60000, "probe_cap": 5000},
  "axis": "rho",
  "lo": "0.5 * group_share",
  "hi": "1.25 * k_cycle_threshold",
  "tol": 0.01,
  "map": {"n": [9], "k": [3]}
}"#;

/// Re-derive the reproduction finding through the subsystem: the located
/// boundary brackets the group share `1/ℓ` and **excludes** Theorem 5's
/// claimed `(k−1)/(n−1)` region — the adaptive-search form of
/// `k_cycle::tests::concentrated_flood_frontier_sits_at_group_share`.
#[test]
fn frontier_rederives_kcycle_concentrated_flood_boundary() {
    let spec = FrontierSpec::parse(KCYCLE_FLOOD_MAP).unwrap();
    let mut sink = MemoryMapSink::new();
    let summary =
        Frontier::new().threads(4).run_into(&spec, &TestFactory, &mut sink, None).unwrap();
    assert_eq!((summary.points, summary.completed), (1, 1));

    let rows = sink.into_rows();
    assert_eq!(rows.len(), 1);
    let row = &rows[0];
    assert_eq!(row.status, Status::Converged, "{}", csv_row(row));

    // n=9, k=3: ℓ = 5 groups, so the concentrated-flood frontier sits at
    // 1/ℓ = 1/5 — strictly below the claimed threshold (k−1)/(n−1) = 1/4.
    let group_share = Rate::new(1, 5);
    let claimed = Rate::new(1, 4);
    assert!(!group_share.lt(&row.lo), "lo {} must not exceed 1/l", row.lo);
    assert!(!row.hi.lt(&group_share), "hi {} must not undercut 1/l", row.hi);
    assert!(row.hi.lt(&claimed), "hi {} must exclude the claimed region 1/4", row.hi);
    assert!(
        (row.boundary() - group_share.as_f64()).abs() <= 0.02,
        "boundary {} should sit within 2 tol of 1/l = 0.2",
        row.boundary()
    );
}

fn tiny_map() -> FrontierSpec {
    // Coarse and fast: 4 map points, 4k-round probes, tol 1/16.
    FrontierSpec::parse(
        r#"{
          "template": {"algorithm": "k-cycle", "adversary": "spread-from-one",
                       "target": 1, "rounds": 4000, "probe_cap": 1000},
          "lo": "0", "hi": "1/2", "tol": 0.0625,
          "map": {"n": [6, 9], "k": [3, 4]}
        }"#,
    )
    .unwrap()
}

fn run_csv(spec: &FrontierSpec, threads: usize) -> String {
    let mut sink = CsvMapSink::new(Vec::new());
    Frontier::new().threads(threads).run_into(spec, &TestFactory, &mut sink, None).unwrap();
    String::from_utf8(sink.into_inner()).unwrap()
}

#[test]
fn frontier_map_is_byte_identical_across_thread_counts() {
    let spec = tiny_map();
    let serial = run_csv(&spec, 1);
    let parallel = run_csv(&spec, 4);
    assert_eq!(serial, parallel);
    assert_eq!(serial.lines().count(), 1 + 4, "header plus one row per map point");
    assert_eq!(serial, run_csv(&spec, 4), "repeated runs identical");
}

#[test]
fn interrupted_frontier_resumes_byte_identically() {
    let spec = tiny_map();
    let uninterrupted = run_csv(&spec, 2);

    let dir = std::env::temp_dir().join(format!("emac-frontier-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt_path = dir.join("frontier.ckpt");
    let digest = spec.digest("csv");
    let points = spec.points().len();

    // Phase 1: two waves, then stop — mid-bisection for every point.
    let mut ckpt = FrontierCheckpoint::fresh(&ckpt_path, digest, points).unwrap();
    let mut sink = CsvMapSink::new(Vec::new());
    let partial = Frontier::new()
        .threads(2)
        .max_waves(2)
        .run_into(&spec, &TestFactory, &mut sink, Some(&mut ckpt))
        .unwrap();
    assert!(partial.completed < points, "two waves cannot finish a bisection");
    assert_eq!(partial.waves, 2);
    let part1 = String::from_utf8(sink.into_inner()).unwrap();
    let rows_done = ckpt.rows_written();
    drop(ckpt);

    // Phase 2: resume from the checkpoint; replayed probes are not re-run.
    let mut ckpt = FrontierCheckpoint::resume(&ckpt_path, digest, points).unwrap();
    assert_eq!(ckpt.rows_written(), rows_done);
    let probes_before_resume = ckpt.probes().len();
    // Appending (no header) when part 1 already wrote rows, fresh otherwise.
    let mut sink =
        if rows_done > 0 { CsvMapSink::appending(Vec::new()) } else { CsvMapSink::new(Vec::new()) };
    let resumed = Frontier::new()
        .threads(2)
        .run_into(&spec, &TestFactory, &mut sink, Some(&mut ckpt))
        .unwrap();
    assert_eq!(resumed.completed, points);
    let part2 = String::from_utf8(sink.into_inner()).unwrap();

    let stitched = if rows_done > 0 {
        // part1 carries the header; part2 appended rows only.
        format!("{part1}{part2}")
    } else {
        // no rows landed in part 1 — part 2 is the whole file.
        assert!(part1.is_empty());
        part2
    };
    assert_eq!(stitched, uninterrupted, "resume must reproduce the uninterrupted bytes");

    // Total probe work across both phases equals one uninterrupted run.
    let total_probes = probes_before_resume + resumed.probes_run;
    let mut reference = MemoryMapSink::new();
    let fresh =
        Frontier::new().threads(2).run_into(&spec, &TestFactory, &mut reference, None).unwrap();
    assert_eq!(total_probes, fresh.probes_run, "no probe re-executed, none skipped");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invariant_violating_probes_are_counted_not_dropped() {
    // duty-cycle loses packets by design, so every probe runs unclean;
    // the map still completes but the summary says so (the CLI turns a
    // non-zero count into a failing exit code).
    let spec = FrontierSpec::parse(
        r#"{"template": {"algorithm": "duty-cycle", "adversary": "uniform",
            "rounds": 4000}, "lo": "0", "hi": "1/2", "tol": 0.125,
            "map": {"n": [6], "k": [3]}}"#,
    )
    .unwrap();
    let mut sink = MemoryMapSink::new();
    let summary =
        Frontier::new().threads(2).run_into(&spec, &TestFactory, &mut sink, None).unwrap();
    assert_eq!(summary.completed, 1, "violations do not block the map");
    assert!(summary.probes_run > 0);
    assert_eq!(
        summary.unclean_probes, summary.probes_run,
        "every duty-cycle probe violates and every one must be counted"
    );

    // ... and a clean map reports zero.
    let clean = tiny_map();
    let mut sink = MemoryMapSink::new();
    let summary =
        Frontier::new().threads(2).run_into(&clean, &TestFactory, &mut sink, None).unwrap();
    assert_eq!(summary.unclean_probes, 0);
}

#[test]
fn probe_errors_abort_with_context() {
    let spec = FrontierSpec::parse(
        r#"{"template": {"algorithm": "nope", "adversary": "uniform", "rounds": 100},
            "map": {"n": [4], "k": [2]}}"#,
    )
    .unwrap();
    let mut sink = MemoryMapSink::new();
    let err = Frontier::new().run_into(&spec, &TestFactory, &mut sink, None).unwrap_err();
    assert!(err.contains("frontier probe"), "{err}");
    assert!(err.contains("nope"), "{err}");
}

#[test]
fn checkpoint_for_a_different_map_is_refused() {
    let spec = tiny_map();
    let dir = std::env::temp_dir().join(format!("emac-frontier-refuse-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt_path = dir.join("frontier.ckpt");
    // checkpoint claims a different number of points than the spec expands
    let mut ckpt = FrontierCheckpoint::fresh(&ckpt_path, spec.digest("csv"), 2).unwrap();
    let mut sink = MemoryMapSink::new();
    let err =
        Frontier::new().run_into(&spec, &TestFactory, &mut sink, Some(&mut ckpt)).unwrap_err();
    assert!(err.contains("map points"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run `spec` with a checkpoint at `dir/frontier.ckpt`, stopping after
/// `max_waves` waves when given; returns (CSV bytes, summary).
fn run_checkpointed(
    spec: &FrontierSpec,
    dir: &std::path::Path,
    max_waves: Option<usize>,
    resume: bool,
) -> (String, FrontierSummary) {
    let ckpt_path = dir.join("frontier.ckpt");
    let (digest, points) = (spec.digest("csv"), spec.points().len());
    let mut ckpt = if resume {
        FrontierCheckpoint::resume(&ckpt_path, digest, points).unwrap()
    } else {
        FrontierCheckpoint::fresh(&ckpt_path, digest, points).unwrap()
    };
    let mut sink = if ckpt.rows_written() > 0 {
        CsvMapSink::appending(Vec::new())
    } else {
        CsvMapSink::new(Vec::new())
    };
    let mut frontier = Frontier::new().threads(2);
    if let Some(max) = max_waves {
        frontier = frontier.max_waves(max);
    }
    let summary = frontier.run_into(spec, &TestFactory, &mut sink, Some(&mut ckpt)).unwrap();
    (String::from_utf8(sink.into_inner()).unwrap(), summary)
}

#[test]
fn inconclusive_solo_probes_are_recorded_as_such_and_resume_byte_identically() {
    // Eight rounds sample eight queue points, too few for the classifier,
    // so every probe is `Inconclusive`. A solo map records the probe's own
    // verdict (`i`), not a one-lane majority (which would read `s`), and
    // the bisection treats it as stable.
    let spec = FrontierSpec::parse(
        r#"{"template": {"algorithm": "k-cycle", "adversary": "spread-from-one",
            "target": 1, "rounds": 8}, "lo": "0", "hi": "1/2", "tol": 0.0625,
            "map": {"n": [6, 9], "k": [3]}}"#,
    )
    .unwrap();
    let root = std::env::temp_dir().join(format!("emac-frontier-incon-{}", std::process::id()));
    let (whole, partial) = (root.join("whole"), root.join("partial"));
    std::fs::create_dir_all(&whole).unwrap();
    std::fs::create_dir_all(&partial).unwrap();

    let (csv, summary) = run_checkpointed(&spec, &whole, None, false);
    assert_eq!(summary.completed, 2);
    for row in csv.lines().skip(1) {
        assert!(row.ends_with(",all-stable"), "inconclusive probes count as stable: {row}");
    }
    let ckpt = std::fs::read_to_string(whole.join("frontier.ckpt")).unwrap();
    let probes: Vec<&str> = ckpt.lines().filter(|l| l.starts_with("probe ")).collect();
    assert_eq!(probes.len(), summary.probes_run);
    for line in &probes {
        assert!(line.ends_with(" i"), "solo probe line must carry its own verdict: {line:?}");
    }

    // One wave, then resume: identical CSV and checkpoint bytes.
    let (part1, first) = run_checkpointed(&spec, &partial, Some(1), false);
    assert!(first.completed < 2, "one wave cannot finish a point");
    let (part2, _) = run_checkpointed(&spec, &partial, None, true);
    assert_eq!(format!("{part1}{part2}"), csv);
    assert_eq!(std::fs::read(partial.join("frontier.ckpt")).unwrap(), ckpt.as_bytes());

    let _ = std::fs::remove_dir_all(&root);
}
