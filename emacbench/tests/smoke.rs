//! The benchmark's own checks at smoke size: every workload runs clean,
//! traced and untraced outputs agree, and a corrupted output is counted as
//! a failure instead of being timed.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use emac::registry::Registry;
use emacbench::workload::{self, Size, Workload};
use emacbench::{run, Check, Options, Rep};

/// Traced runs collect spans process-wide, so tests that trace take turns.
static TRACING: Mutex<()> = Mutex::new(());

fn work(name: &str) -> PathBuf {
    PathBuf::from(".bench_work").join(format!("test-{name}-{}", std::process::id()))
}

fn smoke(w: Workload, trace: bool) {
    let opts = Options {
        workload: w,
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
        work: work(&format!("{}-{trace}", w.name())),
    };
    let _turn = trace.then(|| TRACING.lock().unwrap_or_else(|e| e.into_inner()));
    let report = run(&opts).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    assert!(report.correct, "{}: {} of {} failed", w.name(), report.failed, report.attempted);
    assert_eq!(report.failed, 0);
    assert!(report.attempted > 0);
    assert!(!opts.work.exists(), "outputs are removed");
    if trace {
        let get = |name: &str| report.metrics.iter().find(|m| m.name == name).map(|m| m.value);
        assert!(get("engine.rounds").unwrap() > 0.0, "{}", w.name());
        assert!(get("protocol.act_calls").unwrap() > 0.0);
        assert!(get("journal.fsyncs_per_row").unwrap() > 0.0);
        assert!(!report.spans.is_empty());
        assert!(report.exact.iter().all(|n| get(n).is_some()));
    } else {
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["wall_s", "cpu_s", "peak_rss_mb", "setup_s"]);
        assert!(report.metrics.iter().all(|m| m.value > 0.0), "{:?}", report.metrics);
    }
}

#[test]
fn every_workload_passes_its_checks_untraced() {
    for w in Workload::ALL {
        smoke(w, false);
    }
}

#[test]
fn every_workload_passes_its_checks_traced() {
    // Traced executions must reproduce the untraced output digest and
    // repeat every exact count, or `run` fails.
    for w in Workload::ALL {
        smoke(w, true);
    }
}

#[test]
fn frontier_probes_are_counted_from_plan_calls() {
    let opts = Options {
        workload: Workload::FrontierBand,
        seed: 3,
        seconds: 0.0,
        trace: true,
        size: Size::Smoke,
        work: work("frontier-rounds"),
    };
    let _turn = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    let report = run(&opts).unwrap();
    let get = |name: &str| report.metrics.iter().find(|m| m.name == name).unwrap().value;
    assert_eq!(get("engine.rounds"), get("adversary.plan_calls"));
    assert!(get("frontier.probes") > 0.0 && get("frontier.lanes") >= 5.0 * get("frontier.probes"));
    let ratio = get("frontier.rounds_used_ratio");
    assert!(ratio > 0.0 && ratio <= 1.0, "{ratio}");
}

#[test]
fn a_flipped_output_byte_is_failed_not_timed() {
    for w in Workload::ALL {
        let inputs = workload::generate(w, 11, Size::Smoke);
        let mut check = Check::new(&inputs, 11, Size::Smoke).unwrap();
        let dir = work(&format!("flip-{}", w.name()));
        let prepared = workload::setup(&inputs, &dir).unwrap();
        let mut outcome = workload::execute(prepared, &Registry, None).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let t = Duration::from_millis(1);
        let failed = check.failures(&outcome);
        assert_eq!(failed, 0, "{}", w.name());
        assert!(Rep::new(&outcome, failed, t, t, t).timed.is_some());

        let mid = outcome.output.len() / 2;
        outcome.output[mid] ^= 0x01;
        let failed = check.failures(&outcome);
        assert!(failed >= 1, "{}: a corrupted output must count as failed", w.name());
        let rep = Rep::new(&outcome, failed, t, t, t);
        assert_eq!(rep.timed, None, "{}: a failed execution is not timed", w.name());
    }
}
