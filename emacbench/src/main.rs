//! `emacbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (or, with `all`, each workload in a child process of
//! its own) and prints a table on stderr and, as the last line of stdout,
//! `{"correct", "attempted", "failed", "metrics"}`. Outputs go under
//! `.bench_work/` in the current directory and are removed afterwards,
//! except the traced run's spans (`.bench_work/spans-<workload>.jsonl`).

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use emacbench::workload::{Size, Workload};
use emacbench::{run, Options, Report, DEFAULT_SEED};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn table(name: &str, report: &Report) {
    let ratio = report.failed as f64 / report.attempted.max(1) as f64;
    eprintln!(
        "{name}: correct={} attempted={} failed={} failed_ratio={ratio} (1) reps={}+{} traced \
         output digest {:016x}",
        report.correct,
        report.attempted,
        report.failed,
        report.reps.0,
        report.reps.1,
        report.digest
    );
    for m in &report.metrics {
        eprintln!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let walls: Vec<String> = report.walls.iter().map(|w| format!("{w:.4}")).collect();
    eprintln!("  untraced executions, wall s: {}", walls.join(" "));
    for (name, pinned, now) in &report.drift {
        eprintln!("  exact work drift: {name} is {now}, exact_work.json has {pinned}");
    }
}

/// Every workload, each in its own child process so peak memory is its own.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    for w in Workload::ALL {
        let out = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .output()
            .map_err(|e| format!("{}: {e}", w.name()))?;
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        println!("{} {}", w.name(), stdout.lines().last().unwrap_or("(no result)"));
        if !out.status.success() {
            return Err(format!("{} exited with {}", w.name(), out.status));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("emacbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("emacbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("emacbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let root = PathBuf::from(".bench_work");
    let opts = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        size: Size::Full,
        work: root.join(format!("{}-{}", workload.name(), std::process::id())),
    };
    match run(&opts) {
        Ok(report) => {
            table(workload.name(), &report);
            if args.trace {
                let exact: Vec<String> = report
                    .metrics
                    .iter()
                    .filter(|m| report.exact.contains(&m.name))
                    .map(|m| format!("\"{}\": {}", m.name, m.value))
                    .collect();
                eprintln!("exact work: \"{}\": {{{}}}", workload.name(), exact.join(", "));
                let path = root.join(format!("spans-{}.jsonl", workload.name()));
                let mut text = report.spans.join("\n");
                text.push('\n');
                if let Err(e) = std::fs::write(&path, text) {
                    eprintln!("emacbench: {}: {e}", path.display());
                }
            }
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("emacbench: {}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}
