//! One output path for campaigns, and merges that cannot clobber their
//! own inputs.
//!
//! Every case drives the real `emac` binary. `emac campaign` has a single
//! streaming path: without `--format` it writes exactly what
//! `--format csv` writes, output and checkpoint alike, and `--limit` /
//! `--resume` work without naming a format. Its checkpoint digest is the
//! one binding `emac shard plan` computes for the same spec and options,
//! which is what lets a merged fleet stand in for a single-process run.
//! `emac shard merge --out` refuses to overwrite any file merge reads.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use emac_core::campaign::MetricsDetail;
use emac_core::shard::{ShardFormat, ShardPlan};

fn emac(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_emac")).args(args).output().unwrap()
}

/// A fresh scratch directory per test case.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emac-out-paths-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn s(path: &Path) -> &str {
    path.to_str().unwrap()
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Eight cheap scenarios, all clean.
const GRID_SPEC: &str = r#"{
  "grids": [
    {"algorithms": ["count-hop", "k-cycle"], "adversaries": ["uniform"],
     "n": [4, 6], "k": [3], "rho": ["1/8", "1/4"], "beta": ["1"],
     "rounds": 2000, "seeds": [1]}
  ]
}"#;

/// One clean scenario and one that violates the energy cap by design.
const VIOLATING_SPEC: &str = r#"[
  {"algorithm": "k-cycle", "adversary": "uniform", "n": 6, "k": 3, "rho": "1/8",
   "rounds": 2000, "seed": 1},
  {"algorithm": "duty-cycle", "adversary": "uniform", "n": 8, "k": 4, "rho": "1/8",
   "rounds": 2048, "seed": 7}
]"#;

/// The `digest` line of a checkpoint, parsed.
fn ckpt_digest(path: &Path) -> u64 {
    let text = String::from_utf8(read(path)).unwrap();
    let hex = text
        .lines()
        .find_map(|l| l.strip_prefix("digest "))
        .unwrap_or_else(|| panic!("{} has no digest line", path.display()));
    u64::from_str_radix(hex, 16).unwrap()
}

#[test]
fn campaign_without_format_streams_the_csv_path() {
    let dir = scratch("default");
    let spec = dir.join("grid.json");
    std::fs::write(&spec, GRID_SPEC).unwrap();

    let plain = dir.join("plain");
    let out = emac(&["campaign", s(&spec), "--out", s(&plain)]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let csv = dir.join("csv");
    let out = emac(&["campaign", s(&spec), "--out", s(&csv), "--format", "csv"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    for name in ["campaign.csv", "campaign.ckpt"] {
        assert_eq!(read(&plain.join(name)), read(&csv.join(name)), "{name} differs");
    }
    assert_eq!(
        String::from_utf8(read(&plain.join("campaign.csv"))).unwrap().lines().count(),
        9,
        "one header and eight rows"
    );
    assert!(!plain.join("campaign.json").exists(), "the buffered export is gone");

    // Chunked: --limit then --resume, neither naming a format.
    let chunked = dir.join("chunked");
    let out = emac(&["campaign", s(&spec), "--out", s(&chunked), "--limit", "3"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let first = String::from_utf8(read(&chunked.join("campaign.csv"))).unwrap();
    assert_eq!(first.lines().count(), 4, "the limited chunk writes a header and three rows");
    let out = emac(&["campaign", s(&spec), "--out", s(&chunked), "--resume"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    for name in ["campaign.csv", "campaign.ckpt"] {
        assert_eq!(read(&chunked.join(name)), read(&plain.join(name)), "resumed {name} differs");
    }

    // The checkpoint binds spec, file name and detail exactly as a shard
    // plan does, for every format and detail.
    assert_eq!(
        ckpt_digest(&plain.join("campaign.ckpt")),
        ShardPlan::digest_for(GRID_SPEC, ShardFormat::Csv, MetricsDetail::Full).unwrap()
    );
    let slim = dir.join("slim");
    let out =
        emac(&["campaign", s(&spec), "--out", s(&slim), "--format", "jsonl", "--detail", "slim"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        ckpt_digest(&slim.join("campaign.ckpt")),
        ShardPlan::digest_for(GRID_SPEC, ShardFormat::JsonLines, MetricsDetail::Slim).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_with_a_violating_run_exits_non_zero() {
    let dir = scratch("violating");
    let spec = dir.join("spec.json");
    std::fs::write(&spec, VIOLATING_SPEC).unwrap();
    let out = emac(&["campaign", s(&spec), "--out", s(&dir.join("out"))]);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stdout));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 ok, 1 with violations"), "{stdout}");
    let csv = String::from_utf8(read(&dir.join("out/campaign.csv"))).unwrap();
    assert_eq!(csv.lines().count(), 3, "the violating row is still written");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_refuses_to_overwrite_a_file_it_reads() {
    let dir = scratch("merge");
    let spec = dir.join("grid.json");
    std::fs::write(&spec, GRID_SPEC).unwrap();
    let fleet = dir.join("fl");
    let out = emac(&["shard", "plan", s(&spec), "--dir", s(&fleet), "--shards", "2"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // Shard 0 runs first and steals all eight rows; shard 1 finds nothing.
    for shard in ["0", "1"] {
        let out = emac(&["shard", "run", s(&spec), "--dir", s(&fleet), "--shard", shard]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let shard0 = fleet.join("shard-0/campaign.csv");
    assert_eq!(String::from_utf8(read(&shard0)).unwrap().lines().count(), 8);

    let inputs = [
        fleet.join("shard-0/campaign.csv"),
        fleet.join("shard-0/campaign.ckpt"),
        fleet.join("shard-1/campaign.csv"),
        fleet.join("shard-1/campaign.ckpt"),
        fleet.join("plan.json"),
        fleet.join("claims.log"),
        fleet.join("leases/unit-0.lease"),
        // a detour through another directory names the same file
        fleet.join("shard-1/../shard-0/campaign.csv"),
    ];
    for input in &inputs {
        let before = read(input);
        let out = emac(&["shard", "merge", "--dir", s(&fleet), "--out", s(input)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "merge --out {}: {stderr}", input.display());
        assert!(stderr.contains("which merge reads; refusing to overwrite it"), "{stderr}");
        assert_eq!(read(input), before, "a refused merge must not touch {}", input.display());
    }
    assert!(!fleet.join("merged.csv").exists(), "a refused merge writes nothing");

    // The fleet is intact: a plain merge reproduces the single-process run.
    let out = emac(&["shard", "merge", "--dir", s(&fleet)]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let single = dir.join("single");
    let out = emac(&["campaign", s(&spec), "--out", s(&single)]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(read(&fleet.join("merged.csv")), read(&single.join("campaign.csv")));
    let _ = std::fs::remove_dir_all(&dir);
}
