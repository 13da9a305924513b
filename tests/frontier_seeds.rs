//! Frontier seed-ensemble semantics: the `"seeds"` template key.
//!
//! Three contracts are pinned here on top of the unit tests in
//! `emac-core`'s frontier module:
//!
//! 1. a single-element seed list is a pure seed override — the map and
//!    its checkpoint records are byte-identical to editing the template's
//!    `"seed"` directly;
//! 2. a degenerate ensemble of identical seeds equals the solo run with
//!    the template seed byte-for-byte (every lane is the same execution,
//!    so the strict-majority verdict collapses to the solo verdict);
//! 3. an honest multi-seed ensemble still produces a deterministic,
//!    thread-count-independent map.

use emac::registry::Registry;
use emac_core::frontier::{CsvMapSink, Frontier, FrontierCheckpoint, FrontierSpec};

const BASE: &str = r#"{
  "template": {"algorithm": "k-cycle", "adversary": "spread-from-one",
               "target": 1, "beta": "1", "rounds": 8000, "probe_cap": 800SEED},
  "axis": "rho",
  "lo": "0.5 * group_share",
  "hi": "1.25 * k_cycle_threshold",
  "tol": 0.0625,
  "map": {"n": [9], "k": [3]}SEEDS
}"#;

fn spec(seed: Option<u64>, seeds: &str) -> FrontierSpec {
    let seed = seed.map_or(String::new(), |s| format!(", \"seed\": {s}"));
    let seeds = if seeds.is_empty() { String::new() } else { format!(",\n  \"seeds\": {seeds}") };
    FrontierSpec::parse(&BASE.replace("SEEDS", &seeds).replace("SEED", &seed)).unwrap()
}

fn run(spec: &FrontierSpec, threads: usize) -> String {
    let mut sink = CsvMapSink::new(Vec::new());
    Frontier::new().threads(threads).run_into(spec, &Registry, &mut sink, None).unwrap();
    String::from_utf8(sink.into_inner()).unwrap()
}

/// Run `spec` with a checkpoint in a fresh directory named `tag`; returns
/// the CSV bytes and the checkpoint's record lines (its header, which
/// binds the spec digest, dropped).
fn run_recorded(spec: &FrontierSpec, tag: &str) -> (String, Vec<String>) {
    let dir =
        std::env::temp_dir().join(format!("emac-frontier-seeds-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("frontier.ckpt");
    let mut ckpt =
        FrontierCheckpoint::fresh(&path, spec.digest("csv"), spec.points().len()).unwrap();
    let mut sink = CsvMapSink::new(Vec::new());
    Frontier::new().threads(2).run_into(spec, &Registry, &mut sink, Some(&mut ckpt)).unwrap();
    drop(ckpt);
    let records = std::fs::read_to_string(&path)
        .unwrap()
        .lines()
        .filter(|l| l.starts_with("probe ") || l.starts_with("row "))
        .map(str::to_string)
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (String::from_utf8(sink.into_inner()).unwrap(), records)
}

#[test]
fn single_seed_list_is_a_template_seed_override() {
    assert_eq!(run(&spec(None, "[5]"), 1), run(&spec(Some(5), ""), 1));
    // ... and a scalar parses like a one-element list.
    assert_eq!(run(&spec(None, "5"), 1), run(&spec(Some(5), ""), 1));
    // The checkpoint records match too: one untallied `probe` line per
    // probe, then the `row` lines.
    let (listed_csv, listed) = run_recorded(&spec(None, "[5]"), "listed");
    let (template_csv, template) = run_recorded(&spec(Some(5), ""), "template");
    assert_eq!(listed_csv, template_csv);
    assert_eq!(listed, template);
    assert!(listed.iter().any(|l| l.starts_with("row ")), "{listed:?}");
    assert!(
        listed.iter().filter(|l| l.starts_with("probe ")).all(|l| l.split(' ').count() == 3),
        "a one-seed map carries no lane tallies: {listed:?}"
    );
}

/// Strip the three band columns an ensemble map appends (header and
/// rows), leaving the legacy solo-map byte format.
fn strip_band(map: &str) -> String {
    map.lines()
        .map(|line| {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields.len(), 11, "ensemble rows carry exactly three extra columns");
            fields[..8].join(",")
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

#[test]
fn identical_seed_ensemble_collapses_to_the_solo_map() {
    // Template seed defaults to 42; three lanes of seed 42 are three
    // copies of the solo execution, so the majority verdict — and hence
    // the whole search trajectory — must match the solo run. The ensemble
    // map's band columns append *after* the legacy columns, so stripping
    // them recovers the solo bytes exactly; the band itself must be
    // degenerate with agreement exactly 1.
    let ensemble = run(&spec(None, "[42, 42, 42]"), 1);
    assert_eq!(strip_band(&ensemble), run(&spec(None, ""), 1));
    for row in ensemble.lines().skip(1) {
        let fields: Vec<&str> = row.split(',').collect();
        let boundary = fields[5];
        assert_eq!(fields[8], boundary, "band_lo collapses to the boundary");
        assert_eq!(fields[9], boundary, "band_hi collapses to the boundary");
        assert_eq!(fields[10], "1.000000", "identical lanes agree exactly");
    }
}

#[test]
fn seed_ensemble_maps_are_deterministic_at_any_thread_count() {
    let s = spec(None, "[3, 19, 42]");
    let serial = run(&s, 1);
    assert_eq!(serial, run(&s, 4), "ensemble map must not depend on the thread count");
    assert_eq!(serial, run(&s, 1), "ensemble map must be reproducible");
}

#[test]
fn seeds_round_trip_through_json_and_bind_the_digest() {
    let with = spec(None, "[3, 19, 42]");
    assert_eq!(with.seeds, vec![3, 19, 42]);
    let reparsed = FrontierSpec::parse(&with.to_json().render()).unwrap();
    assert_eq!(reparsed.seeds, with.seeds);

    // No seeds => no "seeds" key: pre-ensemble spec files keep their
    // digests (and hence their checkpoint identities).
    let without = spec(None, "");
    assert!(!without.to_json().render().contains("seeds"));
    assert_ne!(with.digest("csv"), without.digest("csv"), "seed list must bind the digest");

    let err = FrontierSpec::parse(
        r#"{"template": {"algorithm": "a", "adversary": "b"}, "seeds": [1, "x"]}"#,
    )
    .unwrap_err();
    assert!(err.contains("unsigned integers"), "{err}");
}
