//! Campaign checkpoints: crash-safe progress tracking for long sweeps.
//!
//! A [`Checkpoint`] is a [durable journal](crate::ckptio) (`campaign.ckpt`,
//! conventionally next to the campaign's output) recording which scenario
//! indices have been durably written to the result sink. The executor
//! appends a scenario's record only **after** the sink accepted the row
//! *and* made it durable
//! ([`ResultSink::sync`](super::sink::ResultSink::sync)), so a crash at
//! any instant leaves the checkpoint claiming no more than the output
//! holds. The opposite overhang — output rows whose record never landed —
//! is trimmed at resume time by
//! [`reconcile_output`](crate::ckptio::reconcile_output); those scenarios
//! re-execute, so a resumed campaign's final output is byte-identical to
//! an uninterrupted run.
//!
//! The header pins a digest of the full spec list ([`spec_list_digest`]),
//! so resuming against an edited spec file is refused instead of silently
//! producing a frankenstein result.
//!
//! # Records
//!
//! ```text
//! emac-campaign-ckpt v1
//! digest 4a3f9c0e12b45d67
//! total 128
//! done 0
//! done 1
//! …
//! ```
//!
//! One `done <index>` per scenario, in sink-acceptance order: the j-th
//! record names the scenario behind the j-th output row. Every index is
//! below `total` and is recorded at most once.

use std::collections::BTreeSet;
use std::fmt::Display;
use std::io;
use std::path::Path;

use super::{MetricsDetail, ScenarioSpec};
use crate::ckptio::{self, Header, Journal};
use crate::digest::Fnv64;
use crate::shard::ShardFormat;

const MAGIC: &str = "emac-campaign-ckpt v1";

fn header(digest: u64, total: usize) -> Header {
    Header {
        magic: MAGIC,
        what: "campaign checkpoint",
        count_key: "total",
        count_noun: "scenario count",
        digest,
        count: total,
    }
}

/// FNV-1a digest of a spec list: the scenario count followed by every
/// spec's canonical compact JSON rendering. Two spec files that expand to
/// the same scenarios in the same order digest identically; any reorder,
/// edit, insertion, or deletion changes it.
pub fn spec_list_digest(specs: &[ScenarioSpec]) -> u64 {
    let mut h = Fnv64::new();
    h.usize(specs.len());
    for spec in specs {
        h.str(&spec.to_json().render());
    }
    h.finish()
}

/// The digest a campaign run pins in its checkpoint: the spec list *and*
/// the options that shape the output rows (output file name, metrics
/// detail). Resuming the same specs with another `--format` or `--detail`
/// would interleave incompatible rows, so it is refused like an edited
/// spec file. `emac campaign` and every shard plan bind it the same way.
pub fn run_digest(specs: &[ScenarioSpec], format: ShardFormat, detail: MetricsDetail) -> u64 {
    let mut h = Fnv64::new();
    h.u64(spec_list_digest(specs));
    h.str(&format.file_name("campaign"));
    h.str(detail.name());
    h.finish()
}

/// Persistent record of completed scenario indices — see the module docs
/// for the file format and durability contract.
#[derive(Debug)]
pub struct Checkpoint {
    journal: Journal,
    total: usize,
    done: BTreeSet<usize>,
}

impl Checkpoint {
    /// Start a fresh checkpoint at `path` (truncating any previous one)
    /// for a campaign of `total` scenarios whose spec list digests to
    /// `digest`. The header is written and fsync'd before returning.
    pub fn fresh(path: &Path, digest: u64, total: usize) -> Result<Self, String> {
        let journal = Journal::create(path, &header(digest, total)).map_err(|e| error(path, e))?;
        Ok(Self { journal, total, done: BTreeSet::new() })
    }

    /// Resume from the checkpoint at `path`, verifying that it belongs to
    /// this spec list (`digest`, `total`). A missing file starts fresh —
    /// `--resume` on a never-started campaign just runs it. A digest or
    /// count mismatch is refused.
    pub fn resume(path: &Path, digest: u64, total: usize) -> Result<Self, String> {
        let mut done = BTreeSet::new();
        match Journal::open(path, &header(digest, total), |line| {
            replay(&mut done, total, line).map(drop)
        }) {
            Ok(journal) => Ok(Self { journal, total, done }),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Self::fresh(path, digest, total),
            Err(e) => Err(error(path, e)),
        }
    }

    /// Record scenario `index` as durably written. Appends one line and
    /// fsyncs it before returning, so a completed scenario survives any
    /// later crash. An index out of range or already recorded is refused
    /// and nothing is written.
    pub fn record(&mut self, index: usize) -> Result<(), String> {
        let path = self.journal.path();
        check(&self.done, self.total, index).map_err(|e| error(path, e))?;
        self.journal.append(format_args!("done {index}")).map_err(|e| error(path, e))?;
        self.done.insert(index);
        Ok(())
    }

    /// Whether scenario `index` is already recorded.
    pub fn is_done(&self, index: usize) -> bool {
        self.done.contains(&index)
    }

    /// Number of recorded scenarios.
    pub fn completed(&self) -> usize {
        self.done.len()
    }

    /// Total scenarios in the campaign this checkpoint tracks.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The spec indices still to run, in spec order — feed this to
    /// [`Campaign::run_subset`](super::Campaign::run_subset).
    pub fn remaining(&self) -> Vec<usize> {
        (0..self.total).filter(|i| !self.done.contains(i)).collect()
    }
}

/// The scenario indices the checkpoint at `path` records, in append
/// order: the j-th names the scenario behind the j-th output row, the
/// pairing `shard::merge` uses to stitch shard outputs whose row order is
/// not globally ascending. Reads without repairing or creating the file.
pub(crate) fn recorded(path: &Path, digest: u64, total: usize) -> io::Result<Vec<usize>> {
    let mut done = BTreeSet::new();
    let mut order = Vec::new();
    ckptio::read(path, &header(digest, total), |line| {
        replay(&mut done, total, line).map(|index| order.push(index))
    })?;
    Ok(order)
}

fn error(path: &Path, e: impl Display) -> String {
    format!("checkpoint {}: {e}", path.display())
}

/// Parse one record, check it against the records before it, and add it.
fn replay(done: &mut BTreeSet<usize>, total: usize, line: &str) -> Result<usize, String> {
    let index = line
        .strip_prefix("done ")
        .and_then(|i| i.parse::<usize>().ok())
        .ok_or_else(|| format!("malformed checkpoint line {line:?}"))?;
    check(done, total, index)?;
    done.insert(index);
    Ok(index)
}

/// The invariant every record keeps, on append and on replay alike.
fn check(done: &BTreeSet<usize>, total: usize, index: usize) -> Result<(), String> {
    if index >= total {
        return Err(format!("scenario {index} is out of range for a {total}-scenario run"));
    }
    if done.contains(&index) {
        return Err(format!("scenario {index} recorded twice"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("emac-ckpt-unit-{}-{tag}.ckpt", std::process::id()))
    }

    #[test]
    fn fresh_record_resume_round_trip() {
        let path = temp_path("roundtrip");
        let digest = 0xabcd_1234_u64;
        let mut ck = Checkpoint::fresh(&path, digest, 5).unwrap();
        assert_eq!(ck.remaining(), vec![0, 1, 2, 3, 4]);
        ck.record(0).unwrap();
        ck.record(1).unwrap();
        ck.record(3).unwrap();
        drop(ck);
        let ck = Checkpoint::resume(&path, digest, 5).unwrap();
        assert_eq!(ck.completed(), 3);
        assert!(ck.is_done(3) && !ck.is_done(2));
        assert_eq!(ck.remaining(), vec![2, 4]);
        assert_eq!(ck.total(), 5);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_refuses_digest_and_total_mismatch() {
        let path = temp_path("mismatch");
        Checkpoint::fresh(&path, 7, 3).unwrap();
        let err = Checkpoint::resume(&path, 8, 3).unwrap_err();
        assert!(err.contains("refusing to resume"), "{err}");
        assert!(err.contains("digest mismatch"), "{err}");
        let err = Checkpoint::resume(&path, 7, 4).unwrap_err();
        assert!(err.contains("count mismatch"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_of_missing_file_starts_fresh() {
        let path = temp_path("missing");
        let _ = std::fs::remove_file(&path);
        let ck = Checkpoint::resume(&path, 1, 2).unwrap();
        assert_eq!(ck.completed(), 0);
        assert!(path.exists(), "fresh header written");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_trailing_line_is_ignored_but_torn_middle_is_not() {
        let path = temp_path("torn");
        let mut ck = Checkpoint::fresh(&path, 9, 10).unwrap();
        ck.record(0).unwrap();
        ck.record(1).unwrap();
        drop(ck);
        // simulate a kill mid-append
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        write!(file, "done 2").unwrap(); // no newline
        drop(file);
        let mut ck = Checkpoint::resume(&path, 9, 10).unwrap();
        assert_eq!(ck.completed(), 2, "torn tail dropped");
        // the torn bytes are physically gone: a record appended after the
        // resume lands on a fresh line and a second resume accepts it
        ck.record(2).unwrap();
        drop(ck);
        let ck = Checkpoint::resume(&path, 9, 10).unwrap();
        assert_eq!(ck.completed(), 3, "post-resume record survives a second resume");
        let _ = std::fs::remove_file(&path);

        let path = temp_path("garbled");
        std::fs::write(&path, format!("{MAGIC}\ndigest {:016x}\ntotal 4\nwat\ndone 1\n", 9u64))
            .unwrap();
        let err = Checkpoint::resume(&path, 9, 4).unwrap_err();
        assert!(err.contains("malformed"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_out_of_range_and_foreign_files() {
        let path = temp_path("range");
        std::fs::write(&path, format!("{MAGIC}\ndigest {:016x}\ntotal 2\ndone 5\n", 3u64)).unwrap();
        assert!(Checkpoint::resume(&path, 3, 2)
            .unwrap_err()
            .contains("scenario 5 is out of range"));
        std::fs::write(&path, "something else\n").unwrap();
        assert!(Checkpoint::resume(&path, 3, 2).unwrap_err().contains("bad magic"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ordered_parse_preserves_append_order_and_refuses_duplicates() {
        let path = temp_path("ordered");
        let head = format!("{MAGIC}\ndigest {:016x}\ntotal 6\n", 5u64);
        std::fs::write(&path, format!("{head}done 4\ndone 1\ndone 3\n")).unwrap();
        assert_eq!(recorded(&path, 5, 6).unwrap(), vec![4, 1, 3], "append order, not sorted");
        std::fs::write(&path, format!("{head}done 2\ndone 2\n")).unwrap();
        let err = recorded(&path, 5, 6).unwrap_err().to_string();
        assert!(err.contains("scenario 2 recorded twice"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn record_refuses_what_resume_would_refuse_and_writes_nothing() {
        let path = temp_path("refuse");
        let mut ck = Checkpoint::fresh(&path, 4, 3).unwrap();
        ck.record(2).unwrap();
        let before = std::fs::read(&path).unwrap();
        let err = ck.record(2).unwrap_err();
        assert!(err.contains("scenario 2 recorded twice"), "{err}");
        let err = ck.record(3).unwrap_err();
        assert!(err.contains("scenario 3 is out of range"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), before, "a refused record writes nothing");
        assert_eq!(ck.completed(), 1);
        drop(ck);
        let ck = Checkpoint::resume(&path, 4, 3).unwrap();
        assert_eq!(ck.remaining(), vec![0, 1]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn spec_digest_is_order_and_content_sensitive() {
        let a = ScenarioSpec::new("x", "y");
        let b = ScenarioSpec::new("x", "y").seed(9);
        let d1 = spec_list_digest(&[a.clone(), b.clone()]);
        assert_eq!(d1, spec_list_digest(&[a.clone(), b.clone()]), "deterministic");
        assert_ne!(d1, spec_list_digest(&[b.clone(), a.clone()]), "order matters");
        assert_ne!(d1, spec_list_digest(std::slice::from_ref(&a)), "count matters");
        assert_ne!(d1, spec_list_digest(&[a, b.seed(10)]), "content matters");
    }
}
