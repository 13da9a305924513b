//! Frontier checkpoints: crash-safe bisection state.
//!
//! A frontier search's full state is (a) which probes have run and what
//! each said, and (b) how many output rows are already durable — bisection
//! is a deterministic function of the per-point verdict sequence, so a
//! checkpoint need only record `probe` and `row` lines and a resume
//! *replays* them through the same state machine to land exactly where a
//! killed run stopped, mid-bisection included. The file is a
//! [durable journal](crate::ckptio): every record is fsync'd before the
//! engine moves on, a `row` record is appended only after the output sink
//! made the row durable, and the header digest binds the frontier spec
//! **and** the output format.
//!
//! # Records
//!
//! ```text
//! emac-frontier-ckpt v1
//! digest 4a3f9c0e12b45d67
//! points 4
//! probe 0 s
//! probe 1 d 4 5
//! row 0
//! …
//! ```
//!
//! Verdicts are one letter: `s`table, `d`iverging, `i`nconclusive. Solo
//! probes record `probe <point> <verdict>`; seed-ensemble probes append
//! `<diverging-lanes> <total-lanes>` from the probe's **final** (possibly
//! escalation-widened) lane batch — together with the verdict that is the
//! whole replayable escalation event: lanes are deterministic, so a resume
//! reconstructs the verdict-flip band and agreement tallies without
//! re-running a single probe. An ensemble spec refuses to resume from a
//! checkpoint whose probe lines lack lane counts (a pre-band artifact):
//! replaying them would silently drop band state.
//!
//! Every point is below `points`, a lane tally has at least one lane and
//! no more diverging lanes than lanes, and `row <index>` names each point
//! at most once — in map order for a sequential checkpoint.

use std::fmt;
use std::io;
use std::path::Path;

use crate::ckptio::{self, Header, Journal};
use crate::stability::Verdict;

const MAGIC: &str = "emac-frontier-ckpt v1";

fn header(digest: u64, points: usize) -> Header {
    Header {
        magic: MAGIC,
        what: "frontier checkpoint",
        count_key: "points",
        count_noun: "map size",
        digest,
        count: points,
    }
}

/// One recorded probe: which map point, what the (majority) verdict was,
/// and — for seed-ensemble probes — the final lane tally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeRecord {
    /// Map-point index the probe belongs to.
    pub point: usize,
    /// The verdict that drove the bisection (the strict-majority verdict
    /// for ensemble probes; ties count as diverging).
    pub verdict: Verdict,
    /// `(diverging lanes, total lanes)` of the final lane batch for
    /// ensemble probes; `None` for solo probes.
    pub lanes: Option<(usize, usize)>,
}

/// Persistent record of probe verdicts and emitted rows — see the module
/// docs for the format and durability contract.
///
/// A checkpoint is either *sequential* (the default: rows must arrive in
/// map order, `0, 1, 2, …` — what a single-process run emits) or *sharded*
/// ([`fresh_sharded`](Self::fresh_sharded) /
/// [`resume_sharded`](Self::resume_sharded)): a shard worker claims work
/// units in lease order, which is not globally ascending once it starts
/// stealing, so its rows may arrive in any order as long as each map point
/// is recorded at most once. The j-th `row` line still names the point
/// behind the j-th output row — the pairing `shard::merge` uses to stitch
/// shard outputs back into map order.
#[derive(Debug)]
pub struct FrontierCheckpoint {
    journal: Journal,
    recorded: Recorded,
}

/// One journal record.
enum Record {
    Probe(ProbeRecord),
    Row(usize),
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Record::Probe(ProbeRecord { point, verdict, lanes }) => {
                let letter = match verdict {
                    Verdict::Stable => 's',
                    Verdict::Diverging => 'd',
                    Verdict::Inconclusive => 'i',
                };
                write!(f, "probe {point} {letter}")?;
                match lanes {
                    Some((diverging, total)) => write!(f, " {diverging} {total}"),
                    None => Ok(()),
                }
            }
            Record::Row(index) => write!(f, "row {index}"),
        }
    }
}

impl Record {
    fn parse(line: &str) -> Result<Self, String> {
        if let Some(rest) = line.strip_prefix("probe ") {
            let malformed = || format!("malformed probe line {line:?}");
            let mut fields = rest.split(' ');
            let point = fields.next().and_then(|t| t.parse().ok()).ok_or_else(malformed)?;
            let verdict = match fields.next() {
                Some("s") => Verdict::Stable,
                Some("d") => Verdict::Diverging,
                Some("i") => Verdict::Inconclusive,
                _ => return Err(malformed()),
            };
            // Optional ensemble tally: `<diverging> <total>` lane counts.
            let lanes = match fields.next() {
                None => None,
                Some(diverging) => {
                    let diverging = diverging.parse().map_err(|_| malformed())?;
                    let total = fields.next().and_then(|t| t.parse().ok()).ok_or_else(malformed)?;
                    if fields.next().is_some() {
                        return Err(malformed());
                    }
                    Some((diverging, total))
                }
            };
            Ok(Record::Probe(ProbeRecord { point, verdict, lanes }))
        } else if let Some(index) = line.strip_prefix("row ") {
            index.parse().map(Record::Row).map_err(|_| format!("malformed row line {line:?}"))
        } else {
            Err(format!("malformed checkpoint line {line:?}"))
        }
    }
}

/// What the records so far say, and the invariants each new one keeps.
#[derive(Debug)]
struct Recorded {
    points: usize,
    sequential: bool,
    probes: Vec<ProbeRecord>,
    rows: Vec<usize>,
}

impl Recorded {
    fn new(points: usize, sequential: bool) -> Self {
        Self { points, sequential, probes: Vec::new(), rows: Vec::new() }
    }

    /// The invariant every record keeps, on append and on replay alike.
    fn check(&self, record: &Record) -> Result<(), String> {
        let points = self.points;
        match *record {
            Record::Probe(ProbeRecord { point, lanes, .. }) => {
                if point >= points {
                    return Err(format!("probe for map point {point} of a {points}-point map"));
                }
                if let Some((diverging, total)) = lanes {
                    if total == 0 || diverging > total {
                        return Err(format!(
                            "impossible lane tally for map point {point}: {diverging} of \
                             {total} lanes diverging"
                        ));
                    }
                }
            }
            Record::Row(index) => {
                if self.sequential && index != self.rows.len() {
                    return Err(format!(
                        "row {index} recorded out of order (expected {})",
                        self.rows.len()
                    ));
                }
                if index >= points {
                    return Err(format!("row {index} of a {points}-point map"));
                }
                if self.rows.contains(&index) {
                    return Err(format!("row {index} recorded twice"));
                }
            }
        }
        Ok(())
    }

    fn push(&mut self, record: Record) {
        match record {
            Record::Probe(probe) => self.probes.push(probe),
            Record::Row(index) => self.rows.push(index),
        }
    }

    fn replay(&mut self, line: &str) -> Result<(), String> {
        let record = Record::parse(line)?;
        self.check(&record)?;
        self.push(record);
        Ok(())
    }
}

impl FrontierCheckpoint {
    /// Start a fresh checkpoint at `path` (truncating any previous one)
    /// for a map of `points` points whose spec digests to `digest`
    /// ([`FrontierSpec::digest`](super::FrontierSpec::digest)).
    pub fn fresh(path: &Path, digest: u64, points: usize) -> Result<Self, String> {
        Self::fresh_mode(path, digest, points, true)
    }

    /// Like [`fresh`](Self::fresh), but for a shard worker: rows may be
    /// recorded in any order (each point at most once).
    pub fn fresh_sharded(path: &Path, digest: u64, points: usize) -> Result<Self, String> {
        Self::fresh_mode(path, digest, points, false)
    }

    fn fresh_mode(
        path: &Path,
        digest: u64,
        points: usize,
        sequential: bool,
    ) -> Result<Self, String> {
        let journal = Journal::create(path, &header(digest, points)).map_err(|e| error(path, e))?;
        Ok(Self { journal, recorded: Recorded::new(points, sequential) })
    }

    /// Resume from `path`, verifying the digest and point count. A missing
    /// file starts fresh; a mismatch is refused.
    pub fn resume(path: &Path, digest: u64, points: usize) -> Result<Self, String> {
        Self::resume_mode(path, digest, points, true)
    }

    /// Like [`resume`](Self::resume), but for a shard worker: recorded
    /// rows may appear in any order (each point at most once).
    pub fn resume_sharded(path: &Path, digest: u64, points: usize) -> Result<Self, String> {
        Self::resume_mode(path, digest, points, false)
    }

    fn resume_mode(
        path: &Path,
        digest: u64,
        points: usize,
        sequential: bool,
    ) -> Result<Self, String> {
        let mut recorded = Recorded::new(points, sequential);
        match Journal::open(path, &header(digest, points), |line| recorded.replay(line)) {
            Ok(journal) => Ok(Self { journal, recorded }),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                Self::fresh_mode(path, digest, points, sequential)
            }
            Err(e) => Err(error(path, e)),
        }
    }

    /// Record one solo probe verdict for map point `point`. Appended and
    /// fsync'd before returning.
    pub fn record_probe(&mut self, point: usize, verdict: Verdict) -> Result<(), String> {
        self.append(Record::Probe(ProbeRecord { point, verdict, lanes: None }))
    }

    /// Record one seed-ensemble probe: the majority verdict plus the final
    /// batch's `(diverging, total)` lane tally — the replayable escalation
    /// event. Appended and fsync'd before returning; an impossible tally
    /// is refused and nothing is written.
    pub fn record_ensemble_probe(
        &mut self,
        point: usize,
        verdict: Verdict,
        diverging: usize,
        lanes: usize,
    ) -> Result<(), String> {
        self.append(Record::Probe(ProbeRecord { point, verdict, lanes: Some((diverging, lanes)) }))
    }

    /// Record that map point `index`'s output row is durably written. A
    /// sequential checkpoint requires `index` to be the next row in map
    /// order; a sharded one accepts any order but refuses a point recorded
    /// twice.
    pub fn record_row(&mut self, index: usize) -> Result<(), String> {
        self.append(Record::Row(index))
    }

    fn append(&mut self, record: Record) -> Result<(), String> {
        let path = self.journal.path();
        self.recorded.check(&record).map_err(|e| error(path, e))?;
        self.journal.append(format_args!("{record}")).map_err(|e| error(path, e))?;
        self.recorded.push(record);
        Ok(())
    }

    /// The recorded probes, in recording (= verdict-arrival) order.
    pub fn probes(&self) -> &[ProbeRecord] {
        &self.recorded.probes
    }

    /// Number of output rows the checkpoint claims durable — the line
    /// count (minus any CSV header) to reconcile the output file to before
    /// resuming.
    pub fn rows_written(&self) -> usize {
        self.recorded.rows.len()
    }

    /// The recorded row indices in recording order: the j-th entry is the
    /// map point behind the j-th output row. For a sequential checkpoint
    /// this is always `0, 1, 2, …`; for a sharded one it is the shard's
    /// claim-and-emit order.
    pub fn row_indices(&self) -> &[usize] {
        &self.recorded.rows
    }

    /// The map size this checkpoint tracks.
    pub fn points(&self) -> usize {
        self.recorded.points
    }
}

/// Read a *sharded* checkpoint without repairing or creating it: the
/// number of probes it records and its row indices in append order. Used
/// by `shard::merge` and `shard::status` to inspect worker checkpoints.
pub(crate) fn read_sharded(
    path: &Path,
    digest: u64,
    points: usize,
) -> io::Result<(usize, Vec<usize>)> {
    let mut recorded = Recorded::new(points, false);
    ckptio::read(path, &header(digest, points), |line| recorded.replay(line))?;
    Ok((recorded.probes.len(), recorded.rows))
}

fn error(path: &Path, e: impl fmt::Display) -> String {
    format!("checkpoint {}: {e}", path.display())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("emac-frontier-ckpt-{}-{tag}.ckpt", std::process::id()))
    }

    fn solo(point: usize, verdict: Verdict) -> ProbeRecord {
        ProbeRecord { point, verdict, lanes: None }
    }

    #[test]
    fn fresh_record_resume_round_trip() {
        let path = temp_path("roundtrip");
        let mut ck = FrontierCheckpoint::fresh(&path, 0xfeed, 3).unwrap();
        ck.record_probe(0, Verdict::Stable).unwrap();
        ck.record_probe(2, Verdict::Diverging).unwrap();
        ck.record_probe(0, Verdict::Inconclusive).unwrap();
        ck.record_row(0).unwrap();
        drop(ck);
        let ck = FrontierCheckpoint::resume(&path, 0xfeed, 3).unwrap();
        assert_eq!(
            ck.probes(),
            &[
                solo(0, Verdict::Stable),
                solo(2, Verdict::Diverging),
                solo(0, Verdict::Inconclusive)
            ]
        );
        assert_eq!(ck.rows_written(), 1);
        assert_eq!(ck.points(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ensemble_probes_round_trip_with_lane_tallies() {
        let path = temp_path("ensemble");
        let mut ck = FrontierCheckpoint::fresh(&path, 0xbead, 2).unwrap();
        ck.record_ensemble_probe(0, Verdict::Diverging, 4, 5).unwrap();
        ck.record_probe(1, Verdict::Stable).unwrap();
        ck.record_ensemble_probe(1, Verdict::Stable, 0, 3).unwrap();
        drop(ck);
        let ck = FrontierCheckpoint::resume(&path, 0xbead, 2).unwrap();
        assert_eq!(
            ck.probes(),
            &[
                ProbeRecord { point: 0, verdict: Verdict::Diverging, lanes: Some((4, 5)) },
                solo(1, Verdict::Stable),
                ProbeRecord { point: 1, verdict: Verdict::Stable, lanes: Some((0, 3)) },
            ]
        );
        let _ = std::fs::remove_file(&path);

        // bad tallies are refused: more diverging than total lanes, zero
        // lanes, trailing junk
        for (bad, needle) in [
            ("probe 0 d 6 5", "impossible lane tally"),
            ("probe 0 d 0 0", "impossible lane tally"),
            ("probe 0 d 1 5 9", "malformed probe line"),
        ] {
            let path = temp_path("badtally");
            std::fs::write(&path, format!("{MAGIC}\ndigest {:016x}\npoints 2\n{bad}\n", 1u64))
                .unwrap();
            let err = FrontierCheckpoint::resume(&path, 1, 2).unwrap_err();
            assert!(err.contains(needle), "{bad}: {err}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn record_refuses_what_resume_would_refuse_and_writes_nothing() {
        let path = temp_path("refuse");
        let mut ck = FrontierCheckpoint::fresh(&path, 0xd1ce, 2).unwrap();
        ck.record_ensemble_probe(0, Verdict::Stable, 1, 3).unwrap();
        let before = std::fs::read(&path).unwrap();
        let err = ck.record_ensemble_probe(0, Verdict::Stable, 3, 2).unwrap_err();
        assert!(err.contains("impossible lane tally"), "{err}");
        let err = ck.record_ensemble_probe(1, Verdict::Diverging, 0, 0).unwrap_err();
        assert!(err.contains("impossible lane tally"), "{err}");
        let err = ck.record_probe(2, Verdict::Stable).unwrap_err();
        assert!(err.contains("map point 2 of a 2-point map"), "{err}");
        ck.record_row(0).unwrap();
        ck.record_row(1).unwrap();
        let err = ck.record_row(2).unwrap_err();
        assert!(err.contains("row 2 of a 2-point map"), "{err}");
        assert_eq!(ck.probes().len(), 1);
        drop(ck);
        let ck = FrontierCheckpoint::resume(&path, 0xd1ce, 2).unwrap();
        assert_eq!(ck.probes().len(), 1, "refused records left no line behind");
        assert_eq!(ck.rows_written(), 2);
        let mut expected = before;
        expected.extend_from_slice(b"row 0\nrow 1\n");
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn refuses_mismatch_and_garbage() {
        let path = temp_path("mismatch");
        FrontierCheckpoint::fresh(&path, 7, 3).unwrap();
        assert!(FrontierCheckpoint::resume(&path, 8, 3).unwrap_err().contains("digest mismatch"));
        assert!(FrontierCheckpoint::resume(&path, 7, 4).unwrap_err().contains("size mismatch"));
        std::fs::write(&path, "nope\n").unwrap();
        assert!(FrontierCheckpoint::resume(&path, 7, 3).unwrap_err().contains("bad magic"));
        std::fs::write(&path, format!("{MAGIC}\ndigest {:016x}\npoints 2\nprobe 5 s\n", 7u64))
            .unwrap();
        assert!(FrontierCheckpoint::resume(&path, 7, 2).unwrap_err().contains("map point 5"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_rows_must_be_ordered() {
        let path = temp_path("torn");
        let mut ck = FrontierCheckpoint::fresh(&path, 9, 4).unwrap();
        ck.record_probe(1, Verdict::Diverging).unwrap();
        drop(ck);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        write!(file, "probe 2 s").unwrap(); // torn: no newline
        drop(file);
        let ck = FrontierCheckpoint::resume(&path, 9, 4).unwrap();
        assert_eq!(ck.probes().len(), 1, "torn tail dropped");
        let _ = std::fs::remove_file(&path);

        let path = temp_path("order");
        std::fs::write(&path, format!("{MAGIC}\ndigest {:016x}\npoints 4\nrow 1\n", 9u64)).unwrap();
        assert!(FrontierCheckpoint::resume(&path, 9, 4).unwrap_err().contains("out of order"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_ensemble_escalation_tail_is_dropped() {
        // A kill mid-append can tear an ensemble escalation event (`probe
        // <pt> <v> <diverging> <lanes>`) at any field boundary; every
        // prefix must be dropped, not misread as a (shorter) valid record.
        for torn in ["probe 2 d", "probe 2 d 4", "probe 2 d 4 9"] {
            let path = temp_path(&format!("torn-ens-{}", torn.len()));
            let mut ck = FrontierCheckpoint::fresh(&path, 0xabad, 4).unwrap();
            ck.record_ensemble_probe(0, Verdict::Stable, 1, 9).unwrap();
            ck.record_row(0).unwrap();
            drop(ck);
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            write!(file, "{torn}").unwrap(); // torn: no trailing newline
            drop(file);

            let mut ck = FrontierCheckpoint::resume(&path, 0xabad, 4).unwrap();
            assert_eq!(
                ck.probes(),
                &[ProbeRecord { point: 0, verdict: Verdict::Stable, lanes: Some((1, 9)) }],
                "{torn:?} must be dropped wholesale"
            );
            assert_eq!(ck.rows_written(), 1);

            // The resumed run re-executes the torn probe and appends it
            // cleanly after the torn bytes; a second resume sees both.
            ck.record_ensemble_probe(2, Verdict::Diverging, 4, 9).unwrap();
            drop(ck);
            let ck = FrontierCheckpoint::resume(&path, 0xabad, 4).unwrap();
            assert_eq!(ck.probes().len(), 2, "re-recorded escalation event survives");
            assert_eq!(
                ck.probes()[1],
                ProbeRecord { point: 2, verdict: Verdict::Diverging, lanes: Some((4, 9)) }
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn sharded_mode_accepts_any_row_order_but_refuses_duplicates() {
        let path = temp_path("sharded");
        let mut ck = FrontierCheckpoint::fresh_sharded(&path, 0xcafe, 4).unwrap();
        ck.record_probe(3, Verdict::Stable).unwrap();
        ck.record_row(3).unwrap(); // out of map order: fine for a shard
        ck.record_row(0).unwrap();
        assert!(ck.record_row(3).unwrap_err().contains("recorded twice"));
        assert!(ck.record_row(9).unwrap_err().contains("of a 4-point map"));
        drop(ck);
        let ck = FrontierCheckpoint::resume_sharded(&path, 0xcafe, 4).unwrap();
        assert_eq!(ck.row_indices(), &[3, 0], "append order preserved");
        assert_eq!(ck.rows_written(), 2);
        // the same file is refused by a sequential resume…
        let err = FrontierCheckpoint::resume(&path, 0xcafe, 4).unwrap_err();
        assert!(err.contains("out of order"), "{err}");
        // …and a duplicate row line is refused by the sharded parser
        std::fs::write(&path, format!("{MAGIC}\ndigest {:016x}\npoints 4\nrow 1\nrow 1\n", 5u64))
            .unwrap();
        let err = FrontierCheckpoint::resume_sharded(&path, 5, 4).unwrap_err();
        assert!(err.contains("row 1 recorded twice"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_starts_fresh_and_record_row_enforces_order() {
        let path = temp_path("missing");
        let _ = std::fs::remove_file(&path);
        let mut ck = FrontierCheckpoint::resume(&path, 1, 2).unwrap();
        assert_eq!(ck.rows_written(), 0);
        assert!(path.exists());
        assert!(ck.record_row(1).unwrap_err().contains("out of order"));
        ck.record_row(0).unwrap();
        ck.record_row(1).unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
