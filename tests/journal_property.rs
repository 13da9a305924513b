//! Crash and corruption properties of the durable journals
//! (`campaign.ckpt`, sequential and sharded `frontier.ckpt`,
//! `claims.log`), plus a pin of their on-disk format.
//!
//! * **Torn at every byte.** A valid journal of each kind is cut at every
//!   byte offset. A cut inside the body recovers exactly the records whose
//!   newline survived, one more append succeeds, and a second resume sees
//!   the recovered records plus the appended one. A cut inside the header
//!   is a named error, except the one cut that only drops the header's
//!   final newline, which resumes empty.
//! * **Sampled mutations.** Byte flips and insertions drawn from a pinned
//!   xorshift stream (the house stand-in for a proptest dependency) make a
//!   resume return `Ok` or a named `Err`, never panic; a file that resumes
//!   keeps resuming after one more append.
//! * **Format pin.** Records written through the public API produce
//!   exactly the bytes of a literal file in the current format, and a
//!   literal current-format file resumes.

use std::fs;
use std::path::{Path, PathBuf};

use emac_core::campaign::Checkpoint;
use emac_core::frontier::FrontierCheckpoint;
use emac_core::shard::ClaimTable;
use emac_core::Verdict;

/// xorshift64: tiny, seedable, good enough to pick offsets and bytes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const DIGEST: u64 = 0x5eed_f00d_cafe_0b1e;

/// What a resume recovered (in [`canonical`] order) and the line of the
/// record it appended, if asked to append.
type Resumed = Result<(Vec<String>, Option<String>), String>;

/// One journal kind, driven through its public API.
struct Kind {
    name: &'static str,
    /// The journal's file name inside the run directory.
    file: &'static str,
    /// Write a valid journal (and anything it needs beside it) into `dir`.
    build: fn(&Path),
    /// Resume the journal in `dir`, optionally appending one more record.
    resume: fn(&Path, bool) -> Resumed,
}

const KINDS: [Kind; 4] = [
    Kind {
        name: "campaign",
        file: "campaign.ckpt",
        build: campaign_build,
        resume: campaign_resume,
    },
    Kind {
        name: "frontier",
        file: "frontier.ckpt",
        build: frontier_build,
        resume: frontier_resume,
    },
    Kind { name: "sharded", file: "frontier.ckpt", build: sharded_build, resume: sharded_resume },
    Kind { name: "claims", file: "claims.log", build: claims_build, resume: claims_resume },
];

fn campaign_build(dir: &Path) {
    let mut ck = Checkpoint::fresh(&dir.join("campaign.ckpt"), DIGEST, 12).unwrap();
    for i in [3, 0, 5, 10, 1, 7, 2] {
        ck.record(i).unwrap();
    }
}

fn campaign_resume(dir: &Path, append: bool) -> Resumed {
    let mut ck = Checkpoint::resume(&dir.join("campaign.ckpt"), DIGEST, 12)?;
    let done = (0..ck.total()).filter(|&i| ck.is_done(i)).map(|i| format!("done {i}")).collect();
    let appended = if append {
        ck.record(11)?;
        Some("done 11".to_string())
    } else {
        None
    };
    Ok((done, appended))
}

fn frontier_build(dir: &Path) {
    let mut ck = FrontierCheckpoint::fresh(&dir.join("frontier.ckpt"), DIGEST, 4).unwrap();
    ck.record_probe(0, Verdict::Stable).unwrap();
    ck.record_probe(1, Verdict::Diverging).unwrap();
    ck.record_row(0).unwrap();
    ck.record_probe(2, Verdict::Inconclusive).unwrap();
    ck.record_probe(1, Verdict::Stable).unwrap();
    ck.record_row(1).unwrap();
    ck.record_probe(2, Verdict::Diverging).unwrap();
}

fn frontier_resume(dir: &Path, append: bool) -> Resumed {
    let mut ck = FrontierCheckpoint::resume(&dir.join("frontier.ckpt"), DIGEST, 4)?;
    let records = frontier_records(&ck);
    let appended = if append {
        ck.record_probe(3, Verdict::Inconclusive)?;
        Some("probe 3 i".to_string())
    } else {
        None
    };
    Ok((records, appended))
}

fn sharded_build(dir: &Path) {
    let mut ck = FrontierCheckpoint::fresh_sharded(&dir.join("frontier.ckpt"), DIGEST, 6).unwrap();
    ck.record_ensemble_probe(4, Verdict::Diverging, 3, 5).unwrap();
    ck.record_ensemble_probe(4, Verdict::Stable, 0, 3).unwrap();
    ck.record_row(4).unwrap();
    ck.record_ensemble_probe(0, Verdict::Stable, 1, 3).unwrap();
    ck.record_row(0).unwrap();
    ck.record_probe(2, Verdict::Inconclusive).unwrap();
    ck.record_ensemble_probe(2, Verdict::Diverging, 2, 3).unwrap();
    ck.record_row(2).unwrap();
}

fn sharded_resume(dir: &Path, append: bool) -> Resumed {
    let mut ck = FrontierCheckpoint::resume_sharded(&dir.join("frontier.ckpt"), DIGEST, 6)?;
    let records = frontier_records(&ck);
    let appended = if append {
        ck.record_ensemble_probe(5, Verdict::Diverging, 2, 3)?;
        Some("probe 5 d 2 3".to_string())
    } else {
        None
    };
    Ok((records, appended))
}

/// A frontier checkpoint's records in [`canonical`] order: probes, then
/// rows.
fn frontier_records(ck: &FrontierCheckpoint) -> Vec<String> {
    let letter = |v| match v {
        Verdict::Stable => "s",
        Verdict::Diverging => "d",
        Verdict::Inconclusive => "i",
    };
    let probes = ck.probes().iter().map(|p| match p.lanes {
        Some((d, n)) => format!("probe {} {} {d} {n}", p.point, letter(p.verdict)),
        None => format!("probe {} {}", p.point, letter(p.verdict)),
    });
    probes.chain(ck.row_indices().iter().map(|i| format!("row {i}"))).collect()
}

fn claims_build(dir: &Path) {
    let table = ClaimTable::create(dir, DIGEST, 8).unwrap();
    for (unit, shard) in [(0, 0), (4, 1), (1, 0), (5, 1), (2, 0)] {
        assert!(table.try_claim(unit, shard).unwrap());
    }
}

fn claims_resume(dir: &Path, append: bool) -> Resumed {
    let table = ClaimTable::open(dir, DIGEST, 8)?;
    let claims = table.claims()?.iter().map(|(u, s)| format!("claim {u} {s}")).collect();
    let appended = if append {
        assert!(table.try_claim(7, 1)?, "unit 7 is never leased before");
        Some("claim 7 1".to_string())
    } else {
        None
    };
    Ok((claims, appended))
}

/// The order each kind's resume reports records in: campaign indices
/// ascending (the checkpoint exposes a set), frontier probes before rows,
/// claims as appended.
fn canonical(kind: &Kind, mut lines: Vec<String>) -> Vec<String> {
    match kind.name {
        "campaign" => lines.sort_by_key(|l| l[5..].parse::<usize>().unwrap()),
        "frontier" | "sharded" => lines.sort_by_key(|l| l.starts_with("row ")),
        _ => {}
    }
    lines
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emac-journal-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every file under `dir` (one level of subdirectories: the lease files).
fn snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            for sub in fs::read_dir(&path).unwrap() {
                let sub = sub.unwrap().path();
                files.push((sub.strip_prefix(dir).unwrap().to_path_buf(), fs::read(&sub).unwrap()));
            }
        } else {
            files.push((path.strip_prefix(dir).unwrap().to_path_buf(), fs::read(&path).unwrap()));
        }
    }
    files
}

/// Recreate `dir` from `files`, with the journal's bytes replaced.
fn restore(dir: &Path, files: &[(PathBuf, Vec<u8>)], kind: &Kind, journal: &[u8]) {
    let _ = fs::remove_dir_all(dir);
    for (rel, bytes) in files {
        let path = dir.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        let bytes = if rel == Path::new(kind.file) { journal } else { bytes };
        fs::write(path, bytes).unwrap();
    }
}

#[test]
fn torn_at_every_byte_recovers_the_complete_records() {
    for kind in &KINDS {
        let dir = scratch(&format!("torn-{}", kind.name));
        (kind.build)(&dir);
        let files = snapshot(&dir);
        let full = fs::read(dir.join(kind.file)).unwrap();
        let text = String::from_utf8(full.clone()).unwrap();
        let header_len = text.match_indices('\n').nth(2).unwrap().0 + 1;
        let mut body_cuts = 0;
        for cut in 0..=full.len() {
            restore(&dir, &files, kind, &full[..cut]);
            let first = (kind.resume)(&dir, true);
            if cut + 1 < header_len {
                let err = first.expect_err("a cut inside the header cannot resume");
                assert!(err.contains(kind.file), "{}: cut {cut}: unnamed error {err:?}", kind.name);
                continue;
            }
            let (recovered, appended) =
                first.unwrap_or_else(|e| panic!("{}: cut {cut}: resume failed: {e}", kind.name));
            let survived = text[..cut.max(header_len)].rfind('\n').map_or(0, |i| i + 1);
            let expected: Vec<String> =
                text[header_len.min(survived)..survived].lines().map(String::from).collect();
            assert_eq!(recovered, canonical(kind, expected.clone()), "{}: cut {cut}", kind.name);
            let (again, _) = (kind.resume)(&dir, false)
                .unwrap_or_else(|e| panic!("{}: cut {cut}: second resume failed: {e}", kind.name));
            let mut expected = expected;
            expected.extend(appended);
            assert_eq!(again, canonical(kind, expected), "{}: cut {cut} + append", kind.name);
            body_cuts += 1;
        }
        assert_eq!(body_cuts, full.len() + 2 - header_len, "{}", kind.name);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn sampled_mutations_resume_or_fail_by_name() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    // Mostly digits, separators and record-keyword letters, so many
    // mutants still parse and reach the invariant checks.
    let alphabet = b"\n 0123456789012345678901234567890123456789dirsw\xff";
    for kind in &KINDS {
        let dir = scratch(&format!("mutate-{}", kind.name));
        (kind.build)(&dir);
        let files = snapshot(&dir);
        let full = fs::read(dir.join(kind.file)).unwrap();
        let (mut resumed, mut refused) = (0, 0);
        for _ in 0..256 {
            let mut bytes = full.clone();
            for _ in 0..1 + rng.below(2) {
                let at = rng.below(bytes.len());
                let byte = alphabet[rng.below(alphabet.len())];
                match rng.below(3) {
                    0 => bytes[at] ^= 1 << rng.below(8),
                    1 => bytes[at] = byte,
                    _ => bytes.insert(at + rng.below(2), byte),
                }
            }
            restore(&dir, &files, kind, &bytes);
            match (kind.resume)(&dir, true) {
                Ok(_) => {
                    resumed += 1;
                    if let Err(e) = (kind.resume)(&dir, false) {
                        panic!("{}: resumed once, then refused {e}: {bytes:?}", kind.name);
                    }
                }
                Err(e) => {
                    refused += 1;
                    assert!(e.contains(kind.file), "{}: unnamed error {e:?}", kind.name);
                }
            }
        }
        assert!(resumed > 0 && refused > 0, "{}: {resumed} resumed, {refused} refused", kind.name);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// The current on-disk format of each kind, as [`KINDS`] builds it.
fn pinned(kind: &Kind) -> &'static str {
    match kind.name {
        "campaign" => {
            "emac-campaign-ckpt v1\ndigest 5eedf00dcafe0b1e\ntotal 12\n\
             done 3\ndone 0\ndone 5\ndone 10\ndone 1\ndone 7\ndone 2\n"
        }
        "frontier" => {
            "emac-frontier-ckpt v1\ndigest 5eedf00dcafe0b1e\npoints 4\n\
             probe 0 s\nprobe 1 d\nrow 0\nprobe 2 i\nprobe 1 s\nrow 1\nprobe 2 d\n"
        }
        "sharded" => {
            "emac-frontier-ckpt v1\ndigest 5eedf00dcafe0b1e\npoints 6\n\
             probe 4 d 3 5\nprobe 4 s 0 3\nrow 4\nprobe 0 s 1 3\nrow 0\nprobe 2 i\n\
             probe 2 d 2 3\nrow 2\n"
        }
        _ => {
            "emac-shard-claims v1\ndigest 5eedf00dcafe0b1e\nunits 8\n\
             claim 0 0\nclaim 4 1\nclaim 1 0\nclaim 5 1\nclaim 2 0\n"
        }
    }
}

#[test]
fn format_pin_writes_and_resumes_the_current_bytes() {
    for kind in &KINDS {
        let dir = scratch(&format!("pin-{}", kind.name));
        (kind.build)(&dir);
        let files = snapshot(&dir);
        let written = fs::read_to_string(dir.join(kind.file)).unwrap();
        assert_eq!(written, pinned(kind), "{}: bytes drifted from the pinned format", kind.name);

        // A literal current-format file resumes, appends, and resumes again.
        restore(&dir, &files, kind, pinned(kind).as_bytes());
        let expected: Vec<String> = pinned(kind).lines().skip(3).map(String::from).collect();
        let (recovered, appended) = (kind.resume)(&dir, true).unwrap();
        assert_eq!(recovered, canonical(kind, expected.clone()), "{}", kind.name);
        let appended = appended.unwrap();
        assert_eq!(
            fs::read_to_string(dir.join(kind.file)).unwrap(),
            format!("{}{appended}\n", pinned(kind)),
            "{}: appended record bytes",
            kind.name
        );
        let (again, _) = (kind.resume)(&dir, false).unwrap();
        let mut expected = expected;
        expected.push(appended);
        assert_eq!(again, canonical(kind, expected), "{}", kind.name);
        let _ = fs::remove_dir_all(&dir);
    }
}
