//! Durable journals: the append-only record files that let campaigns,
//! frontier maps and shard fleets survive `kill -9`.
//!
//! A journal is a text file that opens with a three-line header — a magic
//! line, `digest <%016x>`, and `<count-key> <N>` — followed by one record
//! per line. `campaign.ckpt`, `frontier.ckpt` and the shard `claims.log`
//! are journals; each of their modules defines only its record grammar
//! and the invariants a record must keep. Every journal guarantees:
//!
//! * **The header binds the file to one run.** It is `sync_all`'d when
//!   the file is created and checked on every read. A file whose magic,
//!   digest or count differs from what the reader expects is refused with
//!   a named error.
//! * **Only newline-terminated lines count.** A kill mid-append leaves at
//!   most one torn fragment after the last newline. Readers ignore it,
//!   and opening a journal for append cuts it off the file, so the next
//!   record starts on a fresh line and a second resume still reads it.
//! * **One record is one write and one fsync.** An append writes the
//!   whole line with a single `write_all` on an `O_APPEND` handle, then
//!   calls `sync_data`. A record is durable when the append returns, and
//!   processes sharing one journal (the claim log) never interleave
//!   within a line.
//!
//! [`reconcile_output`] is the other half of a resume: it trims an output
//! file to exactly the rows its journal vouches for and returns the
//! handle to append the rest to, so a resumed output ends byte-identical
//! to an uninterrupted one.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Lines in a journal header: magic, digest, count.
const HEADER_LINES: usize = 3;

/// A journal's header. `magic` and `count_key` (`total`, `points`,
/// `units`) fix the kind's first and third lines; `what` and `count_noun`
/// name the file and its count in errors; `digest` and `count` bind one
/// file to one run.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Header {
    pub(crate) magic: &'static str,
    pub(crate) what: &'static str,
    pub(crate) count_key: &'static str,
    pub(crate) count_noun: &'static str,
    pub(crate) digest: u64,
    pub(crate) count: usize,
}

impl Header {
    fn render(&self) -> String {
        format!("{}\ndigest {:016x}\n{} {}\n", self.magic, self.digest, self.count_key, self.count)
    }

    /// Check the header of `text`, then pass each record to `replay` in
    /// append order.
    fn replay(
        &self,
        text: &str,
        mut replay: impl FnMut(&str) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut lines = text.split('\n');
        if lines.next() != Some(self.magic) {
            return Err(format!("not a {} (bad magic line)", self.what));
        }
        let digest = lines
            .next()
            .and_then(|l| l.strip_prefix("digest "))
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or("malformed digest line")?;
        if digest != self.digest {
            return Err(format!(
                "digest mismatch ({} {digest:016x}, expected {:016x}): the spec or output \
                 options changed since this file was written; refusing to resume",
                self.what, self.digest
            ));
        }
        let count = lines
            .next()
            .and_then(|l| l.strip_prefix(self.count_key)?.strip_prefix(' '))
            .and_then(|n| n.parse::<usize>().ok())
            .ok_or_else(|| format!("malformed {} line", self.count_key))?;
        if count != self.count {
            return Err(format!(
                "{} mismatch ({} {count}, expected {}); refusing to resume",
                self.count_noun, self.what, self.count
            ));
        }
        // `split` yields one item after the last newline: empty, or the
        // torn fragment of a killed append. Neither is a record.
        let mut lines = lines.peekable();
        while let Some(line) = lines.next() {
            if lines.peek().is_some() && !line.is_empty() {
                replay(line)?;
            }
        }
        Ok(())
    }
}

/// An open journal: an `O_APPEND` handle on a file whose header has been
/// written or checked and whose torn tail, if it had one, is gone.
#[derive(Debug)]
pub(crate) struct Journal {
    path: PathBuf,
    file: File,
}

impl Journal {
    /// Start a journal at `path`, replacing any file already there.
    pub(crate) fn create(path: &Path, header: &Header) -> io::Result<Self> {
        let file = OpenOptions::new().append(true).create(true).open(path)?;
        file.set_len(0)?;
        Self::start(path, file, header)
    }

    /// Start a journal at `path`; fails if a file is already there.
    pub(crate) fn create_new(path: &Path, header: &Header) -> io::Result<Self> {
        let file = OpenOptions::new().append(true).create_new(true).open(path)?;
        Self::start(path, file, header)
    }

    fn start(path: &Path, mut file: File, header: &Header) -> io::Result<Self> {
        file.write_all(header.render().as_bytes())?;
        file.sync_all()?;
        Ok(Self { path: path.to_path_buf(), file })
    }

    /// Open the journal at `path` for appending: check its header, pass
    /// each record to `replay` in append order, then cut a torn tail off
    /// the file. Errors as for [`read`].
    pub(crate) fn open(
        path: &Path,
        header: &Header,
        replay: impl FnMut(&str) -> Result<(), String>,
    ) -> io::Result<Self> {
        let text = read(path, header, replay)?;
        repair_torn_tail(path, &text, HEADER_LINES)?;
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Self { path: path.to_path_buf(), file })
    }

    /// Append one record: the line and its newline in one write, then
    /// `sync_data`.
    pub(crate) fn append(&self, record: fmt::Arguments<'_>) -> io::Result<()> {
        let mut line = fmt::format(record);
        line.push('\n');
        (&self.file).write_all(line.as_bytes())?;
        self.file.sync_data()
    }

    /// Where this journal lives.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

/// Read the journal at `path` without changing it: check its header,
/// pass each record to `replay` in append order, and return the text. A
/// missing file is a `NotFound` error; a bad header, or an error `replay`
/// returns, comes back as `InvalidData`.
pub(crate) fn read(
    path: &Path,
    header: &Header,
    replay: impl FnMut(&str) -> Result<(), String>,
) -> io::Result<String> {
    let text = std::fs::read_to_string(path)?;
    header.replay(&text, replay).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(text)
}

/// Cut the torn fragment after the last newline off the file at `path`,
/// whose contents are `text`, so the next append starts on a fresh line.
/// A file with fewer than `header_lines` newlines is torn inside its last
/// header line, which its reader accepted (only the newline is missing):
/// that newline is added instead. `header_lines` is 0 for a headerless
/// file such as `events.jsonl`.
pub(crate) fn repair_torn_tail(path: &Path, text: &str, header_lines: usize) -> io::Result<()> {
    if text.ends_with('\n') || text.is_empty() {
        return Ok(());
    }
    if text.bytes().filter(|&b| b == b'\n').count() >= header_lines {
        let keep = text.rfind('\n').map_or(0, |i| i + 1);
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(keep as u64)?;
        file.sync_data()?;
    } else {
        let mut file = OpenOptions::new().append(true).open(path)?;
        file.write_all(b"\n")?;
        file.sync_data()?;
    }
    Ok(())
}

/// Reconcile an output file with the journal that vouches for its rows
/// before a run appends to it. Keeps exactly the first `lines`
/// newline-terminated lines (a CSV header counts as one) and drops the
/// rest: rows written but never recorded (a kill between the output's
/// fsync and the journal's), and torn fragments. Their work re-runs, so
/// the finished output is byte-identical to an uninterrupted run.
///
/// Returns the append handle and the number of bytes dropped. `lines ==
/// 0` starts the output afresh, creating it if missing. An output that is
/// missing, or holds fewer complete lines than `lines`, was changed
/// behind the journal's back and is refused.
pub fn reconcile_output(path: &Path, lines: u64) -> Result<(File, u64), String> {
    let dropped = match truncate_after_lines(path, lines) {
        Ok(Some(dropped)) => dropped,
        Ok(None) => {
            return Err(format!(
                "{} holds fewer lines than its checkpoint records ({lines}); refusing to \
                 resume against a modified output",
                path.display()
            ))
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound && lines == 0 => 0,
        Err(e) => {
            return Err(format!("cannot reconcile {} with its checkpoint: {e}", path.display()))
        }
    };
    let file = OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)
        .map_err(|e| format!("opening {}: {e}", path.display()))?;
    Ok((file, dropped))
}

/// Keep the first `lines` newline-terminated lines of `path` and truncate
/// everything after them. `Ok(Some(dropped_bytes))`, or `Ok(None)` if the
/// file holds fewer complete lines. Streams in fixed-size chunks, so
/// arbitrarily large outputs reconcile in constant memory.
fn truncate_after_lines(path: &Path, lines: u64) -> io::Result<Option<u64>> {
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    let len = file.metadata()?.len();
    if lines == 0 {
        if len != 0 {
            file.set_len(0)?;
            file.sync_data()?;
        }
        return Ok(Some(len));
    }
    let mut buf = [0u8; 8192];
    let mut seen = 0u64;
    let mut keep = 0u64;
    file.seek(SeekFrom::Start(0))?;
    'scan: loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            break;
        }
        for (i, &b) in buf[..n].iter().enumerate() {
            if b == b'\n' {
                seen += 1;
                if seen == lines {
                    keep = keep + i as u64 + 1;
                    break 'scan;
                }
            }
        }
        keep += n as u64;
    }
    if seen < lines {
        return Ok(None);
    }
    if keep != len {
        file.set_len(keep)?;
        file.sync_data()?;
    }
    Ok(Some(len - keep))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("emac-ckptio-unit-{}-{tag}.txt", std::process::id()))
    }

    #[test]
    fn truncate_after_lines_reconciles_output_tails() {
        let path = temp_path("truncate");
        // 3 complete rows + a torn fragment; keeping 2 drops "row2\ntorn"
        std::fs::write(&path, "row0\nrow1\nrow2\ntorn").unwrap();
        assert_eq!(truncate_after_lines(&path, 2).unwrap(), Some(9));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "row0\nrow1\n");
        // already exact: nothing dropped
        assert_eq!(truncate_after_lines(&path, 2).unwrap(), Some(0));
        // fewer lines than the checkpoint records: inconsistent
        assert_eq!(truncate_after_lines(&path, 3).unwrap(), None);
        // zero lines: empty the file
        assert_eq!(truncate_after_lines(&path, 0).unwrap(), Some(10));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        let _ = std::fs::remove_file(&path);
        // missing file is an io error for the caller
        assert!(truncate_after_lines(&path, 1).is_err());
    }

    #[test]
    fn truncate_after_lines_streams_across_chunks() {
        let path = temp_path("truncate-big");
        // rows long enough that the target newline sits beyond one 8 KiB chunk
        let row = "x".repeat(5_000);
        std::fs::write(&path, format!("{row}\n{row}\n{row}\npartial")).unwrap();
        assert_eq!(truncate_after_lines(&path, 2).unwrap(), Some(5_001 + 7));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 2 * 5_001);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reconcile_output_keeps_recorded_rows_and_refuses_short_outputs() {
        let path = temp_path("reconcile");
        let _ = std::fs::remove_file(&path);
        // a fresh start creates the output
        let (mut file, dropped) = reconcile_output(&path, 0).unwrap();
        assert_eq!(dropped, 0);
        file.write_all(b"head\nrow0\nrow1\ntorn").unwrap();
        drop(file);
        // keep the header and one row; the handle appends after them
        let (mut file, dropped) = reconcile_output(&path, 2).unwrap();
        assert_eq!(dropped, 9);
        file.write_all(b"row1\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "head\nrow0\nrow1\n");
        let err = reconcile_output(&path, 4).unwrap_err();
        assert!(err.contains("fewer lines than its checkpoint records (4)"), "{err}");
        let _ = std::fs::remove_file(&path);
        let err = reconcile_output(&path, 1).unwrap_err();
        assert!(err.contains("cannot reconcile"), "{err}");
    }

    #[test]
    fn repair_torn_jsonl_truncates_to_last_newline() {
        let path = temp_path("jsonl");
        // torn third line: truncated, no header completion ever
        std::fs::write(&path, "{\"a\":1}\n{\"b\":2}\n{\"c\":").unwrap();
        repair_torn_tail(&path, "{\"a\":1}\n{\"b\":2}\n{\"c\":", 0).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\":1}\n{\"b\":2}\n");
        // a torn fragment with no newline at all empties the file
        std::fs::write(&path, "{\"t").unwrap();
        repair_torn_tail(&path, "{\"t", 0).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        // clean and empty files untouched
        std::fs::write(&path, "{\"a\":1}\n").unwrap();
        repair_torn_tail(&path, "{\"a\":1}\n", 0).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\":1}\n");
        repair_torn_tail(&path, "", 0).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn repair_truncates_body_tears_and_completes_header_tears() {
        // A torn body line (the file already holds the 3-line header) is
        // physically truncated back to the last newline.
        let path = temp_path("repair-body");
        let text = "magic\ndigest 0\ntotal 2\ndone 0\ndone 1";
        std::fs::write(&path, text).unwrap();
        repair_torn_tail(&path, text, HEADER_LINES).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "magic\ndigest 0\ntotal 2\ndone 0\n");
        let _ = std::fs::remove_file(&path);

        // A tear inside the header that still parsed (only the final
        // newline is missing) is newline-completed, not truncated.
        let path = temp_path("repair-header");
        let text = "magic\ndigest 0\ntotal 2";
        std::fs::write(&path, text).unwrap();
        repair_torn_tail(&path, text, HEADER_LINES).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "magic\ndigest 0\ntotal 2\n");
        let _ = std::fs::remove_file(&path);

        // Clean files (and empty ones) are left untouched.
        let path = temp_path("repair-clean");
        std::fs::write(&path, "a\nb\n").unwrap();
        repair_torn_tail(&path, "a\nb\n", HEADER_LINES).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a\nb\n");
        repair_torn_tail(&path, "", HEADER_LINES).unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
