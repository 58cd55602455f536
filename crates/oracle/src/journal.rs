//! The crash-consistent publish journal: one file, a log of sealed
//! records of what each publish wrote.
//!
//! `oracle.journal` holds two forms of sealed record (grammar:
//! DESIGN.md §19):
//!
//! * a **`@gen` record** — one whole generation: its merged document,
//!   after a `# parts:` line when a compaction wrote it, the lengths of
//!   the parts it was written as (for a pipeline's, the row text's:
//!   node list, head, one part per row chunk, trailer);
//! * a **`@delta` frame** — what one publish changed: the document's
//!   head lines, the text of each row chunk the publish re-rendered
//!   under its index, and the document's trailer.
//!
//! A publish that does not compact appends one `@delta` frame and
//! fsyncs once; the frame's completed `@seal` line is its commit point.
//! A *compaction* writes a new log that holds one `@gen` record to
//! `oracle.journal.tmp`, fsyncs it, renames it over the log and fsyncs
//! the directory; the rename is its commit point. The append that
//! creates the log writes it the same way, so the log's first record is
//! never torn. A kill mid-append leaves a torn tail that recovery cuts
//! off; a kill mid-compaction leaves the old log and a `.tmp` that
//! recovery ignores and the next compaction overwrites.
//!
//! Recovery reads the one file: the last sealed `@gen` record, cut into
//! its parts by their lengths, with the `@delta` frames after it
//! spliced on in order, each carrying the next generation. The chunk
//! rule is the row text's alone ([`ting::shard::RowText`]). The
//! invariant, for a kill at **any byte offset**: recovery reproduces
//! exactly the last *sealed* state, bit-identical to what an
//! uninterrupted run served. A sealed record out of sequence, a
//! `@delta` with no `@gen` record before it, a body that does not
//! parse, and a log with no sealed record at byte 0 are errors, never a
//! silently different state. The chaos tests drive this by replaying
//! every prefix of the bytes a run writes.

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use ting::checkpoint;

/// The journal's one file: the log.
pub const JOURNAL_FILE: &str = "oracle.journal";

/// What recovery found on disk.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Recovered {
    /// The last published generation: the last sealed `@gen` record
    /// with every sealed `@delta` frame after it spliced in, as one
    /// document.
    pub published: Option<(u64, String)>,
    /// Always `None`: every sealed record is published, wherever it
    /// sits in the log.
    pub pending: Option<(u64, String)>,
    /// Whether the journal carried a torn (unsealed) tail that was
    /// discarded.
    pub torn_tail: bool,
}

impl Recovered {
    /// The generation recovery says must be served: the published one.
    pub fn serve(&self) -> Option<&(u64, String)> {
        self.published.as_ref()
    }
}

/// Handle on a journal directory. All methods are synchronous and
/// crash-ordered: when one returns, its effect survives a kill.
#[derive(Debug, Clone)]
pub struct Journal {
    dir: PathBuf,
}

impl Journal {
    /// Opens (creating if needed) the journal directory. Each
    /// directory it creates is made durable in its parent before it
    /// returns.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Journal> {
        let dir = dir.into();
        let created: Vec<&Path> = dir.ancestors().take_while(|d| !d.is_dir()).collect();
        std::fs::create_dir_all(&dir)?;
        for parent in created.iter().filter_map(|d| d.parent()) {
            fsync_dir(parent)?;
        }
        Ok(Journal { dir })
    }

    pub fn journal_path(&self) -> PathBuf {
        self.dir.join(JOURNAL_FILE)
    }

    /// Appends generation `gen` (a merged-matrix document) to the log
    /// as one whole `@gen` record, [`frame_record`]'s bytes. Durable on
    /// return; the record is committed, and published, by its `@seal`
    /// line.
    pub fn append(&self, gen: u64, doc: &str) -> io::Result<()> {
        let (header, trailer) = frame_parts(GEN, gen, doc.len(), checkpoint::crc32(doc.as_bytes()));
        self.append_frame(&framed(&header, &[doc], &trailer))
            .map(drop)
    }

    /// Appends generation `gen` as one `@delta` frame: of `doc`, a
    /// document held as the parts [`ting::shard::RowText::document`]
    /// lays out, the head, the chunks `fresh` names and the trailer.
    /// One append and one fsync; returns the frame's length in bytes.
    pub(crate) fn append_delta(&self, gen: u64, doc: &[&str], fresh: &[u32]) -> io::Result<u64> {
        let (head, trailer) = (doc[1], doc[doc.len() - 1]);
        let chunks = fresh.iter().map(|&k| (k, doc[2 + k as usize]));
        let texts: usize = chunks.clone().map(|(_, text)| text.len() + 24).sum();
        let mut body = String::with_capacity(head.len() + texts + trailer.len() + 24);
        let _ = write!(body, "@head {}\n{head}", head.len());
        for (k, text) in chunks {
            let _ = write!(body, "@chunk {k} {}\n{text}", text.len());
        }
        body.push_str(trailer);
        let crc = checkpoint::crc32(body.as_bytes());
        let (header, seal) = frame_parts(DELTA, gen, body.len(), crc);
        self.append_frame(&framed(&header, &[&body], &seal))
    }

    /// Appends the frame whose bytes are `parts` to the log and fsyncs
    /// it. With no log yet, the frame becomes the log through
    /// [`Journal::replace_log`], so a kill never leaves a torn first
    /// record.
    fn append_frame(&self, parts: &[&[u8]]) -> io::Result<u64> {
        let path = self.journal_path();
        if !path.exists() {
            return self.replace_log(parts);
        }
        let mut f = OpenOptions::new().append(true).open(&path)?;
        checkpoint::write_all_parts(&mut f, parts)?;
        fsync(&f)?;
        Ok(parts.iter().map(|part| part.len() as u64).sum())
    }

    /// Makes `parts` the whole log: written to a tmp file, fsynced,
    /// renamed over the log, and the directory fsynced — two fsyncs.
    /// Returns the log's length in bytes.
    fn replace_log(&self, parts: &[&[u8]]) -> io::Result<u64> {
        let tmp = self.dir.join(format!("{JOURNAL_FILE}.tmp"));
        let mut f = File::create(&tmp)?;
        checkpoint::write_all_parts(&mut f, parts)?;
        fsync(&f)?;
        drop(f);
        std::fs::rename(&tmp, self.journal_path())?;
        fsync_dir(&self.dir)?;
        Ok(parts.iter().map(|part| part.len() as u64).sum())
    }

    /// Compacts the log to generation `gen`: the log becomes one `@gen`
    /// record of `doc`, [`render_published`]'s bytes. A kill before the
    /// rename leaves the old log, one after it the new.
    pub fn mark_published(&self, gen: u64, doc: &str) -> io::Result<()> {
        self.mark_published_with_crc(gen, &[doc], checkpoint::crc32(doc.as_bytes()))
            .map(drop)
    }

    /// [`Journal::mark_published`] of a document held as parts, whose
    /// CRC-32 the caller holds; nothing copies or hashes the document.
    /// The new log replaces the old through [`Journal::replace_log`].
    /// Returns the log's length in bytes.
    pub(crate) fn mark_published_with_crc(
        &self,
        gen: u64,
        doc: &[&str],
        crc: u32,
    ) -> io::Result<u64> {
        let (head, tail) = record_parts(gen, doc, crc);
        self.replace_log(&framed(&head, doc, &tail))
    }

    /// Replays the directory after a kill. Disk rot or a writer's fault
    /// is a loud error, and the directory is left as it was: a first
    /// record that fails its seal (a rename wrote it whole, so it is
    /// never torn), a sealed frame that cannot be spliced, and a
    /// directory of the two-file layout, whose base this build does not
    /// read — never served as empty. Torn tails (whole frames after the
    /// first that fail their seal too, as a power loss leaves an
    /// unsynced append) and a stale `.tmp` are expected crash debris:
    /// the `.tmp` is ignored, the tail is cut off the log, so that the
    /// next append lands behind sealed frames only — a frame sealed
    /// behind garbage would be lost to the next recovery's walk.
    pub fn recover(&self) -> Result<Recovered, String> {
        if self.dir.join("oracle.published").exists() {
            return Err(format!(
                "oracle.published: a base of the two-file journal layout in {}; \
                 this journal keeps every generation in {JOURNAL_FILE}",
                self.dir.display()
            ));
        }
        let log = match std::fs::read(self.journal_path()) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(format!("journal unreadable: {e}")),
        };
        let (frames, sealed) = scan_journal(&log);
        if sealed == 0 && !log.is_empty() {
            return Err(format!(
                "{JOURNAL_FILE}: {} bytes with no sealed record at byte 0",
                log.len()
            ));
        }
        let published = replay(&frames)?;
        let torn_tail = sealed < log.len();
        if torn_tail {
            let f = OpenOptions::new().write(true).open(self.journal_path());
            f.and_then(|f| {
                f.set_len(sealed as u64)?;
                fsync(&f)
            })
            .map_err(|e| format!("cutting the journal's torn tail: {e}"))?;
        }
        Ok(Recovered {
            published,
            pending: None,
            torn_tail,
        })
    }
}

/// Fsyncs `file`. Every fsync the journal makes is a call here, so a
/// test counts a publish's.
fn fsync(file: &File) -> io::Result<()> {
    #[cfg(test)]
    tests::FSYNCS.with(|n| n.set(n.get() + 1));
    file.sync_all()
}

/// Fsyncs directory `dir` (the current one when `dir` is empty), so the
/// entries created or renamed in it survive a crash.
fn fsync_dir(dir: &Path) -> io::Result<()> {
    let dir = match dir.as_os_str().is_empty() {
        true => Path::new("."),
        false => dir,
    };
    fsync(&File::open(dir)?)
}

/// The tag of a whole record, and of a frame of changed chunks.
const GEN: &str = "gen";
const DELTA: &str = "delta";

/// Frames one whole journal record: `@gen <g> <len>\n` + the document
/// bytes + `@seal <g> <crc32-hex>\n`. Public so fault-injection tests
/// can compute byte offsets inside a record without writing one.
pub fn frame_record(gen: u64, doc: &str) -> String {
    let (header, trailer) = frame_parts(GEN, gen, doc.len(), checkpoint::crc32(doc.as_bytes()));
    [header.as_str(), doc, &trailer].concat()
}

/// The `@<tag> <gen> <len>` header and `@seal` trailer around a body of
/// `len` bytes whose CRC-32 is `crc`.
fn frame_parts(tag: &str, gen: u64, len: usize, crc: u32) -> (String, String) {
    let header = format!("@{tag} {gen} {len}\n");
    (header, format!("@seal {gen} {crc:08x}\n"))
}

/// The log a compaction to generation `gen` of `doc` writes: one `@gen`
/// record whose body is a `# parts:` line and the document.
pub fn render_published(gen: u64, doc: &str) -> String {
    let (head, tail) = record_parts(gen, &[doc], checkpoint::crc32(doc.as_bytes()));
    [head.as_str(), doc, &tail].concat()
}

/// What a compaction's `@gen` record holds before and after the
/// document whose parts are `doc` and whose CRC-32 is `crc`: the header
/// and the part-length line, then the seal, its CRC combined from the
/// line's and `crc`.
fn record_parts(gen: u64, doc: &[&str], crc: u32) -> (String, String) {
    let mut lens = String::from("# parts:");
    for part in doc {
        let _ = write!(lens, " {}", part.len());
    }
    lens.push('\n');
    let len: usize = doc.iter().map(|part| part.len()).sum();
    let crc = checkpoint::crc32_combine(checkpoint::crc32(lens.as_bytes()), crc, len);
    let (header, seal) = frame_parts(GEN, gen, lens.len() + len, crc);
    (header + &lens, seal)
}

/// `doc`'s parts between `head` and `tail`, as the bytes a write takes.
fn framed<'a>(head: &'a str, doc: &[&'a str], tail: &'a str) -> Vec<&'a [u8]> {
    let mut parts = Vec::with_capacity(doc.len() + 2);
    parts.push(head.as_bytes());
    parts.extend(doc.iter().map(|part| part.as_bytes()));
    parts.push(tail.as_bytes());
    parts
}

/// A decimal token as the writers write it — `0` or `[1-9][0-9]*`, no
/// sign — as a `T`.
fn canonical<T: FromStr>(token: &str) -> Option<T> {
    let digits = !token.is_empty() && token.bytes().all(|b| b.is_ascii_digit());
    if !digits || (token.len() > 1 && token.starts_with('0')) {
        return None;
    }
    token.parse().ok()
}

/// One sealed frame of the log: a whole `@gen` record or a `@delta`
/// frame, its generation and its body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Frame<'a> {
    delta: bool,
    gen: u64,
    body: &'a str,
}

/// Walks the journal bytes frame by frame; returns the sealed frames
/// and the offset their last one ends at. Any framing violation —
/// truncated header, a token not as the writer writes it, a length that
/// overflows or overruns the buffer, missing or mismatched `@seal` —
/// ends the walk there: everything before it is sealed state,
/// everything from it on is a torn tail.
fn scan_journal(bytes: &[u8]) -> (Vec<Frame<'_>>, usize) {
    let mut frames = Vec::new();
    let mut pos = 0;
    while let Some((frame, next)) = read_frame(bytes, pos) {
        frames.push(frame);
        pos = next;
    }
    (frames, pos)
}

/// The sealed frame at `pos` and the offset just past its trailer.
fn read_frame(bytes: &[u8], pos: usize) -> Option<(Frame<'_>, usize)> {
    let (delta, gen, len, body_start) = parse_frame_header(bytes, pos)?;
    // `len` is whatever the file says: the sum must not wrap.
    let body_end = body_start.checked_add(len)?;
    let body = std::str::from_utf8(bytes.get(body_start..body_end)?).ok()?;
    let next = verify_frame_seal(bytes, body_end, gen, body)?;
    Some((Frame { delta, gen, body }, next))
}

/// The line at `pos`, without its newline, and the offset past it.
fn line_at(bytes: &[u8], pos: usize) -> Option<(&str, usize)> {
    let nl = bytes.get(pos..)?.iter().position(|&b| b == b'\n')? + pos;
    Some((std::str::from_utf8(&bytes[pos..nl]).ok()?, nl + 1))
}

/// Parses `@gen <g> <len>\n` or `@delta <g> <len>\n` at `pos`; returns
/// `(whether a delta, gen, len, body start)`.
fn parse_frame_header(bytes: &[u8], pos: usize) -> Option<(bool, u64, usize, usize)> {
    let (line, body_start) = line_at(bytes, pos)?;
    let (tag, rest) = line.strip_prefix('@')?.split_once(' ')?;
    let (gen, len) = rest.split_once(' ')?;
    let delta = match tag {
        GEN => false,
        DELTA => true,
        _ => return None,
    };
    Some((delta, canonical(gen)?, canonical(len)?, body_start))
}

/// Verifies `@seal <gen> <crc>\n` at `pos` against `body`; returns the
/// offset just past the trailer.
fn verify_frame_seal(bytes: &[u8], pos: usize, gen: u64, body: &str) -> Option<usize> {
    let (line, next) = line_at(bytes, pos)?;
    let (seal_gen, hex) = line.strip_prefix("@seal ")?.split_once(' ')?;
    let sealed = canonical(seal_gen) == Some(gen)
        && checkpoint::parse_crc_hex(hex) == Some(checkpoint::crc32(body.as_bytes()));
    sealed.then_some(next)
}

/// The generation the log's sealed frames add up to: the last `@gen`
/// record with the `@delta` frames after it spliced on in order. Every
/// frame after the first must carry the generation after the frame
/// before it, and every `@delta` frame must have a `@gen` record before
/// it.
fn replay(frames: &[Frame<'_>]) -> Result<Option<(u64, String)>, String> {
    // The last `@gen` record's index, and the generation of the frame
    // before the one in hand.
    let (mut last, mut before) = (None, None::<u64>);
    for (k, frame) in frames.iter().enumerate() {
        let tag = if frame.delta { DELTA } else { GEN };
        match before {
            Some(before) if Some(frame.gen) != before.checked_add(1) => {
                return Err(format!(
                    "{JOURNAL_FILE}: sealed @{tag} {} out of sequence after generation {before}",
                    frame.gen
                ));
            }
            None if frame.delta => {
                return Err(format!(
                    "{JOURNAL_FILE}: sealed @delta {} with no @gen record before it",
                    frame.gen
                ));
            }
            _ if !frame.delta => last = Some(k),
            _ => {}
        }
        before = Some(frame.gen);
    }
    let Some(k) = last else {
        return Ok(None);
    };
    let (record, deltas) = (&frames[k], &frames[k + 1..]);
    let (lens, doc) = parts_of(record)?;
    match deltas.last() {
        None => Ok(Some((record.gen, doc.to_owned()))),
        Some(newest) => Ok(Some((newest.gen, splice(record, doc, &lens, deltas)?))),
    }
}

/// The part lengths a `@gen` record's `# parts:` line lists and the
/// document after it; a record without the line is one part.
fn parts_of<'a>(record: &Frame<'a>) -> Result<(Vec<usize>, &'a str), String> {
    let Some(rest) = record.body.strip_prefix("# parts:") else {
        return Ok((vec![record.body.len()], record.body));
    };
    let (line, doc) = rest.split_once('\n').unwrap_or((rest, ""));
    let lens = line
        .strip_prefix(' ')
        .map(|lens| lens.split(' ').map(canonical));
    let lens: Option<Vec<usize>> = lens.into_iter().flatten().collect();
    match lens {
        Some(lens) if lens.iter().sum::<usize>() == doc.len() => Ok((lens, doc)),
        _ => Err(format!(
            "{JOURNAL_FILE}: @gen {}: not the parts line of its document: {line:?}",
            record.gen
        )),
    }
}

/// `doc`, the document of `record` cut into the parts of the lengths
/// `lens` — as a compaction wrote it from the row text's parts: node
/// list, head, one part per chunk, trailer — with the `@delta` frames
/// `deltas` spliced in, in order. The document they make carries the
/// last frame's trailer; its seal is checked by the parse that reads
/// it, as a record's is.
fn splice(
    record: &Frame<'_>,
    doc: &str,
    lens: &[usize],
    deltas: &[Frame<'_>],
) -> Result<String, String> {
    let gen = record.gen;
    if lens.len() < 3 {
        return Err(format!(
            "{JOURNAL_FILE}: @gen {gen}: a document of {} bytes is not cut into node list, head, chunks and trailer by {lens:?}",
            doc.len()
        ));
    }
    let mut rest = doc;
    let mut parts = Vec::with_capacity(lens.len());
    for &len in lens {
        let (part, after) = rest.split_at_checked(len).ok_or_else(|| {
            format!("{JOURNAL_FILE}: @gen {gen}: a part of {len} bytes ends inside a character")
        })?;
        parts.push(part);
        rest = after;
    }
    for frame in deltas {
        apply_delta(&mut parts, frame)
            .map_err(|e| format!("{JOURNAL_FILE}: @delta {}: {e}", frame.gen))?;
    }
    Ok(parts.concat())
}

/// Puts the head, the chunks and the trailer a `@delta` frame's body
/// carries in place of those in `parts` (the layout
/// [`ting::shard::RowText::document`] returns). The body is `@head <len>`,
/// that many bytes, then `@chunk <index> <len>` and that many bytes per
/// chunk, indices ascending, then the trailer line; anything else is an
/// error naming the line.
fn apply_delta<'a>(parts: &mut [&'a str], frame: &Frame<'a>) -> Result<(), String> {
    let chunks = parts.len() - 3;
    let (line, rest) = frame.body.split_once('\n').unwrap_or((frame.body, ""));
    let len = line.strip_prefix("@head ").and_then(canonical);
    let (head, mut rest) = len
        .and_then(|len| rest.split_at_checked(len))
        .ok_or_else(|| format!("not a head line: {line:?}"))?;
    parts[1] = head;
    let mut next = 0;
    while rest.starts_with("@chunk ") {
        let (line, after) = rest.split_once('\n').unwrap_or((rest, ""));
        let (k, len) = line["@chunk ".len()..].split_once(' ').unwrap_or_default();
        let (k, len): (Option<usize>, Option<usize>) = (canonical(k), canonical(len));
        let chunk = k.filter(|k| (next..chunks).contains(k)).zip(len);
        let (k, (text, after)) = chunk
            .and_then(|(k, len)| Some((k, after.split_at_checked(len)?)))
            .ok_or_else(|| format!("not a chunk line of this base, in order: {line:?}"))?;
        parts[2 + k] = text;
        (next, rest) = (k + 1, after);
    }
    if rest.find('\n') != Some(rest.len().wrapping_sub(1)) {
        let line = rest.split('\n').next().unwrap_or_default();
        return Err(format!("not a chunk line or the trailer: {line:?}"));
    }
    parts[chunks + 2] = rest;
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use netsim::{NodeId, SimTime};
    use obs::Lineage;
    use std::cell::Cell;
    use std::io::Write as _;
    use ting::shard::{DeltaPair, MergeDelta, MergeOutcome, RowText};

    thread_local! {
        /// Fsyncs the journal made on this thread.
        pub(super) static FSYNCS: Cell<u64> = const { Cell::new(0) };
    }

    /// Fsyncs the journal has made on this thread so far.
    pub(crate) fn fsyncs() -> u64 {
        FSYNCS.with(Cell::get)
    }

    /// The sealed records of the log at `path` as `(delta, gen)`.
    pub(crate) fn records(path: &Path) -> Vec<(bool, u64)> {
        let bytes = std::fs::read(path).unwrap();
        let frames = scan_journal(&bytes).0;
        frames.iter().map(|f| (f.delta, f.gen)).collect()
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ting-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Every file of `dir`, by name.
    fn listing(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let files = std::fs::read_dir(dir).unwrap().map(|f| f.unwrap().path());
        let mut files: Vec<_> = files
            .map(|f| (f.clone(), std::fs::read(f).unwrap()))
            .collect();
        files.sort();
        files
    }

    /// The sealed frames of `bytes` as `(delta, gen, body)`, and where
    /// the last ends.
    fn scan(bytes: &[u8]) -> (Vec<(bool, u64, &str)>, usize) {
        let (frames, sealed) = scan_journal(bytes);
        let frames = frames.iter().map(|f| (f.delta, f.gen, f.body)).collect();
        (frames, sealed)
    }

    /// `body` sealed as a `@delta` frame of generation `gen`.
    fn delta_frame(gen: u64, body: &str) -> String {
        let (header, seal) =
            frame_parts(DELTA, gen, body.len(), checkpoint::crc32(body.as_bytes()));
        format!("{header}{body}{seal}")
    }

    /// A live dataset over 12 nodes (78 pair slots: three chunks) and
    /// its row text.
    fn live() -> (MergeOutcome, RowText) {
        let dataset = MergeOutcome::new((0..12).rev().map(NodeId).collect(), 1);
        let text = RowText::new(&dataset);
        (dataset, text)
    }

    /// Folds the pairs `pairs` of node ids in at `now`, marks their
    /// chunks and renders the text.
    fn fold(dataset: &mut MergeOutcome, text: &mut RowText, pairs: &[(u32, u32)], now: u64) {
        let delta = MergeDelta {
            seq: now,
            pairs: pairs
                .iter()
                .map(|&(a, b)| DeltaPair {
                    a: NodeId(a),
                    b: NodeId(b),
                    rtt_ms: f64::from(a + 2 * b) / 4.0 + now as f64,
                    measured_at: SimTime(now),
                    lineage: Lineage {
                        shard: 0,
                        round: now,
                    },
                })
                .collect(),
            statuses: vec!["live"],
            now: SimTime(now),
        };
        dataset.fold(delta, |i, j| text.mark(i, j)).unwrap();
        dataset.judge_coverage(SimTime(now), netsim::SimDuration(50));
        text.render(dataset);
    }

    /// A compaction to generation 2, then `@delta` frames 3, 4 and 5 on
    /// it (a pair in chunk 0, one in chunk 2, a status-only one), then a
    /// compaction to generation 6 (a pair in chunk 1) and a status-only
    /// frame 7 on it: the documents generations 2 to 7 are, the log's
    /// bytes after the first compaction and after each frame on it, and
    /// the log the second compaction and its frame leave.
    fn two_compactions(j: &Journal) -> (Vec<String>, Vec<Vec<u8>>, Vec<u8>) {
        let (mut dataset, mut text) = live();
        fold(&mut dataset, &mut text, &[(11, 10), (0, 1), (5, 6)], 10);
        let (doc, crc) = text.document();
        let base = j.mark_published_with_crc(2, &doc, crc).unwrap();
        let mut logs = vec![std::fs::read(j.journal_path()).unwrap()];
        assert_eq!(base, logs[0].len() as u64);
        let mut docs = vec![dataset.to_document()];
        for (gen, pairs) in [
            (3, &[(11, 9)][..]),
            (4, &[(1, 0)]),
            (5, &[]),
            (6, &[(7, 3)]),
            (7, &[]),
        ] {
            fold(&mut dataset, &mut text, pairs, 10 * gen);
            let (doc, crc) = text.document();
            assert_eq!(text.fresh().len(), pairs.len(), "generation {gen}");
            if gen == 6 {
                j.mark_published_with_crc(gen, &doc, crc).unwrap();
            } else {
                let before = std::fs::metadata(j.journal_path()).unwrap().len();
                let frame = j.append_delta(gen, &doc, text.fresh()).unwrap();
                let log = std::fs::read(j.journal_path()).unwrap();
                assert_eq!(log.len() as u64, before + frame);
            }
            docs.push(dataset.to_document());
            logs.push(std::fs::read(j.journal_path()).unwrap());
        }
        let later = logs.split_off(4).pop().unwrap();
        (docs, logs, later)
    }

    #[test]
    fn publish_cycle_recovers_to_published_generation() {
        let dir = tempdir("cycle");
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.recover().unwrap(), Recovered::default());

        j.append(1, "doc one\n").unwrap();
        let r = j.recover().unwrap();
        assert_eq!(r.published, Some((1, "doc one\n".to_owned())));
        assert_eq!(r.serve().unwrap().0, 1);
        assert!(!r.torn_tail);

        j.mark_published(1, "doc one\n").unwrap();
        let r = j.recover().unwrap();
        assert_eq!(r.published, Some((1, "doc one\n".to_owned())));
        assert_eq!(r.pending, None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_carried_crc_paths_write_what_the_public_ones_do() {
        let dir = tempdir("carried");
        let j = Journal::open(&dir).unwrap();
        let nodes: Vec<netsim::NodeId> = (0..4).map(netsim::NodeId).collect();
        let merged = ting::shard::MergeOutcome::new(nodes, 2).to_document();
        let scan = checkpoint::seal("# ting scan checkpoint v3\nm\t1\t2\t10\t0\t1".into());
        // Cut byte by byte, more parts than one `writev` takes.
        let long = format!("{}\n", "row\t".repeat(800));
        let others = [
            &scan,
            &long,
            "doc one\n",
            "alpha\n",
            "beta\n",
            "gamma\n",
            "doc\n",
            "payload line\n",
            "sealed\n",
            "one\n",
            "two two\n",
            "three\n",
            "no newline",
            "",
        ];
        let docs = [merged.as_str()].into_iter().chain(others);
        // Each document whole, and cut into parts of 1, 3 and 700
        // bytes with an empty part between every two.
        let cuts = [usize::MAX, 1, 3, 700].into_iter();
        let cases = docs.flat_map(|doc| cuts.clone().map(move |cut| (doc, cut)));
        for (gen, (doc, cut)) in (2..).zip(cases) {
            let crc = checkpoint::crc32(doc.as_bytes());
            let mut parts = vec![""];
            for piece in doc.as_bytes().chunks(cut.min(doc.len().max(1))) {
                parts.extend([std::str::from_utf8(piece).unwrap(), ""]);
            }
            let log = std::fs::read(j.journal_path()).unwrap_or_default();
            j.append(gen, doc).unwrap();
            let staged = std::fs::read(j.journal_path()).unwrap();
            assert_eq!(staged, [log, frame_record(gen, doc).into_bytes()].concat());
            let written = j.mark_published_with_crc(gen, &parts, crc).unwrap();
            let compacted = std::fs::read(j.journal_path()).unwrap();
            assert_eq!(written, compacted.len() as u64);
            let lens: String = parts
                .iter()
                .map(|part| format!(" {}", part.len()))
                .collect();
            let body = format!("# parts:{lens}\n{doc}");
            let crc = checkpoint::crc32(body.as_bytes());
            let want = format!("@gen {gen} {}\n{body}@seal {gen} {crc:08x}\n", body.len());
            assert_eq!(compacted, want.into_bytes(), "the record's seal, {doc:?}");
            assert_eq!(listing(&dir).len(), 1, "the log alone");
            j.mark_published(gen, doc).unwrap();
            let compacted = std::fs::read(j.journal_path()).unwrap();
            assert_eq!(compacted, render_published(gen, doc).into_bytes());
            let r = j.recover().unwrap();
            assert_eq!(r.published, Some((gen, doc.to_owned())), "{doc:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `@delta` frames splice onto the `@gen` record before them in
    /// generation order: after each, recovery gives back the whole
    /// document of its generation and no torn tail. A `@gen` record
    /// sealed after them is published as it stands — the frames before
    /// it are not spliced onto it — and frames go on from it.
    #[test]
    fn delta_frames_splice_onto_the_last_gen_record_in_order() {
        let dir = tempdir("delta");
        let j = Journal::open(&dir).unwrap();
        let (docs, logs, later) = two_compactions(&j);
        for (gen, (doc, log)) in (2..).zip(docs.iter().zip(&logs)) {
            std::fs::write(j.journal_path(), log).unwrap();
            let r = j.recover().unwrap();
            assert_eq!(r.published, Some((gen, doc.clone())));
            assert_eq!((&r.pending, r.torn_tail), (&None, false));
        }
        // A frame holds the head, the chunks it names and the trailer.
        let (frames, _) = scan(&logs[3]);
        let bodies: Vec<&str> = frames.iter().map(|&(_, _, body)| body).collect();
        assert!(bodies[1].contains("@chunk 0 ") && !bodies[1].contains("@chunk 2 "));
        assert!(bodies[2].contains("@chunk 2 ") && !bodies[2].contains("@chunk 0 "));
        assert!(!bodies[3].contains("@chunk"), "a status-only frame");

        // Generation 6's record sealed behind the frames, then frame 7.
        let record = read_frame(&later, 0).unwrap().1;
        for (gen, end) in [(6, record), (7, later.len())] {
            let log = [&logs[3][..], &later[..end]].concat();
            std::fs::write(j.journal_path(), log).unwrap();
            let r = j.recover().unwrap();
            assert_eq!(r.published, Some((gen, docs[gen as usize - 2].clone())));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A sealed `@delta 2` behind `@delta 3` on a compaction to
    /// generation 2 is out of sequence, not a frame the record already
    /// holds: an error naming it, and the directory left as it was.
    #[test]
    fn a_sealed_delta_behind_a_newer_one_is_an_error() {
        let dir = tempdir("behind");
        let j = Journal::open(&dir).unwrap();
        let (_, logs, _) = two_compactions(&j);
        let (frames, _) = scan(&logs[1]);
        let (_, _, body) = frames[1];
        let log = [&logs[1][..], delta_frame(2, body).as_bytes()].concat();
        std::fs::write(j.journal_path(), &log).unwrap();
        let before = listing(&dir);
        let err = j.recover().unwrap_err();
        let want = "sealed @delta 2 out of sequence after generation 3";
        assert_eq!(err, format!("{JOURNAL_FILE}: {want}"));
        assert_eq!(listing(&dir), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A sealed frame that cannot be spliced onto what lies before it is
    /// a loud error, and recovery leaves the directory as it found it.
    #[test]
    fn a_sealed_frame_out_of_sequence_or_without_a_gen_record_is_an_error() {
        let dir = tempdir("sequence");
        let j = Journal::open(&dir).unwrap();
        let (docs, logs, _) = two_compactions(&j);
        let (frames, _) = scan(&logs[3]);
        let frame = |k: usize| {
            let (_, gen, body) = frames[k];
            delta_frame(gen, body)
        };
        let base = String::from_utf8(logs[0].clone()).unwrap();
        let cases = [
            (
                format!("{base}{}{}", frame(2), frame(1)),
                "sealed @delta 4 out of sequence after generation 2",
            ),
            (
                format!("{base}{}{}", frame(1), frame(3)),
                "sealed @delta 5 out of sequence after generation 3",
            ),
            (
                format!("{base}{}{}", frame(1), frame(1)),
                "sealed @delta 3 out of sequence after generation 3",
            ),
            (
                format!("{}{base}", frame(1)),
                "sealed @delta 3 with no @gen record before it",
            ),
            (
                format!(
                    "{base}{}{}{}",
                    frame(1),
                    frame(2),
                    frame_record(3, &docs[1])
                ),
                "sealed @gen 3 out of sequence after generation 4",
            ),
            (
                format!("{base}{}", frame_record(2, &docs[0])),
                "sealed @gen 2 out of sequence after generation 2",
            ),
        ];
        for (log, want) in cases {
            let torn = format!("{log}@delta 9");
            std::fs::write(j.journal_path(), &torn).unwrap();
            let err = j.recover().unwrap_err();
            assert_eq!(err, format!("{JOURNAL_FILE}: {want}"));
            assert_eq!(std::fs::read(j.journal_path()).unwrap(), torn.as_bytes());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Only the tokens the writer writes are taken. A frame whose header
    /// or seal line is spelled any other way is not sealed — the walk
    /// ends before it — and a sealed `@delta` body or `# parts:` line
    /// with such a token is an error naming it.
    #[test]
    fn frames_take_only_canonical_tokens() {
        let dir = tempdir("canonical");
        let j = Journal::open(&dir).unwrap();
        let (_, logs, _) = two_compactions(&j);
        let (frames, _) = scan(&logs[3]);
        let (_, gen, body) = frames[1];
        let crc = checkpoint::crc32(body.as_bytes());
        let header = format!("@delta {gen} {}\n", body.len());
        let seal = format!("@seal {gen} {crc:08x}\n");
        assert_eq!(scan(format!("{header}{body}{seal}").as_bytes()).0.len(), 1);
        let len = body.len();
        let headers = [
            format!("@delta +{gen} {len}\n"),
            format!("@delta 0{gen} {len}\n"),
            format!("@delta {gen} +{len}\n"),
            format!("@delta {gen} 0{len}\n"),
            format!("@delta  {gen} {len}\n"),
            format!("@delta {gen} {len} \n"),
            format!("@Delta {gen} {len}\n"),
        ];
        for header in headers {
            let frame = format!("{header}{body}{seal}");
            let (frames, sealed) = scan(frame.as_bytes());
            assert_eq!((frames.len(), sealed), (0, 0), "header line {header:?}");
        }
        let seals = [
            format!("@seal {gen} {crc:08X}\n"),
            format!("@seal {gen} 0{crc:08x}\n"),
            format!("@seal {gen} {:07x}\n", crc & 0x0fff_ffff),
            format!("@seal {gen} +{:07x}\n", crc & 0x0fff_ffff),
            format!("@seal {gen}  {crc:08x}\n"),
            format!("@seal +{gen} {crc:08x}\n"),
            format!("@seal 0{gen} {crc:08x}\n"),
        ];
        for seal in seals {
            let frame = format!("{header}{body}{seal}");
            let (frames, sealed) = scan(frame.as_bytes());
            assert_eq!((frames.len(), sealed), (0, 0), "seal line {seal:?}");
        }

        // Edits inside the body, the frame sealed again: each an error
        // naming its line.
        let chunk = body.lines().find(|l| l.starts_with("@chunk ")).unwrap();
        let (k, text_len) = chunk["@chunk ".len()..].split_once(' ').unwrap();
        let head = body.lines().next().unwrap();
        let head_len = &head["@head ".len()..];
        let edits = [
            (head.to_owned(), format!("@head +{head_len}")),
            (head.to_owned(), format!("@head 0{head_len}")),
            (head.to_owned(), format!("@head  {head_len}")),
            (chunk.to_owned(), format!("@chunk +{k} {text_len}")),
            (chunk.to_owned(), format!("@chunk 0{k} {text_len}")),
            (chunk.to_owned(), format!("@chunk {k} 0{text_len}")),
            (chunk.to_owned(), format!("@chunk {k} +{text_len}")),
            (chunk.to_owned(), format!("@chunk 3 {text_len}")),
            (chunk.to_owned(), format!("@chunk {k}  {text_len}")),
        ];
        let base = &logs[0];
        for (line, edited) in edits {
            let body = body.replacen(&format!("{line}\n"), &format!("{edited}\n"), 1);
            let log = [&base[..], delta_frame(gen, &body).as_bytes()].concat();
            std::fs::write(j.journal_path(), log).unwrap();
            let err = j.recover().unwrap_err();
            assert!(err.contains(&format!("{edited:?}")), "{err} for {edited:?}");
        }
        // A chunk's head line dropped: its text is read as the trailer.
        let dropped = body.replacen(&format!("{chunk}\n"), "", 1);
        let log = [&base[..], delta_frame(gen, &dropped).as_bytes()].concat();
        std::fs::write(j.journal_path(), log).unwrap();
        let err = j.recover().unwrap_err();
        assert!(
            err.contains("not a chunk line or the trailer: \"m\\t"),
            "{err}"
        );

        // The record's part lengths, each spelled another way or not
        // adding up to its document, the record sealed again.
        let record = std::str::from_utf8(base).unwrap();
        let (_, _, body) = scan(base).0[0];
        let (line, doc) = body.split_once('\n').unwrap();
        let first = line.split(' ').nth(2).unwrap();
        for edited in [
            line.replacen(&format!(" {first} "), &format!(" 0{first} "), 1),
            line.replacen(&format!(" {first} "), &format!(" +{first} "), 1),
            line.replacen(&format!(" {first} "), &format!("  {first} "), 1),
            line.replacen(&format!(" {first} "), &format!(" {first} 0 1 "), 1),
            "# parts:".to_owned(),
        ] {
            let body = format!("{edited}\n{doc}");
            let crc = checkpoint::crc32(body.as_bytes());
            let log = format!("@gen 2 {}\n{body}@seal 2 {crc:08x}\n", body.len());
            assert_ne!(log, record);
            std::fs::write(j.journal_path(), log).unwrap();
            let err = j.recover().unwrap_err();
            let want = format!("{JOURNAL_FILE}: @gen 2: not the parts line of its document: ");
            assert!(err.starts_with(&want), "{err} for {edited:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded_sealed_prefix_survives() {
        let dir = tempdir("torn");
        let j = Journal::open(&dir).unwrap();
        j.append(1, "alpha\n").unwrap();
        j.append(2, "beta\n").unwrap();
        // Simulate a kill mid-append of generation 3: write only part
        // of the frame.
        let frame = frame_record(3, "gamma\n");
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(j.journal_path())
            .unwrap();
        f.write_all(&frame.as_bytes()[..frame.len() - 4]).unwrap();
        drop(f);
        let r = j.recover().unwrap();
        assert!(r.torn_tail);
        assert_eq!(r.published, Some((2, "beta\n".to_owned())));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The log's first record, which a rename wrote whole, failing its
    /// seal — a flipped byte in the header's tag or length, in the body,
    /// in the seal — is rot, not a torn append: an error naming the log,
    /// which is not cut. Frames after it, with or without one, change
    /// nothing.
    #[test]
    fn a_corrupt_first_record_is_a_loud_error() {
        let dir = tempdir("rot");
        let j = Journal::open(&dir).unwrap();
        j.append(1, "doc\n").unwrap();
        j.mark_published(1, "doc\n").unwrap();
        let sealed = std::fs::read(j.journal_path()).unwrap();
        let flips = [
            (3, 0x20),
            ("@gen 1 1".len(), 0x01),
            ("@gen 1 12\n# p".len(), 0x20),
            (sealed.len() - 2, 0x20),
        ];
        let next = frame_record(2, "two\n");
        for ((at, flip), tail) in flips.into_iter().flat_map(|f| [(f, ""), (f, &next[..])]) {
            let mut bytes = [&sealed[..], tail.as_bytes()].concat();
            bytes[at] ^= flip;
            std::fs::write(j.journal_path(), &bytes).unwrap();
            let err = j.recover().unwrap_err();
            let want = format!(
                "{JOURNAL_FILE}: {} bytes with no sealed record at byte 0",
                bytes.len()
            );
            assert_eq!(err, want, "byte {at}");
            assert_eq!(std::fs::read(j.journal_path()).unwrap(), bytes);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A whole frame after the first that fails its seal — what a power
    /// loss can leave of an append that was never fsynced — is a torn
    /// tail: cut off, and the sealed prefix serves.
    #[test]
    fn a_whole_frame_after_the_first_that_fails_its_seal_is_a_torn_tail() {
        let dir = tempdir("unsynced");
        let j = Journal::open(&dir).unwrap();
        let (docs, logs, _) = two_compactions(&j);
        let body = (logs[0].len() + logs[1].len()) / 2;
        for at in [logs[0].len() + 3, body, logs[1].len() - 2] {
            let mut bytes = logs[1].clone();
            bytes[at] ^= 0x20;
            std::fs::write(j.journal_path(), &bytes).unwrap();
            let r = j.recover().unwrap();
            assert_eq!(
                (r.published, r.torn_tail),
                (Some((2, docs[0].clone())), true)
            );
            assert_eq!(
                std::fs::read(j.journal_path()).unwrap(),
                logs[0],
                "byte {at}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The append that creates the log writes it through a tmp file and
    /// a rename, as a compaction does: two fsyncs, and no `.tmp` left.
    #[test]
    fn the_append_that_creates_the_log_renames_it_into_place() {
        let dir = tempdir("first-append");
        let j = Journal::open(&dir).unwrap();
        let before = fsyncs();
        j.append(2, "two\n").unwrap();
        assert_eq!(fsyncs() - before, 2);
        j.append(3, "three\n").unwrap();
        assert_eq!(fsyncs() - before, 3);
        let log = [frame_record(2, "two\n"), frame_record(3, "three\n")].concat();
        assert_eq!(listing(&dir), vec![(j.journal_path(), log.into_bytes())]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A directory of the two-file layout is refused by name and left
    /// as it was: its base is never served as an empty journal.
    #[test]
    fn a_directory_holding_oracle_published_is_refused() {
        let dir = tempdir("two-files");
        let j = Journal::open(&dir).unwrap();
        std::fs::write(dir.join("oracle.published"), "# ting oracle published v1\n").unwrap();
        j.append(2, "two\n").unwrap();
        let before = listing(&dir);
        let err = j.recover().unwrap_err();
        assert!(err.starts_with("oracle.published: "), "{err}");
        assert_eq!(listing(&dir), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn frame_roundtrips_and_rejects_a_flipped_body_byte() {
        let frame = frame_record(7, "payload line\n");
        let (records, sealed) = scan(frame.as_bytes());
        assert_eq!(records, vec![(false, 7, "payload line\n")]);
        assert_eq!(sealed, frame.len(), "no torn tail");
        let mut corrupt = frame.into_bytes();
        let at = "@gen 7 13\npay".len() - 1;
        corrupt[at] ^= 0x01;
        let (records, sealed) = scan(&corrupt);
        assert!(records.is_empty());
        assert_eq!(sealed, 0, "torn from the first byte");
    }

    #[test]
    fn a_frame_length_that_overflows_is_a_torn_tail() {
        // One flipped or torn length token must not panic recovery:
        // `body_start + len` wraps below `body_start` in release.
        let dir = tempdir("overflow");
        let j = Journal::open(&dir).unwrap();
        let torn = format!("{}@gen 3 {}\n", frame_record(2, "sealed\n"), usize::MAX);
        std::fs::write(j.journal_path(), torn).unwrap();
        let r = j.recover().unwrap();
        assert_eq!(r.published, Some((2, "sealed\n".to_owned())));
        assert!(r.torn_tail);
        std::fs::remove_dir_all(&dir).unwrap();

        // The second of two records, its length token replaced.
        let first = frame_record(1, "one\n");
        let second = frame_record(2, "two two\n");
        let body_start = first.len() + "@gen 2 8\n".len();
        // The length whose wrapped sum lands on offset `at`: the start
        // of the buffer, inside it, on the record boundary, and (with
        // `usize::MAX`) one short of `body_start`.
        let wraps_to = |at: usize| usize::MAX - body_start + 1 + at;
        let lengths = [0, 7, 9].into_iter();
        let lengths = lengths.chain([0, 3, first.len(), body_start - 1].map(wraps_to));
        let unparsed = ["-1", "", "18446744073709551616"].map(String::from);
        for token in lengths.map(|n| n.to_string()).chain(unparsed) {
            let header = format!("@gen 2 {token}\n");
            let rest = second.strip_prefix("@gen 2 8\n").unwrap();
            let bytes = format!("{first}{header}{rest}");
            let (records, sealed) = scan(bytes.as_bytes());
            assert_eq!(records, vec![(false, 1, "one\n")], "length {token:?}");
            assert_eq!(sealed, first.len(), "length {token:?}");
        }
    }

    #[test]
    fn a_record_sealed_behind_a_torn_tail_survives_the_next_kill() {
        let dir = tempdir("two-kills");
        let j = Journal::open(&dir).unwrap();
        j.mark_published(2, "two\n").unwrap();
        let base = std::fs::read(j.journal_path()).unwrap();
        // First kill: mid-append of generation 3.
        let frame = frame_record(3, "three\n");
        let torn = [&base[..], &frame.as_bytes()[..frame.len() - 4]].concat();
        std::fs::write(j.journal_path(), torn).unwrap();
        let r = j.recover().unwrap();
        assert!(r.torn_tail);
        assert_eq!(r.serve().unwrap().0, 2);
        let cut = listing(&dir);
        assert_eq!(j.recover().unwrap().serve(), r.serve());
        assert_eq!(listing(&dir), cut, "recover ∘ recover = recover");

        // The restarted publisher appends generation 3 again; the
        // second kill lands after its seal.
        j.append(3, "three\n").unwrap();
        let r = j.recover().unwrap();
        assert_eq!(r.published, Some((3, "three\n".to_owned())));
        assert!(!r.torn_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_prefix_of_the_journal_recovers_a_sealed_state() {
        let full = format!("{}{}", frame_record(1, "one\n"), frame_record(2, "two\n"));
        let first = frame_record(1, "one\n").len();
        for cut in 0..=full.len() {
            let (records, _) = scan(&full.as_bytes()[..cut]);
            let expect: &[(bool, u64, &str)] = if cut == full.len() {
                &[(false, 1, "one\n"), (false, 2, "two\n")]
            } else if cut >= first {
                &[(false, 1, "one\n")]
            } else {
                &[]
            };
            assert_eq!(records, expect, "prefix of {cut} bytes");
        }
    }
}
