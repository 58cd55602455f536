//! The crash-consistent publish journal: a base, and a log of what
//! each publish changed on it.
//!
//! The last published generation lives in two files of the journal
//! directory (grammar: DESIGN.md §19):
//!
//! * **`oracle.published`** — the *base*: one whole generation, an
//!   outer-sealed wrapper around its merged document and the lengths
//!   of the parts it was written as (for a pipeline's, the row text's:
//!   node list, head, one part per row chunk, trailer), replaced only by
//!   a *compaction* (tmp file, fsync, rename, directory fsync; the
//!   rename is its commit point), which then truncates the log.
//! * **`oracle.journal`** — an append-only log of sealed frames. A
//!   publish that does not compact appends one `@delta` frame — the
//!   document's head lines, the text of each row chunk the publish
//!   re-rendered under its index, and the document's trailer — and
//!   fsyncs once; the frame's completed `@seal` line is its commit
//!   point. [`Journal::append`] stages a whole `@gen` record instead: a
//!   generation sealed but not yet made the base (the seal → swap
//!   window). A kill mid-append leaves a torn tail that recovery cuts
//!   off.
//!
//! Recovery loads the base, cuts it into its parts by their lengths,
//! and splices the sealed `@delta` frames onto them in generation
//! order: the chunk rule is the row text's alone
//! ([`ting::shard::RowText`]), and the base records its result.
//! Frames the base already holds — a kill between a compaction's
//! rename and its truncate — are skipped. The invariant, for a kill at **any byte
//! offset**: recovery reproduces exactly the last *sealed* state, the
//! pending `@gen` record if one sealed after it, bit-identical to what
//! an uninterrupted run served. A sealed frame out of sequence, with no
//! base under it, or whose body does not parse is an error, never a
//! silently different state. The chaos tests drive this by replaying
//! every prefix of the bytes a run writes.

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use ting::checkpoint;

/// The append-only staging log's file name.
pub const JOURNAL_FILE: &str = "oracle.journal";
/// The last-published-generation file's name.
pub const PUBLISHED_FILE: &str = "oracle.published";
/// First line of the published file's (outer-sealed) body.
pub(crate) const PUBLISHED_MAGIC: &str = "# ting oracle published v1";

/// What recovery found on disk.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Recovered {
    /// The last published generation: the base with every sealed
    /// `@delta` frame on it spliced in, as one document.
    pub published: Option<(u64, String)>,
    /// A whole `@gen` record sealed *after* the published generation —
    /// a kill landed between seal and swap; the caller must apply it.
    pub pending: Option<(u64, String)>,
    /// Whether the journal carried a torn (unsealed) tail that was
    /// discarded.
    pub torn_tail: bool,
}

impl Recovered {
    /// The generation recovery says must be served: the pending record
    /// when one exists, else the published one.
    pub fn serve(&self) -> Option<&(u64, String)> {
        self.pending.as_ref().or(self.published.as_ref())
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

    pub(crate) fn published_path(&self) -> PathBuf {
        self.dir.join(PUBLISHED_FILE)
    }

    /// Stages generation `gen` (a merged-matrix document) into the log
    /// as one whole `@gen` record. Durable on return; the record is
    /// committed by its `@seal` line, and recovery serves it as pending
    /// until [`Journal::mark_published`] makes it the base.
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
    /// it; the append that creates the log also fsyncs the directory,
    /// so the log's entry is as durable as its first frame.
    fn append_frame(&self, parts: &[&[u8]]) -> io::Result<u64> {
        let path = self.journal_path();
        let created = !path.exists();
        let mut f = OpenOptions::new().create(true).append(true).open(&path)?;
        checkpoint::write_all_parts(&mut f, parts)?;
        fsync(&f)?;
        if created {
            fsync_dir(&self.dir)?;
        }
        Ok(parts.iter().map(|part| part.len() as u64).sum())
    }

    /// Makes generation `gen` the base and empties the log: a
    /// compaction. A kill before the rename leaves the old base and
    /// its log, one after it a log the new base already holds, which
    /// recovery recognizes by its generation numbers.
    pub fn mark_published(&self, gen: u64, doc: &str) -> io::Result<()> {
        self.mark_published_with_crc(gen, &[doc], checkpoint::crc32(doc.as_bytes()))
            .map(drop)
    }

    /// [`Journal::mark_published`] of a document held as parts, whose
    /// CRC-32 the caller holds; nothing copies or hashes the document.
    /// The base goes to a tmp file, fsynced, renamed over the published
    /// file, and the directory is fsynced; then the log is cut to
    /// nothing and fsynced. A missing log is created before the rename,
    /// so that one directory fsync makes both entries durable. Returns
    /// the base's length in bytes.
    pub(crate) fn mark_published_with_crc(
        &self,
        gen: u64,
        doc: &[&str],
        crc: u32,
    ) -> io::Result<u64> {
        let log = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(self.journal_path())?;
        let (head, tail) = published_parts(gen, doc, crc);
        let parts = framed(&head, doc, &tail);
        let tmp = self.dir.join(format!("{PUBLISHED_FILE}.tmp"));
        let mut f = File::create(&tmp)?;
        checkpoint::write_all_parts(&mut f, &parts)?;
        fsync(&f)?;
        drop(f);
        std::fs::rename(&tmp, self.published_path())?;
        fsync_dir(&self.dir)?;
        log.set_len(0)?;
        fsync(&log)?;
        Ok(parts.iter().map(|part| part.len() as u64).sum())
    }

    /// Replays the directory after a kill. Corrupt *sealed* state (a
    /// published file that fails its CRC, a sealed frame that cannot be
    /// spliced) is an error — that is disk rot or a writer's fault, not
    /// a crash window, and must be loud; the directory is left as it
    /// was. Torn tails and stale `.tmp` siblings are expected crash
    /// debris: the `.tmp` is ignored, the tail is cut off the log, so
    /// that the next append lands behind sealed frames only — a frame
    /// sealed behind garbage would be lost to the next recovery's walk.
    pub fn recover(&self) -> Result<Recovered, String> {
        let base = match std::fs::read_to_string(self.published_path()) {
            Ok(text) => Some(parse_published(&text)?),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(format!("published file unreadable: {e}")),
        };
        let log = match std::fs::read(self.journal_path()) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(format!("journal unreadable: {e}")),
        };
        let (frames, sealed) = scan_journal(&log);
        let (published, pending) = replay(base, &frames)?;
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
            pending,
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

/// Renders the published file's contents (outer seal included).
pub fn render_published(gen: u64, doc: &str) -> String {
    let (head, tail) = published_parts(gen, &[doc], checkpoint::crc32(doc.as_bytes()));
    [head.as_str(), doc, &tail].concat()
}

/// What the published file holds before and after the document whose
/// parts are `doc` and whose CRC-32 is `crc`: the magic, generation and
/// part-length lines, then the outer seal, its CRC combined from the
/// head's and `crc`.
fn published_parts(gen: u64, doc: &[&str], crc: u32) -> (String, String) {
    let mut head = format!("{PUBLISHED_MAGIC}\n# gen: {gen}\n# parts:");
    for part in doc {
        let _ = write!(head, " {}", part.len());
    }
    head.push('\n');
    let tail = checkpoint::seal_suffix(&head, doc, crc);
    (head, tail)
}

/// `doc`'s parts between `head` and `tail`, as the bytes a write takes.
fn framed<'a>(head: &'a str, doc: &[&'a str], tail: &'a str) -> Vec<&'a [u8]> {
    let mut parts = Vec::with_capacity(doc.len() + 2);
    parts.push(head.as_bytes());
    parts.extend(doc.iter().map(|part| part.as_bytes()));
    parts.push(tail.as_bytes());
    parts
}

/// A base as recovery reads it: its generation, the lengths of the parts
/// its document was written as, and the document.
type Base = (u64, Vec<usize>, String);

/// Parses the published file: outer CRC, magic, generation, part
/// lengths (absent in a file written before they were), document.
fn parse_published(text: &str) -> Result<Base, String> {
    let body = checkpoint::verify_sealed(text).map_err(|e| format!("published file: {e}"))?;
    let rest = body
        .strip_prefix(PUBLISHED_MAGIC)
        .and_then(|r| r.strip_prefix('\n'))
        .ok_or_else(|| {
            format!("published file: unsupported header (expected {PUBLISHED_MAGIC:?})")
        })?;
    let (gen_line, doc) = rest
        .split_once('\n')
        .ok_or("published file: missing generation line")?;
    let gen = gen_line
        .strip_prefix("# gen: ")
        .and_then(canonical)
        .ok_or_else(|| format!("published file: not a generation line: {gen_line:?}"))?;
    let (parts, doc) = match doc.strip_prefix("# parts:") {
        Some(rest) => {
            let (line, doc) = rest.split_once('\n').unwrap_or((rest, ""));
            let lens = line
                .strip_prefix(' ')
                .map(|lens| lens.split(' ').map(canonical));
            let parts: Option<Vec<usize>> = lens.into_iter().flatten().collect();
            let parts =
                parts.ok_or_else(|| format!("published file: not a parts line: {line:?}"))?;
            (parts, doc)
        }
        None => (vec![doc.len()], doc),
    };
    Ok((gen, parts, doc.to_owned()))
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

/// A published generation and a pending one, as [`Recovered`] holds them.
type Replayed = (Option<(u64, String)>, Option<(u64, String)>);

/// The published and pending generations the base and the log's sealed
/// frames add up to: each `@delta` frame past the base's generation
/// spliced onto it in turn — each must be the next generation — and a
/// whole `@gen` record newer than the result pending.
fn replay(base: Option<Base>, frames: &[Frame<'_>]) -> Result<Replayed, String> {
    let mut deltas = Vec::new();
    let mut at = base.as_ref().map(|&(gen, ..)| gen);
    for frame in frames.iter().filter(|f| f.delta) {
        let Some((base_gen, ..)) = base else {
            return Err(format!(
                "{JOURNAL_FILE}: sealed @delta {} with no base under it",
                frame.gen
            ));
        };
        if frame.gen <= base_gen {
            // Written before a compaction the kill did not let truncate.
            continue;
        }
        if Some(frame.gen) != at.and_then(|gen| gen.checked_add(1)) {
            return Err(format!(
                "{JOURNAL_FILE}: sealed @delta {} out of sequence after generation {}",
                frame.gen,
                at.unwrap_or(base_gen)
            ));
        }
        at = Some(frame.gen);
        deltas.push(*frame);
    }
    let published = match base {
        Some((_, parts, doc)) if !deltas.is_empty() => {
            let gen = deltas[deltas.len() - 1].gen;
            Some((gen, splice(&doc, &parts, &deltas)?))
        }
        base => base.map(|(gen, _, doc)| (gen, doc)),
    };
    // `None < Some(0)`: with no published generation every sealed
    // record is pending, whatever number it carries.
    let newest = published.as_ref().map(|&(gen, _)| gen);
    let pending = frames
        .iter()
        .rfind(|f| !f.delta && Some(f.gen) > newest)
        .map(|f| (f.gen, f.body.to_owned()));
    Ok((published, pending))
}

/// `base`, cut into the parts of the lengths `lens` — as a compaction
/// wrote it from the row text's parts: node list, head, one part per
/// chunk, trailer — with the `@delta` frames `deltas` spliced in, in
/// order. The document they make carries the last frame's trailer; its
/// seal is checked by the parse that reads it, as a base's is.
fn splice(base: &str, lens: &[usize], deltas: &[Frame<'_>]) -> Result<String, String> {
    if lens.len() < 3 || lens.iter().sum::<usize>() != base.len() {
        return Err(format!(
            "{PUBLISHED_FILE}: a base of {} bytes is not cut into node list, head, chunks and trailer by {lens:?}",
            base.len()
        ));
    }
    let mut rest = base;
    let mut parts = Vec::with_capacity(lens.len());
    for &len in lens {
        let (part, after) = rest.split_at_checked(len).ok_or_else(|| {
            format!("{PUBLISHED_FILE}: a part of {len} bytes ends inside a character")
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

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ting-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The sealed frames of `bytes` as `(delta, gen, body)`, and where
    /// the last ends.
    fn scan(bytes: &[u8]) -> (Vec<(bool, u64, &str)>, usize) {
        let (frames, sealed) = scan_journal(bytes);
        let frames = frames.iter().map(|f| (f.delta, f.gen, f.body)).collect();
        (frames, sealed)
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

    /// A base at generation 2, then `@delta` frames 3, 4 and 5 on it (a
    /// pair in chunk 0, one in chunk 2, a status-only one): the
    /// documents each generation is, and the log's bytes after each
    /// frame.
    fn base_and_three_frames(j: &Journal) -> (Vec<String>, Vec<Vec<u8>>) {
        let (mut dataset, mut text) = live();
        fold(&mut dataset, &mut text, &[(11, 10), (0, 1), (5, 6)], 10);
        let (doc, crc) = text.document();
        let base = j.mark_published_with_crc(2, &doc, crc).unwrap();
        let published = std::fs::read(j.published_path()).unwrap();
        assert_eq!(base, published.len() as u64);
        let mut docs = vec![dataset.to_document()];
        let mut logs = Vec::new();
        for (gen, pairs) in [(3, &[(11, 9)][..]), (4, &[(1, 0)]), (5, &[])] {
            fold(&mut dataset, &mut text, pairs, 10 * gen);
            let (doc, _) = text.document();
            let chunks = text.fresh().len();
            assert_eq!(chunks, pairs.len(), "generation {gen}");
            let before = std::fs::metadata(j.journal_path()).unwrap().len();
            let frame = j.append_delta(gen, &doc, text.fresh()).unwrap();
            let log = std::fs::read(j.journal_path()).unwrap();
            assert_eq!(log.len() as u64, before + frame);
            docs.push(dataset.to_document());
            logs.push(log);
        }
        (docs, logs)
    }

    #[test]
    fn publish_cycle_recovers_to_published_generation() {
        let dir = tempdir("cycle");
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.recover().unwrap(), Recovered::default());

        j.append(1, "doc one\n").unwrap();
        let r = j.recover().unwrap();
        assert_eq!(r.pending, Some((1, "doc one\n".to_owned())));
        assert_eq!(r.serve().unwrap().0, 1);
        assert!(!r.torn_tail);

        j.mark_published(1, "doc one\n").unwrap();
        let r = j.recover().unwrap();
        assert_eq!(r.published, Some((1, "doc one\n".to_owned())));
        assert_eq!(r.pending, None, "an applied record is not pending");
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
            j.append(gen, doc).unwrap();
            let staged = std::fs::read(j.journal_path()).unwrap();
            assert_eq!(staged, frame_record(gen, doc).into_bytes(), "{doc:?}");
            let base = j.mark_published_with_crc(gen, &parts, crc).unwrap();
            let published = std::fs::read(j.published_path()).unwrap();
            assert_eq!(base, published.len() as u64);
            let lens: String = parts
                .iter()
                .map(|part| format!(" {}", part.len()))
                .collect();
            let head = format!("{PUBLISHED_MAGIC}\n# gen: {gen}\n# parts:{lens}\n");
            let want = checkpoint::seal(format!("{head}{doc}"));
            assert_eq!(published, want.into_bytes(), "the outer seal, {doc:?}");
            assert_eq!(std::fs::metadata(j.journal_path()).unwrap().len(), 0);
            j.mark_published(gen, doc).unwrap();
            let published = std::fs::read(j.published_path()).unwrap();
            assert_eq!(published, render_published(gen, doc).into_bytes());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `@delta` frames splice onto the base in generation order: after
    /// each, recovery gives back the whole document of its generation,
    /// nothing pending and no torn tail; a compaction's rename with the
    /// truncate not done leaves frames the base already holds, which
    /// are skipped.
    #[test]
    fn delta_frames_splice_onto_the_base_in_order() {
        let dir = tempdir("delta");
        let j = Journal::open(&dir).unwrap();
        let (docs, logs) = base_and_three_frames(&j);
        for (gen, (doc, log)) in (3..).zip(docs[1..].iter().zip(&logs)) {
            std::fs::write(j.journal_path(), log).unwrap();
            let r = j.recover().unwrap();
            assert_eq!(r.published, Some((gen, doc.clone())));
            assert_eq!((&r.pending, r.torn_tail), (&None, false));
        }
        // A frame holds the head, the chunks it names and the trailer.
        let (frames, _) = scan(&logs[2]);
        let bodies: Vec<&str> = frames.iter().map(|&(_, _, body)| body).collect();
        assert!(bodies[0].contains("@chunk 0 ") && !bodies[0].contains("@chunk 2 "));
        assert!(bodies[1].contains("@chunk 2 ") && !bodies[1].contains("@chunk 0 "));
        assert!(!bodies[2].contains("@chunk"), "a status-only frame");

        // Compaction at generation 6: rename done, truncate not done.
        let body = checkpoint::verify_sealed(&docs[3]).unwrap();
        let gen6 = checkpoint::seal(body.replace("# now_ns: 50\n", "# now_ns: 60\n"));
        j.mark_published(6, &gen6).unwrap();
        std::fs::write(j.journal_path(), &logs[2]).unwrap();
        let r = j.recover().unwrap();
        assert_eq!(r.published, Some((6, gen6)));
        assert_eq!((&r.pending, r.torn_tail), (&None, false));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A sealed frame that cannot be spliced onto what lies under it is
    /// a loud error, and recovery leaves the directory as it found it.
    #[test]
    fn a_sealed_frame_out_of_sequence_or_without_a_base_is_an_error() {
        let dir = tempdir("sequence");
        let j = Journal::open(&dir).unwrap();
        let (_, logs) = base_and_three_frames(&j);
        let (frames, _) = scan(&logs[2]);
        let frame = |k: usize| {
            let (_, gen, body) = frames[k];
            let (header, seal) =
                frame_parts(DELTA, gen, body.len(), checkpoint::crc32(body.as_bytes()));
            format!("{header}{body}{seal}")
        };
        let published = std::fs::read(j.published_path()).unwrap();
        let cases = [
            (
                format!("{}{}", frame(1), frame(0)),
                true,
                "sealed @delta 4 out of sequence after generation 2",
            ),
            (
                format!("{}{}", frame(0), frame(2)),
                true,
                "sealed @delta 5 out of sequence after generation 3",
            ),
            (
                format!("{}{}", frame(0), frame(0)),
                true,
                "sealed @delta 3 out of sequence after generation 3",
            ),
            (frame(0), false, "sealed @delta 3 with no base under it"),
        ];
        for (log, base, want) in cases {
            std::fs::write(j.journal_path(), &log).unwrap();
            if !base {
                std::fs::remove_file(j.published_path()).unwrap();
            }
            let torn = format!("{log}@delta 9");
            std::fs::write(j.journal_path(), &torn).unwrap();
            let err = j.recover().unwrap_err();
            assert_eq!(err, format!("{JOURNAL_FILE}: {want}"));
            assert_eq!(std::fs::read(j.journal_path()).unwrap(), torn.as_bytes());
            std::fs::write(j.published_path(), &published).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Only the tokens the writer writes are taken. A frame whose header
    /// or seal line is spelled any other way is not sealed — the walk
    /// ends before it — and a sealed `@delta` body with such a line is
    /// an error naming it.
    #[test]
    fn frames_take_only_canonical_tokens() {
        let dir = tempdir("canonical");
        let j = Journal::open(&dir).unwrap();
        let (_, logs) = base_and_three_frames(&j);
        let (frames, _) = scan(&logs[2]);
        let (_, gen, body) = frames[0];
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
        for (line, edited) in edits {
            let body = body.replacen(&format!("{line}\n"), &format!("{edited}\n"), 1);
            let (header, seal) =
                frame_parts(DELTA, gen, body.len(), checkpoint::crc32(body.as_bytes()));
            std::fs::write(j.journal_path(), format!("{header}{body}{seal}")).unwrap();
            let err = j.recover().unwrap_err();
            assert!(err.contains(&format!("{edited:?}")), "{err} for {edited:?}");
        }
        // A chunk's head line dropped: its text is read as the trailer.
        let dropped = body.replacen(&format!("{chunk}\n"), "", 1);
        let (header, seal) = frame_parts(
            DELTA,
            gen,
            dropped.len(),
            checkpoint::crc32(dropped.as_bytes()),
        );
        std::fs::write(j.journal_path(), format!("{header}{dropped}{seal}")).unwrap();
        let err = j.recover().unwrap_err();
        assert!(
            err.contains("not a chunk line or the trailer: \"m\\t"),
            "{err}"
        );
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
        assert_eq!(r.pending, Some((2, "beta\n".to_owned())));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_published_file_is_a_loud_error() {
        let dir = tempdir("rot");
        let j = Journal::open(&dir).unwrap();
        j.append(1, "doc\n").unwrap();
        j.mark_published(1, "doc\n").unwrap();
        let mut bytes = std::fs::read(j.published_path()).unwrap();
        bytes[3] ^= 0x20;
        std::fs::write(j.published_path(), &bytes).unwrap();
        let err = j.recover().unwrap_err();
        assert!(err.contains("CRC"), "{err}");
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
        assert_eq!(r.pending, Some((2, "sealed\n".to_owned())));
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
        j.append(2, "two\n").unwrap();
        j.mark_published(2, "two\n").unwrap();
        // First kill: mid-append of generation 3.
        let frame = frame_record(3, "three\n");
        std::fs::write(j.journal_path(), &frame.as_bytes()[..frame.len() - 4]).unwrap();
        let r = j.recover().unwrap();
        assert!(r.torn_tail);
        assert_eq!((r.serve().unwrap().0, &r.pending), (2, &None));
        let files = || [j.journal_path(), j.published_path()].map(|f| std::fs::read(f).unwrap());
        let cut = files();
        assert_eq!(j.recover().unwrap().serve(), r.serve());
        assert_eq!(files(), cut, "recover ∘ recover = recover");

        // The restarted publisher stages generation 3 again; the second
        // kill lands between its seal and `mark_published`.
        j.append(3, "three\n").unwrap();
        let r = j.recover().unwrap();
        assert_eq!(r.pending, Some((3, "three\n".to_owned())));
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
