//! The crash-consistent publish journal: append → seal → swap →
//! truncate.
//!
//! Every generation the pipeline publishes passes through two files in
//! the journal directory:
//!
//! * **`oracle.journal`** — an append-only staging log. A publish
//!   first appends one framed record (`@gen` header, the merged
//!   document's bytes, `@seal` trailer with a CRC-32 over the body)
//!   and fsyncs; the completed `@seal` line is the commit point. A
//!   kill mid-append leaves a torn tail that recovery cuts off.
//! * **`oracle.published`** — the last served generation, an
//!   outer-sealed wrapper around the same document, replaced with
//!   [`ting::checkpoint::write_atomic_parts`] (tmp + fsync + rename + dir
//!   fsync). After the swap the journal is truncated; a kill between
//!   swap and truncate leaves a record whose generation equals the
//!   published one, which recovery recognizes as already applied.
//!
//! The invariant, for a kill at **any byte offset**: recovery always
//! reproduces exactly the last *sealed* state — the pending journal
//! record if one sealed after the published generation, otherwise the
//! published file — bit-identical to what an uninterrupted run would
//! have served. The chaos tests drive this by replaying every prefix
//! of the on-disk bytes.

use std::path::{Path, PathBuf};
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
    /// The last atomically published generation, if any.
    pub published: Option<(u64, String)>,
    /// A journal record sealed *after* the published generation — a
    /// kill landed between seal and swap; the caller must apply it.
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
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Journal> {
        let dir = dir.into();
        let created: Vec<&Path> = dir.ancestors().take_while(|d| !d.is_dir()).collect();
        std::fs::create_dir_all(&dir)?;
        for parent in created.iter().filter_map(|d| d.parent()) {
            checkpoint::sync_dir(parent)?;
        }
        Ok(Journal { dir })
    }

    pub fn journal_path(&self) -> PathBuf {
        self.dir.join(JOURNAL_FILE)
    }

    pub(crate) fn published_path(&self) -> PathBuf {
        self.dir.join(PUBLISHED_FILE)
    }

    /// Stages generation `gen` (a merged-matrix document) into the
    /// append-only log. Durable on return; the record is committed by
    /// its `@seal` line. This is step one of a publish — the caller
    /// swaps the oracle next, then calls [`Journal::mark_published`].
    pub fn append(&self, gen: u64, doc: &str) -> std::io::Result<()> {
        self.append_with_crc(gen, &[doc], checkpoint::crc32(doc.as_bytes()))
    }

    /// [`Journal::append`] of a document held as the parts `doc`, whose
    /// concatenation's CRC-32 the caller holds — the pipeline's cached
    /// render. The frame goes to the log in vectored writes, the
    /// document from the caller's buffers: nothing copies or hashes it.
    /// The append that creates the log also fsyncs the directory, so
    /// the log's entry is as durable as its first record.
    pub(crate) fn append_with_crc(&self, gen: u64, doc: &[&str], crc: u32) -> std::io::Result<()> {
        let path = self.journal_path();
        let created = !path.exists();
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        let (header, trailer) = frame_parts(gen, doc, crc);
        checkpoint::write_all_parts(&mut f, &framed(&header, doc, &trailer))?;
        f.sync_all()?;
        if created {
            checkpoint::sync_dir(&self.dir)?;
        }
        Ok(())
    }

    /// Completes a publish: atomically replaces the published file
    /// with generation `gen`, then truncates the staging log. A kill
    /// between the two leaves an already-applied record recovery
    /// recognizes by its generation number.
    pub fn mark_published(&self, gen: u64, doc: &str) -> std::io::Result<()> {
        self.mark_published_with_crc(gen, &[doc], checkpoint::crc32(doc.as_bytes()))
    }

    /// [`Journal::mark_published`] of a document held as parts, whose
    /// CRC-32 the caller holds; like [`Journal::append_with_crc`],
    /// nothing copies or hashes the document.
    pub(crate) fn mark_published_with_crc(
        &self,
        gen: u64,
        doc: &[&str],
        crc: u32,
    ) -> std::io::Result<()> {
        let (head, tail) = published_parts(gen, doc, crc);
        checkpoint::write_atomic_parts(&self.published_path(), &framed(&head, doc, &tail))?;
        self.cut_journal(0)
    }

    /// Cuts the staging log to its first `len` bytes, durably.
    fn cut_journal(&self, len: u64) -> std::io::Result<()> {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(self.journal_path())?;
        f.set_len(len)?;
        f.sync_all()
    }

    /// Replays the directory after a kill. Corrupt *sealed* state (a
    /// published file that fails its CRC) is an error — that is disk
    /// rot, not a crash window, and must be loud. Torn tails and stale
    /// `.tmp` siblings are expected crash debris: the `.tmp` is ignored,
    /// the tail is cut off the log, so that the next [`Journal::append`]
    /// lands behind sealed records only — a record sealed behind
    /// garbage would be lost to the next recovery's walk.
    pub fn recover(&self) -> Result<Recovered, String> {
        let published = match std::fs::read_to_string(self.published_path()) {
            Ok(text) => Some(parse_published(&text)?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(format!("published file unreadable: {e}")),
        };
        let (records, torn_tail) = match std::fs::read(self.journal_path()) {
            Ok(bytes) => {
                let (records, sealed) = scan_journal(&bytes);
                let torn_tail = sealed < bytes.len();
                if torn_tail {
                    self.cut_journal(sealed as u64)
                        .map_err(|e| format!("cutting the journal's torn tail: {e}"))?;
                }
                (records, torn_tail)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (Vec::new(), false),
            Err(e) => return Err(format!("journal unreadable: {e}")),
        };
        // `None < Some(0)`: with no published file every sealed record
        // is pending, whatever number it carries.
        let published_gen = published.as_ref().map(|&(g, _)| g);
        let pending = records.into_iter().rfind(|&(g, _)| Some(g) > published_gen);
        Ok(Recovered {
            published,
            pending,
            torn_tail,
        })
    }
}

/// Frames one journal record: `@gen <g> <len>\n` + the document bytes +
/// `@seal <g> <crc32-hex>\n`. Public so fault-injection tests can
/// compute byte offsets inside a record without writing one.
pub fn frame_record(gen: u64, doc: &str) -> String {
    let (header, trailer) = frame_parts(gen, &[doc], checkpoint::crc32(doc.as_bytes()));
    [header.as_str(), doc, &trailer].concat()
}

/// The `@gen` header and `@seal` trailer around the document whose
/// parts are `doc` and whose CRC-32 is `crc`.
fn frame_parts(gen: u64, doc: &[&str], crc: u32) -> (String, String) {
    let len: usize = doc.iter().map(|part| part.len()).sum();
    let header = format!("@gen {gen} {len}\n");
    (header, format!("@seal {gen} {crc:08x}\n"))
}

/// Renders the published file's contents (outer seal included).
pub fn render_published(gen: u64, doc: &str) -> String {
    let (head, tail) = published_parts(gen, &[doc], checkpoint::crc32(doc.as_bytes()));
    [head.as_str(), doc, &tail].concat()
}

/// What the published file holds before and after the document whose
/// parts are `doc` and whose CRC-32 is `crc`: magic and generation
/// lines, then the outer seal, its CRC combined from the head's and
/// `crc`.
fn published_parts(gen: u64, doc: &[&str], crc: u32) -> (String, String) {
    let head = format!("{PUBLISHED_MAGIC}\n# gen: {gen}\n");
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

/// Parses the published file: outer CRC, magic, generation, document.
fn parse_published(text: &str) -> Result<(u64, String), String> {
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
    let gen: u64 = gen_line
        .strip_prefix("# gen: ")
        .ok_or_else(|| format!("published file: not a generation line: {gen_line:?}"))?
        .parse()
        .map_err(|e| format!("published file: invalid generation: {e}"))?;
    Ok((gen, doc.to_owned()))
}

/// Walks the journal bytes record by record; returns the sealed
/// records and the offset their last one ends at. Any framing violation
/// — truncated header, a length that overflows or overruns the buffer,
/// missing or mismatched `@seal` — ends the walk there: everything
/// before it is sealed state, everything from it on is a torn tail.
fn scan_journal(bytes: &[u8]) -> (Vec<(u64, String)>, usize) {
    let mut records = Vec::new();
    let mut pos = 0;
    while let Some((gen, body, next)) = read_frame(bytes, pos) {
        records.push((gen, body.to_owned()));
        pos = next;
    }
    (records, pos)
}

/// The sealed frame at `pos`: its generation, its body and the offset
/// just past its trailer.
fn read_frame(bytes: &[u8], pos: usize) -> Option<(u64, &str, usize)> {
    let (gen, len, body_start) = parse_frame_header(bytes, pos)?;
    // `len` is whatever the file says: the sum must not wrap.
    let body_end = body_start.checked_add(len)?;
    let body = std::str::from_utf8(bytes.get(body_start..body_end)?).ok()?;
    Some((gen, body, verify_frame_seal(bytes, body_end, gen, body)?))
}

/// Parses `@gen <g> <len>\n` at `pos`; returns `(gen, len, body
/// start)`.
fn parse_frame_header(bytes: &[u8], pos: usize) -> Option<(u64, usize, usize)> {
    let nl = bytes[pos..].iter().position(|&b| b == b'\n')? + pos;
    let line = std::str::from_utf8(&bytes[pos..nl]).ok()?;
    let rest = line.strip_prefix("@gen ")?;
    let (gen, len) = rest.split_once(' ')?;
    Some((gen.parse().ok()?, len.parse().ok()?, nl + 1))
}

/// Verifies `@seal <gen> <crc>\n` at `pos` against `body`; returns the
/// offset just past the trailer.
fn verify_frame_seal(bytes: &[u8], pos: usize, gen: u64, body: &str) -> Option<usize> {
    let nl = bytes[pos..].iter().position(|&b| b == b'\n')? + pos;
    let line = std::str::from_utf8(&bytes[pos..nl]).ok()?;
    let rest = line.strip_prefix("@seal ")?;
    let (seal_gen, hex) = rest.split_once(' ')?;
    if seal_gen.parse::<u64>().ok()? != gen {
        return None;
    }
    if u32::from_str_radix(hex, 16).ok()? != checkpoint::crc32(body.as_bytes()) {
        return None;
    }
    Some(nl + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ting-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
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
            j.append_with_crc(gen, &parts, crc).unwrap();
            let staged = std::fs::read(j.journal_path()).unwrap();
            assert_eq!(staged, frame_record(gen, doc).into_bytes(), "{doc:?}");
            j.mark_published_with_crc(gen, &parts, crc).unwrap();
            let published = std::fs::read(j.published_path()).unwrap();
            assert_eq!(
                published,
                render_published(gen, doc).into_bytes(),
                "{doc:?}"
            );
            let want = checkpoint::seal(format!("{PUBLISHED_MAGIC}\n# gen: {gen}\n{doc}"));
            assert_eq!(published, want.into_bytes(), "the outer seal, {doc:?}");
            assert_eq!(std::fs::metadata(j.journal_path()).unwrap().len(), 0);
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
        let (records, sealed) = scan_journal(frame.as_bytes());
        assert_eq!(records, vec![(7, "payload line\n".to_owned())]);
        assert_eq!(sealed, frame.len(), "no torn tail");
        let mut corrupt = frame.into_bytes();
        let at = "@gen 7 13\npay".len() - 1;
        corrupt[at] ^= 0x01;
        let (records, sealed) = scan_journal(&corrupt);
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
            let (records, sealed) = scan_journal(bytes.as_bytes());
            assert_eq!(records, vec![(1, "one\n".to_owned())], "length {token:?}");
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
            let (records, _) = scan_journal(&full.as_bytes()[..cut]);
            let expect: &[(u64, &str)] = if cut == full.len() {
                &[(1, "one\n"), (2, "two\n")]
            } else if cut >= first {
                &[(1, "one\n")]
            } else {
                &[]
            };
            let got: Vec<(u64, &str)> = records.iter().map(|(g, d)| (*g, d.as_str())).collect();
            assert_eq!(got, expect, "prefix of {cut} bytes");
        }
    }
}
