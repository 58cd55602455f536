//! Crash-safe checkpoint plumbing.
//!
//! A long scan campaign survives being killed only if its checkpoint
//! file survives too. Three failure modes matter in practice and each
//! has a counter-measure here:
//!
//! * **Torn writes** — the process dies mid-`write(2)`. Checkpoints are
//!   written to a `<path>.tmp` sibling, **fsynced**, and renamed into
//!   place (`write_atomic`): the rename is atomic on POSIX
//!   filesystems and the fsync orders the data before it, so the
//!   destination either holds the old document or the complete new one,
//!   never a prefix — even across a power loss right after the rename.
//! * **Corruption at rest** — bit rot, filesystem bugs, a stray editor.
//!   The checkpoint format ends with a CRC-32 trailer line covering
//!   every preceding byte ([`crc32`], [`seal`], [`verify_sealed`]); any
//!   flipped or truncated byte fails verification and the loader
//!   refuses the file instead of resuming from silently wrong state.
//! * **A corrupt primary with a good history** — every successful save
//!   first promotes the previous (verified) checkpoint to `<path>.bak`
//!   (`bak_path`), so `Scanner::recover_observed` can fall back to the
//!   last good generation.

use crate::matrix::RttMatrix;
use netsim::NodeId;
use std::fmt::{Debug, Write as _};
use std::io::{IoSlice, Write as _};
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// The slicing-by-8 tables, built at compile time from the reflected
/// polynomial: `CRC_TABLES[0]` is the published byte-at-a-time CRC-32
/// table, and `CRC_TABLES[k][b]` is the CRC register after byte `b`
/// and `k` zero bytes have passed through it.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// The CRC-32 (IEEE 802.3, reflected, `0xEDB88320`) of `bytes` — the
/// same polynomial as zip/gzip/PNG, so sealed checkpoints can be
/// cross-checked with standard tools.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Continues a finished CRC-32: `crc32_update(crc32(a), b)` is
/// `crc32(a ++ b)`. Slicing-by-8: eight bytes a step through two
/// little-endian word loads and eight table lookups, the one-table byte
/// loop for the tail.
pub(crate) fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !crc;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// The CRC-32 of `a ++ b` from `crc32(a)`, `crc32(b)` and `b`'s length
/// alone — zlib's `crc32_combine`: `crc_a` is shifted past `len_b` zero
/// bytes by multiplying it with `crc32_shift(len_b)` modulo the
/// polynomial.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    crc32_combine_shifted(crc_a, crc_b, crc32_shift(len_b))
}

/// [`crc32_combine`] with `b`'s shift already in hand: one
/// multiplication, so a writer that joins the CRCs of many cached parts
/// keeps each part's shift beside its CRC.
pub(crate) fn crc32_combine_shifted(crc_a: u32, crc_b: u32, shift_b: u32) -> u32 {
    mul_mod_p(shift_b, crc_a) ^ crc_b
}

/// `x^(8 · len)` modulo the CRC-32 polynomial: the operator that moves a
/// CRC past `len` zero bytes, one multiplication by [`X2N`] per set bit
/// of `len`.
pub(crate) fn crc32_shift(len: usize) -> u32 {
    let mut shift = 1 << 31; // x^0, in reflected bit order.
    let mut n = len;
    let mut k = 0;
    while n > 0 {
        if n & 1 == 1 {
            shift = mul_mod_p(shift, X2N[k]);
        }
        n >>= 1;
        k += 1;
    }
    shift
}

/// `X2N[k]` is `x^(8 · 2^k)` modulo the polynomial — zero bytes by the
/// power of two, squared from one byte's `x^8` at compile time.
static X2N: [u32; usize::BITS as usize] = {
    let mut t = [0; usize::BITS as usize];
    t[0] = 1 << 23; // x^8: one zero byte, bit 31 − k being x^k.
    let mut k = 1;
    while k < t.len() {
        t[k] = mul_mod_p(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
};

/// `a · b` modulo the CRC-32 polynomial, both in reflected bit order.
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut k = 32;
    while k > 0 {
        k -= 1;
        if (a >> k) & 1 == 1 {
            product ^= b;
        }
        // b · x
        b = (b >> 1) ^ (0xEDB8_8320 & (b & 1).wrapping_neg());
    }
    product
}

/// The trailer prefix that marks the integrity line.
pub(crate) const CRC_PREFIX: &str = "# crc32: ";

/// Appends the CRC-32 trailer line to a checkpoint document. The CRC
/// covers every byte before the trailer, including the final newline of
/// the body.
pub fn seal(mut body: String) -> String {
    let suffix = seal_suffix(&[&body], crc32(body.as_bytes()));
    body.push_str(&suffix);
    body
}

/// What [`seal`] appends to the parts of `doc` — a newline when they
/// end without one, then the trailer — given the CRC-32 of their
/// concatenation: `doc` is not hashed here.
pub(crate) fn seal_suffix(doc: &[&str], mut crc: u32) -> String {
    let mut suffix = String::new();
    let last = doc.iter().rfind(|part| !part.is_empty());
    if !last.is_some_and(|part| part.ends_with('\n')) {
        suffix.push('\n');
        crc = crc32_update(crc, b"\n");
    }
    let _ = writeln!(suffix, "{CRC_PREFIX}{crc:08x}");
    suffix
}

/// Splits a sealed document into its body and verifies the trailer.
/// Returns the body on success; an error describing the corruption
/// (missing trailer, malformed hex, mismatched CRC) otherwise. Only
/// the trailer [`seal`] writes is taken: exactly eight lower-case hex
/// digits, and at most one final newline; a refusal of its form names
/// the trailer's line.
pub fn verify_sealed(text: &str) -> Result<&str, String> {
    let trimmed = text.strip_suffix('\n').unwrap_or(text);
    let trailer_start = trimmed
        .rfind('\n')
        .map(|i| i + 1)
        .ok_or("checkpoint has no CRC trailer (truncated?)")?;
    let trailer = &trimmed[trailer_start..];
    let line = || text[..trailer_start].matches('\n').count() + 1;
    let hex = trailer
        .strip_prefix(CRC_PREFIX)
        .ok_or_else(|| format!("line {}: not a CRC trailer: {trailer:?}", line()))?;
    let expected = parse_crc_hex(hex)
        .ok_or_else(|| format!("line {}: malformed CRC trailer {hex:?}", line()))?;
    let body = &text[..trailer_start];
    let actual = crc32(body.as_bytes());
    if actual != expected {
        return Err(format!(
            "checkpoint CRC mismatch: trailer says {expected:08x}, content hashes to {actual:08x} \
             (corrupt or truncated file)"
        ));
    }
    Ok(body)
}

/// A CRC-32 as a seal writes it: exactly eight lower-case hex digits.
pub fn parse_crc_hex(hex: &str) -> Option<u32> {
    let canonical = hex.len() == 8 && hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    if !canonical {
        return None;
    }
    u32::from_str_radix(hex, 16).ok()
}

/// Appends the node-list header — line 2 of the matrix TSV, the scan
/// checkpoint and the merged document alike.
pub(crate) fn write_nodes_header(out: &mut String, nodes: &[NodeId]) {
    out.push_str("# nodes:");
    for n in nodes {
        out.push(' ');
        push_u64(out, n.0.into());
    }
    out.push('\n');
}

/// `"00" "01" … "99"`: the two digits of every value below 100.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends `v` in decimal, as `v.to_string()` would: two digits a step
/// from the right, then a lone leading digit when the length is odd.
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    while v >= 100 {
        let d = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    }
    if v >= 10 {
        let d = v as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    for &digit in &buf[at..] {
        out.push(char::from(digit));
    }
}

/// The one reader under the three row documents — scan checkpoint,
/// merged document, matrix TSV (grammar: DESIGN.md §19): a magic line,
/// positional `# key: value` headers, then tab-separated rows. Every
/// error names its line.
pub(crate) struct Doc<'a> {
    lines: std::str::Lines<'a>,
    /// 1-based number of the last line handed out.
    line: usize,
}

impl<'a> Doc<'a> {
    /// Opens `body` past its first line, which must be exactly `magic`;
    /// `what` names the document in the refusal.
    pub(crate) fn open(body: &'a str, magic: &str, what: &str) -> Result<Doc<'a>, String> {
        let mut lines = body.lines();
        let found = lines.next().unwrap_or_default();
        if found == magic {
            return Ok(Doc { lines, line: 1 });
        }
        Err(format!(
            "unsupported {what} header {found:?} (expected {magic:?})"
        ))
    }

    /// [`Doc::open`] over the verified body of a sealed document; the
    /// magic first, so a pre-seal format is refused for its version.
    pub(crate) fn open_sealed(text: &'a str, magic: &str, what: &str) -> Result<Doc<'a>, String> {
        Doc::open(text, magic, what)?;
        Doc::open(verify_sealed(text)?, magic, what)
    }

    /// The next line, which must be exactly `# key: value`: the value's
    /// space-separated fields.
    pub(crate) fn header(&mut self, key: &str) -> Result<Row<'a>, String> {
        self.line += 1;
        let text = self.lines.next().unwrap_or_default();
        let (line, fields) = (self.line, text.split(' '));
        let mut row = Row { line, fields };
        let found = (row.token(), row.token().and_then(|t| t.strip_suffix(':')));
        if found == (Some("#"), Some(key)) {
            return Ok(row);
        }
        Err(format!("line {line} is not a '# {key}:' list: {text:?}"))
    }

    /// The `# nodes:` header as the empty matrix it lays out: every
    /// token a `u32`, none twice.
    pub(crate) fn nodes(&mut self) -> Result<RttMatrix, String> {
        let mut row = self.header("nodes")?;
        let mut nodes = Vec::new();
        while let Some(token) = row.token() {
            nodes.push(NodeId(row.parse("node id", token)?));
        }
        RttMatrix::try_new(nodes).map_err(|e| row.err(&e))
    }

    /// Every remaining line's tab-separated fields. Nothing is skipped:
    /// a blank or comment line is a row of an unknown kind.
    pub(crate) fn rows(self) -> impl Iterator<Item = Row<'a>> {
        let numbered = self.lines.zip(self.line + 1..);
        numbered.map(|(text, line)| Row {
            line,
            fields: text.split('\t'),
        })
    }
}

/// One line's fields, read left to right.
pub(crate) struct Row<'a> {
    line: usize,
    fields: std::str::Split<'a, char>,
}

impl<'a> Row<'a> {
    /// One of this line's fields as a field list of its own.
    pub(crate) fn part(&self, token: &'a str, separator: char) -> Row<'a> {
        let (line, fields) = (self.line, token.split(separator));
        Row { line, fields }
    }

    /// `line N: msg` — the shape of every load error.
    pub(crate) fn err(&self, msg: &str) -> String {
        format!("line {}: {msg}", self.line)
    }

    /// The next field, if the line has one left.
    pub(crate) fn token(&mut self) -> Option<&'a str> {
        self.fields.next()
    }

    /// The next field, unparsed.
    pub(crate) fn text(&mut self, what: &str) -> Result<&'a str, String> {
        self.token()
            .ok_or_else(|| self.err(&format!("invalid {what}: the line ends before it")))
    }

    fn parse<T: FromStr>(&self, what: &str, token: &str) -> Result<T, String> {
        let bad = |_| self.err(&format!("invalid {what} {token:?}"));
        token.parse().map_err(bad)
    }

    /// The next field as a `T`.
    pub(crate) fn field<T: FromStr>(&mut self, what: &str) -> Result<T, String> {
        let token = self.text(what)?;
        self.parse(what, token)
    }

    /// The next field as a `T` inside `range` (so never a NaN).
    pub(crate) fn field_in<T>(&mut self, what: &str, range: RangeInclusive<T>) -> Result<T, String>
    where
        T: FromStr + PartialOrd + Debug,
    {
        let v = self.field(what)?;
        if range.contains(&v) {
            return Ok(v);
        }
        Err(self.err(&format!("{what} {v:?} is outside {range:?}")))
    }

    /// The next field as a `T`, or `None` where the writer put `-`.
    pub(crate) fn opt<T: FromStr>(&mut self, what: &str) -> Result<Option<T>, String> {
        match self.text(what)? {
            "-" => Ok(None),
            token => self.parse(what, token).map(Some),
        }
    }

    /// The line must be used up: a surplus field is an error.
    pub(crate) fn end(&mut self) -> Result<(), String> {
        match self.token() {
            None => Ok(()),
            Some(extra) => Err(self.err(&format!("surplus field {extra:?}"))),
        }
    }
}

/// Writes `contents` to `path` atomically and durably: the bytes go to
/// the [`tmp_path`] sibling, which is **fsynced before** the rename —
/// POSIX rename atomicity only orders the directory entry, not the file
/// data, so without the fsync a power loss right after the rename could
/// leave the new name pointing at zero-length or partially-written
/// data. After the rename the parent directory is fsynced too, so the
/// rename itself survives the crash; a failure to open or fsync it is
/// an error, since a caller that goes on as if the file were durable
/// (say, by truncating the log it replaces) would lose it.
pub(crate) fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = tmp_path(path);
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(contents.as_bytes())?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    path.parent().map_or(Ok(()), sync_dir)
}

/// Fsyncs directory `dir` (the current one when `dir` is empty), so the
/// entries created or renamed in it survive a crash.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    let dir = if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    };
    std::fs::File::open(dir)?.sync_all()
}

/// Writes every byte of `parts`, in order, through vectored writes: a
/// document held as a thousand cached chunks costs a couple of
/// `writev` calls, not a thousand `write`s, and is never copied into
/// one buffer.
pub fn write_all_parts(out: &mut impl std::io::Write, parts: &[&[u8]]) -> std::io::Result<()> {
    let mut slices: Vec<IoSlice> = parts.iter().map(|part| IoSlice::new(part)).collect();
    let mut rest = &mut slices[..];
    IoSlice::advance_slices(&mut rest, 0);
    while !rest.is_empty() {
        match out.write_vectored(rest) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The temp-file sibling used for atomic writes.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    sibling(path, "tmp")
}

/// The last-good-generation backup sibling.
pub(crate) fn bak_path(path: &Path) -> PathBuf {
    sibling(path, "bak")
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_owned()).unwrap_or_default();
    name.push(".");
    name.push(suffix);
    path.with_file_name(name)
}

/// The bit-at-a-time loop [`crc32`] replaced, kept as the oracle the
/// table kernel is differentially tested against.
#[cfg(test)]
mod reference {
    pub fn crc32(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        let fox = b"The quick brown fox jumps over the lazy dog";
        assert_eq!(crc32(fox), 0x414F_A339);
    }

    #[test]
    fn first_table_is_the_published_crc32_table() {
        // A wrong table fails here by name, not by a thousand pins.
        assert_eq!(CRC_TABLES[0][0], 0);
        assert_eq!(CRC_TABLES[0][1], 0x7707_3096);
        assert_eq!(CRC_TABLES[0][255], 0x2D02_EF8D);
        // Table k is the bare register (no inversions) after byte `b`
        // and k zero bytes: 8 (k + 1) single-bit steps from `b`.
        for b in 0..256 {
            let mut crc = b as u32;
            for (k, table) in CRC_TABLES.iter().enumerate() {
                for _ in 0..8 {
                    crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
                }
                assert_eq!(table[b], crc, "table {k}, byte {b}");
            }
        }
    }

    fn seeded(len: usize, seed: u64) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        SmallRng::seed_from_u64(seed).fill(&mut buf[..]);
        buf
    }

    #[test]
    fn kernel_equals_the_bitwise_reference_at_every_head_and_tail() {
        // Every length across several 8-byte steps, from every start
        // offset within a step: all chunk / tail-loop boundaries.
        let buf = seeded(308, 22);
        for start in 0..8 {
            for len in 0..=300 {
                let bytes = &buf[start..start + len];
                let expect = reference::crc32(bytes);
                assert_eq!(crc32(bytes), expect, "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn kernel_equals_the_bitwise_reference_on_large_buffers() {
        let nodes: Vec<NodeId> = (0..300).map(NodeId).collect();
        let mut merged = crate::shard::MergeOutcome::new(nodes.clone(), 4);
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                let at = netsim::SimTime((a.0 * 300 + b.0) as u64);
                merged.matrix.set(a, b, (a.0 + b.0) as f64 / 7.0);
                merged.measured_at.insert((a, b), at);
            }
        }
        let document = merged.to_document().into_bytes();
        assert!(document.len() > 1_000_000, "{} bytes", document.len());
        let buffers = [
            ("4 KiB", seeded(4096, 1)),
            ("1 MiB + 3", seeded((1 << 20) + 3, 2)),
            ("merged document", document),
            ("zeros", vec![0x00; 70_001]),
            ("ones", vec![0xFF; 70_001]),
        ];
        for (name, bytes) in &buffers {
            assert_eq!(crc32(bytes), reference::crc32(bytes), "{name}");
        }
    }

    #[test]
    fn update_and_combine_equal_the_one_shot_crc_at_every_split() {
        let buf = seeded(400, 23);
        let mut rng = SmallRng::seed_from_u64(24);
        // Every pair of lengths up to 17 straddles the 8-byte chunk
        // edge from both sides; random splits cover the rest.
        let small = (0..=17).flat_map(|a| (0..=17).map(move |b| (a, b)));
        let random = (0..500).map(|_| (rng.gen_range(0..=200usize), rng.gen_range(0..=200usize)));
        for (len_a, len_b) in small.chain(random) {
            let (a, b) = buf[..len_a + len_b].split_at(len_a);
            let whole = crc32(&buf[..len_a + len_b]);
            let (crc_a, crc_b) = (crc32(a), crc32(b));
            assert_eq!(crc32_update(crc_a, b), whole, "update, {len_a} + {len_b}");
            let combined = crc32_combine(crc_a, crc_b, len_b);
            assert_eq!(combined, whole, "combine, {len_a} + {len_b}");
        }
        // A document-sized buffer, cut at its ends, across a chunk
        // edge, in the middle and before an 18-byte trailer.
        let big = seeded(1_700_000, 25);
        let whole = crc32(&big);
        for at in [0, 1, 7, 8, 9, 850_001, big.len() - 18, big.len()] {
            let (a, b) = big.split_at(at);
            assert_eq!(crc32_update(crc32(a), b), whole, "update at {at}");
            let combined = crc32_combine(crc32(a), crc32(b), b.len());
            assert_eq!(combined, whole, "combine at {at}");
        }
    }

    #[test]
    fn sealing_parts_is_sealing_their_concatenation() {
        let cases: [&[&str]; 9] = [
            &[],
            &[""],
            &["", ""],
            &["doc"],
            &["head\n", "doc"],
            &["h", "doc\n"],
            &["h", "do", "c\n", "", ""],
            &["head\n", "one\n", "", "two"],
            &["head\n", ""],
        ];
        for doc in cases {
            let crc = crc32(doc.concat().as_bytes());
            let suffix = seal_suffix(doc, crc);
            let sealed = seal(doc.concat());
            assert_eq!(format!("{}{suffix}", doc.concat()), sealed, "{doc:?}");
        }
    }

    #[test]
    fn parts_are_written_whole_and_in_order() {
        let long = seeded(70_001, 27);
        let many: Vec<Vec<u8>> = (0..3_000).map(|k| seeded(k % 17, k as u64)).collect();
        let cases: [Vec<&[u8]>; 4] = [
            vec![],
            vec![b"", b""],
            vec![b"", b"a", b"", b"bc", &long, b""],
            many.iter().map(Vec::as_slice).collect(),
        ];
        for parts in cases {
            let mut out = Vec::new();
            write_all_parts(&mut out, &parts).unwrap();
            assert_eq!(out, parts.concat());
        }
    }

    #[test]
    fn digit_writer_equals_to_string() {
        let mut values = vec![0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX];
        for k in 1..=19 {
            let p = 10u64.pow(k);
            values.extend([p - 1, p, p + 1]);
        }
        let mut rng = SmallRng::seed_from_u64(26);
        values.extend((0..10_000).map(|_| rng.gen::<u64>() >> rng.gen_range(0..64u32)));
        for v in values {
            let mut out = String::from("x");
            push_u64(&mut out, v);
            assert_eq!(out, format!("x{v}"));
        }
    }

    #[test]
    fn seal_then_verify_roundtrips() {
        let body = "# ting scan checkpoint v3\nm\t1\t2\t10\t0\t1\n";
        let sealed = seal(body.to_string());
        assert_eq!(verify_sealed(&sealed).unwrap(), body);
        // Empty, newline-only and unterminated bodies verify too, up to
        // the newline the seal adds before its trailer.
        for body in ["", "\n", "no newline", body] {
            let sealed = seal(body.to_string());
            assert_eq!(
                verify_sealed(&sealed).map(|b| b.trim_end_matches('\n')),
                Ok(body.trim_end_matches('\n')),
                "{body:?}"
            );
        }
    }

    /// Only the trailer `seal` writes verifies: each other spelling of
    /// the same CRC is refused, naming the trailer's line.
    #[test]
    fn a_trailer_seal_would_not_write_is_refused_by_its_line() {
        let sealed = seal("# ting scan checkpoint v3\nm\t1\t2\t10\t0\t1\n".to_string());
        let (body, hex) = sealed.trim_end().split_once(CRC_PREFIX).unwrap();
        assert_eq!(hex.len(), 8);
        let edits = [
            (format!("{body}{CRC_PREFIX}{}\n", hex.to_uppercase()), 3),
            (format!("{body}{CRC_PREFIX}+{}\n", &hex[1..]), 3),
            (format!("{body}{CRC_PREFIX}0{hex}\n"), 3),
            (format!("{body}{CRC_PREFIX} {hex}\n"), 3),
            (format!("{body}{CRC_PREFIX}{hex} \n"), 3),
            (format!("{body}{CRC_PREFIX}{}\n", &hex[1..]), 3),
            (format!("{sealed}\n"), 4),
            (format!("{sealed}\n\n"), 5),
        ];
        for (text, line) in edits {
            let err = verify_sealed(&text).unwrap_err();
            assert!(
                err.starts_with(&format!("line {line}: ")),
                "{err} for {text:?}"
            );
        }
        assert_eq!(parse_crc_hex(hex), Some(crc32(body.as_bytes())));
        assert_eq!(
            verify_sealed(sealed.trim_end()),
            Ok(body),
            "no final newline"
        );
    }

    #[test]
    fn any_flipped_body_byte_fails_verification() {
        let body = "# ting scan checkpoint v3\nm\t1\t2\t10\t0\t1\n";
        let sealed = seal(body.to_string());
        // Every byte of the body is covered by the CRC; a flip anywhere
        // in it must be caught. (Flips inside the trailer itself fail
        // its canonical form or mismatch the CRC.)
        for i in 0..body.len() {
            let mut bytes = sealed.clone().into_bytes();
            bytes[i] ^= 0x01;
            if let Ok(corrupt) = String::from_utf8(bytes) {
                assert!(
                    verify_sealed(&corrupt).is_err(),
                    "body flip at byte {i} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_fails_verification() {
        let sealed = seal("# ting scan checkpoint v3\nm\t1\t2\t10\t0\t1\n".to_string());
        // Any truncation that loses more than the final newline must be
        // rejected (losing only the trailing '\n' leaves the document
        // complete: body and trailer both intact).
        for cut in 0..sealed.len() - 1 {
            assert!(
                verify_sealed(&sealed[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn sibling_paths_append_suffixes() {
        assert_eq!(
            tmp_path(Path::new("/a/b/scan.ckpt")),
            Path::new("/a/b/scan.ckpt.tmp")
        );
        assert_eq!(
            bak_path(Path::new("/a/b/scan.ckpt")),
            Path::new("/a/b/scan.ckpt.bak")
        );
    }
}
