//! Crash-safe checkpoint plumbing.
//!
//! A long scan campaign survives being killed only if its checkpoint
//! file survives too. Three failure modes matter in practice and each
//! has a counter-measure here:
//!
//! * **Torn writes** — the process dies mid-`write(2)`. Checkpoints are
//!   written to a `<path>.tmp` sibling, **fsynced**, and renamed into
//!   place ([`write_atomic`]): the rename is atomic on POSIX
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
//!   ([`bak_path`]), so [`crate::scanner::Scanner::recover`] can fall
//!   back to the last good generation.

use netsim::NodeId;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The CRC-32 (IEEE 802.3, reflected, `0xEDB88320`) of `bytes` — the
/// same polynomial as zip/gzip/PNG, so sealed checkpoints can be
/// cross-checked with standard tools.
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

/// The trailer prefix that marks the integrity line.
pub const CRC_PREFIX: &str = "# crc32: ";

/// Appends the CRC-32 trailer line to a checkpoint document. The CRC
/// covers every byte before the trailer, including the final newline of
/// the body.
pub fn seal(mut body: String) -> String {
    if !body.ends_with('\n') {
        body.push('\n');
    }
    let crc = crc32(body.as_bytes());
    body.push_str(&format!("{CRC_PREFIX}{crc:08x}\n"));
    body
}

/// Splits a sealed document into its body and verifies the trailer.
/// Returns the body on success; an error describing the corruption
/// (missing trailer, malformed hex, mismatched CRC) otherwise.
pub fn verify_sealed(text: &str) -> Result<&str, String> {
    let trimmed = text.trim_end_matches('\n');
    let trailer_start = trimmed
        .rfind('\n')
        .map(|i| i + 1)
        .ok_or("checkpoint has no CRC trailer (truncated?)")?;
    let trailer = &trimmed[trailer_start..];
    let hex = trailer
        .strip_prefix(CRC_PREFIX)
        .ok_or_else(|| format!("last line is not a CRC trailer: {trailer:?}"))?;
    let expected = u32::from_str_radix(hex.trim(), 16)
        .map_err(|e| format!("malformed CRC trailer {hex:?}: {e}"))?;
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

/// Appends the node-list header — line 2 of the matrix TSV, the scan
/// checkpoint and the merged document alike.
pub(crate) fn write_nodes_header(out: &mut String, nodes: &[NodeId]) {
    out.push_str("# nodes:");
    for n in nodes {
        let _ = write!(out, " {}", n.0);
    }
    out.push('\n');
}

/// Parses the line [`write_nodes_header`] writes. Strict: the prefix
/// must be there and every token must be a `u32`.
pub(crate) fn parse_nodes_header(line: &str) -> Result<Vec<NodeId>, String> {
    line.strip_prefix("# nodes:")
        .ok_or_else(|| format!("line 2 is not a '# nodes:' list: {line:?}"))?
        .split_whitespace()
        .map(|t| parse_node_id(t, 2))
        .collect()
}

/// Parses one node-id token of line `line`: a `u32`, nothing looser.
pub(crate) fn parse_node_id(token: &str, line: usize) -> Result<NodeId, String> {
    let bad = |_| format!("line {line}: invalid node id {token:?} (expected a u32)");
    token.parse().map(NodeId).map_err(bad)
}

/// Writes `contents` to `path` atomically and durably: the bytes go to
/// the [`tmp_path`] sibling, which is **fsynced before** the rename —
/// POSIX rename atomicity only orders the directory entry, not the file
/// data, so without the fsync a power loss right after the rename could
/// leave the new name pointing at zero-length or partially-written
/// data. After the rename the parent directory is fsynced too (best
/// effort — not every filesystem supports directory handles) so the
/// rename itself survives the crash.
pub fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = tmp_path(path);
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(contents.as_bytes())?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// The temp-file sibling used for atomic writes.
pub fn tmp_path(path: &Path) -> PathBuf {
    sibling(path, "tmp")
}

/// The last-good-generation backup sibling.
pub fn bak_path(path: &Path) -> PathBuf {
    sibling(path, "bak")
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_owned()).unwrap_or_default();
    name.push(".");
    name.push(suffix);
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn seal_then_verify_roundtrips() {
        let body = "# ting scan checkpoint v3\nm\t1\t2\t10\t0\t1\n";
        let sealed = seal(body.to_string());
        assert_eq!(verify_sealed(&sealed).unwrap(), body);
    }

    #[test]
    fn any_flipped_body_byte_fails_verification() {
        let body = "# ting scan checkpoint v3\nm\t1\t2\t10\t0\t1\n";
        let sealed = seal(body.to_string());
        // Every byte of the body is covered by the CRC; a flip anywhere
        // in it must be caught. (Flips inside the trailer itself either
        // fail hex parsing / mismatch the CRC, or — e.g. a hex-case
        // flip — leave the verified body byte-identical, which is
        // harmless by construction.)
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
