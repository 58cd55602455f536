//! Streaming SHA-256 (FIPS 180-4).
//!
//! Used directly for relay-cell running digests (Tor uses a running hash
//! of every relay cell on a circuit to "recognize" cells addressed to a
//! hop), and as the compression function underneath HMAC and HKDF.

/// Round constants: the first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// `Clone` is intentional and cheap: the relay-crypto running digest
/// clones the state to compute a digest snapshot per cell without
/// disturbing the stream.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (used in the length suffix).
    len: u64,
    /// Partial block awaiting compression.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Sha256 {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        // Top up a partial block first.
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Every whole block straight from input, in one call.
        let (blocks, tail) = rest.split_at(rest.len() - rest.len() % 64);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        // Stash the remainder.
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes and returns the 32-byte digest. Consumes the hasher; use
    /// `clone()` first to take a snapshot of a running digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Padding, in place: 0x80, zeros, 8-byte big-endian bit length —
        // in this block if 8 bytes are left after the 0x80, else in one
        // more.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf = [0u8; 64];
        }
        let bit_len = self.len.wrapping_mul(8);
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Folds `blocks` — any whole number of 64-byte blocks — into `state`.
///
/// The one dispatch point: the SHA extensions where this CPU reports
/// them, [`compress_portable`] everywhere else. Which one runs is read
/// off the CPU, never set; both produce the same state, and
/// `tests::the_dispatching_compress_equals_the_portable_one` holds them
/// to it.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    if !hardware::compress(state, blocks) {
        compress_portable(state, blocks);
    }
}

/// FIPS 180-4 §6.2.2 as written: the only path on a CPU without the SHA
/// extensions, and the reference the hardware path is tested against.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[4 * i],
                block[4 * i + 1],
                block[4 * i + 2],
                block[4 * i + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// The compression function on the x86 SHA extensions (`sha256rnds2`,
/// `sha256msg1`, `sha256msg2`): ≈ 6× the portable form per block. The
/// workspace's only `unsafe`, and both halves of its soundness argument
/// — the detection and the call — are in this module.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod hardware {
    use super::K;
    use std::arch::x86_64::*;

    /// Folds `blocks` into `state` and returns `true` if this CPU has
    /// the SHA extensions; touches nothing and returns `false` if not.
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        let detected = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        if detected {
            // SAFETY: the three features `compress_sha_ni` is compiled
            // for were detected on the running CPU on the line above
            // (`sse2` is part of the x86-64 baseline).
            unsafe { compress_sha_ni(state, blocks) };
        }
        detected
    }

    /// Message words `4g .. 4g + 4` of the schedule, `g ≥ 4`, from the
    /// four groups before them.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(w: &[__m128i; 4], g: usize) -> __m128i {
        let (w4, w3, w2, w1) = (w[g % 4], w[(g + 1) % 4], w[(g + 2) % 4], w[(g + 3) % 4]);
        let sum = _mm_add_epi32(_mm_sha256msg1_epu32(w4, w3), _mm_alignr_epi8(w1, w2, 4));
        _mm_sha256msg2_epu32(sum, w1)
    }

    /// # Safety
    /// The running CPU must support the `sha`, `ssse3` and `sse4.1`
    /// extensions. Memory is reached only through `state` and in-bounds
    /// 16-byte pieces of `blocks`; a trailing partial block is ignored.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress_sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
        // Big-endian words from little-endian loads.
        let swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // The instructions want the state as (a b e f) and (c d g h),
        // high lane first.
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w = [_mm_setzero_si128(); 4];
            // Sixteen groups of four rounds.
            for g in 0..16 {
                w[g % 4] = if g < 4 {
                    _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16 * g).cast()), swap)
                } else {
                    schedule(&w, g)
                };
                let k = _mm_loadu_si128(K.as_ptr().add(4 * g).cast());
                let wk = _mm_add_epi32(w[g % 4], k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgfe);
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod hardware {
    /// No hardware kernel on this architecture: nothing done, `false`.
    pub(super) fn compress(_state: &mut [u32; 8], _blocks: &[u8]) -> bool {
        false
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
pub(crate) fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        // FIPS 180-4 long test: 1,000,000 repetitions of 'a'.
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// A digest over `compress` alone: pads a copy of the message a
    /// byte at a time and compresses it in one call, so it shares
    /// neither `update`'s buffering nor `finalize`'s in-place padding
    /// with the hasher it is compared against.
    fn digest_over(compress: impl Fn(&mut [u32; 8], &[u8]), data: &[u8]) -> [u8; 32] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        compress(&mut state, &padded);
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// The hardware kernel as a plain compress function, or `None` —
    /// after saying so — on a CPU without the SHA extensions.
    fn hardware_or_skip(test: &str) -> Option<impl Fn(&mut [u32; 8], &[u8])> {
        if !hardware::compress(&mut H0.clone(), &[]) {
            eprintln!("{test}: skipped, this CPU has no SHA extensions");
            return None;
        }
        Some(|state: &mut [u32; 8], blocks: &[u8]| assert!(hardware::compress(state, blocks)))
    }

    /// FIPS 180-4 / NIST example messages and their digests.
    fn fips_vectors() -> [(Vec<u8>, &'static str); 4] {
        [
            (
                Vec::new(),
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc".to_vec(),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".to_vec(),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                vec![b'a'; 1_000_000],
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ]
    }

    #[test]
    fn the_portable_path_passes_the_fips_vectors() {
        for (message, want) in fips_vectors() {
            let got = digest_over(compress_portable, &message);
            assert_eq!(hex(&got), want, "{} bytes", message.len());
        }
    }

    #[test]
    fn the_hardware_path_passes_the_fips_vectors() {
        let Some(compress) = hardware_or_skip("the_hardware_path_passes_the_fips_vectors") else {
            return;
        };
        for (message, want) in fips_vectors() {
            let got = digest_over(&compress, &message);
            assert_eq!(hex(&got), want, "{} bytes", message.len());
        }
    }

    #[test]
    fn the_hardware_path_equals_the_portable_one_on_a_thousand_chained_blocks() {
        let name = "the_hardware_path_equals_the_portable_one_on_a_thousand_chained_blocks";
        let Some(compress) = hardware_or_skip(name) else {
            return;
        };
        // Each block is the two states before it, so a wrong word
        // anywhere feeds every block after.
        let (mut fast, mut slow) = (H0, H0);
        for n in 0..1000 {
            let mut block = [0u8; 64];
            for (bytes, word) in block.chunks_exact_mut(4).zip(fast.iter().chain(&slow)) {
                bytes.copy_from_slice(&(word ^ n).to_le_bytes());
            }
            compress(&mut fast, &block);
            compress_portable(&mut slow, &block);
            assert_eq!(fast, slow, "after block {n}");
        }
    }

    #[test]
    fn the_dispatching_compress_equals_the_portable_one() {
        let two_way = |data: &[u8], split: usize| {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            h.finalize()
        };
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 + i / 64) as u8).collect();
        for len in 0..=data.len() {
            let message = &data[..len];
            let want = digest_over(compress_portable, message);
            for split in 0..=len {
                assert_eq!(
                    two_way(message, split),
                    want,
                    "{len} bytes, split at {split}"
                );
            }
        }
        // Long enough that one `update` hands thousands of blocks to
        // one `compress` call; the splits fall on, beside and far from
        // block edges.
        let long: Vec<u8> = (0..(1u32 << 20) + 3)
            .map(|i| (i ^ (i >> 9)) as u8)
            .collect();
        let want = digest_over(compress_portable, &long);
        let n = long.len();
        for split in [0, 1, 63, 64, 65, n / 2, n - 67, n - 64, n - 3, n - 1, n] {
            assert_eq!(two_way(&long, split), want, "split at {split}");
        }
    }

    #[test]
    fn finalize_pads_in_one_block_or_in_two() {
        // `hashlib.sha256(b"\xa5" * n)`: a buffer fill of 0 and 55 pads
        // within the block, 56 and 63 need a second one; 119 and 120
        // are the same edge one block on.
        let known = [
            (
                0,
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                55,
                "26ee0116778740a66fe2ba10ea063748b27306acc99188ec812746d4e8d70083",
            ),
            (
                56,
                "4cf71e2b0aa0fcc0c271f68353026a77b8e50153632a8e4a73833cd64080e92e",
            ),
            (
                63,
                "a1942663a5b8b93dffc9c4ff5f62c71a1c021d1fcc1e470dd46172abace1bca5",
            ),
            (
                64,
                "bb626e5577021df95ea17eb6339e75904855b80087e40660931c4a89b302f74a",
            ),
            (
                119,
                "d4f197a1127980fe239c189bab09428d00de243c790ea7cad66f03928d992c89",
            ),
            (
                120,
                "2065fa2ca0929999a6887714ef1af9d994cd93ab5ea165d4b426d7dc34f1e226",
            ),
        ];
        for (len, want) in known {
            assert_eq!(hex(&sha256(&vec![0xa5u8; len])), want, "{len} bytes");
        }
    }

    #[test]
    fn a_clone_taken_mid_block_snapshots_and_continues() {
        let data: Vec<u8> = (0..=255u8).cycle().take(300).collect();
        let mut h = Sha256::new();
        h.update(&data[..100]); // one block compressed, 36 bytes buffered
        let mut copy = h.clone();
        assert_eq!(h.clone().finalize(), sha256(&data[..100]));
        h.update(&data[100..]);
        assert_eq!(h.finalize(), sha256(&data));
        // The clone carried the buffered bytes and the length with it.
        copy.update(&data[100..]);
        assert_eq!(copy.finalize(), sha256(&data));
    }

    #[test]
    fn streaming_matches_oneshot_for_all_split_points() {
        let data: Vec<u8> = (0u8..=255).cycle().take(300).collect();
        let want = sha256(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn clone_snapshots_running_state() {
        let mut h = Sha256::new();
        h.update(b"hello ");
        let snap = h.clone().finalize();
        h.update(b"world");
        let full = h.finalize();
        assert_eq!(snap, sha256(b"hello "));
        assert_eq!(full, sha256(b"hello world"));
        assert_ne!(snap, full);
    }

    #[test]
    fn boundary_lengths_pad_correctly() {
        // Lengths around the 55/56/64-byte padding boundaries must not
        // panic and must be distinct.
        let mut digests = Vec::new();
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 127, 128] {
            let data = vec![0xa5u8; len];
            digests.push(sha256(&data));
        }
        for i in 0..digests.len() {
            for j in i + 1..digests.len() {
                assert_ne!(digests[i], digests[j]);
            }
        }
    }
}
