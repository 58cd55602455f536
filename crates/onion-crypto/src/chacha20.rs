//! The ChaCha20 stream cipher (RFC 8439).
//!
//! Each circuit hop holds two independent ChaCha20 streams (forward and
//! backward). [`ChaCha20`] keeps a running keystream position so that
//! successive relay cells continue the stream exactly where the previous
//! cell left off — the property that makes onion layers peel correctly
//! only when every cell passes through in order.

/// "expand 32-byte k" — the ChaCha constant words.
const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

/// Bytes in one keystream block.
const BLOCK: usize = 64;

/// Blocks one refill computes. Chosen by measurement, not taste: at 16
/// rustc 1.95 turns [`quarter_round`]'s loop over the lanes into `paddd /
/// pxor / pslld / psrld` on baseline x86-64 (≈ 460 ns per 509-byte
/// cell); at 4 and at 8 the same source stays scalar (≈ 890 and
/// ≈ 980 ns, no better than the ≈ 940 ns of one block at a time), and
/// 32 buys nothing over 16 (≈ 490 ns) for twice the buffer. `--emit
/// asm` and `grep -c paddd` is the check after a toolchain bump.
const LANES: usize = 16;

/// Bytes one refill produces.
const BATCH: usize = BLOCK * LANES;

/// Incremental ChaCha20 keystream generator / stream cipher.
#[derive(Debug, Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
    /// Block counter of the next batch.
    counter: u32,
    /// Keystream of [`LANES`] consecutive blocks.
    batch: [u8; BATCH],
    /// Offset into `batch` of the next unused keystream byte
    /// ([`BATCH`] = empty).
    offset: usize,
}

impl ChaCha20 {
    /// Creates a cipher with the given 256-bit key and 96-bit nonce,
    /// starting at block counter `counter` (RFC 8439 uses 1 for
    /// encryption; 0 is conventional for pure keystream uses).
    pub fn new(key: &[u8; 32], nonce: &[u8; 12], counter: u32) -> ChaCha20 {
        let mut k = [0u32; 8];
        for i in 0..8 {
            k[i] = u32::from_le_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
        }
        let mut n = [0u32; 3];
        for i in 0..3 {
            n[i] = u32::from_le_bytes([
                nonce[4 * i],
                nonce[4 * i + 1],
                nonce[4 * i + 2],
                nonce[4 * i + 3],
            ]);
        }
        ChaCha20 {
            key: k,
            nonce: n,
            counter,
            batch: [0u8; BATCH],
            offset: BATCH,
        }
    }

    /// XORs the keystream into `data` in place (encrypt == decrypt).
    pub fn apply_keystream(&mut self, mut data: &mut [u8]) {
        while !data.is_empty() {
            if self.offset == BATCH {
                self.refill();
            }
            // The rest of this keystream batch, or of `data`, as one
            // slice XOR.
            let take = data.len().min(BATCH - self.offset);
            let (head, rest) = data.split_at_mut(take);
            let keystream = &self.batch[self.offset..self.offset + take];
            for (byte, k) in head.iter_mut().zip(keystream) {
                *byte ^= k;
            }
            self.offset += take;
            data = rest;
        }
    }

    fn refill(&mut self) {
        keystream_batch(&self.key, self.counter, &self.nonce, &mut self.batch);
        self.counter = self.counter.wrapping_add(LANES as u32);
        self.offset = 0;
    }
}

/// One word of the state in each of [`LANES`] consecutive blocks.
type Row = [u32; LANES];

/// The ChaCha quarter round on every lane: one loop, one lane a turn,
/// which is the shape the loop vectoriser takes four lanes at a time.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // `l` picks a lane in four rows, not an item of `x`
fn quarter_round(x: &mut [Row; 16], a: usize, b: usize, c: usize, d: usize) {
    for l in 0..LANES {
        let (mut xa, mut xb, mut xc, mut xd) = (x[a][l], x[b][l], x[c][l], x[d][l]);
        xa = xa.wrapping_add(xb);
        xd = (xd ^ xa).rotate_left(16);
        xc = xc.wrapping_add(xd);
        xb = (xb ^ xc).rotate_left(12);
        xa = xa.wrapping_add(xb);
        xd = (xd ^ xa).rotate_left(8);
        xc = xc.wrapping_add(xd);
        xb = (xb ^ xc).rotate_left(7);
        (x[a][l], x[b][l], x[c][l], x[d][l]) = (xa, xb, xc, xd);
    }
}

/// The ChaCha20 block function (20 rounds over the 16-word state, the
/// feed-forward addition, little-endian serialisation) for the
/// [`LANES`] blocks `counter`, `counter + 1`, … at once, lane = block.
/// The block counter wraps, as the one-block form's did.
fn keystream_batch(key: &[u32; 8], counter: u32, nonce: &[u32; 3], out: &mut [u8; BATCH]) {
    let mut initial: [Row; 16] = [[0; LANES]; 16];
    for (row, word) in initial.iter_mut().zip(SIGMA.iter().chain(key)) {
        *row = [*word; LANES];
    }
    for (lane, c) in initial[12].iter_mut().enumerate() {
        *c = counter.wrapping_add(lane as u32);
    }
    for (row, word) in initial[13..].iter_mut().zip(nonce) {
        *row = [*word; LANES];
    }

    let mut x = initial;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut x, 0, 4, 8, 12);
        quarter_round(&mut x, 1, 5, 9, 13);
        quarter_round(&mut x, 2, 6, 10, 14);
        quarter_round(&mut x, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut x, 0, 5, 10, 15);
        quarter_round(&mut x, 1, 6, 11, 12);
        quarter_round(&mut x, 2, 7, 8, 13);
        quarter_round(&mut x, 3, 4, 9, 14);
    }

    for (word, (row, first)) in x.iter_mut().zip(&initial).enumerate() {
        for l in 0..LANES {
            row[l] = row[l].wrapping_add(first[l]);
        }
        for (lane, value) in row.iter().enumerate() {
            let at = lane * BLOCK + 4 * word;
            out[at..at + 4].copy_from_slice(&value.to_le_bytes());
        }
    }
}

/// The one-block-at-a-time block function [`keystream_batch`] replaced,
/// kept as the oracle it is tested against.
#[cfg(test)]
mod reference {
    use super::SIGMA;

    /// The ChaCha quarter round.
    pub fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        state[a] = state[a].wrapping_add(state[b]);
        state[d] ^= state[a];
        state[d] = state[d].rotate_left(16);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] ^= state[c];
        state[b] = state[b].rotate_left(12);
        state[a] = state[a].wrapping_add(state[b]);
        state[d] ^= state[a];
        state[d] = state[d].rotate_left(8);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] ^= state[c];
        state[b] = state[b].rotate_left(7);
    }

    /// The ChaCha20 block function: 20 rounds over the 16-word state,
    /// plus the feed-forward addition, serialized little-endian.
    pub fn chacha20_block(key: &[u32; 8], counter: u32, nonce: &[u32; 3]) -> [u8; 64] {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(key);
        state[12] = counter;
        state[13..16].copy_from_slice(nonce);
        let initial = state;

        for _ in 0..10 {
            // Column rounds.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }

        let mut out = [0u8; 64];
        for i in 0..16 {
            let word = state[i].wrapping_add(initial[i]);
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::hex;

    /// `len` raw keystream bytes.
    trait Keystream {
        fn keystream(&mut self, len: usize) -> Vec<u8>;
    }

    impl Keystream for ChaCha20 {
        fn keystream(&mut self, len: usize) -> Vec<u8> {
            let mut out = vec![0u8; len];
            self.apply_keystream(&mut out);
            out
        }
    }

    #[test]
    fn rfc8439_quarter_round_vector() {
        // RFC 8439 §2.1.1.
        let mut s = [0u32; 16];
        s[0] = 0x11111111;
        s[1] = 0x01020304;
        s[2] = 0x9b8d6f43;
        s[3] = 0x01234567;
        reference::quarter_round(&mut s, 0, 1, 2, 3);
        assert_eq!(s[0], 0xea2a92f4);
        assert_eq!(s[1], 0xcb1cf8ce);
        assert_eq!(s[2], 0x4581472e);
        assert_eq!(s[3], 0x5881c4bb);
    }

    fn rfc_key() -> [u8; 32] {
        let mut k = [0u8; 32];
        for (i, b) in k.iter_mut().enumerate() {
            *b = i as u8;
        }
        k
    }

    #[test]
    fn rfc8439_block_function_vector() {
        // RFC 8439 §2.3.2: key 00..1f, nonce 000000090000004a00000000,
        // counter 1.
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut c = ChaCha20::new(&rfc_key(), &nonce, 1);
        let ks = c.keystream(64);
        assert_eq!(
            hex(&ks),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    #[test]
    fn rfc8439_encryption_vector() {
        // RFC 8439 §2.4.2: the "sunscreen" plaintext, counter starts at 1.
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let mut buf = plaintext.to_vec();
        let mut c = ChaCha20::new(&rfc_key(), &nonce, 1);
        c.apply_keystream(&mut buf);
        assert_eq!(
            hex(&buf[..32]),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
        );
        // Decrypting restores the plaintext.
        let mut d = ChaCha20::new(&rfc_key(), &nonce, 1);
        d.apply_keystream(&mut buf);
        assert_eq!(&buf[..], &plaintext[..]);
    }

    #[test]
    fn keystream_continues_across_calls() {
        let key = rfc_key();
        let nonce = [7u8; 12];
        let mut whole = ChaCha20::new(&key, &nonce, 0);
        let expect = whole.keystream(200);

        let mut split = ChaCha20::new(&key, &nonce, 0);
        let mut got = split.keystream(13);
        got.extend(split.keystream(51));
        got.extend(split.keystream(136));
        assert_eq!(got, expect);
    }

    #[test]
    fn batch_equals_the_reference_block_by_block() {
        let key = ChaCha20::new(&rfc_key(), &[0x4a; 12], 0).key;
        let nonce = [0x0900_0000, 0x4a00_0000, 7];
        // The last 21 starting counters put the wrap at every lane but
        // the first five of one batch.
        for counter in std::iter::once(0).chain(u32::MAX - 20..=u32::MAX) {
            let mut batch = [0u8; BATCH];
            keystream_batch(&key, counter, &nonce, &mut batch);
            for (lane, block) in batch.chunks_exact(BLOCK).enumerate() {
                let at = counter.wrapping_add(lane as u32);
                assert_eq!(
                    block,
                    reference::chacha20_block(&key, at, &nonce),
                    "batch at counter {counter:#x}, lane {lane}"
                );
            }
        }
    }

    /// The byte-at-a-time, block-at-a-time cipher
    /// [`ChaCha20::apply_keystream`] replaced, kept as the oracle the
    /// slice form over a batch is tested against. Returns the stream
    /// position it stopped at.
    fn apply_keystream_reference(cipher: &ChaCha20, start: usize, data: &mut [u8]) -> usize {
        for (i, byte) in data.iter_mut().enumerate() {
            let at = start + i;
            let counter = cipher.counter.wrapping_add((at / BLOCK) as u32);
            *byte ^= reference::chacha20_block(&cipher.key, counter, &cipher.nonce)[at % BLOCK];
        }
        start + data.len()
    }

    #[test]
    fn any_chunking_equals_the_one_shot_and_the_bytewise_reference() {
        let key = rfc_key();
        let nonce = [9u8; 12];
        // Four batches, so every chunk size below straddles a refill.
        let message = ChaCha20::new(&[3u8; 32], &nonce, 0).keystream(4 * BATCH);
        let fresh = ChaCha20::new(&key, &nonce, 0);
        let mut reference = message.clone();
        let end = apply_keystream_reference(&fresh, 0, &mut reference);
        let mut next = vec![0u8; 70];
        apply_keystream_reference(&fresh, end, &mut next);
        let mut one_shot = message.clone();
        fresh.clone().apply_keystream(&mut one_shot);
        assert_eq!(one_shot, reference);

        // A seeded random split: each cut a keystream byte, so chunks
        // of 0..=255 bytes start at every offset within a block.
        let cuts = ChaCha20::new(&[5u8; 32], &nonce, 0).keystream(64);
        let random: Vec<usize> = cuts.iter().map(|&c| c as usize).collect();
        let fixed = [1, 63, 64, 65, 509, 1023, 1024, 1025].map(|n| vec![n]);
        for sizes in fixed.iter().chain([&random]) {
            let mut chunked = message.clone();
            let mut cipher = fresh.clone();
            let (mut rest, mut cuts) = (&mut chunked[..], sizes.iter().cycle());
            while !rest.is_empty() {
                let take = rest.len().min(*cuts.next().unwrap());
                let (head, tail) = rest.split_at_mut(take);
                cipher.apply_keystream(head);
                rest = tail;
            }
            assert_eq!(chunked, reference, "chunk sizes {sizes:?}");
            assert_eq!(cipher.keystream(70), next, "same stream position");
        }
    }

    #[test]
    fn a_clone_taken_mid_batch_continues_the_same_stream() {
        let mut cipher = ChaCha20::new(&rfc_key(), &[2u8; 12], 0);
        let expect = cipher.clone().keystream(3 * BATCH);
        // Inside the first block, on a block edge, one byte before the
        // batch runs out, and on the refill itself.
        for cut in [13, 64, BATCH - 1, BATCH, BATCH + 509] {
            let mut original = cipher.clone();
            let head = original.keystream(cut);
            let mut copy = original.clone();
            let rest = 3 * BATCH - cut;
            assert_eq!(head, expect[..cut]);
            assert_eq!(copy.keystream(rest), expect[cut..], "clone at {cut}");
            assert_eq!(original.keystream(rest), expect[cut..], "original at {cut}");
        }
        // The clones above left `cipher` itself where it started.
        assert_eq!(cipher.keystream(70), expect[..70]);
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let key = [0x42u8; 32];
        let nonce = [0x24u8; 12];
        let msg = b"attack at dawn over the tor circuit".to_vec();
        let mut buf = msg.clone();
        ChaCha20::new(&key, &nonce, 0).apply_keystream(&mut buf);
        assert_ne!(buf, msg);
        ChaCha20::new(&key, &nonce, 0).apply_keystream(&mut buf);
        assert_eq!(buf, msg);
    }

    #[test]
    fn distinct_nonces_distinct_streams() {
        let key = [1u8; 32];
        let a = ChaCha20::new(&key, &[0u8; 12], 0).keystream(32);
        let b = ChaCha20::new(&key, &[1u8; 12], 0).keystream(32);
        assert_ne!(a, b);
    }

    #[test]
    fn counter_wraps_without_panic() {
        let mut c = ChaCha20::new(&[0u8; 32], &[0u8; 12], u32::MAX);
        let _ = c.keystream(130); // crosses the wrap point
    }
}
