//! HKDF extract-and-expand (RFC 5869) over HMAC-SHA256.
//!
//! The ntor-style handshake derives all per-hop circuit key material —
//! forward/backward cipher keys, nonces, and digest seeds — from the
//! Diffie–Hellman shared secret through HKDF, mirroring Tor's use of
//! HKDF-SHA256 in its ntor handshake (tor-spec §5.2.2).

use crate::hmac::hmac_sha256;

/// HKDF-Extract: `PRK = HMAC(salt, ikm)`.
pub(crate) fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> [u8; 32] {
    hmac_sha256(salt, ikm)
}

/// HKDF-Expand: stretches `prk` to `len` bytes of output keyed by `info`.
///
/// # Panics
/// Panics if `len > 255 * 32` (RFC limit).
pub(crate) fn hkdf_expand(prk: &[u8; 32], info: &[u8], len: usize) -> Vec<u8> {
    assert!(len <= 255 * 32, "HKDF output too long");
    let mut okm = Vec::with_capacity(len);
    let mut t: Vec<u8> = Vec::new();
    // T(1) ‖ T(2) ‖ …: at most 255 blocks by the assertion above, so the
    // one-byte block index cannot overflow.
    for counter in 1..=len.div_ceil(32) {
        let mut msg = Vec::with_capacity(t.len() + info.len() + 1);
        msg.extend_from_slice(&t);
        msg.extend_from_slice(info);
        msg.push(counter as u8);
        let block = hmac_sha256(prk, &msg);
        let take = (len - okm.len()).min(32);
        okm.extend_from_slice(&block[..take]);
        t = block.to_vec();
    }
    okm
}

/// Full extract-then-expand.
pub(crate) fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    let prk = hkdf_extract(salt, ikm);
    hkdf_expand(&prk, info, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::hex;

    #[test]
    fn rfc5869_case_1() {
        let ikm = [0x0bu8; 22];
        let salt: Vec<u8> = (0x00u8..=0x0c).collect();
        let info: Vec<u8> = (0xf0u8..=0xf9).collect();
        let prk = hkdf_extract(&salt, &ikm);
        assert_eq!(
            hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let okm = hkdf_expand(&prk, &info, 42);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    #[test]
    fn rfc5869_case_3_empty_salt_and_info() {
        let ikm = [0x0bu8; 22];
        let okm = hkdf(&[], &ikm, &[], 42);
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn expand_lengths_are_prefixes() {
        let prk = hkdf_extract(b"salt", b"ikm");
        let long = hkdf_expand(&prk, b"info", 100);
        for len in [1usize, 31, 32, 33, 64, 99] {
            assert_eq!(hkdf_expand(&prk, b"info", len), long[..len].to_vec());
        }
    }

    #[test]
    fn different_info_different_output() {
        let prk = hkdf_extract(b"s", b"k");
        assert_ne!(hkdf_expand(&prk, b"a", 32), hkdf_expand(&prk, b"b", 32));
    }

    #[test]
    fn zero_length_output() {
        let prk = hkdf_extract(b"s", b"k");
        assert!(hkdf_expand(&prk, b"i", 0).is_empty());
    }

    #[test]
    fn the_rfc_limit_itself_is_admitted() {
        // 255 blocks is the contract; the block counter used to be
        // incremented once more after the last of them and overflow.
        let prk = hkdf_extract(b"s", b"k");
        let short = hkdf_expand(&prk, b"x", 254 * 32);
        for len in [254 * 32 + 1, 255 * 32] {
            let long = hkdf_expand(&prk, b"x", len);
            assert_eq!(long.len(), len);
            assert_eq!(long[..short.len()], short[..]);
        }
    }

    #[test]
    #[should_panic(expected = "HKDF output too long")]
    fn over_limit_rejected() {
        let prk = [0u8; 32];
        let _ = hkdf_expand(&prk, b"", 255 * 32 + 1);
    }

    proptest::proptest! {
        #[test]
        fn hkdf_output_lengths(
            salt in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..32),
            ikm in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..64),
            len in 0usize..512,
        ) {
            let okm = hkdf(&salt, &ikm, b"test", len);
            proptest::prop_assert_eq!(okm.len(), len);
        }
    }
}
