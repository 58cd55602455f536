//! HMAC-SHA256 (RFC 2104), validated against RFC 4231 test vectors.

use crate::sha256::{sha256, Sha256};

const BLOCK: usize = 64;

/// Computes `HMAC-SHA256(key, message)`.
pub(crate) fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    // Keys longer than one block are hashed down first.
    let mut k = [0u8; BLOCK];
    if key.len() > BLOCK {
        k[..32].copy_from_slice(&sha256(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }

    let mut ipad = [0x36u8; BLOCK];
    let mut opad = [0x5cu8; BLOCK];
    for i in 0..BLOCK {
        ipad[i] ^= k[i];
        opad[i] ^= k[i];
    }

    let mut inner = Sha256::new();
    inner.update(&ipad);
    inner.update(message);
    let inner_digest = inner.finalize();

    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::hex;

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let out = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&out),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let out = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&out),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let msg = [0xddu8; 50];
        let out = hmac_sha256(&key, &msg);
        assert_eq!(
            hex(&out),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn long_key_is_hashed_down() {
        // RFC 4231 case 6: 131-byte key of 0xaa.
        let key = [0xaau8; 131];
        let out = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&out),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn different_keys_give_different_macs() {
        let m = b"same message";
        assert_ne!(hmac_sha256(b"k1", m), hmac_sha256(b"k2", m));
    }

    #[test]
    fn empty_key_and_message_work() {
        let a = hmac_sha256(b"", b"");
        let b = hmac_sha256(b"", b"x");
        assert_ne!(a, b);
    }

    proptest::proptest! {
        #[test]
        fn hmac_is_deterministic_and_key_sensitive(
            key in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..100),
            msg in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..100),
        ) {
            let a = hmac_sha256(&key, &msg);
            let b = hmac_sha256(&key, &msg);
            proptest::prop_assert_eq!(a, b);
            let mut key2 = key.clone();
            key2.push(0x01);
            proptest::prop_assert_ne!(a, hmac_sha256(&key2, &msg));
        }
    }
}
