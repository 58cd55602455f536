//! Property-based tests for the crypto primitives.

use onion_crypto::{
    chacha20::ChaCha20, client_handshake_finish, client_handshake_start, server_handshake, sha256,
    x25519, x25519_base, KeyPair, Sha256,
};
use proptest::prelude::*;

/// The X25519 base point, u = 9.
const BASE_U: [u8; 32] = {
    let mut u = [0u8; 32];
    u[0] = 9;
    u
};

/// `x25519_base` walks a precomputed table, `x25519` a ladder; on the
/// base point they must return the same bytes. These fills put the
/// signed radix-16 digits at their extremes: all zero, −8 in every
/// place, carries rippling to the top digit.
#[test]
fn x25519_base_equals_ladder_on_fill_scalars() {
    for fill in [0x00u8, 0x08, 0x77, 0x80, 0x88, 0xff] {
        let k = [fill; 32];
        assert_eq!(x25519_base(&k), x25519(&k, &BASE_U), "fill {fill:#04x}");
    }
}

proptest! {
    #[test]
    fn sha256_streaming_equals_oneshot(data in prop::collection::vec(any::<u8>(), 0..512), split in 0usize..512) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn sha256_distinct_on_bitflip(data in prop::collection::vec(any::<u8>(), 1..128), idx in 0usize..128, bit in 0u8..8) {
        let idx = idx % data.len();
        let mut flipped = data.clone();
        flipped[idx] ^= 1 << bit;
        prop_assert_ne!(sha256(&data), sha256(&flipped));
    }

    #[test]
    fn chacha_roundtrip(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        counter in any::<u32>(),
        msg in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let mut buf = msg.clone();
        ChaCha20::new(&key, &nonce, counter).apply_keystream(&mut buf);
        ChaCha20::new(&key, &nonce, counter).apply_keystream(&mut buf);
        prop_assert_eq!(buf, msg);
    }

    #[test]
    fn chacha_chunking_invariance(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        chunks in prop::collection::vec(1usize..64, 1..8),
    ) {
        let total: usize = chunks.iter().sum();
        let mut expect = vec![0u8; total];
        ChaCha20::new(&key, &nonce, 0).apply_keystream(&mut expect);
        let mut split = ChaCha20::new(&key, &nonce, 0);
        let mut got = Vec::new();
        for c in chunks {
            let mut chunk = vec![0u8; c];
            split.apply_keystream(&mut chunk);
            got.extend(chunk);
        }
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn ntor_handshake_always_agrees(
        id_seed in any::<[u8; 32]>(),
        client_seed in any::<[u8; 32]>(),
        server_seed in any::<[u8; 32]>(),
    ) {
        let identity = KeyPair::from_secret(id_seed);
        let (state, x_pub) = client_handshake_start(KeyPair::from_secret(client_seed), identity.public);
        let (reply, server_keys) = server_handshake(&identity, KeyPair::from_secret(server_seed), &x_pub);
        let client_keys = client_handshake_finish(&state, &reply);
        prop_assert_eq!(client_keys, Some(server_keys));
    }

    #[test]
    fn x25519_dh_commutes(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        let ka = KeyPair::from_secret(a);
        let kb = KeyPair::from_secret(b);
        prop_assert_eq!(
            x25519(&ka.secret, &kb.public),
            x25519(&kb.secret, &ka.public)
        );
    }
}

proptest! {
    // 256 scalars × 64 digits visit every table entry under both signs.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn x25519_base_equals_ladder_on_base_point(k in any::<[u8; 32]>()) {
        prop_assert_eq!(x25519_base(&k), x25519(&k, &BASE_U));
    }
}
