//! An ntor-style circuit-extension handshake (after tor-spec §5.1.4).
//!
//! Every hop of a simulated Tor circuit is established with a real DH
//! exchange: the client sends an ephemeral X25519 public key in its
//! CREATE2/EXTEND2 cell; the relay replies with its own ephemeral key and
//! an authentication tag. Both sides then derive identical [`HopKeys`] —
//! forward/backward ChaCha20 keys + nonces and digest seeds — via HKDF.
//!
//! Differences from production ntor are deliberate simplifications that
//! do not affect the measurement semantics: we use HKDF-SHA256 throughout
//! (Tor does too, post-ntor), a single protocol label, and ChaCha20 keys
//! instead of AES-CTR.

use crate::hkdf::hkdf;
use crate::hmac::hmac_sha256;
use crate::x25519::{x25519, KeyPair, PublicKey};

/// Domain-separation label for all handshake derivations.
const PROTOID: &[u8] = b"ting-repro-ntor-chacha20-sha256-1";

/// Per-hop symmetric key material shared by client and relay.
///
/// Forward = client→exit direction, backward = exit→client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopKeys {
    pub forward_key: [u8; 32],
    pub forward_nonce: [u8; 12],
    pub backward_key: [u8; 32],
    pub backward_nonce: [u8; 12],
    pub forward_digest_seed: [u8; 32],
    pub backward_digest_seed: [u8; 32],
}

impl HopKeys {
    /// Total bytes of key material needed from the KDF.
    const KDF_LEN: usize = 32 + 12 + 32 + 12 + 32 + 32;

    fn from_kdf(okm: &[u8]) -> HopKeys {
        assert_eq!(okm.len(), Self::KDF_LEN);
        let mut keys = HopKeys {
            forward_key: [0; 32],
            forward_nonce: [0; 12],
            backward_key: [0; 32],
            backward_nonce: [0; 12],
            forward_digest_seed: [0; 32],
            backward_digest_seed: [0; 32],
        };
        let mut off = 0;
        keys.forward_key.copy_from_slice(&okm[off..off + 32]);
        off += 32;
        keys.forward_nonce.copy_from_slice(&okm[off..off + 12]);
        off += 12;
        keys.backward_key.copy_from_slice(&okm[off..off + 32]);
        off += 32;
        keys.backward_nonce.copy_from_slice(&okm[off..off + 12]);
        off += 12;
        keys.forward_digest_seed
            .copy_from_slice(&okm[off..off + 32]);
        off += 32;
        keys.backward_digest_seed
            .copy_from_slice(&okm[off..off + 32]);
        keys
    }
}

/// The client's ephemeral state between sending the onion skin and
/// receiving the relay's reply.
#[derive(Debug, Clone)]
pub struct ClientHandshakeState {
    /// Client ephemeral keypair (x, X).
    pub(crate) ephemeral: KeyPair,
    /// Relay identity public key B the onion skin targets.
    pub(crate) relay_identity: PublicKey,
}

/// The onion-skin payload the client puts in CREATE2/EXTEND2: its
/// ephemeral public key X.
pub fn client_handshake_start(
    ephemeral: KeyPair,
    relay_identity: PublicKey,
) -> (ClientHandshakeState, PublicKey) {
    let x_pub = ephemeral.public;
    (
        ClientHandshakeState {
            ephemeral,
            relay_identity,
        },
        x_pub,
    )
}

/// The relay's reply: its ephemeral public key Y plus an auth tag.
#[derive(Debug, Clone, Copy)]
pub struct ServerReply {
    pub ephemeral_public: PublicKey,
    pub auth: [u8; 32],
}

/// Relay side: processes the client's X using the relay's identity
/// keypair `(b, B)` and a fresh ephemeral `(y, Y)`; returns the reply to
/// send and the derived hop keys.
pub fn server_handshake(
    identity: &KeyPair,
    ephemeral: KeyPair,
    client_public: &PublicKey,
) -> (ServerReply, HopKeys) {
    // secret_input = EXP(X, y) | EXP(X, b) | B | X | Y | PROTOID
    let xy = x25519(&ephemeral.secret, client_public);
    let xb = x25519(&identity.secret, client_public);
    let (keys, auth) = derive(&xy, &xb, &identity.public, client_public, &ephemeral.public);
    (
        ServerReply {
            ephemeral_public: ephemeral.public,
            auth,
        },
        keys,
    )
}

/// Client side: processes the relay's reply; returns the hop keys, or
/// `None` if the auth tag does not verify (wrong relay identity or a
/// corrupted reply).
pub fn client_handshake_finish(
    state: &ClientHandshakeState,
    reply: &ServerReply,
) -> Option<HopKeys> {
    // secret_input = EXP(Y, x) | EXP(B, x) | B | X | Y | PROTOID
    let xy = x25519(&state.ephemeral.secret, &reply.ephemeral_public);
    let xb = x25519(&state.ephemeral.secret, &state.relay_identity);
    let (keys, auth) = derive(
        &xy,
        &xb,
        &state.relay_identity,
        &state.ephemeral.public,
        &reply.ephemeral_public,
    );
    if auth == reply.auth {
        Some(keys)
    } else {
        None
    }
}

/// Shared derivation: both sides feed the same transcript into HKDF.
fn derive(
    xy: &[u8; 32],
    xb: &[u8; 32],
    relay_identity: &PublicKey,
    client_public: &PublicKey,
    server_public: &PublicKey,
) -> (HopKeys, [u8; 32]) {
    let mut secret_input = Vec::with_capacity(32 * 5 + PROTOID.len());
    secret_input.extend_from_slice(xy);
    secret_input.extend_from_slice(xb);
    secret_input.extend_from_slice(relay_identity);
    secret_input.extend_from_slice(client_public);
    secret_input.extend_from_slice(server_public);
    secret_input.extend_from_slice(PROTOID);

    let okm = hkdf(PROTOID, &secret_input, b"key-expansion", HopKeys::KDF_LEN);
    let keys = HopKeys::from_kdf(&okm);
    let auth = hmac_sha256(&okm[..32], b"server-auth");
    (keys, auth)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kp(seed: u8) -> KeyPair {
        KeyPair::from_secret([seed; 32])
    }

    #[test]
    fn both_sides_derive_identical_keys() {
        let identity = kp(1);
        let client_eph = kp(2);
        let server_eph = kp(3);

        let (state, x_pub) = client_handshake_start(client_eph, identity.public);
        let (reply, server_keys) = server_handshake(&identity, server_eph, &x_pub);
        let client_keys = client_handshake_finish(&state, &reply).expect("auth must verify");
        assert_eq!(client_keys, server_keys);
    }

    #[test]
    fn forward_and_backward_keys_differ() {
        let identity = kp(1);
        let (state, x_pub) = client_handshake_start(kp(2), identity.public);
        let (reply, _) = server_handshake(&identity, kp(3), &x_pub);
        let keys = client_handshake_finish(&state, &reply).unwrap();
        assert_ne!(keys.forward_key, keys.backward_key);
        assert_ne!(keys.forward_digest_seed, keys.backward_digest_seed);
    }

    #[test]
    fn wrong_identity_fails_auth() {
        let identity = kp(1);
        let wrong_identity = kp(9);
        // Client thinks it's talking to `wrong_identity`.
        let (state, x_pub) = client_handshake_start(kp(2), wrong_identity.public);
        let (reply, _) = server_handshake(&identity, kp(3), &x_pub);
        assert!(client_handshake_finish(&state, &reply).is_none());
    }

    #[test]
    fn tampered_reply_fails_auth() {
        let identity = kp(1);
        let (state, x_pub) = client_handshake_start(kp(2), identity.public);
        let (mut reply, _) = server_handshake(&identity, kp(3), &x_pub);
        reply.auth[0] ^= 0xff;
        assert!(client_handshake_finish(&state, &reply).is_none());
    }

    #[test]
    fn distinct_ephemerals_give_distinct_sessions() {
        let identity = kp(1);
        let (state_a, x_a) = client_handshake_start(kp(2), identity.public);
        let (state_b, x_b) = client_handshake_start(kp(4), identity.public);
        let (reply_a, _) = server_handshake(&identity, kp(3), &x_a);
        let (reply_b, _) = server_handshake(&identity, kp(5), &x_b);
        let ka = client_handshake_finish(&state_a, &reply_a).unwrap();
        let kb = client_handshake_finish(&state_b, &reply_b).unwrap();
        assert_ne!(ka, kb);
    }
}
