//! From-scratch cryptographic primitives for the simulated Tor overlay.
//!
//! The offline crate set contains no cryptography, so this crate
//! implements everything the Tor substrate needs:
//!
//! * [`mod@sha256`] — streaming SHA-256 (FIPS 180-4),
//! * [`mod@hmac`] — HMAC-SHA256 (RFC 2104 / 4231),
//! * [`mod@hkdf`] — HKDF extract-and-expand (RFC 5869),
//! * [`chacha20`] — the ChaCha20 stream cipher (RFC 8439),
//! * [`mod@x25519`] — X25519 Diffie–Hellman over Curve25519 (RFC 7748),
//! * [`ntor`] — an ntor-style circuit-extension handshake combining the
//!   above, producing the per-hop key material used by `tor-protocol`'s
//!   layered relay crypto.
//!
//! Why real crypto in a simulator? Two reasons. First, Ting's forwarding-
//! delay story (§3.2, §4.3 of the paper) hinges on the fact that a relay's
//! per-cell work is dominated by symmetric cryptography — cells here are
//! genuinely onion-encrypted and decrypted so that cost and correctness
//! are real, and the per-layer table of `benchmark/` (`-- trace`) times
//! each primitive here. Second, circuit construction (CREATE2/EXTEND2)
//! only behaves like Tor if key derivation actually happens per hop.
//!
//! All three kernels a scan spends its time in are written for speed
//! behind the plain signatures: [`mod@x25519`] (most of a handshake),
//! the [`chacha20`] keystream (sixteen blocks a refill, in a form the
//! compiler vectorises) and the [`mod@sha256`] compression function
//! (the x86 SHA extensions where the CPU reports them, the FIPS 180-4
//! text everywhere else — chosen by detection, never by a setting). Each
//! keeps the code it replaced as its `#[cfg(test)]` reference. None of
//! it is hardened against side channels — `x25519_base` indexes its
//! table by digits of the secret scalar — because this crate supports a
//! measurement reproduction, not production key handling.

// One `unsafe` block in the workspace: the call into the SHA-256
// hardware kernel, in `sha256::hardware`, which carries the only
// `#[allow]`. Every other crate forbids the lint outright.
#![deny(unsafe_code)]

pub mod chacha20;
pub mod hkdf;
pub mod hmac;
pub mod ntor;
pub mod sha256;
pub mod x25519;

pub use chacha20::ChaCha20;
pub use ntor::{
    client_handshake_finish, client_handshake_start, server_handshake, ClientHandshakeState,
    HopKeys, ServerReply,
};
pub use sha256::{sha256, Sha256};
pub use x25519::{x25519, x25519_base, KeyPair, PublicKey, SecretKey};
