//! The Tor wire format, after tor-spec: fixed-size cells, relay-cell
//! sub-headers, circuit-extension handshake payloads, and the layered
//! ("onion") relay cryptography.
//!
//! Ting's whole premise is that it works at Tor's *data plane* with no
//! protocol modifications, so this crate reproduces the protocol surface
//! Ting touches faithfully:
//!
//! * 514-byte cells with a circuit id, command, and fixed payload
//!   ([`cell`]);
//! * relay cells carried inside encrypted payloads, with the
//!   `recognized` / running-digest mechanism that lets a hop detect
//!   cells addressed to it ([`relay`]);
//! * CREATE2/CREATED2/EXTEND2/EXTENDED2 handshake payloads carrying
//!   ntor-style key exchanges ([`extend`]);
//! * per-hop cipher/digest state and the layered encryption that makes
//!   each relay strip or add exactly one layer ([`onion`]).
//!
//! What is intentionally simplified relative to production Tor (and
//! documented here so nobody mistakes it for an oversight): link-level
//! TLS is represented by `netsim`'s connection handshake; cell commands
//! not exercised by Ting (VERSIONS, NETINFO, PADDING negotiation…) are
//! omitted; and the relay crypto uses ChaCha20 + SHA-256 rather than
//! AES-CTR + SHA-1 (same structure, current primitives).

// The workspace's one `unsafe` block is `onion-crypto`'s SHA-256 hardware
// kernel; nothing here may add a second.
#![forbid(unsafe_code)]

pub mod cell;
pub mod extend;
pub mod onion;
pub mod relay;

pub use cell::{Cell, CellCommand, CircuitId, CELL_LEN, PAYLOAD_LEN};
pub use extend::{Extend2, Extended2};
pub use onion::{ClientCrypto, RelayCrypto, RelayCryptoOutcome};
pub use relay::{RelayCell, RelayCmd, RELAY_DATA_LEN};
