//! Circuit-extension payloads: CREATE2/CREATED2 cell bodies and the
//! EXTEND2/EXTENDED2 relay-cell bodies that tunnel them one hop further.
//!
//! An EXTEND2 carries a link specifier (here, the target relay's node
//! id — the simulator's stand-in for an IP:port + identity digest) plus
//! the client's ntor onion skin; the receiving relay copies the onion
//! skin into a CREATE2 on a fresh link circuit and relays the CREATED2
//! reply back inside an EXTENDED2.

use bytes::{Buf, BufMut};

/// EXTEND2 relay-cell body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extend2 {
    /// The relay to extend to (simulator node id).
    pub target: u32,
    /// Client's ephemeral X25519 public key (the ntor onion skin).
    pub client_pk: [u8; 32],
}

impl Extend2 {
    pub(crate) const LEN: usize = 4 + 32;

    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(Self::LEN);
        buf.put_u32(self.target);
        buf.extend_from_slice(&self.client_pk);
        buf
    }

    pub fn decode(mut bytes: &[u8]) -> Option<Extend2> {
        if bytes.len() != Self::LEN {
            return None;
        }
        let target = bytes.get_u32();
        let mut client_pk = [0u8; 32];
        bytes.copy_to_slice(&mut client_pk);
        Some(Extend2 { target, client_pk })
    }
}

/// EXTENDED2 relay-cell body / CREATED2 cell body: the relay's ntor
/// reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extended2 {
    /// Relay's ephemeral X25519 public key.
    pub server_pk: [u8; 32],
    /// ntor authentication tag.
    pub auth: [u8; 32],
}

impl Extended2 {
    pub const LEN: usize = 32 + 32;

    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(Self::LEN);
        buf.extend_from_slice(&self.server_pk);
        buf.extend_from_slice(&self.auth);
        buf
    }

    pub fn decode(mut bytes: &[u8]) -> Option<Extended2> {
        if bytes.len() != Self::LEN {
            return None;
        }
        let mut server_pk = [0u8; 32];
        bytes.copy_to_slice(&mut server_pk);
        let mut auth = [0u8; 32];
        bytes.copy_to_slice(&mut auth);
        Some(Extended2 { server_pk, auth })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extend2_roundtrip() {
        let e = Extend2 {
            target: 1234,
            client_pk: [7u8; 32],
        };
        assert_eq!(Extend2::decode(&e.encode()), Some(e));
    }

    #[test]
    fn extended2_roundtrip() {
        let e = Extended2 {
            server_pk: [1u8; 32],
            auth: [2u8; 32],
        };
        assert_eq!(Extended2::decode(&e.encode()), Some(e));
    }

    #[test]
    fn wrong_lengths_rejected() {
        assert!(Extend2::decode(&[0u8; Extend2::LEN - 1]).is_none());
        assert!(Extend2::decode(&[0u8; Extend2::LEN + 1]).is_none());
        assert!(Extended2::decode(&[0u8; 10]).is_none());
    }

    #[test]
    fn extend2_fits_in_relay_cell() {
        const _: () = assert!(Extend2::LEN <= crate::relay::RELAY_DATA_LEN);
        const _: () = assert!(Extended2::LEN <= crate::relay::RELAY_DATA_LEN);
    }
}
