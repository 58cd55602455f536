//! Fixed-size link cells.
//!
//! Every unit on a Tor link is a cell: a 4-byte circuit id, a 1-byte
//! command, and a fixed 509-byte payload (link protocol ≥ 4). Fixed size
//! is load-bearing for anonymity (cells are indistinguishable on the
//! wire) and for Ting (every echo probe costs exactly one cell each way).

use bytes::Buf;
use std::borrow::Cow;

/// Payload bytes in every cell.
pub const PAYLOAD_LEN: usize = 509;
/// Total encoded size: circ_id (4) + command (1) + payload.
pub const CELL_LEN: usize = 4 + 1 + PAYLOAD_LEN;

/// Identifies a circuit on one link (hop-local, not end-to-end).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CircuitId(pub u32);

/// Cell commands (the subset Ting's circuits exercise).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CellCommand {
    /// Circuit creation request carrying an ntor onion skin.
    Create2 = 10,
    /// Circuit creation reply.
    Created2 = 11,
    /// An onion-encrypted relay cell.
    Relay = 3,
    /// Circuit teardown.
    Destroy = 4,
}

impl CellCommand {
    pub fn from_u8(v: u8) -> Option<CellCommand> {
        match v {
            10 => Some(CellCommand::Create2),
            11 => Some(CellCommand::Created2),
            3 => Some(CellCommand::Relay),
            4 => Some(CellCommand::Destroy),
            _ => None,
        }
    }
}

/// One link cell.
///
/// A cell owns one buffer from wire to wire: [`Cell::decode`] of an
/// owned `Vec` keeps that allocation as the payload, the onion layers
/// in [`crate::onion`] strip or add theirs in place, and
/// [`Cell::encode`] writes the header back into the same allocation —
/// a relay forwards a cell without allocating or copying it whole.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    pub circ_id: CircuitId,
    pub command: CellCommand,
    /// Always exactly [`PAYLOAD_LEN`] bytes.
    pub payload: Vec<u8>,
}

impl Cell {
    /// Builds a cell, zero-padding (or rejecting an over-long) payload,
    /// with room for the header [`Cell::encode`] puts in front of it.
    ///
    /// # Panics
    /// Panics if `payload` exceeds [`PAYLOAD_LEN`].
    pub fn new(circ_id: CircuitId, command: CellCommand, mut payload: Vec<u8>) -> Cell {
        assert!(
            payload.len() <= PAYLOAD_LEN,
            "cell payload too long: {}",
            payload.len()
        );
        payload.reserve_exact(CELL_LEN - payload.len());
        payload.resize(PAYLOAD_LEN, 0);
        Cell {
            circ_id,
            command,
            payload,
        }
    }

    /// Serializes to exactly [`CELL_LEN`] bytes, in the payload's own
    /// allocation.
    pub fn encode(self) -> Vec<u8> {
        let mut header = [0u8; CELL_LEN - PAYLOAD_LEN];
        header[..4].copy_from_slice(&self.circ_id.0.to_be_bytes());
        header[4] = self.command as u8;
        let mut buf = self.payload;
        buf.splice(..0, header);
        debug_assert_eq!(buf.len(), CELL_LEN);
        buf
    }

    /// Parses a cell. Returns `None` on wrong length or unknown command
    /// (a well-behaved relay drops garbage rather than panicking). An
    /// owned buffer becomes the payload; a borrowed one is copied once.
    pub fn decode<'a>(bytes: impl Into<Cow<'a, [u8]>>) -> Option<Cell> {
        let bytes = bytes.into();
        if bytes.len() != CELL_LEN {
            return None;
        }
        let mut header = &bytes[..];
        let circ_id = CircuitId(header.get_u32());
        let command = CellCommand::from_u8(header.get_u8())?;
        let mut payload = bytes.into_owned();
        payload.drain(..CELL_LEN - PAYLOAD_LEN);
        Some(Cell {
            circ_id,
            command,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let c = Cell::new(CircuitId(0xdeadbeef), CellCommand::Relay, vec![1, 2, 3]);
        let bytes = c.clone().encode();
        assert_eq!(bytes.len(), CELL_LEN);
        let d = Cell::decode(&bytes).unwrap();
        assert_eq!(c, d);
        assert_eq!(d.payload.len(), PAYLOAD_LEN);
        assert_eq!(&d.payload[..3], &[1, 2, 3]);
        assert!(d.payload[3..].iter().all(|&b| b == 0));
    }

    #[test]
    fn all_commands_roundtrip() {
        for cmd in [
            CellCommand::Create2,
            CellCommand::Created2,
            CellCommand::Relay,
            CellCommand::Destroy,
        ] {
            let c = Cell::new(CircuitId(7), cmd, vec![]);
            assert_eq!(Cell::decode(c.encode()).unwrap().command, cmd);
        }
    }

    #[test]
    fn wrong_length_rejected() {
        assert!(Cell::decode(&[0u8; CELL_LEN - 1]).is_none());
        assert!(Cell::decode(&[0u8; CELL_LEN + 1]).is_none());
        assert!(Cell::decode(Vec::new()).is_none());
    }

    /// An owned buffer is the payload from decode to encode: no
    /// allocation, and a borrowed one decodes to the same cell.
    #[test]
    fn an_owned_cell_keeps_its_buffer_from_decode_to_encode() {
        let wire = Cell::new(CircuitId(9), CellCommand::Relay, vec![0xab; 77]).encode();
        let (at, copy) = (wire.as_ptr(), wire.clone());
        let cell = Cell::decode(wire).expect("a cell");
        assert_eq!(Some(&cell), Cell::decode(&copy).as_ref());
        assert_eq!(cell.payload.as_ptr(), at);
        let again = Cell::new(CircuitId(10), cell.command, cell.payload).encode();
        assert_eq!(again.as_ptr(), at);
        assert_eq!(
            (&again[..4], &again[4..]),
            (&10u32.to_be_bytes()[..], &copy[4..])
        );
    }

    #[test]
    fn unknown_command_rejected() {
        let mut bytes = Cell::new(CircuitId(1), CellCommand::Relay, vec![]).encode();
        bytes[4] = 99; // bogus command
        assert!(Cell::decode(&bytes).is_none());
    }

    #[test]
    #[should_panic]
    fn oversize_payload_rejected() {
        let _ = Cell::new(CircuitId(1), CellCommand::Relay, vec![0; PAYLOAD_LEN + 1]);
    }

    #[test]
    fn full_payload_accepted() {
        let c = Cell::new(CircuitId(1), CellCommand::Relay, vec![0xab; PAYLOAD_LEN]);
        assert_eq!(Cell::decode(c.clone().encode()).unwrap(), c);
    }
}
