//! Relay cells: the end-to-end records carried inside encrypted cell
//! payloads.
//!
//! Wire layout inside the 509-byte payload (after all onion layers are
//! removed), following tor-spec §6.1:
//!
//! ```text
//! relay command   1 byte
//! 'recognized'    2 bytes   (zero when fully decrypted at the right hop)
//! stream id       2 bytes
//! digest          4 bytes   (running digest, computed with this field 0)
//! length          2 bytes
//! data            498 bytes (zero-padded)
//! ```

use crate::cell::{CELL_LEN, PAYLOAD_LEN};
use bytes::{Buf, BufMut};

/// Header bytes before the data section.
pub const RELAY_HEADER_LEN: usize = 1 + 2 + 2 + 4 + 2;
/// Maximum data bytes per relay cell.
pub const RELAY_DATA_LEN: usize = PAYLOAD_LEN - RELAY_HEADER_LEN; // 498

/// Relay-cell commands (the subset Ting's circuits exercise).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum RelayCmd {
    /// Open a stream through the exit to a target.
    Begin = 1,
    /// Application payload on a stream.
    Data = 2,
    /// Close a stream.
    End = 3,
    /// Stream successfully opened.
    Connected = 4,
    /// Flow-control credit (modelled but not enforced; echo probes are
    /// one cell in flight at a time).
    SendMe = 5,
    /// Extend the circuit by one hop.
    Extend2 = 14,
    /// Extension succeeded.
    Extended2 = 15,
}

impl RelayCmd {
    pub fn from_u8(v: u8) -> Option<RelayCmd> {
        match v {
            1 => Some(RelayCmd::Begin),
            2 => Some(RelayCmd::Data),
            3 => Some(RelayCmd::End),
            4 => Some(RelayCmd::Connected),
            5 => Some(RelayCmd::SendMe),
            14 => Some(RelayCmd::Extend2),
            15 => Some(RelayCmd::Extended2),
            _ => None,
        }
    }
}

/// A parsed relay cell (header + data, before encryption).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelayCell {
    pub cmd: RelayCmd,
    pub stream_id: u16,
    pub data: Vec<u8>,
}

impl RelayCell {
    /// Builds a relay cell.
    ///
    /// # Panics
    /// Panics if `data` exceeds [`RELAY_DATA_LEN`].
    pub fn new(cmd: RelayCmd, stream_id: u16, data: Vec<u8>) -> RelayCell {
        assert!(
            data.len() <= RELAY_DATA_LEN,
            "relay data too long: {}",
            data.len()
        );
        RelayCell {
            cmd,
            stream_id,
            data,
        }
    }

    /// Serializes with a zeroed digest field — the form the running
    /// digest is computed over. The buffer has room for the link header,
    /// so the cell it becomes is encoded without growing it.
    pub fn encode_zero_digest(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(CELL_LEN);
        buf.put_u8(self.cmd as u8);
        buf.put_u16(0); // recognized
        buf.put_u16(self.stream_id);
        buf.put_u32(0); // digest (filled in later)
        buf.put_u16(self.data.len() as u16);
        buf.extend_from_slice(&self.data);
        buf.resize(PAYLOAD_LEN, 0);
        buf
    }

    /// Parses a fully decrypted payload. Returns `None` if the payload
    /// is malformed (bad command, bad length field).
    pub fn decode(payload: &[u8]) -> Option<(RelayCell, [u8; 4])> {
        if payload.len() != PAYLOAD_LEN {
            return None;
        }
        let mut b = payload;
        let cmd = RelayCmd::from_u8(b.get_u8())?;
        let recognized = b.get_u16();
        if recognized != 0 {
            return None;
        }
        let stream_id = b.get_u16();
        let mut digest = [0u8; 4];
        b.copy_to_slice(&mut digest);
        let len = b.get_u16() as usize;
        if len > RELAY_DATA_LEN {
            return None;
        }
        let data = b[..len].to_vec();
        Some((
            RelayCell {
                cmd,
                stream_id,
                data,
            },
            digest,
        ))
    }

    /// Fast pre-check a relay uses before running the digest
    /// comparison: a cell can only be "for this hop" if the recognized
    /// field decrypted to zero.
    pub fn looks_recognized(payload: &[u8]) -> bool {
        payload.len() == PAYLOAD_LEN && payload[1] == 0 && payload[2] == 0
    }

    /// Extracts the digest field bytes.
    pub fn digest_field(payload: &[u8]) -> [u8; 4] {
        let mut d = [0u8; 4];
        d.copy_from_slice(&payload[DIGEST]);
        d
    }

    /// Writes the digest field of an encoded payload.
    pub(crate) fn set_digest_field(payload: &mut [u8], digest: [u8; 4]) {
        payload[DIGEST].copy_from_slice(&digest);
    }

    /// The bytes of `payload` before and after its digest field: with
    /// four zero bytes between them, the form digests are computed over.
    pub(crate) fn around_digest(payload: &[u8]) -> (&[u8], &[u8]) {
        (&payload[..DIGEST.start], &payload[DIGEST.end..])
    }
}

/// Where the digest field sits in a relay payload.
const DIGEST: std::ops::Range<usize> = 5..9;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip() {
        let rc = RelayCell::new(RelayCmd::Data, 42, b"ping payload".to_vec());
        let mut payload = rc.encode_zero_digest();
        RelayCell::set_digest_field(&mut payload, [9, 8, 7, 6]);
        assert_eq!(payload.len(), PAYLOAD_LEN);
        let (decoded, digest) = RelayCell::decode(&payload).unwrap();
        assert_eq!(decoded, rc);
        assert_eq!(digest, [9, 8, 7, 6]);
    }

    #[test]
    fn all_commands_roundtrip() {
        for cmd in [
            RelayCmd::Begin,
            RelayCmd::Data,
            RelayCmd::End,
            RelayCmd::Connected,
            RelayCmd::SendMe,
            RelayCmd::Extend2,
            RelayCmd::Extended2,
        ] {
            let rc = RelayCell::new(cmd, 1, vec![]);
            let (d, _) = RelayCell::decode(&rc.encode_zero_digest()).unwrap();
            assert_eq!(d.cmd, cmd);
        }
    }

    #[test]
    fn nonzero_recognized_rejected() {
        let rc = RelayCell::new(RelayCmd::Data, 1, vec![1]);
        let mut payload = rc.encode_zero_digest();
        payload[1] = 0xff;
        assert!(RelayCell::decode(&payload).is_none());
        assert!(!RelayCell::looks_recognized(&payload));
    }

    #[test]
    fn bad_length_field_rejected() {
        let rc = RelayCell::new(RelayCmd::Data, 1, vec![1]);
        let mut payload = rc.encode_zero_digest();
        payload[9] = 0xff; // length = 0xff01 > RELAY_DATA_LEN
        assert!(RelayCell::decode(&payload).is_none());
    }

    #[test]
    fn zero_digest_form_zeroes_only_digest() {
        let rc = RelayCell::new(RelayCmd::Data, 7, vec![5; 10]);
        let mut payload = rc.encode_zero_digest();
        RelayCell::set_digest_field(&mut payload, [1, 2, 3, 4]);
        let zeroed = rc.encode_zero_digest();
        assert_eq!(&zeroed[5..9], &[0, 0, 0, 0]);
        assert_eq!(RelayCell::digest_field(&payload), [1, 2, 3, 4]);
        // Everything else is what is around the digest field.
        let (before, after) = RelayCell::around_digest(&payload);
        assert_eq!(before, &zeroed[..5]);
        assert_eq!(after, &zeroed[9..]);
    }

    #[test]
    fn max_data_fits() {
        let rc = RelayCell::new(RelayCmd::Data, 1, vec![0xaa; RELAY_DATA_LEN]);
        let (d, _) = RelayCell::decode(&rc.encode_zero_digest()).unwrap();
        assert_eq!(d.data.len(), RELAY_DATA_LEN);
    }

    #[test]
    #[should_panic]
    fn oversize_data_rejected() {
        let _ = RelayCell::new(RelayCmd::Data, 1, vec![0; RELAY_DATA_LEN + 1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn relay_cell_roundtrip(
            stream in any::<u16>(),
            data in prop::collection::vec(any::<u8>(), 0..RELAY_DATA_LEN),
            digest in any::<[u8; 4]>(),
        ) {
            let rc = RelayCell::new(RelayCmd::Data, stream, data);
            let mut payload = rc.encode_zero_digest();
            RelayCell::set_digest_field(&mut payload, digest);
            let (decoded, d) = RelayCell::decode(&payload).unwrap();
            prop_assert_eq!(decoded, rc);
            prop_assert_eq!(d, digest);
        }
    }
}
