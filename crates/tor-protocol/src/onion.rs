//! Layered relay cryptography.
//!
//! Forward direction (client → exit): the client encrypts a relay cell
//! with the keys of every hop up to and including the addressee,
//! outermost layer last, so each relay strips exactly one layer with its
//! forward keystream. A relay knows a cell is addressed to it when the
//! `recognized` field decrypts to zero **and** the 4-byte digest matches
//! its running forward digest — the tor-spec §6.1 mechanism, reproduced
//! here with ChaCha20 streams and SHA-256 running digests.
//!
//! Backward direction (exit → client): each relay *adds* one layer with
//! its backward keystream; the client peels layers hop by hop until a
//! recognized, digest-valid cell appears, which also tells it which hop
//! originated the cell.
//!
//! Stream-cipher state discipline: a hop's forward cipher advances only
//! for cells that physically pass through that hop, and running digests
//! advance only for cells addressed to (or originated by) that hop.
//! Both sides enforce this identically or the keystreams desynchronize —
//! the property the `multi_hop_interleaving` test locks down.
//!
//! Buffers: every function that takes a payload in transit takes
//! `impl Into<Cow<[u8]>>` and works in the buffer it then owns — an
//! owned `Vec` (the cell a relay just decoded) is stripped or wrapped in
//! place and handed back as the next hop's payload, a borrowed one is
//! copied once.

use crate::relay::RelayCell;
use onion_crypto::{ChaCha20, HopKeys, Sha256};
use std::borrow::Cow;

/// One hop's cipher + digest state (used on both ends).
#[derive(Debug, Clone)]
struct HopState {
    fwd_cipher: ChaCha20,
    bwd_cipher: ChaCha20,
    fwd_digest: Sha256,
    bwd_digest: Sha256,
}

impl HopState {
    fn new(keys: &HopKeys) -> HopState {
        let mut fwd_digest = Sha256::new();
        fwd_digest.update(&keys.forward_digest_seed);
        let mut bwd_digest = Sha256::new();
        bwd_digest.update(&keys.backward_digest_seed);
        HopState {
            fwd_cipher: ChaCha20::new(&keys.forward_key, &keys.forward_nonce, 0),
            bwd_cipher: ChaCha20::new(&keys.backward_key, &keys.backward_nonce, 0),
            fwd_digest,
            bwd_digest,
        }
    }
}

/// Computes the 4-byte digest of `payload` read with its digest field
/// zeroed against `state`, returning the would-be new state alongside
/// (commit on match).
fn digest4(state: &Sha256, payload: &[u8]) -> (Sha256, [u8; 4]) {
    let mut next = state.clone();
    let (before, after) = RelayCell::around_digest(payload);
    next.update(before);
    next.update(&[0; 4]);
    next.update(after);
    let full = next.clone().finalize();
    let mut d = [0u8; 4];
    d.copy_from_slice(&full[..4]);
    (next, d)
}

/// The client's end of a circuit: one per-hop cipher/digest state for
/// each established hop.
#[derive(Debug, Clone, Default)]
pub struct ClientCrypto {
    hops: Vec<HopState>,
}

impl ClientCrypto {
    pub fn new() -> ClientCrypto {
        ClientCrypto { hops: Vec::new() }
    }

    /// Adds the next hop's keys (called after each CREATED2/EXTENDED2).
    pub fn add_hop(&mut self, keys: &HopKeys) {
        self.hops.push(HopState::new(keys));
    }

    /// The index of the last established hop; `None` before the first.
    pub fn last_hop(&self) -> Option<usize> {
        self.hops.len().checked_sub(1)
    }

    /// Onion-encrypts `rc` addressed to hop `hop` (0-based). Returns the
    /// 509-byte ciphertext payload for the first link.
    ///
    /// # Panics
    /// Panics if `hop` is out of range.
    pub fn encrypt_forward(&mut self, hop: usize, rc: &RelayCell) -> Vec<u8> {
        assert!(hop < self.hops.len(), "hop {hop} not established");
        let mut payload = rc.encode_zero_digest();
        let (next_digest, d4) = digest4(&self.hops[hop].fwd_digest, &payload);
        self.hops[hop].fwd_digest = next_digest;
        RelayCell::set_digest_field(&mut payload, d4);
        // Innermost layer first (the addressee's), outermost (hop 0) last.
        for i in (0..=hop).rev() {
            self.hops[i].fwd_cipher.apply_keystream(&mut payload);
        }
        payload
    }

    /// Peels backward layers until some hop's cell is recognized.
    /// Returns `(hop_index, cell)`, or `None` if no established hop
    /// recognizes the cell (corruption / desync — callers destroy the
    /// circuit, as Tor does).
    pub fn decrypt_backward<'a>(
        &mut self,
        payload: impl Into<Cow<'a, [u8]>>,
    ) -> Option<(usize, RelayCell)> {
        let mut buf = payload.into().into_owned();
        for i in 0..self.hops.len() {
            self.hops[i].bwd_cipher.apply_keystream(&mut buf);
            if RelayCell::looks_recognized(&buf) {
                let (next_digest, d4) = digest4(&self.hops[i].bwd_digest, &buf);
                if d4 == RelayCell::digest_field(&buf) {
                    self.hops[i].bwd_digest = next_digest;
                    let (rc, _) = RelayCell::decode(&buf)?;
                    return Some((i, rc));
                }
            }
        }
        None
    }
}

/// What a relay concludes about one forward cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelayCryptoOutcome {
    /// The cell is addressed to this hop.
    Recognized(RelayCell),
    /// Not ours: pass the (one-layer-stripped) payload to the next hop.
    Forward(Vec<u8>),
}

/// A relay's end of one circuit.
#[derive(Debug, Clone)]
pub struct RelayCrypto {
    state: HopState,
}

impl RelayCrypto {
    pub fn new(keys: &HopKeys) -> RelayCrypto {
        RelayCrypto {
            state: HopState::new(keys),
        }
    }

    /// Strips this hop's forward layer and decides whether the cell is
    /// addressed here.
    pub fn process_forward<'a>(&mut self, payload: impl Into<Cow<'a, [u8]>>) -> RelayCryptoOutcome {
        let mut buf = payload.into().into_owned();
        self.state.fwd_cipher.apply_keystream(&mut buf);
        if RelayCell::looks_recognized(&buf) {
            let (next_digest, d4) = digest4(&self.state.fwd_digest, &buf);
            if d4 == RelayCell::digest_field(&buf) {
                if let Some((rc, _)) = RelayCell::decode(&buf) {
                    self.state.fwd_digest = next_digest;
                    return RelayCryptoOutcome::Recognized(rc);
                }
            }
        }
        RelayCryptoOutcome::Forward(buf)
    }

    /// Originates a backward cell from this hop.
    pub fn encrypt_backward(&mut self, rc: &RelayCell) -> Vec<u8> {
        let mut payload = rc.encode_zero_digest();
        let (next_digest, d4) = digest4(&self.state.bwd_digest, &payload);
        self.state.bwd_digest = next_digest;
        RelayCell::set_digest_field(&mut payload, d4);
        self.state.bwd_cipher.apply_keystream(&mut payload);
        payload
    }

    /// Adds this hop's backward layer to a cell in transit toward the
    /// client (middle relays call this on every backward cell).
    pub fn reencrypt_backward<'a>(&mut self, payload: impl Into<Cow<'a, [u8]>>) -> Vec<u8> {
        let mut buf = payload.into().into_owned();
        self.state.bwd_cipher.apply_keystream(&mut buf);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relay::RelayCmd;
    use onion_crypto::{
        client_handshake_finish, client_handshake_start, server_handshake, KeyPair,
    };

    /// Runs real ntor handshakes to produce matched client/relay key
    /// state for an `n`-hop circuit.
    fn circuit(n: usize) -> (ClientCrypto, Vec<RelayCrypto>) {
        let mut client = ClientCrypto::new();
        let mut relays = Vec::new();
        for i in 0..n {
            let identity = KeyPair::from_secret([(i as u8) + 1; 32]);
            let c_eph = KeyPair::from_secret([(i as u8) + 100; 32]);
            let s_eph = KeyPair::from_secret([(i as u8) + 200; 32]);
            let (state, x) = client_handshake_start(c_eph, identity.public);
            let (reply, server_keys) = server_handshake(&identity, s_eph, &x);
            let client_keys = client_handshake_finish(&state, &reply).unwrap();
            assert_eq!(client_keys, server_keys);
            client.add_hop(&client_keys);
            relays.push(RelayCrypto::new(&server_keys));
        }
        (client, relays)
    }

    fn rc(tag: u8) -> RelayCell {
        RelayCell::new(RelayCmd::Data, 7, vec![tag; 20])
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The wire pin: every byte any link of a 4-hop circuit carries for
    /// 64 forward and 64 backward cells, and the running digests they
    /// leave behind. Golden traces and `benchmark/exact.txt` pin times
    /// and RNG draws, not cell bytes; this is the test that fails when
    /// one keystream or digest byte moves. The constants were captured
    /// from the build before the batched ChaCha20 and the hardware
    /// SHA-256 — an edit to them is a wire-format change.
    #[test]
    fn wire_bytes_of_a_four_hop_circuit_are_pinned() {
        let (mut client, mut relays) = circuit(4);
        let mut wire = Sha256::new();
        for n in 0..64usize {
            // Forward: addressee and data length both cycle, so digests
            // advance unevenly and cells span 0..=498 data bytes.
            let target = (n * 7 + n / 5) % 4;
            let len = if n == 63 { 498 } else { (n * 37) % 499 };
            let cell = RelayCell::new(RelayCmd::Data, n as u16, vec![n as u8 ^ 0x5a; len]);
            let mut payload = client.encrypt_forward(target, &cell);
            for (i, relay) in relays.iter_mut().enumerate() {
                wire.update(&payload);
                match relay.process_forward(&payload) {
                    RelayCryptoOutcome::Recognized(got) => {
                        assert_eq!((i, &got), (target, &cell), "forward cell {n}");
                        break;
                    }
                    RelayCryptoOutcome::Forward(next) => payload = next,
                }
            }
            // Backward, from another hop, through every relay below it.
            let source = (n * 3 + n / 7) % 4;
            let len = (n * 53 + 11) % 499;
            let reply = RelayCell::new(RelayCmd::Data, !(n as u16), vec![n as u8; len]);
            let mut back = relays[source].encrypt_backward(&reply);
            wire.update(&back);
            for i in (0..source).rev() {
                back = relays[i].reencrypt_backward(&back);
                wire.update(&back);
            }
            assert_eq!(
                client.decrypt_backward(&back),
                Some((source, reply)),
                "backward cell {n}"
            );
        }
        assert_eq!(
            hex(&wire.finalize()),
            "42380b9cd8ff34827d8e23016484da181130b45a36f83c9a722f80cf9e981536",
            "a link payload byte moved"
        );

        let mut digests = Sha256::new();
        for (hop, relay) in client.hops.iter().zip(&relays) {
            let fwd = hop.fwd_digest.clone().finalize();
            let bwd = hop.bwd_digest.clone().finalize();
            assert_eq!(fwd, relay.state.fwd_digest.clone().finalize());
            assert_eq!(bwd, relay.state.bwd_digest.clone().finalize());
            digests.update(&fwd);
            digests.update(&bwd);
        }
        assert_eq!(
            hex(&digests.finalize()),
            "f3379207c4bea9567623c54f33a6354b97e905c7fc8e3ce57b058e51c5412fa7",
            "a running digest moved"
        );
    }

    /// A middle relay's cell is one buffer from the link it arrives on
    /// to the link it leaves by, in either direction: `Cell::decode` →
    /// this hop's layer → `Cell::encode` neither allocates nor copies
    /// the cell — and the cell still means what it meant.
    #[test]
    fn a_middle_relay_forwards_a_cell_in_the_buffer_it_arrived_in() {
        use crate::cell::{Cell, CellCommand, CircuitId};
        let hop = |payload, id| Cell::new(CircuitId(id), CellCommand::Relay, payload).encode();
        let (mut client, mut relays) = circuit(3);

        let wire = hop(client.encrypt_forward(2, &rc(1)), 1);
        let at = wire.as_ptr();
        let cell = Cell::decode(wire).expect("a cell");
        let RelayCryptoOutcome::Forward(payload) = relays[0].process_forward(cell.payload) else {
            panic!("middle hop recognized an exit cell");
        };
        let wire = hop(payload, 2);
        assert_eq!(wire.as_ptr(), at, "forward cell reallocated");
        let cell = Cell::decode(wire).expect("a cell");
        let RelayCryptoOutcome::Forward(payload) = relays[1].process_forward(cell.payload) else {
            panic!("middle hop recognized an exit cell");
        };
        assert_eq!(
            relays[2].process_forward(payload),
            RelayCryptoOutcome::Recognized(rc(1))
        );

        let wire = hop(relays[2].encrypt_backward(&rc(2)), 2);
        let at = wire.as_ptr();
        let cell = Cell::decode(wire).expect("a cell");
        let wire = hop(relays[1].reencrypt_backward(cell.payload), 1);
        assert_eq!(wire.as_ptr(), at, "backward cell reallocated");
        let payload = relays[0].reencrypt_backward(Cell::decode(wire).expect("a cell").payload);
        assert_eq!(client.decrypt_backward(payload), Some((2, rc(2))));
    }

    #[test]
    fn forward_to_each_hop_of_three() {
        let (mut client, mut relays) = circuit(3);
        for target in 0..3 {
            let cell = rc(target as u8);
            let mut payload = client.encrypt_forward(target, &cell);
            for (i, relay) in relays.iter_mut().enumerate() {
                match relay.process_forward(&payload) {
                    RelayCryptoOutcome::Recognized(got) => {
                        assert_eq!(i, target, "recognized at wrong hop");
                        assert_eq!(got, cell);
                        payload.clear();
                        break;
                    }
                    RelayCryptoOutcome::Forward(next) => {
                        assert!(i < target, "should have been recognized by now");
                        payload = next;
                    }
                }
            }
            assert!(payload.is_empty(), "cell for hop {target} never recognized");
        }
    }

    #[test]
    fn backward_from_each_hop_of_three() {
        let (mut client, mut relays) = circuit(3);
        for source in (0..3).rev() {
            let cell = rc(source as u8 + 50);
            let mut payload = relays[source].encrypt_backward(&cell);
            // Relays between source and client add their layers.
            for i in (0..source).rev() {
                payload = relays[i].reencrypt_backward(&payload);
            }
            let (hop, got) = client.decrypt_backward(&payload).expect("recognized");
            assert_eq!(hop, source);
            assert_eq!(got, cell);
        }
    }

    #[test]
    fn multi_hop_interleaving() {
        // Cells to different hops interleave without desyncing streams:
        // exactly the traffic pattern Ting produces (probes to the exit
        // while EXTEND2s went to earlier hops during construction).
        let (mut client, mut relays) = circuit(4);
        let schedule = [3usize, 1, 3, 0, 2, 3, 3, 1, 2, 0, 3, 3];
        for (n, &target) in schedule.iter().enumerate() {
            let cell = RelayCell::new(RelayCmd::Data, target as u16, vec![n as u8; 8]);
            let mut payload = client.encrypt_forward(target, &cell);
            for (i, relay) in relays.iter_mut().enumerate() {
                match relay.process_forward(&payload) {
                    RelayCryptoOutcome::Recognized(got) => {
                        assert_eq!(i, target);
                        assert_eq!(got, cell);
                        break;
                    }
                    RelayCryptoOutcome::Forward(next) => payload = next,
                }
            }
            // And a reply comes back from the same hop.
            let reply = RelayCell::new(RelayCmd::Data, target as u16, vec![0xee, n as u8]);
            let mut back = relays[target].encrypt_backward(&reply);
            for i in (0..target).rev() {
                back = relays[i].reencrypt_backward(&back);
            }
            let (hop, got) = client.decrypt_backward(&back).unwrap();
            assert_eq!(hop, target);
            assert_eq!(got, reply);
        }
    }

    #[test]
    fn middle_relay_cannot_read_exit_cells() {
        let (mut client, mut relays) = circuit(3);
        let cell = rc(1);
        let payload = client.encrypt_forward(2, &cell);
        // Hop 0 strips its layer but must not recognize.
        match relays[0].process_forward(&payload) {
            RelayCryptoOutcome::Forward(stripped) => {
                // The stripped payload still reveals nothing: it differs
                // from the plaintext encoding everywhere that matters.
                let plain = cell.encode_zero_digest();
                assert_ne!(&stripped[..40], &plain[..40]);
            }
            RelayCryptoOutcome::Recognized(_) => panic!("middle hop recognized exit cell"),
        }
    }

    #[test]
    fn corrupted_backward_cell_rejected() {
        let (mut client, mut relays) = circuit(2);
        let cell = rc(9);
        let mut payload = relays[1].encrypt_backward(&cell);
        payload = relays[0].reencrypt_backward(&payload);
        payload[100] ^= 0xff;
        assert!(client.decrypt_backward(&payload).is_none());
    }

    #[test]
    fn wrong_order_desyncs() {
        // Delivering backward cells out of order breaks the keystream —
        // the property that forces FIFO delivery in the simulator.
        let (mut client, mut relays) = circuit(1);
        let c1 = rc(1);
        let c2 = rc(2);
        let p1 = relays[0].encrypt_backward(&c1);
        let p2 = relays[0].encrypt_backward(&c2);
        // Deliver p2 first: not recognized (keystream mismatch).
        assert!(client.decrypt_backward(&p2).is_none());
        let _ = p1;
    }

    #[test]
    fn single_hop_roundtrip() {
        let (mut client, mut relays) = circuit(1);
        let cell = rc(3);
        let payload = client.encrypt_forward(0, &cell);
        match relays[0].process_forward(&payload) {
            RelayCryptoOutcome::Recognized(got) => assert_eq!(got, cell),
            _ => panic!("one-hop cell not recognized"),
        }
    }

    #[test]
    #[should_panic]
    fn encrypting_to_unestablished_hop_panics() {
        let (mut client, _) = circuit(1);
        let _ = client.encrypt_forward(1, &rc(0));
    }

    #[test]
    fn ten_hop_circuit_works() {
        // §5.2.2 builds circuits up to length 10; the crypto must too.
        let (mut client, mut relays) = circuit(10);
        let cell = rc(42);
        let mut payload = client.encrypt_forward(9, &cell);
        for (i, relay) in relays.iter_mut().take(9).enumerate() {
            match relay.process_forward(&payload) {
                RelayCryptoOutcome::Forward(next) => payload = next,
                RelayCryptoOutcome::Recognized(_) => panic!("early recognition at {i}"),
            }
        }
        match relays[9].process_forward(&payload) {
            RelayCryptoOutcome::Recognized(got) => assert_eq!(got, cell),
            _ => panic!("not recognized at exit"),
        }
    }
}
