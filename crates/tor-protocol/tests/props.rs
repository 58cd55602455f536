//! Property tests: the onion invariant — encrypt ∘ (hop-by-hop decrypt)
//! is the identity for arbitrary payloads, circuit lengths, and
//! interleavings.

use onion_crypto::{client_handshake_finish, client_handshake_start, server_handshake, KeyPair};
use proptest::prelude::*;
use tor_protocol::{
    Cell, CellCommand, CircuitId, ClientCrypto, RelayCell, RelayCmd, RelayCrypto,
    RelayCryptoOutcome,
};

fn circuit(n: usize, seed: u8) -> (ClientCrypto, Vec<RelayCrypto>) {
    let mut client = ClientCrypto::new();
    let mut relays = Vec::new();
    for i in 0..n {
        let identity = KeyPair::from_secret([seed.wrapping_add(i as u8).wrapping_add(1); 32]);
        let c_eph = KeyPair::from_secret([seed.wrapping_add(i as u8).wrapping_add(101); 32]);
        let s_eph = KeyPair::from_secret([seed.wrapping_add(i as u8).wrapping_add(201); 32]);
        let (state, x) = client_handshake_start(c_eph, identity.public);
        let (reply, server_keys) = server_handshake(&identity, s_eph, &x);
        let client_keys = client_handshake_finish(&state, &reply).unwrap();
        client.add_hop(&client_keys);
        relays.push(RelayCrypto::new(&server_keys));
    }
    (client, relays)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cell_encode_decode_roundtrip(
        circ in any::<u32>(),
        data in prop::collection::vec(any::<u8>(), 0..tor_protocol::PAYLOAD_LEN),
    ) {
        let c = Cell::new(CircuitId(circ), CellCommand::Relay, data);
        prop_assert_eq!(Cell::decode(c.clone().encode()), Some(c));
    }

    #[test]
    fn onion_roundtrip_arbitrary_schedule(
        n in 1usize..8,
        seed in any::<u8>(),
        schedule in prop::collection::vec((0usize..8, prop::collection::vec(any::<u8>(), 0..64)), 1..20),
    ) {
        let (mut client, mut relays) = circuit(n, seed);
        for (raw_target, data) in schedule {
            let target = raw_target % n;
            let cell = RelayCell::new(RelayCmd::Data, target as u16, data.clone());
            // Forward.
            let mut payload = client.encrypt_forward(target, &cell);
            let mut recognized_at = None;
            for (i, relay) in relays.iter_mut().enumerate().take(target + 1) {
                match relay.process_forward(&payload) {
                    RelayCryptoOutcome::Recognized(got) => {
                        prop_assert_eq!(&got, &cell);
                        recognized_at = Some(i);
                        break;
                    }
                    RelayCryptoOutcome::Forward(next) => payload = next,
                }
            }
            prop_assert_eq!(recognized_at, Some(target));
            // Backward reply.
            let reply = RelayCell::new(RelayCmd::Data, target as u16, data);
            let mut back = relays[target].encrypt_backward(&reply);
            for i in (0..target).rev() {
                back = relays[i].reencrypt_backward(&back);
            }
            let (hop, got) = client.decrypt_backward(&back).unwrap();
            prop_assert_eq!(hop, target);
            prop_assert_eq!(got, reply);
        }
    }

    #[test]
    fn flipped_bits_never_accepted(
        n in 1usize..5,
        seed in any::<u8>(),
        byte_idx in 0usize..tor_protocol::PAYLOAD_LEN,
        bit in 0u8..8,
    ) {
        let (mut client, mut relays) = circuit(n, seed);
        let cell = RelayCell::new(RelayCmd::Data, 1, vec![0x5a; 32]);
        let mut payload = client.encrypt_forward(n - 1, &cell);
        payload[byte_idx] ^= 1 << bit;
        // The corrupted cell may be forwarded along, but no relay may
        // accept it as a valid recognized cell with intact contents.
        for relay in relays.iter_mut() {
            match relay.process_forward(&payload) {
                RelayCryptoOutcome::Recognized(got) => {
                    // Only acceptable if the flip didn't land in a
                    // digest-protected position AND contents match; the
                    // digest covers the whole payload, so contents must
                    // match the original if accepted.
                    prop_assert_eq!(got, cell.clone());
                    break;
                }
                RelayCryptoOutcome::Forward(next) => payload = next,
            }
        }
    }
}
