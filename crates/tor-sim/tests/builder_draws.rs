//! Pins what `TorNetworkBuilder::build` draws from its seed: every
//! underlay node, every relay's config and every vantage's endpoints, for
//! both §4 scenarios at one and at four vantages.
//!
//! Extra vantages are placed by draws that come after every relay's, so
//! a change in how many draws the relay population takes moves the
//! four-vantage constants even when the one-vantage ones stay put. The
//! constants were captured before any builder code was removed; an edit
//! to them is a change of every seeded network, not a fix.

use tor_sim::{TorNetwork, TorNetworkBuilder};

/// FNV-1a, 64-bit: a hash whose value no toolchain can change.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.bytes(&x.to_bits().to_le_bytes());
    }
}

fn fingerprint(net: &TorNetwork) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let underlay = net.sim.underlay();
    for i in 0..underlay.node_count() {
        let node = underlay.node(i);
        h.bytes(&node.as_id.0.to_le_bytes());
        h.f64(node.location.lat);
        h.f64(node.location.lon);
        h.f64(node.access_delay_ms);
        h.bytes(&node.ip);
    }
    for c in &net.relay_configs {
        h.f64(c.base_proc_ms);
        h.f64(c.busy_prob);
        h.f64(c.busy_mean_ms);
    }
    for v in 0..net.vantage_count() {
        let (w, z, d) = net.vantage_endpoints(v);
        for node in [w, z, d] {
            h.bytes(&node.0.to_le_bytes());
        }
    }
    h.0
}

#[test]
fn seeded_builds_draw_the_pinned_networks() {
    let cases = [
        (
            "testbed(2015)",
            TorNetworkBuilder::testbed(2015),
            [0x1e41_e293_7cb4_fa13, 0x3e87_808e_7508_3403],
        ),
        (
            "live(7, 40)",
            TorNetworkBuilder::live(7, 40),
            [0x106a_02ef_3f0f_a303, 0x48ae_ecea_b21a_a58f],
        ),
    ];
    for (name, builder, pinned) in cases {
        for (k, want) in [1, 4].into_iter().zip(pinned) {
            let got = fingerprint(&builder.clone().vantages(k).build());
            assert_eq!(got, want, "{name} at {k} vantages hashed to {got:#018x}");
        }
    }
}
