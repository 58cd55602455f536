//! Unit costs of single layers, measured on fixed fixtures through
//! each crate's public functions. These do not depend on the workload
//! or the seed; the traced repetition supplies the per-layer numbers
//! that do (publish sub-steps, per-pair counts, overheads).

use crate::gen::{self, SplitMix64, Stream};
use crate::rep::{base_delta, delta_pairs, pipeline_config, remeasurements, supervisor_config};
use crate::spec::{K_NEAREST, NET_SEED};
use crate::stats::median;
use netsim::event::EventQueue;
use netsim::{
    AsProfile, ConnId, Context, EventKind, NodeAttrs, NodeId, Process, SimDuration, SimTime,
    Simulator, TrafficClass, Underlay, UnderlayConfig,
};
use onion_crypto::{
    client_handshake_finish, client_handshake_start, server_handshake, sha256, x25519, x25519_base,
    ChaCha20, KeyPair,
};
use oracle::Pipeline;
use std::hint::black_box;
use std::time::Instant;
use ting::shard::MergeDelta;
use ting::{Scanner, Supervisor, Ting, TingConfig};
use tor_protocol::{
    Cell, CellCommand, CircuitId, ClientCrypto, RelayCell, RelayCmd, RelayCrypto, PAYLOAD_LEN,
};
use tor_sim::TorNetworkBuilder;

pub type Costs = Vec<(&'static str, f64)>;

/// Mean cost (ns) of one call in the best of `batches` batches of
/// `calls` identical calls. The best batch, not the median: the host's
/// slow phases only ever add time (see `spec::Agg`).
fn per_call_ns(batches: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Median cost (ns) of `f` over `times` individually timed calls that
/// each do different work (another path, another pair).
fn each_ns<T>(times: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let costs: Vec<f64> = (0..times)
        .map(|k| {
            let t = Instant::now();
            black_box(f(k));
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&costs)
}

fn onion_crypto(out: &mut Costs) {
    let me = KeyPair::from_secret([5u8; 32]);
    let peer = KeyPair::from_secret([9u8; 32]);
    let ns = per_call_ns(7, 100, || {
        black_box(x25519(black_box(&me.secret), &peer.public));
    });
    out.push(("onion-crypto.x25519_us", ns / 1e3));
    let ns = per_call_ns(7, 100, || {
        black_box(x25519_base(black_box(&me.secret)));
    });
    out.push(("onion-crypto.x25519_base_us", ns / 1e3));

    // Key generation is part of each side's handshake, as in tor-sim.
    let identity = KeyPair::from_secret([1u8; 32]);
    let (_, x) = client_handshake_start(KeyPair::from_secret([2u8; 32]), identity.public);
    let (reply, _) = server_handshake(&identity, KeyPair::from_secret([3u8; 32]), &x);
    let ns = per_call_ns(7, 40, || {
        let (state, _) =
            client_handshake_start(KeyPair::from_secret(black_box([2u8; 32])), identity.public);
        black_box(client_handshake_finish(&state, &reply).expect("authentic reply"));
    });
    out.push(("onion-crypto.ntor_client_us", ns / 1e3));
    let ns = per_call_ns(7, 40, || {
        black_box(server_handshake(
            &identity,
            KeyPair::from_secret(black_box([3u8; 32])),
            &x,
        ));
    });
    out.push(("onion-crypto.ntor_server_us", ns / 1e3));

    let mut cipher = ChaCha20::new(&[7u8; 32], &[3u8; 12], 0);
    let mut cell = vec![0u8; PAYLOAD_LEN];
    let ns = per_call_ns(9, 20_000, || cipher.apply_keystream(black_box(&mut cell)));
    out.push(("onion-crypto.chacha20_cell_ns", ns));
    let data = vec![0xabu8; PAYLOAD_LEN];
    let ns = per_call_ns(9, 20_000, || {
        black_box(sha256(black_box(&data)));
    });
    out.push(("onion-crypto.sha256_cell_ns", ns));
}

/// A 4-hop circuit's key state on both sides.
fn circuit() -> (ClientCrypto, Vec<RelayCrypto>) {
    let mut client = ClientCrypto::new();
    let mut relays = Vec::new();
    for i in 0..4u8 {
        let identity = KeyPair::from_secret([i + 1; 32]);
        let (state, x) =
            client_handshake_start(KeyPair::from_secret([i + 100; 32]), identity.public);
        let (reply, server_keys) =
            server_handshake(&identity, KeyPair::from_secret([i + 200; 32]), &x);
        let client_keys = client_handshake_finish(&state, &reply).expect("authentic reply");
        client.add_hop(&client_keys);
        relays.push(RelayCrypto::new(&server_keys));
    }
    (client, relays)
}

fn tor_protocol(out: &mut Costs) {
    const BATCHES: usize = 9;
    const CELLS: usize = 4_096;
    let probe = RelayCell::new(RelayCmd::Data, 1, vec![0u8; 8]);

    let (mut client, mut relays) = circuit();
    let ns = per_call_ns(BATCHES, CELLS, || {
        black_box(client.encrypt_forward(3, black_box(&probe)));
    });
    out.push(("tor-protocol.client_encrypt_4hop_ns", ns));

    // Cipher state is a running stream: cells are produced and
    // consumed in one order, and only the consumer is timed.
    let forward: Vec<Vec<u8>> = (0..BATCHES * CELLS)
        .map(|_| client.encrypt_forward(3, &probe))
        .collect();
    let mut next = forward.iter();
    let ns = per_call_ns(BATCHES, CELLS, || {
        black_box(relays[0].process_forward(next.next().expect("one cell per call")));
    });
    out.push(("tor-protocol.relay_forward_ns", ns));

    let (mut client, mut relays) = circuit();
    let from_exit: Vec<Vec<u8>> = (0..BATCHES * CELLS)
        .map(|_| relays[3].encrypt_backward(&probe))
        .collect();
    let mut next = from_exit.iter();
    let mut at_hop_2 = Vec::with_capacity(from_exit.len());
    let ns = per_call_ns(BATCHES, CELLS, || {
        at_hop_2.push(relays[2].reencrypt_backward(next.next().expect("one cell per call")));
    });
    out.push(("tor-protocol.relay_backward_ns", ns));
    let at_client: Vec<Vec<u8>> = at_hop_2
        .iter()
        .map(|p| {
            let p = relays[1].reencrypt_backward(p);
            relays[0].reencrypt_backward(&p)
        })
        .collect();
    let mut next = at_client.iter();
    let ns = per_call_ns(BATCHES, CELLS, || {
        let cell = client.decrypt_backward(next.next().expect("one cell per call"));
        assert!(
            black_box(cell).is_some(),
            "backward cell not recognised at the client"
        );
    });
    out.push(("tor-protocol.client_decrypt_4hop_ns", ns));

    let payload = vec![0x5au8; PAYLOAD_LEN];
    let ns = per_call_ns(BATCHES, CELLS, || {
        let bytes =
            Cell::new(CircuitId(7), CellCommand::Relay, black_box(payload.clone())).encode();
        black_box(Cell::decode(&bytes).expect("own encoding decodes"));
    });
    out.push(("tor-protocol.cell_codec_ns", ns));
}

/// Opens a connection and bounces a fixed-size message off the peer
/// `remaining` times.
struct Pinger {
    peer: NodeId,
    remaining: u32,
}

impl Process for Pinger {
    fn on_start(&mut self, ctx: &mut Context) {
        ctx.open(self.peer, TrafficClass::Tor);
    }
    fn on_conn_established(&mut self, ctx: &mut Context, conn: ConnId) {
        ctx.send(conn, vec![0u8; 514]);
    }
    fn on_data(&mut self, ctx: &mut Context, conn: ConnId, data: Vec<u8>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(conn, data);
        }
    }
}

struct Ponger;

impl Process for Ponger {
    fn on_data(&mut self, ctx: &mut Context, conn: ConnId, data: Vec<u8>) {
        ctx.send(conn, data);
    }
}

fn netsim_layer(out: &mut Costs) {
    let costs: Vec<f64> = (0..5)
        .map(|_| {
            let mut underlay = Underlay::new(UnderlayConfig::default(), 5);
            for (name, lat, lon, ip) in [
                ("nyc", 40.7, -74.0, [10, 0, 0, 1]),
                ("lon", 51.5, -0.1, [10, 1, 0, 1]),
            ] {
                let location = geo::GeoPoint::new(lat, lon);
                let as_id = underlay.add_as(AsProfile::datacenter(name, location));
                underlay.add_node(NodeAttrs {
                    as_id,
                    location,
                    access_delay_ms: 1.0,
                    ip,
                });
            }
            let mut sim = Simulator::new(underlay, 77);
            sim.add_process(Box::new(Pinger {
                peer: NodeId(1),
                remaining: 20_000,
            }));
            sim.add_process(Box::new(Ponger));
            let t = Instant::now();
            let events = sim.run_until_idle();
            t.elapsed().as_nanos() as f64 / events as f64
        })
        .collect();
    out.push(("netsim.event_ns", median(&costs)));

    let mut queue = EventQueue::new();
    let timer = |id| EventKind::Timer {
        node: NodeId(0),
        id,
    };
    let mut rng = SplitMix64::new(NET_SEED, Stream::Deltas);
    for id in 0..1_000 {
        queue.schedule(SimTime(rng.below(1_000_000) as u64), timer(id));
    }
    let ns = per_call_ns(9, 50_000, || {
        let head = queue.pop().expect("depth stays at 1,000");
        queue.schedule(
            head.at + SimDuration(1 + rng.below(1_000_000) as u64),
            timer(head.seq),
        );
    });
    out.push(("netsim.queue_op_ns", ns));
}

fn tor_sim_and_core(out: &mut Costs) {
    let build_ms: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(TorNetworkBuilder::live(NET_SEED, 300).build());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.push(("tor-sim.net_build_ms", median(&build_ms)));

    let mut net = TorNetworkBuilder::live(NET_SEED, 40).build();
    let hops = gen::pair_subset(&mut SplitMix64::new(NET_SEED, Stream::ScanPairs), 40, 30);
    let path = |net: &tor_sim::TorNetwork, k: usize| {
        let (x, y) = hops[k];
        vec![net.local_w, net.relays[x], net.relays[y], net.local_z]
    };
    let ns = each_ns(hops.len(), |k| {
        let route = path(&net, k);
        net.controller
            .build_and_wait(&mut net.sim, route)
            .expect("fault-free build")
    });
    out.push(("tor-sim.circuit_build_4hop_us", ns / 1e3));
    let route = path(&net, 0);
    let circuit = net
        .controller
        .build_and_wait(&mut net.sim, route)
        .expect("fault-free build");
    let echo = net.echo_server;
    let ns = each_ns(30, |_| {
        net.controller
            .open_stream_and_wait(&mut net.sim, circuit, echo)
            .expect("echo server accepts")
    });
    out.push(("tor-sim.stream_open_us", ns / 1e3));
    let stream = net
        .controller
        .open_stream_and_wait(&mut net.sim, circuit, echo)
        .expect("echo server accepts");
    let ns = per_call_ns(9, 300, || {
        black_box(
            net.controller
                .echo_roundtrip_ms(&mut net.sim, stream, vec![0u8; 8])
                .expect("echo"),
        );
    });
    out.push(("tor-sim.echo_roundtrip_4hop_us", ns / 1e3));

    let ting = Ting::new(TingConfig::with_samples(200));
    let ns = each_ns(8, |k| {
        let (x, y) = hops[k];
        let (x, y) = (net.relays[x], net.relays[y]);
        ting.measure_pair(&mut net, x, y)
            .expect("fault-free measurement")
    });
    out.push(("core.measure_pair_ms_s200", ns / 1e6));

    let mut net = TorNetworkBuilder::live(NET_SEED, 300).build();
    let pairs = gen::pair_subset(&mut SplitMix64::new(NET_SEED, Stream::ScanPairs), 300, 30);
    let ting = Ting::new(TingConfig::with_samples(2));
    let ns = each_ns(pairs.len(), |k| {
        let (x, y) = (net.relays[pairs[k].0], net.relays[pairs[k].1]);
        ting.measure_pair(&mut net, x, y)
            .expect("fault-free measurement")
    });
    out.push(("core.measure_pair_ms_s2", ns / 1e6));

    // The publish workloads' supervisor, after its one set-up round.
    let mut supervisor = Supervisor::new(
        net.relays.clone(),
        supervisor_config(4),
        TingConfig::with_samples(2),
    );
    supervisor.run_round(&mut net);
    let started = net.sim.now();
    let ns = each_ns(20, |k| {
        supervisor.take_delta(started + SimDuration::from_secs(k as u64 + 1))
    });
    out.push(("core.take_delta_us", ns / 1e3));
    let ns = each_ns(5, |_| {
        supervisor
            .merge(started)
            .expect("every shard checkpoint parses")
    });
    out.push(("core.merge_ms", ns / 1e6));
    let shard = supervisor.scanner(0).expect("shard 0 is running");
    let ns = each_ns(20, |_| shard.to_checkpoint());
    out.push(("core.checkpoint_render_ms", ns / 1e6));
    let checkpoint = shard.to_checkpoint();
    let ns = each_ns(20, |_| {
        Scanner::from_checkpoint(&checkpoint).expect("own checkpoint parses")
    });
    out.push(("core.checkpoint_parse_ms", ns / 1e6));
}

fn oracle_layer(out: &mut Costs) {
    for (n, ticks, name) in [
        (100usize, 10u64, "oracle.tick_ms_n100"),
        (300, 5, "oracle.tick_ms_n300"),
        (600, 3, "oracle.tick_ms_n600"),
    ] {
        let nodes: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let mut pipeline = Pipeline::new(nodes.clone(), 4, pipeline_config());
        pipeline.offer(base_delta(NET_SEED, &nodes, 4, SimTime(1_000_000)));
        pipeline.tick(SimTime(1_000_000)).expect("volatile publish");
        let mut rng = SplitMix64::new(NET_SEED, Stream::Deltas);
        let tick_ms: Vec<f64> = (0..ticks)
            .map(|k| {
                let now = SimTime(2_000_000 + k);
                let batch = remeasurements(&mut rng, n, 64);
                let pairs = delta_pairs(&nodes, &batch, now, 2).collect();
                pipeline.offer(MergeDelta {
                    seq: k + 1,
                    pairs,
                    statuses: vec!["live"; 4],
                    now,
                });
                // Only the tick is timed: the offer is a queue push.
                let t = Instant::now();
                pipeline.tick(now).expect("volatile publish");
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        out.push((name, median(&tick_ms)));
        if n != 300 {
            continue;
        }
        let reader = pipeline.reader();
        let snapshot = reader.snapshot();
        let pairs: Vec<(NodeId, NodeId)> =
            gen::query_pairs(&mut SplitMix64::new(NET_SEED, Stream::Points), n, 20_000)
                .into_iter()
                .map(|(a, b)| (nodes[a], nodes[b]))
                .collect();
        let mut next = pairs.iter().cycle();
        let bare = per_call_ns(9, 20_000, || {
            let &(a, b) = next.next().expect("cycle");
            black_box(snapshot.rtt(a, b).expect("known nodes"));
        });
        out.push(("oracle.point_ns", bare));
        let through_reader = per_call_ns(9, 20_000, || {
            let &(a, b) = next.next().expect("cycle");
            black_box(reader.rtt(a, b).expect("known nodes"));
        });
        out.push(("oracle.reader_overhead_ns", through_reader - bare));
        let ns = per_call_ns(9, 500, || {
            let &(a, _) = next.next().expect("cycle");
            black_box(snapshot.k_nearest(a, K_NEAREST).expect("known node"));
        });
        out.push(("oracle.knn_us", ns / 1e3));
        let ns = per_call_ns(9, 5_000, || {
            let &(a, b) = next.next().expect("cycle");
            black_box(snapshot.best_via(a, b).expect("known nodes"));
        });
        out.push(("oracle.detour_ns", ns));
        let view = snapshot.view();
        let ns = per_call_ns(9, 5_000, || {
            let &(a, b) = next.next().expect("cycle");
            black_box(view.best_detour(a.0, b.0));
        });
        out.push(("core.best_detour_ns", ns));
    }
}

/// Every fixture-based unit cost, by per-layer metric name.
pub fn unit_costs() -> Costs {
    let mut out = Costs::new();
    onion_crypto(&mut out);
    tor_protocol(&mut out);
    netsim_layer(&mut out);
    tor_sim_and_core(&mut out);
    oracle_layer(&mut out);
    out
}
