//! Crash-safety tests for the checkpoint format: corruption is always
//! detected (proptest over byte flips and truncations), a sealed but
//! malformed body is an error and never a panic, other versions and
//! unknown config keys fail loudly, the `.bak` generation chain lets
//! [`Scanner::recover`] survive a corrupt primary, and a scanner
//! restored from its checkpoint re-renders and plans exactly like the
//! one that lived through the history (proptest over scan histories).

use proptest::prelude::*;
use ting::checkpoint::{bak_path, seal};
use ting::Scanner;

/// A handwritten document body exercising every line kind:
/// measurements, failure backoffs, health scores, and a quarantine
/// entry.
const HANDWRITTEN_BODY: &str = "# ting scan checkpoint v3\n\
         # nodes: 0 1 2 3\n\
         # config: staleness_ns=86400000000000 pairs_per_round=8 \
         retry_backoff_ns=300000000000 retry_backoff_cap_ns=7200000000000 \
         health=1 health_alpha=0.3 health_qbelow=0.25 health_rabove=0.6 \
         health_probation_ns=1800000000000 health_halflife_ns=21600000000000 \
         val=1 val_divfactor=4 val_divslack_ms=50 val_lightspeed=1 \
         val_tivfactor=8 val_tivmin_ms=5\n\
         # rounds: 4\n\
         m\t0\t1\t12.5\t1000000000\t1\n\
         m\t1\t2\t30.25\t2000000000\t2\n\
         f\t0\t3\t2\t9000000000\n\
         h\t0\t0.95\t2000000000\n\
         h\t3\t0.2\t9000000000\n\
         q\t3\t9000000000\t10800000000000\n";

fn handwritten() -> String {
    seal(HANDWRITTEN_BODY.to_owned())
}

/// The canonical serialization of the handwritten state: whatever
/// `to_checkpoint` itself emits after one parse.
fn canonical() -> String {
    Scanner::from_checkpoint(&handwritten())
        .expect("handwritten checkpoint must parse")
        .to_checkpoint()
}

#[test]
fn roundtrip_is_exact_including_health_state() {
    let scanner = Scanner::from_checkpoint(&handwritten()).unwrap();
    let health = scanner.health().expect("health=1 restores the model");
    assert!(health.is_quarantined(netsim::NodeId(3)));
    assert!(!health.is_quarantined(netsim::NodeId(0)));
    // Serialize → parse → serialize is a fixed point, byte for byte.
    let ck = scanner.to_checkpoint();
    let again = Scanner::from_checkpoint(&ck).unwrap().to_checkpoint();
    assert_eq!(ck, again);
}

#[test]
fn unknown_config_keys_error_loudly_naming_the_key() {
    let doc = seal(String::from(
        "# ting scan checkpoint v3\n\
         # nodes: 0 1\n\
         # config: staleness_ns=1000000000000 pairs_per_round=5 \
         retry_backoff_ns=1000000000 retry_backoff_cap_ns=2000000000 \
         health=0 val=0 frobnicate=3\n",
    ));
    let err = match Scanner::from_checkpoint(&doc) {
        Err(e) => e,
        Ok(_) => panic!("unknown config key must be refused"),
    };
    assert!(
        err.contains("frobnicate"),
        "error must name the unknown key, got: {err}"
    );
}

#[test]
fn other_versions_are_refused() {
    for version in ["v1", "v2", "v4"] {
        let body = HANDWRITTEN_BODY.replacen("v3", version, 1);
        // Sealed or bare (v1 predates the seal): refused by its magic.
        for doc in [seal(body.clone()), body] {
            let err = Scanner::from_checkpoint(&doc).err().expect(version);
            assert!(err.contains("bad magic line"), "{version}: {err}");
        }
    }
}

/// A document that passes the CRC but whose body is malformed must be
/// an error naming the line — the seal only proves the bytes are the
/// ones written, not that a sane writer wrote them.
#[test]
fn sealed_but_malformed_bodies_are_errors_not_panics() {
    let header = "# ting scan checkpoint v3\n\
                  # nodes: 0 1 2\n\
                  # config: staleness_ns=1000000000000 pairs_per_round=5 \
                  retry_backoff_ns=1000000000 retry_backoff_cap_ns=2000000000 health=1 val=0\n\
                  # rounds: 1\n";
    for (row, line, why) in [
        ("m\t0\t7\t10\t1000000000\t1\n", "line 5", "unknown node 7"),
        ("m\t7\t0\t10\t1000000000\t1\n", "line 5", "unknown node 7"),
        ("m\t0\t1\tNaN\t1000000000\t1\n", "line 5", "non-finite"),
        ("m\t0\t1\tinf\t1000000000\t1\n", "line 5", "non-finite"),
        ("m\t1\t1\t10\t1000000000\t1\n", "line 5", "itself"),
        ("f\t0\t7\t1\t5000000000\n", "line 5", "unknown node 7"),
        ("f\t2\t2\t1\t5000000000\n", "line 5", "itself"),
        ("h\t7\t0.5\t1000000000\n", "line 5", "unknown node 7"),
        ("q\t7\t1000000000\t2000000000\n", "line 5", "unknown node 7"),
    ] {
        let err = Scanner::from_checkpoint(&seal(format!("{header}{row}")))
            .err()
            .unwrap_or_else(|| panic!("{row:?} must be refused"));
        assert!(err.contains(line) && err.contains(why), "{row:?}: {err}");
    }
    let duplicate = seal(header.replace("# nodes: 0 1 2", "# nodes: 0 1 1"));
    let err = Scanner::from_checkpoint(&duplicate).err().unwrap();
    assert!(
        err.contains("line 2") && err.contains("duplicate node 1"),
        "{err}"
    );
}

#[test]
fn v3_roundtrip_carries_rounds_and_lineage() {
    let doc = seal(String::from(
        "# ting scan checkpoint v3\n\
         # nodes: 0 1 2\n\
         # config: staleness_ns=1000000000000 pairs_per_round=5 \
         retry_backoff_ns=1000000000 retry_backoff_cap_ns=2000000000 health=0 val=0\n\
         # rounds: 7\n\
         m\t0\t1\t10\t1000000000\t3\n\
         m\t1\t2\t20\t2000000000\t7\n",
    ));
    let scanner = Scanner::from_checkpoint(&doc).expect("v3 must parse");
    assert_eq!(scanner.rounds_run(), 7);
    assert_eq!(
        scanner.measured_round(netsim::NodeId(0), netsim::NodeId(1)),
        Some(3)
    );
    assert_eq!(
        scanner.measured_round(netsim::NodeId(2), netsim::NodeId(1)),
        Some(7)
    );
    // Serialize → parse → serialize is a fixed point, byte for byte.
    let ck = scanner.to_checkpoint();
    let again = Scanner::from_checkpoint(&ck).unwrap().to_checkpoint();
    assert_eq!(ck, again);
}

#[test]
fn v3_rows_without_round_are_corrupt() {
    let doc = seal(String::from(
        "# ting scan checkpoint v3\n\
         # nodes: 0 1\n\
         # config: staleness_ns=1000000000000 pairs_per_round=5 \
         retry_backoff_ns=1000000000 retry_backoff_cap_ns=2000000000 health=0 val=0\n\
         # rounds: 1\n\
         m\t0\t1\t10\t1000000000\n",
    ));
    let err = match Scanner::from_checkpoint(&doc) {
        Err(e) => e,
        Ok(_) => panic!("a v3 row without a round column must be refused"),
    };
    assert!(err.contains("bad round"), "got: {err}");
}

#[test]
fn save_promotes_backup_and_recover_falls_back() {
    let dir = std::env::temp_dir().join(format!("ting-ckpt-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scan.ckpt");

    let gen1 = Scanner::from_checkpoint(&handwritten()).unwrap();
    gen1.save(&path).unwrap();
    let gen1_text = std::fs::read_to_string(&path).unwrap();

    // A second save promotes the first generation to `.bak`.
    let mut gen2 = Scanner::from_checkpoint(&gen1_text).unwrap();
    gen2.set_node_location(netsim::NodeId(0), geo::GeoPoint::new(0.0, 0.0));
    gen2.save(&path).unwrap();
    assert_eq!(std::fs::read_to_string(bak_path(&path)).unwrap(), gen1_text);

    // A healthy primary wins.
    assert_eq!(
        Scanner::recover(&path).unwrap().to_checkpoint(),
        gen2.to_checkpoint()
    );

    // Corrupt the primary: recover falls back to the `.bak` generation.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    assert!(
        Scanner::load(&path).is_err(),
        "corrupt primary must not load"
    );
    assert_eq!(Scanner::recover(&path).unwrap().to_checkpoint(), gen1_text);

    // Both gone: the primary's error surfaces.
    std::fs::remove_file(bak_path(&path)).unwrap();
    assert!(Scanner::recover(&path).is_err());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn interrupted_save_leaves_a_loadable_checkpoint() {
    use ting::checkpoint::tmp_path;

    let dir = std::env::temp_dir().join(format!("ting-ckpt-interrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scan.ckpt");

    let gen1 = Scanner::from_checkpoint(&handwritten()).unwrap();
    gen1.save(&path).unwrap();
    // A save killed right after the rename leaves exactly this state:
    // the (fsynced) document under the final name, nothing else. It
    // must be complete and loadable, byte for byte.
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        gen1.to_checkpoint()
    );
    assert_eq!(
        Scanner::load(&path).unwrap().to_checkpoint(),
        gen1.to_checkpoint()
    );
    assert!(!tmp_path(&path).exists(), "no temp file survives a save");

    // A save killed *before* the rename instead leaves a torn `.tmp`
    // sibling. The primary is untouched by it, and the next save
    // replaces the garbage temp wholesale.
    std::fs::write(tmp_path(&path), "# torn half-written garb").unwrap();
    assert_eq!(
        Scanner::recover(&path).unwrap().to_checkpoint(),
        gen1.to_checkpoint()
    );
    let mut gen2 = Scanner::from_checkpoint(&gen1.to_checkpoint()).unwrap();
    gen2.set_node_location(netsim::NodeId(1), geo::GeoPoint::new(10.0, 20.0));
    gen2.save(&path).unwrap();
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        gen2.to_checkpoint()
    );
    assert!(!tmp_path(&path).exists());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bak_fallback_increments_counter_and_emits_event() {
    use netsim::{SimDuration, SimTime};
    use ting::obs::{names, Obs, ObsConfig};

    let dir = std::env::temp_dir().join(format!("ting-ckpt-observed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scan.ckpt");

    let gen1 = Scanner::from_checkpoint(&handwritten()).unwrap();
    gen1.save(&path).unwrap();
    let gen1_text = std::fs::read_to_string(&path).unwrap();
    Scanner::from_checkpoint(&gen1_text)
        .unwrap()
        .save(&path)
        .unwrap();

    let now = SimTime::ZERO + SimDuration::from_secs(5);

    // A healthy primary recovers silently: no counter, no event.
    let obs = Obs::new(ObsConfig::Trace);
    Scanner::recover_observed(&path, &obs, now).unwrap();
    assert_eq!(obs.counter_value("ting.checkpoint.recovered_bak"), 0);
    assert!(obs.events().is_empty());

    // Corrupt the primary: the `.bak` fallback is counted and traced.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    let recovered = Scanner::recover_observed(&path, &obs, now).unwrap();
    assert_eq!(recovered.to_checkpoint(), gen1_text);
    assert_eq!(obs.counter_value("ting.checkpoint.recovered_bak"), 1);
    let events = obs.events();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].name, names::SCAN_RECOVER_BAK);
    assert_eq!(events[0].t_ns, now.as_nanos());
    assert!(
        events[0].fields.iter().any(|(k, _)| *k == "primary_error"),
        "event must carry the primary's error: {:?}",
        events[0].fields
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

/// One step of a scan history. Rounds measure, and fail while a relay
/// is crashed; crashes and revivals drive the health model through
/// quarantine, probation probes and release; dropping a pair from the
/// owned set retires it.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Let `secs` of virtual time pass, then run a scan round.
    Round {
        secs: u64,
    },
    Crash {
        relay: usize,
    },
    Revive {
        relay: usize,
    },
    /// Disown the `nth` pair still owned.
    Retire {
        nth: usize,
    },
}

fn step((kind, pick, secs): (u8, u8, u64)) -> Step {
    match kind {
        0..=3 => Step::Round { secs },
        4 => Step::Crash {
            relay: pick as usize,
        },
        5 => Step::Revive {
            relay: pick as usize,
        },
        _ => Step::Retire { nth: pick as usize },
    }
}

/// A scanner that has lived through a history, with the network and
/// driver it lived it on and the pairs it still owns.
struct Lived {
    net: tor_sim::TorNetwork,
    ting: ting::Ting,
    scanner: Scanner,
    owned: Vec<(netsim::NodeId, netsim::NodeId)>,
}

impl Lived {
    /// One more round, `secs` of virtual time later.
    fn round(&mut self, secs: u64) -> (usize, usize, usize) {
        let at = self.net.sim.now() + netsim::SimDuration::from_secs(secs);
        self.net.sim.advance_to(at);
        let r = self.scanner.run_round(&mut self.net, &self.ting);
        (r.measured, r.failed, r.still_pending)
    }
}

/// Replays `steps` over the first `n` relays of a `seed`ed network.
/// Deterministic: two calls with equal arguments end in equal states.
fn live_through(seed: u64, n: usize, pairs_per_round: usize, steps: &[Step]) -> Lived {
    use netsim::SimDuration;
    let net = tor_sim::TorNetworkBuilder::live(seed, 10).build();
    let nodes: Vec<netsim::NodeId> = net.relays.iter().copied().take(n).collect();
    let config = ting::ScannerConfig {
        // Short horizons, so a history of a few virtual hours moves
        // pairs through every tier: fresh, stale, backoff and back.
        staleness: SimDuration::from_secs(2_000),
        pairs_per_round,
        retry_backoff: SimDuration::from_secs(300),
        retry_backoff_cap: SimDuration::from_secs(1_200),
        // Three blamed failures quarantine a relay (its first failed
        // pairs back off unparked); two good probation probes release
        // it.
        health: Some(ting::HealthConfig {
            ewma_alpha: 0.35,
            quarantine_below: 0.3,
            release_above: 0.6,
            probation_interval: SimDuration::from_secs(300),
            decay_half_life: SimDuration::from_hours(1),
        }),
        validation: None,
    };
    let mut lived = Lived {
        owned: ting::partition_pairs(&nodes, 1).remove(0),
        scanner: Scanner::new(nodes.clone(), config),
        ting: ting::Ting::new(ting::TingConfig::fast()),
        net,
    };
    for &step in steps {
        match step {
            Step::Round { secs } => {
                lived.round(secs);
            }
            Step::Crash { relay } => lived.net.crash_relay(nodes[relay % n], None),
            Step::Revive { relay } => lived.net.revive_relay(nodes[relay % n]),
            Step::Retire { nth } => {
                if lived.owned.len() > 1 {
                    lived.owned.remove(nth % lived.owned.len());
                    lived.scanner.restrict_to(&lived.owned);
                }
            }
        }
    }
    lived
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `from_checkpoint(to_checkpoint(s))` is `s`: it renders the same
    /// bytes, and — the queue rebuilt from the pair table being the
    /// queue that lived through the history — it plans the same rounds.
    /// Two identically seeded worlds replay one history; in one the
    /// scanner is then swapped for its own checkpoint. Three rounds at
    /// later instants must leave both worlds in the same state: any
    /// pair planned differently measures at a different instant.
    #[test]
    fn restored_scanner_rerenders_and_plans_like_the_one_that_lived(
        seed in 0u64..10_000,
        n in 3usize..9,
        pairs_per_round in 2usize..6,
        raw_steps in prop::collection::vec((0u8..7, any::<u8>(), 0u64..3_000), 3..9),
        // The first lands inside the retry backoffs the history left.
        later in (0u64..100, 0u64..1_500, 0u64..4_000),
    ) {
        let steps: Vec<Step> = raw_steps.into_iter().map(step).collect();
        let mut lived = live_through(seed, n, pairs_per_round, &steps);
        let mut restored = live_through(seed, n, pairs_per_round, &steps);
        let checkpoint = restored.scanner.to_checkpoint();
        prop_assert_eq!(&lived.scanner.to_checkpoint(), &checkpoint);

        restored.scanner = Scanner::from_checkpoint(&checkpoint).unwrap();
        // Scope is derived state, re-applied after every load.
        restored.scanner.restrict_to(&restored.owned);
        prop_assert_eq!(&restored.scanner.to_checkpoint(), &checkpoint);

        for secs in [later.0, later.1, later.2] {
            prop_assert_eq!(lived.round(secs), restored.round(secs));
            prop_assert_eq!(lived.scanner.to_checkpoint(), restored.scanner.to_checkpoint());
            prop_assert_eq!(lived.net.sim.now(), restored.net.sim.now());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Flipping any byte of a sealed checkpoint either fails the
    /// load or (for the rare flip that leaves the document equivalent,
    /// e.g. a hex-case flip inside the CRC trailer) reproduces the
    /// exact same scanner state — never a silently different one.
    #[test]
    fn flipped_bytes_never_load_different_state(pos in 0usize..8192, flip in 0u8..255) {
        let sealed = canonical();
        let pos = pos % sealed.len();
        let mut bytes = sealed.clone().into_bytes();
        bytes[pos] ^= flip + 1; // 1..=255: always a real change
        if let Ok(corrupt) = String::from_utf8(bytes) {
            match Scanner::from_checkpoint(&corrupt) {
                Err(_) => {}
                Ok(s) => prop_assert_eq!(s.to_checkpoint(), sealed),
            }
        }
    }

    /// Truncating a sealed checkpoint anywhere (beyond losing only
    /// the final newline) always fails the load.
    #[test]
    fn truncations_never_load(cut in 0usize..8192) {
        let sealed = canonical();
        let cut = cut % (sealed.len() - 1);
        prop_assert!(Scanner::from_checkpoint(&sealed[..cut]).is_err());
    }

    /// The parser proper — not just the CRC in front of it — is total:
    /// a valid body with some bytes overwritten and then *re-sealed*
    /// gets past the seal, and must come back as `Ok` or `Err`, never a
    /// panic. Replacement bytes are drawn from the format's own
    /// alphabet so mutations land on node ids, numbers, tags and
    /// separators instead of dying at the first non-digit.
    #[test]
    fn resealed_mutated_bodies_never_panic(
        edits in prop::collection::vec((0usize..8192, 0usize..64), 1..6),
    ) {
        const ALPHABET: &[u8] = b"0123456789\t\n .-=#mfhqeNainf";
        let mut body = HANDWRITTEN_BODY.as_bytes().to_vec();
        for (pos, pick) in edits {
            let pos = pos % body.len();
            body[pos] = ALPHABET[pick % ALPHABET.len()];
        }
        let body = String::from_utf8(body).expect("ASCII in, ASCII out");
        let _ = Scanner::from_checkpoint(&seal(body));
    }
}
