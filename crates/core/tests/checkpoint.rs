//! Crash-safety tests for the checkpoint format: corruption is always
//! detected (proptest over byte flips and truncations), a sealed but
//! malformed body is an error and never a panic, other versions and
//! unknown config keys fail loudly, and a scanner
//! restored from its checkpoint re-renders and plans exactly like the
//! one that lived through the history (proptest over scan histories).
//!
//! The three row documents — this checkpoint, the merged document and
//! the matrix TSV — share one reader, and so one mutation table each:
//! every structural edit of a writer-rendered document is an error
//! naming the edited line.

use proptest::prelude::*;
use ting::checkpoint::seal;
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

/// Handwritten bodies of the other two row documents, as inputs to
/// `resealed_mutated_bodies_never_panic` beside [`HANDWRITTEN_BODY`].
const MERGED_BODY: &str = "# ting merged matrix v2\n# nodes: 0 1 2\n# now_ns: 5000\n\
     s\t0\tlive\t2\t2\t0\t0\t1000\t2000\ns\t1\tdead\t1\t0\t0\t1\t-\t-\n\
     m\t0\t1\t12.5\t1000\t0\t4\nm\t1\t2\t80.25\t2000\t-\t-\n";
const TSV_BODY: &str = "# ting all-pairs rtt matrix v1\n# nodes: 0 1 2\n\
     0\t1\t12.5\n1\t2\t80.25\n";

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
    assert!(health.quarantined_nodes().contains(&netsim::NodeId(3)));
    assert!(!health.quarantined_nodes().contains(&netsim::NodeId(0)));
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
            assert!(err.contains("unsupported scan"), "{version}: {err}");
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
    assert!(scanner.to_checkpoint().contains("\n# rounds: 7\n"));
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
    assert!(err.contains("line 5: invalid round"), "got: {err}");
}

/// One step of a structural mutation; lines are 1-based.
enum Edit {
    /// Replaces the first `from` in the line by `to`.
    Replace(usize, &'static str, &'static str),
    /// Appends text to the line.
    Append(usize, &'static str),
    /// Cuts the line's last tab-separated field.
    DropField(usize),
    /// Repeats the line right after itself.
    Duplicate(usize),
    /// Inserts a new line, which gets this number.
    Insert(usize, &'static str),
    Remove(usize),
    Swap(usize, usize),
    /// Moves the line to the end of the document.
    MoveToEnd(usize),
    /// Drops every line after this one.
    TruncateAfter(usize),
}
use Edit::*;

/// A named mutation of a rendered document and the line the loader
/// must blame for it.
type Mutation = (&'static str, &'static [Edit], usize);

fn apply(lines: &mut Vec<String>, edit: &Edit) {
    match *edit {
        Replace(n, from, to) => {
            assert!(lines[n - 1].contains(from), "{:?} / {from:?}", lines[n - 1]);
            lines[n - 1] = lines[n - 1].replacen(from, to, 1);
        }
        Append(n, text) => lines[n - 1].push_str(text),
        DropField(n) => {
            let cut = lines[n - 1].rfind('\t').expect("a row with fields");
            lines[n - 1].truncate(cut);
        }
        Duplicate(n) => lines.insert(n, lines[n - 1].clone()),
        Insert(n, text) => lines.insert(n - 1, text.to_owned()),
        Remove(n) => drop(lines.remove(n - 1)),
        Swap(a, b) => lines.swap(a - 1, b - 1),
        MoveToEnd(n) => {
            let line = lines.remove(n - 1);
            lines.push(line);
        }
        TruncateAfter(n) => lines.truncate(n),
    }
}

/// Applies every mutation to `rendered` (resealing when the document is
/// sealed) and requires `load` to refuse each one naming the right
/// line; reports every miss at once.
fn refuses_each(
    rendered: &str,
    sealed: bool,
    load: fn(&str) -> Option<String>,
    table: &[Mutation],
) {
    assert_eq!(load(rendered), None, "the rendered document loads");
    let body = match sealed {
        true => ting::checkpoint::verify_sealed(rendered).unwrap(),
        false => rendered,
    };
    let mut misses = Vec::new();
    for (name, edits, line) in table {
        let mut lines: Vec<String> = body.lines().map(str::to_owned).collect();
        edits.iter().for_each(|e| apply(&mut lines, e));
        let text = lines.join("\n") + "\n";
        let verdict = load(&if sealed { seal(text) } else { text });
        // `line N: …` from a field, `line N is not …` from a header
        // that is missing or out of place.
        let blames = |e: &String| {
            e.contains(&format!("line {line}:")) || e.contains(&format!("line {line} is not"))
        };
        if !verdict.as_ref().is_some_and(blames) {
            misses.push(format!("{name}: want line {line}, got {verdict:?}"));
        }
    }
    assert!(
        misses.is_empty(),
        "{} loaded or misblamed:\n{}",
        misses.len(),
        misses.join("\n")
    );
}

/// The scan checkpoint [`canonical`] renders: magic, `# nodes:`,
/// `# config:`, `# rounds:` on lines 1–4, then `m m f h h q`.
#[test]
fn every_structural_mutation_of_a_checkpoint_is_a_line_numbered_error() {
    const HEALTH_KEYS: &str = "health=1 health_alpha=0.3 health_qbelow=0.25 health_rabove=0.6 \
                               health_probation_ns=1800000000000 health_halflife_ns=21600000000000";
    let table: &[Mutation] = &[
        // The cases found loading at the parent commit.
        (
            "m row with trailing garbage fields",
            &[Append(5, "\tGARBAGE\textra")],
            5,
        ),
        ("no '# config:' prefix", &[Replace(3, "# config: ", "")], 3),
        ("no '# rounds:' line", &[Remove(4)], 4),
        (
            "duplicated m row, other rtt",
            &[Insert(6, "m\t0\t1\t99\t1000000000\t1")],
            6,
        ),
        (
            "health=7, no health keys or rows",
            &[Replace(3, HEALTH_KEYS, "health=7"), TruncateAfter(7)],
            3,
        ),
        (
            "health_alpha=NaN",
            &[Replace(3, "health_alpha=0.3", "health_alpha=NaN")],
            3,
        ),
        (
            "health_qbelow=inf",
            &[Replace(3, "health_qbelow=0.25", "health_qbelow=inf")],
            3,
        ),
        // Drop a field, append a field, duplicate the row: every kind.
        ("m row short a field", &[DropField(5)], 5),
        ("f row short a field", &[DropField(7)], 7),
        ("h row short a field", &[DropField(8)], 8),
        ("q row short a field", &[DropField(10)], 10),
        ("f row with a surplus field", &[Append(7, "\t1")], 7),
        ("h row with a surplus field", &[Append(8, "\t1")], 8),
        ("q row with a surplus field", &[Append(10, "\t1")], 10),
        ("'# rounds:' with a surplus field", &[Append(4, " 9")], 4),
        ("duplicated m row", &[Duplicate(5)], 6),
        ("duplicated f row", &[Duplicate(7)], 8),
        ("duplicated h row", &[Duplicate(8)], 9),
        ("duplicated q row", &[Duplicate(10)], 11),
        // Headers are positional and required.
        ("no '# nodes:' line", &[Remove(2)], 2),
        ("no '# config:' line", &[Remove(3)], 3),
        ("'# config:' and '# rounds:' swapped", &[Swap(3, 4)], 3),
        ("'# rounds:' after the rows", &[MoveToEnd(4)], 4),
        (
            "doubled space in '# nodes:'",
            &[Replace(2, "0 1", "0  1")],
            2,
        ),
        // Numbers that steer control flow stay inside their ranges.
        ("h score above 1", &[Replace(8, "0.95", "1.5")], 8),
        ("h score NaN", &[Replace(8, "0.95", "NaN")], 8),
        (
            "health_rabove=-0.1",
            &[Replace(3, "health_rabove=0.6", "health_rabove=-0.1")],
            3,
        ),
        (
            "val_divfactor=-1",
            &[Replace(3, "val_divfactor=4", "val_divfactor=-1")],
            3,
        ),
        (
            "val_tivfactor=inf",
            &[Replace(3, "val_tivfactor=8", "val_tivfactor=inf")],
            3,
        ),
        ("val=2", &[Replace(3, "val=1", "val=2")], 3),
        (
            "val_lightspeed=7",
            &[Replace(3, "val_lightspeed=1", "val_lightspeed=7")],
            3,
        ),
        (
            "health keys under health=0",
            &[Replace(3, "health=1", "health=0")],
            3,
        ),
        (
            "f row with zero attempts",
            &[Replace(7, "\t2\t", "\t0\t")],
            7,
        ),
        ("m rtt inf", &[Replace(5, "12.5", "inf")], 5),
        // Nothing is skipped.
        ("blank line among the rows", &[Insert(6, "")], 6),
        ("comment line among the rows", &[Insert(6, "# note")], 6),
    ];
    let load = |text: &str| Scanner::from_checkpoint(text).err();
    refuses_each(&canonical(), true, load, table);
}

/// A merged document with both coverage statuses and both lineage
/// forms: magic, `# nodes:`, `# now_ns:` on lines 1–3, then `s s m m`.
#[test]
fn every_structural_mutation_of_a_merged_document_is_a_line_numbered_error() {
    use ting::shard::parse_merged_document;
    let rendered = seal(MERGED_BODY.to_owned());
    let table: &[Mutation] = &[
        ("s row short a field", &[DropField(5)], 5),
        ("m row short a field", &[DropField(6)], 6),
        ("s row with a surplus field", &[Append(4, "\t1")], 4),
        ("m row with a surplus field", &[Append(7, "\tjunk")], 7),
        ("'# now_ns:' with a surplus field", &[Append(3, " 9")], 3),
        ("duplicated m row", &[Duplicate(6)], 7),
        (
            "duplicated m row, other rtt",
            &[Insert(7, "m\t0\t1\t99\t1000\t0\t4")],
            7,
        ),
        ("duplicated s row", &[Duplicate(4)], 5),
        ("coverage rows reordered", &[Swap(4, 5)], 4),
        ("coverage rows from shard 1", &[Remove(4)], 4),
        ("no '# nodes:' line", &[Remove(2)], 2),
        ("no '# now_ns:' line", &[Remove(3)], 3),
        ("'# nodes:' and '# now_ns:' swapped", &[Swap(2, 3)], 2),
        ("m rtt NaN", &[Replace(6, "12.5", "NaN")], 6),
        (
            "lineage shard without a round",
            &[Replace(6, "\t0\t4", "\t0\t-")],
            6,
        ),
        (
            "lineage round without a shard",
            &[Replace(7, "\t-\t-", "\t-\t7")],
            7,
        ),
        ("unknown shard status", &[Replace(5, "dead", "gone")], 5),
        ("blank line among the rows", &[Insert(5, "")], 5),
    ];
    let load = |text: &str| parse_merged_document(text).err();
    refuses_each(&rendered, true, load, table);
}

/// A matrix TSV: magic and `# nodes:` on lines 1–2, then two rows.
#[test]
fn every_structural_mutation_of_a_matrix_tsv_is_a_line_numbered_error() {
    use netsim::NodeId;
    let mut matrix = ting::RttMatrix::new((0..3).map(NodeId).collect());
    matrix.set(NodeId(0), NodeId(1), 5.0);
    matrix.set(NodeId(1), NodeId(2), 80.25);
    let table: &[Mutation] = &[
        // Loaded at the parent commit: `0\t1\t5\tjunk`.
        ("row with a surplus field", &[Append(3, "\tjunk")], 3),
        ("row short a field", &[DropField(4)], 4),
        ("duplicated row", &[Duplicate(3)], 4),
        ("duplicated row, other rtt", &[Insert(5, "1\t0\t99")], 5),
        ("no '# nodes:' line", &[Remove(2)], 2),
        ("tab-separated '# nodes:'", &[Replace(2, "0 1", "0\t1")], 2),
        ("rtt inf", &[Replace(3, "\t5", "\tinf")], 3),
        ("comment line among the rows", &[Insert(3, "# note")], 3),
        ("blank line among the rows", &[Insert(4, "")], 4),
    ];
    let load = |text: &str| ting::RttMatrix::from_tsv(text).err();
    refuses_each(&matrix.to_tsv(), false, load, table);
    assert_eq!(load(TSV_BODY), None);
    // The magic line has no leeway either (it is line 1 by definition).
    let padded = matrix.to_tsv().replacen(" v1\n", " v1 \n", 1);
    let err = ting::RttMatrix::from_tsv(&padded).unwrap_err();
    assert!(err.contains("unsupported matrix header"), "{err}");
}

/// A world where every measurement fails: three relays of a live
/// network, all crashed, and a way to seal a checkpoint over them.
fn dead_world() -> (
    tor_sim::TorNetwork,
    [netsim::NodeId; 3],
    impl Fn(&str, &str) -> String,
) {
    let mut net = tor_sim::TorNetworkBuilder::live(11, 10).build();
    let ids = [net.relays[0], net.relays[1], net.relays[2]];
    ids.iter().for_each(|&relay| net.crash_relay(relay, None));
    let document = move |config: &str, rows: &str| {
        seal(format!(
            "# ting scan checkpoint v3\n# nodes: {} {} {}\n\
             # config: staleness_ns=1000000000000 pairs_per_round=5 {config}\n# rounds: 1\n{rows}",
            ids[0].0, ids[1].0, ids[2].0
        ))
    };
    (net, ids, document)
}

/// A sealed checkpoint can carry any `u64` into `now + pause`. The sum
/// saturates: the retry (or probation probe) is due at the end of time,
/// where an unchecked add panics in a debug build and, in a release
/// build, wraps into the past and hot-loops on a dead relay.
#[test]
fn an_unbounded_pause_from_a_checkpoint_saturates_the_retry_instant() {
    let (mut net, [a, b, _], document) = dead_world();
    let (ting, never) = (ting::Ting::new(ting::TingConfig::fast()), u64::MAX);

    let config = format!("retry_backoff_ns={never} retry_backoff_cap_ns={never} health=0 val=0");
    let mut scanner = Scanner::from_checkpoint(&document(&config, "")).unwrap();
    assert_eq!(scanner.run_round(&mut net, &ting).failed, 3);
    let retry = scanner.retry_state(a, b);
    assert_eq!(retry, Some((1, netsim::SimTime(never))));

    // The same sum through `probe_scheduled`: a quarantined relay whose
    // probation probe is due, under an unbounded probation interval.
    let config = format!(
        "retry_backoff_ns=1000000000 retry_backoff_cap_ns=2000000000 \
         health=1 health_probation_ns={never} val=0"
    );
    let rows = format!("h\t{0}\t0.1\t0\nq\t{0}\t0\t0\n", a.0);
    let mut scanner = Scanner::from_checkpoint(&document(&config, &rows)).unwrap();
    scanner.run_round(&mut net, &ting);
    let rescheduled = format!("q\t{}\t0\t{never}\n", a.0);
    let checkpoint = scanner.to_checkpoint();
    assert!(checkpoint.contains(&rescheduled), "{checkpoint}");
}

/// Likewise the consecutive-failure counter of an `f` row: at
/// `u32::MAX` one more failure leaves it there.
#[test]
fn a_saturated_attempt_counter_from_a_checkpoint_survives_another_failure() {
    let (mut net, [a, b, _], document) = dead_world();
    let config = "retry_backoff_ns=1000000000 retry_backoff_cap_ns=2000000000 health=0 val=0";
    let rows = format!("f\t{}\t{}\t{}\t0\n", a.0, b.0, u32::MAX);
    let mut scanner = Scanner::from_checkpoint(&document(config, &rows)).unwrap();
    scanner.run_round(&mut net, &ting::Ting::new(ting::TingConfig::fast()));
    let (attempts, retry_at) = scanner.retry_state(a, b).unwrap();
    assert_eq!(attempts, u32::MAX);
    assert!(retry_at <= net.sim.now() + netsim::SimDuration::from_secs(2));
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

    /// The reader proper — not just the CRC in front of it — is total
    /// under all three row documents: a valid body with some bytes
    /// overwritten and then *re-sealed* gets past the seal, and must
    /// come back as `Ok` or `Err`, never a panic. Replacement bytes are
    /// drawn from the formats' own alphabet so mutations land on node
    /// ids, numbers, tags and separators instead of dying at the first
    /// non-digit.
    #[test]
    fn resealed_mutated_bodies_never_panic(
        document in 0usize..3,
        edits in prop::collection::vec((0usize..8192, 0usize..64), 1..6),
    ) {
        const ALPHABET: &[u8] = b"0123456789\t\n .-=#mfhqseNainf";
        let mut body = [HANDWRITTEN_BODY, MERGED_BODY, TSV_BODY][document].as_bytes().to_vec();
        for (pos, pick) in edits {
            let pos = pos % body.len();
            body[pos] = ALPHABET[pick % ALPHABET.len()];
        }
        let body = String::from_utf8(body).expect("ASCII in, ASCII out");
        match document {
            0 => drop(Scanner::from_checkpoint(&seal(body))),
            1 => drop(ting::parse_merged_document(&seal(body))),
            _ => drop(ting::RttMatrix::from_tsv(&body)),
        }
    }
}
