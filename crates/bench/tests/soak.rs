//! The chaos soak as tests: `chaos_soak`'s own run function, held to
//! its invariants (monotone progress, only plausible estimates cached,
//! quarantines eventually released) over longer runs than CI's smoke.
//!
//! Run with `cargo test -q -p bench --test soak -- --ignored soak`.

use bench::storm::{scanner_storm, ScanOutcome, ROUND_SECS};
use ting::obs::Obs;

const SEED: u64 = 0x50AC;

fn run(seed: u64, hours: u64, kill_at: Option<u64>) -> ScanOutcome {
    let outcome = scanner_storm(seed, hours * 3600 / ROUND_SECS, kill_at, &Obs::off());
    assert_eq!(outcome.violations, Vec::<String>::new());
    outcome
}

/// Four virtual hours of churn + crashes + overload, once uninterrupted
/// and once killed at a mid-storm round, must converge to bit-identical
/// scanner state and timeout estimators.
#[test]
#[ignore = "long soak; run explicitly with -- --ignored"]
fn soak_storm_killed_and_resumed_is_bit_identical() {
    let kill_at = 4 * 3600 / ROUND_SECS / 3;
    assert_eq!(
        run(SEED, 4, None),
        run(SEED, 4, Some(kill_at)),
        "kill/resume diverged from the uninterrupted storm"
    );
}

/// Same storm, same seed, twice — the soak itself must be reproducible
/// bit for bit, or none of the other invariants mean much.
#[test]
#[ignore = "long soak; run explicitly with -- --ignored"]
fn soak_storm_is_deterministic() {
    assert_eq!(run(SEED ^ 1, 2, None), run(SEED ^ 1, 2, None));
}
