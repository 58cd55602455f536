//! The storm binaries' command line, from outside: a number that does
//! not parse exits 2 naming itself before anything runs, whether it
//! came by flag or by variable — a mistyped seed must not run the
//! experiment at its default.

use std::process::Command;

/// Runs `chaos_soak` with `args` and `variable` set, expecting exit
/// code 2, `complaint` on stderr and nothing on stdout.
fn refused(args: &[&str], variable: Option<(&str, &str)>, complaint: &str) {
    let mut soak = Command::new(env!("CARGO_BIN_EXE_chaos_soak"));
    soak.env_remove("TING_SEED").env_remove("TING_HOURS");
    let out = soak.args(args).envs(variable).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{complaint}");
    assert_eq!(String::from_utf8_lossy(&out.stderr).trim_end(), complaint);
    assert!(out.stdout.is_empty(), "nothing ran");
}

#[test]
fn a_seed_that_does_not_parse_exits_2_by_flag_and_by_variable() {
    let banana = "\"banana\" is not a non-negative integer";
    refused(&["--seed", "banana"], None, &format!("--seed {banana}"));
    let variable = Some(("TING_SEED", "banana"));
    refused(&[], variable, &format!("TING_SEED={banana}"));
    refused(
        &["--virtual-hours", "-1"],
        None,
        "--virtual-hours \"-1\" is not a non-negative integer",
    );
}
