//! `dtp-repro` treats its command line and its `DTP_*` knobs as user input:
//! a missing or unknown experiment name, or a non-numeric `DTP_SESSIONS` or
//! `DTP_SEED`, ends the process with exit code 2, one `error:` line and the
//! experiment list — never a panic (exit 101) — before any experiment runs.

use std::path::PathBuf;
use std::process::{Command, Output};

use dtp_bench::EXPERIMENTS;

/// Run `dtp-repro` with `args` and only the given `DTP_*` knobs set.
fn repro(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dtp-repro"));
    for var in ["DTP_SESSIONS", "DTP_SEED", "DTP_JSON", "DTP_LOG"] {
        cmd.env_remove(var);
    }
    cmd.args(args).envs(env.iter().copied()).output().expect("launch dtp-repro")
}

/// Assert a usage error: exit 2, nothing on stdout, and on stderr exactly
/// one `error:` line (containing `needle`) followed by every experiment name.
fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "stdout: {}", String::from_utf8_lossy(&out.stdout));
    assert!(!stderr.contains("panicked"), "{stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "{stderr}");
    assert!(errors[0].contains(needle), "{:?} lacks {needle:?}", errors[0]);
    let listed: Vec<&str> = stderr
        .lines()
        .find_map(|l| l.strip_prefix("experiments: "))
        .expect("experiment list")
        .split(' ')
        .collect();
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    assert_eq!(listed, names);
}

#[test]
fn a_missing_experiment_name_is_a_usage_error() {
    assert_usage_error(&repro(&[], &[]), "experiment name");
    assert_usage_error(&repro(&["fig2", "fig3"], &[]), "experiment name");
}

#[test]
fn an_unknown_experiment_name_is_a_usage_error() {
    assert_usage_error(&repro(&["fig1"], &[]), "fig1");
    assert_usage_error(&repro(&["run_all"], &[]), "run_all");
}

#[test]
fn malformed_knobs_are_usage_errors() {
    assert_usage_error(&repro(&["all"], &[("DTP_SESSIONS", "many")]), "DTP_SESSIONS");
    assert_usage_error(&repro(&["fig3"], &[("DTP_SESSIONS", "-5")]), "DTP_SESSIONS");
    assert_usage_error(&repro(&["all"], &[("DTP_SEED", "seven")]), "DTP_SEED");
}

/// One experiment run by name prints exactly its part of the pinned
/// `dtp-repro all` transcript.
#[test]
fn one_experiment_prints_its_slice_of_the_pinned_transcript() {
    let out = repro(&["fig3"], &[("DTP_SESSIONS", "40"), ("DTP_SEED", "7"), ("DTP_LOG", "quiet")]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(stdout.contains("Figure 3: Bandwidth trace statistics"), "{stdout}");
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/repro_sessions40_seed7.txt");
    let pinned = std::fs::read_to_string(fixture).expect("read the pinned transcript");
    assert!(pinned.contains(&stdout), "fig3 output is not a slice of the transcript:\n{stdout}");
}
