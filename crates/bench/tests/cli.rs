//! `dtp-repro` treats its command line and its `DTP_*` knobs as user input:
//! a missing or unknown experiment name, or a non-numeric `DTP_SESSIONS` or
//! `DTP_SEED`, ends the process with exit code 2, one `error:` line and the
//! experiment list — never a panic (exit 101) — before any experiment runs.
//! Its output is pinned: `robustness` here, every other experiment by the
//! `dtp-repro all` transcript in `scripts/check.sh`.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use dtp_bench::EXPERIMENTS;

/// Run `dtp-repro` with `args` and only the given `DTP_*` knobs set.
fn repro(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dtp-repro"));
    for var in ["DTP_SESSIONS", "DTP_SEED", "DTP_JSON"] {
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

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures").join(name);
    std::fs::read_to_string(path).expect("read a pinned transcript")
}

/// One experiment run by name prints exactly its part of the pinned
/// `dtp-repro all` transcript.
#[test]
fn one_experiment_prints_its_slice_of_the_pinned_transcript() {
    let out = repro(&["fig3"], &[("DTP_SESSIONS", "40"), ("DTP_SEED", "7")]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(stdout.contains("Figure 3: Bandwidth trace statistics"), "{stdout}");
    let pinned = fixture("repro_sessions40_seed7.txt");
    assert!(pinned.contains(&stdout), "fig3 output is not a slice of the transcript:\n{stdout}");
}

/// `robustness`, which `all` skips, prints exactly its pinned transcript.
/// Re-bless an intended change with:
/// `DTP_SESSIONS=40 DTP_SEED=7 ./target/release/dtp-repro robustness > tests/fixtures/repro_robustness_sessions40_seed7.txt`
#[test]
fn robustness_prints_its_pinned_transcript() {
    let out = repro(&["robustness"], &[("DTP_SESSIONS", "40"), ("DTP_SEED", "7")]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert_eq!(stdout, fixture("repro_robustness_sessions40_seed7.txt"));
}

/// A reader that stops after one line (as `head -1` does) ends the run
/// without a panic report.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dtp-repro"))
        .arg("all")
        .env("DTP_SESSIONS", "40")
        .env("DTP_SEED", "7")
        .env_remove("DTP_JSON")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("launch dtp-repro");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read one line");
    let out = child.wait_with_output().expect("wait for dtp-repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}
