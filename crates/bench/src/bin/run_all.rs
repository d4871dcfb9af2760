//! Run every experiment binary (the full paper reproduction).
//!
//! Equivalent to invoking each `fig*`/`table*`/`extra*` binary; honours the
//! same `DTP_SESSIONS` / `DTP_SEED` / `DTP_JSON` environment knobs, plus
//! `DTP_LOG` for progress verbosity (the children's own output is passed
//! through untouched — it is the deliverable).
//!
//! Children are independent processes, so they fan out over dtp-par workers
//! (`DTP_THREADS`); each child's stdout/stderr is captured and replayed in
//! the fixed [`BINARIES`] order, so the combined transcript is byte-identical
//! to a sequential run regardless of the thread count. Children run their
//! own pipelines serially (DTP_THREADS=1 is forced on them when the parent
//! fans out) so the machine is not oversubscribed.

use std::io::Write;
use std::process::{Command, ExitStatus, Output};

use dtp_bench::Reporter;

const BINARIES: [&str; 17] = [
    "fig2_transactions",
    "fig3_traces",
    "fig4_qoe_distribution",
    "fig5_accuracy",
    "table2_confusion",
    "table3_ablation",
    "fig6_importance",
    "fig7_boxplots",
    "table4_packet_vs_tls",
    "table5_sessionid",
    "extra_models",
    "extra_flow_granularity",
    "extra_abr_ablation",
    "extra_emimic",
    "extra_realtime",
    "extra_startup_mos",
    "extra_detection_tradeoff",
];

fn main() {
    let reporter = Reporter::from_env();
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin directory").to_path_buf();
    let fan_out = dtp_par::thread_count() > 1;

    let results = dtp_par::par_map("run_all.binaries", &BINARIES, |i, bin| {
        reporter.verbose(&format!("[{}/{}] {bin}", i + 1, BINARIES.len()));
        let mut cmd = Command::new(dir.join(bin));
        if fan_out {
            // The parent already saturates the cores with one child per
            // worker; nested pipeline parallelism would only thrash.
            cmd.env("DTP_THREADS", "1");
        }
        cmd.output()
    });

    let mut failures = Vec::new();
    for (bin, result) in BINARIES.iter().zip(&results) {
        if let Ok(out) = result {
            replay(out);
        }
        note_exit(&reporter, bin, result.as_ref().map(|out| out.status), &mut failures);
    }

    // extra_intervals is cheap; run it last so a partial run still covers
    // every paper artifact above.
    reporter.verbose("[extra] extra_intervals");
    let status = Command::new(dir.join("extra_intervals")).status();
    note_exit(&reporter, "extra_intervals", status.as_ref().copied(), &mut failures);
    if !failures.is_empty() {
        reporter.warn(&format!("\nfailed: {failures:?}"));
        std::process::exit(1);
    }
    reporter.info("\nrun_all: every experiment binary completed");
}

/// Record `bin` in `failures`, with a warning, unless it launched and
/// exited successfully.
fn note_exit(
    reporter: &Reporter,
    bin: &'static str,
    status: Result<ExitStatus, &std::io::Error>,
    failures: &mut Vec<&'static str>,
) {
    match status {
        Ok(status) if status.success() => return,
        Ok(status) => reporter.warn(&format!("{bin} exited with {status}")),
        Err(e) => reporter.warn(&format!(
            "failed to launch {bin}: {e} (build with `cargo build --release -p dtp-bench` first)"
        )),
    }
    failures.push(bin);
}

/// Replay a captured child's streams on the parent's, preserving the split.
fn replay(out: &Output) {
    let _ = std::io::stdout().write_all(&out.stdout);
    let _ = std::io::stderr().write_all(&out.stderr);
}
