//! `dtp-repro <experiment|all>`: run one experiment of
//! [`dtp_bench::EXPERIMENTS`] by name, or all of the paper's in order, in
//! this one process. A bad name or knob exits with 2 and the experiment list.
//! A reader that closes stdout early (`| head`) ends the run quietly, as
//! for any Unix filter.

use std::process::ExitCode;

use dtp_bench::{select, RunConfig, EXPERIMENTS};

fn main() -> ExitCode {
    #[cfg(unix)]
    restore_default_sigpipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [name] = args.as_slice() else {
        return usage("expected one experiment name, or `all`");
    };
    let Some(chosen) = select(name) else {
        return usage(&format!("unknown experiment `{name}`"));
    };
    let cfg = match RunConfig::from_env() {
        Ok(cfg) => cfg,
        Err(e) => return usage(&e),
    };
    for (_, run) in chosen {
        run(&cfg);
    }
    ExitCode::SUCCESS
}

fn usage(error: &str) -> ExitCode {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!("error: {error}");
    eprintln!("usage: dtp-repro <experiment|all>");
    eprintln!("experiments: {}", names.join(" "));
    ExitCode::from(2)
}

/// Let `SIGPIPE` end the process, as it does for any C program: the Rust
/// runtime ignores it, which turns a closed stdout into a `println!` panic.
#[cfg(unix)]
fn restore_default_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    // SAFETY: the declaration matches libc's `signal` (a handler is
    // pointer-sized), and `SIG_DFL` only resets a disposition: no handler
    // runs Rust code, and no other thread exists yet.
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}
