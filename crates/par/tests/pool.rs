//! The spawn-once pool under stress: task panics, concurrent callers from
//! unrelated OS threads, and growth past the first call's worker count.
//!
//! Every test takes `EXCLUSIVE`, so no other test of this binary holds the
//! pool while one runs; the concurrency test contends only with itself.

use std::collections::HashSet;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use dtp_par::{par_map_index, with_threads};

static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// Upper bound on any wait in these tests, so a broken pool fails an
/// assertion instead of hanging the suite.
const PATIENCE: Duration = Duration::from_secs(20);

fn exclusive() -> MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn on_pool_worker() -> bool {
    std::thread::current().name().is_some_and(|n| n.starts_with("dtp-par-"))
}

/// Blocks arrivals until `n` have arrived (or [`PATIENCE`] runs out).
struct Rendezvous {
    n: usize,
    arrived: Mutex<usize>,
    all_in: Condvar,
}

impl Rendezvous {
    fn new(n: usize) -> Self {
        Self { n, arrived: Mutex::new(0), all_in: Condvar::new() }
    }

    fn arrive(&self) {
        *self.arrived.lock().expect("rendezvous") += 1;
        self.all_in.notify_all();
        self.wait();
    }

    fn wait(&self) {
        let arrived = self.arrived.lock().expect("rendezvous");
        let _ = self.all_in.wait_timeout_while(arrived, PATIENCE, |a| *a < self.n);
    }
}

/// Counts tasks that have started but not yet returned or unwound.
struct Active<'a>(&'a AtomicUsize);

impl<'a> Active<'a> {
    fn enter(n: &'a AtomicUsize) -> Self {
        n.fetch_add(1, Ordering::SeqCst);
        Self(n)
    }
}

impl Drop for Active<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

#[test]
fn task_panic_reaches_the_caller_and_the_pool_survives() {
    let _x = exclusive();
    let active = AtomicUsize::new(0);
    // A panic on a pool worker. The caller's tasks hold until the worker
    // has started one, so the worker surely runs a task; that task panics
    // only well after the caller has run out of work, so the caller must
    // wait for it.
    let worker_started = Rendezvous::new(1);
    let caught = panic::catch_unwind(|| {
        with_threads(2, || {
            par_map_index("test.panic.worker", 64, |i| {
                let _active = Active::enter(&active);
                if on_pool_worker() {
                    worker_started.arrive();
                    std::thread::sleep(Duration::from_millis(150));
                    panic!("worker task {i}");
                }
                worker_started.wait();
                i
            })
        })
    });
    let payload = caught.expect_err("the worker's panic propagates");
    let msg = payload.downcast_ref::<String>().map_or("", String::as_str);
    assert!(msg.starts_with("worker task"), "{msg}");
    assert_eq!(active.load(Ordering::SeqCst), 0, "no task still runs after the re-raise");

    // A panic in the caller's own share.
    let caught = panic::catch_unwind(|| {
        with_threads(2, || {
            par_map_index("test.panic.any", 64, |i| {
                let _active = Active::enter(&active);
                assert!(i != 0, "task 0");
                i
            })
        })
    });
    assert!(caught.is_err());
    assert_eq!(active.load(Ordering::SeqCst), 0);

    // The pool is usable afterwards, at the same and at a larger size.
    for threads in [2, 3] {
        let out = with_threads(threads, || par_map_index("test.panic.after", 500, |i| i * 2));
        assert_eq!(out, (0..500).map(|i| i * 2).collect::<Vec<_>>());
    }
}

#[test]
fn concurrent_callers_all_get_correct_results() {
    let _x = exclusive();
    let (tx, rx) = mpsc::channel();
    for t in 0..8u64 {
        let tx = tx.clone();
        std::thread::spawn(move || {
            let ok = (0..50u64).all(|round| {
                let n = 200 + (t * 37 + round) as usize % 300;
                let out = with_threads(2, || {
                    par_map_index("test.concurrent", n, |i| (i as u64) * t + round)
                });
                out == (0..n as u64).map(|i| i * t + round).collect::<Vec<_>>()
            });
            tx.send(ok).expect("receiver alive");
        });
    }
    drop(tx);
    for _ in 0..8 {
        let ok = rx.recv_timeout(PATIENCE).expect("every caller finishes (no deadlock)");
        assert!(ok, "a concurrent caller got a wrong result");
    }
}

#[test]
fn pool_grows_past_its_first_size() {
    let _x = exclusive();
    // Each participating thread's first task waits until all `threads`
    // participants have one, which forces every one of them to take part.
    let participants = |threads: usize| {
        let seen = Mutex::new(HashSet::new());
        let all_in = Rendezvous::new(threads);
        let out = with_threads(threads, || {
            par_map_index("test.grow", 64, |i| {
                let name = std::thread::current().name().unwrap_or("").to_string();
                if seen.lock().expect("names").insert(name) {
                    all_in.arrive();
                }
                i + 1
            })
        });
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
        seen.into_inner().expect("names")
    };
    assert_eq!(participants(2).len(), 2, "caller plus one worker");
    let four = participants(4);
    assert_eq!(four.len(), 4, "caller plus three workers: {four:?}");
    assert!(four.contains("dtp-par-3"), "{four:?}");
}
