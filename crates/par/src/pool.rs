//! The spawn-once work-stealing pool behind [`par_map`](crate::par_map).
//!
//! Worker threads are spawned on first use and grown to the largest worker
//! count any call has asked for; between calls they sleep on a condvar. A
//! call pre-splits the index range into chunks (about four per worker),
//! deals them round-robin onto per-worker deques, wakes the workers it
//! needs, and runs worker 0's share on the calling thread. Workers pop
//! their own deque from the front and, when empty, steal from a victim's
//! back — the classic arrangement that keeps owners cache-local while
//! spreading stragglers. No work is ever *produced* after start, so "every
//! deque empty" is a terminal state: each participant returns on it, and
//! the caller waits for every participant before it reads the output.
//!
//! Results are written straight into slot `i` of the output vector through
//! a shared raw pointer. Chunks partition `0..n`, so every slot is written
//! by exactly one worker — no two threads ever touch the same element.
//!
//! One call owns the pool at a time. A call that finds it owned by another
//! thread runs serially on its own thread rather than wait, so unrelated
//! callers never block or deadlock each other.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Upper bound on workers per call, a sanity clamp for absurd env values.
const MAX_THREADS: usize = 256;

/// Chunks dealt per worker; more chunks = finer stealing granularity.
const CHUNKS_PER_WORKER: usize = 4;

thread_local! {
    /// Scoped [`with_threads`] override for this thread.
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// True on pool worker threads, and on a caller while it runs its own
    /// share: nested calls run serial instead of fanning out a second
    /// level (oversubscription guard).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The worker count a parallel call issued right now would use.
///
/// Resolution order: [`with_threads`] override → `DTP_THREADS` env var
/// (values `< 1` or unparsable are ignored) → available parallelism.
/// Inside a pool worker this is always 1.
#[must_use]
pub fn thread_count() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    if let Some(n) = OVERRIDE.with(Cell::get) {
        return n.clamp(1, MAX_THREADS);
    }
    if let Some(n) = std::env::var("DTP_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
        if n >= 1 {
            return n.min(MAX_THREADS);
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_THREADS))
}

/// Run `f` with the worker count pinned to `threads` on this thread.
///
/// Scoped and panic-safe: the previous setting is restored when `f`
/// returns or unwinds. This is the deterministic-test and benchmarking
/// entry point — `with_threads(1, ..)` vs `with_threads(4, ..)` must
/// produce bitwise identical results from any [`par_map`] caller that
/// seeds per task.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(Some(threads.max(1)))));
    f()
}

/// Run `f` with this thread marked as a pool worker, restoring the flag
/// when `f` returns or unwinds.
fn as_worker<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_WORKER.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(IN_WORKER.with(|c| c.replace(true)));
    f()
}

/// Pool state shared by the owning caller and the workers.
struct State {
    /// Worker threads spawned so far; they hold indices `1..=spawned`.
    spawned: usize,
    /// Bumped once per job; each worker remembers the last one it saw.
    generation: u64,
    /// The current call's per-worker body, present from publication until
    /// every participant has returned from it. Its borrow lifetime is
    /// erased (see the `SAFETY` note in [`Claim::run`]).
    job: Option<&'static (dyn Fn(usize) + Sync)>,
    /// Worker indices `1..participants` run the current job.
    participants: usize,
    /// Participating workers that have not yet returned from the job.
    running: usize,
    /// The first panic a worker raised during the current job.
    panic: Option<Box<dyn Any + Send>>,
}

struct Pool {
    /// Set while one call owns the pool. The `Acquire` that claims it pairs
    /// with the `Release` that frees it, so each owner sees its
    /// predecessor's writes.
    busy: AtomicBool,
    state: Mutex<State>,
    /// Signalled when a job is published.
    wake: Condvar,
    /// Signalled when the last participating worker returns.
    done: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        busy: AtomicBool::new(false),
        state: Mutex::new(State {
            spawned: 0,
            generation: 0,
            job: None,
            participants: 0,
            running: 0,
            panic: None,
        }),
        wake: Condvar::new(),
        done: Condvar::new(),
    })
}

impl Pool {
    /// Lock the state. Jobs run outside the lock and worker panics are
    /// caught, so poisoning carries no broken invariant and is ignored.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take ownership of the pool for one call; `None` if another call
    /// holds it.
    fn claim(&'static self) -> Option<Claim> {
        self.busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .map(|_| Claim(self))
    }

    /// A worker thread's life: sleep until a job names it a participant,
    /// run its share, report back, repeat.
    fn work(&'static self, index: usize) {
        IN_WORKER.with(|c| c.set(true));
        let mut seen = 0;
        loop {
            let job = {
                let mut st = self.lock();
                loop {
                    if st.generation != seen {
                        seen = st.generation;
                        if let Some(job) = st.job.filter(|_| index < st.participants) {
                            break job;
                        }
                    }
                    st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            };
            let result = panic::catch_unwind(AssertUnwindSafe(|| job(index)));
            let mut st = self.lock();
            if let Err(payload) = result {
                st.panic.get_or_insert(payload);
            }
            st.running -= 1;
            if st.running == 0 {
                self.done.notify_one();
            }
        }
    }
}

/// Ownership of the pool for the duration of one call; released on drop,
/// including when the call unwinds.
struct Claim(&'static Pool);

impl Drop for Claim {
    fn drop(&mut self) {
        self.0.busy.store(false, Ordering::Release);
    }
}

impl Claim {
    /// Grow the pool to at least `workers` threads; returns how many exist
    /// (fewer if the OS refuses to spawn more). Workers live as long as the
    /// process, so their join handles are dropped: they never exit, and a
    /// task's panic is caught in [`Pool::work`] and re-raised on the caller.
    fn grow(&self, workers: usize) -> usize {
        let pool = self.0;
        let mut st = pool.lock();
        while st.spawned < workers {
            let index = st.spawned + 1;
            let spawned = std::thread::Builder::new()
                .name(format!("dtp-par-{index}"))
                .spawn(move || pool.work(index));
            if spawned.is_err() {
                break;
            }
            st.spawned = index;
        }
        st.spawned
    }

    /// Run `body(w)` for every `w` in `0..threads`: worker 0 on the
    /// calling thread, the others on pool workers `1..threads` (which must
    /// exist, see [`Claim::grow`]). Returns once every participant has
    /// returned; a panic in any share is then re-raised here.
    fn run<'a>(&self, threads: usize, body: &'a (dyn Fn(usize) + Sync + 'a)) {
        let pool = self.0;
        // SAFETY: this erases the borrow's lifetime so pool threads can
        // hold `body`. It is sound because this function does not return,
        // normally or by unwinding, before every participating worker has
        // returned from `body` and the job has been taken back out of the
        // shared state: the caller's own share runs under `catch_unwind`,
        // and nothing else between publication and the wait below can
        // unwind. No worker touches `body` after that point.
        let job = unsafe {
            std::mem::transmute::<&'a (dyn Fn(usize) + Sync + 'a), &'static (dyn Fn(usize) + Sync)>(
                body,
            )
        };
        {
            let mut st = pool.lock();
            st.generation += 1;
            st.job = Some(job);
            st.participants = threads;
            st.running = threads - 1;
        }
        pool.wake.notify_all();

        let own = panic::catch_unwind(AssertUnwindSafe(|| as_worker(|| body(0))));

        let worker_panic = {
            let mut st = pool.lock();
            while st.running > 0 {
                st = pool.done.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            st.job = None;
            st.panic.take()
        };
        if let Err(payload) = own {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            panic::resume_unwind(payload);
        }
    }
}

/// Output slots shared with workers.
struct Slots<R>(*mut Option<R>);
// SAFETY: the one field points into the output vector of a
// `par_map_index` call, which outlives every worker's use of it (the call
// waits for all of them). Workers write disjoint indices exactly once, so
// no slot is shared; `R: Send` because each `R` is made on one thread and
// dropped or returned on another.
unsafe impl<R: Send> Send for Slots<R> {}
// SAFETY: as for `Send`: `&Slots` only hands out the pointer, and writes
// through it go to disjoint slots.
unsafe impl<R: Send> Sync for Slots<R> {}

/// Parallel map over an index range: returns `[f(0), f(1), .., f(n-1)]`.
///
/// Semantically identical to `(0..n).map(f).collect()` for any pure (or
/// per-index-seeded) `f`, at any thread count — only wall-clock changes.
/// `label` names the stage for observability: the call is timed under a
/// `par.<label>` span and tasks/steals land in the global registry.
///
/// A panic in `f` propagates to the caller once every worker has stopped.
pub fn par_map_index<R, F>(label: &str, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let _span = dtp_obs::SpanGuard::enter(&format!("par.{label}"));
    dtp_obs::counter!("par.tasks").add(n as u64);

    let wanted = thread_count().min(n.max(1));
    if wanted <= 1 {
        dtp_obs::counter!("par.serial_calls").inc();
        return (0..n).map(f).collect();
    }
    let claim = pool().claim();
    let threads = claim.as_ref().map_or(1, |c| wanted.min(c.grow(wanted - 1) + 1));
    let Some(claim) = claim.filter(|_| threads > 1) else {
        // The pool is owned by another thread's call (or cannot spawn):
        // run serially here, still as a worker so nested calls stay serial.
        dtp_obs::counter!("par.serial_calls").inc();
        return as_worker(|| (0..n).map(f).collect());
    };
    dtp_obs::counter!("par.parallel_calls").inc();

    // Deal chunks round-robin onto per-worker deques.
    let chunk = n.div_ceil(threads * CHUNKS_PER_WORKER).max(1);
    let queues: Vec<Mutex<VecDeque<Range<usize>>>> =
        (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
    let mut start = 0;
    let mut dealt = 0usize;
    while start < n {
        let end = (start + chunk).min(n);
        queues[dealt % threads].lock().expect("queue mutex").push_back(start..end);
        start = end;
        dealt += 1;
    }

    let steals = AtomicU64::new(0);
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let slots = Slots(out.as_mut_ptr());
    let body = |w: usize| {
        let slots = &slots;
        loop {
            // Own deque first (front), then steal (back).
            let mut job = queues[w].lock().expect("queue mutex").pop_front();
            if job.is_none() {
                for off in 1..threads {
                    let victim = (w + off) % threads;
                    if let Some(r) = queues[victim].lock().expect("queue mutex").pop_back() {
                        steals.fetch_add(1, Ordering::Relaxed);
                        job = Some(r);
                        break;
                    }
                }
            }
            let Some(range) = job else { break };
            for i in range {
                let r = f(i);
                // SAFETY: chunks partition 0..n, so index `i` is written
                // by exactly this worker, exactly once, while `out` itself
                // is untouched until every worker has returned.
                unsafe { *slots.0.add(i) = Some(r) };
            }
        }
    };
    claim.run(threads, &body);
    drop(claim);

    dtp_obs::counter!("par.steals").add(steals.load(Ordering::Relaxed));
    out.into_iter()
        .map(|slot| slot.expect("every index in 0..n was chunked to a worker"))
        .collect()
}

/// Parallel map over a slice; `f` receives `(index, &item)`.
///
/// Output order matches input order at any thread count.
pub fn par_map<T, R, F>(label: &str, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_index(label, items.len(), |i| f(i, &items[i]))
}

/// Parallel for-each over an index range (side effects only).
///
/// `f` must be safe to call concurrently for distinct indices; iteration
/// order across indices is unspecified (within a chunk it is ascending).
pub fn par_for_each_index<F>(label: &str, n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let _unit: Vec<()> = par_map_index(label, n, f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn matches_serial_map_in_order() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|v| v * 3 + 1).collect();
        let got = with_threads(4, || par_map("test.map", &items, |_, v| v * 3 + 1));
        assert_eq!(got, expect);
        let got1 = with_threads(1, || par_map("test.map", &items, |_, v| v * 3 + 1));
        assert_eq!(got1, expect);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(with_threads(4, || par_map("test.empty", &empty, |_, v| *v)), empty);
        assert_eq!(with_threads(4, || par_map_index("test.one", 1, |i| i)), vec![0]);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let n = 257; // deliberately not a multiple of any chunking
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        with_threads(3, || {
            par_for_each_index("test.once", n, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn nested_calls_fall_back_to_serial() {
        // A par_map inside a par_map must not deadlock or oversubscribe;
        // the inner call observes thread_count() == 1.
        let inner_counts = with_threads(2, || {
            par_map_index("test.outer", 4, |_| {
                let inner = thread_count();
                let v = par_map_index("test.inner", 8, |i| i * i);
                assert_eq!(v, (0..8).map(|i| i * i).collect::<Vec<_>>());
                inner
            })
        });
        assert!(inner_counts.iter().all(|&c| c == 1), "{inner_counts:?}");
    }

    #[test]
    fn with_threads_restores_on_exit() {
        let outside = thread_count();
        with_threads(7, || assert_eq!(thread_count(), 7));
        assert_eq!(thread_count(), outside);
        let caught = std::panic::catch_unwind(|| {
            with_threads(5, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(thread_count(), outside, "override restored after unwind");
    }

    #[test]
    fn seeded_tasks_are_schedule_independent() {
        // The canonical pattern: each task derives its RNG from task_seed.
        let run = |threads| {
            with_threads(threads, || {
                par_map_index("test.seeded", 64, |i| {
                    let mut z = crate::task_seed(99, i as u64);
                    // a few mixing rounds standing in for "random work"
                    for _ in 0..10 {
                        z = z.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    }
                    z
                })
            })
        };
        assert_eq!(run(1), run(4));
        assert_eq!(run(2), run(8));
    }

    #[test]
    fn pool_metrics_are_recorded() {
        let before = dtp_obs::global().counter("par.tasks").get();
        with_threads(2, || par_map_index("test.metrics", 100, |i| i));
        let after = dtp_obs::global().counter("par.tasks").get();
        assert!(after >= before + 100);
        assert!(dtp_obs::global().histogram("span.par.test.metrics").count() >= 1);
    }
}
