//! The process's core budget, and the pool of parked worker threads that
//! runs work on the cores it hands out.
//!
//! **The budget** is one count of the cores that sweep workers and mapper
//! searches keep busy, against the machine's available parallelism, so
//! that a search runs its speculative attempts (see [`crate::engine`])
//! only on cores nothing else is using.
//!
//! A thread that runs work of its own — a sweep worker, a search's own
//! thread — holds one core with [`hold_thread`] while it runs. The hold
//! nests for free: a search on a thread that already holds a core takes
//! nothing more. Work started on another thread runs on a core taken with
//! [`take_idle`], which hands out only cores nobody holds. So busy cores
//! never exceed [`available`]; a thread that finds every core busy runs
//! without a hold, as it would have without the budget. A thread that
//! blocks until such work is done lends its core meanwhile (see
//! [`Pending::wait`]), so the work it waits for can use it.
//!
//! The core count is read once and cached: `available_parallelism` reads
//! cgroup files on every call, which alone costs a short search more
//! than its helpers save. The budget trusts that count: on a host that
//! gives the process's cores less than one core's time each, helpers and
//! side-by-side searches time-share with the threads they were meant to
//! run beside, and cost time instead of saving it.
//!
//! **The pool** runs jobs — a search's helper, the baseline search of a
//! compile run beside its constrained search — on parked worker threads,
//! so starting one costs a hand-off, not a thread spawn. A job is handed
//! to a parked worker if there is one; otherwise a new worker starts with
//! it. So the pool never has more workers than the most jobs ever in
//! flight at once, and a worker that finishes its job parks until the
//! next. A job owns everything it reads (a search's helper holds an
//! `Arc` of the search, with its own copies of the graph and the fabric)
//! and the core it runs on, which it gives back when it ends. Nobody
//! waits for a job to end unless they need its result.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex, OnceLock};

/// Cores held by some thread or job, process-wide. `Relaxed`: a count
/// that publishes no other data.
static BUSY: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread holds a core of its own (see [`hold_thread`]).
    static HOLDS: Cell<bool> = const { Cell::new(false) };
}

/// The machine's available parallelism (at least 1), read once.
pub fn available() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The cores nobody holds now.
pub fn idle() -> usize {
    available().saturating_sub(BUSY.load(Ordering::Relaxed))
}

/// A core held until the value is dropped, or nothing when none was
/// taken.
#[must_use = "the core is released when the hold is dropped"]
#[derive(Debug)]
pub struct Hold(Kind);

#[derive(Debug, PartialEq)]
enum Kind {
    /// No core was taken.
    Nothing,
    /// The core of the thread that took it, while the thread holds it
    /// (see [`hold_thread`]).
    Thread,
    /// A core for work on another thread (see [`take_idle`]).
    Core,
}

impl Drop for Hold {
    fn drop(&mut self) {
        let release = match self.0 {
            Kind::Nothing => false,
            // A thread that lent its core and found none to take back
            // holds nothing to release.
            Kind::Thread => HOLDS.with(|h| h.replace(false)),
            Kind::Core => true,
        };
        if release {
            BUSY.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl Hold {
    /// Make a core taken with [`take_idle`] the core of the thread it
    /// runs on, so that a hold the thread takes nests in it for free.
    fn on_this_thread(mut self) -> Hold {
        if self.0 == Kind::Core && !HOLDS.with(Cell::get) {
            HOLDS.with(|h| h.set(true));
            self.0 = Kind::Thread;
        }
        self
    }
}

/// Take one idle core, if there is one.
fn take() -> bool {
    BUSY.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |busy| {
        (busy < available()).then_some(busy + 1)
    })
    .is_ok()
}

/// Hold one core for the calling thread while the hold lives. Takes
/// nothing if the thread already holds one (the hold nests for free) or
/// if no core is idle.
pub fn hold_thread() -> Hold {
    if HOLDS.with(Cell::get) || !take() {
        return Hold(Kind::Nothing);
    }
    HOLDS.with(|h| h.set(true));
    Hold(Kind::Thread)
}

/// One idle core for work on another thread, or `None` when every core is
/// busy. The hold moves with the work (see [`spawn`]), which keeps it
/// while it runs.
pub fn take_idle() -> Option<Hold> {
    // Built lazily: a `Hold` releases its core when dropped.
    take().then(|| Hold(Kind::Core))
}

/// Run `wait`, which blocks without computing, with the calling thread's
/// core lent to the budget meanwhile; afterwards the thread takes a core
/// back if one is idle, and runs without one if not.
pub(crate) fn lending<R>(wait: impl FnOnce() -> R) -> R {
    if !HOLDS.with(|h| h.replace(false)) {
        return wait();
    }
    BUSY.fetch_sub(1, Ordering::Relaxed);
    let result = wait();
    if take() {
        HOLDS.with(|h| h.set(true));
    }
    result
}

/// A job for a pool worker.
type Job = Box<dyn FnOnce() + Send>;

/// The pool's jobs and workers.
struct Pool {
    /// Jobs handed to parked workers and not yet picked up, the parked
    /// workers with no job handed to them, and the counts the pool test
    /// reads.
    state: Mutex<PoolState>,
    /// Wakes a parked worker when a job is handed to it.
    wake: Condvar,
}

struct PoolState {
    queued: VecDeque<Job>,
    parked: usize,
    /// Jobs handed out.
    jobs: usize,
    /// Jobs handed out and not finished.
    in_flight: usize,
    /// The most jobs ever in flight at once.
    peak: usize,
    /// Workers started.
    workers: usize,
}

static POOL: Pool = Pool {
    state: Mutex::new(PoolState {
        queued: VecDeque::new(),
        parked: 0,
        jobs: 0,
        in_flight: 0,
        peak: 0,
        workers: 0,
    }),
    wake: Condvar::new(),
};

impl Pool {
    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.state.lock().expect("pool lock poisoned")
    }
}

/// Hand `job` to a parked worker, or start a worker with it; `false` if
/// no worker could be started.
fn submit(job: Job) -> bool {
    let mut pool = POOL.lock();
    pool.jobs += 1;
    pool.in_flight += 1;
    pool.peak = pool.peak.max(pool.in_flight);
    if pool.parked > 0 {
        pool.parked -= 1;
        pool.queued.push_back(job);
        drop(pool);
        POOL.wake.notify_one();
        return true;
    }
    pool.workers += 1;
    drop(pool);
    let started = std::thread::Builder::new().spawn(move || work(job)).is_ok();
    if !started {
        let mut pool = POOL.lock();
        pool.workers -= 1;
        pool.jobs -= 1;
        pool.in_flight -= 1;
    }
    started
}

/// A pool worker: run `job`, then each job handed to it, parking between
/// them. A job never unwinds: [`spawn`] catches its panic and sends it to
/// the waiter.
fn work(mut job: Job) {
    loop {
        job();
        let mut pool = POOL.lock();
        pool.in_flight -= 1;
        pool.parked += 1;
        job = loop {
            if let Some(next) = pool.queued.pop_front() {
                break next;
            }
            pool = POOL.wake.wait(pool).expect("pool lock poisoned");
        };
    }
}

/// The result of a job started with [`spawn`]: its value, or the payload
/// of its panic.
#[must_use = "a pending result is read with `wait`"]
pub struct Pending<R>(mpsc::Receiver<std::thread::Result<R>>);

impl<R> Pending<R> {
    /// Block until the job's result is in. The calling thread lends its
    /// core to the budget while it blocks.
    ///
    /// # Panics
    /// If the job panicked, with the job's own payload, as if it had run
    /// on the calling thread.
    pub fn wait(self) -> R {
        match lending(|| self.0.recv()).expect("a started job sends its result") {
            Ok(result) => result,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

/// Run `job` on a pool worker, holding `core` while it runs (see
/// [`take_idle`]). Returns `None`, dropping the job and its core unrun,
/// if no worker could be started.
pub fn spawn<R: Send + 'static>(
    core: Option<Hold>,
    job: impl FnOnce() -> R + Send + 'static,
) -> Option<Pending<R>> {
    let (tx, rx) = mpsc::sync_channel(1);
    let started = submit(Box::new(move || {
        let core = core.map(Hold::on_this_thread);
        let result = std::panic::catch_unwind(AssertUnwindSafe(job));
        // Given back before the result is sent, so whoever wakes for the
        // result finds the core idle.
        drop(core);
        let _ = tx.send(result);
    }));
    started.then_some(Pending(rx))
}

/// Jobs run, workers started and the most jobs ever in flight at once,
/// for the pool test.
#[cfg(test)]
pub(crate) fn stats() -> (usize, usize, usize) {
    let pool = POOL.lock();
    (pool.jobs, pool.workers, pool.peak)
}

/// Cores held now, for the budget tests.
#[cfg(test)]
pub(crate) fn busy() -> usize {
    BUSY.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thread_hold_nests_for_free() {
        std::thread::spawn(|| {
            // Searches in other tests hold cores for a while at most.
            let outer = loop {
                let hold = hold_thread();
                if hold.0 == Kind::Thread {
                    break hold;
                }
                std::thread::yield_now();
            };
            let inner = hold_thread();
            assert_eq!(inner.0, Kind::Nothing, "a nested hold takes no core");
            drop(inner);
            // Dropping the nested hold leaves the thread's hold in place.
            assert!(HOLDS.with(Cell::get));
            drop(outer);
            assert!(!HOLDS.with(Cell::get));
        })
        .join()
        .unwrap();
    }

    /// A job's panic reaches its waiter with the job's own payload, and
    /// the worker that ran it parks for the next job.
    #[test]
    fn a_panicking_job_reraises_its_payload_on_the_waiter() {
        let parked = || POOL.lock().parked > 0;
        loop {
            let boom: Pending<()> = spawn(None, || panic!("boom")).expect("a worker");
            let payload = std::panic::catch_unwind(AssertUnwindSafe(|| boom.wait()))
                .expect_err("the job panicked");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
            while !parked() {
                std::thread::yield_now();
            }
            let (jobs, workers, _) = stats();
            assert_eq!(spawn(None, || 7).expect("a worker").wait(), 7);
            let (jobs_after, workers_after, _) = stats();
            // Other tests share the pool: judge only a window in which
            // no job of theirs started.
            if jobs_after == jobs + 1 {
                assert_eq!(workers_after, workers, "the next job started a worker");
                break;
            }
        }
    }

    #[test]
    fn busy_cores_never_exceed_available_parallelism() {
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..2000 {
                        let own = hold_thread();
                        let helpers: Vec<Hold> = std::iter::from_fn(take_idle).take(3).collect();
                        assert!(busy() <= available());
                        assert!(usize::from(own.0 == Kind::Thread) + helpers.len() <= available());
                        // A lent core may go to anyone; the count stays
                        // within the budget either way.
                        lending(|| assert!(busy() <= available()));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(busy() <= available());
    }
}
