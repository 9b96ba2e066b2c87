//! The process's core budget: one count of the cores that sweep workers
//! and mapper searches keep busy, against the machine's available
//! parallelism, so that a search runs its speculative attempts (see
//! [`crate::engine`]) only on cores nothing else is using.
//!
//! A thread that runs work of its own — a sweep worker, a search's own
//! thread — holds one core with [`hold_thread`] while it runs. The hold
//! nests for free: a search on a thread that already holds a core takes
//! nothing more. A search's helper threads each run on a core taken with
//! `take_idle`, which hands out only cores nobody holds. So busy cores
//! never exceed [`available`]; a thread that finds every core busy runs
//! without a hold, as it would have without the budget.
//!
//! The core count is read once and cached: `available_parallelism` reads
//! cgroup files on every call, which alone costs a short search more
//! than its helpers save.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Cores held by some thread, process-wide. `Relaxed`: a count that
/// publishes no other data.
static BUSY: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread holds a core through [`hold_thread`].
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

/// A core held until the value is dropped, or nothing when
/// [`hold_thread`] took none.
#[must_use = "the core is released when the hold is dropped"]
#[derive(Debug)]
pub struct Hold {
    /// Whether a core was taken.
    core: bool,
    /// Whether the hold marks its thread (see [`hold_thread`]).
    thread: bool,
}

impl Drop for Hold {
    fn drop(&mut self) {
        if self.thread {
            HOLDS.with(|h| h.set(false));
        }
        if self.core {
            BUSY.fetch_sub(1, Ordering::Relaxed);
        }
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
    let core = !HOLDS.with(Cell::get) && take();
    if core {
        HOLDS.with(|h| h.set(true));
    }
    Hold { core, thread: core }
}

/// One idle core for a helper thread to run on, or `None` when every core
/// is busy. The hold may move to the helper, which keeps it while it runs.
pub(crate) fn take_idle() -> Option<Hold> {
    // Built lazily: a `Hold` releases its core when dropped.
    take().then(|| Hold {
        core: true,
        thread: false,
    })
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
                if hold.core {
                    break hold;
                }
                std::thread::yield_now();
            };
            let inner = hold_thread();
            assert!(!inner.core, "a nested hold takes no core");
            drop(inner);
            // Dropping the nested hold leaves the thread's hold in place.
            assert!(HOLDS.with(Cell::get));
            drop(outer);
            assert!(!HOLDS.with(Cell::get));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn busy_cores_never_exceed_available_parallelism() {
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..2000 {
                        let own = hold_thread();
                        let helpers: Vec<Hold> = std::iter::from_fn(take_idle).take(3).collect();
                        assert!(BUSY.load(Ordering::Relaxed) <= available());
                        assert!(usize::from(own.core) + helpers.len() <= available());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(BUSY.load(Ordering::Relaxed) <= available());
    }
}
