//! The parallel experiment-execution engine.
//!
//! Every sweep in this crate — the Figure 8 mapping grid, the Figure 9
//! simulation grid, the ablations — runs through [`Engine::run`]: a
//! self-scheduling fork-join driver over `std::thread::scope` (no
//! external dependencies; the build environment is offline).
//!
//! ## Determinism contract
//!
//! Parallel and serial runs produce **byte-identical** reports:
//!
//! * results land in a pre-sized slot vector indexed by *point index*,
//!   so output order never depends on completion order;
//! * workers pull the next point index from one shared atomic counter
//!   (work stealing at item granularity — a slow point never stalls the
//!   other workers, and idle workers drain whatever remains);
//! * any randomness inside a point must be seeded via [`point_seed`]
//!   from the point's *coordinates* — never from worker identity, queue
//!   position, or wall-clock;
//! * a panic inside one point propagates after the scope joins, so
//!   failures are not silently dropped.
//!
//! ## Cores
//!
//! Each worker (the calling thread, at one job) holds a core of the
//! process's core budget ([`cgra_mapper::cores`]) while it runs. A
//! compile inside a point runs its baseline search beside its
//! constrained one, and a mapper search runs its speculative attempts on
//! helpers, only on the cores the workers leave idle; both are jobs on
//! the budget's pool of parked threads. At `--jobs 1` on a machine with N
//! cores a point's compile and searches share N − 1 spare cores, at
//! `--jobs N` they get none, and as workers run out of points their
//! cores go to the compiles still running. A worker blocked on a
//! side-by-side search lends its core to it. Neither the searches'
//! results nor their traced events depend on where they ran, so neither
//! does the report.
//!
//! `tests/parallel_determinism.rs` enforces the contract end-to-end by
//! diffing `--jobs 1` against `--jobs 4` runs.

use cgra_mapper::cores;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many workers to use when the caller does not say: the machine's
/// available parallelism as the core budget counts it (see
/// [`cgra_mapper::cores`]), capped at 16 (the sweep grids rarely benefit
/// beyond that, and the cap keeps shared-runner behaviour polite).
pub fn default_jobs() -> usize {
    cores::available().min(16)
}

/// A deterministic 64-bit seed from a point's coordinates (FNV-1a).
///
/// Every stochastic component of a sweep point derives its RNG seed from
/// this — never from worker ids or execution order — which is what makes
/// `--jobs N` runs byte-identical for every `N`. Distinct coordinate
/// tuples (including different lengths) give well-separated seeds.
pub fn point_seed(coords: &[u64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(coords.len() as u64);
    for &c in coords {
        eat(c);
    }
    h
}

/// The sweep driver. Cheap to construct; holds no threads between runs.
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    /// Worker threads (1 = fully serial; the reference for determinism
    /// diffs).
    pub(crate) jobs: usize,
}

impl Default for Engine {
    /// [`default_jobs`] workers.
    fn default() -> Self {
        Engine {
            jobs: default_jobs(),
        }
    }
}

impl Engine {
    /// An engine with `jobs` workers.
    pub fn with_jobs(jobs: usize) -> Self {
        Engine { jobs: jobs.max(1) }
    }

    /// Evaluate `f` on every point, sharding across the engine's
    /// workers, and return results **in point order** (index `i` of the
    /// output is `f(&points[i])`, whatever the execution interleaving).
    pub fn run<P, R, F>(&self, points: &[P], f: F) -> Vec<R>
    where
        P: Sync,
        R: Send,
        F: Fn(&P) -> R + Sync,
    {
        run_ordered(points, self.jobs, &f)
    }
}

/// The fork-join core: `jobs` scoped workers self-schedule over the
/// point list via an atomic cursor and write into index-addressed slots.
fn run_ordered<P, R, F>(points: &[P], jobs: usize, f: &F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    if points.is_empty() {
        return Vec::new();
    }
    let jobs = jobs.max(1).min(points.len());
    if jobs == 1 {
        // The serial reference path: no threads, no locks — this is the
        // byte-level ground truth the parallel path must reproduce.
        let _core = cores::hold_thread();
        return points.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = points.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                let _core = cores::hold_thread();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(p) = points.get(i) else { break };
                    let r = f(p);
                    *slots[i].lock().expect("slot lock poisoned") = Some(r);
                }
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .expect("slot lock poisoned")
                .unwrap_or_else(|| panic!("point {i} produced no result"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_in_point_order() {
        let points: Vec<usize> = (0..257).collect();
        for jobs in [1, 2, 4, 16, 999] {
            let out = Engine::with_jobs(jobs).run(&points, |&p| p * 3);
            assert_eq!(
                out,
                points.iter().map(|p| p * 3).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn every_point_runs_exactly_once() {
        let points: Vec<u64> = (0..100).collect();
        let calls = AtomicU64::new(0);
        let out = Engine::with_jobs(8).run(&points, |&p| {
            calls.fetch_add(1, Ordering::Relaxed);
            p
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(Engine::with_jobs(4).run(&none, |&p| p).is_empty());
        assert_eq!(Engine::with_jobs(4).run(&[7u32], |&p| p + 1), vec![8]);
    }

    #[test]
    fn parallel_matches_serial_with_seeded_rng() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        // The intended usage pattern: per-point seeds from coordinates.
        let points: Vec<(u64, u64)> = (0..40).map(|i| (i, i * i)).collect();
        let work = |&(a, b): &(u64, u64)| {
            let mut rng = StdRng::seed_from_u64(point_seed(&[a, b]));
            (0..100).map(|_| rng.gen_range(0..1000u64)).sum::<u64>()
        };
        let serial = Engine::with_jobs(1).run(&points, work);
        let parallel = Engine::with_jobs(7).run(&points, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn point_seeds_are_distinct_and_length_sensitive() {
        let mut seen = HashSet::new();
        for a in 0..50u64 {
            for b in 0..50u64 {
                assert!(seen.insert(point_seed(&[a, b])), "collision at ({a},{b})");
            }
        }
        assert_ne!(point_seed(&[0]), point_seed(&[0, 0]));
        assert_ne!(point_seed(&[1, 2]), point_seed(&[2, 1]));
    }

    /// Concurrency proof that works even on a single-core machine:
    /// sleeping points overlap, so 8 x 50 ms at `jobs = 4` finishes in
    /// ~100 ms, not ~400 ms. Timing-based, so ignored by default; run
    /// with `cargo test -- --ignored engine_overlaps` when measuring.
    #[test]
    #[ignore = "timing-based; run explicitly when measuring concurrency"]
    fn engine_overlaps_blocking_points() {
        use std::time::{Duration, Instant};
        let points: Vec<u32> = (0..8).collect();
        let nap = |_: &u32| std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        Engine::with_jobs(1).run(&points, nap);
        let serial = start.elapsed();
        let start = Instant::now();
        Engine::with_jobs(4).run(&points, nap);
        let parallel = start.elapsed();
        assert!(
            parallel < serial / 2,
            "expected >=2x overlap: serial {serial:?}, jobs=4 {parallel:?}"
        );
    }

    #[test]
    fn panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            Engine::with_jobs(4).run(&[1u32, 2, 3], |&p| {
                if p == 2 {
                    panic!("boom");
                }
                p
            })
        });
        assert!(result.is_err());
    }
}
