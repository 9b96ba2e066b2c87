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
//! `tests/parallel_determinism.rs` enforces the contract end-to-end by
//! diffing `--jobs 1` against `--jobs 4` runs, in-memory and on-disk
//! cache.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many workers to use when the caller does not say: the machine's
/// available parallelism, capped at 16 (the sweep grids rarely benefit
/// beyond that, and the cap keeps shared-runner behaviour polite).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(16))
        .unwrap_or(1)
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

/// Sweep-execution knobs, usually parsed from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads (1 = fully serial; the reference for determinism
    /// diffs).
    pub jobs: usize,
    /// Whether compiled profiles are read from and written to the disk
    /// cache (`--no-cache` clears this; each profile is then compiled
    /// once per process and kept in memory only).
    pub use_cache: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            jobs: default_jobs(),
            use_cache: true,
        }
    }
}

/// A bad `--jobs` / `-j` argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobsError {
    /// The flag is the last argument, with no value after it.
    Missing,
    /// The value is not a positive integer.
    Invalid(String),
}

impl std::fmt::Display for JobsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobsError::Missing => write!(f, "--jobs requires a value, e.g. --jobs 4"),
            JobsError::Invalid(value) => {
                write!(f, "--jobs expects a positive integer, got {value:?}")
            }
        }
    }
}

impl std::error::Error for JobsError {}

impl EngineConfig {
    /// Parse `--jobs N` / `-j N` and `--no-cache` from CLI arguments,
    /// ignoring everything else (binaries layer their own flags on top).
    ///
    /// # Errors
    /// [`JobsError`] if `--jobs` is missing its value or the value is not
    /// a positive integer.
    pub fn from_args<S: AsRef<str>>(args: &[S]) -> Result<Self, JobsError> {
        let mut cfg = EngineConfig::default();
        let mut it = args.iter().map(|a| a.as_ref());
        while let Some(arg) = it.next() {
            match arg {
                "--jobs" | "-j" => {
                    let value = it.next().ok_or(JobsError::Missing)?;
                    cfg.jobs = value
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| JobsError::Invalid(value.to_owned()))?;
                }
                "--no-cache" => cfg.use_cache = false,
                _ => {}
            }
        }
        Ok(cfg)
    }
}

/// The sweep driver. Cheap to construct; holds no threads between runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Engine {
    cfg: EngineConfig,
}

impl Engine {
    /// An engine with `cfg`.
    pub fn new(cfg: EngineConfig) -> Self {
        Engine { cfg }
    }

    /// An engine with `jobs` workers and default caching.
    pub fn with_jobs(jobs: usize) -> Self {
        Engine {
            cfg: EngineConfig {
                jobs: jobs.max(1),
                ..EngineConfig::default()
            },
        }
    }

    /// The active configuration.
    pub fn config(&self) -> EngineConfig {
        self.cfg
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
        run_ordered(points, self.cfg.jobs, &f)
    }

    /// [`Engine::run`], but a panic inside one point is caught and
    /// reported as `Err(message)` in that point's slot instead of
    /// aborting the sweep — the last line of defence behind the typed
    /// errors, for code paths that still assert. Results stay in point
    /// order; the panic hook output still reaches stderr.
    pub fn run_caught<P, R, F>(&self, points: &[P], f: F) -> Vec<Result<R, String>>
    where
        P: Sync,
        R: Send,
        F: Fn(&P) -> R + Sync,
    {
        self.run(points, |p| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(p))).map_err(|payload| {
                payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panicked with a non-string payload".to_string())
            })
        })
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
        return points.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = points.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(p) = points.get(i) else { break };
                let r = f(p);
                *slots[i].lock().expect("slot lock poisoned") = Some(r);
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

    #[test]
    fn config_parsing() {
        let cfg = EngineConfig::from_args(&["--csv", "--jobs", "3", "--no-cache"]).unwrap();
        assert_eq!(cfg.jobs, 3);
        assert!(!cfg.use_cache);
        let cfg = EngineConfig::from_args(&["-j", "12"]).unwrap();
        assert_eq!(cfg.jobs, 12);
        assert!(cfg.use_cache);
        let cfg = EngineConfig::from_args(&[] as &[&str]).unwrap();
        assert!(cfg.jobs >= 1);
    }

    #[test]
    fn bad_jobs_value_is_a_typed_error() {
        for bad in ["zero", "0"] {
            let err = EngineConfig::from_args(&["--jobs", bad]).unwrap_err();
            assert_eq!(err, JobsError::Invalid(bad.to_owned()));
            assert_eq!(
                err.to_string(),
                format!("--jobs expects a positive integer, got \"{bad}\"")
            );
        }
        for flag in ["--jobs", "-j"] {
            let err = EngineConfig::from_args(&["--csv", flag]).unwrap_err();
            assert_eq!(err, JobsError::Missing);
            assert!(err.to_string().starts_with("--jobs requires a value"));
        }
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
    fn run_caught_isolates_a_panicking_point() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output quiet
        let out = Engine::with_jobs(4).run_caught(&[1u32, 2, 3, 4], |&p| {
            if p == 3 {
                panic!("point {p} exploded");
            }
            p * 10
        });
        std::panic::set_hook(prev);
        assert_eq!(out[0], Ok(10));
        assert_eq!(out[1], Ok(20));
        assert_eq!(out[2], Err("point 3 exploded".to_string()));
        assert_eq!(out[3], Ok(40));
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
