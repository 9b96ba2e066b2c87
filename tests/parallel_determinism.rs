//! Differential tests for the sweep engine's determinism contract: a
//! reduced Fig. 8 / Fig. 9 grid run with `jobs = 1` must produce
//! **byte-identical** reports to the same grid run with `jobs = 4`, with
//! an in-memory and an on-disk mapping cache. `jobs = 1` is the
//! pure-serial reference path (no threads, no locks), so any divergence
//! pins the blame on scheduling- or cache-dependent state.

use cgra_bench::engine::Engine;
use cgra_bench::fig8;
use cgra_bench::fig9::{self, Coord, Fig9Params, Fig9Point};
use cgra_bench::mapcache::MapCache;
use cgra_obs::{check_trace, RingSink, Tracer};
use cgra_sim::{CgraNeed, MtConfig};
use std::path::PathBuf;
use std::sync::Arc;

/// The reduced Fig. 8 grid: two page sizes on the 4x4.
fn fig8_reduced(engine: &Engine, cache: &MapCache) -> Vec<fig8::Fig8Point> {
    let mut points = fig8::run_config(engine, cache, 4, 2).unwrap();
    points.extend(fig8::run_config(engine, cache, 4, 8).unwrap());
    points
}

fn quick_params() -> Fig9Params {
    Fig9Params {
        seeds: 2,
        work_per_thread: 20_000,
        bursts: 2,
        mt: MtConfig::default(),
    }
}

/// The reduced Fig. 9 grid: 4x4 fabric, two page sizes, all needs, three
/// thread counts.
fn fig9_reduced_grid() -> Vec<Coord> {
    let mut points = Vec::new();
    for &s in &[2usize, 4] {
        for need in CgraNeed::ALL {
            for &t in &[1usize, 4, 16] {
                points.push(Coord::new(4, s, need, t));
            }
        }
    }
    points
}

/// The reduced Fig. 9 grid, driven through the sweep like the real one.
fn fig9_reduced(engine: &Engine, cache: &MapCache) -> Vec<Fig9Point> {
    fig9::sweep(
        engine,
        cache,
        &fig9_reduced_grid(),
        &quick_params(),
        &Tracer::off(),
    )
    .into_iter()
    .map(Result::unwrap)
    .collect()
}

/// A fresh directory for an on-disk cache, unique to `test`.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mapcache-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn fig8_is_byte_identical_across_jobs_and_cache_modes() {
    let reference = fig8_reduced(&Engine::with_jobs(1), &MapCache::in_memory());
    let reference_render = fig8::render(&reference, 4);
    let reference_summary = format!("{:?}", fig8::summary(&reference));

    // The on-disk arm shares one directory: jobs=1 writes the entries,
    // jobs=4 reads them back.
    let dir = scratch_dir("fig8-modes");
    for jobs in [1usize, 4] {
        for on_disk in [false, true] {
            let cache = if on_disk {
                MapCache::persistent_at(&dir)
            } else {
                MapCache::in_memory()
            };
            let got = fig8_reduced(&Engine::with_jobs(jobs), &cache);
            assert_eq!(
                got, reference,
                "fig8 points diverge at jobs={jobs} on_disk={on_disk}"
            );
            assert_eq!(
                fig8::render(&got, 4),
                reference_render,
                "fig8 rendered table diverges at jobs={jobs} on_disk={on_disk}"
            );
            assert_eq!(
                format!("{:?}", fig8::summary(&got)),
                reference_summary,
                "fig8 summary diverges at jobs={jobs} on_disk={on_disk}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig9_is_byte_identical_across_jobs_and_cache_modes() {
    let reference = fig9_reduced(&Engine::with_jobs(1), &MapCache::in_memory());
    let reference_render = fig9::render(&reference, 4);

    let dir = scratch_dir("fig9-modes");
    for jobs in [1usize, 4] {
        for on_disk in [false, true] {
            let cache = if on_disk {
                MapCache::persistent_at(&dir)
            } else {
                MapCache::in_memory()
            };
            let got = fig9_reduced(&Engine::with_jobs(jobs), &cache);
            // Fig9Point holds f64 means; PartialEq equality here really is
            // bit-level, which is exactly the contract under test.
            assert_eq!(
                got, reference,
                "fig9 points diverge at jobs={jobs} on_disk={on_disk}"
            );
            assert_eq!(
                fig9::render(&got, 4),
                reference_render,
                "fig9 rendered table diverges at jobs={jobs} on_disk={on_disk}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_compiles_each_fabric_once() {
    // Phase 1 of the sweep compiles every distinct fabric's library once;
    // phase 2 only hits the cache. Concurrent misses on one key compile
    // once, so the miss count is exact at any worker count.
    let kernels = cgra_dfg::kernels::all().len() as u64;
    let curve = fig9::curve(Coord {
        faults: cgra_arch::FaultSpec::Mtbf {
            mean: 10_000,
            count: 2,
            seed: 1,
            kind: cgra_arch::FaultKind::Kill,
        },
        ..Coord::new(4, 4, CgraNeed::High, 8)
    });
    let curve: Vec<Coord> = curve.into_iter().map(|(_, p)| p).collect();
    for jobs in [1usize, 4] {
        let misses = |points: &[Coord]| {
            let cache = MapCache::in_memory();
            let engine = Engine::with_jobs(jobs);
            let results = fig9::sweep(&engine, &cache, points, &quick_params(), &Tracer::off());
            assert!(results.iter().all(Result::is_ok), "{results:?}");
            cache.stats().misses
        };
        assert_eq!(
            misses(&fig9_reduced_grid()),
            kernels * 2,
            "grid, jobs={jobs}"
        );
        assert_eq!(misses(&curve), kernels, "curve, jobs={jobs}");
    }
}

/// Run the fault curve of `base` at the 4x4/page-4 operating point at
/// jobs=1 and jobs=4, each traced into a fresh sink: both must agree
/// point-for-point and byte-for-byte, every row must complete, both
/// traces must replay clean through the trace oracle, and `fired` must
/// hold for some row — proof the curve exercised the fault path.
fn assert_curve_is_deterministic_and_oracle_clean(
    base: cgra_arch::FaultSpec,
    fired: impl Fn(&Fig9Point) -> bool,
) {
    let rows = fig9::curve(Coord {
        faults: base,
        ..Coord::new(4, 4, CgraNeed::High, 8)
    });
    let points: Vec<Coord> = rows.iter().map(|(_, p)| *p).collect();
    let run = |jobs: usize| {
        let sink = Arc::new(RingSink::unbounded());
        let results = fig9::sweep(
            &Engine::with_jobs(jobs),
            &MapCache::in_memory(),
            &points,
            &quick_params(),
            &Tracer::new(sink.clone()),
        );
        (results, sink.drain())
    };

    let (reference, serial_trace) = run(1);
    assert!(reference.iter().all(Result::is_ok), "{reference:?}");
    let report = check_trace(&serial_trace).expect("serial curve trace replays clean");
    assert!(report.runs > 0, "traced runs must be recorded");
    assert_eq!(report.aborted_runs, 0);
    assert!(
        reference.iter().flatten().any(fired),
        "the fault path never fired; the curve tests nothing"
    );

    let (parallel, parallel_trace) = run(4);
    // Fig9Point holds f64 means; equality is bit-level — the contract.
    assert_eq!(parallel, reference, "curve diverges at jobs=4");
    assert_eq!(
        fig9::render_curve(&base, &rows, &parallel),
        fig9::render_curve(&base, &rows, &reference),
        "rendered curve diverges at jobs=4"
    );
    let parallel_report = check_trace(&parallel_trace).expect("parallel curve trace replays clean");
    assert_eq!(
        parallel_report.runs, report.runs,
        "jobs=4 must trace the same number of runs as jobs=1"
    );
    assert_eq!(parallel_report.events, report.events);
}

#[test]
fn fault_curve_is_identical_across_jobs_and_traces_are_oracle_clean() {
    // The fault-injection path honours the same contract as the
    // fault-free grid. count=2 kills on the 4-page fabric means at most
    // half the fabric dies, so no scale of the curve can starve a thread.
    // Faults must actually strike — the revoke/shrink machinery runs.
    let base = cgra_arch::FaultSpec::Mtbf {
        mean: 10_000,
        count: 2,
        seed: 1,
        kind: cgra_arch::FaultKind::Kill,
    };
    assert_curve_is_deterministic_and_oracle_clean(base, |p| p.faults.any());
}

#[test]
fn recovery_curve_is_identical_across_jobs_and_traces_are_oracle_clean() {
    // Same contract for the transient-fault path: the mttr
    // degradation-and-recovery curve (fault-free row, no-repair row,
    // and the descending-mttr rows), whose traces now carry
    // PageRepaired and Reexpanded events. Repairs must actually fire —
    // the revive/re-expand machinery runs.
    let base = cgra_arch::FaultSpec::Mtbf {
        mean: 10_000,
        count: 2,
        seed: 1,
        kind: cgra_arch::FaultKind::Transient { repair_after: 500 },
    };
    assert_curve_is_deterministic_and_oracle_clean(base, |p| p.faults.repairs > 0);
}

#[test]
fn disk_cache_round_trip_is_also_identical() {
    // A profile loaded back from target/mapcache JSON must reproduce the
    // freshly computed report bytes too.
    let dir = std::env::temp_dir().join(format!("mapcache-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let reference = fig8_reduced(&Engine::with_jobs(1), &MapCache::in_memory());

    let writer = MapCache::persistent_at(&dir);
    let first = fig8_reduced(&Engine::with_jobs(4), &writer);
    assert_eq!(first, reference);

    // A fresh cache over the same directory serves from disk.
    let reader = MapCache::persistent_at(&dir);
    let second = fig8_reduced(&Engine::with_jobs(4), &reader);
    assert_eq!(second, reference, "disk-loaded profiles diverge");
    assert!(
        reader.stats().disk_hits > 0,
        "expected disk hits, got {:?}",
        reader.stats()
    );

    let _ = std::fs::remove_dir_all(&dir);
}
