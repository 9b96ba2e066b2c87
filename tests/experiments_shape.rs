//! Smoke tests asserting the *shapes* the paper's evaluation reports —
//! small-scale versions of the Figure 8/9 claims, so regressions in the
//! experimental story fail CI, not just eyeballs.

use cgra_bench::engine::Engine;
use cgra_bench::fig9::{run_point, Coord, Fig9Params};
use cgra_bench::mapcache::MapCache;
use cgra_bench::{fig8, fig9};
use cgra_obs::Tracer;
use cgra_sim::{CgraNeed, MtConfig};

/// Mean improvement of one reduced-size, fault-free Fig. 9 point.
fn improvement(cache: &MapCache, dim: u16, page_size: usize, threads: usize) -> f64 {
    let params = Fig9Params {
        seeds: 2,
        work_per_thread: 20_000,
        bursts: 2,
        mt: MtConfig::default(),
    };
    let at = Coord::new(dim, page_size, CgraNeed::High, threads);
    run_point(cache, &at, &params, &Tracer::off())
        .unwrap()
        .improvement_pct
}

/// Geometric-mean Fig. 8 performance of one fabric.
fn fig8_geomean(dim: u16, page_size: usize) -> f64 {
    let points =
        fig8::run_config(&Engine::default(), &MapCache::default(), dim, page_size).unwrap();
    fig8::summary(&points)[0].2
}

/// Fig. 8 shape: constraint losses shrink as pages grow, on every fabric.
#[test]
fn fig8_larger_pages_lose_less() {
    for &(dim, sizes) in &cgra_mt::arch::PAPER_GRID {
        let small = fig8_geomean(dim, sizes[0]);
        let large = fig8_geomean(dim, *sizes.last().unwrap());
        assert!(
            large >= small - 5.0,
            "{dim}x{dim}: page {} geomean {large:.1}% < page {} geomean {small:.1}%",
            sizes.last().unwrap(),
            sizes[0]
        );
    }
}

/// Fig. 8 shape: at the largest page size, losses are modest.
#[test]
fn fig8_large_pages_nearly_lossless() {
    let gm = fig8_geomean(4, 8);
    assert!(gm > 85.0, "4x4 page-8 geomean {gm:.1}%");
}

/// Fig. 9 shape: improvement grows with the array (paper's headline).
#[test]
fn fig9_improvement_grows_with_array_size() {
    let cache = MapCache::default();
    let i4 = improvement(&cache, 4, 4, 16);
    let i6 = improvement(&cache, 6, 4, 16);
    let i8 = improvement(&cache, 8, 4, 16);
    assert!(
        i4 < i6 && i6 < i8,
        "not monotone: {i4:.0}% {i6:.0}% {i8:.0}%"
    );
    assert!(i8 > 100.0, "8x8 at 16 threads only {i8:.0}%");
}

/// Fig. 9 shape: one thread gains nothing (and may pay the constraint
/// cost), matching the paper's negative bars at low thread counts.
#[test]
fn fig9_single_thread_pays_constraint_cost() {
    let i = improvement(&MapCache::default(), 6, 2, 1);
    assert!(i <= 0.0, "got {i:+.1}%");
}

/// Ablation A1 shape: overhead erodes the benefit monotonically-ish but
/// small overheads are indeed negligible (the paper's assumption).
#[test]
fn ablation_overhead_negligible_when_small() {
    let sweep = fig9::ablation_overhead(&MapCache::default(), 8, 4, &Tracer::off()).unwrap();
    let at0 = sweep[0].1;
    let at10 = sweep[1].1;
    assert!(
        (at0 - at10).abs() < 10.0,
        "10-cycle overhead moved the result from {at0:.1}% to {at10:.1}%"
    );
}
