//! Regenerate the complete paper-vs-measured report backing
//! EXPERIMENTS.md: Figure 8, Figure 9, the ablations, and the
//! transformation-speed measurement.
//!
//! Usage: `cargo run -p cgra-bench --bin report --release > experiments.out`
//!
//! Flags: `--jobs N` / `-j N` (worker threads; stdout is byte-identical
//! for every N; a missing or non-positive value exits 2) and
//! `--no-cache` (keep compiled profiles in memory only, skip
//! target/mapcache).

use cgra_bench::engine::{Engine, EngineConfig};
use cgra_bench::fig9::Fig9Params;
use cgra_bench::mapcache::MapCache;
use cgra_bench::{fig8, fig9};
use cgra_core::{transform_pagemaster, PagedSchedule};
use cgra_obs::Tracer;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = EngineConfig::from_args(&args).unwrap_or_else(|e| {
        eprintln!("report: {e}");
        std::process::exit(2);
    });
    let engine = Engine::new(cfg);
    // One cache for the whole report: Fig. 8 warms exactly the per-kernel
    // profiles the Fig. 9 libraries are assembled from.
    let cache = MapCache::for_config(cfg, Tracer::off());

    println!("# Experiment report (regenerated)\n");
    println!("Generated by `cargo run -p cgra-bench --bin report --release`.\n");

    // ------------------------------------------------------------------
    println!("## Figure 8 — performance impact of the paging constraints\n");
    let f8 = fig8::run_all(&engine, &cache);
    for &(dim, _) in &cgra_bench::GRID {
        println!("### {dim}x{dim} CGRA\n");
        println!("{}", fig8::render(&f8, dim));
    }
    println!("### Geometric means (performance %, 100 = no loss)\n");
    for (dim, size, gm) in fig8::summary(&f8) {
        println!("- {dim}x{dim}, page size {size}: **{gm:.1}%**");
    }
    println!();

    // ------------------------------------------------------------------
    println!("## Figure 9 — multithreading improvement\n");
    let (f9, f9_errors) = fig9::partition_results(fig9::sweep(
        &engine,
        &cache,
        &fig9::grid(),
        &Fig9Params::default(),
        &Tracer::off(),
    ));
    // A poisoned point keeps its error to stderr; the rest of the report
    // renders from the completed points.
    for (i, e) in &f9_errors {
        eprintln!("fig9 point {i} failed: {e}");
    }
    for &(dim, _) in &cgra_bench::GRID {
        println!("### {dim}x{dim} CGRA\n");
        println!("{}", fig9::render(&f9, dim));
    }
    println!("### Headline (paper: >30% / >75% / >150% on 4x4 / 6x6 / 8x8)\n");
    for (dim, best) in fig9::headline(&f9) {
        println!("- {dim}x{dim}: best improvement at 16 threads = **{best:+.1}%**");
    }
    println!();

    // ------------------------------------------------------------------
    println!("## Ablation A1 — switch-transformation overhead (8x8/p4, 8 threads, 87.5% need)\n");
    println!("| overhead (cycles) | improvement |");
    println!("|---|---|");
    for (overhead, imp) in fig9::ablation_overhead(&cache, 8, 4) {
        println!("| {overhead} | {imp:+.1}% |");
    }
    println!();

    println!("## Ablation A2 — expansion policy (8x8/p4, 8 threads, 87.5% need)\n");
    println!("| policy | improvement |");
    println!("|---|---|");
    for (name, imp) in fig9::ablation_policy(&cache, 8, 4) {
        println!("| {name} | {imp:+.1}% |");
    }
    println!();

    // ------------------------------------------------------------------
    println!("## Claim C1 — PageMaster transformation speed\n");
    println!("| N pages | II_p | cells | time per transform |");
    println!("|---|---|---|---|");
    for (n, ii) in [(8u16, 1u32), (16, 1), (32, 1), (16, 4), (32, 4)] {
        let p = PagedSchedule::synthetic_canonical(n, ii, true);
        let m = n / 2;
        let start = Instant::now();
        let reps = 50;
        for _ in 0..reps {
            let _ = transform_pagemaster(&p, m).unwrap();
        }
        let per = start.elapsed() / reps;
        println!("| {n} | {ii} | {} | {per:?} |", n as u32 * ii);
    }
    println!("\nAll transforms complete in microseconds-to-sub-millisecond — negligible");
    println!("against kernel/data transfer, as §VII-B assumes.");

    // Cache statistics on stderr so stdout stays byte-deterministic.
    eprintln!("mapcache: {:?}", cache.stats());
}
