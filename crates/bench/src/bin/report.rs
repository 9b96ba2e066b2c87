//! Regenerate the complete paper-vs-measured report backing
//! EXPERIMENTS.md: Figure 8, Figure 9 and its lower bound, the
//! ablations, and the transformation-speed measurement.
//!
//! Usage: `cargo run -p cgra-bench --bin report --release > experiments.out`
//!
//! Flags: `--jobs N` / `-j N` (worker threads; the mapper uses the cores
//! the workers leave idle; a missing or non-positive value exits 2). A
//! flag given twice (`-j 1 --jobs 2`), or any other argument, exits 2,
//! naming it.
//!
//! Stdout is byte-identical for every N except for the time column of
//! the Claim C1 table, a wall-clock measurement (per ring, the median of
//! 5 batches of 10 back-to-back transforms): the one place this
//! repository times the PageMaster transform against ring size
//! (§VI-D.3). Every other speed figure comes from `perfbench`.

use cgra_bench::cli::Spec;
use cgra_bench::fig9::Fig9Params;
use cgra_bench::mapcache::MapCache;
use cgra_bench::{fig8, fig9};
use cgra_core::{transform_pagemaster, PagedSchedule};
use cgra_obs::Tracer;
use std::hint::black_box;
use std::time::Instant;

const FLAGS: Spec = Spec {
    switches: &[],
    valued: &["--jobs"],
    positional: None,
};

fn main() {
    let args = FLAGS.parse_env("report", 1);
    let engine = args.or_exit(args.engine());
    // One cache for the whole report: Fig. 8 warms exactly the per-kernel
    // profiles the Fig. 9 libraries are assembled from.
    let cache = MapCache::default();

    println!("# Experiment report (regenerated)\n");
    println!("Generated by `cargo run -p cgra-bench --bin report --release`.\n");

    // ------------------------------------------------------------------
    println!("## Figure 8 — performance impact of the paging constraints\n");
    let f8 = cgra_bench::or_exit("report", fig8::run_all(&engine, &cache, &Tracer::off()));
    for &(dim, _) in &cgra_arch::PAPER_GRID {
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
    for &(dim, _) in &cgra_arch::PAPER_GRID {
        println!("### {dim}x{dim} CGRA\n");
        println!("{}", fig9::render(&f9, dim));
    }
    println!("### Headline (paper: >30% / >75% / >150% on 4x4 / 6x6 / 8x8)\n");
    for (dim, best) in fig9::headline(&f9) {
        println!("- {dim}x{dim}: best improvement at 16 threads = **{best:+.1}%**");
    }
    println!();

    // The points at 8 and 16 threads, where threads contend for pages,
    // against `cgra_sim::makespan_bound`: the ceiling on their
    // improvement, and how close the simulator comes to the bound.
    println!("## Figure 9 lower bound — the ceiling at 8 and 16 threads\n");
    println!("| fabric | need | threads | improvement | ceiling | LB/MT |");
    println!("|---|---|---|---|---|---|");
    for p in f9.iter().filter(|p| matches!(p.threads, 8 | 16)) {
        let (fabric, need) = (format!("{0}x{0}/p{1}", p.dim, p.page_size), p.need.label());
        let (t, imp, ceil, lb_mt) = (p.threads, p.improvement_pct, p.ceiling_pct, p.bound_ratio);
        println!("| {fabric} | {need} | {t} | {imp:+.1}% | {ceil:+.1}% | {lb_mt:.2} |");
    }
    println!();

    // ------------------------------------------------------------------
    println!("## Ablation A1 — switch-transformation overhead (8x8/p4, 8 threads, 87.5% need)\n");
    println!("| overhead (cycles) | improvement |");
    println!("|---|---|");
    let a1 = fig9::ablation_overhead(&cache, 8, 4, &Tracer::off());
    for (overhead, imp) in cgra_bench::or_exit("report", a1) {
        println!("| {overhead} | {imp:+.1}% |");
    }
    println!();

    println!("## Ablation A2 — expansion policy (8x8/p4, 8 threads, 87.5% need)\n");
    println!("| policy | improvement |");
    println!("|---|---|");
    let a2 = fig9::ablation_policy(&cache, 8, 4, &Tracer::off());
    for (name, imp) in cgra_bench::or_exit("report", a2) {
        println!("| {name} | {imp:+.1}% |");
    }
    println!();

    // ------------------------------------------------------------------
    println!("## Claim C1 — PageMaster transformation speed\n");
    println!("| ring | N pages | M | II_p | cells | outcome | time per transform |");
    println!("|---|---|---|---|---|---|---|");
    // Wrap rings halved, then the open rings on which Algorithm 1 runs its
    // whole warm-up and finds no steady state.
    let wrap_rings =
        [(8u16, 1u32), (16, 1), (32, 1), (16, 4), (32, 4)].map(|(n, ii)| (true, n, ii, n / 2));
    let open_rings = [(16, 8), (32, 16), (32, 31)].map(|(n, m)| (false, n, 1, m));
    for (wrap, n, ii, m) in wrap_rings.into_iter().chain(open_rings) {
        let p = PagedSchedule::synthetic_canonical(n, ii, wrap);
        let outcome = match transform_pagemaster(&p, m) {
            Ok(plan) => format!("period {}", plan.period),
            Err(e) => e.to_string(),
        };
        // The median of 5 batches of 10 back-to-back calls, so that one
        // slow batch (a preempted core) does not move it.
        let mut batches = [0; 5].map(|_| {
            let start = Instant::now();
            for _ in 0..10 {
                black_box(transform_pagemaster(black_box(&p), m)).ok();
            }
            start.elapsed() / 10
        });
        batches.sort_unstable();
        let per = batches[2];
        let ring = if wrap { "wrap" } else { "open" };
        println!(
            "| {ring} | {n} | {m} | {ii} | {} | {outcome} | {per:?} |",
            n as u32 * ii
        );
    }
    println!("\nEvery transform, including the warm-ups that find no steady state,");
    println!("finishes in microseconds to under a millisecond — negligible against");
    println!("kernel/data transfer, as §VII-B assumes.");
}
