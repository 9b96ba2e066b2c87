//! Regenerate Figure 8: performance difference caused by the paging
//! constraints, per CGRA size and page size.
//!
//! Usage: `cargo run -p cgra-bench --bin fig8 --release [-- FLAGS]`
//!
//! Flags:
//!   --csv         emit CSV instead of tables
//!   --strict      run the strict-discipline ablation instead
//!   --jobs N, -j  worker threads (default: available cores, capped 16);
//!                 output is byte-identical for every N; a missing or
//!                 non-positive value exits 2
//!   --no-cache    keep compiled profiles in memory only; neither read
//!                 nor write target/mapcache
//!   --trace PATH  append every mapper/transform event to PATH as JSONL
//!                 (disk-cache hits emit nothing; pair with --no-cache
//!                 to trace every compilation once)
//!   --metrics     print event counters after the sweep
//!
//! Any other argument exits 2, naming it.
//! A kernel that does not compile exits 1, naming the kernel and the
//! fabric.

use cgra_bench::engine::{Engine, EngineConfig};
use cgra_bench::fig8;
use cgra_bench::mapcache::MapCache;
use cgra_bench::obsflags::ObsFlags;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cgra_bench::reject_unknown_flags(
        "fig8",
        &args,
        &["--csv", "--strict", "--no-cache", "--metrics"],
        &["--jobs", "-j", "--trace"],
    );
    let cfg = EngineConfig::from_args(&args).unwrap_or_else(|e| {
        eprintln!("fig8: {e}");
        std::process::exit(2);
    });
    let engine = Engine::new(cfg);
    let obs = ObsFlags::from_args(&args);
    let cache = MapCache::for_config(cfg);

    if args.iter().any(|a| a == "--strict") {
        println!("## Ablation — strict 1-step discipline vs stable-column (4x4, page 4)\n");
        println!("kernel    II(stable)  II(strict)");
        let rows = fig8::strict_ablation(&engine, &cache, 4, 4, &obs.tracer);
        for (name, stable, strict) in cgra_bench::or_exit("fig8", rows) {
            println!(
                "{name:>8}  {stable:>10}  {}",
                strict
                    .map(|x| x.to_string())
                    .unwrap_or_else(|| "unmappable".into())
            );
        }
        eprintln!("mapcache: {:?}", cache.stats());
        obs.finish();
        return;
    }
    let points = cgra_bench::or_exit("fig8", fig8::run_all(&engine, &cache, &obs.tracer));
    // Cache statistics go to stderr so stdout stays byte-deterministic.
    eprintln!("mapcache: {:?}", cache.stats());

    if args.iter().any(|a| a == "--csv") {
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                vec![
                    p.dim.to_string(),
                    p.page_size.to_string(),
                    p.kernel.clone(),
                    p.ii_baseline.to_string(),
                    p.ii_constrained.to_string(),
                    format!("{:.1}", p.performance_pct()),
                ]
            })
            .collect();
        print!(
            "{}",
            cgra_bench::table::csv(
                &[
                    "dim",
                    "page_size",
                    "kernel",
                    "ii_baseline",
                    "ii_constrained",
                    "perf_pct"
                ],
                &rows
            )
        );
        obs.finish();
        return;
    }

    for &(dim, _) in &cgra_arch::PAPER_GRID {
        println!("## Figure 8 — {dim}x{dim} CGRA (100% = identical to baseline)\n");
        println!("{}", fig8::render(&points, dim));
    }
    println!("## Geometric-mean performance per configuration\n");
    for (dim, size, gm) in fig8::summary(&points) {
        println!("{dim}x{dim}  page {size:>2}: {gm:6.1}%");
    }
    obs.finish();
}
