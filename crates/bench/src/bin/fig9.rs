//! Regenerate Figure 9: performance improvement from multithreading
//! support, per CGRA size, page size, CGRA need and thread count.
//!
//! Usage:
//!   cargo run -p cgra-bench --bin fig9 --release [-- FLAGS]
//!
//! Flags:
//!   --csv                 emit CSV instead of tables
//!   --ablation-overhead   run ablation A1 instead
//!   --ablation-policy     run ablation A2 instead
//!   --faults SPEC         fault-injection degradation curve instead of
//!                         the grid: `at=<t>,page=<p>[,degrade]` or
//!                         `mtbf=<mean>,count=<n>[,seed=<s>][,degrade]`;
//!                         a `page=` outside the 8x8 page-4 fabric's 16
//!                         pages exits 2;
//!                         add `mttr=<cycles>` to make the faults
//!                         transient (pages repair after that interval)
//!                         and get the degradation-and-recovery curve
//!                         instead; `off` runs the plain fault-free grid
//!   --smoke               reduced seeds/work (fast CI smoke run)
//!   --jobs N, -j N        worker threads (default: available cores,
//!                         capped 16); output is byte-identical for all N;
//!                         a missing or non-positive value exits 2
//!   --no-cache            keep compiled profiles in memory only;
//!                         neither read nor write target/mapcache
//!   --trace PATH          append every mapper/transform/simulator event
//!                         to PATH as JSONL (replayable by trace_oracle)
//!   --metrics             print event counters and cycle histograms
//!
//! Any other argument exits 2, naming it.
//! A kernel that does not compile exits 1, naming the kernel and the
//! fabric.

use cgra_arch::{FaultSpec, PAPER_GRID};
use cgra_bench::engine::{Engine, EngineConfig};
use cgra_bench::fig9::{self, Coord, Fig9Params};
use cgra_bench::mapcache::MapCache;
use cgra_bench::obsflags::ObsFlags;
use cgra_sim::CgraNeed;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cgra_bench::reject_unknown_flags(
        "fig9",
        &args,
        &[
            "--csv",
            "--ablation-overhead",
            "--ablation-policy",
            "--smoke",
            "--no-cache",
            "--metrics",
        ],
        &["--faults", "--jobs", "-j", "--trace"],
    );
    let cfg = EngineConfig::from_args(&args).unwrap_or_else(|e| {
        eprintln!("fig9: {e}");
        std::process::exit(2);
    });
    let engine = Engine::new(cfg);
    let obs = ObsFlags::from_args(&args);
    let cache = MapCache::for_config(cfg);

    let mut params = Fig9Params::default();
    if args.iter().any(|a| a == "--smoke") {
        params.seeds = 2;
        params.work_per_thread = 20_000;
        params.bursts = 2;
    }

    if args.iter().any(|a| a == "--ablation-overhead") {
        println!("## Ablation A1 — switch-transformation overhead (8x8, page 4, 8 threads, need 87.5%)\n");
        println!("overhead_cycles, improvement_pct");
        let rows = fig9::ablation_overhead(&cache, 8, 4, &obs.tracer);
        for (overhead, imp) in cgra_bench::or_exit("fig9", rows) {
            println!("{overhead:>8}, {imp:+.1}%");
        }
        obs.finish();
        return;
    }
    if args.iter().any(|a| a == "--ablation-policy") {
        println!("## Ablation A2 — expansion policy (8x8, page 4, 8 threads, need 87.5%)\n");
        let rows = fig9::ablation_policy(&cache, 8, 4, &obs.tracer);
        for (name, imp) in cgra_bench::or_exit("fig9", rows) {
            println!("{name:>16}: {imp:+.1}%");
        }
        obs.finish();
        return;
    }

    // --faults: a fault curve at the highest-contention operating point,
    // instead of the full grid.
    if let Some(i) = args.iter().position(|a| a == "--faults") {
        let raw = args.get(i + 1).unwrap_or_else(|| {
            eprintln!("--faults requires a spec, e.g. --faults mtbf=20000,count=4");
            std::process::exit(2);
        });
        let base = FaultSpec::parse(raw).unwrap_or_else(|e| {
            // Point at the offending clause: the typed error carries its
            // byte span within the spec string.
            let (off, len) = e.span();
            eprintln!("--faults {raw}");
            eprintln!("         {}{} {e}", " ".repeat(off), "^".repeat(len.max(1)));
            std::process::exit(2);
        });
        if base.is_off() {
            // Fall through to the plain grid: it is fault-free by default,
            // so `--faults off` must be byte-identical to no flag at all.
            eprintln!("--faults off: nothing to inject; running the fault-free grid");
        } else {
            let at = Coord {
                faults: base,
                ..Coord::new(8, 4, CgraNeed::High, 8)
            };
            // A targeted fault on a page the fabric does not have would
            // strike nothing, and the curve would silently repeat its
            // fault-free row.
            if let FaultSpec::At { page, .. } = base {
                let pages = cgra_arch::fabric(at.dim, at.page_size)
                    .expect("the curve's operating point is a fabric")
                    .layout()
                    .num_pages();
                if usize::from(page) >= pages {
                    eprintln!(
                        "--faults {raw}: page={page} is out of range: the {0}x{0} page-{1} \
                         fabric has {pages} pages (0..={2})",
                        at.dim,
                        at.page_size,
                        pages - 1
                    );
                    std::process::exit(2);
                }
            }
            // Transient faults (an mttr) give the degradation curve its
            // repair dimension: fault-free and no-repair reference rows,
            // then descending mttr.
            let title = if base.mttr().is_some() {
                "Degradation-and-recovery curve"
            } else {
                "Degradation curve"
            };
            println!("## {title} — faults `{base}` (8x8, page 4, 8 threads, need 87.5%)\n");
            let rows = fig9::curve(at);
            let points: Vec<Coord> = rows.iter().map(|(_, p)| *p).collect();
            let results = fig9::sweep(&engine, &cache, &points, &params, &obs.tracer);
            println!("{}", fig9::render_curve(&base, &rows, &results));
            eprintln!("mapcache: {:?}", cache.stats());
            obs.finish();
            return;
        }
    }

    let results = fig9::sweep(&engine, &cache, &fig9::grid(), &params, &obs.tracer);
    // Cache statistics go to stderr so stdout stays byte-deterministic.
    eprintln!("mapcache: {:?}", cache.stats());
    let (points, errors) = fig9::partition_results(results);
    for (i, e) in &errors {
        eprintln!("point {i} failed: {e}");
    }

    if args.iter().any(|a| a == "--csv") {
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                vec![
                    p.dim.to_string(),
                    p.page_size.to_string(),
                    p.need.label().to_string(),
                    p.threads.to_string(),
                    format!("{:.2}", p.improvement_pct),
                    format!("{:.1}", p.mean_shrinks),
                ]
            })
            .collect();
        print!(
            "{}",
            cgra_bench::table::csv(
                &[
                    "dim",
                    "page_size",
                    "need",
                    "threads",
                    "improvement_pct",
                    "mean_shrinks"
                ],
                &rows
            )
        );
        obs.finish();
        if !errors.is_empty() {
            std::process::exit(1);
        }
        return;
    }

    for &(dim, _) in &PAPER_GRID {
        println!("## Figure 9 — {dim}x{dim} CGRA (improvement over single-threaded baseline)\n");
        println!("{}", fig9::render(&points, dim));
    }
    println!("## Headline (paper: >30% on 4x4, >75% on 6x6, >150% on 8x8)\n");
    for (dim, best) in fig9::headline(&points) {
        println!("{dim}x{dim}: best improvement at 16 threads = {best:+.1}%");
    }
    obs.finish();
    if !errors.is_empty() {
        std::process::exit(1);
    }
}
