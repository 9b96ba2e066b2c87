//! Figure 9 — regenerates the multithreading-improvement table for the
//! 6x6 CGRA, then times the simulators.
//!
//! `cargo bench -p cgra-bench --bench fig9_multithreading` prints the
//! Fig. 9(b)-style series before timing, with the in-repo microbench
//! harness, one baseline and one fault-free multithreaded simulation on
//! the 6x6 fabric, then one 16-thread multithreaded simulation on the
//! 8x8 fabric with 2-PE pages under transient MTBF faults with repair.

use cgra_arch::{FaultKind, FaultSpec};
use cgra_bench::engine::Engine;
use cgra_bench::fig9::{self, Fig9Params};
use cgra_bench::mapcache::MapCache;
use cgra_bench::microbench::Bench;
use cgra_mapper::MapOptions;
use cgra_obs::Tracer;
use cgra_sim::{
    generate, simulate_baseline, simulate_multithreaded_faulty, CgraNeed, MtConfig, WorkloadParams,
};
use std::hint::black_box;

fn print_figure(cache: &MapCache) {
    let params = Fig9Params {
        seeds: 3,
        ..Default::default()
    };
    let grid: Vec<_> = fig9::grid().into_iter().filter(|p| p.dim == 6).collect();
    let results = fig9::sweep(&Engine::default(), cache, &grid, &params, &Tracer::off());
    let points: Vec<_> = results.into_iter().map(Result::unwrap).collect();
    println!("\n## Figure 9(b) — 6x6 CGRA, improvement over single-threaded baseline\n");
    println!("{}", fig9::render(&points, 6));
}

fn main() {
    let cache = MapCache::in_memory();
    print_figure(&cache);

    let lib = cache.library(&cgra_arch::fabric(6, 4).unwrap(), &MapOptions::default());
    let workload = generate(
        &lib,
        &WorkloadParams {
            threads: 8,
            need: CgraNeed::High,
            work_per_thread: 60_000,
            bursts: 4,
            seed: 3,
        },
    );
    let bench = Bench::from_env();
    bench.run("fig9_simulators/baseline_8threads_6x6", || {
        simulate_baseline(black_box(&lib), black_box(&workload))
    });
    bench.run("fig9_simulators/multithreaded_8threads_6x6", || {
        simulate_multithreaded_faulty(
            black_box(&lib),
            black_box(&workload),
            MtConfig::default(),
            &[],
        )
    });

    let lib = cache.library(&cgra_arch::fabric(8, 2).unwrap(), &MapOptions::default());
    let workload = generate(
        &lib,
        &WorkloadParams {
            threads: 16,
            need: CgraNeed::High,
            work_per_thread: 60_000,
            bursts: 4,
            seed: 3,
        },
    );
    let faults = FaultSpec::Mtbf {
        mean: 20_000,
        count: 4,
        seed: 3,
        kind: FaultKind::Transient {
            repair_after: 4_000,
        },
    }
    .schedule(lib.num_pages);
    bench.run("fig9_simulators/multithreaded_16threads_8x8_faults", || {
        simulate_multithreaded_faulty(
            black_box(&lib),
            black_box(&workload),
            MtConfig::default(),
            black_box(&faults),
        )
        .expect("repairs bring every page back, so every thread finishes")
    });
}
