//! A Figure 9-style experiment in miniature: sweep thread counts on one
//! fabric and watch the multithreaded CGRA pull ahead of the FCFS
//! baseline.
//!
//! Run with: `cargo run --release --example multithreaded_workload [dim]`
//!
//! `dim` is the fabric's side (default 6); a value that is not a fabric
//! side exits 2, naming it.

use cgra_bench::cli::Spec;
use cgra_mt::prelude::*;

const ARGS: Spec = Spec {
    switches: &[],
    valued: &[],
    positional: Some("[dim]"),
};

fn main() {
    let args = ARGS.parse_env("multithreaded_workload", 1);
    let dim = args.or_exit(
        args.positional()
            .map_or(Ok(6), |v| v.parse().map_err(|e| format!("dim {v:?}: {e}"))),
    );
    let cgra = args.or_exit(cgra_mt::arch::fabric(dim, 4).map_err(|e| format!("dim {dim}: {e}")));
    println!(
        "Compiling the 11-kernel library for a {dim}x{dim} CGRA ({} pages)...\n",
        cgra.layout().num_pages()
    );
    let lib = KernelLibrary::compile_benchmarks(&cgra, &MapOptions::default(), &Tracer::off())
        .expect("library");

    println!("kernel    footprint(pages)  II(full)  II(half)  II(1 page)");
    let n = lib.num_pages;
    for p in &lib.profiles {
        // `n`, `n / 2` and 1 are all on the halving chain of `n`.
        let ii_at = |m: u16| p.try_ii_at(m).expect("on the halving chain");
        println!(
            "{:>8}  {:>16}  {:>8}  {:>8}  {:>10}",
            p.name,
            p.used_pages,
            p.ii_constrained,
            ii_at((n / 2).max(1)),
            ii_at(1)
        );
    }

    println!("\nthreads | need  | FCFS makespan | MT makespan | improvement | shrinks");
    for &threads in &[1usize, 2, 4, 8, 16] {
        for need in CgraNeed::ALL {
            let workload = generate(
                &lib,
                &WorkloadParams {
                    threads,
                    need,
                    work_per_thread: 60_000,
                    bursts: 4,
                    seed: 11,
                },
            );
            let base = simulate_baseline(&lib, &workload);
            let mt = simulate_multithreaded_faulty(&lib, &workload, MtConfig::default(), &[])
                .expect("simulates");
            println!(
                "{threads:>7} | {:>5} | {:>13} | {:>11} | {:>+10.1}% | {:>7}",
                need.label(),
                base.makespan,
                mt.makespan,
                improvement_percent(base.makespan, mt.makespan),
                mt.shrinks
            );
        }
    }
    println!(
        "\nLarger fabrics host more co-running kernels: try\n  cargo run --release --example multithreaded_workload 8"
    );
}
