//! The `cgra-mt` command line: analyze, map, shrink, and execute loop
//! kernels on a modelled CGRA.
//!
//! ```console
//! $ cgra-mt analyze builtin:sor --cgra 4
//! $ cgra-mt map builtin:mpeg2 --cgra 4 --page-size 4 --mode constrained
//! $ cgra-mt shrink builtin:laplace --pages 2
//! $ cgra-mt exec my_kernel.dfg --iters 16
//! $ cgra-mt dot builtin:sobel > sobel.dot
//! $ cgra-mt kernels
//! ```
//!
//! Kernel files use the format documented in
//! [`cgra_mt::kernel_text`]; `builtin:<name>` loads a benchmark kernel.
//!
//! Each command's flags are read by `cgra_bench::cli`: a valued flag's
//! value is never a flag, and a repeated flag exits 2.

use cgra_bench::cli::{self, Args, Flags, Spec};
use cgra_mt::arch::FabricError;
use cgra_mt::kernel_text;
use cgra_mt::prelude::*;

/// What `command` takes, or `None` for an unknown command.
fn spec(command: &str) -> Option<Spec> {
    let (valued, switches): (Flags, Flags) = match command {
        "kernels" | "dot" => (&[], &[]),
        "analyze" => (&["--cgra", "--page-size", "--rf"], &[]),
        "map" => (
            &["--cgra", "--page-size", "--rf", "--mode"],
            &["--placements"],
        ),
        "shrink" => (&["--cgra", "--page-size", "--rf", "--pages"], &[]),
        "exec" => (&["--cgra", "--page-size", "--rf", "--iters", "--seed"], &[]),
        _ => return None,
    };
    let positional = (command != "kernels").then_some("<kernel>");
    Some(Spec {
        switches,
        valued,
        positional,
    })
}

fn fabric(args: &Args) -> CgraConfig {
    let dim = args.or_exit(args.value("--cgra")).unwrap_or(4);
    let page = args.or_exit(args.value("--page-size")).unwrap_or(4);
    let rf = args.or_exit(args.value("--rf")).unwrap_or(32);
    match cgra_mt::arch::fabric(dim, page) {
        Ok(cgra) => cgra.with_rf_size(rf),
        Err(e) => {
            let key = match e {
                FabricError::Dim(_) => "--cgra",
                FabricError::PageSize(..) => "--page-size",
            };
            args.exit(format!("{key}: {e}"))
        }
    }
}

/// The most iterations `exec` runs: the machine holds every op and hop
/// instance of the run, so its memory grows with iterations × ops.
const MAX_ITERS: usize = 10_000;

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

fn main() {
    let Some(cmd) = cli::command() else {
        print_usage();
        return;
    };
    let Some(spec) = spec(&cmd) else {
        eprintln!("unknown command '{cmd}'\n");
        print_usage();
        std::process::exit(2);
    };
    let args = spec.parse_env("cgra-mt", 2);
    match cmd.as_str() {
        "kernels" => {
            for k in cgra_mt::dfg::kernels::all() {
                println!(
                    "{:>8}: {:>2} ops, {} mem, {}",
                    k.name,
                    k.num_nodes(),
                    k.num_mem_ops(),
                    if k.has_recurrence() {
                        "recurrent"
                    } else {
                        "parallel"
                    }
                );
            }
        }
        "analyze" => {
            let dfg = load(&args);
            let cgra = fabric(&args);
            println!(
                "kernel '{}': {} ops, {} edges, {} memory ops",
                dfg.name,
                dfg.num_nodes(),
                dfg.num_edges(),
                dfg.num_mem_ops()
            );
            println!("RecMII        = {}", cgra_mt::dfg::rec_mii(&dfg));
            println!(
                "ResMII        = {} ({} PEs)",
                cgra_mt::dfg::res_mii(&dfg, cgra.num_pes()),
                cgra.num_pes()
            );
            println!(
                "MII           = {}",
                cgra_mt::dfg::mii(&dfg, cgra.num_pes())
            );
            println!("recurrent     = {}", dfg.has_recurrence());
        }
        "dot" => {
            let dfg = load(&args);
            print!("{}", cgra_mt::dfg::dot::to_dot(&dfg));
        }
        "map" => {
            let dfg = load(&args);
            let cgra = fabric(&args);
            let opts = MapOptions::default();
            let mode = args.str("--mode").unwrap_or("constrained");
            let result = match mode {
                "baseline" => map_baseline(&dfg, &cgra, &opts),
                "constrained" => map_constrained(&dfg, &cgra, &opts),
                "strict" => map_constrained_strict(&dfg, &cgra, &opts),
                other => fail(&format!("unknown mode '{other}'")),
            }
            .unwrap_or_else(|e| fail(&format!("mapping failed: {e}")));
            let violations = validate_mapping(&result.mdfg, &cgra, &result.mapping, result.mode);
            println!(
                "mode {mode}: II = {}, makespan = {}, {} route hops, utilization {:.1}%",
                result.ii(),
                result.mapping.makespan(),
                result.mapping.total_route_hops(),
                result.mapping.utilization(cgra.num_pes()) * 100.0
            );
            println!(
                "validation: {}",
                if violations.is_empty() {
                    "clean".into()
                } else {
                    format!("{} violations", violations.len())
                }
            );
            if args.switch("--placements") {
                for (i, p) in result.mapping.placements.iter().enumerate() {
                    let node = result.mdfg.dfg.node(cgra_mt::dfg::NodeId(i as u32));
                    println!(
                        "  {:>12} {:>4} @ ({}, t{})",
                        node.label.clone().unwrap_or_else(|| format!("n{i}")),
                        node.op.mnemonic(),
                        p.pe,
                        p.time
                    );
                }
            }
        }
        "shrink" => {
            let dfg = load(&args);
            let cgra = fabric(&args);
            let m: u16 = args.or_exit(args.value("--pages")).unwrap_or(1);
            let pages = cgra.layout().num_pages();
            if !(1..=pages).contains(&(m as usize)) {
                args.exit(format!(
                    "--pages: {m} is outside 1..={pages}, the fabric's pages"
                ));
            }
            let mapped = map_constrained(&dfg, &cgra, &MapOptions::default())
                .unwrap_or_else(|e| fail(&format!("mapping failed: {e}")));
            let paged = PagedSchedule::from_mapping(&mapped, &cgra)
                .unwrap_or_else(|e| fail(&format!("extraction failed: {e}")))
                .trimmed();
            if m > paged.num_pages {
                args.exit(format!(
                    "--pages: {m} is above the {} page(s) {} occupies; a shrink cannot grow it",
                    paged.num_pages, dfg.name
                ));
            }
            println!(
                "compiled: II = {}, occupies {} of {} pages",
                mapped.ii(),
                paged.num_pages,
                cgra.layout().num_pages()
            );
            let plan = transform(&paged, m, Strategy::Auto)
                .unwrap_or_else(|e| fail(&format!("transform failed: {e}")));
            let v = validate_plan(&paged, &plan);
            println!(
                "shrunk to {} page(s): II_q = {:.2} (x{:.2}), strategy {:?}, validation {}",
                plan.m,
                plan.ii_q(),
                plan.ii_q() / mapped.ii() as f64,
                plan.strategy,
                if v.is_empty() { "clean" } else { "FAILED" }
            );
        }
        "exec" => {
            let dfg = load(&args);
            let cgra = fabric(&args);
            let iters: usize = args.or_exit(args.value("--iters")).unwrap_or(16);
            if iters == 0 {
                args.exit("--iters: 0 runs nothing; give at least 1 iteration");
            }
            if iters > MAX_ITERS {
                args.exit(format!(
                    "--iters: {iters} is above the cap of {MAX_ITERS} (the machine's \
                     memory grows with iterations x ops)"
                ));
            }
            let mapped = map_constrained(&dfg, &cgra, &MapOptions::default())
                .unwrap_or_else(|e| fail(&format!("mapping failed: {e}")));
            let seed = args.or_exit(args.value("--seed")).unwrap_or(0);
            let inputs = InputStreams::random(&dfg, iters, seed);
            let golden = interpret(&dfg, &inputs, iters)
                .unwrap_or_else(|e| fail(&format!("interpretation failed: {e}")));
            let out = execute(&mapped, &cgra, &inputs, iters)
                .unwrap_or_else(|e| fail(&format!("execution failed: {e}")));
            let ok = golden
                .iter()
                .all(|(store, values)| out.get(store) == Some(values));
            for (store, values) in &golden {
                println!("store n{store}: {:?}", &values[..values.len().min(8)]);
            }
            println!(
                "machine vs interpreter over {iters} iterations: {}",
                if ok { "MATCH" } else { "MISMATCH" }
            );
            if !ok {
                std::process::exit(1);
            }
        }
        _ => unreachable!("`spec` knows every command"),
    }
}

fn load(args: &Args) -> cgra_mt::dfg::Dfg {
    let Some(arg) = args.positional() else {
        fail("missing kernel argument (path or builtin:<name>)");
    };
    kernel_text::load(arg).unwrap_or_else(|e| fail(&e))
}

fn print_usage() {
    println!(
        "cgra-mt — map, shrink and execute loop kernels on a modelled CGRA

USAGE:
  cgra-mt kernels                               list builtin benchmark kernels
  cgra-mt analyze  <kernel> [FABRIC]            II bounds and structure
  cgra-mt dot      <kernel>                     Graphviz dump
  cgra-mt map      <kernel> [FABRIC]
                   [--mode baseline|constrained|strict] [--placements]
  cgra-mt shrink   <kernel> [FABRIC] --pages M  runtime PageMaster shrink
  cgra-mt exec     <kernel> [FABRIC] [--iters K] [--seed S]
                                                functional check vs interpreter
                                                (K in 1..={MAX_ITERS}, default 16)

FABRIC is [--cgra N] [--page-size S] [--rf R] (default 4, 4, 32). A
command exits 2 on any other flag or argument.

<kernel> is a file in the kernel text format (see docs of
cgra_mt::kernel_text) or builtin:<name>."
    );
}
