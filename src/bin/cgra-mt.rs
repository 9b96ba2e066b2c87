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

use cgra_mt::kernel_text;
use cgra_mt::prelude::*;

struct Args {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
}

impl Args {
    fn parse() -> Args {
        let mut positional = Vec::new();
        let mut flags = std::collections::HashMap::new();
        let mut it = std::env::args().skip(1).peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = it
                    .peek()
                    .filter(|v| !v.starts_with("--"))
                    .cloned()
                    .inspect(|_v| {
                        it.next();
                    })
                    .unwrap_or_else(|| "true".into());
                flags.insert(key.to_string(), value);
            } else {
                positional.push(a);
            }
        }
        Args { positional, flags }
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.flags
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    fn str(&self, key: &str, default: &str) -> String {
        self.flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.into())
    }
}

fn fabric(args: &Args) -> CgraConfig {
    let dim: u16 = args.num("cgra", 4);
    let page: usize = args.num("page-size", 4);
    CgraConfig::square(dim)
        .with_page_size(page)
        .unwrap_or_else(|e| fail(&format!("bad fabric: {e}")))
        .with_rf_size(args.num("rf", 32))
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

fn main() {
    let args = Args::parse();
    let Some(cmd) = args.positional.first().map(String::as_str) else {
        print_usage();
        return;
    };
    match cmd {
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
            let mode = args.str("mode", "constrained");
            let result = match mode.as_str() {
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
            if args.flags.contains_key("placements") {
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
            let m: u16 = args.num("pages", 1);
            let mapped = map_constrained(&dfg, &cgra, &MapOptions::default())
                .unwrap_or_else(|e| fail(&format!("mapping failed: {e}")));
            let paged = PagedSchedule::from_mapping(&mapped, &cgra)
                .unwrap_or_else(|e| fail(&format!("extraction failed: {e}")))
                .trimmed();
            println!(
                "compiled: II = {}, occupies {} of {} pages",
                mapped.ii(),
                paged.num_pages,
                cgra.layout().num_pages()
            );
            let target = m.min(paged.num_pages);
            let plan = transform(&paged, target, Strategy::Auto)
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
            let iters: usize = args.num("iters", 16);
            let mapped = map_constrained(&dfg, &cgra, &MapOptions::default())
                .unwrap_or_else(|e| fail(&format!("mapping failed: {e}")));
            let inputs = InputStreams::random(&dfg, iters, args.num("seed", 0u64));
            let golden = interpret(&dfg, &inputs, iters)
                .unwrap_or_else(|e| fail(&format!("interpretation failed: {e}")));
            let out = execute(
                &mapped.mdfg,
                cgra.mesh(),
                &MachineSchedule::from_mapping(&mapped.mapping),
                &inputs,
                iters,
            )
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
        other => {
            eprintln!("unknown command '{other}'\n");
            print_usage();
            std::process::exit(2);
        }
    }
}

fn load(args: &Args) -> cgra_mt::dfg::Dfg {
    let Some(arg) = args.positional.get(1) else {
        fail("missing kernel argument (path or builtin:<name>)");
    };
    kernel_text::load(arg).unwrap_or_else(|e| fail(&e))
}

fn print_usage() {
    println!(
        "cgra-mt — map, shrink and execute loop kernels on a modelled CGRA

USAGE:
  cgra-mt kernels                               list builtin benchmark kernels
  cgra-mt analyze  <kernel> [--cgra N]          II bounds and structure
  cgra-mt dot      <kernel>                     Graphviz dump
  cgra-mt map      <kernel> [--cgra N] [--page-size S]
                   [--mode baseline|constrained|strict] [--placements]
  cgra-mt shrink   <kernel> --pages M           runtime PageMaster shrink
  cgra-mt exec     <kernel> [--iters K]         functional check vs interpreter

<kernel> is a file in the kernel text format (see docs of
cgra_mt::kernel_text) or builtin:<name>."
    );
}
