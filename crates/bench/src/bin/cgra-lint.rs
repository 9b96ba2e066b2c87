//! `cgra-lint` — static analysis of the whole compilation pipeline.
//!
//! Compiles every kernel once, through the same compile stage as the
//! figures' profiles, and analyzes each artifact it built (baseline +
//! constrained mappings, paged schedule, halving-chain shrink plans,
//! kernel profile) plus a one-dead-page degradation with
//! `cgra-analyze`. Exits 1 if any artifact carries an error diagnostic,
//! or if a kernel fails to compile or to degrade (naming the fabric, the
//! kernel and the error on stderr); 2 on a bad or unknown flag
//! (including a `--dim`/`--page` pair that names no fabric).
//!
//! Usage: `cargo run -p cgra-bench --bin cgra-lint --release [-- FLAGS]`
//!
//! Flags:
//!   --dim N    fabric side length (default 4)
//!   --page S   page size in PEs (default 4)
//!   --grid     lint every configuration of the paper grid instead
//!   --json     emit the findings as one JSON document

use cgra_arch::FabricError;
use cgra_bench::lint::{self, LintError};
use std::str::FromStr;

fn arg_value<T: FromStr>(args: &[String], flag: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    let v = args.get(i + 1).unwrap_or_else(|| {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    });
    v.parse().ok().or_else(|| {
        eprintln!("{flag}: not a valid number: {v}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cgra_bench::reject_unknown_flags(
        "cgra-lint",
        &args,
        &["--grid", "--json"],
        &["--dim", "--page"],
    );
    let dim = arg_value(&args, "--dim").unwrap_or(4);
    let page = arg_value(&args, "--page").unwrap_or(4);
    let grid = args.iter().any(|a| a == "--grid");

    let findings = lint::lint(dim, page, grid).unwrap_or_else(|e| match e {
        LintError::Fabric(e) => {
            let flag = match e {
                FabricError::Dim(_) => "--dim",
                FabricError::PageSize(..) => "--page",
            };
            eprintln!("cgra-lint: {flag}: {e}");
            std::process::exit(2);
        }
        LintError::Kernel { .. } => {
            eprintln!("cgra-lint: {e}");
            std::process::exit(1);
        }
    });
    let (text, errors) = lint::render(&findings);
    if args.iter().any(|a| a == "--json") {
        println!("{}", lint::render_json(&findings));
        eprint!("{text}");
    } else {
        print!("{text}");
    }
    if errors > 0 {
        std::process::exit(1);
    }
}
