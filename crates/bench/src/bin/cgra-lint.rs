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
//!
//! A valued flag's value is never a flag, and a flag given twice
//! (`--dim 4 --dim 8`) exits 2, naming it.

use cgra_arch::FabricError;
use cgra_bench::cli::Spec;
use cgra_bench::lint::{self, LintError};

const FLAGS: Spec = Spec {
    switches: &["--grid", "--json"],
    valued: &["--dim", "--page"],
    positional: None,
};

fn main() {
    let args = FLAGS.parse_env("cgra-lint", 1);
    let dim = args.or_exit(args.value("--dim")).unwrap_or(4);
    let page = args.or_exit(args.value("--page")).unwrap_or(4);

    let findings = lint::lint(dim, page, args.switch("--grid")).unwrap_or_else(|e| match e {
        LintError::Fabric(e) => {
            let flag = match e {
                FabricError::Dim(_) => "--dim",
                FabricError::PageSize(..) => "--page",
            };
            args.exit(format!("{flag}: {e}"))
        }
        LintError::Kernel { .. } => {
            eprintln!("cgra-lint: {e}");
            std::process::exit(1);
        }
    });
    let (text, errors) = lint::render(&findings);
    if args.switch("--json") {
        println!("{}", lint::render_json(&findings));
        eprint!("{text}");
    } else {
        print!("{text}");
    }
    if errors > 0 {
        std::process::exit(1);
    }
}
