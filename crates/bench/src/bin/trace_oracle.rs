//! Replay a JSONL trace and check the invariants end-state diffs can't
//! see: every revoked page was held by its victim, page ownership stays
//! exclusive, nothing is allocated on a dead page, and per-thread cycle
//! accounting is consistent with each run's reported makespan.
//!
//! Usage: `cargo run -p cgra-bench --bin trace_oracle -- TRACE.jsonl`
//!
//! Exits 0 with a summary on a clean trace, 1 with the first violation
//! (event index and precise reason) otherwise, 2 on usage/parse errors:
//! a missing path, a flag or a second argument.

use cgra_bench::cli::Spec;
use cgra_obs::{check_trace, TraceEvent};

const ARGS: Spec = Spec {
    switches: &[],
    valued: &[],
    positional: Some("TRACE.jsonl"),
};

fn main() {
    let args = ARGS.parse_env("trace_oracle", 1);
    let Some(path) = args.positional() else {
        args.exit("the TRACE.jsonl argument is missing");
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    });
    let events = TraceEvent::parse_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    });
    match check_trace(&events) {
        Ok(report) => {
            println!(
                "{path}: OK — {} events, {} sim runs ({} aborted), {} map segments, {} transforms",
                report.events,
                report.runs,
                report.aborted_runs,
                report.map_segments,
                report.transforms
            );
        }
        Err(e) => {
            eprintln!("{path}: VIOLATION — {e}");
            std::process::exit(1);
        }
    }
}
