//! Golden-trace snapshot: the exact event stream of one small, fully
//! deterministic scenario — the `fir` kernel compiled for a 4×4 fabric
//! and run by two threads with one page dying mid-flight.
//!
//! The snapshot pins *event-level* behaviour that end-state assertions
//! cannot see: the order of queue/start/shrink events, the pages named
//! in each allocation, the timestamps of the fault and its revocation.
//! Any intended change to the mapper search, the PageMaster transform or
//! the simulator's scheduling shows up here as a diff; regenerate with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p cgra-core --test golden_trace
//! ```
//!
//! and review the diff like any other code change.

use cgra_arch::{CgraConfig, FaultEvent, FaultKind};
use cgra_mapper::MapOptions;
use cgra_obs::{check_trace, RingSink, TraceEvent, Tracer};
use cgra_sim::{
    simulate_multithreaded_faulty_traced, Compiled, KernelLibrary, MtConfig, Segment, ThreadSpec,
};
use std::path::PathBuf;
use std::sync::Arc;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join("fir_trace.jsonl")
}

/// Capture the scenario's full trace: compile `fir` (mapper + transform
/// events), then run two threads with page 0 killed at cycle 2000.
fn capture() -> Vec<TraceEvent> {
    let sink = Arc::new(RingSink::unbounded());
    let tracer = Tracer::new(sink.clone());

    let cgra = CgraConfig::square(4);
    let profile = Compiled::new(
        &cgra_dfg::kernels::fir(),
        &cgra,
        &MapOptions::default(),
        &tracer,
    )
    .expect("fir compiles on the 4x4")
    .into_profile(&cgra);
    let lib = KernelLibrary {
        profiles: vec![profile],
        num_pages: cgra.layout().num_pages() as u16,
    };

    let thread = |iterations| ThreadSpec {
        segments: vec![Segment::Cgra {
            kernel: 0,
            iterations,
        }],
    };
    let faults = [FaultEvent {
        time: 2_000,
        page: 0,
        kind: FaultKind::Kill,
    }];
    simulate_multithreaded_faulty_traced(
        &lib,
        &[thread(600), thread(400)],
        MtConfig::default(),
        &faults,
        &tracer,
    )
    .expect("two fir threads survive one page death");
    sink.drain()
}

fn render(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.to_jsonl());
        out.push('\n');
    }
    out
}

#[test]
fn fir_trace_matches_golden() {
    let events = capture();

    // The scenario must actually exercise the interesting machinery
    // before we pin its bytes: a compile segment, a transform, the page
    // death and a consequent shrink or revocation.
    let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
    for required in ["map_begin", "transform_begin", "fault", "sim_end"] {
        assert!(kinds.contains(&required), "no {required} event in trace");
    }
    assert!(
        kinds.contains(&"thread_shrink") || kinds.contains(&"revoke"),
        "page death had no observable effect: {kinds:?}"
    );
    // And it must satisfy the oracle — a golden file enshrining an
    // invariant violation would be worse than no golden at all.
    let report = check_trace(&events).expect("golden scenario replays clean");
    assert_eq!(report.runs, 1);
    assert_eq!(report.aborted_runs, 0);

    let rendered = render(&events);
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun `UPDATE_GOLDEN=1 cargo test -p cgra-core --test golden_trace` \
             to (re)generate",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        golden,
        "trace diverges from {}; if the change is intended, regenerate \
         with UPDATE_GOLDEN=1 and review the diff",
        path.display()
    );
}

#[test]
fn golden_file_parses_and_replays_clean() {
    // The checked-in artefact itself must stay loadable and
    // oracle-clean, independent of the capture path above.
    let path = golden_path();
    let Ok(text) = std::fs::read_to_string(&path) else {
        panic!(
            "{} missing; regenerate with UPDATE_GOLDEN=1",
            path.display()
        );
    };
    let events = TraceEvent::parse_jsonl(&text).expect("golden parses");
    assert!(!events.is_empty());
    check_trace(&events).expect("golden replays clean");
}
