//! Acceptance test for the observability layer: with tracing enabled,
//! the trace oracle passes on every benchmark kernel's compilation, on a
//! simulated run of each kernel, and on a fault-injected multithreaded
//! run — the event streams obey the invariants end-state diffs cannot
//! check (ownership exclusivity, no allocation on dead pages, cycle
//! accounting consistent with the reported makespan).

use cgra_mt::arch::{CgraConfig, FaultKind, FaultSpec};
use cgra_mt::mapper::MapOptions;
use cgra_mt::obs::{check_trace, RingSink, TraceEvent, Tracer};
use cgra_mt::sim::{
    simulate_multithreaded_faulty_traced, KernelLibrary, MtConfig, Segment, ThreadSpec,
};
use std::sync::Arc;

#[test]
fn oracle_passes_on_all_benchmark_kernels_and_a_faulty_run() {
    let sink = Arc::new(RingSink::unbounded());
    let tracer = Tracer::new(sink.clone());
    let cgra = CgraConfig::square(4);

    // Compile all 11 benchmark kernels with full tracing: one
    // MapBegin/MapEnd segment per mapper search (two per kernel —
    // baseline and constrained), plus the halving-chain transforms.
    let lib = KernelLibrary::compile_benchmarks(&cgra, &MapOptions::default(), &tracer)
        .expect("benchmark suite compiles on the 4x4");
    assert_eq!(lib.len(), cgra_mt::dfg::kernels::all().len());

    // One traced single-thread run per kernel.
    for kernel in 0..lib.len() {
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel,
                iterations: 50,
            }],
        };
        simulate_multithreaded_faulty_traced(&lib, &[spec], MtConfig::default(), &[], &tracer)
            .unwrap_or_else(|e| panic!("kernel {kernel}: {e}"));
    }

    // One fault-injected multithreaded run: four threads, two page
    // kills (half the 4-page fabric — never enough to starve anyone).
    let faults = FaultSpec::Mtbf {
        mean: 3_000,
        count: 2,
        seed: 9,
        kind: FaultKind::Kill,
    }
    .schedule(lib.num_pages);
    assert_eq!(faults.len(), 2);
    let threads: Vec<ThreadSpec> = (0..4)
        .map(|t| ThreadSpec {
            segments: vec![
                Segment::Cpu(100 * t as u64),
                Segment::Cgra {
                    kernel: t % lib.len(),
                    iterations: 400,
                },
            ],
        })
        .collect();
    let report =
        simulate_multithreaded_faulty_traced(&lib, &threads, MtConfig::default(), &faults, &tracer)
            .expect("faulty multithreaded run completes");
    assert!(report.faults.pages_killed > 0, "no page ever died");

    // The whole stream — compilations, per-kernel runs, the faulty run —
    // must replay clean through the oracle.
    let events = sink.drain();
    let oracle = check_trace(&events).unwrap_or_else(|e| panic!("oracle violation: {e}"));
    assert_eq!(oracle.runs, lib.len() + 1);
    assert_eq!(oracle.aborted_runs, 0);
    assert!(
        oracle.map_segments >= 2 * lib.len(),
        "expected two mapper segments per kernel, saw {} for {} kernels",
        oracle.map_segments,
        lib.len()
    );
    assert!(oracle.transforms > 0, "no transform was ever traced");
}

#[test]
fn repair_counters_are_consistent_with_the_trace() {
    // FaultStats promises its `repairs` / `reexpansions` counters count
    // exactly the PageRepaired / Reexpanded events the run emitted —
    // the trace is the ground truth the counters summarize. A
    // transient-fault multithreaded run exercises the full shrink →
    // repair → re-expand loop, then the drained event stream is both
    // counted against the report and replayed through the oracle.
    let sink = Arc::new(RingSink::unbounded());
    let tracer = Tracer::new(sink.clone());
    let cgra = CgraConfig::square(4);
    let lib = KernelLibrary::compile_benchmarks(&cgra, &MapOptions::default(), &Tracer::off())
        .expect("benchmark suite compiles on the 4x4");

    let faults = FaultSpec::Mtbf {
        mean: 3_000,
        count: 2,
        seed: 9,
        kind: FaultKind::Transient { repair_after: 500 },
    }
    .schedule(lib.num_pages);
    let threads: Vec<ThreadSpec> = (0..4)
        .map(|t| ThreadSpec {
            segments: vec![
                Segment::Cpu(100 * t as u64),
                Segment::Cgra {
                    kernel: t % lib.len(),
                    iterations: 400,
                },
            ],
        })
        .collect();
    let report =
        simulate_multithreaded_faulty_traced(&lib, &threads, MtConfig::default(), &faults, &tracer)
            .expect("transient multithreaded run completes");
    assert!(report.faults.repairs > 0, "no page ever repaired");

    let events = sink.drain();
    let repaired = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::PageRepaired { .. }))
        .count() as u64;
    let reexpanded = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Reexpanded { .. }))
        .count() as u64;
    assert_eq!(
        repaired, report.faults.repairs,
        "repairs counter disagrees with the PageRepaired events"
    );
    assert_eq!(
        reexpanded, report.faults.reexpansions,
        "reexpansions counter disagrees with the Reexpanded events"
    );

    let oracle = check_trace(&events).unwrap_or_else(|e| panic!("oracle violation: {e}"));
    assert_eq!(oracle.runs, 1);
    assert_eq!(oracle.aborted_runs, 0);
}

#[test]
fn disabled_tracer_emits_nothing_and_changes_nothing() {
    // The zero-cost-when-off contract, end to end: a run with an off
    // tracer equals a run through the untraced entry point, bit for bit.
    let cgra = CgraConfig::square(4);
    let lib =
        KernelLibrary::compile_benchmarks(&cgra, &MapOptions::default(), &Tracer::off()).unwrap();
    let spec = || ThreadSpec {
        segments: vec![Segment::Cgra {
            kernel: 0,
            iterations: 200,
        }],
    };
    let plain = cgra_mt::sim::simulate_multithreaded_faulty(
        &lib,
        &[spec(), spec()],
        MtConfig::default(),
        &[],
    )
    .unwrap();
    let traced_off = simulate_multithreaded_faulty_traced(
        &lib,
        &[spec(), spec()],
        MtConfig::default(),
        &[],
        &Tracer::off(),
    )
    .unwrap();
    assert_eq!(plain, traced_off);

    // And compiling with an off tracer produces the library compiled
    // above with full tracing: tracing changes no artifact.
    let relib =
        KernelLibrary::compile_benchmarks(&cgra, &MapOptions::default(), &Tracer::off()).unwrap();
    assert_eq!(lib, relib);
}
