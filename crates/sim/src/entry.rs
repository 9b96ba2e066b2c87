//! Re-entrant, `Send`-safe simulation entry points.
//!
//! Every simulator in this crate is a pure function of its inputs: no
//! globals, no interior mutability, no thread-locals. That makes the
//! whole crate safe to drive from many worker threads at once — the
//! property the `cgra-bench` parallel sweep engine relies on. This
//! module states that contract in code ([`assert_parallel_safe`] fails
//! to *compile* if a simulator input or output ever stops being
//! `Send + Sync`) and provides the one-call entry the engine uses per
//! sweep point.

use crate::baseline::simulate_baseline;
use crate::error::SimError;
use crate::kernel_lib::KernelLibrary;
use crate::multithreaded::{simulate_multithreaded_faulty_traced, MtConfig};
use crate::stats::SimReport;
use crate::workload::{generate, WorkloadParams};
use cgra_arch::FaultSpec;
use cgra_obs::Tracer;

/// Baseline and multithreaded reports for one generated workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PointReport {
    /// Single-threaded FCFS system.
    pub baseline: SimReport,
    /// Page-multiplexed multithreaded system.
    pub multithreaded: SimReport,
}

/// Generate the workload for `params` and simulate it on both systems.
///
/// `faults` is expanded into concrete events over the library's fabric
/// and injected into the multithreaded run, which is emitted to
/// `tracer`. The baseline system models today's monolithic CGRA, which
/// has no page-level fault story: it stays fault-free and untraced, the
/// fixed reference degradation curves compare against.
///
/// Re-entrant: depends only on the arguments, so concurrent calls from
/// any number of threads (sharing one `&KernelLibrary` and one `Tracer`)
/// produce identical results to serial calls. The workload is
/// regenerated from `params.seed` — callers get determinism by deriving
/// that seed from point coordinates, never from worker identity or call
/// order. Callers that need each point's events contiguous in a shared
/// sink should wrap the call in
/// [`Tracer::batched`](cgra_obs::Tracer::batched).
///
/// # Errors
///
/// Propagates any [`SimError`] from the multithreaded simulator so the
/// bench engine can report a poisoned point in its own result slot.
pub fn simulate_point(
    lib: &KernelLibrary,
    params: &WorkloadParams,
    mt: MtConfig,
    faults: FaultSpec,
    tracer: &Tracer,
) -> Result<PointReport, SimError> {
    let workload = generate(lib, params);
    let events = faults.schedule(lib.num_pages);
    Ok(PointReport {
        baseline: simulate_baseline(lib, &workload),
        multithreaded: simulate_multithreaded_faulty_traced(lib, &workload, mt, &events, tracer)?,
    })
}

/// Compile-time proof that simulator inputs and outputs cross threads.
///
/// Called from nowhere at runtime; if `KernelLibrary`, `SimReport`,
/// `MtConfig`, `WorkloadParams` or `SimError` ever gain a
/// non-`Send`/`Sync` field (an `Rc`, a raw pointer, a thread-local
/// handle), this stops compiling — turning a latent data race in the
/// sweep engine into a build error.
pub fn assert_parallel_safe() {
    fn ok<T: Send + Sync>() {}
    ok::<KernelLibrary>();
    ok::<SimReport>();
    ok::<PointReport>();
    ok::<MtConfig>();
    ok::<WorkloadParams>();
    ok::<SimError>();
    ok::<FaultSpec>();
    ok::<Tracer>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multithreaded::simulate_multithreaded_faulty;
    use crate::workload::CgraNeed;
    use cgra_mapper::MapOptions;

    #[test]
    fn simulate_point_matches_manual_composition() {
        let lib = KernelLibrary::compile_benchmarks(
            &cgra_arch::CgraConfig::square(4),
            &MapOptions::default(),
            &Tracer::off(),
        )
        .unwrap();
        let params = WorkloadParams {
            threads: 4,
            need: CgraNeed::Medium,
            work_per_thread: 10_000,
            bursts: 2,
            seed: 11,
        };
        let combined = simulate_point(
            &lib,
            &params,
            MtConfig::default(),
            FaultSpec::Off,
            &Tracer::off(),
        )
        .unwrap();
        let workload = generate(&lib, &params);
        assert_eq!(combined.baseline, simulate_baseline(&lib, &workload));
        assert_eq!(
            combined.multithreaded,
            simulate_multithreaded_faulty(&lib, &workload, MtConfig::default(), &[]).unwrap()
        );
    }

    #[test]
    fn concurrent_calls_agree_with_serial() {
        let lib = KernelLibrary::compile_benchmarks(
            &cgra_arch::CgraConfig::square(4),
            &MapOptions::default(),
            &Tracer::off(),
        )
        .unwrap();
        let all_params: Vec<WorkloadParams> = (0..8)
            .map(|i| WorkloadParams {
                threads: 1 + i % 4,
                need: CgraNeed::ALL[i % 3],
                work_per_thread: 8_000,
                bursts: 2,
                seed: i as u64,
            })
            .collect();
        let point = |p: &WorkloadParams| {
            simulate_point(&lib, p, MtConfig::default(), FaultSpec::Off, &Tracer::off())
        };
        let serial: Vec<Result<PointReport, SimError>> = all_params.iter().map(point).collect();
        let parallel: Vec<Result<PointReport, SimError>> = std::thread::scope(|s| {
            let handles: Vec<_> = all_params
                .iter()
                .map(|p| s.spawn(move || point(p)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(serial, parallel);
    }
}
