//! The single-threaded, non-preemptive CGRA system (§VII-B case (i)).
//!
//! The host runs every thread concurrently (one core each — DESIGN.md
//! substitution 3), but the CGRA is a single FCFS resource: a kernel
//! occupies the *entire* array, at the unconstrained baseline II, until it
//! finishes. This is the system today's CGRA compilers imply, and the
//! reference Fig. 9 improvements are measured against.

use crate::event::EventQueue;
use crate::kernel_lib::KernelLibrary;
use crate::stats::SimReport;
use crate::workload::{Segment, ThreadSpec};

/// Simulate the baseline system; deterministic for a given workload.
///
/// # Panics
///
/// If a segment names a kernel outside `lib`. Check a workload that did
/// not come from [`generate`](crate::workload::generate) over the same
/// library first; `simulate_multithreaded_faulty` rejects it with
/// [`SimError::UnknownKernel`](crate::SimError::UnknownKernel).
pub fn simulate_baseline(lib: &KernelLibrary, threads: &[ThreadSpec]) -> SimReport {
    let mut q = EventQueue::new(threads.len());
    let mut seg_idx = vec![0usize; threads.len()];
    let mut finish = vec![0u64; threads.len()];
    let mut cgra_free_at = 0u64;
    let mut cgra_iterations = 0u64;
    let mut page_cycles = 0u64;
    let mut stall_cycles = 0u64;

    // Everyone starts their first segment at t=0.
    for t in 0..threads.len() {
        q.push(0, t);
    }

    while let Some(ev) = q.pop() {
        let t = ev.thread;
        let idx = seg_idx[t];
        if idx >= threads[t].segments.len() {
            continue;
        }
        match threads[t].segments[idx] {
            Segment::Cpu(cycles) => {
                seg_idx[t] += 1;
                let done = ev.time + cycles;
                if seg_idx[t] >= threads[t].segments.len() {
                    finish[t] = done;
                } else {
                    q.push(done, t);
                }
            }
            Segment::Cgra { kernel, iterations } => {
                let ii = lib.profile(kernel).ii_baseline as u64;
                let start = ev.time.max(cgra_free_at);
                let duration = iterations * ii;
                stall_cycles += start - ev.time;
                cgra_free_at = start + duration;
                cgra_iterations += iterations;
                page_cycles += lib.num_pages as u64 * duration;
                seg_idx[t] += 1;
                if seg_idx[t] >= threads[t].segments.len() {
                    finish[t] = cgra_free_at;
                } else {
                    q.push(cgra_free_at, t);
                }
            }
        }
    }

    SimReport {
        makespan: finish.iter().copied().max().unwrap_or(0),
        thread_finish: finish,
        cgra_iterations,
        page_cycles,
        shrinks: 0,
        expands: 0,
        stall_cycles,
        faults: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, WorkloadParams};
    use cgra_mapper::MapOptions;

    fn lib() -> KernelLibrary {
        KernelLibrary::compile_benchmarks(
            &cgra_arch::CgraConfig::square(4),
            &MapOptions::default(),
            &cgra_obs::Tracer::off(),
        )
        .expect("library compiles")
    }

    #[test]
    fn single_thread_runs_back_to_back() {
        let lib = lib();
        let spec = ThreadSpec {
            segments: vec![
                Segment::Cpu(100),
                Segment::Cgra {
                    kernel: 0,
                    iterations: 10,
                },
            ],
        };
        let r = simulate_baseline(&lib, &[spec]);
        let ii = lib.profile(0).ii_baseline as u64;
        assert_eq!(r.makespan, 100 + 10 * ii);
        assert_eq!(r.stall_cycles, 0);
        assert_eq!(r.cgra_iterations, 10);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn unknown_kernel_panics() {
        let lib = lib();
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: lib.len(),
                iterations: 1,
            }],
        };
        simulate_baseline(&lib, &[spec]);
    }

    #[test]
    fn two_threads_serialize_on_the_cgra() {
        let lib = lib();
        let seg = Segment::Cgra {
            kernel: 0,
            iterations: 100,
        };
        let spec = ThreadSpec {
            segments: vec![seg],
        };
        let r = simulate_baseline(&lib, &[spec.clone(), spec]);
        let ii = lib.profile(0).ii_baseline as u64;
        assert_eq!(r.makespan, 200 * ii);
        assert_eq!(r.stall_cycles, 100 * ii);
    }

    #[test]
    fn cpu_segments_overlap_cgra_use() {
        let lib = lib();
        let ii = lib.profile(0).ii_baseline as u64;
        let a = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: 0,
                iterations: 100,
            }],
        };
        let b = ThreadSpec {
            segments: vec![Segment::Cpu(100 * ii)],
        };
        let r = simulate_baseline(&lib, &[a, b]);
        // Thread b's CPU work fully overlaps thread a's CGRA work.
        assert_eq!(r.makespan, 100 * ii);
    }

    #[test]
    fn deterministic() {
        let lib = lib();
        let w = generate(&lib, &WorkloadParams::default());
        assert_eq!(simulate_baseline(&lib, &w), simulate_baseline(&lib, &w));
    }
}
