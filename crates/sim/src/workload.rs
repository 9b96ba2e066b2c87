//! Thread workload generation (§VII-B.1).
//!
//! "Each thread is randomly and independently generated, where portions
//! of the thread are either assigned to the processor or the CGRA. For
//! portions assigned to the CGRA, the schedule that is ran is randomly
//! chosen so as to not create bias towards any one kernel."

use crate::kernel_lib::KernelLibrary;
use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// The fraction of a thread's work accelerated on the CGRA (§VII-B.1's
/// three "CGRA need" operating points).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CgraNeed {
    /// 50 % of the thread's nominal cycles on the CGRA.
    Low,
    /// 75 %.
    Medium,
    /// 87.5 % — chosen so processor-side effects are negligible by
    /// Amdahl's argument.
    High,
}

impl CgraNeed {
    /// The fraction as a number.
    pub fn fraction(self) -> f64 {
        match self {
            CgraNeed::Low => 0.50,
            CgraNeed::Medium => 0.75,
            CgraNeed::High => 0.875,
        }
    }

    /// All three operating points, in the paper's order.
    pub const ALL: [CgraNeed; 3] = [CgraNeed::Low, CgraNeed::Medium, CgraNeed::High];

    /// Label used in tables ("50%", "75%", "87.5%").
    pub fn label(self) -> &'static str {
        match self {
            CgraNeed::Low => "50%",
            CgraNeed::Medium => "75%",
            CgraNeed::High => "87.5%",
        }
    }
}

/// One phase of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Segment {
    /// Run on the host processor for this many cycles.
    Cpu(u64),
    /// Run `iterations` of kernel `kernel` on the CGRA.
    Cgra {
        /// Index into the kernel library.
        kernel: usize,
        /// Loop iterations to execute.
        iterations: u64,
    },
}

/// A generated thread: an alternating sequence of CPU and CGRA segments.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadSpec {
    /// The phases, executed in order.
    pub segments: Vec<Segment>,
}

impl ThreadSpec {
    /// Nominal cycles of CGRA work (at the constrained full-array rate)
    /// given a library — used to calibrate the need fraction.
    pub fn nominal_cgra_cycles(&self, lib: &KernelLibrary) -> u64 {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Cgra { kernel, iterations } => {
                    *iterations * lib.profile(*kernel).ii_constrained as u64
                }
                Segment::Cpu(_) => 0,
            })
            .sum()
    }

    /// Total CPU cycles.
    pub fn cpu_cycles(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Cpu(c) => *c,
                _ => 0,
            })
            .sum()
    }
}

/// Workload generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadParams {
    /// Threads to generate.
    pub threads: usize,
    /// CGRA need operating point.
    pub need: CgraNeed,
    /// Nominal total work per thread, in cycles (CPU + CGRA at the
    /// constrained full-array rate).
    pub work_per_thread: u64,
    /// CGRA bursts per thread (segments alternate CPU / CGRA).
    pub bursts: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            threads: 4,
            need: CgraNeed::Medium,
            work_per_thread: 100_000,
            bursts: 4,
            seed: 1,
        }
    }
}

/// Generate a multithreaded workload against a compiled kernel library.
///
/// Each thread gets `bursts` CGRA segments with randomly chosen kernels,
/// interleaved with CPU segments; segment sizes are jittered ±50 % but the
/// thread's total CGRA-cycle share matches `need.fraction()` of its work.
pub fn generate(lib: &KernelLibrary, params: &WorkloadParams) -> Vec<ThreadSpec> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let cgra_budget = (params.work_per_thread as f64 * params.need.fraction()) as u64;
    let cpu_budget = params.work_per_thread - cgra_budget;
    // Every thread draws its chunks into the same two buffers.
    let (mut cpu_chunks, mut cgra_chunks) = (Vec::new(), Vec::new());
    let mut threads = Vec::with_capacity(params.threads);
    for _ in 0..params.threads {
        let mut segments = Vec::with_capacity(params.bursts * 2);
        split(cpu_budget, params.bursts, &mut rng, &mut cpu_chunks);
        split(cgra_budget, params.bursts, &mut rng, &mut cgra_chunks);
        for (&cpu, &cgra) in cpu_chunks.iter().zip(&cgra_chunks) {
            if cpu > 0 {
                segments.push(Segment::Cpu(cpu));
            }
            let kernel = rng.gen_range(0..lib.len());
            let ii = lib.profile(kernel).ii_constrained as u64;
            let iterations = (cgra / ii).max(1);
            segments.push(Segment::Cgra { kernel, iterations });
        }
        threads.push(ThreadSpec { segments });
    }
    threads
}

/// Split `total` into `parts` chunks jittered ±50 % around the mean,
/// written to `chunks`, with the last one repaired so they sum to `total`.
fn split(total: u64, parts: usize, rng: &mut StdRng, chunks: &mut Vec<u64>) {
    let base = total / parts as u64;
    chunks.clear();
    chunks.extend((0..parts).map(|_| {
        let jitter = rng.gen_range(0.5..1.5);
        ((base as f64) * jitter) as u64
    }));
    // Repair the sum to hit the budget exactly.
    let sum: u64 = chunks.iter().sum();
    if let Some(last) = chunks.last_mut().filter(|_| sum > 0) {
        *last = last.saturating_add(total.saturating_sub(sum));
        if sum > total {
            *last = last.saturating_sub(sum - total);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn need_fractions() {
        assert_eq!(CgraNeed::Low.fraction(), 0.5);
        assert_eq!(CgraNeed::Medium.fraction(), 0.75);
        assert_eq!(CgraNeed::High.fraction(), 0.875);
    }

    #[test]
    fn generation_is_deterministic() {
        let lib = lib();
        let p = WorkloadParams::default();
        assert_eq!(generate(&lib, &p), generate(&lib, &p));
    }

    #[test]
    fn different_seeds_differ() {
        let lib = lib();
        let a = generate(&lib, &WorkloadParams::default());
        let b = generate(
            &lib,
            &WorkloadParams {
                seed: 2,
                ..Default::default()
            },
        );
        assert_ne!(a, b);
    }

    #[test]
    fn need_fraction_is_respected() {
        let lib = lib();
        for need in CgraNeed::ALL {
            let threads = generate(
                &lib,
                &WorkloadParams {
                    need,
                    threads: 8,
                    work_per_thread: 200_000,
                    ..Default::default()
                },
            );
            for t in &threads {
                let cgra = t.nominal_cgra_cycles(&lib) as f64;
                let total = cgra + t.cpu_cycles() as f64;
                let f = cgra / total;
                assert!(
                    (f - need.fraction()).abs() < 0.1,
                    "need {need:?}: got fraction {f}"
                );
            }
        }
    }

    #[test]
    fn segments_alternate_and_have_work() {
        let lib = lib();
        let threads = generate(&lib, &WorkloadParams::default());
        for t in &threads {
            assert!(!t.segments.is_empty());
            assert!(t.segments.iter().any(|s| matches!(s, Segment::Cgra { .. })));
            for s in &t.segments {
                match s {
                    Segment::Cpu(c) => assert!(*c > 0),
                    Segment::Cgra { iterations, .. } => assert!(*iterations > 0),
                }
            }
        }
    }
}
