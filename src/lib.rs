//! # cgra-mt — Multithreading on CGRAs
//!
//! A from-scratch reproduction of *"Enabling Multithreading on CGRAs"*
//! (ICPP 2011): paging-constrained modulo scheduling plus the
//! **PageMaster** runtime transformation that shrinks and expands kernel
//! schedules at page granularity so several threads can share one CGRA.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`arch`] — the CGRA fabric model (mesh, rotating RFs, pages,
//!   mirroring).
//! * [`dfg`] — loop-kernel dataflow graphs and the 11-benchmark suite.
//! * [`mapper`] — modulo-scheduling mappers: baseline and the paper's
//!   paging-constrained variants.
//! * [`core`] — page-level schedules, the PageMaster transformation, and
//!   its validators (the paper's contribution).
//! * [`sim`] — the discrete-event multithreaded-system simulator behind
//!   the Figure 9 experiments.
//! * [`exec`] — functional execution: a golden DFG interpreter and a
//!   cycle-level machine that prove schedules compute correct values.
//! * [`obs`] — zero-cost-when-off observability: typed trace events from
//!   the mapper/transform/simulator, JSONL sinks, folded metrics, and
//!   the trace-replay oracle.
//! * [`analyze`] — the whole-pipeline static analyzer: coded diagnostics
//!   (`A001`–`A405`) re-deriving every artifact's legality from first
//!   principles, independent of the code that produced it.
//!
//! ## Quick start
//!
//! ```
//! use cgra_mt::prelude::*;
//!
//! // A 4x4 CGRA divided into four 2x2 pages.
//! let cgra = CgraConfig::square(4);
//!
//! // Compile a kernel under the paper's paging constraints...
//! let kernel = cgra_mt::dfg::kernels::mpeg2();
//! let mapped = map_constrained(&kernel, &cgra, &MapOptions::default()).unwrap();
//!
//! // ...and shrink it at "runtime" to half the fabric.
//! let paged = PagedSchedule::from_mapping(&mapped, &cgra).unwrap();
//! let plan = transform(&paged, 2, Strategy::Auto).unwrap();
//! assert!(validate_plan(&paged, &plan).is_empty());
//! assert_eq!(plan.ii_q_ceil(), mapped.ii() * 2);
//! ```

#![warn(missing_docs)]

pub mod kernel_text;

pub use cgra_analyze as analyze;
pub use cgra_arch as arch;
pub use cgra_core as core;
pub use cgra_dfg as dfg;
pub use cgra_exec as exec;
pub use cgra_mapper as mapper;
pub use cgra_obs as obs;
pub use cgra_sim as sim;

/// The commonly-used surface in one import.
pub mod prelude {
    pub use cgra_analyze::{
        analyze_degraded, analyze_mapping, analyze_paged, analyze_plan, analyze_profile, Code,
        Diagnostic, Report, Severity, Span,
    };
    pub use cgra_arch::{
        CgraConfig, FaultKind, FaultMap, FaultSpec, Mesh, Orientation, PageHealth, PageId, PeId,
    };
    pub use cgra_core::transform::{transform, Strategy};
    pub use cgra_core::{
        fold_to_page, transform_block, transform_degraded, transform_pagemaster, validate_plan,
        DegradedPlan, PagedSchedule, ShrinkPlan,
    };
    pub use cgra_dfg::{Dfg, DfgBuilder, OpKind};
    pub use cgra_exec::{execute, interpret, ExecError, InputStreams};
    pub use cgra_mapper::{
        map_baseline, map_constrained, map_constrained_strict, validate_mapping, MapMode,
        MapOptions, MapResult,
    };
    pub use cgra_obs::Tracer;
    pub use cgra_sim::{
        generate, improvement_percent, simulate_baseline, simulate_multithreaded_faulty, CgraNeed,
        FaultStats, KernelLibrary, MtConfig, SimError, WorkloadParams,
    };
}
