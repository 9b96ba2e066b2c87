//! # cgra-sim — multithreaded CGRA system simulation
//!
//! A deterministic discrete-event simulator reproducing the paper's
//! §VII-B experiment: a multithreaded host whose threads offload loop
//! kernels to one shared CGRA, under two accelerator regimes:
//!
//! * [`baseline::simulate_baseline`] — today's single-threaded,
//!   non-preemptive CGRA: kernels occupy the whole array FCFS.
//! * [`multithreaded::simulate_multithreaded_faulty`] — the paper's proposal:
//!   page-granular space multiplexing with PageMaster shrink/expand,
//!   driven by pre-computed `II_q(M)` tables from real transforms.
//!
//! Workloads ([`workload`]) follow §VII-B.1: 1–16 threads, CGRA need of
//! 50 / 75 / 87.5 %, kernels drawn uniformly from the 11-benchmark
//! library ([`kernel_lib`]).
//!
//! Faults are first-class:
//! [`multithreaded::simulate_multithreaded_faulty`] injects page deaths
//! and degradations mid-run (pages revoked via the allocator, owners
//! remapped or re-queued), and every fallible path reports a typed
//! [`error::SimError`] instead of panicking, so one poisoned sweep point
//! cannot abort a whole bench run.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod baseline;
pub mod error;
pub mod event;
pub mod kernel_lib;
pub mod multithreaded;
pub mod stats;
pub mod workload;

pub use alloc::{Allocator, ExpandPolicy, Expansion, Growth, PageDeath, RequestOutcome};
pub use baseline::simulate_baseline;
pub use error::SimError;
pub use kernel_lib::{halving_chain, Compiled, KernelLibrary, KernelProfile};
pub use multithreaded::{
    simulate_multithreaded_faulty, simulate_multithreaded_faulty_traced, MtConfig,
};
pub use stats::{improvement_percent, FaultStats, SimReport};
pub use workload::{generate, CgraNeed, Segment, ThreadSpec, WorkloadParams};
