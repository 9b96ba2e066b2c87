//! Typed simulation errors.
//!
//! The simulator is driven by the bench engine across many sweep points
//! in parallel; a malformed workload or a degraded fabric must poison
//! *its own* result slot, not abort the process. Every fallible path in
//! [`alloc`](crate::alloc) and [`multithreaded`](crate::multithreaded)
//! reports one of these instead of panicking.

use serde::{Deserialize, Serialize};

/// Why a simulation (or an allocator operation) failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimError {
    /// An operation named a thread the allocator is not tracking.
    UnknownThread {
        /// The thread id.
        thread: usize,
    },
    /// A shrink victim reported by the allocator was not in a running
    /// mode — the allocator and the event loop disagree about state.
    VictimNotRunning {
        /// The thread id.
        thread: usize,
    },
    /// A kernel profile has no transformed II cached for a page budget.
    ProfileMissing {
        /// The kernel name.
        kernel: String,
        /// The page budget with no cached transform.
        m: u16,
    },
    /// A workload segment named a kernel the library does not have.
    UnknownKernel {
        /// The kernel id the segment named.
        kernel: usize,
        /// Kernels in the library (valid ids are `0..kernels`).
        kernels: usize,
    },
    /// A fault event named a page outside the fabric.
    PageOutOfRange {
        /// The offending page.
        page: u16,
        /// Pages in the fabric.
        num_pages: u16,
    },
    /// Faults consumed so much of the fabric that a thread can never be
    /// served again — the run cannot complete.
    Starved {
        /// A thread left waiting forever.
        thread: usize,
        /// Usable pages remaining in the fabric.
        usable_pages: u16,
    },
    /// An internal bookkeeping invariant broke (a bug, reported instead
    /// of asserted so one sweep point cannot kill the whole sweep).
    InvariantViolated {
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnknownThread { thread } => {
                write!(f, "thread {thread} is not on the CGRA")
            }
            SimError::VictimNotRunning { thread } => {
                write!(f, "shrink victim {thread} is not in a running mode")
            }
            SimError::ProfileMissing { kernel, m } => {
                write!(f, "{kernel}: no transform cached for M={m}")
            }
            SimError::UnknownKernel { kernel, kernels } => {
                write!(f, "kernel {kernel} not in a library of {kernels} kernels")
            }
            SimError::PageOutOfRange { page, num_pages } => {
                write!(f, "page {page} outside fabric of {num_pages} pages")
            }
            SimError::Starved {
                thread,
                usable_pages,
            } => write!(
                f,
                "thread {thread} starved: only {usable_pages} usable pages left"
            ),
            SimError::InvariantViolated { detail } => {
                write!(f, "simulator invariant violated: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}
