//! # cgra-bench — the paper's evaluation, regenerated
//!
//! Harness functions for every figure in the paper's evaluation section
//! (§VII), shared by the `fig8`, `fig9` and `report` binaries:
//!
//! * [`cli`] — the one command-line parser of every binary here and of
//!   `cgra-mt`: declared flags, typed errors, exit 2.
//! * [`engine`] — the parallel sweep engine (`--jobs N`), with the
//!   byte-identical-output determinism contract.
//! * [`fig8`] — Figure 8(a–c): per-kernel performance of the
//!   paging-constrained mapping relative to the unconstrained baseline,
//!   for each CGRA size and page size.
//! * [`fig9`] — Figure 9(a–c): system-level improvement of the
//!   multithreaded CGRA over the single-threaded FCFS baseline, for each
//!   thread count, CGRA need, page size, and CGRA size.
//! * [`mapcache`] — the per-process kernel-profile and kernel-library
//!   cache: each key compiles once per run, in memory.
//! * [`lint`] — the `cgra-lint` pipeline linter over `cgra-analyze`.
//! * [`obsflags`] — `--trace <path>` / `--metrics` flag handling shared
//!   by the figure binaries (JSONL traces, folded metrics).
//! * [`table`] — plain-text/markdown table rendering.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
pub mod engine;
pub mod fig8;
pub mod fig9;
pub mod lint;
pub mod mapcache;
pub mod obsflags;
pub mod table;

use cgra_arch::CgraConfig;

/// [`cgra_arch::fabric`] for a point the caller vouches for: the paper
/// grid or a fixed operating point of a figure binary.
///
/// # Panics
/// Panics with the [`cgra_arch::FabricError`] if `(dim, page_size)`
/// names no fabric.
pub(crate) fn grid_fabric(dim: u16, page_size: usize) -> CgraConfig {
    cgra_arch::fabric(dim, page_size).unwrap_or_else(|e| panic!("{e}"))
}

/// The value of `result`, or exit 1 naming its error after `bin`: how a
/// figure binary ends when a kernel does not compile, since the error
/// names the kernel and the fabric.
pub fn or_exit<T, E: std::fmt::Display>(bin: &str, result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{bin}: {e}");
        std::process::exit(1);
    })
}

/// Thread counts of Fig. 9.
pub const THREAD_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// Seeds averaged per Fig. 9 point.
pub const DEFAULT_SEEDS: u64 = 5;
