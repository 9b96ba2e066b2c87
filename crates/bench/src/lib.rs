//! # cgra-bench — the paper's evaluation, regenerated
//!
//! Harness functions for every figure in the paper's evaluation section
//! (§VII), shared by the `fig8`, `fig9` and `report` binaries:
//!
//! * [`engine`] — the parallel sweep engine (`--jobs N`), with the
//!   byte-identical-output determinism contract.
//! * [`fig8`] — Figure 8(a–c): per-kernel performance of the
//!   paging-constrained mapping relative to the unconstrained baseline,
//!   for each CGRA size and page size.
//! * [`fig9`] — Figure 9(a–c): system-level improvement of the
//!   multithreaded CGRA over the single-threaded FCFS baseline, for each
//!   thread count, CGRA need, page size, and CGRA size.
//! * [`mapcache`] — content-keyed kernel-profile and kernel-library
//!   cache, persisted to `target/mapcache` (`--no-cache` keeps it in
//!   memory).
//! * [`lint`] — the `cgra-lint` pipeline linter over `cgra-analyze`.
//! * [`obsflags`] — `--trace <path>` / `--metrics` flag handling shared
//!   by the figure binaries (JSONL traces, folded metrics).
//! * [`table`] — plain-text/markdown table rendering.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

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

/// Exit 2 naming the first of `args` that is none of `bin`'s flags:
/// `switches` stand alone, and each flag in `valued` takes the argument
/// after it as its value.
pub fn reject_unknown_flags(bin: &str, args: &[String], switches: &[&str], valued: &[&str]) {
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        if valued.contains(&arg) {
            it.next();
        } else if !switches.contains(&arg) {
            let known: Vec<&str> = switches.iter().chain(valued).copied().collect();
            eprintln!(
                "{bin}: unknown flag {arg:?}; expected one of {}",
                known.join(" ")
            );
            std::process::exit(2);
        }
    }
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
