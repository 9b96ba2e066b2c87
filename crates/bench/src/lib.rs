//! # cgra-bench — the paper's evaluation, regenerated
//!
//! Harness functions for every figure in the paper's evaluation section
//! (§VII), shared by the `fig8`, `fig9` and `report` binaries and the
//! in-repo benches:
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
//! * [`lint`] — the `cgra-lint` pipeline linter over `cgra-analyze`
//!   (also behind the figure binaries' `--analyze` flag).
//! * [`jsonio`] — dependency-free JSON codec backing the disk cache
//!   (re-exported from `cgra-obs`, which also uses it for JSONL traces).
//! * [`microbench`] — minimal wall-clock benchmark harness for the
//!   `benches/` targets.
//! * [`obsflags`] — `--trace <path>` / `--metrics` flag handling shared
//!   by the figure binaries (JSONL traces, folded metrics).
//! * [`table`] — plain-text/markdown table rendering.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod fig8;
pub mod fig9;
pub use cgra_obs::jsonio;
pub mod lint;
pub mod mapcache;
pub mod microbench;
pub mod obsflags;
pub mod table;

use cgra_arch::CgraConfig;

/// The largest even side length whose PE count still fits a `u16` PE id.
const MAX_DIM: u16 = 254;

/// A `(dim, page_size)` pair that names no fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricError {
    /// The side length is zero, odd or above 254: 2×2 pages must tile a
    /// square mesh of at most `u16::MAX` PEs.
    Dim(u16),
    /// `(dim, page_size)`: pages of that many PEs do not tile the mesh.
    PageSize(u16, usize),
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::Dim(dim) => {
                write!(f, "side length {dim} must be even and in 2..={MAX_DIM}")
            }
            FabricError::PageSize(dim, size) => {
                write!(f, "page size {size} does not tile a {dim}x{dim} fabric")
            }
        }
    }
}

impl std::error::Error for FabricError {}

/// The square `dim × dim` fabric with `page_size`-PE pages.
///
/// # Errors
/// [`FabricError`] naming the side length or page size that does not fit.
pub fn fabric(dim: u16, page_size: usize) -> Result<CgraConfig, FabricError> {
    if dim == 0 || !dim.is_multiple_of(2) || dim > MAX_DIM {
        return Err(FabricError::Dim(dim));
    }
    CgraConfig::square(dim)
        .with_page_size(page_size)
        .map_err(|_| FabricError::PageSize(dim, page_size))
}

/// [`fabric`] for a point the caller vouches for: the paper grid or a
/// fixed operating point of a figure binary.
///
/// # Panics
/// Panics with the [`FabricError`] if `(dim, page_size)` names no fabric.
pub(crate) fn grid_fabric(dim: u16, page_size: usize) -> CgraConfig {
    fabric(dim, page_size).unwrap_or_else(|e| panic!("{e}"))
}

/// The paper's experimental grid: `(dimension, page sizes)` per §VII-A.
/// The 6×6 "8 PE" point is substituted with 3×3 pages (9 PEs) — 8 does
/// not divide 36 (DESIGN.md, substitution 4). The paper skips 8-PE pages
/// on the 4×4 for Fig. 9 ("not enough multithreading potential") but maps
/// them in Fig. 8; we keep the point in both and let the data show it.
pub const GRID: [(u16, &[usize]); 3] = [(4, &[2, 4, 8]), (6, &[2, 4, 9]), (8, &[2, 4, 8])];

/// Thread counts of Fig. 9.
pub const THREAD_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// Seeds averaged per Fig. 9 point.
pub const DEFAULT_SEEDS: u64 = 5;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_matches_square_with_page_size_on_the_grid() {
        for &(dim, sizes) in &GRID {
            for &s in sizes {
                let expected = CgraConfig::square(dim).with_page_size(s).unwrap();
                assert_eq!(fabric(dim, s), Ok(expected));
            }
        }
    }

    #[test]
    fn bad_geometry_is_a_typed_error() {
        for dim in [0, 5, 7, 256] {
            assert_eq!(fabric(dim, 4), Err(FabricError::Dim(dim)));
        }
        for (dim, page) in [(4, 3), (6, 8), (4, 9)] {
            assert_eq!(fabric(dim, page), Err(FabricError::PageSize(dim, page)));
        }
        assert_eq!(
            fabric(5, 3).unwrap_err().to_string(),
            "side length 5 must be even and in 2..=254"
        );
    }
}
