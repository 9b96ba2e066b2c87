//! [`CgraConfig`] — the validated bundle of architectural parameters.

use crate::memory::MemModel;
use crate::page::{LayoutError, PageLayout, PageShape};
use crate::pe::PeCapability;
use crate::register::RotatingRf;
use crate::topology::Mesh;
use serde::{Deserialize, Serialize};

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

/// The paper's experimental grid (§VII-A): `(dimension, page sizes)`,
/// every point a [`fabric`]. The 6×6 "8 PE" point is substituted with
/// 3×3 pages (9 PEs), because 8 does not divide 36 (DESIGN.md,
/// substitution 4). The paper skips 8-PE pages on the 4×4 for Fig. 9
/// ("not enough multithreading potential") but maps them in Fig. 8; the
/// figures keep the point in both and let the data show it.
pub const PAPER_GRID: [(u16, &[usize]); 3] = [(4, &[2, 4, 8]), (6, &[2, 4, 9]), (8, &[2, 4, 8])];

/// The square `dim × dim` fabric with `page_size`-PE pages: the checked
/// form of `CgraConfig::square(dim).with_page_size(page_size)` for a
/// geometry that comes from user input.
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

/// A complete CGRA description: mesh, per-PE capability, rotating RF size,
/// memory buses, and the conceptual page division.
///
/// ```
/// use cgra_arch::CgraConfig;
/// let cgra = CgraConfig::square(4).with_page_size(4).unwrap();
/// assert_eq!(cgra.layout().num_pages(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CgraConfig {
    mesh: Mesh,
    capability: PeCapability,
    rf: RotatingRf,
    mem: MemModel,
    layout: PageLayout,
}

impl CgraConfig {
    /// An `n × n` CGRA with the paper's defaults: homogeneous full-capability
    /// PEs, one bus per row, and 2×2 pages (page size 4).
    ///
    /// # Panics
    /// Panics if `n` is odd (2×2 pages must tile the mesh); use
    /// [`CgraConfig::new`] for exotic dimensions.
    pub fn square(n: u16) -> Self {
        CgraConfig::new(
            Mesh::new(n, n),
            PageShape::for_size(Mesh::new(n, n), 4)
                .expect("square() requires even n so 2x2 pages tile the mesh; use CgraConfig::new"),
        )
        .expect("2x2 shape validated above")
    }

    /// Build a config from a mesh and page shape.
    pub fn new(mesh: Mesh, page_shape: PageShape) -> Result<Self, LayoutError> {
        let layout = PageLayout::new(mesh, page_shape)?;
        Ok(CgraConfig {
            mesh,
            capability: PeCapability::full(),
            // §VI-E: N rotating registers per PE (N = number of pages)
            // guarantee shrink-to-one-page; default to at least that.
            rf: RotatingRf::new((layout.num_pages() as u16).max(8)),
            mem: MemModel::default(),
            layout,
        })
    }

    /// Replace the page division by one with `size` PEs per page.
    pub fn with_page_size(self, size: usize) -> Result<Self, LayoutError> {
        let shape = PageShape::for_size(self.mesh, size).ok_or(LayoutError::DoesNotTile {
            mesh: self.mesh,
            shape: PageShape::new(1, size.max(1) as u16),
        })?;
        let layout = PageLayout::new(self.mesh, shape)?;
        Ok(CgraConfig { layout, ..self })
    }

    /// Replace the rotating register file size.
    pub fn with_rf_size(mut self, size: u16) -> Self {
        self.rf = RotatingRf::new(size);
        self
    }

    /// Replace the per-PE capability set.
    pub fn with_capability(mut self, cap: PeCapability) -> Self {
        self.capability = cap;
        self
    }

    /// The PE mesh.
    #[inline]
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// The (homogeneous) capability of each PE.
    #[inline]
    pub fn capability(&self) -> PeCapability {
        self.capability
    }

    /// The rotating register file of each PE.
    #[inline]
    pub fn rf(&self) -> RotatingRf {
        self.rf
    }

    /// The memory subsystem.
    #[inline]
    pub fn mem(&self) -> MemModel {
        self.mem
    }

    /// The page division.
    #[inline]
    pub fn layout(&self) -> &PageLayout {
        &self.layout
    }

    /// Total PEs.
    #[inline]
    pub fn num_pes(&self) -> usize {
        self.mesh.num_pes()
    }

    /// One page of this fabric as a fabric of its own: a mesh of the
    /// page's shape holding a single page, with this fabric's PE
    /// capability, rotating file and row buses. A shrink to one page
    /// (Fig. 6) is a mapping on it.
    pub fn page_fabric(&self) -> CgraConfig {
        let shape = self.layout.shape();
        let mesh = Mesh::new(shape.h, shape.w);
        CgraConfig {
            mesh,
            layout: PageLayout::new(mesh, shape).expect("a page tiles itself"),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_matches_square_with_page_size_on_the_paper_grid() {
        for (dim, sizes) in [(4, [2, 4, 8]), (6, [2, 4, 9]), (8, [2, 4, 8])] {
            for s in sizes {
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

    #[test]
    fn square_default_is_2x2_pages() {
        let c = CgraConfig::square(4);
        assert_eq!(c.layout().num_pages(), 4);
        assert_eq!(c.layout().shape(), PageShape::new(2, 2));
    }

    #[test]
    fn with_page_size_rebuilds_layout() {
        let c = CgraConfig::square(4).with_page_size(2).unwrap();
        assert_eq!(c.layout().num_pages(), 8);
    }

    #[test]
    fn invalid_page_size_is_error() {
        assert!(CgraConfig::square(6).with_page_size(8).is_err());
    }

    #[test]
    fn rf_defaults_cover_page_count() {
        // §VI-E: N rotating registers per PE where N = number of pages.
        let c = CgraConfig::square(8).with_page_size(2).unwrap();
        // Note: with_page_size keeps the RF chosen at construction; the
        // caller tunes it explicitly when exploring page sizes.
        let pages = c.layout().num_pages() as u16;
        let c = c.with_rf_size(pages);
        assert!(c.rf().size() as usize >= c.layout().num_pages());
    }

    #[test]
    fn paper_grid_has_nine_points() {
        let grid: Vec<CgraConfig> = PAPER_GRID
            .iter()
            .flat_map(|&(dim, sizes)| sizes.iter().map(move |&s| fabric(dim, s).unwrap()))
            .collect();
        assert_eq!(grid.len(), 9);
        assert!(grid.iter().all(|c| c.layout().ring_path_is_physical()));
    }

    #[test]
    fn page_fabric_is_one_page_with_the_same_pes() {
        let c = fabric(8, 8).unwrap().with_rf_size(20);
        let p = c.page_fabric();
        assert_eq!((p.mesh().rows(), p.mesh().cols()), (2, 4));
        assert_eq!(p.layout().num_pages(), 1);
        assert_eq!(p.layout().shape(), c.layout().shape());
        assert_eq!(
            (p.rf(), p.capability(), p.mem()),
            (c.rf(), c.capability(), c.mem())
        );
    }

    #[test]
    fn builders_compose() {
        let c = CgraConfig::square(6)
            .with_page_size(9)
            .unwrap()
            .with_rf_size(16)
            .with_capability(PeCapability::full().with_mul(false));
        assert_eq!(c.layout().num_pages(), 4);
        assert_eq!(c.rf().size(), 16);
        assert!(!c.capability().supports(crate::pe::FuClass::Mul));
    }
}
