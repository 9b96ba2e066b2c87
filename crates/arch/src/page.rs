//! Conceptual division of the CGRA into *pages*.
//!
//! A page is a symmetric group of PEs (paper, §VI-A: "symmetrically
//! equivalent groups of PEs which allows page folding"). Pages are purely
//! a compiler concept — no hardware support is required. This module
//! models a page as a rectangular tile of the mesh and orders the tiles
//! *serpentine* (boustrophedon) so that consecutive pages always share a
//! mesh edge; inter-page dependences restricted to the ring of Fig. 5 can
//! then always be carried by single-hop interconnect links.

use crate::mirror::Orientation;
use crate::topology::{Mesh, PeId, Pos};
use serde::{Deserialize, Serialize};

/// Identifier of a page; the index is the page's position in ring order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PageId(pub u16);

impl PageId {
    /// The raw index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Page{}", self.0)
    }
}

/// The shape of one page: an `h × w` rectangular tile.
///
/// Rectangles are the symmetric shapes the paper's page folding requires
/// (any mirror of the tile is the same tile).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PageShape {
    /// Tile height in PEs.
    pub h: u16,
    /// Tile width in PEs.
    pub w: u16,
}

impl PageShape {
    /// Construct a shape.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub const fn new(h: u16, w: u16) -> Self {
        assert!(h > 0 && w > 0, "page dimensions must be non-zero");
        PageShape { h, w }
    }

    /// PEs per page.
    #[inline]
    pub fn size(&self) -> usize {
        self.h as usize * self.w as usize
    }

    /// The conventional shape used for a given page *size* on a given
    /// mesh, following the paper's configurations:
    ///
    /// * size 2 → `1×2` dominoes,
    /// * size 4 → `2×2` quadrants,
    /// * size 8 → `2×4` bricks,
    /// * size 9 → `3×3` blocks (our substitute for "8" on the 6×6 mesh,
    ///   where 8 does not divide 36 — see DESIGN.md),
    /// * size 16 → `4×4` blocks.
    ///
    /// Returns `None` if the size is unsupported or does not tile `mesh`.
    pub fn for_size(mesh: Mesh, size: usize) -> Option<PageShape> {
        let shape = match size {
            2 => PageShape::new(1, 2),
            4 => PageShape::new(2, 2),
            8 => PageShape::new(2, 4),
            9 => PageShape::new(3, 3),
            16 => PageShape::new(4, 4),
            _ => return None,
        };
        if mesh.rows().is_multiple_of(shape.h) && mesh.cols().is_multiple_of(shape.w) {
            Some(shape)
        } else {
            None
        }
    }
}

/// Error building a [`PageLayout`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// The tile shape does not evenly tile the mesh.
    DoesNotTile {
        /// The offending mesh.
        mesh: Mesh,
        /// The offending shape.
        shape: PageShape,
    },
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::DoesNotTile { mesh, shape } => write!(
                f,
                "{}x{} pages do not tile a {}x{} mesh",
                shape.h,
                shape.w,
                mesh.rows(),
                mesh.cols()
            ),
        }
    }
}

impl std::error::Error for LayoutError {}

/// A complete division of a mesh into pages, in serpentine ring order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageLayout {
    mesh: Mesh,
    shape: PageShape,
    /// Tile-grid origin (top-left PE position) of each page, indexed by page.
    origins: Vec<Pos>,
    /// Page of each PE, indexed by `PeId`.
    page_of: Vec<PageId>,
}

impl PageLayout {
    /// Tile `mesh` with `shape` pages and order them serpentine.
    pub fn new(mesh: Mesh, shape: PageShape) -> Result<Self, LayoutError> {
        if !mesh.rows().is_multiple_of(shape.h) || !mesh.cols().is_multiple_of(shape.w) {
            return Err(LayoutError::DoesNotTile { mesh, shape });
        }
        let tile_rows = mesh.rows() / shape.h;
        let tile_cols = mesh.cols() / shape.w;
        let mut origins = Vec::with_capacity((tile_rows * tile_cols) as usize);
        for tr in 0..tile_rows {
            // Boustrophedon: even tile-rows run left→right, odd run right→left,
            // so consecutive pages always share a mesh edge.
            let cols: Vec<u16> = if tr % 2 == 0 {
                (0..tile_cols).collect()
            } else {
                (0..tile_cols).rev().collect()
            };
            for tc in cols {
                origins.push(Pos::new(tr * shape.h, tc * shape.w));
            }
        }
        let mut page_of = vec![PageId(0); mesh.num_pes()];
        for (i, &origin) in origins.iter().enumerate() {
            for dr in 0..shape.h {
                for dc in 0..shape.w {
                    let pe = mesh.pe(Pos::new(origin.r + dr, origin.c + dc));
                    page_of[pe.index()] = PageId(i as u16);
                }
            }
        }
        Ok(PageLayout {
            mesh,
            shape,
            origins,
            page_of,
        })
    }

    /// Convenience: the layout for a given page *size* on `mesh`.
    pub fn for_size(mesh: Mesh, size: usize) -> Result<Self, LayoutError> {
        let shape = PageShape::for_size(mesh, size).ok_or(LayoutError::DoesNotTile {
            mesh,
            shape: PageShape::new(1, size.max(1) as u16),
        })?;
        PageLayout::new(mesh, shape)
    }

    /// The underlying mesh.
    #[inline]
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// The page shape.
    #[inline]
    pub fn shape(&self) -> PageShape {
        self.shape
    }

    /// Number of pages.
    #[inline]
    pub fn num_pages(&self) -> usize {
        self.origins.len()
    }

    /// Iterate over all pages in ring order.
    pub fn pages(&self) -> impl Iterator<Item = PageId> + '_ {
        (0..self.num_pages() as u16).map(PageId)
    }

    /// The page containing a PE.
    #[inline]
    pub fn page_of(&self, pe: PeId) -> PageId {
        self.page_of[pe.index()]
    }

    /// Top-left PE position of a page.
    #[inline]
    pub fn origin(&self, page: PageId) -> Pos {
        self.origins[page.index()]
    }

    /// All PEs of a page, row-major within the tile.
    pub fn pes_of(&self, page: PageId) -> impl Iterator<Item = PeId> + '_ {
        let origin = self.origin(page);
        let (h, w, mesh) = (self.shape.h, self.shape.w, self.mesh);
        (0..h).flat_map(move |dr| {
            (0..w).map(move |dc| mesh.pe(Pos::new(origin.r + dr, origin.c + dc)))
        })
    }

    /// A PE's coordinate *within* its page.
    pub fn intra_pos(&self, pe: PeId) -> Pos {
        let p = self.mesh.pos(pe);
        let origin = self.origin(self.page_of(pe));
        Pos::new(p.r - origin.r, p.c - origin.c)
    }

    /// The PE at intra-page coordinate `local` of `page`, after applying
    /// `orient` to the coordinate (used when a relocated page is mirrored).
    ///
    /// # Panics
    /// Panics if `local` lies outside the page shape.
    pub fn pe_at(&self, page: PageId, local: Pos, orient: Orientation) -> PeId {
        let local = orient.apply(local, self.shape.h, self.shape.w);
        let origin = self.origin(page);
        self.mesh
            .pe(Pos::new(origin.r + local.r, origin.c + local.c))
    }

    /// Whether two pages share at least one mesh edge.
    pub fn pages_adjacent(&self, a: PageId, b: PageId) -> bool {
        if a == b {
            return false;
        }
        self.pes_of(a)
            .any(|pa| self.mesh.neighbors(pa).any(|n| self.page_of(n) == b))
    }

    /// Whether consecutive pages in ring order are all physically adjacent
    /// (always true for serpentine layouts; asserted in tests).
    pub fn ring_path_is_physical(&self) -> bool {
        (1..self.num_pages()).all(|i| self.pages_adjacent(PageId(i as u16 - 1), PageId(i as u16)))
    }

    /// Whether a dependence step from page `a` to page `b` is legal under
    /// the paper's data-flow constraint, *path* semantics: stay on the
    /// page or advance to the next page in ring order, without
    /// wrap-around. The mapper uses path semantics so that shrunk
    /// schedules never need the wrap link (see DESIGN.md §4.1); the
    /// PageMaster transform itself also accepts full-ring inputs.
    #[inline]
    pub fn is_ring_step(&self, a: PageId, b: PageId) -> bool {
        b == a || b.0 == a.0 + 1
    }

    /// The next page in ring order (with wrap-around).
    #[inline]
    pub fn next_page(&self, p: PageId) -> PageId {
        PageId(((p.index() + 1) % self.num_pages()) as u16)
    }

    /// The previous page in ring order (with wrap-around).
    #[inline]
    pub fn prev_page(&self, p: PageId) -> PageId {
        let n = self.num_pages();
        PageId(((p.index() + n - 1) % n) as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(rows: u16, cols: u16, size: usize) -> PageLayout {
        PageLayout::for_size(Mesh::new(rows, cols), size).unwrap()
    }

    #[test]
    fn quadrants_of_4x4() {
        let l = layout(4, 4, 4);
        assert_eq!(l.num_pages(), 4);
        // Serpentine on a 2x2 tile grid: TL, TR, BR, BL.
        assert_eq!(l.origin(PageId(0)), Pos::new(0, 0));
        assert_eq!(l.origin(PageId(1)), Pos::new(0, 2));
        assert_eq!(l.origin(PageId(2)), Pos::new(2, 2));
        assert_eq!(l.origin(PageId(3)), Pos::new(2, 0));
    }

    #[test]
    fn quadrant_ring_path_is_physical() {
        let l = layout(4, 4, 4);
        assert!(l.ring_path_is_physical());
    }

    #[test]
    fn dominoes_of_4x4_form_physical_path() {
        let l = layout(4, 4, 2);
        assert_eq!(l.num_pages(), 8);
        assert!(l.ring_path_is_physical());
    }

    #[test]
    fn paper_grid_layouts_are_physical_paths() {
        // Every (CGRA size, page size) point from §VII-A.
        for (dim, sizes) in [
            (4u16, &[2usize, 4, 8][..]),
            (6, &[2, 4, 9]),
            (8, &[2, 4, 8, 16]),
        ] {
            for &s in sizes {
                let l = layout(dim, dim, s);
                assert_eq!(l.num_pages(), (dim as usize * dim as usize) / s);
                assert!(
                    l.ring_path_is_physical(),
                    "{dim}x{dim} page size {s}: ring order not physically adjacent"
                );
            }
        }
    }

    #[test]
    fn page_of_partitions_all_pes() {
        let l = layout(6, 6, 4);
        let mut counts = vec![0usize; l.num_pages()];
        for pe in l.mesh().pes() {
            counts[l.page_of(pe).index()] += 1;
        }
        assert!(counts.iter().all(|&c| c == 4));
    }

    #[test]
    fn pes_of_agrees_with_page_of() {
        let l = layout(8, 8, 8);
        for page in l.pages() {
            for pe in l.pes_of(page) {
                assert_eq!(l.page_of(pe), page);
            }
        }
    }

    #[test]
    fn intra_pos_roundtrip() {
        let l = layout(4, 4, 4);
        for pe in l.mesh().pes() {
            let page = l.page_of(pe);
            let local = l.intra_pos(pe);
            assert_eq!(l.pe_at(page, local, Orientation::Identity), pe);
        }
    }

    #[test]
    fn pe_at_with_mirror() {
        let l = layout(4, 4, 4);
        // Page 0 is the TL quadrant. MirrorV maps (0,0) -> (0,1).
        let pe = l.pe_at(PageId(0), Pos::new(0, 0), Orientation::MirrorV);
        assert_eq!(l.mesh().pos(pe), Pos::new(0, 1));
    }

    #[test]
    fn adjacency_is_symmetric_and_irreflexive() {
        let l = layout(6, 6, 4);
        for a in l.pages() {
            assert!(!l.pages_adjacent(a, a));
            for b in l.pages() {
                assert_eq!(l.pages_adjacent(a, b), l.pages_adjacent(b, a));
            }
        }
    }

    #[test]
    fn non_dividing_shape_is_rejected() {
        assert!(PageLayout::for_size(Mesh::new(6, 6), 8).is_err());
        assert!(PageShape::for_size(Mesh::new(6, 6), 8).is_none());
    }

    #[test]
    fn shape_for_size_table() {
        let m = Mesh::new(8, 8);
        assert_eq!(PageShape::for_size(m, 2), Some(PageShape::new(1, 2)));
        assert_eq!(PageShape::for_size(m, 4), Some(PageShape::new(2, 2)));
        assert_eq!(PageShape::for_size(m, 8), Some(PageShape::new(2, 4)));
        assert_eq!(PageShape::for_size(m, 16), Some(PageShape::new(4, 4)));
        assert_eq!(PageShape::for_size(m, 3), None);
    }

    #[test]
    fn next_prev_page_wrap() {
        let l = layout(4, 4, 4);
        assert_eq!(l.next_page(PageId(3)), PageId(0));
        assert_eq!(l.prev_page(PageId(0)), PageId(3));
        assert_eq!(l.next_page(PageId(1)), PageId(2));
    }
}
