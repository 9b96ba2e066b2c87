//! Page-level schedules — the input of the PageMaster transformation.
//!
//! A constrained mapping (crate `cgra-mapper`) places operations on PEs at
//! absolute times. Viewed at page granularity, it is an `N × II` grid of
//! *cells*: `cell (n, t)` is the set of operations (computes and routing
//! hops) executing on page `n` in modulo slot `t` (paper §VI-C: `P =
//! {p(n,t)}`). The grid, together with the inter-cell dependences
//! extracted from the mapping's edges and routes, is everything the
//! transformation needs.

use cgra_arch::CgraConfig;
use cgra_mapper::{edge_reads, MapMode, MapResult, Read};
use serde::{Deserialize, Serialize};

/// How disciplined the schedule's dependences are — determines which
/// transformation strategies are sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Discipline {
    /// Every dependence spans exactly one cycle and advances at most one
    /// page: the canonical `(n,t−1)`/`(n−1,t−1)` form of §VI-C. Both the
    /// paper's drifting Algorithm 1 and the block transform apply.
    Canonical,
    /// Dependences may park in a page's RFs for several cycles before
    /// being consumed on the same or the next page. Only column-stable
    /// transforms (the block strategy, or folding to one page) are sound.
    Stable,
}

/// One cell of the page-level grid.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cell {
    /// DFG node indices of compute ops in this cell.
    pub compute: Vec<u32>,
    /// Number of routing hops executing in this cell.
    pub routes: u32,
}

impl Cell {
    /// Whether the cell executes anything.
    pub fn is_empty(&self) -> bool {
        self.compute.is_empty() && self.routes == 0
    }

    /// Total operations in the cell.
    pub fn ops(&self) -> usize {
        self.compute.len() + self.routes as usize
    }
}

/// An inter-cell dependence: the value leaves page `from_page` at absolute
/// schedule time `from_time` and is used on `to_page` at `to_time`.
///
/// `to_page` is always `from_page` or `from_page + 1` for schedules
/// produced by the constrained mapper (path ring semantics); synthetic
/// schedules may wrap (`to_page == 0`, `from_page == N−1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PageDep {
    /// Producer page.
    pub from_page: u16,
    /// Absolute time the producing step executes.
    pub from_time: u32,
    /// Consumer page.
    pub to_page: u16,
    /// Absolute time the consuming step executes (`> from_time`).
    pub to_time: u32,
}

impl PageDep {
    /// Cycle gap (`to_time − from_time`, ≥ 1).
    pub fn gap(&self) -> u32 {
        self.to_time - self.from_time
    }
}

/// Why page-level extraction failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtractError {
    /// The mapping was produced without the paging constraints; its
    /// dataflow need not respect the ring and cannot be transformed.
    NotConstrained,
    /// A read has no legal source under the mapping's mode (impossible
    /// for validated mappings); the dependence is the one from the
    /// edge's own chain to the reader.
    IllegalDep(PageDep),
}

impl std::fmt::Display for ExtractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtractError::NotConstrained => {
                write!(f, "page schedules require a ring-constrained mapping")
            }
            ExtractError::IllegalDep(d) => write!(
                f,
                "dependence {} @{} -> {} @{} breaks the ring",
                d.from_page, d.from_time, d.to_page, d.to_time
            ),
        }
    }
}

impl std::error::Error for ExtractError {}

/// The page-level view of a constrained mapping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PagedSchedule {
    /// Kernel name, for reporting.
    pub name: String,
    /// Number of pages in the source layout (N).
    pub num_pages: u16,
    /// Initiation interval of the source mapping (II_p).
    pub ii: u32,
    /// `num_pages × ii` cells, indexed `page * ii + slot`.
    pub cells: Vec<Cell>,
    /// All inter-cell dependences (steps of every edge realisation).
    pub deps: Vec<PageDep>,
    /// The dependence discipline (see [`Discipline`]).
    pub discipline: Discipline,
}

impl PagedSchedule {
    /// The cell at `(page, slot)`.
    pub fn cell(&self, page: u16, slot: u32) -> &Cell {
        &self.cells[page as usize * self.ii as usize + slot as usize]
    }

    fn cell_mut(&mut self, page: u16, slot: u32) -> &mut Cell {
        &mut self.cells[page as usize * self.ii as usize + slot as usize]
    }

    /// Highest page index with any occupied cell, plus one (pages beyond
    /// it are idle and need not be transformed).
    pub fn used_pages(&self) -> u16 {
        (0..self.num_pages)
            .rev()
            .find(|&p| (0..self.ii).any(|t| !self.cell(p, t).is_empty()))
            .map(|p| p + 1)
            .unwrap_or(0)
    }

    /// Total operations across all cells.
    pub fn total_ops(&self) -> usize {
        self.cells.iter().map(Cell::ops).sum()
    }

    /// Average PE-slot utilization of the paged schedule on its fabric
    /// (ops per page-slot, normalised by page size).
    pub fn utilization(&self, page_size: usize) -> f64 {
        self.total_ops() as f64 / (self.cells.len() as f64 * page_size as f64)
    }

    /// Whether any dependence wraps the ring (`N−1 → 0`). Mapper-produced
    /// schedules never wrap; synthetic ones may.
    pub fn has_wrap_deps(&self) -> bool {
        self.deps.iter().any(|d| d.to_page < d.from_page)
    }

    /// Extract the page-level schedule from a constrained mapping.
    pub fn from_mapping(result: &MapResult, cgra: &CgraConfig) -> Result<Self, ExtractError> {
        if result.mode == MapMode::Baseline {
            return Err(ExtractError::NotConstrained);
        }
        let layout = cgra.layout();
        let ii = result.mapping.ii;
        let num_pages = layout.num_pages() as u16;
        let mut ps = PagedSchedule {
            name: result.mdfg.dfg.name.clone(),
            num_pages,
            ii,
            cells: vec![Cell::default(); num_pages as usize * ii as usize],
            deps: Vec::new(),
            discipline: match result.mode {
                MapMode::ConstrainedStrict => Discipline::Canonical,
                _ => Discipline::Stable,
            },
        };

        for (i, p) in result.mapping.placements.iter().enumerate() {
            let page = layout.page_of(p.pe);
            ps.cell_mut(page.0, p.time % ii).compute.push(i as u32);
        }

        // Dependences: one per read of every edge, from the step that
        // published the value to the reading step, at the sources the
        // mapper's read rule picks (`cgra_mapper::edge_reads`, fanout
        // sharing included). Memory edges carry no page deps.
        let dep = |r: &Read| PageDep {
            from_page: layout.page_of(r.from.0).0,
            from_time: r.from.1 - 1,
            to_page: layout.page_of(r.pe).0,
            to_time: r.time as u32,
        };
        for (ei, hops) in result.mapping.routes.iter().enumerate() {
            for h in hops {
                ps.cell_mut(layout.page_of(h.pe).0, h.time % ii).routes += 1;
            }
            let reads = edge_reads(&result.mdfg, cgra, &result.mapping, result.mode, ei)
                .map_err(|f| ExtractError::IllegalDep(dep(&f.read)))?;
            ps.deps.extend(reads.iter().map(dep));
        }
        ps.deps.sort_unstable();
        ps.deps.dedup();
        Ok(ps)
    }

    /// Drop trailing idle pages: the returned schedule has
    /// `num_pages == used_pages()`. The constrained mapper's wavefront
    /// placement fills pages from 0 upward, so a kernel that needs only a
    /// few pages leaves the tail idle; transforms should reshape the used
    /// prefix only (shrinking idle pages would inflate II_q for nothing).
    pub fn trimmed(&self) -> PagedSchedule {
        let used = self.used_pages().max(1);
        if used == self.num_pages {
            return self.clone();
        }
        debug_assert!(self
            .deps
            .iter()
            .all(|d| d.from_page < used && d.to_page < used));
        PagedSchedule {
            name: self.name.clone(),
            num_pages: used,
            ii: self.ii,
            cells: self.cells[..used as usize * self.ii as usize].to_vec(),
            deps: self.deps.clone(),
            discipline: self.discipline,
        }
    }

    /// Build a synthetic canonical schedule: every cell occupied, with the
    /// full canonical dependence pattern `(n,t) → (n,t+1)` and
    /// `(n,t) → (n+1,t+1)`, optionally wrapping the ring (as the paper's
    /// Fig. 7 input does). Used by tests and `report`'s C1 timing table.
    pub fn synthetic_canonical(num_pages: u16, ii: u32, wrap: bool) -> Self {
        let mut cells = vec![Cell::default(); num_pages as usize * ii as usize];
        for (i, c) in cells.iter_mut().enumerate() {
            c.compute.push(i as u32);
        }
        let mut deps = Vec::new();
        for n in 0..num_pages {
            for t in 0..ii {
                // (n, t) -> (n, t+1): same-page storage step.
                deps.push(PageDep {
                    from_page: n,
                    from_time: t,
                    to_page: n,
                    to_time: t + 1,
                });
                // (n, t) -> (n+1, t+1): ring step.
                let next = if n + 1 < num_pages {
                    Some(n + 1)
                } else if wrap {
                    Some(0)
                } else {
                    None
                };
                if let Some(np) = next {
                    deps.push(PageDep {
                        from_page: n,
                        from_time: t,
                        to_page: np,
                        to_time: t + 1,
                    });
                }
            }
        }
        PagedSchedule {
            name: format!("synthetic{num_pages}x{ii}{}", if wrap { "w" } else { "" }),
            num_pages,
            ii,
            cells,
            deps,
            discipline: Discipline::Canonical,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_mapper::{map_constrained, map_constrained_strict, MapOptions};

    #[test]
    fn synthetic_shape() {
        let p = PagedSchedule::synthetic_canonical(4, 2, false);
        assert_eq!(p.cells.len(), 8);
        assert_eq!(p.used_pages(), 4);
        assert!(!p.has_wrap_deps());
        assert_eq!(p.total_ops(), 8);
    }

    #[test]
    fn synthetic_wrap_flag() {
        let p = PagedSchedule::synthetic_canonical(4, 1, true);
        assert!(p.has_wrap_deps());
    }

    #[test]
    fn extraction_from_constrained_mapping() {
        let cgra = cgra_arch::CgraConfig::square(4);
        let r = map_constrained(&cgra_dfg::kernels::mpeg2(), &cgra, &MapOptions::default())
            .expect("maps");
        let ps = PagedSchedule::from_mapping(&r, &cgra).expect("extracts");
        assert_eq!(ps.num_pages, 4);
        assert_eq!(ps.ii, r.ii());
        assert_eq!(ps.discipline, Discipline::Stable);
        // Every compute op appears in exactly one cell.
        let total: usize = ps.cells.iter().map(|c| c.compute.len()).sum();
        assert_eq!(total, r.mdfg.dfg.num_nodes());
        // No wrap, all deps ring-forward.
        assert!(!ps.has_wrap_deps());
    }

    #[test]
    fn strict_mapping_extracts_canonical() {
        let cgra = cgra_arch::CgraConfig::square(4);
        let r = map_constrained_strict(&cgra_dfg::kernels::mpeg2(), &cgra, &MapOptions::default())
            .expect("maps strictly");
        let ps = PagedSchedule::from_mapping(&r, &cgra).expect("extracts");
        assert_eq!(ps.discipline, Discipline::Canonical);
        // Canonical: every dep spans exactly one cycle.
        assert!(ps.deps.iter().all(|d| d.gap() == 1), "{:?}", ps.deps);
    }

    #[test]
    fn baseline_mapping_rejected() {
        let cgra = cgra_arch::CgraConfig::square(4);
        let r =
            cgra_mapper::map_baseline(&cgra_dfg::kernels::mpeg2(), &cgra, &MapOptions::default())
                .expect("maps");
        assert_eq!(
            PagedSchedule::from_mapping(&r, &cgra).unwrap_err(),
            ExtractError::NotConstrained
        );
    }

    #[test]
    fn deps_are_ring_forward_for_all_kernels() {
        let cgra = cgra_arch::CgraConfig::square(4);
        for k in cgra_dfg::kernels::all() {
            let r = map_constrained(&k, &cgra, &MapOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", k.name));
            let ps = PagedSchedule::from_mapping(&r, &cgra).expect("extracts");
            for d in &ps.deps {
                assert!(d.to_page == d.from_page || d.to_page == d.from_page + 1);
                assert!(d.to_time > d.from_time);
            }
        }
    }
}
