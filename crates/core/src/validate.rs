//! Independent validation of shrink plans.
//!
//! Mirrors §VI-C's constraints, re-derived from scratch against the plan:
//!
//! 1. **Slot exclusivity** — no two cell instances may occupy the same
//!    (column, cycle), across period boundaries included.
//! 2. **Dependence timing** — every dependence's consumer instance
//!    executes strictly after its producer instance.
//! 3. **Dependence columns** — producer and consumer instances sit in the
//!    same or adjacent columns (`x2−1 ≤ x1 ≤ x2+1`); for parked values
//!    (gap > 1, the `Stable` discipline) the producer page's column must
//!    additionally be *constant* throughout the plan, since the value
//!    physically rests in that page's register files.
//! 4. **Capacity bound** — `II_q ≥ total cell work / M` (the corrected
//!    §VI-C resource bound, see DESIGN.md).

use crate::paged::PagedSchedule;
use crate::transform::ShrinkPlan;

/// A violation found by [`validate_plan`].
#[derive(Debug, Clone, PartialEq)]
pub enum TransformViolation {
    /// A cell has no placement in some period entry.
    MissingCell {
        /// Period index.
        period_index: u32,
        /// Cell page.
        page: u16,
        /// Cell slot.
        slot: u32,
    },
    /// A placement names a column outside `0..M`.
    BadColumn {
        /// The offending column.
        col: u16,
    },
    /// Two instances collide on (column, cycle).
    SlotCollision {
        /// The column.
        col: u16,
        /// The cycle.
        time: u64,
    },
    /// A dependence's consumer does not run after its producer.
    DepTiming {
        /// Producer (page, slot).
        from: (u16, u32),
        /// Consumer (page, slot).
        to: (u16, u32),
        /// Producer instance time.
        t_from: u64,
        /// Consumer instance time.
        t_to: u64,
    },
    /// A dependence spans more than one column.
    DepColumns {
        /// Producer (page, slot).
        from: (u16, u32),
        /// Consumer (page, slot).
        to: (u16, u32),
        /// Producer column.
        col_from: u16,
        /// Consumer column.
        col_to: u16,
    },
    /// A parked value's page wanders between columns while the value
    /// rests in its RFs.
    UnstableParking {
        /// The page whose column changes.
        page: u16,
    },
    /// The plan undershoots the capacity bound — it cannot be executable.
    BelowCapacityBound {
        /// `span / period` claimed.
        ii_q: f64,
        /// The bound `occupied cells / M` (per iteration).
        bound: f64,
    },
}

impl std::fmt::Display for TransformViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformViolation::MissingCell {
                period_index,
                page,
                slot,
            } => write!(f, "period {period_index}: cell ({page},{slot}) unplaced"),
            TransformViolation::BadColumn { col } => write!(f, "column {col} out of range"),
            TransformViolation::SlotCollision { col, time } => {
                write!(f, "two cells at (col {col}, t {time})")
            }
            TransformViolation::DepTiming {
                from,
                to,
                t_from,
                t_to,
            } => write!(
                f,
                "dep ({},{}) -> ({},{}): consumer at {t_to} not after producer at {t_from}",
                from.0, from.1, to.0, to.1
            ),
            TransformViolation::DepColumns {
                from,
                to,
                col_from,
                col_to,
            } => write!(
                f,
                "dep ({},{}) -> ({},{}): columns {col_from} and {col_to} not adjacent",
                from.0, from.1, to.0, to.1
            ),
            TransformViolation::UnstableParking { page } => {
                write!(f, "page {page} parks values but changes column")
            }
            TransformViolation::BelowCapacityBound { ii_q, bound } => {
                write!(f, "II_q {ii_q} below capacity bound {bound}")
            }
        }
    }
}

/// Validate `plan` against `p`. Returns all violations (empty = valid).
pub fn validate_plan(p: &PagedSchedule, plan: &ShrinkPlan) -> Vec<TransformViolation> {
    let mut violations = Vec::new();
    let ii = p.ii as u64;

    // --- Shape: every cell placed, columns in range. ---
    for j in 0..plan.placements.len() {
        for page in 0..p.num_pages {
            for slot in 0..p.ii {
                match plan.cell(j, page, slot) {
                    None => violations.push(TransformViolation::MissingCell {
                        period_index: j as u32,
                        page,
                        slot,
                    }),
                    Some(c) if c.col >= plan.m => {
                        violations.push(TransformViolation::BadColumn { col: c.col })
                    }
                    Some(_) => {}
                }
            }
        }
    }
    if !violations.is_empty() {
        return violations;
    }

    // --- Slot exclusivity over a window of 2·period + 2 iterations. ---
    // Only occupied cells consume a slot; empty cells are free capacity.
    let window = plan.period as u64 * 2 + 2;
    let mut seen = std::collections::HashSet::new();
    for iter in 0..window {
        for page in 0..p.num_pages {
            for slot in 0..p.ii {
                if p.cell(page, slot).is_empty() {
                    continue;
                }
                let c = plan.at(page, slot, iter);
                if !seen.insert((c.col, c.time)) {
                    violations.push(TransformViolation::SlotCollision {
                        col: c.col,
                        time: c.time,
                    });
                }
            }
        }
    }

    // --- Column stability map for parked values. ---
    let col_stable: Vec<Option<u16>> = (0..p.num_pages)
        .map(|page| {
            let mut cols = (0..plan.placements.len()).flat_map(|j| {
                (0..p.ii).filter_map(move |slot| plan.cell(j, page, slot).map(|c| c.col))
            });
            let first = cols.next()?;
            cols.all(|c| c == first).then_some(first)
        })
        .collect();

    // Wrap-column adjacency is only physical for the identity-size plan.
    let wrap_ok = plan.m == p.num_pages;
    let cols_adjacent =
        |a: u16, b: u16| a.abs_diff(b) <= 1 || (wrap_ok && a.min(b) == 0 && a.max(b) == plan.m - 1);

    // --- Dependences, instantiated over the window. ---
    for dep in &p.deps {
        let (fp, fs) = (dep.from_page, (dep.from_time as u64 % ii) as u32);
        let (tp, ts) = (dep.to_page, (dep.to_time as u64 % ii) as u32);
        let f_shift = dep.from_time as u64 / ii;
        let t_shift = dep.to_time as u64 / ii;
        for base in 0..plan.period as u64 {
            let from = plan.at(fp, fs, base + f_shift);
            let to = plan.at(tp, ts, base + t_shift);
            if to.time <= from.time {
                violations.push(TransformViolation::DepTiming {
                    from: (fp, fs),
                    to: (tp, ts),
                    t_from: from.time,
                    t_to: to.time,
                });
            }
            if !cols_adjacent(from.col, to.col) {
                violations.push(TransformViolation::DepColumns {
                    from: (fp, fs),
                    to: (tp, ts),
                    col_from: from.col,
                    col_to: to.col,
                });
            }
        }
        // Parked values (gap > 1) rest in the producer page's RFs: that
        // page's column must be constant.
        if dep.gap() > 1 && col_stable[dep.from_page as usize].is_none() {
            violations.push(TransformViolation::UnstableParking {
                page: dep.from_page,
            });
        }
    }

    // --- Capacity bound. ---
    let occupied = p.cells.iter().filter(|c| !c.is_empty()).count();
    let bound = occupied as f64 / plan.m as f64;
    if plan.ii_q() + 1e-9 < bound {
        violations.push(TransformViolation::BelowCapacityBound {
            ii_q: plan.ii_q(),
            bound,
        });
    }

    violations.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    violations.dedup();
    violations
}

/// Whether the plan fills *every* (column, cycle) slot — the paper's
/// optimality criterion ("a page from P scheduled in every location in
/// Q"). Only attainable when all cells are occupied and `M · II_q` equals
/// the cell count per iteration.
pub fn is_slot_optimal(p: &PagedSchedule, plan: &ShrinkPlan) -> bool {
    let cells_per_iter = p.cells.iter().filter(|c| !c.is_empty()).count() as u64;
    plan.m as u64 * plan.span == cells_per_iter * plan.period as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{transform_block, Strategy};

    #[test]
    fn block_plans_validate_for_synthetic_grids() {
        for n in [4u16, 6, 8, 9, 16] {
            let p = PagedSchedule::synthetic_canonical(n, 2, false);
            for m in 1..=n {
                let plan = transform_block(&p, m).unwrap();
                let v = validate_plan(&p, &plan);
                assert!(v.is_empty(), "N={n} M={m}: {v:?}");
            }
        }
    }

    #[test]
    fn pagemaster_plans_validate_for_wrap_grids() {
        for n in [4u16, 6, 8] {
            let p = PagedSchedule::synthetic_canonical(n, 1, true);
            for m in 2..=n {
                match crate::pagemaster::transform_pagemaster(&p, m) {
                    Ok(plan) => {
                        let v = validate_plan(&p, &plan);
                        assert!(v.is_empty(), "N={n} M={m}: {v:?}");
                    }
                    Err(e) => panic!("N={n} M={m}: {e}"),
                }
            }
        }
    }

    #[test]
    fn block_dividing_is_slot_optimal() {
        let p = PagedSchedule::synthetic_canonical(8, 2, false);
        for m in [1u16, 2, 4, 8] {
            let plan = transform_block(&p, m).unwrap();
            assert!(is_slot_optimal(&p, &plan), "M={m} not optimal");
        }
        // Non-dividing M leaves holes.
        let plan = transform_block(&p, 5).unwrap();
        assert!(!is_slot_optimal(&p, &plan));
    }

    #[test]
    fn corrupted_plan_is_caught() {
        let p = PagedSchedule::synthetic_canonical(4, 1, false);
        let mut plan = transform_block(&p, 2).unwrap();
        // Move page 3 into the same slot as page 2.
        let c2 = plan.cell(0, 2, 0).unwrap();
        *plan.cell_mut(0, 3, 0).unwrap() = c2;
        let v = validate_plan(&p, &plan);
        assert!(
            v.iter()
                .any(|x| matches!(x, TransformViolation::SlotCollision { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn short_row_reports_the_missing_cell() {
        let p = PagedSchedule::synthetic_canonical(4, 2, false);
        let mut plan = transform_block(&p, 2).unwrap();
        plan.placements[0].pop();
        assert_eq!(
            validate_plan(&p, &plan),
            vec![TransformViolation::MissingCell {
                period_index: 0,
                page: 3,
                slot: 1
            }]
        );
    }

    #[test]
    fn timing_violation_is_caught() {
        let p = PagedSchedule::synthetic_canonical(4, 1, false);
        let mut plan = transform_block(&p, 4).unwrap();
        // Put consumer page 1 before its producer page 0... block at M=4
        // places all pages at time 0 in distinct columns; deps (0,t)->(1,t+1)
        // cross iterations, so instead break a column.
        plan.cell_mut(0, 1, 0).unwrap().col = 3;
        let v = validate_plan(&p, &plan);
        assert!(
            v.iter().any(|x| matches!(
                x,
                TransformViolation::DepColumns { .. } | TransformViolation::SlotCollision { .. }
            )),
            "{v:?}"
        );
    }

    #[test]
    fn transform_auto_picks_validly_for_extracted_schedules() {
        let cgra = cgra_arch::CgraConfig::square(4);
        for k in cgra_dfg::kernels::all() {
            let r = cgra_mapper::map_constrained(&k, &cgra, &cgra_mapper::MapOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", k.name));
            let ps = crate::paged::PagedSchedule::from_mapping(&r, &cgra).unwrap();
            for m in [1u16, 2, 4] {
                let plan = crate::transform::transform(&ps, m, Strategy::Auto)
                    .unwrap_or_else(|e| panic!("{} M={m}: {e}", k.name));
                let v = validate_plan(&ps, &plan);
                assert!(v.is_empty(), "{} M={m}: {v:?}", k.name);
            }
        }
    }
}
