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
//!
//! A plan must first have its shape: every cell of every row placed in a
//! column below `M`, and a row for each of its `period` iterations (a
//! zero period lacks row 0). Otherwise only the shape violations are
//! reported, since the instances the other checks read do not exist.
//!
//! The checks read instances by direct row index, stepping through the
//! period's rows. Exclusivity collects the window's `(column, time)`
//! instances and finds repeats with a per-column bitset over the
//! window's time range when that range is at most 64 slots per instance,
//! and by sorting otherwise, so its memory follows the instance count
//! and never the plan's time values. [`validate_plan`] is also the
//! acceptance guard of every drifting plan Algorithm 1 hands out, so
//! its cost is part of each re-plan.

use crate::paged::PagedSchedule;
use crate::transform::{CellPlacement, ShrinkPlan};

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
///
/// A plan whose shape is broken (a cell or a whole period row missing,
/// a column out of range) gets only those shape violations, in row,
/// page and slot order: the window checks need every instance to exist.
/// Otherwise the list is sorted and deduplicated.
pub fn validate_plan(p: &PagedSchedule, plan: &ShrinkPlan) -> Vec<TransformViolation> {
    let mut violations = Vec::new();
    let ii = p.ii as u64;
    // Cell (page, slot) sits at `page · stride + slot` of a plan row.
    let stride = plan.ii_p as usize;
    let index = |page: u16, slot: u32| page as usize * stride + slot as usize;

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
    // A period row with no entry at all (a zero period has no row 0).
    let absent = if plan.period == 0 {
        0..1
    } else {
        plan.placements.len().min(plan.period as usize)..plan.period as usize
    };
    for j in absent {
        violations.push(TransformViolation::MissingCell {
            period_index: j as u32,
            page: 0,
            slot: 0,
        });
    }
    if !violations.is_empty() {
        return violations;
    }

    let period = plan.period as u64;
    // --- Slot exclusivity over a window of 2·period + 2 iterations. ---
    // Only occupied cells consume a slot; empty cells are free capacity.
    let busy: Vec<usize> = (0..p.num_pages)
        .flat_map(|page| (0..p.ii).map(move |slot| (page, slot)))
        .filter(|&(page, slot)| !p.cell(page, slot).is_empty())
        .map(|(page, slot)| index(page, slot))
        .collect();
    let window = period * 2 + 2;
    let mut slots: Vec<(u16, u64)> = Vec::with_capacity(window as usize * busy.len());
    for (row, offset) in instances(plan, 0, window) {
        slots.extend(busy.iter().map(|&k| (row[k].col, row[k].time + offset)));
    }
    for (col, time) in collisions(plan.m, &mut slots) {
        violations.push(TransformViolation::SlotCollision { col, time });
    }

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
        let (fk, tk) = (index(fp, fs), index(tp, ts));
        let froms = instances(plan, f_shift, period);
        for ((f_row, f_off), (t_row, t_off)) in froms.zip(instances(plan, t_shift, period)) {
            let (from, to) = (f_row[fk], t_row[tk]);
            let (t_from, t_to) = (from.time + f_off, to.time + t_off);
            if t_to <= t_from {
                violations.push(TransformViolation::DepTiming {
                    from: (fp, fs),
                    to: (tp, ts),
                    t_from,
                    t_to,
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
        // page's column must be constant over every row of the plan.
        if dep.gap() > 1 {
            let mut cols = plan
                .placements
                .iter()
                .flat_map(|row| (0..p.ii).map(move |slot| row[index(dep.from_page, slot)].col));
            let first = cols.next();
            if first.is_none() || !cols.all(|c| Some(c) == first) {
                violations.push(TransformViolation::UnstableParking {
                    page: dep.from_page,
                });
            }
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

    violations.sort_by_cached_key(|v| format!("{v:?}"));
    violations.dedup();
    violations
}

/// The rows and time offsets of `count` consecutive iterations from
/// `first`: iteration `i` runs row `i mod period`, `⌊i / period⌋` spans
/// late. The plan has all `period ≥ 1` rows.
fn instances(
    plan: &ShrinkPlan,
    first: u64,
    count: u64,
) -> impl Iterator<Item = (&[CellPlacement], u64)> {
    let period = plan.period as u64;
    let (mut row, mut offset) = (first % period, first / period * plan.span);
    (0..count).map(move |_| {
        let item = (plan.placements[row as usize].as_slice(), offset);
        row += 1;
        if row == period {
            (row, offset) = (0, offset + plan.span);
        }
        item
    })
}

/// Every `(column, time)` that occurs more than once in `slots`, whose
/// columns are all below `m`: found with a bitset per column when the
/// time range spans at most 64 slots per instance (so memory follows
/// the instance count, never the time values), otherwise by sorting.
fn collisions(m: u16, slots: &mut [(u16, u64)]) -> Vec<(u16, u64)> {
    let mut found = Vec::new();
    let (Some(lo), Some(hi)) = (
        slots.iter().map(|s| s.1).min(),
        slots.iter().map(|s| s.1).max(),
    ) else {
        return found;
    };
    let width = (hi - lo) / 64 + 1;
    if width.saturating_mul(m as u64) <= slots.len() as u64 {
        let width = width as usize;
        let mut words = vec![0u64; width * m as usize];
        for &(col, time) in slots.iter() {
            let t = time - lo;
            let (w, bit) = (col as usize * width + (t / 64) as usize, 1u64 << (t % 64));
            if words[w] & bit != 0 {
                found.push((col, time));
            }
            words[w] |= bit;
        }
    } else {
        slots.sort_unstable();
        found.extend(slots.windows(2).filter(|w| w[0] == w[1]).map(|w| w[0]));
    }
    found
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
    fn absent_period_rows_are_missing_cells() {
        let p = PagedSchedule::synthetic_canonical(4, 2, false);
        let mut plan = transform_block(&p, 2).unwrap();
        let missing = |period_index| TransformViolation::MissingCell {
            period_index,
            page: 0,
            slot: 0,
        };
        // A period of 2 with one row: row 1 is absent.
        plan.period = 2;
        assert_eq!(validate_plan(&p, &plan), vec![missing(1)]);
        // A zero period has no row 0, whatever rows the plan holds.
        plan.period = 0;
        assert_eq!(validate_plan(&p, &plan), vec![missing(0)]);
        plan.placements.clear();
        plan.period = 3;
        assert_eq!(
            validate_plan(&p, &plan),
            vec![missing(0), missing(1), missing(2)]
        );
    }

    #[test]
    fn collisions_agree_on_the_bitset_and_the_sort() {
        let dense = vec![(0, 5), (1, 5), (0, 5), (1, 7), (1, 7), (1, 7), (0, 9)];
        // A time range of one word per column fits the bitset.
        let by_bits = collisions(2, &mut dense.clone());
        // One far instance widens the range past it: sorted instead.
        let mut sparse = dense.clone();
        sparse.push((1, 1 << 40));
        let by_sort = collisions(2, &mut sparse);
        assert_eq!(by_bits, vec![(0, 5), (1, 7), (1, 7)]);
        assert_eq!(by_sort, vec![(0, 5), (1, 7), (1, 7)]);
    }

    #[test]
    fn far_times_do_not_hide_a_collision() {
        let p = PagedSchedule::synthetic_canonical(4, 1, false);
        let mut plan = transform_block(&p, 2).unwrap();
        let c2 = plan.cell(0, 2, 0).unwrap();
        *plan.cell_mut(0, 3, 0).unwrap() = c2;
        plan.cell_mut(0, 1, 0).unwrap().time += 1 << 40;
        assert!(
            validate_plan(&p, &plan).contains(&TransformViolation::SlotCollision {
                col: c2.col,
                time: c2.time
            })
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
