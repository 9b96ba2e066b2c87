//! The PageMaster transformation — the paper's Algorithm 1 (§VI-D).
//!
//! Given an `N`-page canonical schedule, reschedule it onto `M ≤ N` page
//! columns:
//!
//! 1. **Schedule initialization** (§VI-D.1): place the first time-step's
//!    pages along the two-hop interleave — `p_n → col 0`,
//!    `p_{n−1} → col 1`, `p_{n+1} → col 2`, `p_{n−2} → col 3`, … — so
//!    every pair of ring-neighbouring pages sits within two columns of
//!    each other; pages that do not complete a row are stacked as *tails*
//!    in the outermost column.
//! 2. **PlacePage** (Algorithm 1): every later cell is placed from the
//!    columns of its two producers `p(n−1, t−1)` (col `d1`) and
//!    `p(n, t−1)` (col `d2`):
//!    * two hops apart → the middle column;
//!    * one hop apart → the boundary column (0 or M−1);
//!    * zero hops apart → the less-loaded neighbouring column;
//!      in every case at the earliest free time in that column after
//!      both producers have executed.
//! 3. **Steady state**: cells are placed for a warm-up window of
//!    iterations; the transformation succeeds when the column pattern and
//!    inter-iteration time shift become periodic. The periodic tail is
//!    returned as the [`ShrinkPlan`].
//!
//! `placePage` does constant work per cell (`findDependencyColumns` is a
//! table lookup; positions live in a dense `step · N + page` table and
//! each column's busy slots in a bitset), so placement runs in
//! `O(N · II_p)` per iteration. The steady-state detector adds one
//! signature hash per completed iteration and, at each checkpoint, at most
//! `MAX_PERIOD` hash compares; only a period whose hashes agree is
//! compared cell by cell. That is the paper's "low-order polynomial time"
//! claim, measured against ring size by the Claim C1 table of the
//! `report` binary on both the steady-state and the no-steady-state path,
//! and inside runtime re-planning by perfbench's `adapt` workload.

use crate::paged::{Discipline, PagedSchedule};
use crate::transform::{CellPlacement, ShrinkPlan, Strategy, TransformError};

/// Iterations simulated before giving up on steady state.
const WARMUP_ITERS: u32 = 512;
/// Longest period searched for. The drifting placement tends to rotate
/// pages around the columns, giving periods up to ~2·M·N in the worst
/// observed cases.
const MAX_PERIOD: u32 = 160;

/// Per-column occupancy: one bit per time slot, plus the cell count used
/// by the load tie-break.
struct Columns {
    occupied: Vec<Vec<u64>>,
    count: Vec<u64>,
}

impl Columns {
    fn new(m: u16) -> Self {
        Columns {
            occupied: vec![Vec::new(); m as usize],
            count: vec![0; m as usize],
        }
    }

    /// Earliest free time in `col` that is `>= min_time`; marks it busy.
    fn place_min(&mut self, col: u16, min_time: u64) -> u64 {
        let words = &mut self.occupied[col as usize];
        let mut w = (min_time / 64) as usize;
        // Slots below `min_time` in its word count as busy.
        let mut busy_below = (1u64 << (min_time % 64)) - 1;
        loop {
            if w >= words.len() {
                words.resize(w + 1, 0);
            }
            let free = !(words[w] | busy_below);
            if free != 0 {
                let bit = free.trailing_zeros();
                words[w] |= 1 << bit;
                self.count[col as usize] += 1;
                return w as u64 * 64 + bit as u64;
            }
            w += 1;
            busy_below = 0;
        }
    }

    fn load(&self, col: u16) -> u64 {
        self.count[col as usize]
    }
}

/// Order-sensitive 64-bit mix for iteration signatures. A collision only
/// costs an exact compare, never a wrong plan.
fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// The §VI-D.1 interleave: `[n0, n0−1, n0+1, n0−2, n0+2, …]` mod `N`.
fn interleave_order(n: u16) -> Vec<u16> {
    let mut seq = Vec::with_capacity(n as usize);
    seq.push(0u16);
    let mut step = 1i32;
    while seq.len() < n as usize {
        let lo = (-step).rem_euclid(n as i32) as u16;
        if !seq.contains(&lo) {
            seq.push(lo);
        }
        if seq.len() == n as usize {
            break;
        }
        let hi = step.rem_euclid(n as i32) as u16;
        if !seq.contains(&hi) {
            seq.push(hi);
        }
        step += 1;
    }
    seq
}

/// Transform a canonical schedule with the paper's drifting algorithm.
pub fn transform_pagemaster(p: &PagedSchedule, m: u16) -> Result<ShrinkPlan, TransformError> {
    if m == 0 || m > p.num_pages {
        return Err(TransformError::BadTargetSize { m });
    }
    if p.discipline != Discipline::Canonical {
        return Err(TransformError::NeedsCanonical);
    }
    let n = p.num_pages;
    if m == n {
        // Identity: every page keeps its own column.
        let row = (0..n)
            .flat_map(|page| {
                (0..p.ii).map(move |slot| CellPlacement {
                    col: page,
                    time: slot as u64,
                })
            })
            .collect();
        return Ok(ShrinkPlan {
            m,
            ii_p: p.ii,
            period: 1,
            span: p.ii as u64,
            placements: vec![row],
            strategy: Strategy::PageMaster,
        });
    }
    if m == 1 {
        return Ok(fold_to_single_column(p));
    }

    let mut cols = Columns::new(m);
    // pos[global_step * N + page] = (col, time); global_step = iter*ii + slot.
    let n_us = n as usize;
    let at = |page: u16, step: u64| step as usize * n_us + page as usize;
    let mut pos: Vec<(u16, u64)> = vec![(0, 0); n_us];

    // --- Phase 1: initialization of (n, step 0). ---
    let seq = interleave_order(n);
    let mut placed = 0usize;
    let mut snake_right = true; // direction of the current row of the line
    while placed < seq.len() {
        let remaining = seq.len() - placed;
        if remaining >= m as usize {
            // A full row of the scheduling line: row r of the snake sits
            // no earlier than time r.
            let row = placed as u64 / m as u64;
            for i in 0..m as usize {
                let col = if snake_right {
                    i as u16
                } else {
                    m - 1 - i as u16
                };
                let page = seq[placed + i];
                let t = cols.place_min(col, row);
                pos[at(page, 0)] = (col, t);
            }
            placed += m as usize;
            snake_right = !snake_right;
        } else {
            // Tails: stack the leftovers in the outermost column the line
            // ended at, earlier pages at earlier times.
            let edge = if snake_right { 0 } else { m - 1 };
            for i in 0..remaining {
                let page = seq[placed + i];
                let t = cols.place_min(edge, 0);
                pos[at(page, 0)] = (edge, t);
            }
            placed += remaining;
        }
    }

    // --- Phase 2: PlacePage for every later cell, checking for a steady
    // state as iterations complete (constant work per cell; the check is
    // amortised by running it every few iterations).
    let mut rev = seq.clone();
    rev.reverse();
    let wrap = p.has_wrap_deps();
    let ii = p.ii as u64;
    let cells = n_us * ii as usize;
    // Cell `(page, slot)` of iteration `iter`, page-major as in the plan.
    let cell = |pos: &[(u16, u64)], iter: u64, k: usize| -> (u16, u64) {
        pos[at(
            (k / ii as usize) as u16,
            iter * ii + (k % ii as usize) as u64,
        )]
    };
    // Signature of one iteration: every cell's column and its time
    // relative to cell (page 0, slot 0). Two iterations match exactly
    // (same columns, uniform shift) only if their signatures are equal.
    let iter_hash = |pos: &[(u16, u64)], iter: u64| -> u64 {
        let t_ref = cell(pos, iter, 0).1;
        (0..cells).fold(0, |h, k| {
            let (col, t) = cell(pos, iter, k);
            mix(mix(h, col as u64), t.wrapping_sub(t_ref))
        })
    };
    let try_detect = |pos: &[(u16, u64)], hashes: &[u64]| -> Option<ShrinkPlan> {
        let last = (hashes.len() as u64).checked_sub(1)?;
        for period in 1..=MAX_PERIOD as u64 {
            if period * 3 + 1 > last {
                break;
            }
            let base_iter = last - period * 2;
            let h = hashes[base_iter as usize];
            if hashes[(base_iter + period) as usize] != h || hashes[last as usize] != h {
                continue;
            }
            let (a, b, c) = (base_iter, base_iter + period, last);
            // Columns must repeat and times must shift uniformly, over
            // two consecutive periods (one matching pair is not proof of
            // a steady state).
            let shift = cell(pos, b, 0).1 as i64 - cell(pos, a, 0).1 as i64;
            if shift <= 0 {
                continue;
            }
            let matches = (0..cells).all(|k| {
                let (x, y, z) = (cell(pos, a, k), cell(pos, b, k), cell(pos, c, k));
                x.0 == y.0
                    && y.0 == z.0
                    && y.1 as i64 - x.1 as i64 == shift
                    && z.1 as i64 - y.1 as i64 == shift
            });
            if !matches {
                continue;
            }
            // Extract the period starting at base_iter.
            let t0 = (0..cells)
                .map(|k| cell(pos, base_iter, k).1)
                .min()
                .expect("non-empty schedule");
            let placements = (base_iter..base_iter + period)
                .map(|iter| {
                    (0..cells)
                        .map(|k| {
                            let (col, t) = cell(pos, iter, k);
                            CellPlacement { col, time: t - t0 }
                        })
                        .collect()
                })
                .collect();
            let plan = ShrinkPlan {
                m,
                ii_p: p.ii,
                period: period as u32,
                span: shift as u64,
                placements,
                strategy: Strategy::PageMaster,
            };
            // Final guard: a drifting process can mimic periodicity over a
            // finite window; only hand out plans that pass the full §VI-C
            // validator. Otherwise keep looking (longer periods / more
            // warm-up).
            if crate::validate::validate_plan(p, &plan).is_empty() {
                return Some(plan);
            }
        }
        None
    };

    let total_steps = WARMUP_ITERS as u64 * ii;
    let mut hashes: Vec<u64> = Vec::with_capacity(WARMUP_ITERS as usize);
    for step in 1..total_steps {
        pos.resize(at(0, step + 1), (0, 0));
        for &page in &rev {
            let prev_page = if page == 0 {
                if wrap {
                    n - 1
                } else {
                    page // no ring predecessor: degenerate to case 3 on d2
                }
            } else {
                page - 1
            };
            let (d1, t_d1) = pos[at(prev_page, step - 1)];
            let (d2, t_d2) = pos[at(page, step - 1)];
            let bound = t_d1.max(t_d2);
            let col = place_page_column(d1, d2, m, &cols)?;
            let t = cols.place_min(col, bound + 1);
            pos[at(page, step)] = (col, t);
        }
        // Early exit: every few completed iterations, hash the iterations
        // completed since the last check and look for a period.
        if step % ii == ii - 1 {
            let completed = (step + 1) / ii;
            if completed >= 8 && completed.is_multiple_of(4) {
                for iter in hashes.len() as u64..completed {
                    hashes.push(iter_hash(&pos, iter));
                }
                if let Some(plan) = try_detect(&pos, &hashes) {
                    return Ok(plan);
                }
            }
        }
    }
    // The last step completes iteration WARMUP_ITERS, a checkpoint: the
    // whole window has been searched.
    Err(TransformError::NoSteadyState)
}

/// Algorithm 1's column choice from the two dependency columns.
fn place_page_column(d1: u16, d2: u16, m: u16, cols: &Columns) -> Result<u16, TransformError> {
    let diff = d1.abs_diff(d2);
    match diff {
        2 => Ok((d1 + d2) / 2),
        1 => {
            if d1 == 0 || d2 == 0 {
                Ok(0)
            } else if d1 == m - 1 || d2 == m - 1 {
                Ok(m - 1)
            } else {
                // The paper states this case only occurs at the borders;
                // stay robust by keeping the consumer's own column.
                Ok(d2)
            }
        }
        0 => {
            // Neighbouring column with the lighter load (tails case).
            let left = d1.checked_sub(1);
            let right = if d1 + 1 < m { Some(d1 + 1) } else { None };
            match (left, right) {
                (Some(l), Some(r)) => Ok(if cols.load(l) <= cols.load(r) { l } else { r }),
                (Some(l), None) => Ok(l),
                (None, Some(r)) => Ok(r),
                (None, None) => Ok(d1), // M == 1, handled earlier
            }
        }
        _ => Err(TransformError::DependencyTooFar { d1, d2 }),
    }
}

/// M = 1: execute cells sequentially in dependence order `(slot, page)`
/// (Fig. 6). `II_q = N · II_p` exactly.
fn fold_to_single_column(p: &PagedSchedule) -> ShrinkPlan {
    let n = p.num_pages as u64;
    let row = (0..n)
        .flat_map(|page| {
            (0..p.ii as u64).map(move |slot| CellPlacement {
                col: 0,
                time: slot * n + page,
            })
        })
        .collect();
    ShrinkPlan {
        m: 1,
        ii_p: p.ii,
        period: 1,
        span: n * p.ii as u64,
        placements: vec![row],
        strategy: Strategy::PageMaster,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_covers_all_pages() {
        for n in 1..12u16 {
            let seq = interleave_order(n);
            assert_eq!(seq.len(), n as usize);
            let mut sorted = seq.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn interleave_neighbours_within_two() {
        // Ring-consecutive pages must end up within two positions of each
        // other in the interleave (the two-hop property).
        let n = 6;
        let seq = interleave_order(n);
        let posn = |p: u16| seq.iter().position(|&x| x == p).unwrap() as i64;
        for page in 0..n {
            let next = (page + 1) % n;
            assert!(
                (posn(page) - posn(next)).abs() <= 2,
                "pages {page},{next} at positions {},{}",
                posn(page),
                posn(next)
            );
        }
    }

    #[test]
    fn fig7_six_to_five() {
        // The paper's Fig. 7 scenario: N=6 (full ring) onto M=5.
        let p = PagedSchedule::synthetic_canonical(6, 1, true);
        let plan = transform_pagemaster(&p, 5).expect("transforms");
        assert_eq!(plan.m, 5);
        // Capacity bound: II_q >= N/M = 1.2.
        assert!(plan.ii_q() >= 1.2 - 1e-9, "ii_q {}", plan.ii_q());
        // Must not be worse than the block bound ceil(6/5)*1 = 2.
        assert!(plan.ii_q() <= 2.0 + 1e-9, "ii_q {}", plan.ii_q());
    }

    #[test]
    fn shrink_to_one_page_is_sequential() {
        let p = PagedSchedule::synthetic_canonical(4, 2, true);
        let plan = transform_pagemaster(&p, 1).expect("folds");
        assert_eq!(plan.ii_q(), 8.0);
        // Dependence order: (n, t) before (n, t+1) and after (n-1, t).
        let t = |page: u16, slot: u32| plan.cell(0, page, slot).unwrap().time;
        assert!(t(1, 0) > t(0, 0));
        assert!(t(0, 1) > t(3, 0));
    }

    #[test]
    fn identity_transform_keeps_columns() {
        let p = PagedSchedule::synthetic_canonical(4, 3, true);
        let plan = transform_pagemaster(&p, 4).expect("identity");
        assert_eq!(plan.ii_q(), 3.0);
        for page in 0..4u16 {
            assert_eq!(plan.cell(0, page, 0).unwrap().col, page);
        }
    }

    #[test]
    fn rejects_stable_discipline() {
        let mut p = PagedSchedule::synthetic_canonical(4, 1, false);
        p.discipline = Discipline::Stable;
        assert_eq!(
            transform_pagemaster(&p, 2).unwrap_err(),
            TransformError::NeedsCanonical
        );
    }

    #[test]
    fn rejects_bad_m() {
        let p = PagedSchedule::synthetic_canonical(4, 1, true);
        assert!(transform_pagemaster(&p, 0).is_err());
        assert!(transform_pagemaster(&p, 5).is_err());
    }

    #[test]
    fn open_ring_without_steady_state_falls_back_to_block() {
        // The full open ring N=18 → 17 keeps drifting for the whole warm-up
        // window; `Auto` then hands out the block plan (2 rounds per slot).
        let p = PagedSchedule::synthetic_canonical(18, 1, false);
        assert_eq!(
            transform_pagemaster(&p, 17).unwrap_err(),
            TransformError::NoSteadyState
        );
        let plan = crate::transform::transform(&p, 17, Strategy::Auto).expect("block fallback");
        assert_eq!(plan.strategy, Strategy::Block);
        assert_eq!(plan.span, 2);
        // N=16 → 8 drifts forever too, but M | N: `Auto` takes the optimal
        // block plan without running the search.
        let p = PagedSchedule::synthetic_canonical(16, 1, false);
        assert_eq!(
            transform_pagemaster(&p, 8).unwrap_err(),
            TransformError::NoSteadyState
        );
        let plan = crate::transform::transform(&p, 8, Strategy::Auto).expect("block");
        assert_eq!(plan.strategy, Strategy::Block);
        assert_eq!(plan.span, 2);
    }

    #[test]
    fn halving_reaches_steady_state_for_paper_page_counts() {
        // Every page count from the paper's grid, halved repeatedly.
        for n in [4u16, 8, 9, 16, 18, 32] {
            let p = PagedSchedule::synthetic_canonical(n, 1, true);
            let mut m = n / 2;
            while m >= 2 {
                let plan =
                    transform_pagemaster(&p, m).unwrap_or_else(|e| panic!("N={n} M={m}: {e}"));
                assert!(
                    plan.ii_q() + 1e-9 >= n as f64 / m as f64,
                    "N={n} M={m}: ii_q {} below capacity bound",
                    plan.ii_q()
                );
                m /= 2;
            }
        }
    }
}
