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
//!    iterations (512; [`Strategy::Auto`] runs the drift on an open ring
//!    only at `M = 2`, capped at `4·N`, see [`crate::transform`]); the
//!    transformation succeeds when the column pattern and
//!    inter-iteration time shift become periodic.
//!    The periodic tail is returned as the [`ShrinkPlan`].
//!
//! `placePage` does constant work per cell: `findDependencyColumns` is
//! one read of a precomputed column table (only the zero-hop case also
//! reads two column loads), the producers are read from the previous
//! step's row of flat step-major column and time arrays, and each
//! column's busy slots are a bitset in one shared buffer. At each
//! checkpoint the detector tries at most `MAX_PERIOD` candidate periods,
//! each by one exact compare of three iterations a period apart: the
//! time shift from their first cell, then every cell's column and
//! shifted time, stopping at the first cell that differs. A candidate
//! that is no period almost always differs within its first cells, so
//! placement and detection run in `O(N · II_p)` per iteration: the
//! paper's "low-order polynomial time" claim, measured against ring size
//! by the Claim C1 table of the `report` binary on both the steady-state
//! and the no-steady-state path, and inside runtime re-planning by
//! perfbench's `adapt` workload.

use crate::paged::{Discipline, PagedSchedule};
use crate::transform::{block_rows, CellPlacement, ShrinkPlan, Strategy, TransformError};

/// Iterations [`transform_pagemaster`] simulates before giving up on
/// steady state.
pub(crate) const WARMUP_ITERS: u32 = 512;
/// Longest period searched for. The drifting placement tends to rotate
/// pages around the columns, giving periods up to ~2·M·N in the worst
/// observed cases.
const MAX_PERIOD: u32 = 160;

/// Column-table entry of producers more than two columns apart.
const TOO_FAR: u32 = u32::MAX;

/// Per-column occupancy: one bit per time slot, word `w` of column `c`
/// at `words[w · M + c]` (the buffer grows a row of `M` words at a time),
/// plus the cell count per column used by the load tie-break.
struct Columns {
    m: usize,
    words: Vec<u64>,
    load: Vec<u64>,
}

impl Columns {
    fn new(m: u16) -> Self {
        Columns {
            m: m as usize,
            words: Vec::new(),
            load: vec![0; m as usize],
        }
    }

    /// Earliest free time in `col` that is `>= min_time`; marks it busy.
    fn place_min(&mut self, col: u16, min_time: u64) -> u64 {
        let col = col as usize;
        let mut w = (min_time / 64) as usize;
        // Slots below `min_time` in its word count as busy.
        let mut busy_below = (1u64 << (min_time % 64)) - 1;
        loop {
            let i = w * self.m + col;
            if i >= self.words.len() {
                self.words.resize((w + 1) * self.m, 0);
            }
            let free = !(self.words[i] | busy_below);
            if free != 0 {
                let bit = free.trailing_zeros();
                self.words[i] |= 1 << bit;
                self.load[col] += 1;
                #[cfg(test)]
                tests::record_placement(w + 1 - (min_time / 64) as usize);
                return w as u64 * 64 + bit as u64;
            }
            w += 1;
            busy_below = 0;
        }
    }
}

/// Algorithm 1's column choice from the two dependency columns, for
/// every consumer column `d2` and hop `d1 − d2 ∈ −2..=2`: entry
/// `d2 · 5 + (d1 − d2 + 2)`, a pair of columns `l | r << 16` of which the
/// one with the lighter load (`l` on a tie) is taken. `M ≥ 2`.
///
/// * two hops apart → the middle column;
/// * one hop apart → the boundary column (0 or M−1); the paper states
///   this case only occurs at the borders, so elsewhere the consumer
///   keeps its own column;
/// * zero hops apart → the less-loaded neighbouring column.
///
/// Every case but an interior zero hop is a pair of equal columns, so
/// placement reads two loads and selects without a branch.
fn column_table(m: u16) -> Vec<u32> {
    let last = m as i32 - 1;
    let pair = |l: i32, r: i32| l as u32 | (r as u32) << 16;
    let mut table = Vec::with_capacity(m as usize * 5);
    for d2 in 0..=last {
        for d1 in d2 - 2..=d2 + 2 {
            table.push(match (d1 - d2).abs() {
                _ if d1 < 0 || d1 > last => TOO_FAR,
                2 => pair((d1 + d2) / 2, (d1 + d2) / 2),
                1 if d1 == 0 || d2 == 0 => pair(0, 0),
                1 if d1 == last || d2 == last => pair(last, last),
                1 => pair(d2, d2),
                _ if d1 == 0 => pair(1, 1),
                _ if d1 == last => pair(last - 1, last - 1),
                _ => pair(d1 - 1, d1 + 1),
            });
        }
    }
    table
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

/// The drifting search's record of every placed cell. Step `s = iter ·
/// II_p + slot` owns the row `s · N .. (s + 1) · N` of `col` and `time`,
/// indexed by page, so iteration `iter` is the block `iter · cells ..
/// (iter + 1) · cells` (`cells = N · II_p`) and its cell (page 0, slot 0)
/// opens the block.
struct Drift {
    n: usize,
    ii: usize,
    cells: usize,
    col: Vec<u16>,
    time: Vec<u64>,
}

impl Drift {
    fn new(n: u16, ii: u32) -> Self {
        let (n, ii) = (n as usize, ii as usize);
        let cells = n * ii;
        Drift {
            n,
            ii,
            cells,
            col: Vec::with_capacity(cells * 16),
            time: Vec::with_capacity(cells * 16),
        }
    }

    /// Open the row of a new step.
    fn push_row(&mut self) {
        let len = self.col.len() + self.n;
        self.col.resize(len, 0);
        self.time.resize(len, 0);
    }

    /// Place cell `(page, slot 0)` of iteration 0 at `(col, time)`.
    fn set_first(&mut self, page: usize, col: u16, time: u64) {
        self.col[page] = col;
        self.time[page] = time;
    }

    /// PlacePage for the step `(iter, slot)`, `pages` in placement order
    /// with their ring predecessors: each cell goes after its producers
    /// `p(n−1, t−1)` and `p(n, t−1)`, read from the previous step's row.
    fn place_row(
        &mut self,
        cols: &mut Columns,
        table: &[u32],
        pages: &[(usize, usize)],
        (iter, slot): (usize, usize),
    ) -> Result<(), TransformError> {
        let n = self.n;
        let cur = (iter * self.ii + slot) * n;
        self.push_row();
        let (done_col, row_col) = self.col.split_at_mut(cur);
        let (done_time, row_time) = self.time.split_at_mut(cur);
        let (prev_col, prev_time) = (&done_col[cur - n..], &done_time[cur - n..]);
        for &(page, pred) in pages {
            let (d1, d2) = (prev_col[pred], prev_col[page]);
            let hop = (d1 as usize + 2).wrapping_sub(d2 as usize);
            let pair = if hop < 5 {
                table[d2 as usize * 5 + hop]
            } else {
                TOO_FAR
            };
            if pair == TOO_FAR {
                return Err(TransformError::DependencyTooFar { d1, d2 });
            }
            let (l, r) = (pair as u16, (pair >> 16) as u16);
            let col = if cols.load[l as usize] <= cols.load[r as usize] {
                l
            } else {
                r
            };
            let t = cols.place_min(col, prev_time[pred].max(prev_time[page]) + 1);
            row_col[page] = col;
            row_time[page] = t;
        }
        Ok(())
    }

    /// Whether iterations `a`, `a + period` and `a + 2 · period` hold
    /// the same columns with their times shifted by one positive amount,
    /// and that shift: the shift from cell 0, then every cell, stopping
    /// at the first one that differs.
    fn repeats(&self, a: usize, period: usize) -> Option<u64> {
        let start = |k: usize| (a + k * period) * self.cells;
        let shift = self.time[start(1)]
            .checked_sub(self.time[start(0)])
            .filter(|&s| s > 0)?;
        let same = |x: usize, y: usize| {
            (0..self.cells).all(|k| {
                self.col[x + k] == self.col[y + k]
                    && self.time[y + k].wrapping_sub(self.time[x + k]) == shift
            })
        };
        (same(start(0), start(1)) && same(start(1), start(2))).then_some(shift)
    }

    /// The plan whose period is iterations `base .. base + period`, rows
    /// page-major and times from the earliest cell of `base`.
    fn plan(&self, m: u16, base: usize, period: usize, span: u64) -> ShrinkPlan {
        let t0 = self.time[base * self.cells..(base + 1) * self.cells]
            .iter()
            .copied()
            .min()
            .expect("non-empty schedule");
        let placements = (base..base + period)
            .map(|iter| {
                (0..self.n)
                    .flat_map(|page| {
                        (0..self.ii).map(move |slot| {
                            let i = iter * self.cells + slot * self.n + page;
                            CellPlacement {
                                col: self.col[i],
                                time: self.time[i] - t0,
                            }
                        })
                    })
                    .collect()
            })
            .collect();
        ShrinkPlan {
            m,
            ii_p: self.ii as u32,
            period: period as u32,
            span,
            placements,
            strategy: Strategy::PageMaster,
        }
    }
}

/// Transform a canonical schedule with the paper's drifting algorithm.
pub fn transform_pagemaster(p: &PagedSchedule, m: u16) -> Result<ShrinkPlan, TransformError> {
    transform_pagemaster_within(p, m, WARMUP_ITERS)
}

/// [`transform_pagemaster`] with a warm-up of `iters` iterations, a
/// multiple of 4 and at least 8 so that the last one is a checkpoint:
/// the drift reports [`TransformError::NoSteadyState`] once it has
/// placed `iters` iterations without a period.
pub(crate) fn transform_pagemaster_within(
    p: &PagedSchedule,
    m: u16,
    iters: u32,
) -> Result<ShrinkPlan, TransformError> {
    if m == 0 || m > p.num_pages {
        return Err(TransformError::BadTargetSize { m });
    }
    if p.discipline != Discipline::Canonical {
        return Err(TransformError::NeedsCanonical);
    }
    let n = p.num_pages;
    if m == n || m == 1 {
        // Every page keeps its own column, or all run in one column in
        // dependence order `(slot, page)` (Fig. 6): Block's rows, which a
        // wrap dependence cannot break at either width.
        return Ok(ShrinkPlan {
            strategy: Strategy::PageMaster,
            ..block_rows(p, m)
        });
    }

    let ii = p.ii as usize;
    if ii == 0 {
        // No cell ever repeats: the warm-up window holds no iteration.
        return Err(TransformError::NoSteadyState);
    }
    let mut cols = Columns::new(m);
    let mut drift = Drift::new(n, p.ii);

    // --- Phase 1: initialization of (n, step 0). ---
    drift.push_row();
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
                let page = seq[placed + i] as usize;
                let t = cols.place_min(col, row);
                drift.set_first(page, col, t);
            }
            placed += m as usize;
            snake_right = !snake_right;
        } else {
            // Tails: stack the leftovers in the outermost column the line
            // ended at, earlier pages at earlier times.
            let edge = if snake_right { 0 } else { m - 1 };
            for i in 0..remaining {
                let page = seq[placed + i] as usize;
                let t = cols.place_min(edge, 0);
                drift.set_first(page, edge, t);
            }
            placed += remaining;
        }
    }

    // --- Phase 2: PlacePage for every later cell, in reverse interleave
    // order within a step, each page after its two producers of the
    // previous step: `p(n−1, t−1)` (the ring predecessor; page 0 has none
    // on an open ring and degenerates to case 3 on `d2`) and `p(n, t−1)`.
    // The steady-state check runs every few completed iterations.
    let wrap = p.has_wrap_deps();
    let order: Vec<(usize, usize)> = seq
        .iter()
        .rev()
        .map(|&page| {
            let prev = match page {
                0 if wrap => n - 1,
                0 => 0,
                _ => page - 1,
            };
            (page as usize, prev as usize)
        })
        .collect();
    let table = column_table(m);
    let (mut iter, mut slot) = (0, 0);
    for step in 0..iters as usize * ii {
        if step > 0 {
            drift.place_row(&mut cols, &table, &order, (iter, slot))?;
        }
        slot += 1;
        if slot < ii {
            continue;
        }
        (iter, slot) = (iter + 1, 0);
        // Iteration `iter − 1` is complete: at a checkpoint, look for a
        // period ending there.
        if iter >= 8 && iter.is_multiple_of(4) {
            let last = iter - 1;
            for period in 1..=MAX_PERIOD as usize {
                if period * 3 + 1 > last {
                    break;
                }
                let base = last - period * 2;
                let Some(span) = drift.repeats(base, period) else {
                    continue;
                };
                let plan = drift.plan(m, base, period, span);
                // Final guard: a drifting process can mimic periodicity
                // over a finite window; only hand out plans that pass the
                // full §VI-C validator. Otherwise keep looking (longer
                // periods / more warm-up).
                if crate::validate::validate_plan(p, &plan).is_empty() {
                    return Ok(plan);
                }
            }
        }
    }
    // The last step completes iteration `iters`, a checkpoint: the whole
    // window has been searched.
    Err(TransformError::NoSteadyState)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// `place_min` on this thread: placements, bitset words visited,
        /// and the most words one placement visited.
        static PLACE_MIN: Cell<(u64, u64, u64)> = const { Cell::new((0, 0, 0)) };
    }

    /// Called by `place_min` once per placement with the words it read.
    pub(super) fn record_placement(words: usize) {
        PLACE_MIN.with(|c| {
            let (cells, total, max) = c.get();
            c.set((cells + 1, total + words as u64, max.max(words as u64)));
        });
    }

    /// `(placements, words, max words)` of `run` on this thread.
    fn place_min_counts(run: impl FnOnce()) -> (u64, u64, u64) {
        PLACE_MIN.with(|c| c.set((0, 0, 0)));
        run();
        PLACE_MIN.with(Cell::get)
    }

    /// §VI-D.3's "constant work per page cell" as a count: placing a
    /// cell reads a bounded number of bitset words, whatever the ring
    /// size, on the steady-state (wrap) and the no-steady-state (open
    /// 32 → 31) paths alike.
    #[test]
    fn place_min_visits_few_words_per_cell() {
        let cases = [4u16, 8, 16, 32]
            .map(|n| (n, true, n / 2))
            .into_iter()
            .chain([(32, false, 31)]);
        for (n, wrap, m) in cases {
            let p = PagedSchedule::synthetic_canonical(n, 1, wrap);
            let (cells, words, max) = place_min_counts(|| {
                let _ = transform_pagemaster(&p, m);
            });
            assert!(
                cells >= n as u64 * 8,
                "N={n} M={m}: only {cells} placements"
            );
            assert!(
                words <= cells * 11 / 10 && max <= 2,
                "N={n} M={m}: {words} words over {cells} placements, max {max}"
            );
        }
    }

    /// A runtime re-plan pays for Algorithm 1 only where the drift can win:
    /// on an open ring `Auto` places no drifting cell at any `M ∤ N` but
    /// `M = 2`, and at `M = 2` with `N` odd it still runs the drift.
    #[test]
    fn auto_runs_the_drift_on_open_rings_only_at_m2() {
        let auto_placements = |p: &PagedSchedule, m: u16| {
            place_min_counts(|| {
                crate::transform::transform(p, m, Strategy::Auto).expect("Auto plans");
            })
            .0
        };
        for n in 3u16..=33 {
            for ii in 1..=3 {
                let p = PagedSchedule::synthetic_canonical(n, ii, false);
                for m in (3..n).filter(|m| n % m != 0) {
                    let placed = auto_placements(&p, m);
                    assert_eq!(placed, 0, "N={n} ii={ii} M={m}: {placed} cells placed");
                }
                if n % 2 == 1 {
                    assert!(auto_placements(&p, 2) > 0, "N={n} ii={ii} M=2: no drift");
                }
            }
        }
    }

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

    /// At M = N and M = 1 Algorithm 1 hands out Block's rows: each page
    /// in its own column, or Fig. 6's `(slot, page)` order in one column,
    /// on wrap rings too, where `transform_block` refuses M = 1.
    #[test]
    fn identity_and_one_column_are_block_rows() {
        for (n, ii, wrap) in (2u16..=12)
            .flat_map(|n| (1..=3u32).flat_map(move |ii| [false, true].map(|wrap| (n, ii, wrap))))
        {
            let p = PagedSchedule::synthetic_canonical(n, ii, wrap);
            for m in [n, 1] {
                let at = format!("N={n} ii={ii} wrap={wrap} M={m}");
                let plan = transform_pagemaster(&p, m).expect(&at);
                let block = block_rows(&p, m);
                let expected = ShrinkPlan {
                    strategy: Strategy::PageMaster,
                    ..block
                };
                assert_eq!(plan, expected, "{at}");
                assert_eq!(plan.span, u64::from(ii * u32::from(n / m)), "{at}");
                for page in 0..n {
                    for slot in 0..ii {
                        let (col, time) = if m == n {
                            (page, slot)
                        } else {
                            (0, slot * u32::from(n) + u32::from(page))
                        };
                        let time = u64::from(time);
                        let cell = Some(CellPlacement { col, time });
                        assert_eq!(plan.cell(0, page, slot), cell, "{at}");
                    }
                }
            }
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
        // window; `Auto` runs no drift at M ≠ 2 and hands out the block
        // plan (2 rounds per slot).
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
