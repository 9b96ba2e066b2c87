//! Shrink/expand plans — the output of the PageMaster transformation.
//!
//! A [`ShrinkPlan`] reschedules an `N`-page schedule onto `M ≤ N` page
//! *columns*. It is periodic: the placement pattern repeats every
//! `period` source iterations, spanning `span` cycles, so the achieved
//! initiation interval is `span / period` (per source iteration). Each
//! iteration of the period is one dense row of `N · II_p` placements,
//! indexed `page · II_p + slot` ([`ShrinkPlan::cell`]).
//!
//! Two strategies:
//!
//! * [`Strategy::Block`] — column-stable: page `n` always executes in
//!   column `snake(n)`; iteration time is sliced into `⌈N/M⌉` rounds.
//!   Sound for *any* ring-path schedule without wrap dependences
//!   (including RF parking, i.e. the
//!   [`Discipline::Stable`](crate::paged::Discipline) schedules the
//!   default constrained mapper emits), and exactly optimal
//!   (`II_q = II_p·N/M`, period 1) whenever `M` divides `N`.
//! * [`Strategy::PageMaster`] — the paper's Algorithm 1: drifting
//!   placement seeded by the two-hop interleave, packing partial rows as
//!   tails. Requires canonical 1-step dependences and handles full-ring
//!   (wrap) schedules. When `M ∤ N` its steady state may beat the block
//!   bound (6 → 5 on a wrap ring: 1.58 against 2) or lose to it (open
//!   ring 9 → 8: 4.5 against 2), and on some rings it finds none at all
//!   (EXPERIMENTS.md, C2).
//!
//! [`Strategy::Auto`] returns the better of the two:
//!
//! * Block wherever Block is provably optimal (`M | N`, no wrap
//!   dependences) or Algorithm 1 cannot run (not canonical);
//! * on a wrap ring, which Block cannot shrink, Algorithm 1 with its full
//!   warm-up, falling back to Block (and its error) when the drift finds
//!   no steady state;
//! * on every other open ring, the drifting plan only when its `II_q` is
//!   strictly lower than Block's, compared exactly as
//!   `span_d · period_b < span_b · period_d`; a tie goes to Block.
//!
//! There the drift runs at most `min(4·N, 512)` iterations, because a
//! re-plan has no use for a steady state that cannot beat Block. The cap
//! is a measurement, not a proof. Over every open synthetic ring with
//! N 2–33 and II_p 1–4 and the strict paper kernels, at every M, the
//! drift beats Block only at M = 2 (on the synthetic rings those with N
//! odd, where it reaches the capacity bound `N·II_p/2`), and each such
//! period closes by iteration `2N + 6`.
//! The `#[ignore]`d `auto_full_grid` test of `golden_transforms` checks
//! on each of those cases that the capped `Auto` equals the better of the
//! full drift and Block.

use crate::paged::{Discipline, PagedSchedule};
use crate::pagemaster::{transform_pagemaster, transform_pagemaster_within, WARMUP_ITERS};
use cgra_obs::{TraceEvent, Tracer};
use serde::{Deserialize, Serialize};

/// Which transformation algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Column-stable block rounds (sound for all disciplines).
    Block,
    /// The paper's drifting Algorithm 1 (canonical schedules only).
    PageMaster,
    /// The lower-`II_q` of Block and PageMaster, ties going to Block:
    /// Block when it is optimal (`M | N` and no wrap dependences) or the
    /// schedule is not canonical; PageMaster on a wrap ring, falling back
    /// to Block when the drift finds no steady state; otherwise the
    /// drift, capped at `min(4·N, 512)` iterations, only where it beats
    /// Block (see the [module docs](crate::transform)).
    Auto,
}

/// Placement of one cell within a plan period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellPlacement {
    /// Target column (0 ≤ col < M).
    pub col: u16,
    /// Cycle offset from the period start.
    pub time: u64,
}

/// A complete periodic rescheduling of a [`PagedSchedule`] onto `m`
/// columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShrinkPlan {
    /// Number of target page columns (M).
    pub m: u16,
    /// Slots per page of the source schedule (`II_p`): the stride of a
    /// placement row.
    pub ii_p: u32,
    /// Source iterations per steady-state period.
    pub period: u32,
    /// Cycles per period.
    pub span: u64,
    /// One dense row per iteration of the period: cell `(page, slot)` of
    /// iteration `iter` is `placements[iter][page · ii_p + slot]`. Read
    /// it through [`ShrinkPlan::cell`].
    pub placements: Vec<Vec<CellPlacement>>,
    /// The strategy that produced the plan.
    pub strategy: Strategy,
}

impl ShrinkPlan {
    /// Achieved initiation interval per source iteration (may be
    /// fractional when the period spans several iterations).
    pub fn ii_q(&self) -> f64 {
        self.span as f64 / self.period as f64
    }

    /// The II rounded up to whole cycles (what a conservative runtime
    /// would provision).
    pub fn ii_q_ceil(&self) -> u32 {
        self.span.div_ceil(self.period as u64) as u32
    }

    /// Placement of cell `(page, slot)` in period iteration `iter`, or
    /// `None` when the plan has no such cell (`slot ≥ ii_p`, or the row
    /// is too short).
    pub fn cell(&self, iter: usize, page: u16, slot: u32) -> Option<CellPlacement> {
        self.placements
            .get(iter)?
            .get(self.index(page, slot)?)
            .copied()
    }

    /// Mutable access to the placement [`ShrinkPlan::cell`] reads.
    pub fn cell_mut(&mut self, iter: usize, page: u16, slot: u32) -> Option<&mut CellPlacement> {
        let k = self.index(page, slot)?;
        self.placements.get_mut(iter)?.get_mut(k)
    }

    fn index(&self, page: u16, slot: u32) -> Option<usize> {
        (slot < self.ii_p).then(|| page as usize * self.ii_p as usize + slot as usize)
    }

    /// Placement of cell `(page, slot)` at absolute source iteration `j`.
    ///
    /// # Panics
    ///
    /// If the plan has no such cell; [`validate_plan`] reports those as
    /// [`MissingCell`].
    ///
    /// [`validate_plan`]: crate::validate::validate_plan
    /// [`MissingCell`]: crate::validate::TransformViolation::MissingCell
    pub fn at(&self, page: u16, slot: u32, iter: u64) -> CellPlacement {
        let idx = (iter % self.period as u64) as usize;
        let rounds = iter / self.period as u64;
        let c = self
            .cell(idx, page, slot)
            .unwrap_or_else(|| panic!("plan has no cell ({page},{slot}) in iteration {idx}"));
        CellPlacement {
            col: c.col,
            time: c.time + rounds * self.span,
        }
    }
}

/// Why a transformation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// M must satisfy `1 ≤ M`.
    BadTargetSize {
        /// The requested M.
        m: u16,
    },
    /// The PageMaster strategy needs canonical 1-step dependences.
    NeedsCanonical,
    /// The block strategy cannot realise ring-wrap dependences.
    WrapUnsupported,
    /// Algorithm 1 hit a dependency-column distance > 2 (malformed input).
    DependencyTooFar {
        /// Producer columns observed.
        d1: u16,
        /// Producer columns observed.
        d2: u16,
    },
    /// No steady state emerged within the warm-up budget.
    NoSteadyState,
    /// Every page of the fault map is dead — there is nothing to remap
    /// onto (see [`crate::degrade`]).
    NoHealthyPages,
}

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformError::BadTargetSize { m } => write!(f, "invalid target size M={m}"),
            TransformError::NeedsCanonical => {
                write!(
                    f,
                    "PageMaster strategy requires canonical 1-step dependences"
                )
            }
            TransformError::WrapUnsupported => {
                write!(f, "block strategy cannot realise ring-wrap dependences")
            }
            TransformError::DependencyTooFar { d1, d2 } => {
                write!(
                    f,
                    "dependency columns {d1} and {d2} more than two hops apart"
                )
            }
            TransformError::NoSteadyState => write!(f, "no steady state within warm-up budget"),
            TransformError::NoHealthyPages => {
                write!(f, "no healthy pages survive in the fault map")
            }
        }
    }
}

impl std::error::Error for TransformError {}

/// The snake column of page `n` when `N` pages fold onto `M` columns:
/// block `b = n/M` runs left-to-right when even, right-to-left when odd,
/// so ring-consecutive pages always land on the same or an adjacent
/// column.
pub fn snake_col(n: u16, m: u16) -> u16 {
    let b = n / m;
    let r = n % m;
    if b.is_multiple_of(2) {
        r
    } else {
        m - 1 - r
    }
}

/// The column-stable block transform: page `n` executes in column
/// `snake(n)` during round `n / M` of each slot step.
///
/// `II_q = II_p · ⌈N/M⌉`. A schedule with wrap dependences folds only at
/// `M = N` ([`TransformError::WrapUnsupported`] otherwise).
pub fn transform_block(p: &PagedSchedule, m: u16) -> Result<ShrinkPlan, TransformError> {
    if m == 0 {
        return Err(TransformError::BadTargetSize { m });
    }
    // With wrap dependences only the identity size keeps the wrap's two
    // pages on ring-adjacent columns: M < N folds them apart, and M > N
    // leaves the wrap spanning columns N − 1 → 0 of an M-column ring.
    if p.has_wrap_deps() && m != p.num_pages {
        return Err(TransformError::WrapUnsupported);
    }
    let n = p.num_pages;
    let k = n.div_ceil(m) as u64; // rounds per slot step
    let row = (0..n)
        .flat_map(|page| {
            (0..p.ii).map(move |slot| CellPlacement {
                col: snake_col(page, m),
                time: slot as u64 * k + (page / m) as u64,
            })
        })
        .collect();
    Ok(ShrinkPlan {
        m,
        ii_p: p.ii,
        period: 1,
        span: p.ii as u64 * k,
        placements: vec![row],
        strategy: Strategy::Block,
    })
}

/// Transform with the requested strategy.
///
/// [`Strategy::Auto`] returns the block plan when `M` divides `N` and
/// the schedule has no wrap dependences: Block then reaches the
/// capacity optimum `II_p·N/M` with period 1, so the drifting search
/// could not do better. Non-canonical schedules also take Block. A wrap
/// ring tries Algorithm 1 and falls back to Block when it fails. Any
/// other ring builds Block, runs Algorithm 1 for at most `4·N`
/// iterations, and keeps the drifting plan only when it is strictly
/// better.
pub fn transform(
    p: &PagedSchedule,
    m: u16,
    strategy: Strategy,
) -> Result<ShrinkPlan, TransformError> {
    match strategy {
        Strategy::Block => transform_block(p, m),
        Strategy::PageMaster => transform_pagemaster(p, m),
        Strategy::Auto => {
            let wrap = p.has_wrap_deps();
            let block_optimal = p.num_pages.checked_rem(m) == Some(0) && !wrap;
            if p.discipline != Discipline::Canonical || block_optimal {
                transform_block(p, m)
            } else if wrap {
                transform_pagemaster(p, m).or_else(|_| transform_block(p, m))
            } else {
                let block = transform_block(p, m)?;
                let cap = (4 * u32::from(p.num_pages)).min(WARMUP_ITERS);
                Ok(match transform_pagemaster_within(p, m, cap) {
                    Ok(drift)
                        if drift.span * u64::from(block.period)
                            < block.span * u64::from(drift.period) =>
                    {
                        drift
                    }
                    _ => block,
                })
            }
        }
    }
}

/// [`transform`] with the page geometry emitted to `tracer`: a
/// `TransformBegin` carrying the source shape (`n`, `ii`, requested
/// strategy) and, on success, a `TransformEnd` carrying the produced
/// plan's period/span and effective II.
pub fn transform_traced(
    p: &PagedSchedule,
    m: u16,
    strategy: Strategy,
    tracer: &Tracer,
) -> Result<ShrinkPlan, TransformError> {
    tracer.emit(|| TraceEvent::TransformBegin {
        kernel: p.name.clone(),
        n: p.num_pages,
        m,
        ii: p.ii,
        strategy: format!("{strategy:?}"),
    });
    let plan = transform(p, m, strategy)?;
    tracer.emit(|| TraceEvent::TransformEnd {
        kernel: p.name.clone(),
        m: plan.m,
        period: plan.period,
        span: plan.span,
        ii_q_ceil: plan.ii_q_ceil(),
    });
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snake_is_ring_adjacent() {
        for m in 1..8u16 {
            for n in 0..30u16 {
                let (a, b) = (snake_col(n, m), snake_col(n + 1, m));
                assert!(
                    a.abs_diff(b) <= 1,
                    "pages {n},{} map to columns {a},{b} (m={m})",
                    n + 1
                );
            }
        }
    }

    #[test]
    fn block_ii_q_matches_formula() {
        let p = PagedSchedule::synthetic_canonical(8, 3, false);
        for m in [1u16, 2, 4, 8] {
            let plan = transform_block(&p, m).unwrap();
            assert_eq!(plan.ii_q(), 3.0 * (8.0 / m as f64));
            assert_eq!(plan.period, 1);
        }
    }

    #[test]
    fn block_non_dividing_rounds_up() {
        let p = PagedSchedule::synthetic_canonical(6, 1, false);
        let plan = transform_block(&p, 5).unwrap();
        assert_eq!(plan.ii_q_ceil(), 2); // ceil(6/5) rounds
    }

    #[test]
    fn block_rejects_wrap_when_shrinking() {
        let p = PagedSchedule::synthetic_canonical(4, 1, true);
        assert!(matches!(
            transform_block(&p, 2),
            Err(TransformError::WrapUnsupported)
        ));
        // Identity-size transform is fine even with wrap: every page keeps
        // its own column.
        assert!(transform_block(&p, 4).is_ok());
        // More columns than pages would leave the wrap dependence spanning
        // columns 3 → 0 of a 5-column ring.
        assert!(matches!(
            transform_block(&p, 5),
            Err(TransformError::WrapUnsupported)
        ));
    }

    #[test]
    fn block_rejects_m_zero() {
        let p = PagedSchedule::synthetic_canonical(4, 1, false);
        assert!(matches!(
            transform_block(&p, 0),
            Err(TransformError::BadTargetSize { m: 0 })
        ));
    }

    #[test]
    fn plan_extension_is_periodic() {
        let p = PagedSchedule::synthetic_canonical(4, 2, false);
        let plan = transform_block(&p, 2).unwrap();
        let a = plan.at(3, 1, 0);
        let b = plan.at(3, 1, 5);
        assert_eq!(a.col, b.col);
        assert_eq!(b.time - a.time, 5 * plan.span);
    }
}
