//! Graceful degradation: shrink plans that route around dead pages.
//!
//! The paper treats a shrink as "another thread took some of my pages";
//! a fabric fault is the same event with a different cause — pages
//! disappear at runtime and the thread must keep making progress on
//! whatever survives. This module composes the PageMaster transformation
//! with a [`FaultMap`]:
//!
//! 1. find the **longest surviving contiguous run** of usable pages in
//!    the thread's ring region (ring-path dependences only hop between
//!    physically adjacent pages, so the target region must be contiguous
//!    — a plan scattered over disconnected healthy islands could never
//!    route its inter-page values);
//! 2. shrink the schedule onto `M = min(budget, run length)` columns
//!    with the ordinary [`transform`] machinery;
//! 3. place the plan on the first `M` pages of that run.
//!
//! The result is a [`DegradedPlan`] — a shrink plan and the page its
//! run starts on — instead of a panic; a fully dead region reports
//! [`TransformError::NoHealthyPages`].

use crate::paged::PagedSchedule;
use crate::transform::{transform, ShrinkPlan, Strategy, TransformError};
use cgra_arch::FaultMap;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A [`ShrinkPlan`] placed on a run of ring-consecutive pages of a
/// faulty region.
///
/// Column `c` of `plan` runs on physical page `first_page + c`, so ring
/// adjacency in the plan is physical adjacency on the fabric (§VI-B).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradedPlan {
    /// The shrink plan over the run's `plan.m` columns.
    pub plan: ShrinkPlan,
    /// The physical page backing column 0.
    pub first_page: u16,
}

impl DegradedPlan {
    /// The physical pages backing the plan's columns, in column order.
    pub fn column_pages(&self) -> Range<u32> {
        page_run(self.first_page, self.plan.m)
    }
}

/// The pages `first_page..first_page + m`, widened so the end cannot
/// overflow.
pub(crate) fn page_run(first_page: u16, m: u16) -> Range<u32> {
    u32::from(first_page)..u32::from(first_page) + u32::from(m)
}

/// Shrink `p` onto the surviving pages of `faults`, using at most
/// `budget` columns.
///
/// `faults` describes the health of the thread's *current* page region
/// (index `i` of the map is the `i`-th page the thread holds); it need
/// not match `p.num_pages` — a thread holding 4 pages can be remapped
/// from its 8-page source schedule just like an ordinary shrink. The
/// target size is `min(budget, longest surviving run, p.num_pages)`.
///
/// # Errors
///
/// [`TransformError::NoHealthyPages`] when no usable page survives (the
/// caller should revoke the region entirely and queue the thread);
/// otherwise whatever the inner [`transform`] reports.
pub fn transform_degraded(
    p: &PagedSchedule,
    faults: &FaultMap,
    budget: u16,
    strategy: Strategy,
) -> Result<DegradedPlan, TransformError> {
    let (first_page, len) = faults
        .longest_surviving_run()
        .ok_or(TransformError::NoHealthyPages)?;
    let m = budget.min(len).min(p.num_pages);
    if m == 0 {
        return Err(TransformError::NoHealthyPages);
    }
    Ok(DegradedPlan {
        plan: transform(p, m, strategy)?,
        first_page,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_arch::PageHealth;

    // Legality auditing lives in `tests/degrade_audit.rs`: the
    // independent analyzer (`cgra-analyze`) is a dev-dependency cycle,
    // so it can only link against this crate's *library* instance —
    // unit tests here check structure, the integration test re-derives
    // legality.

    #[test]
    fn zero_faults_is_plain_shrink() {
        let p = PagedSchedule::synthetic_canonical(8, 2, false);
        let faults = FaultMap::new(8);
        let d = transform_degraded(&p, &faults, 8, Strategy::Auto).unwrap();
        assert_eq!(d.column_pages(), 0..8);
    }

    #[test]
    fn dead_middle_page_picks_longest_side() {
        let p = PagedSchedule::synthetic_canonical(8, 2, false);
        let mut faults = FaultMap::new(8);
        faults.mark_page(2, PageHealth::Dead);
        // Runs: [0,2) and [3,8) — the right side wins with 5 pages, and
        // the budget caps the shrink at 4 columns.
        let d = transform_degraded(&p, &faults, 4, Strategy::Auto).unwrap();
        assert_eq!(d.column_pages(), 3..7);
    }

    #[test]
    fn degraded_pages_stay_usable() {
        let p = PagedSchedule::synthetic_canonical(4, 1, false);
        let mut faults = FaultMap::new(4);
        faults.mark_page(1, PageHealth::Degraded);
        let d = transform_degraded(&p, &faults, 4, Strategy::Auto).unwrap();
        assert_eq!(d.column_pages(), 0..4);
    }

    #[test]
    fn a_run_at_the_last_page_does_not_overflow() {
        let p = PagedSchedule::synthetic_canonical(4, 1, false);
        let d = DegradedPlan {
            plan: transform(&p, 4, Strategy::Auto).unwrap(),
            first_page: u16::MAX,
        };
        assert_eq!(d.column_pages(), 65_535..65_539);
    }

    #[test]
    fn all_dead_reports_no_healthy_pages() {
        let p = PagedSchedule::synthetic_canonical(4, 1, false);
        let mut faults = FaultMap::new(4);
        for page in 0..4 {
            faults.mark_page(page, PageHealth::Dead);
        }
        assert!(matches!(
            transform_degraded(&p, &faults, 4, Strategy::Auto),
            Err(TransformError::NoHealthyPages)
        ));
    }

    #[test]
    fn budget_zero_reports_no_healthy_pages() {
        let p = PagedSchedule::synthetic_canonical(4, 1, false);
        let faults = FaultMap::new(4);
        assert!(matches!(
            transform_degraded(&p, &faults, 0, Strategy::Auto),
            Err(TransformError::NoHealthyPages)
        ));
    }

    #[test]
    fn real_kernel_survives_one_dead_page() {
        let cgra = cgra_arch::CgraConfig::square(4);
        let k = cgra_dfg::kernels::fir();
        let r = cgra_mapper::map_constrained(&k, &cgra, &cgra_mapper::MapOptions::default())
            .expect("fir maps on 4x4");
        let ps = PagedSchedule::from_mapping(&r, &cgra).expect("paged extraction");
        let mut faults = FaultMap::new(ps.num_pages);
        faults.mark_page(0, PageHealth::Dead);
        let d = transform_degraded(&ps, &faults, ps.num_pages, Strategy::Auto).unwrap();
        assert_eq!(d.column_pages(), 1..u32::from(ps.num_pages));
    }
}
