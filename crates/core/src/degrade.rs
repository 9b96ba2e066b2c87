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
//! 3. record which *physical* page backs each plan column, so the
//!    validator (and the simulator's allocator) can check that no op
//!    lands on a dead page.
//!
//! The result is a typed [`DegradedPlan`] instead of a panic; a fully
//! dead region reports [`TransformError::NoHealthyPages`].

use crate::paged::PagedSchedule;
use crate::transform::{transform, ShrinkPlan, Strategy, TransformError};
use cgra_arch::FaultMap;
use serde::{Deserialize, Serialize};

/// A [`ShrinkPlan`] remapped onto the surviving pages of a faulty region.
///
/// `plan` is an ordinary shrink plan over `effective_pages` *logical*
/// columns; `column_pages[c]` names the physical page that backs column
/// `c`. The physical pages are contiguous and ascending (the surviving
/// run), so ring adjacency in the plan is physical adjacency on the
/// fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradedPlan {
    /// The shrink plan over the surviving columns.
    pub plan: ShrinkPlan,
    /// Physical page backing each plan column (`column_pages[col]`).
    pub column_pages: Vec<u16>,
    /// The new effective page count (`plan.m`, duplicated for callers
    /// that only need the headline number).
    pub effective_pages: u16,
    /// Dead pages of the fault map at transformation time.
    pub dead_pages: Vec<u16>,
    /// Degraded-but-usable pages at transformation time.
    pub degraded_pages: Vec<u16>,
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
    let (start, len) = faults
        .longest_surviving_run()
        .ok_or(TransformError::NoHealthyPages)?;
    let m = budget.min(len).min(p.num_pages);
    if m == 0 {
        return Err(TransformError::NoHealthyPages);
    }
    let plan = transform(p, m, strategy)?;
    Ok(DegradedPlan {
        column_pages: (start..start + m).collect(),
        effective_pages: m,
        dead_pages: faults.dead_pages(),
        degraded_pages: faults.degraded_pages(),
        plan,
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
        assert_eq!(d.effective_pages, 8);
        assert_eq!(d.column_pages, (0..8).collect::<Vec<u16>>());
        assert!(d.dead_pages.is_empty());
        assert!(d.degraded_pages.is_empty());
    }

    #[test]
    fn dead_middle_page_picks_longest_side() {
        let p = PagedSchedule::synthetic_canonical(8, 2, false);
        let mut faults = FaultMap::new(8);
        faults.mark_page(2, PageHealth::Dead);
        // Runs: [0,2) and [3,8) — the right side wins with 5 pages, and
        // the budget caps the shrink at 4 columns.
        let d = transform_degraded(&p, &faults, 4, Strategy::Auto).unwrap();
        assert_eq!(d.effective_pages, 4);
        assert_eq!(d.column_pages, vec![3, 4, 5, 6]);
        assert_eq!(d.dead_pages, vec![2]);
    }

    #[test]
    fn degraded_pages_stay_usable_and_reported() {
        let p = PagedSchedule::synthetic_canonical(4, 1, false);
        let mut faults = FaultMap::new(4);
        faults.mark_page(1, PageHealth::Degraded);
        let d = transform_degraded(&p, &faults, 4, Strategy::Auto).unwrap();
        assert_eq!(d.effective_pages, 4);
        assert_eq!(d.degraded_pages, vec![1]);
        assert!(d.column_pages.contains(&1));
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
        assert_eq!(d.effective_pages, ps.num_pages - 1);
        assert_eq!(d.column_pages.first(), Some(&1));
    }
}
