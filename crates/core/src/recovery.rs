//! Re-expansion after repair: undo a [`DegradedPlan`] once pages heal.
//!
//! A transient fault shrinks a thread onto the surviving run of its
//! region ([`transform_degraded`]); when the dead pages are repaired and
//! their quarantine windows elapse, the supervision policy re-expands
//! the thread. The undo is the same degradation on the healed map at
//! the schedule's full page count: a plan on the longest usable run
//! (the thread's original full-ring schedule once every page healed),
//! plus what the analyzer needs to prove the cutover legal —
//!
//! * when each repaired page was repaired vs. when the plan activates
//!   it (the quarantine window must be respected — `cgra-analyze` code
//!   **A311**; a column on a page still dead or mid-repair is **A310**),
//! * how many kernel iterations were completed before the fault and at
//!   which iteration the recovered schedule resumes (the round trip
//!   must lose nothing — **A312**).

use crate::degrade::{page_run, transform_degraded, DegradedPlan};
use crate::paged::PagedSchedule;
use crate::transform::{ShrinkPlan, Strategy, TransformError};
use cgra_arch::FaultMap;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// One page that came back from a transient fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairedPage {
    /// The physical page index.
    pub page: u16,
    /// Cycle at which the repair committed (the page re-entered the
    /// allocator's free pool).
    pub repaired_at: u64,
    /// Cycle at which the recovery plan first places work on the page.
    pub activated_at: u64,
}

/// The undo of a [`DegradedPlan`]: a schedule re-expanded onto a run of
/// the recovered page region.
///
/// Column `c` of `plan` runs on physical page `first_page + c`, as in
/// the degraded plan it undoes. At full recovery `plan.m` is the source
/// schedule's `num_pages`: the thread's original full-ring schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPlan {
    /// The re-expanded plan over the recovered columns.
    pub plan: ShrinkPlan,
    /// The physical page backing column 0.
    pub first_page: u16,
    /// Pages that were repaired to make this expansion possible, with
    /// their repair/activation cycles.
    pub repaired: Vec<RepairedPage>,
    /// The quarantine window (cycles) each repaired page must sit out
    /// after its repair before the plan may activate it.
    pub quarantine: u64,
    /// Kernel iterations the thread had completed (degraded or not)
    /// when the recovery plan was cut over.
    pub completed_iterations: u64,
    /// Iteration index at which the recovered schedule resumes. Equal
    /// to `completed_iterations` when the round trip loses nothing.
    pub resume_iteration: u64,
}

impl RecoveryPlan {
    /// The physical pages backing the plan's columns, in column order.
    pub fn column_pages(&self) -> Range<u32> {
        page_run(self.first_page, self.plan.m)
    }

    /// Whether the thread is back to the full ring of its source
    /// schedule (`m` recovered columns out of `m` original pages).
    pub fn is_full_ring(&self, p: &PagedSchedule) -> bool {
        self.plan.m == p.num_pages
    }

    /// Iterations lost across the shrink → repair → expand round trip
    /// (zero for a correct recovery).
    pub fn iterations_lost(&self) -> u64 {
        self.completed_iterations.abs_diff(self.resume_iteration)
    }
}

/// Plan the re-expansion of `p` onto the recovered region of `faults`,
/// undoing `degraded`.
///
/// `faults` describes the thread's page region *after* repair (the
/// pages listed in `repaired` must be usable again); `repaired` carries
/// the repair/activation cycles the analyzer audits against
/// `quarantine`. `completed_iterations` is the thread's progress at
/// cutover; the returned plan resumes exactly there.
///
/// The plan is [`transform_degraded`] on the healed map with the source
/// schedule's page count as the budget — if every page healed, the
/// result is the thread's original full-ring schedule.
///
/// # Errors
///
/// [`TransformError::NoHealthyPages`] when the healed map still has no
/// usable run, or whatever the inner transform reports.
pub fn plan_recovery(
    p: &PagedSchedule,
    degraded: &DegradedPlan,
    faults: &FaultMap,
    repaired: &[RepairedPage],
    quarantine: u64,
    completed_iterations: u64,
    strategy: Strategy,
) -> Result<RecoveryPlan, TransformError> {
    let DegradedPlan { plan, first_page } = transform_degraded(p, faults, p.num_pages, strategy)?;
    debug_assert!(
        plan.m >= degraded.plan.m,
        "recovery must not shrink below the degraded plan"
    );
    Ok(RecoveryPlan {
        plan,
        first_page,
        repaired: repaired.to_vec(),
        quarantine,
        completed_iterations,
        resume_iteration: completed_iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degrade::transform_degraded;
    use cgra_arch::PageHealth;

    // Like `degrade.rs`: legality auditing lives in the analyzer's
    // fixtures and `tests/recovery_audit.rs` (dev-dependency cycle);
    // unit tests here check structure.

    fn shrink_then_heal(pages: u16, dead: u16) -> (PagedSchedule, DegradedPlan, FaultMap) {
        let p = PagedSchedule::synthetic_canonical(pages, 2, false);
        let mut faults = FaultMap::new(pages);
        faults.mark_page(dead, PageHealth::Dead);
        let d = transform_degraded(&p, &faults, pages, Strategy::Auto).unwrap();
        // The page repairs: Dead → Repairing → Healthy.
        faults.begin_repair(dead);
        faults.complete_repair(dead);
        (p, d, faults)
    }

    #[test]
    fn full_heal_restores_the_full_ring() {
        let (p, d, faults) = shrink_then_heal(8, 2);
        assert_eq!(d.plan.m, 5, "shrunk onto the right-side run");
        let repaired = [RepairedPage {
            page: 2,
            repaired_at: 1_000,
            activated_at: 1_100,
        }];
        let r = plan_recovery(&p, &d, &faults, &repaired, 100, 42, Strategy::Auto).unwrap();
        assert!(r.is_full_ring(&p));
        assert_eq!(r.plan.m, 8);
        assert_eq!(r.column_pages(), 0..8);
        assert_eq!(r.iterations_lost(), 0);
        assert_eq!(r.resume_iteration, 42);
    }

    #[test]
    fn partial_heal_grows_to_the_surviving_run() {
        let p = PagedSchedule::synthetic_canonical(8, 2, false);
        let mut faults = FaultMap::new(8);
        faults.mark_page(1, PageHealth::Dead);
        faults.mark_page(6, PageHealth::Dead);
        let d = transform_degraded(&p, &faults, 8, Strategy::Auto).unwrap();
        assert_eq!(d.plan.m, 4, "run [2,6) wins");
        // Only page 6 heals; page 1 stays dead.
        faults.begin_repair(6);
        faults.complete_repair(6);
        let repaired = [RepairedPage {
            page: 6,
            repaired_at: 500,
            activated_at: 700,
        }];
        let r = plan_recovery(&p, &d, &faults, &repaired, 200, 10, Strategy::Auto).unwrap();
        assert_eq!(r.plan.m, 6, "run [2,8) after the heal");
        assert_eq!(r.column_pages(), 2..8);
        assert!(!r.is_full_ring(&p));
    }

    #[test]
    fn mid_repair_pages_are_not_reused() {
        let p = PagedSchedule::synthetic_canonical(4, 1, false);
        let mut faults = FaultMap::new(4);
        faults.mark_page(3, PageHealth::Dead);
        let d = transform_degraded(&p, &faults, 4, Strategy::Auto).unwrap();
        // Repair began but the quarantine has not elapsed: the page is
        // Repairing, still unusable.
        faults.begin_repair(3);
        let r = plan_recovery(&p, &d, &faults, &[], 100, 5, Strategy::Auto).unwrap();
        assert_eq!(r.plan.m, 3, "repairing page must not be re-placed");
        assert_eq!(r.column_pages(), 0..3);
    }

    #[test]
    fn nothing_healed_still_errors_when_all_dead() {
        let p = PagedSchedule::synthetic_canonical(4, 1, false);
        let mut faults = FaultMap::new(4);
        for page in 0..4 {
            faults.mark_page(page, PageHealth::Dead);
        }
        let d = DegradedPlan {
            plan: crate::transform::transform(&p, 1, Strategy::Auto).unwrap(),
            first_page: 0,
        };
        assert!(matches!(
            plan_recovery(&p, &d, &faults, &[], 0, 0, Strategy::Auto),
            Err(TransformError::NoHealthyPages)
        ));
    }

    #[test]
    fn real_kernel_round_trips_through_shrink_and_recovery() {
        let cgra = cgra_arch::CgraConfig::square(4);
        let k = cgra_dfg::kernels::fir();
        let r = cgra_mapper::map_constrained(&k, &cgra, &cgra_mapper::MapOptions::default())
            .expect("fir maps on 4x4");
        let ps = PagedSchedule::from_mapping(&r, &cgra).expect("paged extraction");
        let mut faults = FaultMap::new(ps.num_pages);
        faults.mark_page(0, PageHealth::Dead);
        let d = transform_degraded(&ps, &faults, ps.num_pages, Strategy::Auto).unwrap();
        assert_eq!(d.plan.m, ps.num_pages - 1);
        faults.begin_repair(0);
        faults.complete_repair(0);
        let repaired = [RepairedPage {
            page: 0,
            repaired_at: 2_000,
            activated_at: 2_064,
        }];
        let rec = plan_recovery(&ps, &d, &faults, &repaired, 64, 77, Strategy::Auto).unwrap();
        assert!(rec.is_full_ring(&ps));
        assert_eq!(rec.iterations_lost(), 0);
        assert!(
            crate::validate::validate_plan(&ps, &rec.plan).is_empty(),
            "recovered full-ring plan is legal"
        );
    }
}
