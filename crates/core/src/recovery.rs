//! Re-expansion after repair: undo a [`DegradedPlan`] once pages heal.
//!
//! A transient fault shrinks a thread onto the surviving run of its
//! region ([`transform_degraded`](crate::degrade::transform_degraded));
//! when the dead pages are repaired and their quarantine windows elapse,
//! the supervision policy re-expands the thread. This module produces
//! the typed plan for that *undo*: a full-ring [`ShrinkPlan`] over the
//! recovered region (the same PageMaster machinery that shrank the
//! schedule grows it back), plus the bookkeeping the analyzer needs to
//! prove the recovery legal —
//!
//! * which physical pages back the recovered columns (none may still be
//!   dead or mid-repair — `cgra-analyze` code **A310**),
//! * when each repaired page was repaired vs. when the plan activates
//!   it (the quarantine window must be respected — **A311**),
//! * how many kernel iterations were completed before the fault and at
//!   which iteration the recovered schedule resumes (the round trip
//!   must lose nothing — **A312**).

use crate::degrade::DegradedPlan;
use crate::paged::PagedSchedule;
use crate::transform::{transform, ShrinkPlan, Strategy, TransformError};
use cgra_arch::FaultMap;
use serde::{Deserialize, Serialize};

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

/// The undo of a [`DegradedPlan`]: a schedule re-expanded onto the
/// recovered page region.
///
/// `plan` is an ordinary plan over `column_pages.len()` logical columns
/// — at full recovery `plan.m == ` the source schedule's `num_pages`,
/// i.e. the thread's original full-ring schedule. `column_pages[c]`
/// names the physical page backing column `c` (contiguous and
/// ascending, like the degraded plan it undoes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPlan {
    /// The re-expanded plan over the recovered columns.
    pub plan: ShrinkPlan,
    /// Physical page backing each plan column.
    pub column_pages: Vec<u16>,
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
    /// Pages of the region still dead (or mid-repair) at recovery time.
    pub dead_pages: Vec<u16>,
}

impl RecoveryPlan {
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
/// The target size is the longest surviving run of the healed map,
/// capped at the source schedule's page count — if every page healed,
/// the result is the thread's original full-ring schedule.
///
/// # Errors
///
/// [`TransformError::NoHealthyPages`] when the healed map still has no
/// usable run, or whatever the inner [`transform`] reports.
pub fn plan_recovery(
    p: &PagedSchedule,
    degraded: &DegradedPlan,
    faults: &FaultMap,
    repaired: &[RepairedPage],
    quarantine: u64,
    completed_iterations: u64,
    strategy: Strategy,
) -> Result<RecoveryPlan, TransformError> {
    let (start, len) = faults
        .longest_surviving_run()
        .ok_or(TransformError::NoHealthyPages)?;
    let m = len.min(p.num_pages);
    if m == 0 {
        return Err(TransformError::NoHealthyPages);
    }
    debug_assert!(
        m >= degraded.effective_pages,
        "recovery must not shrink below the degraded plan"
    );
    let plan = transform(p, m, strategy)?;
    Ok(RecoveryPlan {
        column_pages: (start..start + m).collect(),
        repaired: repaired.to_vec(),
        quarantine,
        completed_iterations,
        resume_iteration: completed_iterations,
        // `dead_pages()` is every non-usable page, so a page mid-repair
        // (Repairing) counts as dead here — exactly what A310 audits.
        dead_pages: faults.dead_pages(),
        plan,
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
        assert_eq!(d.effective_pages, 5, "shrunk onto the right-side run");
        let repaired = [RepairedPage {
            page: 2,
            repaired_at: 1_000,
            activated_at: 1_100,
        }];
        let r = plan_recovery(&p, &d, &faults, &repaired, 100, 42, Strategy::Auto).unwrap();
        assert!(r.is_full_ring(&p));
        assert_eq!(r.plan.m, 8);
        assert_eq!(r.column_pages, (0..8).collect::<Vec<u16>>());
        assert_eq!(r.iterations_lost(), 0);
        assert_eq!(r.resume_iteration, 42);
        assert!(r.dead_pages.is_empty());
    }

    #[test]
    fn partial_heal_grows_to_the_surviving_run() {
        let p = PagedSchedule::synthetic_canonical(8, 2, false);
        let mut faults = FaultMap::new(8);
        faults.mark_page(1, PageHealth::Dead);
        faults.mark_page(6, PageHealth::Dead);
        let d = transform_degraded(&p, &faults, 8, Strategy::Auto).unwrap();
        assert_eq!(d.effective_pages, 4, "run [2,6) wins");
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
        assert_eq!(r.column_pages, vec![2, 3, 4, 5, 6, 7]);
        assert!(!r.is_full_ring(&p));
        assert_eq!(r.dead_pages, vec![1]);
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
        assert_eq!(r.column_pages, vec![0, 1, 2]);
        assert_eq!(r.dead_pages, vec![3], "mid-repair counts as dead");
    }

    #[test]
    fn nothing_healed_still_errors_when_all_dead() {
        let p = PagedSchedule::synthetic_canonical(4, 1, false);
        let mut faults = FaultMap::new(4);
        for page in 0..4 {
            faults.mark_page(page, PageHealth::Dead);
        }
        let d = DegradedPlan {
            plan: transform(&p, 1, Strategy::Auto).unwrap(),
            column_pages: vec![0],
            effective_pages: 1,
            dead_pages: vec![],
            degraded_pages: vec![],
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
        assert_eq!(d.effective_pages, ps.num_pages - 1);
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
