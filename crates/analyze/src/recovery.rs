//! Recovery analysis: a [`RecoveryPlan`] re-checked against the healed
//! [`FaultMap`], from first principles.
//!
//! The inner re-expanded plan is analyzed like any other
//! ([`analyze_plan`]), and the column→page remap is held to the same
//! structural rules as a degraded plan's (contiguity A302, injectivity A303, bookkeeping A305). On top, the
//! recovery-specific invariants:
//!
//! * **A310** — repaired-page reuse legality: no recovered column may
//!   sit on a page that is still dead or mid-repair (`Repairing` is not
//!   usable; only a committed repair makes a page placeable again);
//! * **A311** — quarantine respected: every repaired page the plan
//!   activates must have sat out its full quarantine window
//!   (`activated_at ≥ repaired_at + quarantine`), the hysteresis that
//!   keeps a flapping page from thrashing shrink/expand;
//! * **A312** — no iteration loss: the recovered schedule must resume
//!   exactly at the iteration the thread had completed
//!   (`resume_iteration == completed_iterations`) — the
//!   shrink → repair → expand round trip loses nothing.

use crate::diag::{Code, Diagnostic, Report, Span};
use crate::plan::analyze_plan;
use cgra_arch::FaultMap;
use cgra_core::{PagedSchedule, RecoveryPlan};

/// Analyze a recovery plan against its source schedule and the healed
/// fault map it re-expands onto.
pub fn analyze_recovery(p: &PagedSchedule, r: &RecoveryPlan, faults: &FaultMap) -> Report {
    let mut diagnostics = Vec::new();
    let pages = &r.column_pages;

    if pages.len() != r.plan.m as usize {
        diagnostics.push(Diagnostic::new(
            Code::A304DegradedShapeMismatch,
            Span::Global,
            format!(
                "{} column pages for a plan over {} columns",
                pages.len(),
                r.plan.m
            ),
        ));
    }

    // A310: reuse legality. A page is placeable only when the fault map
    // says it is usable *now* — dead and mid-repair pages are not.
    for (col, &page) in pages.iter().enumerate() {
        if page >= faults.num_pages() || !faults.is_usable(page) {
            diagnostics.push(Diagnostic::new(
                Code::A310RecoveryOnUnrepairedPage,
                Span::Column(col as u16),
                format!("recovered column backed by unusable page {page}"),
            ));
        }
    }

    if pages.windows(2).any(|w| w[1] != w[0] + 1) {
        diagnostics.push(Diagnostic::new(
            Code::A302ColumnsNotContiguous,
            Span::Global,
            format!("column pages {pages:?} are not a contiguous ascending run"),
        ));
    }

    let mut seen = std::collections::HashSet::new();
    for (col, &page) in pages.iter().enumerate() {
        if !seen.insert(page) {
            diagnostics.push(Diagnostic::new(
                Code::A303RemapNotBijective,
                Span::Column(col as u16),
                format!("physical page {page} backs more than one column"),
            ));
        }
    }

    // A311: quarantine. Only repaired pages the plan actually places
    // work on are held to the window — a page repaired but left out of
    // the run (still quarantined by the supervisor) is fine.
    for rp in &r.repaired {
        if !pages.contains(&rp.page) {
            continue;
        }
        let earliest = rp.repaired_at.saturating_add(r.quarantine);
        if rp.activated_at < earliest {
            diagnostics.push(Diagnostic::new(
                Code::A311QuarantineViolated,
                Span::Page(rp.page),
                format!(
                    "page {} activated at {} but repaired at {} with quarantine {} (earliest legal: {})",
                    rp.page, rp.activated_at, rp.repaired_at, r.quarantine, earliest
                ),
            ));
        }
    }

    // A312: the round trip must lose (or replay) nothing.
    if r.resume_iteration != r.completed_iterations {
        diagnostics.push(Diagnostic::new(
            Code::A312IterationLoss,
            Span::Global,
            format!(
                "recovered schedule resumes at iteration {} but the thread completed {}",
                r.resume_iteration, r.completed_iterations
            ),
        ));
    }

    if r.dead_pages != faults.dead_pages() {
        diagnostics.push(Diagnostic::new(
            Code::A305FaultBookkeeping,
            Span::Global,
            format!(
                "plan records dead {:?}, fault map says dead {:?}",
                r.dead_pages,
                faults.dead_pages()
            ),
        ));
    }

    Report::from_diagnostics(diagnostics).merge(analyze_plan(p, &r.plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_arch::PageHealth;
    use cgra_core::transform::Strategy;
    use cgra_core::{plan_recovery, transform_degraded, RepairedPage};

    fn healed_recovery() -> (PagedSchedule, RecoveryPlan, FaultMap) {
        let p = PagedSchedule::synthetic_canonical(8, 2, false);
        let mut faults = FaultMap::new(8);
        faults.mark_page(2, PageHealth::Dead);
        let d = transform_degraded(&p, &faults, 8, Strategy::Auto).unwrap();
        faults.begin_repair(2);
        faults.complete_repair(2);
        let repaired = [RepairedPage {
            page: 2,
            repaired_at: 1_000,
            activated_at: 1_064,
        }];
        let r = plan_recovery(&p, &d, &faults, &repaired, 64, 42, Strategy::Auto).unwrap();
        (p, r, faults)
    }

    #[test]
    fn legal_recovery_is_clean() {
        let (p, r, faults) = healed_recovery();
        let rep = analyze_recovery(&p, &r, &faults);
        assert!(rep.is_clean(), "{}", rep.render());
    }

    #[test]
    fn reusing_a_still_dead_page_is_a310() {
        let (p, mut r, mut faults) = healed_recovery();
        // The fabric strikes again after the plan was cut: page 2 dies.
        faults.mark_page(2, PageHealth::Dead);
        r.dead_pages = faults.dead_pages(); // keep A305 quiet
        let rep = analyze_recovery(&p, &r, &faults);
        assert!(
            rep.codes().contains(&Code::A310RecoveryOnUnrepairedPage),
            "{}",
            rep.render()
        );
    }

    #[test]
    fn mid_repair_page_is_a310_too() {
        let (p, mut r, mut faults) = healed_recovery();
        faults.mark_page(2, PageHealth::Dead);
        faults.begin_repair(2); // Repairing: still not placeable
        r.dead_pages = faults.dead_pages();
        let rep = analyze_recovery(&p, &r, &faults);
        assert!(
            rep.codes().contains(&Code::A310RecoveryOnUnrepairedPage),
            "{}",
            rep.render()
        );
    }

    #[test]
    fn early_activation_is_a311() {
        let (p, mut r, faults) = healed_recovery();
        r.repaired[0].activated_at = r.repaired[0].repaired_at + r.quarantine - 1;
        let rep = analyze_recovery(&p, &r, &faults);
        assert!(
            rep.codes().contains(&Code::A311QuarantineViolated),
            "{}",
            rep.render()
        );
    }

    #[test]
    fn unused_repaired_page_is_exempt_from_quarantine() {
        let (p, mut r, faults) = healed_recovery();
        // A repaired page the plan does not place work on may be listed
        // with any activation time — the supervisor just hasn't offered
        // it yet.
        r.repaired.push(RepairedPage {
            page: 15,
            repaired_at: 10,
            activated_at: 0,
        });
        let rep = analyze_recovery(&p, &r, &faults);
        assert!(rep.is_clean(), "{}", rep.render());
    }

    #[test]
    fn iteration_mismatch_is_a312() {
        let (p, mut r, faults) = healed_recovery();
        r.resume_iteration = r.completed_iterations + 3;
        let rep = analyze_recovery(&p, &r, &faults);
        assert!(
            rep.codes().contains(&Code::A312IterationLoss),
            "{}",
            rep.render()
        );
    }

    #[test]
    fn stale_dead_bookkeeping_is_a305() {
        let (p, mut r, faults) = healed_recovery();
        r.dead_pages = vec![7];
        let rep = analyze_recovery(&p, &r, &faults);
        assert!(
            rep.codes().contains(&Code::A305FaultBookkeeping),
            "{}",
            rep.render()
        );
    }
}
