//! Degradation analysis: a [`DegradedPlan`] re-checked against the live
//! [`FaultMap`], from first principles.
//!
//! A degraded plan is a shrink plan on a page run, so only two facts can
//! be wrong: the inner plan, analyzed like any other ([`analyze_plan`]),
//! and the pages of the run, each of which must be
//!
//! * inside the fabric and usable — not dead, not mid-repair (A301);
//! * if degraded-but-usable, reported as a warning (A306) — legal, but
//!   the operator should know.
//!
//! The run is ring-consecutive and one page per column by construction;
//! the checks that once compared stored copies of it (A302–A305) are
//! retired.

use crate::diag::{Code, Diagnostic, Report, Span};
use crate::plan::analyze_plan;
use cgra_arch::{FaultMap, PageHealth};
use cgra_core::{DegradedPlan, PagedSchedule};

/// The health of `page` if work may run there (healthy or degraded);
/// `None` for a page that is dead, mid-repair or past the end of
/// `faults`. A301 and A310 both test this.
pub(crate) fn usable_health(faults: &FaultMap, page: u32) -> Option<PageHealth> {
    let page = u16::try_from(page)
        .ok()
        .filter(|&p| p < faults.num_pages() && faults.is_usable(p))?;
    Some(faults.health(page))
}

/// Analyze a degraded plan against its source schedule and the fault map
/// it must survive on.
pub fn analyze_degraded(p: &PagedSchedule, d: &DegradedPlan, faults: &FaultMap) -> Report {
    let mut diagnostics = Vec::new();
    for (col, page) in (0u16..).zip(d.column_pages()) {
        let span = Span::Column(col);
        match usable_health(faults, page) {
            None => diagnostics.push(Diagnostic::new(
                Code::A301OpOnDeadPage,
                span,
                format!("backed by dead or out-of-range page {page}"),
            )),
            Some(PageHealth::Degraded) => diagnostics.push(Diagnostic::new(
                Code::A306ColumnOnDegradedPage,
                span,
                format!("backed by degraded page {page}"),
            )),
            Some(_) => {}
        }
    }
    Report::from_diagnostics(diagnostics).merge(analyze_plan(p, &d.plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_arch::PageHealth;
    use cgra_core::transform::Strategy;
    use cgra_core::transform_degraded;

    #[test]
    fn healthy_degradation_is_clean() {
        let p = PagedSchedule::synthetic_canonical(8, 2, false);
        let mut faults = FaultMap::new(8);
        faults.mark_page(2, PageHealth::Dead);
        let d = transform_degraded(&p, &faults, 4, Strategy::Auto).unwrap();
        let rep = analyze_degraded(&p, &d, &faults);
        assert!(rep.is_clean(), "{}", rep.render());
    }

    #[test]
    fn degraded_column_warns_but_is_not_an_error() {
        let p = PagedSchedule::synthetic_canonical(4, 1, false);
        let mut faults = FaultMap::new(4);
        faults.mark_page(1, PageHealth::Degraded);
        let d = transform_degraded(&p, &faults, 4, Strategy::Auto).unwrap();
        let rep = analyze_degraded(&p, &d, &faults);
        assert!(rep.codes().contains(&Code::A306ColumnOnDegradedPage));
        assert!(!rep.has_errors(), "{}", rep.render());
    }

    #[test]
    fn dead_and_past_the_end_columns_are_errors() {
        let p = PagedSchedule::synthetic_canonical(8, 2, false);
        let mut faults = FaultMap::new(8);
        faults.mark_page(2, PageHealth::Dead);
        let mut d = transform_degraded(&p, &faults, 4, Strategy::Auto).unwrap();
        d.first_page = 2;
        let rep = analyze_degraded(&p, &d, &faults);
        assert_eq!(
            rep.codes(),
            vec![Code::A301OpOnDeadPage],
            "{}",
            rep.render()
        );
        assert_eq!(rep.diagnostics()[0].span, Span::Column(0));
        // A run off the end of the fabric, even one whose end passes
        // the last page number, is A301 on every column past the end.
        for (first, past_end) in [(6, 2), (u16::MAX, 4)] {
            d.first_page = first;
            let rep = analyze_degraded(&p, &d, &faults);
            assert_eq!(rep.codes(), vec![Code::A301OpOnDeadPage]);
            assert_eq!(rep.diagnostics().len(), past_end, "{}", rep.render());
        }
    }
}
