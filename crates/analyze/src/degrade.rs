//! Degradation analysis: a [`DegradedPlan`] re-checked against the live
//! [`FaultMap`], from first principles.
//!
//! The inner shrink plan is analyzed like any other ([`analyze_plan`]);
//! on top, the column→page remap must satisfy:
//!
//! * every column is backed by an in-range, usable page (A301);
//! * the backing pages form one contiguous ascending run, so the ring
//!   dependences of the plan are physical adjacencies on the fabric
//!   (A302);
//! * the remap is injective — two columns sharing a physical page would
//!   double-book its PEs (A303);
//! * the plan's own column count, the remap length, and the headline
//!   `effective_pages` agree (A304);
//! * the recorded dead/degraded bookkeeping matches the fault map the
//!   plan claims to have been built against (A305);
//! * columns on degraded-but-usable pages are reported as warnings
//!   (A306) — legal, but the operator should know.

use crate::diag::{Code, Diagnostic, Report, Span};
use crate::plan::analyze_plan;
use cgra_arch::FaultMap;
use cgra_core::{DegradedPlan, PagedSchedule};

/// Analyze a degraded plan against its source schedule and the fault map
/// it must survive on.
pub fn analyze_degraded(p: &PagedSchedule, d: &DegradedPlan, faults: &FaultMap) -> Report {
    let mut diagnostics = Vec::new();
    let pages = &d.column_pages;

    if pages.len() != d.plan.m as usize || d.effective_pages != d.plan.m {
        diagnostics.push(Diagnostic::new(
            Code::A304DegradedShapeMismatch,
            Span::Global,
            format!(
                "{} column pages, effective_pages {}, for a plan over {} columns",
                pages.len(),
                d.effective_pages,
                d.plan.m
            ),
        ));
    }

    for (col, &page) in pages.iter().enumerate() {
        let span = Span::Column(col as u16);
        if page >= faults.num_pages() || !faults.is_usable(page) {
            diagnostics.push(Diagnostic::new(
                Code::A301OpOnDeadPage,
                span,
                format!("backed by dead or out-of-range page {page}"),
            ));
        } else if faults.degraded_pages().contains(&page) {
            diagnostics.push(Diagnostic::new(
                Code::A306ColumnOnDegradedPage,
                span,
                format!("backed by degraded page {page}"),
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

    if d.dead_pages != faults.dead_pages() || d.degraded_pages != faults.degraded_pages() {
        diagnostics.push(Diagnostic::new(
            Code::A305FaultBookkeeping,
            Span::Global,
            format!(
                "plan records dead {:?} / degraded {:?}, fault map says dead {:?} / degraded {:?}",
                d.dead_pages,
                d.degraded_pages,
                faults.dead_pages(),
                faults.degraded_pages()
            ),
        ));
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
    fn aliased_and_dead_columns_are_errors() {
        let p = PagedSchedule::synthetic_canonical(8, 2, false);
        let mut faults = FaultMap::new(8);
        faults.mark_page(2, PageHealth::Dead);
        let mut d = transform_degraded(&p, &faults, 4, Strategy::Auto).unwrap();
        d.column_pages = vec![2, 4, 4, 6];
        let rep = analyze_degraded(&p, &d, &faults);
        let codes = rep.codes();
        assert!(codes.contains(&Code::A301OpOnDeadPage), "{}", rep.render());
        assert!(codes.contains(&Code::A303RemapNotBijective));
        assert!(codes.contains(&Code::A302ColumnsNotContiguous));
    }
}
