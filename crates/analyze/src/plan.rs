//! Shrink-plan analysis (§VI-C) with coded diagnostics.
//!
//! The §VI-C re-derivation (slot exclusivity over the periodic window,
//! dependence timing and column adjacency, parked-column stability, the
//! capacity bound) lives in [`cgra_core::validate::validate_plan`] — an
//! independent checker that never trusts the transform. This pass lifts
//! its [`TransformViolation`]s into the diagnostic vocabulary so every
//! pipeline stage reports in one language.

use crate::diag::{Code, Diagnostic, Report, Span};
use cgra_core::transform::ShrinkPlan;
use cgra_core::validate::validate_plan;
use cgra_core::{PagedSchedule, TransformViolation};

/// Lift one shallow [`TransformViolation`] into a coded [`Diagnostic`].
pub fn diagnostic_from_transform_violation(v: &TransformViolation) -> Diagnostic {
    match v {
        TransformViolation::MissingCell {
            period_index,
            page,
            slot,
        } => Diagnostic::new(
            Code::A210PlanMissingCell,
            Span::Cell {
                page: *page,
                slot: *slot,
            },
            format!("unplaced in period entry {period_index}"),
        ),
        TransformViolation::BadColumn { col } => Diagnostic::new(
            Code::A211PlanBadColumn,
            Span::Column(*col),
            "column outside 0..M".to_string(),
        ),
        TransformViolation::SlotCollision { col, time } => Diagnostic::new(
            Code::A212PlanSlotCollision,
            Span::Column(*col),
            format!("two cell instances at cycle {time}"),
        ),
        TransformViolation::DepTiming {
            from,
            to,
            t_from,
            t_to,
        } => Diagnostic::new(
            Code::A213PlanDepTiming,
            Span::Cell {
                page: from.0,
                slot: from.1,
            },
            format!(
                "consumer ({},{}) at {t_to} not after producer at {t_from}",
                to.0, to.1
            ),
        ),
        TransformViolation::DepColumns {
            from,
            to,
            col_from,
            col_to,
        } => Diagnostic::new(
            Code::A214PlanDepColumns,
            Span::Cell {
                page: from.0,
                slot: from.1,
            },
            format!(
                "dependence to ({},{}) spans columns {col_from} and {col_to}",
                to.0, to.1
            ),
        ),
        TransformViolation::UnstableParking { page } => Diagnostic::new(
            Code::A215PlanUnstableParking,
            Span::Page(*page),
            "parks values but changes column".to_string(),
        ),
        TransformViolation::BelowCapacityBound { ii_q, bound } => Diagnostic::new(
            Code::A216PlanBelowCapacity,
            Span::Global,
            format!("II_q {ii_q} below capacity bound {bound}"),
        ),
    }
}

/// Analyze a shrink plan against its source schedule.
pub fn analyze_plan(p: &PagedSchedule, plan: &ShrinkPlan) -> Report {
    validate_plan(p, plan)
        .iter()
        .map(diagnostic_from_transform_violation)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_core::transform::transform_block;

    #[test]
    fn block_plans_are_clean() {
        let p = PagedSchedule::synthetic_canonical(8, 2, false);
        for m in [1u16, 2, 4, 8] {
            let plan = transform_block(&p, m).unwrap();
            let rep = analyze_plan(&p, &plan);
            assert!(rep.is_clean(), "M={m}: {}", rep.render());
        }
    }

    #[test]
    fn malformed_period_reports_a210() {
        let p = PagedSchedule::synthetic_canonical(4, 1, false);
        let mut plan = transform_block(&p, 2).unwrap();
        for period in [2, 0] {
            plan.period = period;
            let rep = analyze_plan(&p, &plan);
            assert_eq!(
                rep.codes(),
                vec![Code::A210PlanMissingCell],
                "{}",
                rep.render()
            );
        }
    }

    #[test]
    fn collision_reports_a212() {
        let p = PagedSchedule::synthetic_canonical(4, 1, false);
        let mut plan = transform_block(&p, 2).unwrap();
        let c2 = plan.cell(0, 2, 0).unwrap();
        *plan.cell_mut(0, 3, 0).unwrap() = c2;
        let rep = analyze_plan(&p, &plan);
        assert!(
            rep.codes().contains(&Code::A212PlanSlotCollision),
            "{}",
            rep.render()
        );
    }
}
