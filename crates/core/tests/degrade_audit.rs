//! Degradation legality, re-derived by the independent analyzer.
//!
//! `transform_degraded`'s structural properties are unit-tested next to
//! the code; *legality* — no op on a dead or missing page, inner plan
//! soundness — is audited here by
//! `cgra-analyze`, which shares none of the transform's logic. (An
//! integration test because the analyzer is a dev-dependency cycle: it
//! links this crate's library instance, not the unit-test build.)

use cgra_arch::{FaultMap, PageHealth};
use cgra_core::transform::Strategy;
use cgra_core::{transform_degraded, DegradedPlan, PagedSchedule};

fn assert_clean(p: &PagedSchedule, d: &DegradedPlan, faults: &FaultMap) {
    let rep = cgra_analyze::analyze_degraded(p, d, faults);
    assert!(!rep.has_errors(), "{}", rep.render());
}

#[test]
fn zero_fault_shrink_analyzes_clean() {
    let p = PagedSchedule::synthetic_canonical(8, 2, false);
    let faults = FaultMap::new(8);
    let d = transform_degraded(&p, &faults, 8, Strategy::Auto).unwrap();
    assert_clean(&p, &d, &faults);
}

#[test]
fn dead_middle_page_route_around_analyzes_clean() {
    let p = PagedSchedule::synthetic_canonical(8, 2, false);
    let mut faults = FaultMap::new(8);
    faults.mark_page(2, PageHealth::Dead);
    let d = transform_degraded(&p, &faults, 4, Strategy::Auto).unwrap();
    assert_clean(&p, &d, &faults);
}

#[test]
fn degraded_page_analyzes_with_warning_not_error() {
    let p = PagedSchedule::synthetic_canonical(4, 1, false);
    let mut faults = FaultMap::new(4);
    faults.mark_page(1, PageHealth::Degraded);
    let d = transform_degraded(&p, &faults, 4, Strategy::Auto).unwrap();
    let rep = cgra_analyze::analyze_degraded(&p, &d, &faults);
    assert!(!rep.has_errors(), "{}", rep.render());
    // Running on a degraded page is legal but flagged.
    assert!(
        rep.codes()
            .contains(&cgra_analyze::Code::A306ColumnOnDegradedPage),
        "{}",
        rep.render()
    );
}

#[test]
fn real_kernel_one_dead_page_analyzes_clean() {
    let cgra = cgra_arch::CgraConfig::square(4);
    let k = cgra_dfg::kernels::fir();
    let r = cgra_mapper::map_constrained(&k, &cgra, &cgra_mapper::MapOptions::default())
        .expect("fir maps on 4x4");
    let ps = PagedSchedule::from_mapping(&r, &cgra).expect("paged extraction");
    let mut faults = FaultMap::new(ps.num_pages);
    faults.mark_page(0, PageHealth::Dead);
    let d = transform_degraded(&ps, &faults, ps.num_pages, Strategy::Auto).unwrap();
    assert_clean(&ps, &d, &faults);
}

#[test]
fn hand_broken_degraded_plan_is_rejected() {
    // Start the run on the dead page: the analyzer must refuse what the
    // transform would never produce.
    let p = PagedSchedule::synthetic_canonical(8, 2, false);
    let mut faults = FaultMap::new(8);
    faults.mark_page(2, PageHealth::Dead);
    let mut d = transform_degraded(&p, &faults, 4, Strategy::Auto).unwrap();
    d.first_page = 2;
    let rep = cgra_analyze::analyze_degraded(&p, &d, &faults);
    assert!(rep.has_errors());
    assert!(rep.codes().contains(&cgra_analyze::Code::A301OpOnDeadPage));
}
