//! Recovery legality, re-derived by the independent analyzer.
//!
//! The shrink → repair → re-expand round trip promised by the
//! fail-recover fabric: a real kernel's schedule is degraded around a
//! dead page, the page heals (Dead → Repairing → Healthy), and
//! [`plan_recovery`] upgrades the degraded plan back to the full-ring
//! schedule. The `A31x` analyzer codes audit what the unit tests cannot
//! prove from structure alone — repaired-page reuse legality (A310),
//! the quarantine window (A311), and iteration conservation across the
//! round trip (A312). (An integration test because the analyzer is a
//! dev-dependency cycle: it links this crate's library instance.)
//!
//! The golden snapshots pin, for every kernel and every dead page of a
//! fabric, the degraded plan, the recovery plan after the page heals,
//! and what the analyzer says about each — also with each plan's page
//! run moved one page left and right, so a plan on the wrong pages is
//! pinned too. `recovery_4x4_p4.txt` runs in tier-1; the paper grid is
//! `#[ignore]`d (run it in release with `--include-ignored`;
//! `UPDATE_GOLDEN=1` regenerates both).

use cgra_arch::{CgraConfig, FaultMap, PageHealth, PAPER_GRID};
use cgra_core::transform::Strategy;
use cgra_core::{
    plan_recovery, transform_degraded, DegradedPlan, PagedSchedule, RecoveryPlan, RepairedPage,
};
use cgra_mapper::{map_constrained, MapOptions};
use cgra_obs::Tracer;
use cgra_sim::Compiled;
use std::fmt::Write as _;

#[path = "../../../tests/common/mod.rs"]
mod common;
use common::check_golden;

const QUARANTINE: u64 = 64;
/// Cycle at which a snapshot's dead page finishes its repair.
const REPAIR_AT: u64 = 10_000;

/// Kill `dead_page`, shrink around it, repair it, re-expand, and audit
/// the whole round trip for one kernel. Returns nothing; panics with
/// the analyzer's rendering on any violation.
fn round_trip(kernel: cgra_dfg::Dfg, dead_page: u16, completed: u64) {
    let cgra = CgraConfig::square(4);
    let name = kernel.name.clone();
    let r = map_constrained(&kernel, &cgra, &MapOptions::default())
        .unwrap_or_else(|e| panic!("{name} maps on 4x4: {e:?}"));
    let ps = PagedSchedule::from_mapping(&r, &cgra).expect("paged extraction");
    assert!(
        dead_page < ps.num_pages,
        "{name}: fixture page {dead_page} outside {} pages",
        ps.num_pages
    );

    // Strike: the page dies, the thread shrinks onto the survivors.
    let mut faults = FaultMap::new(ps.num_pages);
    faults.mark_page(dead_page, PageHealth::Dead);
    let d = transform_degraded(&ps, &faults, ps.num_pages, Strategy::Auto)
        .unwrap_or_else(|e| panic!("{name} degrades: {e:?}"));
    assert!(d.plan.m < ps.num_pages, "{name}: must shrink");
    let degrade_report = cgra_analyze::analyze_degraded(&ps, &d, &faults);
    assert!(!degrade_report.has_errors(), "{}", degrade_report.render());

    // Repair: Dead → Repairing → Healthy, quarantine respected.
    faults.begin_repair(dead_page);
    faults.complete_repair(dead_page);
    let repaired = [RepairedPage {
        page: dead_page,
        repaired_at: 10_000,
        activated_at: 10_000 + QUARANTINE,
    }];
    let rec = plan_recovery(
        &ps,
        &d,
        &faults,
        &repaired,
        QUARANTINE,
        completed,
        Strategy::Auto,
    )
    .unwrap_or_else(|e| panic!("{name} recovers: {e:?}"));

    // Back on the original page count, zero iterations lost.
    assert!(
        rec.is_full_ring(&ps),
        "{name}: recovered {} of {} pages",
        rec.plan.m,
        ps.num_pages
    );
    assert_eq!(rec.iterations_lost(), 0, "{name}: iterations lost");
    assert_eq!(rec.resume_iteration, completed);

    // The independent analyzer agrees: A310/A311/A312 all pass.
    let rep = cgra_analyze::analyze_recovery(&ps, &rec, &faults);
    assert!(rep.is_clean(), "{name}:\n{}", rep.render());
}

#[test]
fn fir_round_trips_clean() {
    round_trip(cgra_dfg::kernels::fir(), 0, 137);
}

#[test]
fn sobel_round_trips_clean() {
    round_trip(cgra_dfg::kernels::sobel(), 1, 52);
}

#[test]
fn yuv2rgb_round_trips_clean() {
    round_trip(cgra_dfg::kernels::yuv2rgb(), 2, 9_999);
}

#[test]
fn mid_repair_reexpansion_is_flagged_a310() {
    // Cutting the recovery over while the page is still Repairing (the
    // quarantine has not elapsed) must be caught by the analyzer.
    let cgra = CgraConfig::square(4);
    let r = map_constrained(&cgra_dfg::kernels::fir(), &cgra, &MapOptions::default())
        .expect("fir maps on 4x4");
    let ps = PagedSchedule::from_mapping(&r, &cgra).expect("paged extraction");
    let mut faults = FaultMap::new(ps.num_pages);
    faults.mark_page(0, PageHealth::Dead);
    let d = transform_degraded(&ps, &faults, ps.num_pages, Strategy::Auto).unwrap();
    // Heal fully to *build* the plan, then regress the map to Repairing
    // to model a premature cutover.
    let mut healed = faults.clone();
    healed.begin_repair(0);
    healed.complete_repair(0);
    let rec = plan_recovery(&ps, &d, &healed, &[], QUARANTINE, 5, Strategy::Auto).unwrap();
    let mut mid_repair = FaultMap::new(ps.num_pages);
    mid_repair.mark_page(0, PageHealth::Dead);
    mid_repair.begin_repair(0);
    let rep = cgra_analyze::analyze_recovery(&ps, &rec, &mid_repair);
    assert!(
        rep.codes()
            .contains(&cgra_analyze::Code::A310RecoveryOnUnrepairedPage),
        "{}",
        rep.render()
    );
}

/// `page` moved `delta` pages, or `None` below page 0.
fn shift(page: u16, delta: i32) -> Option<u16> {
    u16::try_from(i32::from(page) + delta).ok()
}

/// An analyzer report folded onto one line.
fn folded(report: &cgra_analyze::Report) -> String {
    report.render().trim_end().replace('\n', " | ")
}

/// The snapshot lines of one kernel schedule with page `dead` killed:
/// the degraded plan, the recovery plan once the page heals, and the
/// analyzer's report on each at its own run and at the runs one page
/// left and right.
fn case_lines(out: &mut String, label: &str, ps: &PagedSchedule, dead: u16) {
    let mut faults = FaultMap::new(ps.num_pages);
    faults.mark_page(dead, PageHealth::Dead);
    let d = match transform_degraded(ps, &faults, ps.num_pages, Strategy::Auto) {
        Ok(d) => d,
        Err(e) => {
            let _ = writeln!(out, "{label} degraded: error {e}");
            return;
        }
    };
    let _ = writeln!(
        out,
        "{label} degraded: run={:?} m={} ii_q={}/{} strategy={:?}",
        d.column_pages(),
        d.plan.m,
        d.plan.span,
        d.plan.period,
        d.plan.strategy
    );
    for delta in [-1, 0, 1] {
        let report = shift(d.first_page, delta).map_or("-".into(), |first_page| {
            let moved = DegradedPlan {
                first_page,
                ..d.clone()
            };
            folded(&cgra_analyze::analyze_degraded(ps, &moved, &faults))
        });
        let _ = writeln!(out, "{label} degraded shift{delta:+}: {report}");
    }

    faults.begin_repair(dead);
    faults.complete_repair(dead);
    let repaired = [RepairedPage {
        page: dead,
        repaired_at: REPAIR_AT,
        activated_at: REPAIR_AT + QUARANTINE,
    }];
    let completed = 100 + u64::from(dead);
    let r = match plan_recovery(
        ps,
        &d,
        &faults,
        &repaired,
        QUARANTINE,
        completed,
        Strategy::Auto,
    ) {
        Ok(r) => r,
        Err(e) => {
            let _ = writeln!(out, "{label} recovery: error {e}");
            return;
        }
    };
    let _ = writeln!(
        out,
        "{label} recovery: run={:?} m={} ii_q={}/{} resume={}",
        r.column_pages(),
        r.plan.m,
        r.plan.span,
        r.plan.period,
        r.resume_iteration
    );
    for delta in [-1, 0, 1] {
        let report = shift(r.first_page, delta).map_or("-".into(), |first_page| {
            let moved = RecoveryPlan {
                first_page,
                ..r.clone()
            };
            folded(&cgra_analyze::analyze_recovery(ps, &moved, &faults))
        });
        let _ = writeln!(out, "{label} recovery shift{delta:+}: {report}");
    }
}

/// Every kernel on the `dim × dim` fabric with `page_size`-PE pages,
/// each page of its compiled schedule killed in turn.
fn fabric_lines(out: &mut String, dim: u16, page_size: usize) {
    let cgra = cgra_arch::fabric(dim, page_size).expect("grid fabric");
    for k in cgra_dfg::kernels::all() {
        let c = Compiled::new(&k, &cgra, &MapOptions::default(), &Tracer::off())
            .unwrap_or_else(|e| panic!("{} compiles on {dim}x{dim}/p{page_size}: {e}", k.name));
        for dead in 0..c.paged.num_pages {
            let label = format!("{dim}x{dim}/p{page_size} {} dead{dead}", k.name);
            case_lines(out, &label, &c.paged, dead);
        }
    }
}

#[test]
fn recovery_4x4_page4() {
    let mut out = String::new();
    fabric_lines(&mut out, 4, 4);
    check_golden("recovery_4x4_p4.txt", &out);
}

#[test]
#[ignore = "full paper grid: slow in debug; run in release with --include-ignored"]
fn recovery_full_grid() {
    let mut out = String::new();
    for &(dim, sizes) in &PAPER_GRID {
        for &s in sizes {
            fabric_lines(&mut out, dim, s);
        }
    }
    check_golden("recovery_grid.txt", &out);
}
