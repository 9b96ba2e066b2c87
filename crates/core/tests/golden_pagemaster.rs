//! Golden-file snapshots of the PageMaster transform for one small
//! kernel: the paged schedule before (as extracted from the constrained
//! mapping) and the shrink plan after, rendered to a canonical text form
//! and compared byte-for-byte against committed snapshots in
//! `tests/golden/`.
//!
//! These catch *silent* behaviour changes the invariant-based validators
//! cannot: a plan can stay valid while placing cells differently. If a
//! change here is intentional, refresh the snapshots with
//! `UPDATE_GOLDEN=1 cargo test -p cgra-core --test golden_pagemaster`.
//!
//! Every snapshot is cross-checked with `validate_plan` before
//! comparison, so a stale-but-valid golden file can never mask an invalid
//! transform.

use cgra_arch::{FaultMap, PageHealth};
use cgra_core::degrade::{transform_degraded, DegradedPlan};
use cgra_core::transform::{transform, Strategy};
use cgra_core::{validate_plan, PagedSchedule, ShrinkPlan};
use cgra_mapper::{map_constrained, MapOptions};
use std::fmt::Write as _;

#[path = "../../../tests/common/mod.rs"]
mod common;
use common::check_golden;

const KERNEL: &str = "fir";

fn paged_fixture() -> PagedSchedule {
    let dfg = cgra_dfg::kernels::by_name(KERNEL).expect("kernel exists");
    let cgra = cgra_arch::CgraConfig::square(4);
    let mapped = map_constrained(&dfg, &cgra, &MapOptions::default()).expect("maps");
    PagedSchedule::from_mapping(&mapped, &cgra)
        .expect("extracts")
        .trimmed()
}

/// Canonical text rendering of a paged schedule (sorted, no HashMap
/// iteration order anywhere).
fn render_schedule(p: &PagedSchedule) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "kernel: {}", p.name);
    let _ = writeln!(out, "pages: {}", p.num_pages);
    let _ = writeln!(out, "ii: {}", p.ii);
    let _ = writeln!(out, "discipline: {:?}", p.discipline);
    for page in 0..p.num_pages {
        for slot in 0..p.ii {
            let cell = &p.cells[(page as u32 * p.ii + slot) as usize];
            let mut ops = cell.compute.clone();
            ops.sort_unstable();
            let _ = writeln!(
                out,
                "cell p{page} s{slot}: compute={ops:?} routes={}",
                cell.routes
            );
        }
    }
    let mut deps: Vec<_> = p
        .deps
        .iter()
        .map(|d| (d.from_page, d.from_time, d.to_page, d.to_time))
        .collect();
    deps.sort_unstable();
    for (fp, ft, tp, tt) in deps {
        let _ = writeln!(out, "dep: p{fp}@{ft} -> p{tp}@{tt}");
    }
    out
}

/// Canonical text rendering of a shrink plan.
fn render_plan(plan: &ShrinkPlan) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "m: {}", plan.m);
    let _ = writeln!(out, "period: {}", plan.period);
    let _ = writeln!(out, "span: {}", plan.span);
    let _ = writeln!(out, "ii_q_ceil: {}", plan.ii_q_ceil());
    let _ = writeln!(out, "strategy: {:?}", plan.strategy);
    // Rows are dense and page-major, so cells come out in (page, slot)
    // order.
    for (iter, row) in plan.placements.iter().enumerate() {
        for (k, c) in row.iter().enumerate() {
            let (page, slot) = (k / plan.ii_p as usize, k % plan.ii_p as usize);
            let _ = writeln!(
                out,
                "iter {iter}: p{page} s{slot} -> col {} t{}",
                c.col, c.time
            );
        }
    }
    out
}

/// Canonical text rendering of a degraded plan: the page count, the
/// pages of its run and the fault map it was built on, then the inner
/// plan.
fn render_degraded(d: &DegradedPlan, faults: &FaultMap) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "effective_pages: {}", d.plan.m);
    let _ = writeln!(
        out,
        "column_pages: {:?}",
        d.column_pages().collect::<Vec<_>>()
    );
    let _ = writeln!(out, "dead_pages: {:?}", faults.dead_pages());
    let _ = writeln!(out, "degraded_pages: {:?}", faults.degraded_pages());
    out.push_str(&render_plan(&d.plan));
    out
}

#[test]
fn schedule_before_matches_golden() {
    let paged = paged_fixture();
    check_golden(&format!("{KERNEL}_before.txt"), &render_schedule(&paged));
}

#[test]
fn shrink_plans_match_golden_and_validate() {
    let paged = paged_fixture();
    for m in 1..=paged.num_pages {
        let plan = transform(&paged, m, Strategy::Auto).expect("transforms");
        // The validator is the ground truth; the snapshot only pins the
        // exact placement choice among the valid ones.
        let violations = validate_plan(&paged, &plan);
        assert!(violations.is_empty(), "M={m}: {violations:?}");
        check_golden(&format!("{KERNEL}_after_m{m}.txt"), &render_plan(&plan));
    }
}

#[test]
fn degraded_plan_matches_golden_and_validates() {
    let paged = paged_fixture();
    // Kill the first page of the region: the surviving run is pages
    // 1..N, so the plan shrinks by exactly one column.
    let mut faults = FaultMap::new(paged.num_pages);
    faults.mark_page(0, PageHealth::Dead);
    let degraded = transform_degraded(&paged, &faults, paged.num_pages, Strategy::Auto)
        .expect("survives one dead page");
    assert_eq!(degraded.plan.m, paged.num_pages - 1);
    let report = cgra_analyze::analyze_degraded(&paged, &degraded, &faults);
    assert!(!report.has_errors(), "{}", report.render());
    check_golden(
        &format!("{KERNEL}_degraded_dead0.txt"),
        &render_degraded(&degraded, &faults),
    );
}

/// Algorithm 1 itself: the drifting plans for synthetic canonical rings
/// (real kernels are Stable and always take the block path, so the `fir`
/// snapshots above never reach this code).
#[test]
fn drifting_plans_match_golden_and_validate() {
    for (n, ii, wrap, m) in [
        (6u16, 1u32, true, 5u16), // the paper's Fig. 7 case
        (9, 1, false, 4),
        (8, 2, true, 4),
        (32, 1, false, 4),
    ] {
        let p = PagedSchedule::synthetic_canonical(n, ii, wrap);
        let plan = transform(&p, m, Strategy::PageMaster).expect("finds a steady state");
        let violations = validate_plan(&p, &plan);
        assert!(violations.is_empty(), "{}: {violations:?}", p.name);
        check_golden(
            &format!("drifting_{}_m{m}.txt", p.name),
            &render_plan(&plan),
        );
    }
}

/// A drifting plan remapped around a dead page. Algorithm 1's 8 → 7
/// plan (`II_q` 2.5) loses to Block's (2), so `Auto` takes Block there
/// and the drift is asked for by name.
#[test]
fn drifting_degraded_plan_matches_golden() {
    let p = PagedSchedule::synthetic_canonical(8, 1, false);
    let mut faults = FaultMap::new(p.num_pages);
    faults.mark_page(0, PageHealth::Dead);
    let auto = transform_degraded(&p, &faults, p.num_pages, Strategy::Auto).expect("survives");
    assert_eq!(auto.plan.strategy, Strategy::Block);
    assert_eq!((auto.plan.period, auto.plan.span), (1, 2));
    let degraded =
        transform_degraded(&p, &faults, p.num_pages, Strategy::PageMaster).expect("survives");
    assert_eq!(degraded.plan.strategy, Strategy::PageMaster);
    let report = cgra_analyze::analyze_degraded(&p, &degraded, &faults);
    assert!(!report.has_errors(), "{}", report.render());
    check_golden(
        &format!("drifting_{}_degraded_dead0.txt", p.name),
        &render_degraded(&degraded, &faults),
    );
}
