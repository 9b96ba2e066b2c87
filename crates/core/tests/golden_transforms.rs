//! Golden snapshot of the transform path on many rings: for each
//! `(N, II_p, open/wrap, M)` case, what the drifting Algorithm 1 and the
//! block rounds return, and what `validate_plan` reports on each plan and
//! on seeded corruptions of it. One line per case, compared byte-for-byte
//! against `tests/golden/`.
//!
//! Both transforms and the validator are deterministic, so any change to
//! a placement, a period, an error or a violation list shows up here,
//! while a pure speed-up leaves the files untouched. If a change is
//! intentional, refresh the snapshots with `UPDATE_GOLDEN=1 cargo test
//! --release -p cgra-core --test golden_transforms -- --include-ignored`.
//!
//! The default test covers the synthetic canonical rings with N 2–12,
//! II_p 1–2 and every M. The `#[ignore]`d grid adds N up to 33 and II_p
//! up to 4 at M ∈ {N−1, N−2, N/2, N/4, 3}, and the strict-mapped
//! (canonical) paper kernels at every M: run it in release with
//! `--include-ignored`. Two more `#[ignore]`d tests write no snapshot:
//! `auto_full_grid` checks `Strategy::Auto` against the full drift and
//! Block on every ring (open ones up to N = 64) and strict kernel at
//! every M, and
//! `grid_plans_never_drift` checks that no shrink plan of the compiled
//! paper grid comes from Algorithm 1.
//!
//! The corruptions break a plan the way the plan operators of
//! `cgra-analyze`'s `mutate` module do (drop a cell, move a column out of
//! range, collide two cells, run a consumer at its producer's cycle,
//! teleport a page, crush the span), plus a one-cycle nudge and a
//! period-2 unrolling that swaps two pages' columns. Each draws its site
//! from a `splitmix64` stream seeded per case.

use cgra_arch::fault::splitmix64;
use cgra_arch::{CgraConfig, PAPER_GRID};
use cgra_core::transform::{transform, Strategy};
use cgra_core::{validate_plan, PagedSchedule, ShrinkPlan, TransformError};
use cgra_mapper::{map_constrained_strict, MapOptions};
use cgra_obs::Tracer;
use cgra_sim::Compiled;
use std::fmt::Write as _;

#[path = "../../../tests/common/mod.rs"]
mod common;
use common::{check_golden, fnv1a};

#[path = "../../../tests/common/auto.rs"]
mod auto;

/// Fabrics whose strict mappings feed the grid (as in the mapper's
/// golden snapshot).
const STRICT_FABRICS: [(u16, usize); 3] = [(4, 4), (6, 9), (8, 8)];

/// A seeded index below `len` (`len > 0`).
fn pick(state: &mut u64, len: usize) -> usize {
    usize::try_from(splitmix64(state) % len as u64).unwrap()
}

/// The seeded corruptions of `plan`, each with its operator name.
fn corruptions(
    p: &PagedSchedule,
    plan: &ShrinkPlan,
    s: &mut u64,
) -> Vec<(&'static str, ShrinkPlan)> {
    let ii = p.ii;
    let row_len = plan.placements[0].len();
    let rows = plan.placements.len();
    let mut out = Vec::new();

    let mut m = plan.clone();
    m.placements[pick(s, rows)].pop();
    out.push(("remove-cell", m));

    let mut m = plan.clone();
    let (r, k) = (pick(s, rows), pick(s, row_len));
    m.placements[r][k].col = plan.m + 3;
    out.push(("column-out-of-range", m));

    if row_len > 1 {
        let mut m = plan.clone();
        let r = pick(s, rows);
        let (a, b) = (pick(s, row_len), pick(s, row_len - 1));
        let b = if b >= a { b + 1 } else { b };
        m.placements[r][b] = m.placements[r][a];
        out.push(("collide-cells", m));
    }

    // A dependence within one source iteration: the consumer takes the
    // producer's own placement.
    let same_iter: Vec<_> = p
        .deps
        .iter()
        .filter(|d| d.from_time / ii == d.to_time / ii)
        .collect();
    if !same_iter.is_empty() {
        let d = same_iter[pick(s, same_iter.len())];
        let mut m = plan.clone();
        let r = pick(s, rows);
        let c = m.cell(r, d.from_page, d.from_time % ii).unwrap();
        *m.cell_mut(r, d.to_page, d.to_time % ii).unwrap() = c;
        out.push(("equalize-dep-times", m));
    }

    let mut m = plan.clone();
    let (r, page) = (pick(s, rows), pick(s, p.num_pages as usize) as u16);
    for slot in 0..ii {
        let c = m.cell_mut(r, page, slot).unwrap();
        c.col = plan.m - 1 - c.col;
    }
    out.push(("teleport-page", m));

    let mut m = plan.clone();
    m.span = 1;
    out.push(("crush-span", m));

    let mut m = plan.clone();
    let (r, k) = (pick(s, rows), pick(s, row_len));
    m.placements[r][k].time += 1;
    out.push(("nudge-time", m));

    // Unroll to twice the period, then swap two pages' columns in the
    // second half: instance times stay exact, columns do not.
    if p.num_pages < 2 {
        return out;
    }
    let mut m = plan.clone();
    for row in &plan.placements {
        let mut row = row.clone();
        for c in &mut row {
            c.time += plan.span;
        }
        m.placements.push(row);
    }
    m.period *= 2;
    m.span *= 2;
    let n = p.num_pages as usize;
    let (a, b) = (pick(s, n), pick(s, n - 1));
    let (a, b) = (a as u16, if b >= a { b + 1 } else { b } as u16);
    let r = rows + pick(s, rows);
    for slot in 0..ii {
        let ca = m.cell(r, a, slot).unwrap().col;
        let cb = m.cell(r, b, slot).unwrap().col;
        m.cell_mut(r, a, slot).unwrap().col = cb;
        m.cell_mut(r, b, slot).unwrap().col = ca;
    }
    out.push(("unroll-swap", m));
    out
}

/// One part of a line: the plan's strategy, period, span and placement
/// digest, the violation count of the plan itself and of each corruption,
/// and a digest of every violation list; or the error.
fn part(
    out: &mut String,
    p: &PagedSchedule,
    result: Result<ShrinkPlan, TransformError>,
    s: &mut u64,
) {
    let plan = match result {
        Ok(plan) => plan,
        Err(e) => {
            let _ = write!(out, "error: {e:?}");
            return;
        }
    };
    let own = validate_plan(p, &plan);
    let mut counts = Vec::new();
    let mut checks = format!("{own:?}");
    for (name, mutant) in corruptions(p, &plan, s) {
        let v = validate_plan(p, &mutant);
        counts.push(v.len());
        let _ = write!(checks, "|{name}:{v:?}");
    }
    let _ = write!(
        out,
        "{:?} period={} span={} place={:016x} violations={} corrupt={counts:?} check={:016x}",
        plan.strategy,
        plan.period,
        plan.span,
        fnv1a(format!("{:?}", plan.placements).as_bytes()),
        own.len(),
        fnv1a(checks.as_bytes()),
    );
}

/// One snapshot line: Algorithm 1, then the block rounds, on `p` at `m`.
fn line(out: &mut String, label: &str, p: &PagedSchedule, m: u16) {
    let mut state = fnv1a(format!("{label} M={m}").as_bytes());
    let _ = write!(out, "{label} M={m}: pagemaster ");
    part(out, p, transform(p, m, Strategy::PageMaster), &mut state);
    let _ = write!(out, " | block ");
    part(out, p, transform(p, m, Strategy::Block), &mut state);
    out.push('\n');
}

/// One line per M in `ms` on the synthetic ring `(n, ii, wrap)`.
fn ring_lines(out: &mut String, n: u16, ii: u32, wrap: bool, ms: &[u16]) {
    let p = PagedSchedule::synthetic_canonical(n, ii, wrap);
    let label = format!("N={n} ii={ii} {}", if wrap { "wrap" } else { "open" });
    for &m in ms {
        line(out, &label, &p, m);
    }
}

#[test]
fn transforms_small() {
    let mut out = String::new();
    for n in 2u16..=12 {
        let ms: Vec<u16> = (1..=n).collect();
        for ii in 1u32..=2 {
            for wrap in [false, true] {
                ring_lines(&mut out, n, ii, wrap, &ms);
            }
        }
    }
    check_golden("transforms_small.txt", &out);
}

/// The strict-mapped paper kernels' page schedules, each with its
/// label, or the label and the mapping error.
fn strict_kernels() -> Vec<(String, Result<PagedSchedule, String>)> {
    let mut out = Vec::new();
    for (dim, page_size) in STRICT_FABRICS {
        let cgra = CgraConfig::square(dim)
            .with_page_size(page_size)
            .expect("grid fabric");
        for dfg in cgra_dfg::kernels::all() {
            let label = format!("{dim}x{dim}/p{page_size} {} strict", dfg.name);
            let p = map_constrained_strict(&dfg, &cgra, &MapOptions::default())
                .map(|r| {
                    PagedSchedule::from_mapping(&r, &cgra)
                        .expect("extracts")
                        .trimmed()
                })
                .map_err(|e| e.to_string());
            out.push((label, p));
        }
    }
    out
}

#[test]
#[ignore = "N up to 33 and the strict paper kernels: slow in debug; run in release with --include-ignored"]
fn transforms_grid() {
    let mut out = String::new();
    for n in 2u16..=33 {
        let mut ms: Vec<u16> = [n - 1, n.saturating_sub(2), n / 2, n / 4, 3]
            .into_iter()
            .filter(|&m| (1..=n).contains(&m))
            .collect();
        ms.sort_unstable();
        ms.dedup();
        for ii in 1u32..=4 {
            for wrap in [false, true] {
                ring_lines(&mut out, n, ii, wrap, &ms);
            }
        }
    }
    for (label, p) in strict_kernels() {
        match p {
            Ok(p) => (1..=p.num_pages).for_each(|m| line(&mut out, &label, &p, m)),
            Err(e) => {
                let _ = writeln!(out, "{label}: error: {e}");
            }
        }
    }
    check_golden("transforms_grid.txt", &out);
}

/// `Strategy::Auto`, which on an open ring runs the drift only at M = 2
/// and there stops it after `4·N` iterations, on every synthetic ring
/// with II_p 1–4 (open rings with N 2–64, wrap rings with N 2–33) and on
/// every strict paper kernel, at every M from 0 to N + 1: each case
/// satisfies [`auto::check_auto`], which compares `Auto` with the full
/// 512-iteration drift, and the drift beats Block on an open ring only at
/// M = 2. It does so in 122 cases: 120 open synthetic rings with N odd
/// (60 with N ≤ 33, 60 with N 35–63) and the 8×8/p8 `swim` and `sobel`
/// kernels.
#[test]
#[ignore = "thousands of full drifts: run in release with --include-ignored"]
fn auto_full_grid() {
    let rings = (2u16..=64).flat_map(|n| {
        (1u32..=4).flat_map(move |ii| {
            [false, true]
                .into_iter()
                .filter(move |&wrap| !wrap || n <= 33)
                .map(move |wrap| {
                    let label = format!("N={n} ii={ii} {}", if wrap { "wrap" } else { "open" });
                    (label, Ok(PagedSchedule::synthetic_canonical(n, ii, wrap)))
                })
        })
    });
    let mut wins = Vec::new();
    for (label, p) in rings.chain(strict_kernels()) {
        let Ok(p) = p else { continue };
        for m in 0..=p.num_pages + 1 {
            let case = format!("{label} M={m}");
            if auto::check_auto(&p, m, &case) {
                wins.push(case);
            }
        }
    }
    let off = wins
        .iter()
        .filter(|c| !c.ends_with(" M=2"))
        .collect::<Vec<_>>();
    assert!(off.is_empty(), "the drift beats Block at M > 2: {off:?}");
    assert_eq!(wins.len(), 122, "the drift's wins moved: {wins:?}");
}

/// No shrink plan the compile stage makes for the 99 kernel × fabric
/// pairs of the paper grid comes from Algorithm 1: every constrained
/// mapping is Stable, so `Auto` takes Block, and a change to the drift
/// cannot move fig8 or fig9.
#[test]
#[ignore = "compiles the whole paper grid: run in release with --include-ignored"]
fn grid_plans_never_drift() {
    let (mut pairs, mut plans) = (0, 0);
    for &(dim, sizes) in &PAPER_GRID {
        for &page_size in sizes {
            let cgra = cgra_arch::fabric(dim, page_size).expect("grid fabric");
            for k in cgra_dfg::kernels::all() {
                let label = format!("{dim}x{dim}/p{page_size} {}", k.name);
                let c = Compiled::new(&k, &cgra, &MapOptions::default(), &Tracer::off())
                    .unwrap_or_else(|e| panic!("{label} compiles: {e}"));
                for plan in &c.plans {
                    assert_ne!(plan.strategy, Strategy::PageMaster, "{label} M={}", plan.m);
                }
                pairs += 1;
                plans += c.plans.len();
            }
        }
    }
    assert_eq!(pairs, 99);
    assert!(plans > 0, "no grid pair needed a shrink plan");
}
