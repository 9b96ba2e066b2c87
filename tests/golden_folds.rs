//! Golden snapshot of the Fig. 6 shrink to one page: for each fabric and
//! kernel, the folded initiation interval `II_q`, the peak rotating
//! register need and an FNV-1a digest of every folded op and hop as a
//! page-local `(row, col, time)`, one line each, compared byte-for-byte
//! against `tests/golden/`.
//!
//! Every fold is mapped at 64 rotating registers per PE. Each one must
//! also validate and, run for 12 iterations on the cycle-level machine,
//! store exactly what the DFG interpreter stores. If a change is
//! intentional, refresh the snapshots with `UPDATE_GOLDEN=1 cargo test
//! --release --test golden_folds -- --include-ignored`.
//!
//! The default test folds every kernel on the 4×4 fabric with 4-PE
//! pages. The full paper grid is `#[ignore]`d: run it in release with
//! `--include-ignored`.

use cgra_mt::arch::PAPER_GRID;
use cgra_mt::prelude::*;
use std::fmt::Write as _;

mod common;
use common::{check_golden, fnv1a};

/// Rotating registers per PE: enough for every fold of the grid.
const RF: u16 = 64;

/// Iterations each fold executes against the interpreter.
const ITERS: usize = 12;

/// One snapshot line: the fold's `II_q`, peak RF need and digest, or the
/// mapping error.
fn line(out: &mut String, dim: u16, page_size: usize, kernel: &Dfg) {
    let cgra = cgra_mt::arch::fabric(dim, page_size)
        .expect("grid fabric")
        .with_rf_size(RF);
    let _ = write!(out, "{dim}x{dim}/p{page_size} {}: ", kernel.name);
    let mapped = match map_constrained(kernel, &cgra, &MapOptions::default()) {
        Ok(r) => r,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            return;
        }
    };
    let name = &kernel.name;
    let folded = fold_to_page(&mapped, &cgra).expect("constrained mappings fold");
    let page = cgra.page_fabric();
    let check =
        |page: &CgraConfig| validate_mapping(&folded.mdfg, page, &folded.mapping, folded.mode);
    let violations = check(&page);
    assert!(violations.is_empty(), "{name}: {violations:?}");
    // The smallest rotating file the fold fits.
    let peak = (0..=RF)
        .find(|&rf| check(&page.clone().with_rf_size(rf)).is_empty())
        .expect("the fold validates at RF");

    // A folded step as a page-local `(row, col, time)`.
    let to_local = |pe: PeId, time: u32| {
        let p = page.mesh().pos(pe);
        (p.r, p.c, u64::from(time))
    };
    let mapping = &folded.mapping;
    let ops: Vec<_> = mapping
        .placements
        .iter()
        .map(|o| to_local(o.pe, o.time))
        .collect();
    let routes: Vec<Vec<_>> = mapping
        .routes
        .iter()
        .map(|hops| hops.iter().map(|h| to_local(h.pe, h.time)).collect())
        .collect();
    let body = format!("{ops:?}|{routes:?}");
    let _ = writeln!(
        out,
        "ii_q={} peak_rf={peak} digest={:016x}",
        mapping.ii,
        fnv1a(body.as_bytes())
    );

    let inputs = InputStreams::random(kernel, ITERS, 0xF01D);
    let golden = interpret(kernel, &inputs, ITERS).expect("interprets");
    let stores = execute(&folded, &page, &inputs, ITERS)
        .unwrap_or_else(|e| panic!("{dim}x{dim}/p{page_size} {name}: {e}"));
    for (store, values) in &golden {
        assert_eq!(
            stores.get(store),
            Some(values),
            "{dim}x{dim}/p{page_size} {name}: store n{store} diverged"
        );
    }
}

/// One line per kernel on one fabric.
fn fabric_lines(out: &mut String, dim: u16, page_size: usize) {
    for kernel in cgra_mt::dfg::kernels::all() {
        line(out, dim, page_size, &kernel);
    }
}

#[test]
fn folds_4x4_page4() {
    let mut out = String::new();
    fabric_lines(&mut out, 4, 4);
    check_golden("folds_4x4_p4.txt", &out);
}

#[test]
#[ignore = "full paper grid: slow in debug; run in release with --include-ignored"]
fn folds_full_grid() {
    let mut out = String::new();
    for (dim, sizes) in PAPER_GRID {
        for &page_size in sizes {
            fabric_lines(&mut out, dim, page_size);
        }
    }
    check_golden("folds_grid.txt", &out);
}
