//! Golden snapshot of the mapper's decisions: for each fabric, kernel
//! and mode, the achieved II, the spilled edges and an FNV-1a digest of
//! every placement and route, one line each, compared byte-for-byte
//! against `tests/golden/`.
//!
//! The search is deterministic for a fixed `MapOptions`, so any change
//! to what it finds — a different placement, route, spill pick or II —
//! shows up here, while a pure speed-up of the search leaves the files
//! untouched. If a change is intentional, refresh the snapshots with
//! `UPDATE_GOLDEN=1 cargo test --release -p cgra-mapper --test
//! golden_mappings -- --include-ignored`.
//!
//! The default test covers baseline and constrained mode on the 4×4
//! fabric with 4-PE pages. The full paper grid, with strict mode on three
//! fabrics, is `#[ignore]`d: run it in release with `--include-ignored`.
//!
//! At default options no constrained mapping on the grid spills, so a
//! second pair of snapshots (`spills_*.txt`) pins what the mapper does
//! when routing fails: constrained mappings under [`tight`] options,
//! which spill adaptively or give up, and a digest of the per-edge
//! routing-failure counts one `engine::schedule` call reports at default
//! options — the statistics the spill picks are made from.

use cgra_arch::{CgraConfig, PAPER_GRID};
use cgra_dfg::graph::Dfg;
use cgra_dfg::random::{random_dfg, RandomDfgParams};
use cgra_mapper::constrained::pre_spill_set;
use cgra_mapper::engine::schedule;
use cgra_mapper::{map_baseline, map_constrained, map_constrained_strict, MapOptions, MapResult};
use cgra_mapper::{validate_mapping, MapDfg, MapError, MapMode};
use cgra_obs::Tracer;
use std::fmt::Write as _;

#[path = "../../../tests/common/mod.rs"]
mod common;
use common::{check_golden, fnv1a};

/// Fabrics that also run strict mode.
const STRICT_FABRICS: [(u16, usize); 3] = [(4, 4), (6, 9), (8, 8)];

/// Seeds of the random kernels mapped next to the paper kernels.
const RANDOM_SEEDS: std::ops::Range<u64> = 0..8;

type Mapper = fn(&Dfg, &CgraConfig, &MapOptions) -> Result<MapResult, MapError>;

const BASELINE: (&str, Mapper) = ("baseline", map_baseline);
const CONSTRAINED: (&str, Mapper) = ("constrained", map_constrained);
const STRICT: (&str, Mapper) = ("strict", map_constrained_strict);

fn fabric(dim: u16, page_size: usize) -> CgraConfig {
    CgraConfig::square(dim)
        .with_page_size(page_size)
        .expect("grid fabric")
}

/// Options tight enough that constrained mapping spills adaptively on
/// some grid pairs and fails on others.
fn tight() -> MapOptions {
    MapOptions {
        chain_budget: 3,
        restarts: 3,
        max_ii_slack: 2,
        ..Default::default()
    }
}

/// One snapshot line: the mapping's II, spills and digest, or the error.
fn line(
    out: &mut String,
    dim: u16,
    page_size: usize,
    dfg: &Dfg,
    (mode, map): (&str, Mapper),
    opts: &MapOptions,
) {
    let cgra = fabric(dim, page_size);
    let _ = write!(out, "{dim}x{dim}/p{page_size} {} {mode}: ", dfg.name);
    match map(dfg, &cgra, opts) {
        Ok(r) => {
            let violations = validate_mapping(&r.mdfg, &cgra, &r.mapping, r.mode);
            assert!(violations.is_empty(), "{}: {violations:?}", dfg.name);
            let body = format!("{:?}|{:?}", r.mapping.placements, r.mapping.routes);
            let _ = writeln!(
                out,
                "ii={} spills={:?} digest={:016x}",
                r.ii(),
                r.mdfg.spilled,
                fnv1a(body.as_bytes())
            );
        }
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
        }
    }
}

/// The 11 paper kernels followed by the random kernels.
fn kernels() -> Vec<Dfg> {
    let random = RANDOM_SEEDS.map(|seed| {
        random_dfg(
            seed,
            RandomDfgParams {
                recurrences: (seed % 3) as usize,
                ..Default::default()
            },
        )
    });
    cgra_dfg::kernels::all().into_iter().chain(random).collect()
}

/// One line per kernel and mode on one fabric.
fn fabric_lines(out: &mut String, dim: u16, page_size: usize, modes: &[(&str, Mapper)]) {
    for dfg in kernels() {
        for &mode in modes {
            line(out, dim, page_size, &dfg, mode, &MapOptions::default());
        }
    }
}

/// One statistics line: the total and an FNV-1a digest of the per-edge
/// routing-failure counts of the first `engine::schedule` call of `mode`
/// (the unspilled graph, or strict mode's pre-spilled one) at default
/// options.
fn stats_line(out: &mut String, dim: u16, page_size: usize, dfg: &Dfg, mode: MapMode) {
    let cgra = fabric(dim, page_size);
    let mdfg = match mode {
        MapMode::ConstrainedStrict => MapDfg::with_spills(dfg, &pre_spill_set(dfg)),
        _ => MapDfg::unspilled(dfg),
    };
    let stats = schedule(&mdfg, &cgra, mode, &MapOptions::default(), &Tracer::off()).stats;
    let failures = &stats.edge_route_failures;
    let _ = writeln!(
        out,
        "{dim}x{dim}/p{page_size} {} {mode:?} stats: failures={} digest={:016x}",
        dfg.name,
        failures.iter().map(|&f| f as u64).sum::<u64>(),
        fnv1a(format!("{failures:?}").as_bytes())
    );
}

/// Constrained mappings under [`tight`] options, then the failure
/// statistics of each kernel in each of `modes`, on one fabric.
fn spill_lines(out: &mut String, dim: u16, page_size: usize, modes: &[MapMode]) {
    let kernels = kernels();
    for dfg in &kernels {
        line(out, dim, page_size, dfg, CONSTRAINED, &tight());
    }
    for dfg in &kernels {
        for &mode in modes {
            stats_line(out, dim, page_size, dfg, mode);
        }
    }
}

#[test]
fn mappings_4x4_page4() {
    let mut out = String::new();
    fabric_lines(&mut out, 4, 4, &[BASELINE, CONSTRAINED]);
    check_golden("mappings_4x4_p4.txt", &out);
}

#[test]
#[ignore = "full grid and strict mode: slow in debug; run in release with --include-ignored"]
fn mappings_full_grid() {
    let mut out = String::new();
    for (dim, sizes) in PAPER_GRID {
        for &page_size in sizes {
            fabric_lines(&mut out, dim, page_size, &[BASELINE, CONSTRAINED]);
        }
    }
    for (dim, page_size) in STRICT_FABRICS {
        fabric_lines(&mut out, dim, page_size, &[STRICT]);
    }
    check_golden("mappings_grid.txt", &out);
}

#[test]
fn spills_4x4_page4() {
    let mut out = String::new();
    spill_lines(&mut out, 4, 4, &[MapMode::Baseline, MapMode::Constrained]);
    check_golden("spills_4x4_p4.txt", &out);
}

#[test]
#[ignore = "full grid and strict mode: slow in debug; run in release with --include-ignored"]
fn spills_full_grid() {
    let mut out = String::new();
    for (dim, sizes) in PAPER_GRID {
        for &page_size in sizes {
            spill_lines(
                &mut out,
                dim,
                page_size,
                &[MapMode::Baseline, MapMode::Constrained],
            );
        }
    }
    for (dim, page_size) in STRICT_FABRICS {
        for dfg in kernels() {
            stats_line(&mut out, dim, page_size, &dfg, MapMode::ConstrainedStrict);
        }
    }
    check_golden("spills_grid.txt", &out);
}
