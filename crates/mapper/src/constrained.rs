//! The paging-constrained mapper (§VI-B).
//!
//! Two constraints are layered on the engine:
//!
//! 1. **Data-flow constraint**: dependences may only stay on a page or
//!    advance one page along the ring per cycle ([`MapMode::Constrained`]
//!    routing), so the page-level schedule contains only the canonical
//!    `(n,t−1)` / `(n−1,t−1)` dependences the PageMaster transformation
//!    requires.
//! 2. **Register-usage constraint**: values that cannot be forwarded
//!    cycle-by-cycle are spilled through the global data memory
//!    ([`crate::spill`]). Loop-carried values that do not belong to a
//!    recurrence cycle are pre-spilled (holding them in rotating RFs
//!    across iterations would pin them to a physical page); further
//!    spills are chosen adaptively from routing-failure statistics.

use crate::ems::MapResult;
use crate::engine::{schedule, FailureStats};
use crate::error::MapError;
use crate::mapping::MapMode;
use crate::opts::MapOptions;
use crate::spill::MapDfg;
use cgra_arch::CgraConfig;
use cgra_dfg::analysis::sccs;
use cgra_dfg::graph::Dfg;
use cgra_obs::Tracer;
use std::collections::BTreeSet;

/// Pre-spill heuristic: loop-carried edges that are not part of a
/// recurrence cycle (their endpoints lie in different SCCs). Holding such
/// values in an RF for `distance × II` cycles would either pin pages or
/// need chains of that length; the paper's register-usage constraint
/// sends them through memory.
pub fn pre_spill_set(dfg: &Dfg) -> BTreeSet<usize> {
    let comps = sccs(dfg);
    let mut comp_of = vec![usize::MAX; dfg.num_nodes()];
    for (ci, comp) in comps.iter().enumerate() {
        for n in comp {
            comp_of[n.index()] = ci;
        }
    }
    dfg.edges()
        .enumerate()
        .filter(|(_, e)| e.distance >= 1 && comp_of[e.src.index()] != comp_of[e.dst.index()])
        .map(|(i, _)| i)
        .collect()
}

fn pick_spill_candidates(
    mdfg: &MapDfg,
    stats: &FailureStats,
    spilled: &BTreeSet<usize>,
    count: usize,
) -> Vec<usize> {
    let mut candidates: Vec<(u32, usize)> = stats
        .edge_route_failures
        .iter()
        .enumerate()
        .filter(|&(ei, &fails)| fails > 0 && !mdfg.is_mem_edge(ei))
        .filter_map(|(ei, &fails)| mdfg.origin[ei].map(|orig| (fails, orig)))
        .filter(|(_, orig)| !spilled.contains(orig))
        .collect();
    candidates.sort_by_key(|&(fails, orig)| (std::cmp::Reverse(fails), orig));
    candidates.dedup_by_key(|&mut (_, orig)| orig);
    candidates.into_iter().take(count).map(|(_, o)| o).collect()
}

/// Map a kernel under the paper's paging constraints (stable-column
/// discipline, the default used by the Figure 8/9 experiments).
pub fn map_constrained(
    dfg: &Dfg,
    cgra: &CgraConfig,
    opts: &MapOptions,
) -> Result<MapResult, MapError> {
    map_constrained_traced(dfg, cgra, opts, &Tracer::off())
}

/// [`map_constrained`] with the search's decisions emitted to `tracer`.
pub fn map_constrained_traced(
    dfg: &Dfg,
    cgra: &CgraConfig,
    opts: &MapOptions,
    tracer: &Tracer,
) -> Result<MapResult, MapError> {
    map_with_mode(
        dfg,
        cgra,
        opts,
        MapMode::Constrained,
        BTreeSet::new(),
        tracer,
    )
}

/// Map a kernel under the strict 1-step discipline, producing purely
/// canonical page schedules (the input form of the paper's Algorithm 1).
/// Loop-carried values outside recurrence cycles are pre-spilled.
pub fn map_constrained_strict(
    dfg: &Dfg,
    cgra: &CgraConfig,
    opts: &MapOptions,
) -> Result<MapResult, MapError> {
    map_with_mode(
        dfg,
        cgra,
        opts,
        MapMode::ConstrainedStrict,
        pre_spill_set(dfg),
        &Tracer::off(),
    )
}

fn map_with_mode(
    dfg: &Dfg,
    cgra: &CgraConfig,
    opts: &MapOptions,
    mode: MapMode,
    initial_spills: BTreeSet<usize>,
    tracer: &Tracer,
) -> Result<MapResult, MapError> {
    let mut spilled = initial_spills;
    let mut last_err = None;
    for _round in 0..=opts.spill_rounds {
        let mdfg = MapDfg::with_spills(dfg, &spilled);
        let out = schedule(&mdfg, cgra, mode, opts, tracer);
        match out.mapping {
            Ok(mapping) => {
                return Ok(MapResult {
                    mapping,
                    mdfg,
                    mode,
                })
            }
            Err(e) => {
                let picks = pick_spill_candidates(&mdfg, &out.stats, &spilled, 2);
                if picks.is_empty() {
                    return Err(e);
                }
                spilled.extend(picks);
                last_err = Some(e);
            }
        }
    }
    Err(last_err.unwrap_or(MapError::Unmappable {
        reason: "spill rounds exhausted".into(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::validate_mapping;

    #[test]
    fn pre_spill_catches_fir_delays() {
        let fir = cgra_dfg::kernels::fir();
        let s = pre_spill_set(&fir);
        // fir has three carried delay taps, none in a cycle.
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn pre_spill_keeps_recurrences() {
        let sor = cgra_dfg::kernels::sor();
        let s = pre_spill_set(&sor);
        assert!(s.is_empty(), "sor's carried edge closes a cycle: {s:?}");
    }

    #[test]
    fn accumulator_self_loop_not_spilled() {
        // compress's only carried edge is the acc self-loop: a recurrence,
        // so it stays out of the pre-spill set.
        let c = cgra_dfg::kernels::compress();
        assert!(pre_spill_set(&c).is_empty());
    }

    #[test]
    fn constrained_maps_mpeg2_on_4x4_quadrants() {
        let cgra = CgraConfig::square(4);
        let kernel = cgra_dfg::kernels::mpeg2();
        let r = map_constrained(&kernel, &cgra, &MapOptions::default()).expect("maps");
        let v = validate_mapping(&r.mdfg, &cgra, &r.mapping, MapMode::Constrained);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn constrained_ii_at_least_baseline_mii() {
        let cgra = CgraConfig::square(6);
        let kernel = cgra_dfg::kernels::laplace();
        let base_mii = crate::ems::kernel_mii(&kernel, &cgra);
        let r = map_constrained(&kernel, &cgra, &MapOptions::default()).expect("maps");
        assert!(r.ii() >= base_mii);
    }
}
