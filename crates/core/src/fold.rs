//! PE-level shrink to a single page — the paper's Fig. 6, including
//! intra-page mirroring.
//!
//! Shrinking to one page executes the pages sequentially in dependence
//! order. The intra-page mapping of each relocated page must be
//! *mirrored* "across the among-page dependency direction" so that
//! producer/consumer PEs still line up: composing one mirror per
//! serpentine step folds every cross-page producer/consumer pair onto the
//! *same* physical PE, where the value passes through the register file.
//!
//! [`fold_to_page`] returns the folded schedule as an ordinary mapping
//! on [`CgraConfig::page_fabric`]. The mapper's `validate_mapping`
//! re-checks every dataflow step (adjacency, ordering) and the
//! rotating-register pressure on it (§VI-E claims N registers per PE
//! suffice); the analyzer and the machine take it like any other mapping.

use crate::transform::TransformError;
use cgra_arch::mirror::Orientation;
use cgra_arch::page::PageId;
use cgra_arch::topology::PeId;
use cgra_arch::CgraConfig;
use cgra_mapper::{MapMode, MapResult, Mapping, Placement, RouteHop};

/// The Fig. 6 mirror rule: walk the serpentine page order; each step to
/// the next page composes a mirror across the axis perpendicular to the
/// step direction (east/west step → left-right mirror; north/south step →
/// top-bottom mirror).
pub fn orientation_plan(cgra: &CgraConfig) -> Vec<Orientation> {
    let layout = cgra.layout();
    let n = layout.num_pages();
    let mut plan = Vec::with_capacity(n);
    let mut o = Orientation::Identity;
    plan.push(o);
    for i in 1..n {
        let a = layout.origin(PageId(i as u16 - 1));
        let b = layout.origin(PageId(i as u16));
        let step = if a.r == b.r {
            Orientation::MirrorV // horizontal move: mirror left-right
        } else {
            Orientation::MirrorH // vertical move: mirror top-bottom
        };
        o = o.then(step);
        plan.push(o);
    }
    plan
}

/// Fold a constrained mapping onto one page: the result is a mapping of
/// `result.mdfg` on [`CgraConfig::page_fabric`], at `II_q = N·II_p`.
///
/// Cell `(n, t)` of the page schedule executes at folded time `t·N + n`
/// within each `II_q` window, so an op at absolute source time `s` on
/// page `n` lands at `N·s + n`, on the PE its intra-page position maps
/// to under page `n`'s [`orientation_plan`] mirror. One page has no
/// ring, so the fold is a [`MapMode::Baseline`] mapping: the mapper's
/// validator checks it, register pressure included, and the machine
/// runs it like any other.
///
/// # Errors
/// [`TransformError::NeedsCanonical`] for a baseline mapping, whose
/// dataflow ignores the page ring and cannot fold.
pub fn fold_to_page(result: &MapResult, cgra: &CgraConfig) -> Result<MapResult, TransformError> {
    if result.mode == MapMode::Baseline {
        return Err(TransformError::NeedsCanonical);
    }
    let layout = cgra.layout();
    let page = cgra.page_fabric();
    let n = layout.num_pages() as u32;
    let orientations = orientation_plan(cgra);

    let fold = |pe: PeId, time: u32| -> (PeId, u32) {
        let src = layout.page_of(pe);
        let local = layout.intra_pos(pe);
        let folded = page
            .layout()
            .pe_at(PageId(0), local, orientations[src.index()]);
        (folded, n * time + u32::from(src.0))
    };

    let placements = result
        .mapping
        .placements
        .iter()
        .map(|p| {
            let (pe, time) = fold(p.pe, p.time);
            Placement { pe, time }
        })
        .collect();
    let routes = result
        .mapping
        .routes
        .iter()
        .map(|hops| {
            hops.iter()
                .map(|h| {
                    let (pe, time) = fold(h.pe, h.time);
                    RouteHop { pe, time }
                })
                .collect()
        })
        .collect();

    Ok(MapResult {
        mapping: Mapping {
            ii: n * result.mapping.ii,
            placements,
            routes,
        },
        mdfg: result.mdfg.clone(),
        mode: MapMode::Baseline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_mapper::{map_constrained, validate_mapping, MapOptions, Violation};

    #[test]
    fn orientation_plan_quadrants() {
        // 4x4 quadrants: TL, TR, BR, BL -> I, MirrorV, Rot180, MirrorH.
        let cgra = CgraConfig::square(4);
        let plan = orientation_plan(&cgra);
        assert_eq!(
            plan,
            vec![
                Orientation::Identity,
                Orientation::MirrorV,
                Orientation::Rot180,
                Orientation::MirrorH
            ]
        );
    }

    /// Fold `kernel`'s constrained mapping on `cgra` and validate the
    /// fold on a page fabric with `rf` rotating registers.
    fn fold_violations(kernel: &cgra_dfg::Dfg, cgra: &CgraConfig, rf: u16) -> Vec<Violation> {
        let r = map_constrained(kernel, cgra, &MapOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
        let folded = fold_to_page(&r, cgra).expect("folds");
        let n = cgra.layout().num_pages() as u32;
        assert_eq!(folded.mapping.ii, n * r.ii());
        assert_eq!(folded.mode, MapMode::Baseline);
        let page = cgra.page_fabric().with_rf_size(rf);
        validate_mapping(&folded.mdfg, &page, &folded.mapping, folded.mode)
    }

    #[test]
    fn fold_validates_for_all_kernels_on_4x4() {
        // RFs sized from the measured fold requirement: the paper's
        // N-registers claim is optimistic under fanout parking.
        let cgra = CgraConfig::square(4).with_rf_size(32);
        for k in cgra_dfg::kernels::all() {
            let v = fold_violations(&k, &cgra, 32);
            assert!(v.is_empty(), "{}: {v:?}", k.name);
        }
    }

    #[test]
    fn tiny_rf_overflow_is_detected() {
        // Map with a roomy RF, then validate the fold against a page
        // with a 1-register file: the parking pressure must be flagged.
        let roomy = CgraConfig::square(4).with_rf_size(32);
        let v = fold_violations(&cgra_dfg::kernels::yuv2rgb(), &roomy, 1);
        assert!(v.iter().any(|x| matches!(x, Violation::RfOverflow { .. })));
    }

    #[test]
    fn n_registers_do_not_suffice_for_yuv2rgb() {
        // Reproduction finding: §VI-E claims N rotating registers per PE
        // suffice for a shrink to one page; fanout parking makes the true
        // peak larger on wide kernels.
        let cgra = CgraConfig::square(4).with_rf_size(32);
        let n_pages = cgra.layout().num_pages() as u16;
        let v = fold_violations(&cgra_dfg::kernels::yuv2rgb(), &cgra, n_pages);
        assert!(
            v.iter().any(|x| matches!(x, Violation::RfOverflow { .. })),
            "N = {n_pages} registers suffice: {v:?}"
        );
    }

    #[test]
    fn fold_rejects_baseline() {
        let cgra = CgraConfig::square(4);
        let r =
            cgra_mapper::map_baseline(&cgra_dfg::kernels::mpeg2(), &cgra, &MapOptions::default())
                .expect("maps");
        assert!(fold_to_page(&r, &cgra).is_err());
    }

    #[test]
    fn fold_on_dominoes() {
        let cgra = CgraConfig::square(4)
            .with_page_size(2)
            .unwrap()
            .with_rf_size(32);
        let v = fold_violations(&cgra_dfg::kernels::mpeg2(), &cgra, 32);
        assert!(v.is_empty(), "{v:?}");
    }
}
