//! Regression tests pinning the paper's illustrative figures.

use cgra_mt::dfg::transform::unroll;
use cgra_mt::dfg::{kernels, rec_mii};
use cgra_mt::prelude::*;

/// Fig. 2: the MPEG2 kernel has 9 ops (loads 1, 2, 4; store 9) and is
/// recurrence-free, so an ideal fabric reaches II = 1.
#[test]
fn fig2_mpeg2_kernel() {
    let k = kernels::fig2_kernel();
    assert_eq!(k.num_nodes(), 9);
    assert_eq!(k.num_mem_ops(), 4);
    assert_eq!(rec_mii(&k), 1);
}

/// Fig. 3: the recurrence bounds II at 2; unrolling by k multiplies both
/// the work and the bound, leaving the effective II unchanged.
#[test]
fn fig3_unrolling_cannot_beat_recurrence() {
    let k = kernels::fig3_kernel();
    assert_eq!(rec_mii(&k), 2);
    for factor in 2..=4 {
        let u = unroll(&k, factor);
        assert_eq!(rec_mii(&u), 2 * factor, "unroll x{factor}");
    }
}

/// Fig. 5: real constrained mappings satisfy the ring dependence
/// constraint — page n consumes only from pages n and n−1.
#[test]
fn fig5_ring_constraint_holds() {
    let cgra = CgraConfig::square(4);
    let mapped = map_constrained(&kernels::mpeg2(), &cgra, &MapOptions::default()).unwrap();
    let paged = PagedSchedule::from_mapping(&mapped, &cgra).unwrap();
    for d in &paged.deps {
        assert!(d.to_page == d.from_page || d.to_page == d.from_page + 1);
    }
}

/// Fig. 6: a 4-page schedule folds onto one page; the mapping of pages 1,
/// 2, 3 is mirrored (MirrorV / Rot180 / MirrorH for the quadrant ring).
#[test]
fn fig6_fold_with_mirrors() {
    use cgra_mt::arch::Orientation;
    let cgra = CgraConfig::square(4).with_rf_size(32);
    let plan = cgra_mt::core::fold::orientation_plan(&cgra);
    assert_eq!(
        plan,
        vec![
            Orientation::Identity,
            Orientation::MirrorV,
            Orientation::Rot180,
            Orientation::MirrorH
        ]
    );
    let mapped = map_constrained(&kernels::sor(), &cgra, &MapOptions::default()).unwrap();
    let folded = fold_to_page(&mapped, &cgra).unwrap();
    let page = cgra.page_fabric();
    assert!(validate_mapping(&folded.mdfg, &page, &folded.mapping, folded.mode).is_empty());
}

/// Fig. 7: transforming a 6-page ring schedule onto 5 columns packs
/// tighter than the block bound while satisfying every §VI-C constraint.
#[test]
fn fig7_six_pages_onto_five_columns() {
    let p = PagedSchedule::synthetic_canonical(6, 1, true);
    let plan = transform_pagemaster(&p, 5).unwrap();
    assert!(validate_plan(&p, &plan).is_empty());
    assert!(plan.ii_q() >= 1.2 - 1e-9); // capacity bound N/M
    assert!(plan.ii_q() < 2.0); // strictly better than the block bound
}

/// §VI-C objective: the block transform achieves II_q = II_p·N/M exactly
/// whenever M divides N — the optimum under the (corrected) capacity
/// bound; see DESIGN.md on the paper's ⌊⌋/⌈⌉ typo.
#[test]
fn objective_block_is_capacity_optimal_for_dividing_m() {
    for ii in [1u32, 2, 3] {
        let p = PagedSchedule::synthetic_canonical(8, ii, false);
        for m in [1u16, 2, 4, 8] {
            let plan = transform_block(&p, m).unwrap();
            assert_eq!(plan.ii_q(), (ii * 8 / m as u32) as f64);
            assert!(cgra_mt::core::is_slot_optimal(&p, &plan));
        }
    }
}
