//! End-to-end pipeline: kernel → constrained mapping → page schedule →
//! shrink → validate → simulate, across the whole benchmark suite.

use cgra_mt::prelude::*;

#[test]
fn full_pipeline_every_kernel_on_4x4() {
    let cgra = CgraConfig::square(4);
    let opts = MapOptions::default();
    for kernel in cgra_mt::dfg::kernels::all() {
        // Compile under constraints and re-validate independently.
        let mapped = map_constrained(&kernel, &cgra, &opts)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
        let v = validate_mapping(&mapped.mdfg, &cgra, &mapped.mapping, MapMode::Constrained);
        assert!(v.is_empty(), "{}: {v:?}", kernel.name);

        // Extract and shrink through the whole halving family.
        let paged = PagedSchedule::from_mapping(&mapped, &cgra)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name))
            .trimmed();
        let mut m = paged.num_pages;
        loop {
            let plan = transform(&paged, m, Strategy::Auto)
                .unwrap_or_else(|e| panic!("{} M={m}: {e}", kernel.name));
            let tv = validate_plan(&paged, &plan);
            assert!(tv.is_empty(), "{} M={m}: {tv:?}", kernel.name);
            // The transformed rate never beats the page-capacity bound and
            // never exceeds the block bound.
            let occupied = paged.cells.iter().filter(|c| !c.is_empty()).count() as f64;
            assert!(plan.ii_q() + 1e-9 >= occupied / m as f64);
            assert!(
                plan.ii_q() <= (paged.ii * paged.num_pages.div_ceil(m) as u32) as f64 + 1e-9,
                "{} M={m}: ii_q {} above block bound",
                kernel.name,
                plan.ii_q()
            );
            if m == 1 {
                break;
            }
            m /= 2;
        }
    }
}

#[test]
fn shrink_then_expand_recovers_full_rate() {
    // §VII-B.1: expansion re-transforms from the original mapping, so a
    // shrink/expand round-trip restores the original II exactly.
    let cgra = CgraConfig::square(4);
    let kernel = cgra_mt::dfg::kernels::laplace();
    let mapped = map_constrained(&kernel, &cgra, &MapOptions::default()).unwrap();
    let paged = PagedSchedule::from_mapping(&mapped, &cgra)
        .unwrap()
        .trimmed();
    let n = paged.num_pages;
    let shrunk = transform(&paged, 1.max(n / 2), Strategy::Auto).unwrap();
    assert!(shrunk.ii_q() >= mapped.ii() as f64);
    let expanded = transform(&paged, n, Strategy::Auto).unwrap();
    assert_eq!(expanded.ii_q_ceil(), mapped.ii());
}

#[test]
fn fold_to_each_page_of_a_6x6() {
    let cgra = CgraConfig::square(6).with_rf_size(48);
    let kernel = cgra_mt::dfg::kernels::mpeg2();
    let mapped = map_constrained(&kernel, &cgra, &MapOptions::default()).unwrap();
    for target in 0..cgra.layout().num_pages() as u16 {
        let folded = fold_to_page(&mapped, &cgra, PageId(target)).unwrap();
        let v = validate_fold(&mapped, &cgra, &folded);
        assert!(v.is_empty(), "target {target}: {v:?}");
        assert_eq!(folded.ii_q, 9 * mapped.ii() as u64);
    }
}

#[test]
fn extra_kernels_survive_the_full_pipeline() {
    // The extras gallery stresses shapes the paper suite lacks: deep
    // butterflies, wide reductions, select-heavy dataflow.
    let cgra = CgraConfig::square(4).with_rf_size(32);
    let opts = MapOptions::default();
    let iters = 6;
    for kernel in cgra_mt::dfg::kernels::extras::all_extras() {
        let mapped = map_constrained(&kernel, &cgra, &opts)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
        assert!(
            validate_mapping(&mapped.mdfg, &cgra, &mapped.mapping, MapMode::Constrained).is_empty(),
            "{}",
            kernel.name
        );
        // Shrink.
        let paged = PagedSchedule::from_mapping(&mapped, &cgra)
            .unwrap()
            .trimmed();
        let plan = transform(&paged, 1, Strategy::Auto).unwrap();
        assert!(validate_plan(&paged, &plan).is_empty(), "{}", kernel.name);
        // Execute functionally.
        let inputs = InputStreams::random(&kernel, iters, 0xE57);
        let golden = interpret(&kernel, &inputs, iters).unwrap();
        let out = execute(
            &mapped.mdfg,
            cgra.mesh(),
            &MachineSchedule::from_mapping(&mapped.mapping),
            &inputs,
            iters,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
        for (store, values) in &golden {
            assert_eq!(out.get(store), Some(values), "{}: n{store}", kernel.name);
        }
    }
}
