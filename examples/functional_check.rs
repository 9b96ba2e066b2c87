//! Functional equivalence, end to end: run every benchmark kernel through
//! (a) direct dataflow interpretation, (b) cycle-level execution of the
//! baseline mapping, (c) the paging-constrained mapping, and (d) the
//! schedule folded onto a single page — and check that all four compute
//! identical store streams.
//!
//! Run with: `cargo run --release --example functional_check`

use cgra_mt::prelude::*;

fn main() {
    let iters = 16;
    let cgra = CgraConfig::square(4).with_rf_size(64);
    let opts = MapOptions::default();
    println!(
        "Executing {iters} iterations of each kernel four ways on a 4x4 CGRA\n\
         (golden interpreter / baseline map / constrained map / 1-page fold):\n"
    );
    println!("kernel     stores  values/stream  baseline  constrained  folded");

    for kernel in cgra_mt::dfg::kernels::all() {
        let inputs = InputStreams::random(&kernel, iters, 0xC0FFEE);
        let golden = interpret(&kernel, &inputs, iters).expect("interprets");

        let base = map_baseline(&kernel, &cgra, &opts).expect("baseline maps");
        let cons = map_constrained(&kernel, &cgra, &opts).expect("constrained maps");
        let folded = fold_to_page(&cons, &cgra).expect("folds");

        let run = |r: &MapResult, fabric: &CgraConfig| -> bool {
            match execute(r, fabric, &inputs, iters) {
                Ok(out) => golden
                    .iter()
                    .all(|(store, values)| out.get(store) == Some(values)),
                Err(e) => {
                    eprintln!("  {}: execution failed: {e}", kernel.name);
                    false
                }
            }
        };
        let ok_base = run(&base, &cgra);
        let ok_cons = run(&cons, &cgra);
        let ok_fold = run(&folded, &cgra.page_fabric());

        println!(
            "{:>8}   {:>5}  {:>13}  {:>8}  {:>11}  {:>6}",
            kernel.name,
            golden.len(),
            iters,
            if ok_base { "match" } else { "FAIL" },
            if ok_cons { "match" } else { "FAIL" },
            if ok_fold { "match" } else { "FAIL" },
        );
        assert!(ok_base && ok_cons && ok_fold, "{} diverged", kernel.name);
    }

    println!(
        "\nAll four execution paths agree on every store of every kernel:\n\
         the paging constraints and the PageMaster fold preserve semantics,\n\
         not just the scheduling invariants."
    );
}
