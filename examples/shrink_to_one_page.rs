//! Figure 6 — shrinking a whole-array schedule to a single page, with the
//! intra-page mappings mirrored across the inter-page dependency
//! directions.
//!
//! Run with: `cargo run --release --example shrink_to_one_page`

use cgra_mt::core::fold::orientation_plan;
use cgra_mt::prelude::*;

fn main() {
    let cgra = CgraConfig::square(4).with_rf_size(32);
    let kernel = cgra_mt::dfg::kernels::laplace();
    let mapped = map_constrained(&kernel, &cgra, &MapOptions::default()).expect("maps");
    let layout = cgra.layout();
    println!(
        "'{}' constrained to the full 4x4: II = {}, {} pages of 2x2\n",
        kernel.name,
        mapped.ii(),
        layout.num_pages()
    );

    // The Fig. 6 mirror plan.
    println!("Orientation per source page (Fig. 6's mirroring rule):");
    for (i, o) in orientation_plan(&cgra).iter().enumerate() {
        println!("  page {i}: {o:?}");
    }

    // Fold everything onto one page: a mapping on the one-page fabric.
    let folded = fold_to_page(&mapped, &cgra).expect("folds");
    let page = cgra.page_fabric();
    let check = |rf: u16| {
        let page = page.clone().with_rf_size(rf);
        validate_mapping(&folded.mdfg, &page, &folded.mapping, folded.mode)
    };
    let violations = check(cgra.rf().size());
    assert!(violations.is_empty(), "{violations:?}");
    println!(
        "\nFolded onto one page: II_q = {} = {} pages x II {} — validated at PE level.",
        folded.ii(),
        layout.num_pages(),
        mapped.ii()
    );
    let peak = (1..=32)
        .find(|&rf| check(rf).is_empty())
        .expect("32 registers suffice");
    println!(
        "Peak rotating-register need: {peak} (paper's §VI-E claims N = {} suffice —\n\
         fanout parking makes the honest requirement larger; see EXPERIMENTS.md)\n",
        layout.num_pages()
    );

    // Show where each source page's ops land within the folded page.
    for source in layout.pages() {
        let cells: Vec<String> = mapped
            .mapping
            .placements
            .iter()
            .zip(&folded.mapping.placements)
            .enumerate()
            .filter(|(_, (p, _))| layout.page_of(p.pe) == source)
            .map(|(node, (_, f))| format!("n{node}@{}", page.mesh().pos(f.pe)))
            .collect();
        if !cells.is_empty() {
            println!(
                "source page {} -> folded positions: {}",
                source.0,
                cells.join(" ")
            );
        }
    }

    // Timing of the first iteration: pages execute in dependence order.
    println!("\nFolded timeline (first iteration):");
    let mut by_time: Vec<(u32, usize)> = folded
        .mapping
        .placements
        .iter()
        .enumerate()
        .map(|(i, p)| (p.time, i))
        .collect();
    by_time.sort_unstable();
    for (time, node) in by_time.iter().take(12) {
        let n = mapped.mdfg.dfg.node(cgra_mt::dfg::NodeId(*node as u32));
        println!(
            "  t={time:<3} {} ({})",
            n.label.as_deref().unwrap_or("?"),
            n.op.mnemonic()
        );
    }
}
