//! Claim C1 (§VI-D.3): the PageMaster transformation runs in low-order
//! polynomial time — constant work per page cell — and is therefore
//! usable at runtime, unlike recompilation.
//!
//! Benches the transform across page counts and IIs, open rings on which
//! the drifting search finds no steady state, the block variant, and —
//! for contrast — a full constrained recompilation of a kernel (what a
//! naive runtime would have to do instead).

use cgra_bench::microbench::Bench;
use cgra_core::transform::{transform_block, Strategy};
use cgra_core::{transform_pagemaster, PagedSchedule};
use cgra_mapper::{map_constrained, MapOptions};
use std::hint::black_box;

fn bench_pagemaster_scaling(bench: &Bench) {
    for n in [4u16, 8, 16, 32] {
        let p = PagedSchedule::synthetic_canonical(n, 1, true);
        let m = (n / 2).max(2);
        bench.run(&format!("pagemaster_transform/drifting_N/{n}"), || {
            transform_pagemaster(black_box(&p), m).unwrap()
        });
    }
    for ii in [1u32, 2, 4, 8] {
        let p = PagedSchedule::synthetic_canonical(8, ii, true);
        bench.run(&format!("pagemaster_transform/drifting_II/{ii}"), || {
            transform_pagemaster(black_box(&p), 4).unwrap()
        });
    }
}

/// Full open rings, the schedules a runtime re-plan actually sees.
/// `drifting` times Algorithm 1 itself: every target but N=32 → 4
/// (period 2) finds no steady state, so those rows run the whole warm-up
/// window. `auto` times what the runtime pays: Block straight away when
/// M | N, and the search plus the block fallback for 32 → 31.
fn bench_open_ring(bench: &Bench) {
    for (n, m) in [(16u16, 8u16), (18, 9), (32, 16), (32, 31), (32, 4)] {
        let p = PagedSchedule::synthetic_canonical(n, 1, false);
        bench.run(
            &format!("pagemaster_transform/open_ring/drifting/{n}to{m}"),
            || transform_pagemaster(black_box(&p), m),
        );
        bench.run(
            &format!("pagemaster_transform/open_ring/auto/{n}to{m}"),
            || cgra_core::transform::transform(black_box(&p), m, Strategy::Auto).unwrap(),
        );
    }
}

fn bench_block_scaling(bench: &Bench) {
    for n in [4u16, 8, 16, 32, 64] {
        let p = PagedSchedule::synthetic_canonical(n, 2, false);
        let m = (n / 2).max(1);
        bench.run(&format!("block_transform/N/{n}"), || {
            transform_block(black_box(&p), m).unwrap()
        });
    }
}

fn bench_transform_vs_recompile(bench: &Bench) {
    let cgra = cgra_arch::CgraConfig::square(4);
    let kernel = cgra_dfg::kernels::mpeg2();
    let opts = MapOptions::default();
    let mapped = map_constrained(&kernel, &cgra, &opts).unwrap();
    let paged = PagedSchedule::from_mapping(&mapped, &cgra)
        .unwrap()
        .trimmed();

    bench.run("runtime_adaptation/pagemaster_shrink_mpeg2", || {
        cgra_core::transform::transform(black_box(&paged), 2, Strategy::Auto).unwrap()
    });
    bench.run("runtime_adaptation/full_recompile_mpeg2", || {
        map_constrained(black_box(&kernel), &cgra, &opts).unwrap()
    });
}

fn main() {
    let bench = Bench::from_env();
    bench_pagemaster_scaling(&bench);
    bench_open_ring(&bench);
    bench_block_scaling(&bench);
    bench_transform_vs_recompile(&bench);
}
