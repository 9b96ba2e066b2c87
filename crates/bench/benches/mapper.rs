//! Mapper compile-time comparison (§III's motivation: "the running time
//! to generate a schedule for all CGRA compilation techniques is large"):
//! list-scheduling baseline vs constrained, on representative kernels,
//! plus the two slowest cold compiles of the paper grid (constrained
//! `swim` and `sobel` on the 8×8 with 2-PE pages), and the strict 1-step
//! discipline on the fabrics its mapping snapshot pins (4×4 and 8×8 with
//! square pages).

use cgra_bench::microbench::Bench;
use cgra_mapper::{map_baseline, map_constrained, map_constrained_strict, MapOptions};
use std::hint::black_box;

fn main() {
    let bench = Bench::from_env().with_max_iters(10);
    let cgra = cgra_arch::CgraConfig::square(4);
    let opts = MapOptions::default();
    for name in ["mpeg2", "sor", "sobel"] {
        let kernel = cgra_dfg::kernels::by_name(name).unwrap();
        bench.run(&format!("mapper_compile_time/baseline/{name}"), || {
            map_baseline(black_box(&kernel), &cgra, &opts).unwrap()
        });
        bench.run(&format!("mapper_compile_time/constrained/{name}"), || {
            map_constrained(black_box(&kernel), &cgra, &opts).unwrap()
        });
    }
    let wide = cgra_arch::CgraConfig::square(8)
        .with_page_size(2)
        .expect("2-PE pages tile an 8x8");
    for name in ["swim", "sobel"] {
        let kernel = cgra_dfg::kernels::by_name(name).unwrap();
        bench.run(
            &format!("mapper_compile_time/constrained_8x8_p2/{name}"),
            || map_constrained(black_box(&kernel), &wide, &opts).unwrap(),
        );
    }
    for (dim, page_size) in [(4, 4), (8, 8)] {
        let fabric = cgra_arch::CgraConfig::square(dim)
            .with_page_size(page_size)
            .expect("square pages tile a square fabric");
        for name in ["fir", "sor"] {
            let kernel = cgra_dfg::kernels::by_name(name).unwrap();
            bench.run(
                &format!("mapper_compile_time/constrained_strict_{dim}x{dim}_p{page_size}/{name}"),
                || map_constrained_strict(black_box(&kernel), &fabric, &opts).unwrap(),
            );
        }
    }
}
