//! Mapper compile-time comparison (§III's motivation: "the running time
//! to generate a schedule for all CGRA compilation techniques is large"):
//! list-scheduling baseline vs constrained, on representative kernels,
//! plus the two slowest cold compiles of the paper grid (constrained
//! `swim` and `sobel` on the 8×8 with 2-PE pages).

use cgra_bench::microbench::Bench;
use cgra_mapper::{map_baseline, map_constrained, MapOptions};
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
}
