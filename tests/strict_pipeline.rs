//! The paper's *literal* pipeline: the strict 1-step discipline (§VI-C's
//! canonical dependences) feeding the drifting Algorithm 1 — end to end
//! on real kernels, plus functional execution of the strict schedules.

use cgra_mt::prelude::*;

#[test]
fn strict_mappings_feed_algorithm_one() {
    let cgra = CgraConfig::square(4);
    let opts = MapOptions::default();
    let mut covered = 0;
    for kernel in cgra_mt::dfg::kernels::all() {
        // The strict discipline turns every idle wait into a slot-burning
        // self-hop; the widest kernel (swim) does not fit a 4x4 under it.
        // The paper never claims it does — its Fig. 8 uses the relaxed
        // register-file discipline; strict is the Algorithm 1 input form.
        let Ok(mapped) = map_constrained_strict(&kernel, &cgra, &opts) else {
            continue;
        };
        covered += 1;
        let v = validate_mapping(
            &mapped.mdfg,
            &cgra,
            &mapped.mapping,
            MapMode::ConstrainedStrict,
        );
        assert!(v.is_empty(), "{}: {v:?}", kernel.name);

        let paged = PagedSchedule::from_mapping(&mapped, &cgra)
            .unwrap()
            .trimmed();
        assert_eq!(
            paged.discipline,
            cgra_mt::core::Discipline::Canonical,
            "{}",
            kernel.name
        );
        // Every dependence spans exactly one cycle: Algorithm 1's input form.
        assert!(paged.deps.iter().all(|d| d.gap() == 1), "{}", kernel.name);

        for m in 1..=paged.num_pages {
            let plan = transform_pagemaster(&paged, m)
                .unwrap_or_else(|e| panic!("{} M={m}: {e}", kernel.name));
            let tv = validate_plan(&paged, &plan);
            assert!(tv.is_empty(), "{} M={m}: {tv:?}", kernel.name);
        }
    }
    assert!(covered >= 9, "only {covered} kernels mapped strictly");
}

#[test]
fn strict_schedules_execute_correctly() {
    let cgra = CgraConfig::square(4);
    let opts = MapOptions::default();
    let iters = 8;
    for name in ["mpeg2", "sor", "laplace", "compress", "fir"] {
        let kernel = cgra_mt::dfg::kernels::by_name(name).unwrap();
        let mapped =
            map_constrained_strict(&kernel, &cgra, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        let inputs = InputStreams::random(&kernel, iters, 0x57);
        let golden = interpret(&kernel, &inputs, iters).unwrap();
        let out = execute(&mapped, &cgra, &inputs, iters).unwrap_or_else(|e| panic!("{name}: {e}"));
        for (store, values) in &golden {
            assert_eq!(out.get(store), Some(values), "{name}: store n{store}");
        }
    }
}

#[test]
fn strict_costs_more_than_stable() {
    // The stable-column discipline (RF parking allowed) exists because
    // strict canonical schedules burn PE slots on self-hops; verify the
    // ordering stays as designed.
    let cgra = CgraConfig::square(4);
    let opts = MapOptions::default();
    let mut strict_worse = 0;
    let mut total = 0;
    for kernel in cgra_mt::dfg::kernels::all() {
        let Ok(stable) = map_constrained(&kernel, &cgra, &opts) else {
            continue;
        };
        let Ok(strict) = map_constrained_strict(&kernel, &cgra, &opts) else {
            continue;
        };
        total += 1;
        assert!(
            strict.ii() >= stable.ii(),
            "{}: strict II {} < stable II {}",
            kernel.name,
            strict.ii(),
            stable.ii()
        );
        if strict.ii() > stable.ii() {
            strict_worse += 1;
        }
    }
    assert!(total >= 9);
    assert!(strict_worse >= 3, "strict discipline suspiciously free");
}
