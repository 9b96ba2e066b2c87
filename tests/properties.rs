//! Cross-crate property tests: random DFGs survive the whole pipeline,
//! random synthetic page schedules transform validly for every M, and
//! random allocator request/release/expand sequences preserve the page
//! accounting invariants and hand out, take back and revoke exactly the
//! pages a shadow page table predicts.
//!
//! The build environment has no registry access, so instead of `proptest`
//! these are hand-rolled: each property enumerates a deterministic,
//! seeded case set (every case visible in the loop header), and
//! `continue` plays the role of `prop_assume!` — cases that don't satisfy
//! the precondition are skipped, not failed.

use cgra_mt::core::transform::TransformError;
use cgra_mt::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::BTreeMap;

#[path = "common/auto.rs"]
mod auto;

/// Any generated DFG maps under both disciplines on a 4x4 and both
/// mappings validate; the constrained II never beats the baseline MII.
#[test]
fn random_dfgs_map_and_validate() {
    for case in 0..24u64 {
        let seed = case * 21; // spread over the old 0..500 range
        let recs = (case % 2) as usize;
        let dfg = cgra_mt::dfg::random::random_dfg(
            seed,
            cgra_mt::dfg::random::RandomDfgParams {
                layers: 4,
                width: (2, 4),
                edge_prob: 0.35,
                recurrences: recs,
                rec_distance: 1,
            },
        );
        let cgra = CgraConfig::square(4);
        let opts = MapOptions::fast();

        let Ok(base) = map_baseline(&dfg, &cgra, &opts) else {
            continue;
        };
        assert!(
            validate_mapping(&base.mdfg, &cgra, &base.mapping, MapMode::Baseline).is_empty(),
            "seed {seed}: baseline mapping invalid"
        );

        let Ok(cons) = map_constrained(&dfg, &cgra, &opts) else {
            continue;
        };
        assert!(
            validate_mapping(&cons.mdfg, &cgra, &cons.mapping, MapMode::Constrained).is_empty(),
            "seed {seed}: constrained mapping invalid"
        );
        assert!(
            cons.ii() >= base.ii().min(cgra_mt::dfg::mii(&dfg, 16)),
            "seed {seed}: constrained II {} beats baseline {}",
            cons.ii(),
            base.ii()
        );
    }
}

/// The synthetic cases on which Algorithm 1 finds no steady state within
/// its warm-up budget (`N/II/wrap/M`). Pinned so that a change to the
/// drifting search cannot gain or lose a steady state unnoticed.
const NO_STEADY_STATE: &[&str] = &[
    "N8/II3/wrap/M6",
    "N10/II1/wrap/M8",
    "N10/II2/no-wrap/M9",
    "N10/II3/no-wrap/M9",
    "N10/II3/wrap/M8",
    "N11/II1/no-wrap/M9",
    "N11/II1/no-wrap/M10",
    "N11/II1/wrap/M8",
    "N11/II1/wrap/M9",
    "N11/II2/no-wrap/M7",
    "N11/II2/no-wrap/M9",
    "N11/II2/no-wrap/M10",
    "N11/II2/wrap/M9",
    "N11/II3/no-wrap/M7",
    "N11/II3/no-wrap/M9",
    "N11/II3/no-wrap/M10",
    "N11/II3/wrap/M8",
    "N11/II3/wrap/M9",
    "N11/II3/wrap/M10",
];

/// Every synthetic canonical ring schedule transforms validly onto every
/// M, with II_q between the capacity bound and the block bound; exactly
/// the cases in [`NO_STEADY_STATE`] fail, and they fail for that reason.
#[test]
fn synthetic_schedules_transform_validly() {
    let mut failures = Vec::new();
    for n in 2u16..12 {
        for ii in 1u32..4 {
            for wrap in [false, true] {
                let p = PagedSchedule::synthetic_canonical(n, ii, wrap);
                for m in 1..=n {
                    let plan = match transform_pagemaster(&p, m) {
                        Ok(plan) => plan,
                        Err(e) => {
                            assert_eq!(e, TransformError::NoSteadyState, "N={n} II={ii} M={m}");
                            let w = if wrap { "wrap" } else { "no-wrap" };
                            failures.push(format!("N{n}/II{ii}/{w}/M{m}"));
                            continue;
                        }
                    };
                    let v = validate_plan(&p, &plan);
                    assert!(v.is_empty(), "N={n} II={ii} wrap={wrap} M={m}: {v:?}");
                    let bound = (n as f64 * ii as f64) / m as f64;
                    assert!(
                        plan.ii_q() + 1e-9 >= bound.min(ii as f64 * (n as f64 / m as f64)),
                        "N={n} II={ii} wrap={wrap} M={m}: II_q {} below bound",
                        plan.ii_q()
                    );
                }
            }
        }
    }
    assert_eq!(failures, NO_STEADY_STATE);
}

/// `Strategy::Auto` returns the better of Block and Algorithm 1
/// ([`auto::check_auto`]): on open rings the lower-`II_q` of the full
/// drift and Block, a tie going to Block, so Block whenever it is
/// provably optimal (M | N, no wrap dependences); on wrap rings and at
/// M = 0 or M > N what the previous rule returned, errors included (an
/// error only on the wrap rings of [`NO_STEADY_STATE`] and at M = 0); and
/// never a higher II_q than that rule. Covers every small synthetic ring
/// at every M, the open rings of the paper grid along their halving
/// chains plus the degraded open ring 32 → 31, and larger wrap rings on
/// which Algorithm 1 must find a steady state (N up to 32, II_p up to 8).
#[test]
fn auto_takes_the_better_of_block_and_algorithm_1() {
    let small = (2u16..12).flat_map(|n| {
        (1u32..4).flat_map(move |ii| {
            [false, true]
                .into_iter()
                .flat_map(move |wrap| (0..=n + 1).map(move |m| (n, ii, wrap, m)))
        })
    });
    let halving = |n: u16| std::iter::successors(Some(n), |&m| (m > 1).then_some(m / 2));
    let open = [16u16, 18, 32]
        .into_iter()
        .flat_map(|n| halving(n).map(move |m| (n, 1, false, m)))
        .chain([(32, 1, false, 31)]);
    let wrap_rings = [(16u16, 1u32, 8u16), (32, 1, 16), (8, 4, 4), (8, 8, 4)];
    let large = wrap_rings.map(|(n, ii, m)| (n, ii, true, m));
    for (n, ii, wrap, m) in small.chain(open).chain(large) {
        let case = format!("N={n} II={ii} wrap={wrap} M={m}");
        let p = PagedSchedule::synthetic_canonical(n, ii, wrap);
        if wrap && wrap_rings.contains(&(n, ii, m)) {
            assert!(transform_pagemaster(&p, m).is_ok(), "{case}");
        }
        auto::check_auto(&p, m, &case);
        let Ok(plan) = transform(&p, m, Strategy::Auto) else {
            assert!(wrap || m == 0, "{case}: only a wrap ring or M = 0 may fail");
            continue;
        };
        if n % m == 0 && !wrap {
            assert_eq!(plan.strategy, Strategy::Block, "{case}");
            assert_eq!(plan.period, 1, "{case}");
            assert_eq!(plan.span, u64::from(ii * u32::from(n / m)), "{case}");
            if m == 1 || m == n {
                // Block's placements are the fold's and the identity's.
                let drift = transform_pagemaster(&p, m).unwrap();
                let relabelled = ShrinkPlan {
                    strategy: drift.strategy,
                    ..plan.clone()
                };
                assert_eq!(relabelled, drift, "{case}");
            }
        }
    }
}

/// Mapped kernels' paged schedules shrink validly with the block strategy
/// for every divisor-chain M.
#[test]
fn extracted_schedules_block_transform() {
    for case in 0..24u64 {
        let seed = case * 8; // spread over the old 0..200 range
        let dfg = cgra_mt::dfg::random::random_dfg(
            seed,
            cgra_mt::dfg::random::RandomDfgParams::default(),
        );
        let cgra = CgraConfig::square(4);
        let Ok(cons) = map_constrained(&dfg, &cgra, &MapOptions::fast()) else {
            continue;
        };
        let paged = PagedSchedule::from_mapping(&cons, &cgra).unwrap().trimmed();
        for m in 1..=paged.num_pages {
            let plan = transform_block(&paged, m).unwrap();
            let v = validate_plan(&paged, &plan);
            assert!(v.is_empty(), "seed {seed} M={m}: {v:?}");
        }
    }
}

/// Functional equivalence on random DFGs: the cycle-level machine
/// executing the baseline and constrained mappings reproduces the golden
/// interpreter's store streams exactly.
#[test]
fn random_dfgs_execute_equivalently() {
    for case in 0..16u64 {
        let seed = case * 19; // spread over the old 0..300 range
        let recs = (case % 2) as usize;
        let dfg = cgra_mt::dfg::random::random_dfg(
            seed ^ 0xE0E0,
            cgra_mt::dfg::random::RandomDfgParams {
                layers: 4,
                width: (2, 4),
                edge_prob: 0.4,
                recurrences: recs,
                rec_distance: 1,
            },
        );
        let cgra = CgraConfig::square(4).with_rf_size(32);
        let opts = MapOptions::fast();
        let iters = 6;
        let inputs = InputStreams::random(&dfg, iters, seed);
        let golden = interpret(&dfg, &inputs, iters).unwrap();

        for result in [
            map_baseline(&dfg, &cgra, &opts),
            map_constrained(&dfg, &cgra, &opts),
        ] {
            let Ok(mapped) = result else { continue };
            let out = execute(&mapped, &cgra, &inputs, iters);
            let out = out.unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
            for (store, values) in &golden {
                assert_eq!(
                    out.get(store),
                    Some(values),
                    "seed {seed}: store n{store} diverges"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Allocator invariants under random request/release/expand sequences.
//
// A shadow model (`owned`) tracks what the allocator has granted each
// thread; after every step the model and the allocator must agree, the
// page counts must conserve (no page counted for two threads, nothing
// beyond N), and every allocation must sit on the halving chain.

struct Shadow {
    n: u16,
    chain: Vec<u16>,
    owned: BTreeMap<usize, u16>,
}

impl Shadow {
    fn check(&self, a: &cgra_mt::sim::Allocator, threads: usize, step: usize) {
        let total: u16 = self.owned.values().sum();
        assert!(
            total <= self.n,
            "step {step}: granted {total} pages of {}",
            self.n
        );
        a.check_invariant()
            .unwrap_or_else(|e| panic!("step {step}: {e}"));
        assert_eq!(
            a.free_pages(),
            self.n - total,
            "step {step}: free-page conservation (double ownership?)"
        );
        let active = (0..threads).filter(|&t| a.allocation(t).is_some()).count();
        assert_eq!(active, self.owned.len(), "step {step}: active count");
        for (&t, &p) in &self.owned {
            assert_eq!(a.allocation(t), Some(p), "step {step}: thread {t}");
            assert!(
                self.chain.contains(&p),
                "step {step}: thread {t} holds off-chain allocation {p}"
            );
        }
    }
}

#[test]
fn allocator_random_sequences_preserve_invariants() {
    use cgra_mt::sim::{Allocator, ExpandPolicy, Growth, RequestOutcome};

    for case in 0..40u64 {
        let n = [2u16, 4, 8, 9, 16][case as usize % 5];
        let chain = cgra_mt::sim::halving_chain(n);
        let mut rng = StdRng::seed_from_u64(0xA110_C000 + case);
        let mut a = Allocator::new(n);
        let mut shadow = Shadow {
            n,
            chain: chain.clone(),
            owned: BTreeMap::new(),
        };
        let mut next_thread = 0usize;

        for step in 0..200 {
            match rng.gen_range(0..4u32) {
                // Request: a new thread asks for a random chain budget.
                0 | 1 => {
                    let want = chain[rng.gen_range(0..chain.len())];
                    let t = next_thread;
                    next_thread += 1;
                    match a.request(t, want).unwrap() {
                        RequestOutcome::Granted { pages } => {
                            assert!(pages <= want, "step {step}: granted beyond want");
                            shadow.owned.insert(t, pages);
                        }
                        RequestOutcome::Shrunk {
                            victim,
                            victim_was,
                            victim_pages,
                            pages,
                        } => {
                            let before = shadow.owned[&victim];
                            assert_eq!(
                                victim_was, before,
                                "step {step}: victim_was disagrees with the shadow"
                            );
                            assert!(
                                victim_pages < before,
                                "step {step}: shrink did not shrink ({before} -> {victim_pages})"
                            );
                            assert!(pages <= want, "step {step}: granted beyond want");
                            shadow.owned.insert(victim, victim_pages);
                            shadow.owned.insert(t, pages);
                        }
                        RequestOutcome::Queued => {
                            // Queued requests must only happen when no
                            // thread can shrink any further.
                            assert!(
                                shadow.owned.values().all(|&p| p == chain[chain.len() - 1])
                                    || shadow.owned.is_empty() && n == 0,
                                "step {step}: queued while a shrink was possible"
                            );
                        }
                    }
                }
                // Release a random active thread; its pages come back.
                2 => {
                    let Some(&t) = shadow
                        .owned
                        .keys()
                        .nth(rng.gen_range(0..shadow.owned.len().max(1)))
                    else {
                        continue;
                    };
                    let freed = a.release(t).unwrap();
                    assert_eq!(freed, shadow.owned.remove(&t).unwrap());
                }
                // Expand under a random policy; growth only, chain only.
                _ => {
                    let policy = [
                        ExpandPolicy::SmallestFirst,
                        ExpandPolicy::LargestFirst,
                        ExpandPolicy::None,
                    ][rng.gen_range(0..3usize)];
                    let grown: Vec<_> =
                        std::iter::from_fn(|| a.grow(Growth::Policy(policy), |_| n).unwrap())
                            .collect();
                    assert!(
                        policy != ExpandPolicy::None || grown.is_empty(),
                        "step {step}: ExpandPolicy::None expanded"
                    );
                    for g in grown {
                        let before = shadow.owned[&g.thread];
                        assert_eq!(
                            g.from_pages, before,
                            "step {step}: from_pages disagrees with the shadow"
                        );
                        assert!(
                            g.to_pages > before,
                            "step {step}: expand shrank thread {}",
                            g.thread
                        );
                        shadow.owned.insert(g.thread, g.to_pages);
                    }
                }
            }
            shadow.check(&a, next_thread, step);
        }

        // Freed pages are reusable: drain everything, then one thread can
        // claim the whole fabric again.
        for t in shadow.owned.keys().copied().collect::<Vec<_>>() {
            a.release(t).unwrap();
            shadow.owned.remove(&t);
        }
        shadow.check(&a, next_thread, usize::MAX);
        assert_eq!(a.free_pages(), n);
        assert_eq!(
            a.request(next_thread, n).unwrap(),
            RequestOutcome::Granted { pages: n },
            "full fabric not reusable after drain (N={n})"
        );
    }
}

/// Expansion never grants pages beyond the want cap, even with free room.
#[test]
fn allocator_expand_respects_want_caps() {
    use cgra_mt::sim::{Allocator, ExpandPolicy, Growth};

    for n in [4u16, 8, 16] {
        let chain = cgra_mt::sim::halving_chain(n);
        for &cap in &chain {
            let mut a = Allocator::new(n);
            a.request(0, chain[chain.len() - 1]).unwrap(); // start at 1 page
            loop {
                let order = Growth::Policy(ExpandPolicy::SmallestFirst);
                if a.grow(order, |_| cap).unwrap().is_none() {
                    break;
                }
            }
            let got = a.allocation(0).unwrap();
            assert!(got <= cap, "N={n} cap={cap}: expanded to {got}");
            a.check_invariant().unwrap();
        }
    }
}

// ---------------------------------------------------------------------
// Allocator page identities under random sequences that also kill,
// repair and degrade pages.
//
// A shadow page table (each page's health and owner) replays every step
// under the allocator's rules: a grant takes the lowest free pages, a
// shrink returns the owner's highest pages, and a kill removes the page
// from its owner. After every step each thread's page set, each page's
// owner and each thread's degraded flag must agree with the shadow. The
// fabric sizes cross the 64-page word boundary.

struct PageShadow {
    chain: Vec<u16>,
    health: Vec<PageHealth>,
    owner: Vec<Option<usize>>,
}

impl PageShadow {
    fn usable(&self, p: usize) -> bool {
        matches!(self.health[p], PageHealth::Healthy | PageHealth::Degraded)
    }

    fn free(&self) -> Vec<u16> {
        (0..self.owner.len())
            .filter(|&p| self.usable(p) && self.owner[p].is_none())
            .map(|p| p as u16)
            .collect()
    }

    fn held(&self, t: usize) -> Vec<u16> {
        (0..self.owner.len())
            .filter(|&p| self.owner[p] == Some(t))
            .map(|p| p as u16)
            .collect()
    }

    fn budget(&self, t: usize) -> u16 {
        self.held(t).len() as u16
    }

    fn largest_chain_at_most(&self, x: u16) -> Option<u16> {
        self.chain.iter().copied().find(|&c| c <= x)
    }

    /// The lowest `count` free pages go to `t`.
    fn grant(&mut self, t: usize, count: u16) {
        for p in self.free().into_iter().take(count.into()) {
            self.owner[p as usize] = Some(t);
        }
    }

    /// `t`'s highest `count` pages go back to the pool.
    fn give_back(&mut self, t: usize, count: u16) {
        for p in self.held(t).into_iter().rev().take(count.into()) {
            self.owner[p as usize] = None;
        }
    }

    /// The request outcome the allocator's policy implies.
    fn request(&mut self, t: usize, want: u16) -> cgra_mt::sim::RequestOutcome {
        use cgra_mt::sim::RequestOutcome;
        let free = self.free().len() as u16;
        if let Some(pages) = self.largest_chain_at_most(free.min(want)) {
            self.grant(t, pages);
            return RequestOutcome::Granted { pages };
        }
        let mut budgets = vec![0u16; t];
        for &v in self.owner.iter().flatten() {
            budgets[v] += 1;
        }
        let tenants = (0..t).filter(|&v| budgets[v] > 0);
        let Some(victim) = tenants.max_by_key(|&v| (budgets[v], std::cmp::Reverse(v))) else {
            return RequestOutcome::Queued;
        };
        let victim_was = budgets[victim];
        let Some(victim_pages) = self.chain.iter().copied().find(|&c| c < victim_was) else {
            return RequestOutcome::Queued;
        };
        self.give_back(victim, victim_was - victim_pages);
        let free = self.free().len() as u16;
        let pages = self.largest_chain_at_most(free.min(want)).unwrap();
        self.grant(t, pages);
        RequestOutcome::Shrunk {
            victim,
            victim_was,
            victim_pages,
            pages,
        }
    }

    /// The page-death outcome the allocator's policy implies.
    fn kill(&mut self, page: u16) -> cgra_mt::sim::PageDeath {
        use cgra_mt::sim::PageDeath;
        let p = page as usize;
        let was = self.health[p];
        if was == PageHealth::Dead {
            return PageDeath::AlreadyDead;
        }
        self.health[p] = PageHealth::Dead;
        let Some(victim) = self.owner[p].take() else {
            return PageDeath::Unallocated;
        };
        let from_pages = self.budget(victim) + 1;
        match self.chain.iter().copied().find(|&c| c < from_pages) {
            None => PageDeath::Revoked { victim },
            Some(to_pages) => {
                self.give_back(victim, from_pages - 1 - to_pages);
                PageDeath::Shrunk {
                    victim,
                    from_pages,
                    to_pages,
                }
            }
        }
    }

    fn check(&self, a: &cgra_mt::sim::Allocator, threads: usize, what: &str) {
        a.check_invariant()
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let mut pages = vec![Vec::new(); threads];
        for (p, &o) in self.owner.iter().enumerate() {
            if let Some(t) = o {
                pages[t].push(p as u16);
            }
        }
        for (t, held) in pages.into_iter().enumerate() {
            let budget = (!held.is_empty()).then_some(held.len() as u16);
            assert_eq!(a.allocation(t), budget, "{what}: thread {t}'s budget");
            assert_eq!(a.pages_of(t), held, "{what}: thread {t}'s pages");
            let degraded = held
                .iter()
                .any(|&p| self.health[p as usize] == PageHealth::Degraded);
            assert_eq!(a.holds_degraded(t), degraded, "{what}: thread {t}");
        }
        for (p, &o) in self.owner.iter().enumerate() {
            assert_eq!(a.owner_of(p as u16), o, "{what}: owner of page {p}");
        }
        let usable = (0..self.owner.len()).filter(|&p| self.usable(p)).count();
        assert_eq!(a.free_pages() as usize, self.free().len(), "{what}: free");
        assert_eq!(a.usable_pages() as usize, usable, "{what}: usable");
    }
}

#[test]
fn allocator_page_sets_follow_the_shadow() {
    use cgra_mt::sim::{Allocator, ExpandPolicy, Growth};

    for n in [2u16, 4, 8, 9, 16, 32, 63, 64, 65, 130] {
        for case in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(0x9A6E_5E70 + u64::from(n) * 16 + case);
            let chain = cgra_mt::sim::halving_chain(n);
            let mut a = Allocator::new(n);
            let mut shadow = PageShadow {
                chain: chain.clone(),
                health: vec![PageHealth::Healthy; n as usize],
                owner: vec![None; n as usize],
            };
            // Each thread id caps its growth at a fixed chain budget.
            let want = |t: usize| chain[t % chain.len()];
            let mut threads = 0usize;
            for step in 0..300 {
                let what = format!("N={n} case {case} step {step}");
                let page = rng.gen_range(0..n);
                match rng.gen_range(0..20u32) {
                    0..=5 => {
                        let wanted = chain[rng.gen_range(0..chain.len())];
                        let expected = shadow.request(threads, wanted);
                        assert_eq!(a.request(threads, wanted).unwrap(), expected, "{what}");
                        threads += 1;
                    }
                    6..=8 => {
                        let tenants: Vec<usize> =
                            (0..threads).filter(|&t| shadow.budget(t) > 0).collect();
                        let Some(&t) = tenants.get(rng.gen_range(0..tenants.len().max(1))) else {
                            continue;
                        };
                        assert_eq!(a.release(t).unwrap(), shadow.budget(t), "{what}");
                        shadow.give_back(t, shadow.budget(t));
                    }
                    9..=11 => {
                        let order = [
                            Growth::Policy(ExpandPolicy::SmallestFirst),
                            Growth::Policy(ExpandPolicy::LargestFirst),
                            Growth::MostShrunk,
                        ][rng.gen_range(0..3usize)];
                        while let Some(ex) = a.grow(order, want).unwrap() {
                            assert_eq!(ex.from_pages, shadow.budget(ex.thread), "{what}");
                            assert!(ex.to_pages > ex.from_pages, "{what}: {ex:?}");
                            assert!(ex.to_pages <= want(ex.thread), "{what}: {ex:?}");
                            shadow.grant(ex.thread, ex.to_pages - ex.from_pages);
                        }
                    }
                    12..=14 => {
                        let expected = shadow.kill(page);
                        assert_eq!(a.kill_page(page).unwrap(), expected, "{what}");
                    }
                    15 | 16 => {
                        a.begin_repair(page).unwrap();
                        if shadow.health[page as usize] == PageHealth::Dead {
                            shadow.health[page as usize] = PageHealth::Repairing;
                        }
                    }
                    17 | 18 => {
                        let repairing = shadow.health[page as usize] == PageHealth::Repairing;
                        assert_eq!(a.commit_repair(page).unwrap(), repairing, "{what}");
                        if repairing {
                            shadow.health[page as usize] = PageHealth::Healthy;
                        }
                    }
                    _ => {
                        let healthy = shadow.health[page as usize] == PageHealth::Healthy;
                        assert_eq!(a.degrade(page).unwrap(), healthy, "{what}");
                        if healthy {
                            shadow.health[page as usize] = PageHealth::Degraded;
                        }
                    }
                }
                shadow.check(&a, threads, &what);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Simulator cross-properties (deterministic: libraries are expensive).

#[test]
fn simulator_agrees_with_hand_computation() {
    let cgra = CgraConfig::square(4);
    let lib =
        KernelLibrary::compile_benchmarks(&cgra, &MapOptions::default(), &Tracer::off()).unwrap();
    // One thread, one segment: both systems compute exactly.
    let spec = cgra_mt::sim::ThreadSpec {
        segments: vec![cgra_mt::sim::Segment::Cgra {
            kernel: 0,
            iterations: 7,
        }],
    };
    let base = simulate_baseline(&lib, std::slice::from_ref(&spec));
    let mt = simulate_multithreaded_faulty(&lib, &[spec], MtConfig::default(), &[]).unwrap();
    assert_eq!(base.makespan, 7 * lib.profile(0).ii_baseline as u64);
    assert_eq!(mt.makespan, 7 * lib.profile(0).ii_constrained as u64);
}

#[test]
fn multithreaded_never_stalls_forever() {
    // 16 threads on the tiny 4x4: stalls happen, but everything finishes.
    let cgra = CgraConfig::square(4);
    let lib =
        KernelLibrary::compile_benchmarks(&cgra, &MapOptions::default(), &Tracer::off()).unwrap();
    let w = generate(
        &lib,
        &WorkloadParams {
            threads: 16,
            need: CgraNeed::High,
            work_per_thread: 10_000,
            bursts: 2,
            seed: 5,
        },
    );
    let r = simulate_multithreaded_faulty(&lib, &w, MtConfig::default(), &[]).unwrap();
    assert_eq!(r.thread_finish.len(), 16);
    assert!(r.thread_finish.iter().all(|&f| f > 0));
}
