//! Seeded mutation operators — the analyzer's own verification.
//!
//! Each operator takes a **known-good pipeline artifact** (a constrained
//! FIR mapping, an extracted page-level schedule, a block shrink plan, a
//! degraded plan, a Fig. 6 fold, a cached kernel profile), breaks
//! exactly one invariant, and hands the mutant to the analyzer. The
//! operator declares which [`Code`] class the analyzer *must* raise; a
//! mutant whose report lacks that code has survived, and the test suite
//! treats any survivor as an analyzer bug (100 % kill rate required).
//!
//! Operators that have a choice of mutation site (which edge to stretch,
//! which placement to clone) draw it from a seeded [`splitmix64`]
//! stream, so a run is reproducible from its seed while still exercising
//! different sites across seeds. Every operator is constructed so the
//! expected code fires for *any* qualifying site — the seed varies
//! coverage, not correctness.

// Operators are deliberately terse (r/m/i/j for result/mutant/indices)
// and the registry is one long literal list — both idiomatic here.
#![allow(clippy::many_single_char_names, clippy::too_many_lines)]

use std::collections::HashMap;

use cgra_arch::fault::splitmix64;
use cgra_arch::{CgraConfig, FaultMap, PageHealth, PageId, PeCapability, PeId};
use cgra_core::fold::fold_to_page;
use cgra_core::transform::{transform_block, Strategy};
use cgra_core::{
    plan_recovery, transform_degraded, DegradedPlan, FoldedSchedule, PageDep, PagedSchedule,
    RecoveryPlan, RepairedPage,
};
use cgra_dfg::{kernels, DfgBuilder, OpKind};
use cgra_mapper::{map_constrained, MapDfg, MapOptions, MapResult, Mapping, Placement};

use crate::diag::{Code, Report};
use crate::{
    analyze_degraded, analyze_fold, analyze_mapping, analyze_paged, analyze_plan, analyze_profile,
    analyze_recovery,
};

/// The known-good artifacts every operator mutates. Built once per run;
/// all of them analyze clean (asserted by the test suite).
pub struct Artifacts {
    cgra: CgraConfig,
    fir: MapResult,
    fir_paged: PagedSchedule,
    p8: PagedSchedule,
    plan4: cgra_core::ShrinkPlan,
    parked_p: PagedSchedule,
    parked_plan: cgra_core::ShrinkPlan,
    faults: FaultMap,
    degraded: DegradedPlan,
    healed: FaultMap,
    recovery: RecoveryPlan,
    cgra_rf32: CgraConfig,
    fir32: MapResult,
    folded: FoldedSchedule,
    yuv32: MapResult,
    folded_yuv: FoldedSchedule,
}

impl Artifacts {
    /// Map, extract, transform, degrade and fold the fixture set.
    pub fn build() -> Self {
        let cgra = CgraConfig::square(4);
        let opts = MapOptions::default();
        let fir = map_constrained(&kernels::fir(), &cgra, &opts).expect("fir maps");
        let fir_paged = PagedSchedule::from_mapping(&fir, &cgra).expect("fir extracts");

        let p8 = PagedSchedule::synthetic_canonical(8, 2, false);
        let plan4 = transform_block(&p8, 4).expect("block transform");

        // A schedule that parks a value for 3 cycles on page 1 — the
        // fixture for the parked-column-stability rule.
        let mut parked_p = PagedSchedule::synthetic_canonical(6, 2, false);
        parked_p.deps.push(PageDep {
            from_page: 1,
            from_time: 0,
            to_page: 1,
            to_time: 3,
        });
        let parked_plan = transform_block(&parked_p, 3).expect("parked transform");

        let mut faults = FaultMap::new(8);
        faults.mark_page(2, PageHealth::Dead);
        let degraded = transform_degraded(&p8, &faults, 4, Strategy::Auto).expect("degrades");

        // The dead page repairs (Dead → Repairing → Healthy) and the
        // thread re-expands back to the full ring after the quarantine.
        let mut healed = faults.clone();
        healed.begin_repair(2);
        healed.complete_repair(2);
        let repaired = [RepairedPage {
            page: 2,
            repaired_at: 1_000,
            activated_at: 1_064,
        }];
        let recovery = plan_recovery(&p8, &degraded, &healed, &repaired, 64, 42, Strategy::Auto)
            .expect("recovers");

        let cgra_rf32 = CgraConfig::square(4).with_rf_size(32);
        let fir32 = map_constrained(&kernels::fir(), &cgra_rf32, &opts).expect("fir maps rf32");
        let folded = fold_to_page(&fir32, &cgra_rf32, PageId(0)).expect("fir folds");
        let yuv32 = map_constrained(&kernels::yuv2rgb(), &cgra_rf32, &opts).expect("yuv maps");
        let folded_yuv = fold_to_page(&yuv32, &cgra_rf32, PageId(0)).expect("yuv folds");

        Artifacts {
            cgra,
            fir,
            fir_paged,
            p8,
            plan4,
            parked_p,
            parked_plan,
            faults,
            degraded,
            healed,
            recovery,
            cgra_rf32,
            fir32,
            folded,
            yuv32,
            folded_yuv,
        }
    }

    /// Analyze every fixture; the returned report must be clean (the
    /// degradation fixture may carry warnings, never errors).
    pub fn baseline_report(&self) -> Report {
        let mut rep = analyze_mapping(&self.fir.mdfg, &self.cgra, &self.fir.mapping, self.fir.mode)
            .merge(analyze_paged(&self.fir_paged, self.cgra.rf().size()))
            .merge(analyze_paged(&self.p8, self.cgra.rf().size()))
            .merge(analyze_plan(&self.p8, &self.plan4))
            .merge(analyze_plan(&self.parked_p, &self.parked_plan))
            .merge(analyze_fold(&self.fir32, &self.cgra_rf32, &self.folded))
            .merge(analyze_fold(&self.yuv32, &self.cgra_rf32, &self.folded_yuv));
        let (b, c, u, t) = good_profile();
        rep = rep.merge(analyze_profile("fixture", b, c, u, &t, 4));
        rep.merge(analyze_degraded(&self.p8, &self.degraded, &self.faults))
            .merge(analyze_recovery(&self.p8, &self.recovery, &self.healed))
    }
}

/// The well-formed kernel-profile fixture for the `A40x` operators.
fn good_profile() -> (u32, u32, u16, Vec<(u16, u32)>) {
    (3, 4, 2, vec![(4, 4), (2, 4), (1, 8)])
}

/// Pick one qualifying mutation site; panics if an operator found none
/// (a fixture regression, not a survivable outcome).
fn pick<'a, T>(state: &mut u64, items: &'a [T], what: &str) -> &'a T {
    assert!(!items.is_empty(), "no mutation candidates for {what}");
    &items[usize::try_from(splitmix64(state) % items.len() as u64).unwrap()]
}

/// One mutation operator: a named artifact-breaking transformation and
/// the diagnostic code the analyzer must answer it with.
pub struct Operator {
    /// Stable kebab-case operator name.
    pub name: &'static str,
    /// The code class that must appear in the mutant's report.
    pub expected: Code,
    run: fn(&Artifacts, &mut u64) -> Report,
}

impl Operator {
    /// Apply the operator and analyze the mutant.
    pub fn apply(&self, a: &Artifacts, state: &mut u64) -> Report {
        (self.run)(a, state)
    }
}

/// The outcome of one operator under [`run_all`].
pub struct MutationOutcome {
    /// Operator name.
    pub name: &'static str,
    /// The code class the operator expects.
    pub expected: Code,
    /// The analyzer's full report on the mutant.
    pub report: Report,
}

impl MutationOutcome {
    /// Whether the analyzer flagged the mutant with the expected code.
    pub fn killed(&self) -> bool {
        self.report.codes().contains(&self.expected)
    }
}

/// Apply every operator to freshly built artifacts under `seed`.
pub fn run_all(seed: u64) -> Vec<MutationOutcome> {
    let a = Artifacts::build();
    let mut state = seed;
    operators()
        .iter()
        .map(|op| MutationOutcome {
            name: op.name,
            expected: op.expected,
            report: op.apply(&a, &mut state),
        })
        .collect()
}

/// The seeded-broken FIR mapping used by the golden-snapshot test: the
/// `shift-producer-late` mutant of the constrained FIR mapping.
pub fn broken_fir_report(seed: u64) -> Report {
    let a = Artifacts::build();
    let mut state = seed;
    shift_producer_late(&a, &mut state)
}

// --- A0xx: modulo-resource and dataflow mutants -------------------------

fn shift_producer_late(a: &Artifacts, s: &mut u64) -> Report {
    let r = &a.fir;
    let dfg = &r.mdfg.dfg;
    // Any producer with a live (non-memory) consumer: delaying it by
    // whole IIs keeps its modulo slot but strands every reader.
    let cands: Vec<usize> = dfg
        .node_ids()
        .filter(|&n| dfg.succ_edges(n).any(|e| !r.mdfg.is_mem_edge(e.index())))
        .map(cgra_dfg::NodeId::index)
        .collect();
    let n = *pick(s, &cands, "shift-producer-late");
    let mut m = r.mapping.clone();
    m.placements[n].time += 16 * m.ii;
    analyze_mapping(&r.mdfg, &a.cgra, &m, r.mode)
}

fn clone_onto_occupied_slot(a: &Artifacts, s: &mut u64) -> Report {
    let r = &a.fir;
    let mut m = r.mapping.clone();
    let n = m.placements.len();
    let i = usize::try_from(splitmix64(s) % n as u64).unwrap();
    let j = (i + 1 + usize::try_from(splitmix64(s) % (n as u64 - 1)).unwrap()) % n;
    m.placements[j] = m.placements[i];
    analyze_mapping(&r.mdfg, &a.cgra, &m, r.mode)
}

/// Two loads and their sum — small enough to place by hand, so the bus
/// fixture is exact.
fn bus_fixture() -> (MapDfg, Mapping) {
    let mut b = DfgBuilder::new("bus");
    let l0 = b.node(OpKind::Load);
    let l1 = b.node(OpKind::Load);
    b.apply(OpKind::Add, &[l0, l1]);
    let m = MapDfg::unspilled(&b.build().unwrap());
    // Loads on row 0 at distinct bus slots (t=0, t=1 with II=2), the
    // add beside them.
    let mapping = Mapping {
        ii: 2,
        placements: vec![
            Placement {
                pe: PeId(0),
                time: 0,
            },
            Placement {
                pe: PeId(1),
                time: 1,
            },
            Placement {
                pe: PeId(1),
                time: 2,
            },
        ],
        routes: vec![Vec::new(), Vec::new()],
    };
    (m, mapping)
}

fn congruent_mem_same_row(a: &Artifacts, _s: &mut u64) -> Report {
    let (m, mut mapping) = bus_fixture();
    // Slide the second load onto the first one's bus slot (both ≡ 0
    // mod II on row 0; one bus per row).
    mapping.placements[1].time = 2;
    analyze_mapping(&m, &a.cgra, &mapping, cgra_mapper::MapMode::Baseline)
}

fn capability_downgrade(a: &Artifacts, _s: &mut u64) -> Report {
    // The fabric loses its multipliers; FIR's Mul placements go illegal.
    let no_mul = a
        .cgra
        .clone()
        .with_capability(PeCapability::full().with_mul(false));
    analyze_mapping(&a.fir.mdfg, &no_mul, &a.fir.mapping, a.fir.mode)
}

fn truncate_placements(a: &Artifacts, _s: &mut u64) -> Report {
    let mut m = a.fir.mapping.clone();
    m.placements.pop();
    analyze_mapping(&a.fir.mdfg, &a.cgra, &m, a.fir.mode)
}

fn drop_route_hop(a: &Artifacts, s: &mut u64) -> Report {
    let r = &a.fir;
    let dfg = &r.mdfg.dfg;
    let mesh = a.cgra.mesh();
    // Qualifying sites: a hop on a single-fanout edge whose removal
    // leaves two non-adjacent consecutive locations (no sharing site
    // can rescue the read).
    let mut cands: Vec<(usize, usize)> = Vec::new();
    for (ei, e) in dfg.edges().enumerate() {
        if r.mdfg.is_mem_edge(ei) || r.mapping.routes[ei].is_empty() {
            continue;
        }
        let fanout = dfg
            .succ_edges(e.src)
            .filter(|x| !r.mdfg.is_mem_edge(x.index()))
            .count();
        if fanout != 1 {
            continue;
        }
        let hops = &r.mapping.routes[ei];
        for hi in 0..hops.len() {
            let prev = if hi == 0 {
                r.mapping.placements[e.src.index()].pe
            } else {
                hops[hi - 1].pe
            };
            let nxt = if hi + 1 < hops.len() {
                hops[hi + 1].pe
            } else {
                r.mapping.placements[e.dst.index()].pe
            };
            if nxt != prev && !mesh.adjacent(prev, nxt) {
                cands.push((ei, hi));
            }
        }
    }
    let &(ei, hi) = pick(s, &cands, "drop-route-hop");
    let mut m = r.mapping.clone();
    m.routes[ei].remove(hi);
    analyze_mapping(&r.mdfg, &a.cgra, &m, r.mode)
}

fn delayed_consumer(a: &Artifacts, s: &mut u64, iters: u32) -> Report {
    let r = &a.fir;
    let dfg = &r.mdfg.dfg;
    // A direct (unrouted) edge: delaying its consumer by whole IIs
    // keeps slots intact but parks the value far beyond the file.
    let cands: Vec<usize> = dfg
        .edges()
        .enumerate()
        .filter(|(ei, e)| {
            !r.mdfg.is_mem_edge(*ei) && r.mapping.routes[*ei].is_empty() && e.src != e.dst
        })
        .map(|(_, e)| e.dst.index())
        .collect();
    let v = *pick(s, &cands, "delayed-consumer");
    let mut m = r.mapping.clone();
    m.placements[v].time += iters * m.ii;
    analyze_mapping(&r.mdfg, &a.cgra, &m, r.mode)
}

fn park_beyond_rf(a: &Artifacts, s: &mut u64) -> Report {
    delayed_consumer(a, s, 16)
}

fn stretch_lifetime(a: &Artifacts, s: &mut u64) -> Report {
    delayed_consumer(a, s, 32)
}

/// Load→Store inside page 1 — the smallest constrained-legal mapping,
/// placed by hand so ring mutants are exact.
fn ring_fixture() -> (MapDfg, Mapping) {
    let mut b = DfgBuilder::new("ring");
    let u = b.node(OpKind::Load);
    b.apply(OpKind::Store, &[u]);
    let m = MapDfg::unspilled(&b.build().unwrap());
    let mapping = Mapping {
        ii: 2,
        placements: vec![
            Placement {
                pe: PeId(2),
                time: 0,
            },
            Placement {
                pe: PeId(3),
                time: 1,
            },
        ],
        routes: vec![Vec::new()],
    };
    (m, mapping)
}

fn cross_ring_step(a: &Artifacts, _s: &mut u64) -> Report {
    let (m, mut mapping) = ring_fixture();
    // PE1 is mesh-adjacent to PE2 but lives on the *previous* page:
    // timing and adjacency stay legal, only the ring direction breaks.
    mapping.placements[1].pe = PeId(1);
    analyze_mapping(&m, &a.cgra, &mapping, cgra_mapper::MapMode::Constrained)
}

// --- A2xx: paged-schedule and shrink-plan mutants -----------------------

fn skip_ring_page(a: &Artifacts, _s: &mut u64) -> Report {
    let mut p = a.p8.clone();
    p.deps.push(PageDep {
        from_page: 3,
        from_time: 0,
        to_page: 1,
        to_time: 1,
    });
    analyze_paged(&p, a.cgra.rf().size())
}

fn overpark_paged_dep(a: &Artifacts, _s: &mut u64) -> Report {
    let mut p = a.fir_paged.clone();
    p.deps.push(PageDep {
        from_page: 0,
        from_time: 0,
        to_page: 0,
        to_time: 1 + p.ii * 64,
    });
    analyze_paged(&p, a.cgra.rf().size())
}

fn remove_plan_cell(a: &Artifacts, _s: &mut u64) -> Report {
    let mut plan = a.plan4.clone();
    plan.placements[0].remove(&(0, 0));
    analyze_plan(&a.p8, &plan)
}

fn column_out_of_range(a: &Artifacts, _s: &mut u64) -> Report {
    let mut plan = a.plan4.clone();
    plan.placements[0].get_mut(&(1, 0)).unwrap().col = plan.m + 3;
    analyze_plan(&a.p8, &plan)
}

fn collide_plan_cells(a: &Artifacts, _s: &mut u64) -> Report {
    let mut plan = a.plan4.clone();
    let c = plan.placements[0][&(0, 0)];
    plan.placements[0].insert((1, 0), c);
    analyze_plan(&a.p8, &plan)
}

fn equalize_dep_times(a: &Artifacts, s: &mut u64) -> Report {
    let ii = a.p8.ii;
    // A dependence whose endpoints fall in the same source iteration:
    // cloning the producer's placement onto the consumer makes the
    // consumer run at the producer's own cycle.
    let cands: Vec<&PageDep> =
        a.p8.deps
            .iter()
            .filter(|d| d.from_time / ii == d.to_time / ii)
            .collect();
    let d = *pick(s, &cands, "equalize-dep-times");
    let mut plan = a.plan4.clone();
    let c = plan.placements[0][&(d.from_page, d.from_time % ii)];
    plan.placements[0].insert((d.to_page, d.to_time % ii), c);
    analyze_plan(&a.p8, &plan)
}

fn teleport_column(a: &Artifacts, _s: &mut u64) -> Report {
    let mut plan = a.plan4.clone();
    for slot in 0..a.p8.ii {
        plan.placements[0].get_mut(&(0, slot)).unwrap().col = 3;
    }
    analyze_plan(&a.p8, &plan)
}

fn crush_span(a: &Artifacts, _s: &mut u64) -> Report {
    let mut plan = a.plan4.clone();
    plan.span = 1;
    analyze_plan(&a.p8, &plan)
}

fn wobble_parked_column(a: &Artifacts, _s: &mut u64) -> Report {
    // Unroll the parked block plan to period 2, swapping the columns of
    // pages 0 and 1 in the second entry. Instance times are preserved
    // exactly, but page 1 — which parks a value for 3 cycles — no
    // longer keeps one column.
    let base = &a.parked_plan;
    let p0 = base.placements[0].clone();
    let mut p1 = HashMap::new();
    for (&(page, slot), &c) in &p0 {
        let mut c2 = c;
        c2.time += base.span;
        if page == 0 {
            c2.col = p0[&(1, slot)].col;
        } else if page == 1 {
            c2.col = p0[&(0, slot)].col;
        }
        p1.insert((page, slot), c2);
    }
    let mut plan = base.clone();
    plan.placements = vec![p0, p1];
    plan.period = 2;
    plan.span = base.span * 2;
    analyze_plan(&a.parked_p, &plan)
}

// --- A3xx: degradation mutants ------------------------------------------

fn back_column_with_dead_page(a: &Artifacts, _s: &mut u64) -> Report {
    let mut d = a.degraded.clone();
    d.column_pages[0] = 2; // the dead page
    analyze_degraded(&a.p8, &d, &a.faults)
}

fn shuffle_columns(a: &Artifacts, _s: &mut u64) -> Report {
    let mut d = a.degraded.clone();
    d.column_pages.reverse();
    analyze_degraded(&a.p8, &d, &a.faults)
}

fn alias_columns(a: &Artifacts, _s: &mut u64) -> Report {
    let mut d = a.degraded.clone();
    d.column_pages[1] = d.column_pages[2];
    analyze_degraded(&a.p8, &d, &a.faults)
}

fn drop_column(a: &Artifacts, _s: &mut u64) -> Report {
    let mut d = a.degraded.clone();
    d.column_pages.pop();
    analyze_degraded(&a.p8, &d, &a.faults)
}

fn forget_dead_page(a: &Artifacts, _s: &mut u64) -> Report {
    let mut d = a.degraded.clone();
    d.dead_pages.clear();
    analyze_degraded(&a.p8, &d, &a.faults)
}

fn degrade_backing_page(a: &Artifacts, _s: &mut u64) -> Report {
    // The fabric worsens under the plan: one backing page turns
    // degraded-but-usable. Bookkeeping follows, so the only finding is
    // the advisory warning.
    let mut faults = a.faults.clone();
    faults.mark_page(a.degraded.column_pages[1], PageHealth::Degraded);
    let mut d = a.degraded.clone();
    d.degraded_pages = faults.degraded_pages();
    analyze_degraded(&a.p8, &d, &faults)
}

// --- A31x: recovery mutants ---------------------------------------------

fn reexpand_before_repair(a: &Artifacts, _s: &mut u64) -> Report {
    // The recovery plan is analyzed against the *pre-repair* fault map:
    // page 2 is still dead, so the column it backs is illegal reuse.
    analyze_recovery(&a.p8, &a.recovery, &a.faults)
}

fn jump_quarantine(a: &Artifacts, s: &mut u64) -> Report {
    let mut r = a.recovery.clone();
    // Activate somewhere strictly inside the quarantine window.
    let early = splitmix64(s) % r.quarantine;
    r.repaired[0].activated_at = r.repaired[0].repaired_at + early;
    analyze_recovery(&a.p8, &r, &a.healed)
}

fn lose_iterations(a: &Artifacts, s: &mut u64) -> Report {
    let mut r = a.recovery.clone();
    // Resume anywhere but where the thread left off.
    r.resume_iteration = r.completed_iterations + 1 + splitmix64(s) % 7;
    analyze_recovery(&a.p8, &r, &a.healed)
}

// --- A22x: fold mutants -------------------------------------------------

fn escape_target_page(a: &Artifacts, s: &mut u64) -> Report {
    let layout = a.cgra_rf32.layout();
    let mut folded = a.folded.clone();
    let i = usize::try_from(splitmix64(s) % folded.ops.len() as u64).unwrap();
    let off_page = layout
        .pes_of(layout.next_page(folded.target))
        .next()
        .unwrap();
    folded.ops[i].pe = off_page;
    analyze_fold(&a.fir32, &a.cgra_rf32, &folded)
}

fn collide_folded_ops(a: &Artifacts, s: &mut u64) -> Report {
    let mut folded = a.folded.clone();
    let n = folded.ops.len();
    let i = usize::try_from(splitmix64(s) % n as u64).unwrap();
    let j = (i + 1 + usize::try_from(splitmix64(s) % (n as u64 - 1)).unwrap()) % n;
    folded.ops[j] = folded.ops[i];
    analyze_fold(&a.fir32, &a.cgra_rf32, &folded)
}

/// Direct single-fanout edges of the folded FIR: mutating their consumer
/// op cannot be rescued by a sharing site or an intermediate hop.
fn lone_direct_fold_edges(a: &Artifacts, need_zero_distance: bool) -> Vec<(usize, usize, usize)> {
    let r = &a.fir32;
    r.mdfg
        .dfg
        .edges()
        .enumerate()
        .filter(|(ei, e)| {
            !r.mdfg.is_mem_edge(*ei)
                && a.folded.routes[*ei].is_empty()
                && e.src != e.dst
                && (!need_zero_distance || e.distance == 0)
                && r.mdfg
                    .dfg
                    .succ_edges(e.src)
                    .filter(|x| !r.mdfg.is_mem_edge(x.index()))
                    .count()
                    == 1
        })
        .map(|(ei, e)| (ei, e.src.index(), e.dst.index()))
        .collect()
}

fn stretch_fold_step(a: &Artifacts, s: &mut u64) -> Report {
    let layout = a.cgra_rf32.layout();
    let mesh = a.cgra_rf32.mesh();
    let cands = lone_direct_fold_edges(a, false);
    let &(_, src, dst) = pick(s, &cands, "stretch-fold-step");
    let mut folded = a.folded.clone();
    let from_pe = folded.ops[src].pe;
    // The far corner of the target page: in-page (no A220) but not
    // adjacent to the producer.
    let far = layout
        .pes_of(folded.target)
        .find(|&pe| pe != from_pe && !mesh.adjacent(from_pe, pe))
        .expect("a 2x2 page has a non-adjacent corner");
    folded.ops[dst].pe = far;
    analyze_fold(&a.fir32, &a.cgra_rf32, &folded)
}

fn reverse_fold_step(a: &Artifacts, s: &mut u64) -> Report {
    let cands = lone_direct_fold_edges(a, true);
    let &(_, src, dst) = pick(s, &cands, "reverse-fold-step");
    let mut folded = a.folded.clone();
    folded.ops[dst].time = folded.ops[src].time;
    analyze_fold(&a.fir32, &a.cgra_rf32, &folded)
}

fn shrink_rotating_file(a: &Artifacts, _s: &mut u64) -> Report {
    // The fold is unchanged; the fabric it claims to run on shrinks to
    // a single rotating register per PE.
    let tiny = CgraConfig::square(4).with_rf_size(1);
    analyze_fold(&a.yuv32, &tiny, &a.folded_yuv)
}

fn flip_orientation(a: &Artifacts, s: &mut u64) -> Report {
    let mut folded = a.folded.clone();
    let n = folded.orientations.len();
    // Never page 0 (identity is correct there by construction, so flip
    // a later page).
    let i = 1 + usize::try_from(splitmix64(s) % (n as u64 - 1)).unwrap();
    folded.orientations[i] = if folded.orientations[i] == cgra_arch::Orientation::Identity {
        cgra_arch::Orientation::Rot180
    } else {
        cgra_arch::Orientation::Identity
    };
    analyze_fold(&a.fir32, &a.cgra_rf32, &folded)
}

// --- A40x: profile mutants ----------------------------------------------

fn zero_ii(_a: &Artifacts, _s: &mut u64) -> Report {
    let (b, _, u, t) = good_profile();
    analyze_profile("mutant", b, 0, u, &t, 4)
}

fn invert_constraint_order(_a: &Artifacts, _s: &mut u64) -> Report {
    let (_, _, u, t) = good_profile();
    analyze_profile("mutant", 5, 4, u, &t, 4)
}

fn leave_halving_chain(_a: &Artifacts, _s: &mut u64) -> Report {
    let (b, c, u, _) = good_profile();
    analyze_profile("mutant", b, c, u, &[(4, 4), (3, 5), (1, 8)], 4)
}

fn speed_up_small_m(_a: &Artifacts, _s: &mut u64) -> Report {
    let (b, c, u, _) = good_profile();
    analyze_profile("mutant", b, c, u, &[(4, 8), (2, 4), (1, 8)], 4)
}

fn inflate_used_pages(_a: &Artifacts, _s: &mut u64) -> Report {
    let (b, c, _, t) = good_profile();
    analyze_profile("mutant", b, c, 9, &t, 4)
}

/// The full operator library, in code order.
pub fn operators() -> Vec<Operator> {
    use Code::{
        A001PeSlotConflict, A002BusOverflow, A003MissingFu, A004ShapeMismatch, A005BadDataflow,
        A101RfPressure, A102LifetimeExceedsRotation, A201RingStepViolation, A202DepOverparked,
        A204PagedDepNotRing, A210PlanMissingCell, A211PlanBadColumn, A212PlanSlotCollision,
        A213PlanDepTiming, A214PlanDepColumns, A215PlanUnstableParking, A216PlanBelowCapacity,
        A220FoldOutsidePage, A221FoldSlotCollision, A222FoldBrokenStep, A223FoldBackwardsStep,
        A224FoldRfOverflow, A225OrientationPlanMismatch, A301OpOnDeadPage,
        A302ColumnsNotContiguous, A303RemapNotBijective, A304DegradedShapeMismatch,
        A305FaultBookkeeping, A306ColumnOnDegradedPage, A310RecoveryOnUnrepairedPage,
        A311QuarantineViolated, A312IterationLoss, A401ProfileBadIi, A402ProfileConstraintInverted,
        A403ProfileOffChain, A404ProfileNotMonotone, A405ProfileUsedPagesOutOfRange,
    };
    vec![
        Operator {
            name: "shift-producer-late",
            expected: A005BadDataflow,
            run: shift_producer_late,
        },
        Operator {
            name: "clone-onto-occupied-slot",
            expected: A001PeSlotConflict,
            run: clone_onto_occupied_slot,
        },
        Operator {
            name: "congruent-mem-same-row",
            expected: A002BusOverflow,
            run: congruent_mem_same_row,
        },
        Operator {
            name: "capability-downgrade",
            expected: A003MissingFu,
            run: capability_downgrade,
        },
        Operator {
            name: "truncate-placements",
            expected: A004ShapeMismatch,
            run: truncate_placements,
        },
        Operator {
            name: "drop-route-hop",
            expected: A005BadDataflow,
            run: drop_route_hop,
        },
        Operator {
            name: "park-beyond-rf",
            expected: A101RfPressure,
            run: park_beyond_rf,
        },
        Operator {
            name: "stretch-lifetime",
            expected: A102LifetimeExceedsRotation,
            run: stretch_lifetime,
        },
        Operator {
            name: "cross-ring-step",
            expected: A201RingStepViolation,
            run: cross_ring_step,
        },
        Operator {
            name: "skip-ring-page",
            expected: A204PagedDepNotRing,
            run: skip_ring_page,
        },
        Operator {
            name: "overpark-paged-dep",
            expected: A202DepOverparked,
            run: overpark_paged_dep,
        },
        Operator {
            name: "remove-plan-cell",
            expected: A210PlanMissingCell,
            run: remove_plan_cell,
        },
        Operator {
            name: "column-out-of-range",
            expected: A211PlanBadColumn,
            run: column_out_of_range,
        },
        Operator {
            name: "collide-plan-cells",
            expected: A212PlanSlotCollision,
            run: collide_plan_cells,
        },
        Operator {
            name: "equalize-dep-times",
            expected: A213PlanDepTiming,
            run: equalize_dep_times,
        },
        Operator {
            name: "teleport-column",
            expected: A214PlanDepColumns,
            run: teleport_column,
        },
        Operator {
            name: "crush-span",
            expected: A216PlanBelowCapacity,
            run: crush_span,
        },
        Operator {
            name: "wobble-parked-column",
            expected: A215PlanUnstableParking,
            run: wobble_parked_column,
        },
        Operator {
            name: "back-column-with-dead-page",
            expected: A301OpOnDeadPage,
            run: back_column_with_dead_page,
        },
        Operator {
            name: "shuffle-columns",
            expected: A302ColumnsNotContiguous,
            run: shuffle_columns,
        },
        Operator {
            name: "alias-columns",
            expected: A303RemapNotBijective,
            run: alias_columns,
        },
        Operator {
            name: "drop-column",
            expected: A304DegradedShapeMismatch,
            run: drop_column,
        },
        Operator {
            name: "forget-dead-page",
            expected: A305FaultBookkeeping,
            run: forget_dead_page,
        },
        Operator {
            name: "degrade-backing-page",
            expected: A306ColumnOnDegradedPage,
            run: degrade_backing_page,
        },
        Operator {
            name: "reexpand-before-repair",
            expected: A310RecoveryOnUnrepairedPage,
            run: reexpand_before_repair,
        },
        Operator {
            name: "jump-quarantine",
            expected: A311QuarantineViolated,
            run: jump_quarantine,
        },
        Operator {
            name: "lose-iterations",
            expected: A312IterationLoss,
            run: lose_iterations,
        },
        Operator {
            name: "escape-target-page",
            expected: A220FoldOutsidePage,
            run: escape_target_page,
        },
        Operator {
            name: "collide-folded-ops",
            expected: A221FoldSlotCollision,
            run: collide_folded_ops,
        },
        Operator {
            name: "stretch-fold-step",
            expected: A222FoldBrokenStep,
            run: stretch_fold_step,
        },
        Operator {
            name: "reverse-fold-step",
            expected: A223FoldBackwardsStep,
            run: reverse_fold_step,
        },
        Operator {
            name: "shrink-rotating-file",
            expected: A224FoldRfOverflow,
            run: shrink_rotating_file,
        },
        Operator {
            name: "flip-orientation",
            expected: A225OrientationPlanMismatch,
            run: flip_orientation,
        },
        Operator {
            name: "zero-ii",
            expected: A401ProfileBadIi,
            run: zero_ii,
        },
        Operator {
            name: "invert-constraint-order",
            expected: A402ProfileConstraintInverted,
            run: invert_constraint_order,
        },
        Operator {
            name: "leave-halving-chain",
            expected: A403ProfileOffChain,
            run: leave_halving_chain,
        },
        Operator {
            name: "speed-up-small-m",
            expected: A404ProfileNotMonotone,
            run: speed_up_small_m,
        },
        Operator {
            name: "inflate-used-pages",
            expected: A405ProfileUsedPagesOutOfRange,
            run: inflate_used_pages,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_analyze_without_errors() {
        let a = Artifacts::build();
        let rep = a.baseline_report();
        assert!(!rep.has_errors(), "{}", rep.render());
    }

    #[test]
    fn operator_names_are_unique() {
        let ops = operators();
        let mut names: Vec<_> = ops.iter().map(|o| o.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ops.len());
    }
}
