//! Operand routing on the time-extended CGRA graph.
//!
//! Routing finds how a value travels from its producer's PE to its
//! consumer's PE through the mesh, cycle by cycle, reserving routing PEs
//! along the way. Search is over states `(pe, t)` = "the value is
//! available at `pe` at cycle `t`":
//!
//! * **Baseline** ([`route_baseline`]): waiting in an RF is free
//!   (`(pe,t) → (pe,t+1)`, no slot), moving costs a routing slot on the
//!   *destination* PE (`(pe,t) → (pe',t+1)` reserves `(pe', t mod II)`).
//!   0-1 BFS minimises hops, then delivery time.
//! * **Ring** ([`route_ring`], the paper's §VI-B data-flow constraint,
//!   stable-column discipline): same as baseline, but every hop and the
//!   final read must stay on the value's page or advance one page along
//!   the ring path — the shrink transform keeps each page's column fixed
//!   within an iteration, so parked values and single-page advances stay
//!   physically reachable after any shrink.
//! * **Strict** ([`route_strict`]): additionally no waiting — each cycle
//!   the value self-hops (a `Route` op on its own PE) or moves, so the
//!   page-level schedule contains only the canonical 1-step dependences
//!   of §VI-C (the input discipline for the paper's drifting Algorithm 1
//!   placement).
//!
//! Baseline and ring routing prune their search with a lower bound on the
//! hops a value still needs, `h(pe) = max(distance(pe, to) − 1,
//! page(to) − page(pe) − 1)`; the page term applies only under the ring,
//! where a consumer on an earlier page is unreachable. A hop moves one
//! link, advances at most one page and takes one cycle, so the bound is
//! exact to prune with: a request none of whose start sites could meet
//! the deadline or the hop budget fails before any search, and a state
//! `(pe, t)` with `t + h(pe) > deadline` is never pushed. Everything
//! reachable from such a state is as hopeless, so the states that remain
//! pop in the same order and the route found is unchanged.

use crate::mapping::RouteHop;
use crate::mrt::Mrt;
use cgra_arch::page::PageLayout;
use cgra_arch::topology::{Mesh, PeId};
use std::collections::VecDeque;

/// A routing problem: deliver the value available at `(from_pe, avail)` so
/// the consumer on `to_pe` can read it at `deadline` (from its own RF or
/// across one interconnect link).
#[derive(Debug, Clone, Copy)]
pub struct RouteRequest {
    /// Producer PE.
    pub from_pe: PeId,
    /// First cycle the value exists.
    pub avail: u32,
    /// Consumer PE.
    pub to_pe: PeId,
    /// Cycle the consumer reads.
    pub deadline: u32,
}

/// How the edge is realised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutePlan {
    /// No routing ops needed (same PE or one link, timing already legal).
    Direct,
    /// Routing hops to commit to the MRT.
    Chain(Vec<RouteHop>),
}

impl RoutePlan {
    /// The hops of this plan (empty for `Direct`).
    pub fn hops(&self) -> &[RouteHop] {
        match self {
            RoutePlan::Direct => &[],
            RoutePlan::Chain(h) => h,
        }
    }
}

fn ring_ok(ring: Option<&PageLayout>, from: PeId, to: PeId) -> bool {
    match ring {
        None => true,
        Some(layout) => layout.is_ring_step(layout.page_of(from), layout.page_of(to)),
    }
}

/// A place and time where the routed value is already available — the
/// producer's PE, or a landing of an already-committed route of the same
/// value (fanout sharing: one chain's intermediate stops can feed further
/// consumers without re-routing from the producer).
pub type ValueSite = (PeId, u32);

/// A lower bound on the hops a value on `pe` still needs before the
/// consumer on `to` can read it, or `None` when no path exists. Each hop
/// moves one link, so at least `distance − 1` hops remain (the consumer
/// reads across the last link). Under the ring, each hop advances at most
/// one page and never goes back, so at least `page(to) − page(pe) − 1`
/// hops remain, and a consumer on an earlier page is out of reach. The
/// bound is 0 exactly on the PEs the consumer can read from.
fn hops_lower_bound(mesh: Mesh, ring: Option<&PageLayout>, pe: PeId, to: PeId) -> Option<u32> {
    let links = mesh.distance(pe, to).saturating_sub(1);
    let Some(layout) = ring else {
        return Some(links);
    };
    let (from_page, to_page) = (layout.page_of(pe).0, layout.page_of(to).0);
    let pages = to_page.checked_sub(from_page)?.saturating_sub(1);
    Some(links.max(pages as u32))
}

/// Shared 0-1 BFS with free waiting; `ring` optionally restricts every
/// step (and the final read) to ring-path page motion. `extra_sites` are
/// additional starting states beyond the producer.
///
/// The search is pruned with [`hops_lower_bound`] `h`, without changing
/// the route it finds. A state `(pe, t)` is *dead* when
/// `t + h(pe) > deadline`: every hop takes a cycle, so no goal is
/// reachable from it. A hop lowers `h` by at most one and takes a cycle,
/// and a wait keeps `h` and takes a cycle, so every successor of a dead
/// state is dead too. Dead states are therefore never pushed: no live
/// state's cost or parent is set through one, and the live states pop in
/// the same order. If every start site is dead or needs more hops than
/// `hop_budget`, the search returns `None` before allocating anything.
fn bfs_route(
    mesh: Mesh,
    mrt: &Mrt,
    req: RouteRequest,
    ring: Option<&PageLayout>,
    hop_budget: u32,
    extra_sites: &[ValueSite],
) -> Option<RoutePlan> {
    if req.deadline < req.avail {
        return None;
    }
    let bound_at = |pe: PeId| hops_lower_bound(mesh, ring, pe, req.to_pe);
    // Direct read from the producer or any existing site.
    let direct_from = |pe: PeId, avail: u32| avail <= req.deadline && bound_at(pe) == Some(0);
    if direct_from(req.from_pe, req.avail) || extra_sites.iter().any(|&(pe, a)| direct_from(pe, a))
    {
        return Some(RoutePlan::Direct);
    }
    let reachable_from = |pe: PeId, avail: u32| {
        bound_at(pe).is_some_and(|h| h <= hop_budget && avail.saturating_add(h) <= req.deadline)
    };
    if !reachable_from(req.from_pe, req.avail)
        && !extra_sites.iter().any(|&(pe, a)| reachable_from(pe, a))
    {
        return None;
    }
    let start = req.avail.min(
        extra_sites
            .iter()
            .map(|&(_, a)| a)
            .min()
            .unwrap_or(req.avail),
    );
    let window = (req.deadline - start) as usize + 1;
    let n = mesh.num_pes();
    // `h` per PE; `u32::MAX` where the consumer is out of reach.
    let bound: Vec<u32> = mesh
        .pes()
        .map(|pe| bound_at(pe).unwrap_or(u32::MAX))
        .collect();
    let live = |pe: PeId, t: u32| t.saturating_add(bound[pe.index()]) <= req.deadline;
    let idx = |pe: PeId, t: u32| (t - start) as usize * n + pe.index();
    const UNSEEN: u32 = u32::MAX;
    let mut cost = vec![UNSEEN; n * window];
    let mut parent: Vec<(usize, bool)> = vec![(usize::MAX, false); n * window];
    let mut dq: VecDeque<(PeId, u32)> = VecDeque::new();
    for (pe, a) in std::iter::once((req.from_pe, req.avail)).chain(extra_sites.iter().copied()) {
        if live(pe, a) && cost[idx(pe, a)] == UNSEEN {
            cost[idx(pe, a)] = 0;
            dq.push_back((pe, a));
        }
    }

    let mut goal: Option<(PeId, u32)> = None;
    while let Some((pe, t)) = dq.pop_front() {
        let c = cost[idx(pe, t)];
        if bound[pe.index()] == 0 {
            goal = Some((pe, t));
            break;
        }
        if t == req.deadline {
            continue;
        }
        // Wait (cost 0) — push front.
        let wi = idx(pe, t + 1);
        if live(pe, t + 1) && (cost[wi] == UNSEEN || cost[wi] > c) {
            cost[wi] = c;
            parent[wi] = (idx(pe, t), false);
            dq.push_front((pe, t + 1));
        }
        // Hop (cost 1) — push back.
        if c < hop_budget {
            for nb in mesh.neighbors(pe) {
                if !ring_ok(ring, pe, nb) || !mrt.pe_free(nb, t as u64) || !live(nb, t + 1) {
                    continue;
                }
                let hi = idx(nb, t + 1);
                if cost[hi] == UNSEEN || cost[hi] > c + 1 {
                    cost[hi] = c + 1;
                    parent[hi] = (idx(pe, t), true);
                    dq.push_back((nb, t + 1));
                }
            }
        }
    }
    let (gpe, gt) = goal?;
    let mut hops = Vec::new();
    let mut cur = idx(gpe, gt);
    while parent[cur].0 != usize::MAX {
        let (prev, was_hop) = parent[cur];
        if was_hop {
            let t = start + (cur / n) as u32;
            let pe = PeId((cur % n) as u16);
            // The hop op executes the cycle *before* the value lands.
            hops.push(RouteHop { pe, time: t - 1 });
        }
        cur = prev;
    }
    hops.reverse();
    if hops.is_empty() {
        return Some(RoutePlan::Direct);
    }
    Some(RoutePlan::Chain(hops))
}

/// Route under baseline rules. Returns `None` if no legal realisation
/// exists within the deadline. `sites` are extra places the value is
/// already available (fanout sharing); pass `&[]` when there are none.
pub fn route_baseline(
    mesh: Mesh,
    mrt: &Mrt,
    req: RouteRequest,
    sites: &[ValueSite],
) -> Option<RoutePlan> {
    bfs_route(mesh, mrt, req, None, u32::MAX, sites)
}

/// Route under the paper's ring constraint with the stable-column
/// discipline: waiting allowed, every step ring-monotone.
pub fn route_ring(
    mesh: Mesh,
    layout: &PageLayout,
    mrt: &Mrt,
    req: RouteRequest,
    hop_budget: u32,
    sites: &[ValueSite],
) -> Option<RoutePlan> {
    bfs_route(mesh, mrt, req, Some(layout), hop_budget, sites)
}

/// Route under the strict 1-step discipline: the chain, if any, has
/// exactly `deadline − avail` hops (self-hops included); `None` if that
/// exceeds `chain_budget` or no ring-legal path exists.
pub fn route_strict(
    mesh: Mesh,
    layout: &PageLayout,
    mrt: &Mrt,
    req: RouteRequest,
    chain_budget: u32,
) -> Option<RoutePlan> {
    if req.deadline < req.avail {
        return None;
    }
    let steps = req.deadline - req.avail;
    if steps == 0 {
        let ok = (req.from_pe == req.to_pe || mesh.adjacent(req.from_pe, req.to_pe))
            && ring_ok(Some(layout), req.from_pe, req.to_pe);
        return ok.then_some(RoutePlan::Direct);
    }
    if steps > chain_budget {
        return None;
    }
    // BFS over exactly `steps` transitions; states (pe, step).
    let n = mesh.num_pes();
    let idx = |pe: PeId, step: u32| step as usize * n + pe.index();
    let mut seen = vec![false; n * (steps as usize + 1)];
    let mut parent = vec![usize::MAX; n * (steps as usize + 1)];
    let mut queue: VecDeque<(PeId, u32)> = VecDeque::new();
    seen[idx(req.from_pe, 0)] = true;
    queue.push_back((req.from_pe, 0));
    let mut goal: Option<PeId> = None;
    while let Some((pe, step)) = queue.pop_front() {
        if step == steps {
            if (pe == req.to_pe || mesh.adjacent(pe, req.to_pe))
                && ring_ok(Some(layout), pe, req.to_pe)
            {
                goal = Some(pe);
                break;
            }
            continue;
        }
        let t = req.avail + step; // hop op executes at this cycle
        let try_next = |nb: PeId,
                        queue: &mut VecDeque<(PeId, u32)>,
                        seen: &mut Vec<bool>,
                        parent: &mut Vec<usize>| {
            if !ring_ok(Some(layout), pe, nb) || !mrt.pe_free(nb, t as u64) {
                return;
            }
            let i = idx(nb, step + 1);
            if !seen[i] {
                seen[i] = true;
                parent[i] = idx(pe, step);
                queue.push_back((nb, step + 1));
            }
        };
        try_next(pe, &mut queue, &mut seen, &mut parent); // self-hop
        for nb in mesh.neighbors(pe) {
            try_next(nb, &mut queue, &mut seen, &mut parent);
        }
    }
    let gpe = goal?;
    let mut chain = Vec::with_capacity(steps as usize);
    let mut cur = idx(gpe, steps);
    while parent[cur] != usize::MAX {
        let step = (cur / n) as u32;
        let pe = PeId((cur % n) as u16);
        chain.push(RouteHop {
            pe,
            time: req.avail + step - 1,
        });
        cur = parent[cur];
    }
    chain.reverse();
    debug_assert_eq!(chain.len() as u32, steps);
    Some(RoutePlan::Chain(chain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_arch::CgraConfig;

    /// The router without the lower-bound pruning: the reference the
    /// pruned search must agree with on every request.
    fn bfs_route_unpruned(
        mesh: Mesh,
        mrt: &Mrt,
        req: RouteRequest,
        ring: Option<&PageLayout>,
        hop_budget: u32,
        extra_sites: &[ValueSite],
    ) -> Option<RoutePlan> {
        if req.deadline < req.avail {
            return None;
        }
        // Direct read from the producer or any existing site.
        let direct_from = |pe: PeId, avail: u32| {
            avail <= req.deadline
                && (pe == req.to_pe || mesh.adjacent(pe, req.to_pe))
                && ring_ok(ring, pe, req.to_pe)
        };
        if direct_from(req.from_pe, req.avail)
            || extra_sites.iter().any(|&(pe, a)| direct_from(pe, a))
        {
            return Some(RoutePlan::Direct);
        }
        let start = req.avail.min(
            extra_sites
                .iter()
                .map(|&(_, a)| a)
                .min()
                .unwrap_or(req.avail),
        );
        let window = (req.deadline - start) as usize + 1;
        let n = mesh.num_pes();
        let idx = |pe: PeId, t: u32| (t - start) as usize * n + pe.index();
        const UNSEEN: u32 = u32::MAX;
        let mut cost = vec![UNSEEN; n * window];
        let mut parent: Vec<(usize, bool)> = vec![(usize::MAX, false); n * window];
        let mut dq: VecDeque<(PeId, u32)> = VecDeque::new();
        cost[idx(req.from_pe, req.avail)] = 0;
        dq.push_back((req.from_pe, req.avail));
        for &(pe, a) in extra_sites {
            if a <= req.deadline && cost[idx(pe, a)] == UNSEEN {
                cost[idx(pe, a)] = 0;
                dq.push_back((pe, a));
            }
        }

        let mut goal: Option<(PeId, u32)> = None;
        while let Some((pe, t)) = dq.pop_front() {
            let c = cost[idx(pe, t)];
            if (pe == req.to_pe || mesh.adjacent(pe, req.to_pe)) && ring_ok(ring, pe, req.to_pe) {
                goal = Some((pe, t));
                break;
            }
            if t == req.deadline {
                continue;
            }
            // Wait (cost 0) — push front.
            let wi = idx(pe, t + 1);
            if cost[wi] == UNSEEN || cost[wi] > c {
                cost[wi] = c;
                parent[wi] = (idx(pe, t), false);
                dq.push_front((pe, t + 1));
            }
            // Hop (cost 1) — push back.
            if c < hop_budget {
                for nb in mesh.neighbors(pe) {
                    if !ring_ok(ring, pe, nb) || !mrt.pe_free(nb, t as u64) {
                        continue;
                    }
                    let hi = idx(nb, t + 1);
                    if cost[hi] == UNSEEN || cost[hi] > c + 1 {
                        cost[hi] = c + 1;
                        parent[hi] = (idx(pe, t), true);
                        dq.push_back((nb, t + 1));
                    }
                }
            }
        }
        let (gpe, gt) = goal?;
        let mut hops = Vec::new();
        let mut cur = idx(gpe, gt);
        while parent[cur].0 != usize::MAX {
            let (prev, was_hop) = parent[cur];
            if was_hop {
                let t = start + (cur / n) as u32;
                let pe = PeId((cur % n) as u16);
                // The hop op executes the cycle *before* the value lands.
                hops.push(RouteHop { pe, time: t - 1 });
            }
            cur = prev;
        }
        hops.reverse();
        if hops.is_empty() {
            return Some(RoutePlan::Direct);
        }
        Some(RoutePlan::Chain(hops))
    }

    /// The pruned router returns exactly what the unpruned search returns,
    /// on random occupancies, requests, sibling sites and hop budgets,
    /// with and without the ring constraint.
    #[test]
    fn pruned_router_matches_unpruned_reference() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let fabrics = [(4, 2), (4, 4), (4, 8), (6, 9), (8, 2), (8, 8)];
        let mut rng = StdRng::seed_from_u64(0x5EED_B0D5);
        let (mut direct, mut chains, mut none) = (0, 0, 0);
        for case in 0..4000 {
            let (dim, page_size) = fabrics[case % fabrics.len()];
            let c = CgraConfig::square(dim).with_page_size(page_size).unwrap();
            let mesh = c.mesh();
            let n = mesh.num_pes() as u16;
            let ii = rng.gen_range(1..7u32);
            let mut mrt = Mrt::new(mesh, ii, 1);
            let occupancy = rng.gen_range(0.0..0.6);
            for pe in mesh.pes() {
                for t in 0..ii {
                    if rng.gen_bool(occupancy) {
                        mrt.reserve(pe, t as u64, crate::mrt::SlotUse::Compute(0), false);
                    }
                }
            }
            let avail = rng.gen_range(0..6u32);
            let req = RouteRequest {
                from_pe: PeId(rng.gen_range(0..n)),
                avail,
                to_pe: PeId(rng.gen_range(0..n)),
                deadline: (avail + rng.gen_range(0..16u32)).saturating_sub(1),
            };
            let sites: Vec<ValueSite> = (0..rng.gen_range(0..4))
                .map(|_| {
                    (
                        PeId(rng.gen_range(0..n)),
                        rng.gen_range(0..req.deadline + 4),
                    )
                })
                .collect();
            let hop_budget = if rng.gen_bool(0.3) {
                u32::MAX
            } else {
                rng.gen_range(0..12u32)
            };
            let ring = rng.gen_bool(0.5).then(|| c.layout());
            let pruned = bfs_route(mesh, &mrt, req, ring, hop_budget, &sites);
            let reference = bfs_route_unpruned(mesh, &mrt, req, ring, hop_budget, &sites);
            assert_eq!(
                pruned,
                reference,
                "case {case}: {dim}x{dim}/p{page_size} ii={ii} {req:?} sites={sites:?} \
                 budget={hop_budget} ring={}",
                ring.is_some()
            );
            match pruned {
                Some(RoutePlan::Direct) => direct += 1,
                Some(RoutePlan::Chain(_)) => chains += 1,
                None => none += 1,
            }
        }
        // Every outcome is exercised many times.
        assert!(
            direct > 200 && chains > 200 && none > 200,
            "{direct} {chains} {none}"
        );
    }

    fn setup(ii: u32) -> (CgraConfig, Mrt) {
        let c = CgraConfig::square(4);
        let mrt = Mrt::new(c.mesh(), ii, 1);
        (c, mrt)
    }

    #[test]
    fn adjacent_is_direct() {
        let (c, mrt) = setup(4);
        let plan = route_baseline(
            c.mesh(),
            &mrt,
            RouteRequest {
                from_pe: PeId(0),
                avail: 1,
                to_pe: PeId(1),
                deadline: 5,
            },
            &[],
        );
        assert_eq!(plan, Some(RoutePlan::Direct));
    }

    #[test]
    fn two_hop_distance_needs_one_routing_pe() {
        let (c, mrt) = setup(4);
        // PE0 -> PE2: PE1 is adjacent to both; one hop onto PE1 lets the
        // consumer read across the last link.
        let plan = route_baseline(
            c.mesh(),
            &mrt,
            RouteRequest {
                from_pe: PeId(0),
                avail: 1,
                to_pe: PeId(2),
                deadline: 3,
            },
            &[],
        )
        .expect("routable");
        assert_eq!(plan.hops().len(), 1);
        assert_eq!(plan.hops()[0].pe, PeId(1));
    }

    #[test]
    fn deadline_too_tight_fails() {
        let (c, mrt) = setup(4);
        // PE0 to PE15 (corner to corner): needs 5 hops, deadline allows 1.
        let plan = route_baseline(
            c.mesh(),
            &mrt,
            RouteRequest {
                from_pe: PeId(0),
                avail: 1,
                to_pe: PeId(15),
                deadline: 2,
            },
            &[],
        );
        assert!(plan.is_none());
    }

    #[test]
    fn far_corner_routes_given_time() {
        let (c, mrt) = setup(8);
        let plan = route_baseline(
            c.mesh(),
            &mrt,
            RouteRequest {
                from_pe: PeId(0),
                avail: 1,
                to_pe: PeId(15),
                deadline: 8,
            },
            &[],
        )
        .expect("routable");
        // Manhattan distance 6; consumer reads across last link: 5 hops.
        assert_eq!(plan.hops().len(), 5);
    }

    #[test]
    fn baseline_routes_around_occupied_pes() {
        let (c, mut mrt) = setup(2);
        mrt.reserve(PeId(1), 0, crate::mrt::SlotUse::Compute(9), false);
        mrt.reserve(PeId(1), 1, crate::mrt::SlotUse::Compute(10), false);
        let plan = route_baseline(
            c.mesh(),
            &mrt,
            RouteRequest {
                from_pe: PeId(0),
                avail: 1,
                to_pe: PeId(2),
                deadline: 9,
            },
            &[],
        )
        .expect("routable around blockage");
        assert_eq!(plan.hops().len(), 3);
        assert!(plan.hops().iter().all(|h| h.pe != PeId(1)));
    }

    #[test]
    fn ring_route_rejects_backward_page_motion() {
        let (c, mrt) = setup(4);
        // PE2 (page 1) -> PE1 (page 0): backwards on the ring path.
        let plan = route_ring(
            c.mesh(),
            c.layout(),
            &mrt,
            RouteRequest {
                from_pe: PeId(2),
                avail: 3,
                to_pe: PeId(1),
                deadline: 12,
            },
            8,
            &[],
        );
        assert!(plan.is_none());
        // Forward: PE1 (page 0) -> PE2 (page 1) is direct.
        let plan = route_ring(
            c.mesh(),
            c.layout(),
            &mrt,
            RouteRequest {
                from_pe: PeId(1),
                avail: 3,
                to_pe: PeId(2),
                deadline: 3,
            },
            8,
            &[],
        );
        assert_eq!(plan, Some(RoutePlan::Direct));
    }

    #[test]
    fn ring_route_allows_waiting_then_crossing() {
        let (c, mrt) = setup(4);
        // PE0 (page 0) -> PE7 (row1,col3: page 1): distance 3. Value may
        // park at PE0 and hop through page 0/1 PEs.
        let plan = route_ring(
            c.mesh(),
            c.layout(),
            &mrt,
            RouteRequest {
                from_pe: PeId(0),
                avail: 1,
                to_pe: PeId(7),
                deadline: 9,
            },
            8,
            &[],
        )
        .expect("ring-forward route exists");
        // Never leaves pages 0/1.
        for h in plan.hops() {
            let p = c.layout().page_of(h.pe);
            assert!(p.0 <= 1, "hop on {}", h.pe);
        }
    }

    #[test]
    fn strict_zero_step_requires_ring_legality() {
        let (c, mrt) = setup(4);
        let plan = route_strict(
            c.mesh(),
            c.layout(),
            &mrt,
            RouteRequest {
                from_pe: PeId(2),
                avail: 3,
                to_pe: PeId(1),
                deadline: 3,
            },
            8,
        );
        assert!(plan.is_none());
    }

    #[test]
    fn strict_chain_is_contiguous_and_exact_length() {
        let (c, mrt) = setup(8);
        let plan = route_strict(
            c.mesh(),
            c.layout(),
            &mrt,
            RouteRequest {
                from_pe: PeId(0),
                avail: 2,
                to_pe: PeId(0),
                deadline: 5,
            },
            8,
        )
        .expect("self-delivery via self-hops");
        let hops = plan.hops();
        assert_eq!(hops.len(), 3);
        for (i, h) in hops.iter().enumerate() {
            assert_eq!(h.time, 2 + i as u32);
        }
    }

    #[test]
    fn strict_respects_chain_budget() {
        let (c, mrt) = setup(8);
        let plan = route_strict(
            c.mesh(),
            c.layout(),
            &mrt,
            RouteRequest {
                from_pe: PeId(0),
                avail: 0,
                to_pe: PeId(0),
                deadline: 7,
            },
            4,
        );
        assert!(plan.is_none());
    }

    #[test]
    fn strict_cannot_wrap_the_ring() {
        let (c, mrt) = setup(8);
        // Path semantics: page 3 -> page 0 (the wrap link) is rejected
        // even though the quadrant pages are physically adjacent.
        let plan = route_strict(
            c.mesh(),
            c.layout(),
            &mrt,
            RouteRequest {
                from_pe: PeId(8), // row2,col0: page 3
                avail: 0,
                to_pe: PeId(4), // row1,col0: page 0
                deadline: 0,
            },
            8,
        );
        assert!(plan.is_none());
    }

    #[test]
    fn baseline_hop_times_precede_landing() {
        let (c, mrt) = setup(8);
        let plan = route_baseline(
            c.mesh(),
            &mrt,
            RouteRequest {
                from_pe: PeId(0),
                avail: 1,
                to_pe: PeId(10),
                deadline: 8,
            },
            &[],
        )
        .expect("routable");
        let hops = plan.hops();
        for w in hops.windows(2) {
            assert!(w[0].time < w[1].time);
        }
        assert!(hops.first().map(|h| h.time >= 1).unwrap_or(true));
    }
}
