//! The iterative modulo-scheduling engine.
//!
//! This is the shared machinery behind both the baseline mapper and the
//! constrained mapper: for each candidate II starting at the MII, it
//! performs height-ordered list placement with joint operand routing over
//! the time-extended CGRA graph (the EMS family's structure: place a node,
//! immediately route the edges to its already-placed neighbours, reject
//! the spot if any edge cannot be routed). Randomised restarts with
//! jittered tie-breaking stand in for EMS's backtracking; kernels at CGRA
//! scale (≤ ~50 ops) converge within a handful of restarts.
//!
//! Placement visits its `(time, PE)` candidates lazily and stops at the
//! first one that commits, so a node that places early costs only the
//! candidates it tried. The candidate PEs are ordered by page distance
//! (from the node's target page), affinity and id; the walk then runs
//! time-major (time outer, PEs inner) or page-major (per page-distance
//! group, time outer, the group's PEs inner). That is the order of
//! sorting every `(time, PE)` pair by `(time, page distance, affinity,
//! PE)` or `(page distance, time, affinity, PE)`, without building the
//! list, so the first pair that commits is the same; the random draws
//! happen once per PE, before the walk. Like the routing pruning of
//! [`crate::route`], this saves work without changing a decision.
//!
//! **Speculative parallel attempts.** Attempt `i` of a search is restart
//! `i % restarts` at II `mii + i / restarts`, and what it decides is a
//! pure function of the graph, the fabric, the options and `i`: its RNG
//! is seeded from `(seed, II, restart)` and it reads nothing another
//! attempt wrote. So [`schedule`] runs attempts on the calling thread and
//! on helpers, one per core the process's core budget leaves idle (see
//! [`crate::cores`]; the calling thread takes another helper before each
//! attempt it claims, as cores free up). A helper is a job on the pool of
//! parked worker threads that [`crate::cores`] keeps, holding the idle
//! core it runs on: starting one hands it to a parked worker instead of
//! spawning a thread. The job holds an `Arc` of the search, which owns
//! its own copies of the graph, the fabric and the options, so it needs
//! nothing from the calling thread's stack and may outlive the call.
//! Each thread claims the next `i` from one atomic cursor and records its
//! attempts' outcomes in the search, by index: mapped and validated,
//! evicted with its violation count, or backtracked at an op, each
//! failure with its per-edge routing-failure counts. Nothing is traced
//! while they run.
//!
//! *Cancellation.* A validated success lowers the shared lowest success
//! with `fetch_min`. A thread claims nothing above it, and an attempt
//! above it stops before its next node; either way its outcome is never
//! read.
//!
//! *The commit is exact.* The cursor hands out indices in order, so when
//! the calling thread finds nothing left to claim, every attempt up to
//! the lowest success has been claimed, and none of them is cancelled,
//! since the lowest success only falls. The calling thread waits until
//! each of those attempts has recorded its outcome — not for the helpers
//! to end: one still finishing an attempt above the lowest success, or
//! not yet started, is not waited for, and gives its core back when it
//! ends. It then replays the outcomes in index order: it emits each
//! `Backtrack` or `Evict` and sums the failure counts, then emits the
//! winner's placements, routes and `MapEnd`; with no success it replays
//! every attempt. Those are the events, statistics and result of trying
//! the attempts one by one, which `tests::parallel_search_matches_serial`
//! checks against that loop. With no idle core, the same code runs every
//! attempt on the calling thread.
//!
//! Each thread owns a `Workspace`: the [`Router`] its attempts route
//! through (with the fabric's closed-form geometry, see
//! [`crate::route`]), the routable-SCC ids (a property of the graph, not
//! of the II or the restart), and the buffers placement fills per node —
//! incident edges, neighbour PEs, candidate PEs, their gates and fanout
//! sites. An attempt allocates only its own MRT, placement and route
//! tables, and a routed chain only its hop list. The router answers each
//! request exactly as a fresh search would (see [`crate::route`]), and the
//! buffers are cleared before each use, so every decision — and every
//! traced event — is the same whichever workspace an attempt runs on.
//!
//! **Per-node set-up.** Most candidates fail, so a candidate costs only
//! what depends on it. While one node's `(time, PE)` walk runs, the
//! placements and committed routes read at the start of each candidate do
//! not change: a candidate that fails rolls back everything it reserved,
//! and the first that commits ends the walk. So `place_node` gathers once
//! per node the node's *incident edges* (those whose other end is
//! placed), the fanout sites of the first of them, which is routed before
//! anything of the candidate is committed, and one *gate* per candidate
//! PE (below). The sites of later edges can include routes the candidate
//! itself just committed, so they are gathered per candidate, as before.
//! A candidate PE's sort key packs its page distance, affinity and id
//! into one `u64`, ordered as the `(page distance, affinity, PE)` tuple
//! is.
//!
//! **One route search per walk.** When the node consumes its first
//! incident edge from another node, over a routed edge in a waiting
//! mode, `place_node` begins a walk in the router for that edge and
//! routes it itself, before the candidate reserves anything, handing the
//! route to `try_commit`; a failure counts on the edge as before and
//! skips the candidate. The router answers a short walk per candidate,
//! with the pruned search, and a long one from one shared search (see
//! [`crate::route`] for when it switches and why both answer alike).
//! The test `walk_search_matches_route` checks the shared search on
//! every `(t, PE)` of random partial attempts against [`Router::route`].
//!
//! **Reject by bit tests.** A candidate `(t, PE)` reserves a slot and
//! routes only if three tests pass, in this order:
//!
//! 1. the PE's bit is clear in the MRT's busy word of phase `t mod II`;
//! 2. for a memory op, its bit is clear in that phase's saturated-bus
//!    word;
//! 3. `t` lies in the PE's gate: the times at which the first incident
//!    edge's timing can hold (a memory edge is not read before the datum
//!    is visible, a consumer does not read before its producer) and
//!    [`Router::rejects`] does not hold for its request.
//!
//! A candidate that fails test 3 counts one routing failure on that edge,
//! as the full path would, and reserves, gathers and rolls back nothing.
//! The gate is one time interval per PE because, with the PE fixed, only
//! `t` moves the first edge's request, and the producer, its `avail`,
//! `d·II` and the fanout sites stay fixed. Both the request's
//! `avail` and its deadline are `t` or a constant, so its slack
//! `deadline − avail` and its deadline move with `t` by −1, 0 or +1. The
//! checks bound them to intervals: the slack to at least 0 (or 1 on a
//! memory edge) and to `Router::slack_range` for the producer's site,
//! the deadline to at most `u32::MAX` and to at least
//! `Router::site_deadline` for a fanout site. For a consumer the
//! deadline `t + d·II` rises with `t`; for a producer `avail = t + 1`
//! does; in strict mode the slack is bounded on both ends (zero steps
//! only where the consumer can read, at most the chain budget). None of
//! the checks reads the MRT, so a gate computed before the walk answers
//! as the old per-candidate `edge_need` and [`Router::rejects`] did; the
//! test `gate_matches_edge_need_and_rejects` checks every `(t, PE)` of
//! random partial attempts against them.

use crate::cores;
use crate::error::MapError;
use crate::mapping::{fanout_sites, MapMode, Mapping, Placement, RouteHop};
use crate::mrt::{has, Mrt, SlotUse};
use crate::opts::MapOptions;
use crate::route::{RoutePlan, RouteRequest, Router, ValueSite};
use crate::spill::MapDfg;
use cgra_arch::{CgraConfig, PeId};
use cgra_dfg::graph::NodeId;
use cgra_obs::{TraceEvent, Tracer};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Edge latency: memory edges take 2 cycles (store execute + visibility),
/// everything else 1.
fn edge_latency(mdfg: &MapDfg, edge_index: usize) -> i64 {
    if mdfg.is_mem_edge(edge_index) {
        2
    } else {
        1
    }
}

/// ASAP start times at `ii` with memory-edge latencies, or `None` when a
/// recurrence makes `ii` infeasible.
pub fn asap_with_mem(mdfg: &MapDfg, ii: u32) -> Option<Vec<u32>> {
    let dfg = &mdfg.dfg;
    let n = dfg.num_nodes();
    let mut start = vec![0i64; n];
    // Bellman-Ford longest path; n+1 passes detect positive cycles.
    for pass in 0..=n {
        let mut changed = false;
        for (i, e) in dfg.edges().enumerate() {
            let w = edge_latency(mdfg, i) - ii as i64 * e.distance as i64;
            let cand = start[e.src.index()] + w;
            if cand > start[e.dst.index()] {
                start[e.dst.index()] = cand;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        if pass == n {
            return None;
        }
    }
    let min = start.iter().copied().min().unwrap_or(0);
    Some(start.iter().map(|&s| (s - min) as u32).collect())
}

/// The MII for this (possibly spill-augmented) graph on this fabric.
pub fn mii_with_mem(mdfg: &MapDfg, cgra: &CgraConfig) -> u32 {
    let mem_slots = cgra.mesh().rows() as usize * cgra.mem().buses_per_row() as usize;
    let res = cgra_dfg::analysis::res_mii_with_mem(&mdfg.dfg, cgra.num_pes(), mem_slots);
    // RecMII with mem-edge latency: smallest feasible ii by linear scan
    // from the plain-latency RecMII (mem edges only lengthen cycles).
    let mut ii = cgra_dfg::analysis::rec_mii(&mdfg.dfg);
    while asap_with_mem(mdfg, ii).is_none() {
        ii += 1;
    }
    res.max(ii)
}

/// Statistics from a failed placement attempt, used by the constrained
/// mapper to pick spill candidates.
#[derive(Debug, Default, Clone)]
pub struct FailureStats {
    /// Per-edge count of routing failures across all attempts.
    pub edge_route_failures: Vec<u32>,
}

/// How many pages the kernel needs at `ii`: enough PE slots for all ops,
/// and enough tile rows that memory ops do not saturate the row buses
/// within one II window.
fn used_pages_estimate(mdfg: &MapDfg, cgra: &CgraConfig, ii: u32) -> u16 {
    let layout = cgra.layout();
    let total = layout.num_pages();
    let shape = layout.shape();
    let ii = ii as usize;
    let nodes = mdfg.dfg.num_nodes();
    let pages_for_ops = nodes.div_ceil(ii * shape.size());
    let pages_per_tile_row = (cgra.mesh().cols() / shape.w) as usize;
    let mem_slots_per_tile_row = ii * shape.h as usize * cgra.mem().buses_per_row() as usize;
    let mem_ops = mdfg.dfg.num_mem_ops();
    let pages_for_mem = mem_ops.div_ceil(mem_slots_per_tile_row.max(1)) * pages_per_tile_row;
    pages_for_ops.max(pages_for_mem).max(1).min(total) as u16
}

/// SCC ids over the *routable* (non-memory) edges. Under the ring path
/// constraint a recurrence cycle can never advance pages, so all members
/// of a routable SCC must share one page.
fn routable_scc_of(mdfg: &MapDfg) -> Vec<usize> {
    // Build a reduced graph with mem edges dropped and run Tarjan on it.
    let dfg = &mdfg.dfg;
    let nodes: Vec<cgra_dfg::graph::Node> = dfg.node_ids().map(|n| dfg.node(n).clone()).collect();
    let edges: Vec<cgra_dfg::graph::Edge> = dfg
        .edges()
        .enumerate()
        .filter(|(i, _)| !mdfg.is_mem_edge(*i))
        .map(|(_, e)| e)
        .collect();
    let reduced = cgra_dfg::graph::Dfg::from_parts("reduced".into(), nodes, edges);
    let comps = cgra_dfg::analysis::sccs(&reduced);
    let mut comp_of = vec![usize::MAX; dfg.num_nodes()];
    for (ci, comp) in comps.iter().enumerate() {
        for n in comp {
            comp_of[n.index()] = ci;
        }
    }
    comp_of
}

/// What the attempts one thread of a [`schedule`] call runs share: the
/// router and the buffers placement refills per node.
struct Workspace {
    router: Router,
    /// Routable-SCC id per node (ring modes only).
    scc_of: Vec<usize>,
    /// The incident edges of the node being placed.
    node: NodeEdges,
    /// PEs of the placed neighbours of the node being placed.
    neighbour_pes: Vec<PeId>,
    /// Candidate PEs of the node being placed, as sort keys (see
    /// `place_node`).
    pes: Vec<u64>,
    /// The gate of each candidate PE, in `pes` order.
    gates: Vec<Gate>,
    /// The PEs the node being placed cannot take at the walk's current
    /// phase, as MRT words.
    blocked: Vec<u64>,
    /// Fanout sites of the edge being routed, past the first.
    sites: Vec<ValueSite>,
}

impl Workspace {
    fn new(mdfg: &MapDfg, cgra: &CgraConfig, mode: MapMode, opts: &MapOptions) -> Self {
        Workspace {
            router: Router::new(cgra, mode, opts.chain_budget),
            scc_of: if mode.ring_constrained() {
                routable_scc_of(mdfg)
            } else {
                Vec::new()
            },
            node: NodeEdges::default(),
            neighbour_pes: Vec::new(),
            pes: Vec::new(),
            gates: Vec::new(),
            blocked: Vec::new(),
            sites: Vec::new(),
        }
    }
}

/// The edges a node's candidates must route, gathered once per node: its
/// edges whose other end is placed (none has a route yet, since the node
/// is their unplaced end), and the fanout sites of the first of them.
#[derive(Default)]
struct NodeEdges {
    incident: Vec<usize>,
    first_sites: Vec<ValueSite>,
}

/// An inclusive interval of placement times, empty when its start is
/// after its end. Its ends stay within `±INF`, far beyond any `u32` time,
/// so the arithmetic of [`solve`] cannot overflow.
type Gate = (i64, i64);

/// The end of an interval that is open on that side.
const INF: i64 = 1 << 48;
/// Every time.
const ALWAYS: Gate = (-INF, INF);
/// No time.
const NEVER: Gate = (1, 0);
/// A gate not computed yet.
const UNSET: Gate = (INF, -INF);

/// `{t : lo ≤ c + k·t ≤ hi}` for `k` in `−1..=1`.
fn solve(c: i64, k: i64, lo: i64, hi: i64) -> Gate {
    match k {
        0 if (lo..=hi).contains(&c) => ALWAYS,
        0 => NEVER,
        1 => (lo - c, hi - c),
        _ => (c - hi, c - lo),
    }
}

/// The times in both `a` and `b`.
fn meet(a: Gate, b: Gate) -> Gate {
    (a.0.max(b.0), a.1.min(b.1))
}

/// The times in `a` or `b`, which must overlap or touch unless one is
/// empty.
fn join(a: Gate, b: Gate) -> Gate {
    if a.0 > a.1 {
        return b;
    }
    if b.0 > b.1 {
        return a;
    }
    debug_assert!(
        a.0 <= b.1 + 1 && b.0 <= a.1 + 1,
        "{a:?} and {b:?} leave a gap"
    );
    (a.0.min(b.0), a.1.max(b.1))
}

/// What an edge asks of the router for one tentative placement.
enum EdgeNeed {
    /// A memory edge whose timing holds: nothing to route.
    Nothing,
    /// Timing no route can meet.
    Infeasible,
    /// A route to search for.
    Route(RouteRequest),
}

struct Attempt<'a, 'w> {
    mdfg: &'a MapDfg,
    cgra: &'a CgraConfig,
    mode: MapMode,
    ii: u32,
    ws: &'w mut Workspace,
    mrt: Mrt,
    placed: Vec<Option<Placement>>,
    routes: Vec<Option<Vec<RouteHop>>>,
    stats: FailureStats,
    /// Page already chosen for an SCC, once any member is placed.
    scc_page: Vec<Option<u16>>,
    /// Restart-diversity knob: order all candidates time-major (see
    /// `place_node`).
    time_major: bool,
    /// `target_page`'s scale, fixed for the attempt: the pages the kernel
    /// needs less one, and the largest ASAP time (at least 1).
    wavefront: (u64, u64),
}

impl<'a, 'w> Attempt<'a, 'w> {
    fn new(
        mdfg: &'a MapDfg,
        cgra: &'a CgraConfig,
        mode: MapMode,
        ii: u32,
        asap: &[u32],
        ws: &'w mut Workspace,
    ) -> Self {
        let num_sccs = ws.scc_of.iter().copied().max().map_or(0, |m| m + 1);
        let used_pages = used_pages_estimate(mdfg, cgra, ii);
        Attempt {
            mrt: Mrt::new(cgra.mesh(), ii, cgra.mem().buses_per_row()),
            placed: vec![None; mdfg.dfg.num_nodes()],
            routes: vec![None; mdfg.dfg.num_edges()],
            stats: FailureStats {
                edge_route_failures: vec![0; mdfg.dfg.num_edges()],
            },
            scc_page: vec![None; num_sccs],
            time_major: false,
            wavefront: (
                used_pages as u64 - 1,
                asap.iter().copied().max().unwrap_or(0).max(1) as u64,
            ),
            mdfg,
            cgra,
            mode,
            ii,
            ws,
        }
    }

    /// Page bounds for node `v` under the ring path constraint: at least
    /// the max page of placed (non-mem) predecessors, at most the min page
    /// of placed (non-mem) successors; pinned exactly if an SCC sibling is
    /// already placed.
    fn page_bounds(&self, v: NodeId) -> (u16, u16) {
        let layout = self.cgra.layout();
        let last = layout.num_pages() as u16 - 1;
        if !self.mode.ring_constrained() {
            return (0, last);
        }
        let scc_of = &self.ws.scc_of;
        if let Some(p) = self.scc_page[scc_of[v.index()]] {
            return (p, p);
        }
        let dfg = &self.mdfg.dfg;
        let mut lo = 0u16;
        let mut hi = last;
        for e in dfg.pred_edges(v) {
            if self.mdfg.is_mem_edge(e.index()) {
                continue;
            }
            let src = dfg.edge(e).src;
            if src == v {
                continue;
            }
            if let Some(pu) = self.placed[src.index()] {
                lo = lo.max(layout.page_of(pu.pe).0);
            } else if let Some(p) = self.scc_page[scc_of[src.index()]] {
                // The producer is unplaced but its recurrence is already
                // pinned: it will end up on page `p`.
                lo = lo.max(p);
            }
        }
        for e in dfg.succ_edges(v) {
            if self.mdfg.is_mem_edge(e.index()) {
                continue;
            }
            let dst = dfg.edge(e).dst;
            if dst == v {
                continue;
            }
            if let Some(pw) = self.placed[dst.index()] {
                hi = hi.min(layout.page_of(pw.pe).0);
            } else if let Some(p) = self.scc_page[scc_of[dst.index()]] {
                hi = hi.min(p);
            }
        }
        (lo, hi)
    }

    /// What edge `edge_index`, incident to `v` tentatively at `cand`,
    /// asks of the router.
    fn edge_need(&self, edge_index: usize, v: NodeId, cand: Placement) -> EdgeNeed {
        let e = self.mdfg.dfg.edge(cgra_dfg::EdgeId(edge_index as u32));
        let (pu, pv) = if e.src == e.dst {
            (cand, cand) // self-loop (accumulators)
        } else if e.src == v {
            (cand, self.placed[e.dst.index()].expect("dst placed"))
        } else {
            (self.placed[e.src.index()].expect("src placed"), cand)
        };
        let consume = pv.time as i64 + e.distance as i64 * self.ii as i64;
        if self.mdfg.is_mem_edge(edge_index) {
            // Timing only: load reads at `consume`, data visible t_u + 2.
            return if consume >= pu.time as i64 + 2 {
                EdgeNeed::Nothing
            } else {
                EdgeNeed::Infeasible
            };
        }
        let avail = pu.time + 1;
        if consume < avail as i64 || consume > u32::MAX as i64 {
            return EdgeNeed::Infeasible;
        }
        EdgeNeed::Route(RouteRequest {
            from_pe: pu.pe,
            avail,
            to_pe: pv.pe,
            deadline: consume as u32,
        })
    }

    /// The times at which `v` on `pe` passes the checks of its incident
    /// edge `edge_index`, whose fanout sites are `sites`: the times `t` at
    /// which [`Attempt::edge_need`] of `(t, pe)` is not `Infeasible` and
    /// [`Router::rejects`] does not hold for its request (see the module
    /// docs).
    fn gate(&self, edge_index: usize, v: NodeId, pe: PeId, sites: &[ValueSite]) -> Gate {
        let e = self.mdfg.dfg.edge(cgra_dfg::EdgeId(edge_index as u32));
        let dii = e.distance as i64 * self.ii as i64;
        // With `v` at time `t`, the value is available at `a0 + ka·t` on
        // `from`, and consumed at `c0 + kc·t` on `to`.
        let (from, a0, ka) = if e.src == v {
            (pe, 1, 1)
        } else {
            let pu = self.placed[e.src.index()].expect("src placed");
            (pu.pe, pu.time as i64 + 1, 0)
        };
        let (to, c0, kc) = if e.dst == v {
            (pe, dii, 1)
        } else {
            let pw = self.placed[e.dst.index()].expect("dst placed");
            (pw.pe, pw.time as i64 + dii, 0)
        };
        // The slack `consume − avail` is `s0 + ks·t`.
        let (s0, ks) = (c0 - a0, kc - ka);
        if self.mdfg.is_mem_edge(edge_index) {
            // Timing only: consume ≥ t_u + 2, one past `avail`.
            return solve(s0, ks, 1, INF);
        }
        let timely = meet(solve(s0, ks, 0, INF), solve(c0, kc, -INF, u32::MAX as i64));
        let router = &self.ws.router;
        let producer = router
            .slack_range(from, to)
            .map_or(NEVER, |(lo, hi)| solve(s0, ks, lo as i64, hi as i64));
        let site = router
            .site_deadline(to, sites)
            .map_or(NEVER, |earliest| solve(c0, kc, earliest as i64, INF));
        meet(timely, join(producer, site))
    }

    /// Route one edge incident to a tentative placement of `v` at `cand`.
    /// `sites` are the value's fanout sites if the caller gathered them;
    /// otherwise they are gathered here. Returns the plan, or `None`
    /// (recording the failure).
    fn route_edge(
        &mut self,
        edge_index: usize,
        v: NodeId,
        cand: Placement,
        sites: Option<&[ValueSite]>,
    ) -> Option<RoutePlan> {
        let plan = match self.edge_need(edge_index, v, cand) {
            EdgeNeed::Nothing => Some(RoutePlan::Direct),
            EdgeNeed::Infeasible => None,
            EdgeNeed::Route(req) => {
                let ws = &mut *self.ws;
                let sites = sites.unwrap_or_else(|| {
                    let routes = |e: usize| self.routes[e].as_deref();
                    ws.sites.clear();
                    ws.sites
                        .extend(fanout_sites(self.mdfg, self.mode, edge_index, routes));
                    &ws.sites
                });
                ws.router.route(&self.mrt, req, sites)
            }
        };
        if plan.is_none() {
            self.stats.edge_route_failures[edge_index] += 1;
        }
        plan
    }

    /// Reserve the hops of edge `ei`'s route `plan`. On failure nothing of
    /// the edge stays reserved.
    fn commit_edge(&mut self, ei: usize, plan: RoutePlan) -> bool {
        let hops = match plan {
            RoutePlan::Direct => Vec::new(),
            RoutePlan::Chain(hops) => hops,
        };
        // Reserve hop slots; an intra-chain modulo alias is a commit
        // failure (rare; the restart will re-roll).
        let slot = SlotUse::Route(ei as u32);
        let mut done = 0;
        while done < hops.len() && self.mrt.pe_free(hops[done].pe, hops[done].time as u64) {
            self.mrt
                .reserve(hops[done].pe, hops[done].time as u64, slot, false);
            done += 1;
        }
        if done < hops.len() {
            for h in &hops[..done] {
                self.mrt.release(h.pe, h.time as u64, slot, false);
            }
            self.stats.edge_route_failures[ei] += 1;
            return false;
        }
        self.routes[ei] = Some(hops);
        true
    }

    /// Try to commit `v` at `cand`, whose slot (and bus, for a memory op)
    /// is free: reserve its slot, route and reserve every edge of `node`
    /// (gathered by `place_node`), the first by `first` when the walk has
    /// routed it already. Rolls back on failure.
    fn try_commit(
        &mut self,
        v: NodeId,
        cand: Placement,
        node: &NodeEdges,
        mut first: Option<RoutePlan>,
    ) -> bool {
        let op = self.mdfg.dfg.node(v).op;
        self.mrt.reserve(
            cand.pe,
            cand.time as u64,
            SlotUse::Compute(v.0),
            op.is_mem(),
        );

        let committed = node
            .incident
            .iter()
            .enumerate()
            .take_while(|&(i, &ei)| {
                let plan = first.take().or_else(|| {
                    let sites = (i == 0).then_some(&node.first_sites[..]);
                    self.route_edge(ei, v, cand, sites)
                });
                plan.is_some_and(|plan| self.commit_edge(ei, plan))
            })
            .count();
        let ok = committed == node.incident.len();
        if ok {
            self.placed[v.index()] = Some(cand);
        } else {
            // Roll back the routes committed so far, then `v`'s own slot.
            for &ei in &node.incident[..committed] {
                let hops = self.routes[ei].take().expect("committed edge has a route");
                for h in hops {
                    self.mrt
                        .release(h.pe, h.time as u64, SlotUse::Route(ei as u32), false);
                }
            }
            self.mrt.release(
                cand.pe,
                cand.time as u64,
                SlotUse::Compute(v.0),
                op.is_mem(),
            );
        }
        ok
    }

    /// Whether `v`'s walk shares one search for its first incident edge
    /// `e0`: `v` consumes it from another node over a routed edge, in a
    /// waiting mode. If so, begin the router's walk for it, whose last
    /// time is `hi_window` and whose fanout sites are `sites` (see the
    /// module docs).
    fn begin_walk(&mut self, e0: usize, v: NodeId, hi_window: i64, sites: &[ValueSite]) -> bool {
        let e = self.mdfg.dfg.edge(cgra_dfg::EdgeId(e0 as u32));
        if !self.mode.allows_waiting() || self.mdfg.is_mem_edge(e0) || e.dst != v || e.src == v {
            return false;
        }
        let pu = self.placed[e.src.index()].expect("src placed");
        let last = hi_window + e.distance as i64 * self.ii as i64;
        let last = last.min(u32::MAX as i64) as u32;
        self.ws.router.walk_begin(pu.pe, pu.time + 1, sites, last);
        true
    }

    /// The page a node would ideally sit on: proportional to its ASAP
    /// depth across the pages the kernel needs, so dataflow sweeps the
    /// ring as a wavefront with small per-edge page advances while still
    /// spreading memory ops over enough tile rows.
    fn target_page(&self, v: NodeId, asap: &[u32]) -> u16 {
        let (last_used, max_asap) = self.wavefront;
        (asap[v.index()] as u64 * last_used / max_asap) as u16
    }

    /// The times `v` may take given its placed neighbours, as the
    /// inclusive range the walk tries (at most `2·II` long), or `None`
    /// when they leave none.
    fn window(&self, v: NodeId, asap: &[u32]) -> Option<(i64, i64)> {
        let dfg = &self.mdfg.dfg;
        let ii = self.ii as i64;
        let mut lo = asap[v.index()] as i64;
        let mut hi = i64::MAX;
        for e in dfg.pred_edges(v) {
            let edge = dfg.edge(e);
            if let Some(pu) = self.placed[edge.src.index()] {
                lo = lo.max(
                    pu.time as i64 + edge_latency(self.mdfg, e.index()) - ii * edge.distance as i64,
                );
            }
        }
        for e in dfg.succ_edges(v) {
            let edge = dfg.edge(e);
            if edge.dst == v {
                continue;
            }
            if let Some(pw) = self.placed[edge.dst.index()] {
                hi = hi.min(
                    pw.time as i64 - edge_latency(self.mdfg, e.index()) + ii * edge.distance as i64,
                );
            }
        }
        lo = lo.max(0);
        (hi >= lo).then(|| (lo, hi.min(lo + 2 * ii - 1)))
    }

    /// Fill `node` with `v`'s incident edges and the fanout sites of the
    /// first of them (see the module docs).
    fn gather_edges(&self, v: NodeId, node: &mut NodeEdges) {
        let dfg = &self.mdfg.dfg;
        node.incident.clear();
        node.incident.extend(
            dfg.pred_edges(v)
                .filter(|e| {
                    let src = dfg.edge(*e).src;
                    src == v || self.placed[src.index()].is_some()
                })
                .chain(dfg.succ_edges(v).filter(|e| {
                    let dst = dfg.edge(*e).dst;
                    dst != v && self.placed[dst.index()].is_some()
                }))
                .map(|e| e.index()),
        );
        node.first_sites.clear();
        if let Some(&e0) = node.incident.first() {
            let sites = fanout_sites(self.mdfg, self.mode, e0, |e| self.routes[e].as_deref());
            node.first_sites.extend(sites);
        }
    }

    fn place_node(&mut self, v: NodeId, asap: &[u32], rng: &mut StdRng) -> bool {
        let dfg = &self.mdfg.dfg;
        let ii = self.ii as i64;
        let Some((lo, hi_window)) = self.window(v, asap) else {
            return false;
        };

        // Candidate PEs: within the legal page range, ordered by page
        // (earliest legal page first — compact forward flow), then by
        // mesh affinity to placed neighbours.
        let (page_lo, page_hi) = self.page_bounds(v);
        if page_hi < page_lo {
            return false;
        }
        let neighbour_pes = &mut self.ws.neighbour_pes;
        neighbour_pes.clear();
        neighbour_pes.extend(
            dfg.pred_edges(v)
                .map(|e| dfg.edge(e).src)
                .chain(dfg.succ_edges(v).map(|e| dfg.edge(e).dst))
                .filter(|&n| n != v)
                .filter_map(|n| self.placed[n.index()].map(|p| p.pe)),
        );
        let mesh = self.cgra.mesh();
        let layout = self.cgra.layout();
        // Ring modes flow forward as a wavefront: prefer pages near the
        // ASAP-proportional target. Baseline placement is page-agnostic
        // (affinity only).
        let target = self
            .mode
            .ring_constrained()
            .then(|| self.target_page(v, asap).clamp(page_lo, page_hi));
        // Each candidate's key is `page_key << 48 | affinity << 16 | pe`:
        // 16, 32 and 16 bits, so sorting the keys sorts by
        // `(page_key, affinity, pe)`.
        let ws = &mut *self.ws;
        let (neighbour_pes, geometry) = (&ws.neighbour_pes, ws.router.geometry());
        let pes = &mut ws.pes;
        pes.clear();
        pes.extend(
            mesh.pes()
                .filter(|&pe| {
                    let p = layout.page_of(pe).0;
                    (page_lo..=page_hi).contains(&p)
                })
                .map(|pe| {
                    let affinity: u32 = neighbour_pes
                        .iter()
                        .map(|&np| geometry.distance(pe, np))
                        .sum();
                    let page_key = target.map_or(0, |target| layout.page_of(pe).0.abs_diff(target));
                    let aff = affinity + rng.gen_range(0..3);
                    (page_key as u64) << 48 | (aff as u64) << 16 | pe.0 as u64
                }),
        );
        let mut pes = std::mem::take(pes);
        pes.sort_unstable();
        // Candidate order. For *source* ops (no placed producers — loads,
        // constants) the best page comes first: time-major ordering would
        // exhaust each row bus's slot 0 across the whole array, scattering
        // co-consumed loads onto far pages. For ops with placed producers
        // the earliest time comes first (tight schedules), with the page
        // preference breaking ties.
        let time_major = self.time_major
            || dfg.pred_edges(v).any(|e| {
                let src = dfg.edge(e).src;
                src != v && self.placed[src.index()].is_some() && !self.mdfg.is_mem_edge(e.index())
            });
        // Per-node set-up (see the module docs): the incident edges and
        // the first one's fanout sites.
        let mut node = std::mem::take(&mut self.ws.node);
        self.gather_edges(v, &mut node);
        // The first edge's gate per candidate PE (see the module docs),
        // computed when the walk first needs it.
        let first = node.incident.first().copied();
        let mut gates = std::mem::take(&mut self.ws.gates);
        gates.clear();
        gates.resize(pes.len(), if first.is_some() { UNSET } else { ALWAYS });
        let shared = first.filter(|&e0| self.begin_walk(e0, v, hi_window, &node.first_sites));
        // Walk `(t, pe)` lazily and stop at the first commit: page-major
        // tries each `page_key` group at every time before the next group;
        // time-major is the same walk over one group holding every PE.
        let is_mem = dfg.node(v).op.is_mem();
        let mut blocked = std::mem::take(&mut self.ws.blocked);
        let mut placed = None;
        let mut start = 0;
        'walk: while start < pes.len() {
            // The group's end, found by the walk's first time step.
            let mut end = pes.len();
            for t in lo..=hi_window {
                // A candidate that fails rolls back what it reserved, so
                // the blocked PEs stay fixed while the walk stays at `t`.
                self.mrt
                    .blocked_at_phase((t % ii) as u32, is_mem, &mut blocked);
                for i in start..end {
                    let key = pes[i];
                    if !time_major && key >> 48 != pes[start] >> 48 {
                        end = i;
                        break;
                    }
                    let pe = PeId(key as u16);
                    if has(&blocked, pe) {
                        continue;
                    }
                    let gate = &mut gates[i];
                    if let (UNSET, Some(e0)) = (*gate, first) {
                        *gate = self.gate(e0, v, pe, &node.first_sites);
                    }
                    if !(gate.0..=gate.1).contains(&t) {
                        // Only a first incident edge closes a gate.
                        self.stats.edge_route_failures[node.incident[0]] += 1;
                        continue;
                    }
                    let cand = Placement { pe, time: t as u32 };
                    // A shared first edge is routed before `try_commit`
                    // reserves anything (see the module docs).
                    let mut plan = None;
                    if let Some(e0) = shared {
                        if let EdgeNeed::Route(req) = self.edge_need(e0, v, cand) {
                            plan = self.ws.router.walk_route(&self.mrt, req);
                        }
                        if plan.is_none() {
                            self.stats.edge_route_failures[e0] += 1;
                            continue;
                        }
                    }
                    if self.try_commit(v, cand, &node, plan) {
                        placed = Some(cand);
                        break 'walk;
                    }
                }
            }
            start = end;
        }
        self.ws.node = node;
        self.ws.pes = pes;
        self.ws.gates = gates;
        self.ws.blocked = blocked;
        let Some(cand) = placed else {
            return false;
        };
        if self.mode.ring_constrained() {
            self.scc_page[self.ws.scc_of[v.index()]] = Some(layout.page_of(cand.pe).0);
        }
        true
    }
}

/// Outcome of [`schedule`]: a mapping plus the failure statistics of the
/// unsuccessful attempts (for spill selection).
pub struct ScheduleOutcome {
    /// The mapping, if one was found.
    pub mapping: Result<Mapping, MapError>,
    /// Accumulated routing-failure counts per edge.
    pub stats: FailureStats,
}

/// Search for a modulo schedule of `mdfg` on `cgra` under `mode`, between
/// the MII and `mii + opts.max_ii_slack`.
///
/// The search's decisions — begin, backtracks, validator evictions,
/// final placements/routes, end — are emitted to `tracer`. With the
/// tracer off, events are never constructed. Attempts run on the calling
/// thread and on pooled helpers on idle cores (see the module docs); the
/// result, the statistics and the events are those of trying every
/// attempt in turn.
pub fn schedule(
    mdfg: &MapDfg,
    cgra: &CgraConfig,
    mode: MapMode,
    opts: &MapOptions,
    tracer: &Tracer,
) -> ScheduleOutcome {
    search(mdfg, cgra, mode, opts, tracer, Helpers::Idle)
}

/// Where a search's helpers come from.
#[derive(Clone, Copy)]
enum Helpers {
    /// One pool job per idle core of the budget, taken before each of the
    /// calling thread's attempts (see [`crate::cores`]).
    Idle,
    /// Exactly this many pool jobs, holding no core, started with the
    /// search, whatever the budget.
    #[cfg(test)]
    Exactly(usize),
}

#[cfg(test)]
thread_local! {
    /// Makes attempt `k` of every search this thread starts panic, on
    /// whichever thread runs it, with the payload `"attempt k"`.
    static PANIC_AT: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// What one attempt came to.
enum Outcome {
    /// Its II has no ASAP schedule.
    Skipped,
    /// Placement could not place this op.
    Backtracked { op: u32, stats: FailureStats },
    /// Every op placed, but the validator found this many violations.
    Evicted {
        violations: u32,
        stats: FailureStats,
    },
    /// Mapped and validated.
    Mapped(Mapping),
    /// Stopped because a lower attempt mapped; never committed.
    Cancelled,
    /// Panicked, with this payload, which the commit re-raises on the
    /// calling thread.
    Panicked(Box<dyn std::any::Any + Send>),
}

/// The attempts of one [`schedule`] call: attempt `i` is restart
/// `i % restarts` at II `mii + i / restarts`. The search owns what its
/// attempts read, so its helpers, which share it through an `Arc`, can
/// outlive the call.
struct Search {
    mdfg: MapDfg,
    cgra: CgraConfig,
    mode: MapMode,
    opts: MapOptions,
    mii: u32,
    heights: Vec<u32>,
    /// How many attempts there are.
    tasks: usize,
    /// The next attempt to claim.
    cursor: AtomicUsize,
    /// The lowest attempt that mapped so far, or `usize::MAX`.
    ///
    /// Both atomics are `Relaxed`: they publish no data. Each only falls
    /// or only rises, so a stale read costs at most one attempt that is
    /// then never read, and the outcomes reach the calling thread through
    /// the `outcomes` lock.
    best: AtomicUsize,
    outcomes: Mutex<Outcomes>,
    /// Signalled when an outcome is recorded while the calling thread
    /// waits.
    ran: Condvar,
    /// The attempt that panics (see [`PANIC_AT`]).
    #[cfg(test)]
    panic_at: Option<usize>,
}

/// The outcomes of a search's attempts so far.
#[derive(Default)]
struct Outcomes {
    /// Each attempt's outcome once it has run, by index (as far as the
    /// highest that has).
    ran: Vec<Option<Outcome>>,
    /// Whether the calling thread waits for more of them.
    waiting: bool,
}

impl Search {
    /// The `(II, restart)` of attempt `i`.
    fn coords(&self, i: usize) -> (u32, u32) {
        let restarts = self.opts.restarts as usize;
        (self.mii + (i / restarts) as u32, (i % restarts) as u32)
    }

    /// Whether another helper would find work beside the calling thread
    /// and its `helpers` helpers: no attempt has mapped, and more attempts
    /// are left to claim than they take next.
    fn has_spare(&self, helpers: usize) -> bool {
        self.best.load(Ordering::Relaxed) == usize::MAX
            && self.cursor.load(Ordering::Relaxed) + 1 + helpers < self.tasks
    }

    /// A workspace for this search's attempts.
    fn workspace(&self) -> Workspace {
        Workspace::new(&self.mdfg, &self.cgra, self.mode, &self.opts)
    }

    /// Claim attempts and run them on `ws` until none is left below the
    /// lowest success, recording each outcome; `before` runs ahead of
    /// each claim.
    fn work(&self, ws: &mut Workspace, mut before: impl FnMut()) {
        let mut asap: Option<(u32, Option<Vec<u32>>)> = None;
        loop {
            before();
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.tasks || i > self.best.load(Ordering::Relaxed) {
                return;
            }
            let (ii, _) = self.coords(i);
            if asap.as_ref().is_none_or(|&(at, _)| at != ii) {
                asap = Some((ii, asap_with_mem(&self.mdfg, ii)));
            }
            let outcome = match asap.as_ref().and_then(|(_, a)| a.as_deref()) {
                None => Outcome::Skipped,
                // Caught so that the calling thread, which waits for this
                // outcome, panics too instead of waiting forever.
                Some(asap) => {
                    std::panic::catch_unwind(AssertUnwindSafe(|| self.attempt(i, asap, &mut *ws)))
                        .unwrap_or_else(Outcome::Panicked)
                }
            };
            if let Outcome::Mapped(_) = outcome {
                self.best.fetch_min(i, Ordering::Relaxed);
            }
            let mut outcomes = self.outcomes.lock().expect("outcome lock poisoned");
            let ran = &mut outcomes.ran;
            if ran.len() <= i {
                ran.resize_with(i + 1, || None);
            }
            ran[i] = Some(outcome);
            if outcomes.waiting {
                self.ran.notify_one();
            }
        }
    }

    /// Wait until every attempt up to the lowest success (or every
    /// attempt, when none mapped) has run, and take their outcomes in
    /// index order. Attempts above it may still be running; they are
    /// never read.
    fn committable(&self) -> Vec<Outcome> {
        let mut outcomes = self.outcomes.lock().expect("outcome lock poisoned");
        loop {
            let end = self.best.load(Ordering::Relaxed).saturating_add(1);
            let ran = &mut outcomes.ran[..];
            if let Some(ran) = ran.get_mut(..end.min(self.tasks)) {
                if ran.iter().all(Option::is_some) {
                    return ran.iter_mut().filter_map(Option::take).collect();
                }
            }
            outcomes.waiting = true;
            outcomes = self.ran.wait(outcomes).expect("outcome lock poisoned");
        }
    }

    /// Run attempt `i`, whose II's ASAP times are `asap`, on `ws`. It
    /// stops at its next node once a lower attempt has mapped.
    fn attempt(&self, i: usize, asap: &[u32], ws: &mut Workspace) -> Outcome {
        #[cfg(test)]
        if self.panic_at == Some(i) {
            panic!("attempt {i}");
        }
        let (mdfg, heights) = (&self.mdfg, &self.heights);
        let (ii, restart) = self.coords(i);
        // Height-first order (ties by ASAP then id), jittered per restart.
        let mut rng = StdRng::seed_from_u64(self.opts.seed ^ (ii as u64) << 32 ^ restart as u64);
        let mut order: Vec<NodeId> = mdfg.dfg.node_ids().collect();
        let jitter: Vec<u32> = order
            .iter()
            .map(|_| if restart == 0 { 0 } else { rng.gen_range(0..3) })
            .collect();
        // ASAP-primary keeps producers ahead of their intra-iteration
        // consumers (a consumer placed first would box its producers
        // into a tiny time window); height breaks ties toward the
        // critical path, jittered across restarts for diversity.
        order.sort_by_key(|n| {
            (
                asap[n.index()],
                std::cmp::Reverse(heights[n.index()] + jitter[n.index()]),
                n.0,
            )
        });
        let mut attempt = Attempt::new(mdfg, &self.cgra, self.mode, ii, asap, ws);
        // Alternate candidate-ordering strategy across restarts: some
        // kernels pack better page-major (bus-heavy), others
        // time-major (dependence-heavy).
        attempt.time_major = restart % 2 == 1;
        for &v in &order {
            if i > self.best.load(Ordering::Relaxed) {
                return Outcome::Cancelled;
            }
            if !attempt.place_node(v, asap, &mut rng) {
                return Outcome::Backtracked {
                    op: v.0,
                    stats: attempt.stats,
                };
            }
        }
        let mapping = Mapping {
            ii,
            placements: attempt
                .placed
                .into_iter()
                .map(|p| p.expect("all nodes placed on success"))
                .collect(),
            routes: attempt
                .routes
                .into_iter()
                .map(|r| r.unwrap_or_default())
                .collect(),
        };
        // Acceptance gate: the engine does not track RF pressure
        // incrementally (waiting values accumulate per PE), so a
        // "successful" attempt can still overflow a register file.
        // Re-check everything with the independent validator; on
        // failure, roll the dice again.
        let violations = crate::mapping::validate_mapping(mdfg, &self.cgra, &mapping, self.mode);
        if violations.is_empty() {
            Outcome::Mapped(mapping)
        } else {
            Outcome::Evicted {
                violations: violations.len() as u32,
                stats: attempt.stats,
            }
        }
    }
}

/// [`schedule`], with helpers from `helpers`.
fn search(
    mdfg: &MapDfg,
    cgra: &CgraConfig,
    mode: MapMode,
    opts: &MapOptions,
    tracer: &Tracer,
    helpers: Helpers,
) -> ScheduleOutcome {
    tracer.emit(|| TraceEvent::MapBegin {
        kernel: mdfg.dfg.name.clone(),
        ops: mdfg.dfg.num_nodes() as u32,
        mode: format!("{mode:?}"),
    });
    let mii = mii_with_mem(mdfg, cgra);
    let hi = mii + opts.max_ii_slack;
    let tasks = (hi - mii + 1) as usize * opts.restarts as usize;
    let search = Arc::new(Search {
        mdfg: mdfg.clone(),
        cgra: cgra.clone(),
        mode,
        opts: *opts,
        mii,
        heights: cgra_dfg::analysis::heights(&mdfg.dfg),
        tasks,
        cursor: AtomicUsize::new(0),
        best: AtomicUsize::new(usize::MAX),
        outcomes: Mutex::default(),
        ran: Condvar::new(),
        #[cfg(test)]
        panic_at: PANIC_AT.get(),
    });

    // Run the attempts: this thread holds a core of its own unless it
    // already does, and each helper is a pool job holding the idle core it
    // runs on. A helper that cannot start runs nothing, and the other
    // threads run its attempts.
    let own = cores::hold_thread();
    let helper = |core: Option<cores::Hold>| {
        let search = Arc::clone(&search);
        cores::spawn(core, move || search.work(&mut search.workspace(), || {})).is_some()
    };
    let mut started = 0;
    #[cfg(test)]
    if let Helpers::Exactly(n) = helpers {
        started = (0..n).filter(|_| helper(None)).count();
    }
    // One more helper before each attempt this thread claims, so a search
    // that maps early starts few helpers on a many-core machine.
    search.work(&mut search.workspace(), || {
        if matches!(helpers, Helpers::Idle) && search.has_spare(started) {
            started += usize::from(cores::take_idle().is_some_and(|core| helper(Some(core))));
        }
    });
    // This thread computes nothing while it waits for its helpers.
    drop(own);
    let outcomes = cores::lending(|| search.committable());

    // Commit in attempt order: every attempt up to the lowest success ran
    // to its end, so replaying them gives the serial search's events and
    // statistics, and its winner.
    let mut stats = FailureStats {
        edge_route_failures: vec![0; mdfg.dfg.num_edges()],
    };
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let (ii, restart) = search.coords(i);
        let failed = match outcome {
            Outcome::Skipped => continue,
            Outcome::Backtracked { op, stats } => {
                tracer.emit(|| TraceEvent::Backtrack { ii, restart, op });
                stats
            }
            Outcome::Evicted { violations, stats } => {
                tracer.emit(|| TraceEvent::Evict {
                    ii,
                    restart,
                    violations,
                });
                stats
            }
            Outcome::Mapped(mapping) => {
                emit_mapping(mdfg, cgra, &mapping, tracer);
                return ScheduleOutcome {
                    mapping: Ok(mapping),
                    stats,
                };
            }
            Outcome::Cancelled => unreachable!("attempt {i} below the lowest success stopped"),
            Outcome::Panicked(payload) => std::panic::resume_unwind(payload),
        };
        for (a, b) in stats
            .edge_route_failures
            .iter_mut()
            .zip(&failed.edge_route_failures)
        {
            *a += *b;
        }
    }
    tracer.emit(|| TraceEvent::MapEnd {
        kernel: mdfg.dfg.name.clone(),
        ii: hi,
        success: false,
    });
    ScheduleOutcome {
        mapping: Err(MapError::NoScheduleFound {
            mii,
            max_ii_tried: hi,
        }),
        stats,
    }
}

/// Emit the winning `mapping`'s placements and routes, and the search's
/// successful end.
fn emit_mapping(mdfg: &MapDfg, cgra: &CgraConfig, mapping: &Mapping, tracer: &Tracer) {
    if tracer.is_on() {
        let layout = cgra.layout();
        for (op, p) in mapping.placements.iter().enumerate() {
            tracer.emit(|| TraceEvent::Place {
                op: op as u32,
                pe: p.pe.0 as u32,
                page: layout.page_of(p.pe).0,
                time: p.time,
            });
        }
        for (edge, hops) in mapping.routes.iter().enumerate() {
            if !hops.is_empty() {
                tracer.emit(|| TraceEvent::Route {
                    edge: edge as u32,
                    hops: hops.len() as u32,
                });
            }
        }
    }
    tracer.emit(|| TraceEvent::MapEnd {
        kernel: mdfg.dfg.name.clone(),
        ii: mapping.ii,
        success: true,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::validate_mapping;
    use cgra_dfg::{DfgBuilder, OpKind};

    fn chain3() -> MapDfg {
        let mut b = DfgBuilder::new("chain");
        let x = b.node(OpKind::Load);
        let y = b.apply(OpKind::Add, &[x]);
        b.apply(OpKind::Store, &[y]);
        MapDfg::unspilled(&b.build().unwrap())
    }

    /// Schedule `mdfg` on a 4x4 under default options and check the
    /// mapping with the independent validator.
    fn schedule_4x4(mdfg: &MapDfg, mode: MapMode) -> Mapping {
        let cgra = cgra_arch::CgraConfig::square(4);
        let opts = MapOptions::default();
        let out = schedule(mdfg, &cgra, mode, &opts, &Tracer::off());
        let m = out.mapping.expect("kernel maps");
        assert!(validate_mapping(mdfg, &cgra, &m, mode).is_empty());
        m
    }

    /// Seeded random partial attempts on every fabric of the paper grid,
    /// in all three modes, on kernels with random spills (memory edges)
    /// and random chain budgets: before each node's walk, for every PE and
    /// every time of the node's window widened by II on each side, the
    /// gate of the first incident edge holds exactly when the checks it
    /// replaces pass, which this test keeps as its reference: `edge_need`
    /// is not `Infeasible`, and `Router::rejects` does not hold for the
    /// request.
    #[test]
    fn gate_matches_edge_need_and_rejects() {
        let mut rng = StdRng::seed_from_u64(0x6A7E_5EED);
        let kernels = cgra_dfg::kernels::all();
        let modes = [
            MapMode::Baseline,
            MapMode::Constrained,
            MapMode::ConstrainedStrict,
        ];
        let (mut open, mut shut, mut nodes) = (0u64, 0u64, 0u64);
        for (dim, sizes) in cgra_arch::PAPER_GRID {
            for &size in sizes {
                let cgra = cgra_arch::fabric(dim, size).unwrap();
                for mode in modes {
                    for attempt_no in 0..8 {
                        let kernel = &kernels[rng.gen_range(0..kernels.len())];
                        let spills = (0..kernel.num_edges())
                            .filter(|_| rng.gen_bool(0.2))
                            .collect();
                        let mdfg = MapDfg::with_spills(kernel, &spills);
                        let opts = MapOptions {
                            chain_budget: rng.gen_range(0..12),
                            ..MapOptions::default()
                        };
                        let ii = mii_with_mem(&mdfg, &cgra) + rng.gen_range(0..3);
                        let asap = asap_with_mem(&mdfg, ii).expect("II at or above the MII");
                        let mut order: Vec<NodeId> = mdfg.dfg.node_ids().collect();
                        order.sort_by_key(|n| (asap[n.index()], n.0));
                        let mut ws = Workspace::new(&mdfg, &cgra, mode, &opts);
                        let mut attempt = Attempt::new(&mdfg, &cgra, mode, ii, &asap, &mut ws);
                        attempt.time_major = rng.gen_bool(0.5);
                        let why = format!(
                            "{dim}x{dim}/p{size} {mode:?} #{attempt_no} {} II {ii}",
                            kernel.name
                        );
                        for &v in &order {
                            let Some((lo, hi)) = attempt.window(v, &asap) else {
                                break;
                            };
                            let mut node = NodeEdges::default();
                            attempt.gather_edges(v, &mut node);
                            if let Some(&e0) = node.incident.first() {
                                nodes += 1;
                                let span = (lo - ii as i64).max(0)..=hi + ii as i64;
                                for pe in cgra.mesh().pes() {
                                    let gate = attempt.gate(e0, v, pe, &node.first_sites);
                                    for t in span.clone() {
                                        let cand = Placement { pe, time: t as u32 };
                                        let passes = match attempt.edge_need(e0, v, cand) {
                                            EdgeNeed::Nothing => true,
                                            EdgeNeed::Infeasible => false,
                                            EdgeNeed::Route(req) => {
                                                !attempt.ws.router.rejects(req, &node.first_sites)
                                            }
                                        };
                                        assert_eq!(
                                            (gate.0..=gate.1).contains(&t),
                                            passes,
                                            "{why}: node {v:?} edge {e0} at ({pe}, {t}), gate {gate:?}"
                                        );
                                        if passes {
                                            open += 1;
                                        } else {
                                            shut += 1;
                                        }
                                    }
                                }
                            }
                            if !attempt.place_node(v, &asap, &mut rng) {
                                break;
                            }
                        }
                    }
                }
            }
        }
        // Both verdicts are exercised many times.
        assert!(
            nodes > 1500 && open > 200_000 && shut > 200_000,
            "{nodes} {open} {shut}"
        );
    }

    /// Check the walk search of `v`'s walk in `attempt`, whose window is
    /// `lo..=hi`, against `Router::route` (see `walk_search_matches_route`),
    /// counting the direct, chained and failed answers in `counts`.
    /// Returns whether the walk shares its first edge and has a candidate.
    fn check_walk(
        attempt: &mut Attempt<'_, '_>,
        v: NodeId,
        (lo, hi): (i64, i64),
        rng: &mut StdRng,
        counts: &mut [u64; 3],
        why: &str,
    ) -> bool {
        let mut node = NodeEdges::default();
        attempt.gather_edges(v, &mut node);
        let sites = &node.first_sites[..];
        let Some(e0) = node.incident.first().copied() else {
            return false;
        };
        if !attempt.begin_walk(e0, v, hi, sites) {
            return false;
        }
        let is_mem = attempt.mdfg.dfg.node(v).op.is_mem();
        let mut queries = Vec::new();
        for t in lo..=hi {
            for pe in attempt.cgra.mesh().pes() {
                let gate = attempt.gate(e0, v, pe, sites);
                let free = attempt.mrt.pe_free(pe, t as u64)
                    && (!is_mem || attempt.mrt.bus_free(pe, t as u64));
                if free && (gate.0..=gate.1).contains(&t) {
                    queries.push(Placement { pe, time: t as u32 });
                }
            }
        }
        for shuffled in [false, true] {
            if shuffled {
                for i in (1..queries.len()).rev() {
                    queries.swap(i, rng.gen_range(0..i + 1));
                }
            }
            attempt.begin_walk(e0, v, hi, sites);
            attempt.ws.router.walk_search_now();
            for &cand in &queries {
                let EdgeNeed::Route(req) = attempt.edge_need(e0, v, cand) else {
                    panic!("{why}: an open gate at {cand:?} makes no request");
                };
                let shared = attempt.ws.router.walk_route(&attempt.mrt, req);
                let before = attempt.ws.router.route(&attempt.mrt, req, sites);
                let slot = SlotUse::Compute(v.0);
                attempt.mrt.reserve(cand.pe, cand.time as u64, slot, is_mem);
                let alone = attempt.ws.router.route(&attempt.mrt, req, sites);
                attempt.mrt.release(cand.pe, cand.time as u64, slot, is_mem);
                let why = format!("{why}: {v:?} at {cand:?}, shuffled {shuffled}, {req:?}");
                assert_eq!(shared, alone, "{why}, sites {sites:?}");
                assert_eq!(before, alone, "{why}, sites {sites:?}");
                counts[match shared {
                    Some(RoutePlan::Direct) => 0,
                    Some(RoutePlan::Chain(_)) => 1,
                    None => 2,
                }] += 1;
            }
        }
        !queries.is_empty()
    }

    /// Seeded random partial attempts on every fabric of the paper grid,
    /// in both waiting modes, on kernels with random spills (memory edges)
    /// and random chain budgets, with the fanout sites their committed
    /// routes leave: before each node's walk whose first incident edge the
    /// node consumes from another node, for every `(t, PE)` of the node's
    /// window whose gate is open and whose slot is free, the walk search
    /// on the walk-start MRT returns what `Router::route` returns with the
    /// candidate's compute slot reserved, and what it returns before the
    /// slot is reserved. Each window's queries run once in time order, as
    /// a time-major walk asks them, and once shuffled, as page-major walks
    /// revisit earlier deadlines, each from a fresh walk search.
    #[test]
    fn walk_search_matches_route() {
        let mut rng = StdRng::seed_from_u64(0x5EA2_C4ED);
        let kernels = cgra_dfg::kernels::all();
        let (mut counts, mut walks) = ([0u64; 3], 0);
        for (dim, sizes) in cgra_arch::PAPER_GRID {
            for &size in sizes {
                let cgra = cgra_arch::fabric(dim, size).unwrap();
                for mode in [MapMode::Baseline, MapMode::Constrained] {
                    for attempt_no in 0..4 {
                        let kernel = &kernels[rng.gen_range(0..kernels.len())];
                        let spills = (0..kernel.num_edges())
                            .filter(|_| rng.gen_bool(0.2))
                            .collect();
                        let mdfg = MapDfg::with_spills(kernel, &spills);
                        let opts = MapOptions {
                            chain_budget: rng.gen_range(0..12),
                            ..MapOptions::default()
                        };
                        let ii = mii_with_mem(&mdfg, &cgra) + rng.gen_range(0..3);
                        let asap = asap_with_mem(&mdfg, ii).expect("II at or above the MII");
                        let mut order: Vec<NodeId> = mdfg.dfg.node_ids().collect();
                        order.sort_by_key(|n| (asap[n.index()], n.0));
                        let mut ws = Workspace::new(&mdfg, &cgra, mode, &opts);
                        let mut attempt = Attempt::new(&mdfg, &cgra, mode, ii, &asap, &mut ws);
                        attempt.time_major = rng.gen_bool(0.5);
                        let why = format!(
                            "{dim}x{dim}/p{size} {mode:?} #{attempt_no} {} II {ii}",
                            kernel.name
                        );
                        for &v in &order {
                            let Some(window) = attempt.window(v, &asap) else {
                                break;
                            };
                            let checked =
                                check_walk(&mut attempt, v, window, &mut rng, &mut counts, &why);
                            walks += u64::from(checked);
                            if !attempt.place_node(v, &asap, &mut rng) {
                                break;
                            }
                        }
                    }
                }
            }
        }
        // Every answer is exercised many times.
        let [direct, chains, none] = counts;
        assert!(
            walks > 500 && direct > 20_000 && chains > 20_000 && none > 20_000,
            "{walks} {direct} {chains} {none}"
        );
    }

    /// The serial search that [`schedule`] replaced, kept as the
    /// reference of `parallel_search_matches_serial`: every attempt in
    /// `(II, restart)` order on one workspace, emitting each event as it
    /// decides it, until one maps and validates.
    fn serial_schedule(
        mdfg: &MapDfg,
        cgra: &CgraConfig,
        mode: MapMode,
        opts: &MapOptions,
        tracer: &Tracer,
    ) -> ScheduleOutcome {
        tracer.emit(|| TraceEvent::MapBegin {
            kernel: mdfg.dfg.name.clone(),
            ops: mdfg.dfg.num_nodes() as u32,
            mode: format!("{mode:?}"),
        });
        let mii = mii_with_mem(mdfg, cgra);
        let hi = mii + opts.max_ii_slack;
        let mut stats = FailureStats {
            edge_route_failures: vec![0; mdfg.dfg.num_edges()],
        };
        let heights = cgra_dfg::analysis::heights(&mdfg.dfg);
        let mut ws = Workspace::new(mdfg, cgra, mode, opts);
        for ii in mii..=hi {
            let Some(asap) = asap_with_mem(mdfg, ii) else {
                continue;
            };
            for restart in 0..opts.restarts {
                let mut rng = StdRng::seed_from_u64(opts.seed ^ (ii as u64) << 32 ^ restart as u64);
                let mut order: Vec<NodeId> = mdfg.dfg.node_ids().collect();
                let jitter: Vec<u32> = order
                    .iter()
                    .map(|_| if restart == 0 { 0 } else { rng.gen_range(0..3) })
                    .collect();
                order.sort_by_key(|n| {
                    (
                        asap[n.index()],
                        std::cmp::Reverse(heights[n.index()] + jitter[n.index()]),
                        n.0,
                    )
                });
                let mut attempt = Attempt::new(mdfg, cgra, mode, ii, &asap, &mut ws);
                attempt.time_major = restart % 2 == 1;
                let failed = order
                    .iter()
                    .copied()
                    .find(|&v| !attempt.place_node(v, &asap, &mut rng));
                if let Some(op) = failed {
                    tracer.emit(|| TraceEvent::Backtrack {
                        ii,
                        restart,
                        op: op.0,
                    });
                } else {
                    let mapping = Mapping {
                        ii,
                        placements: attempt.placed.iter().map(|p| p.unwrap()).collect(),
                        routes: attempt
                            .routes
                            .iter()
                            .map(|r| r.clone().unwrap_or_default())
                            .collect(),
                    };
                    let violations = validate_mapping(mdfg, cgra, &mapping, mode);
                    if violations.is_empty() {
                        emit_mapping(mdfg, cgra, &mapping, tracer);
                        return ScheduleOutcome {
                            mapping: Ok(mapping),
                            stats,
                        };
                    }
                    tracer.emit(|| TraceEvent::Evict {
                        ii,
                        restart,
                        violations: violations.len() as u32,
                    });
                }
                for (a, b) in stats
                    .edge_route_failures
                    .iter_mut()
                    .zip(&attempt.stats.edge_route_failures)
                {
                    *a += *b;
                }
            }
        }
        tracer.emit(|| TraceEvent::MapEnd {
            kernel: mdfg.dfg.name.clone(),
            ii: hi,
            success: false,
        });
        ScheduleOutcome {
            mapping: Err(MapError::NoScheduleFound {
                mii,
                max_ii_tried: hi,
            }),
            stats,
        }
    }

    /// Run `search` with a recording tracer: its outcome and events.
    fn recorded(
        search: impl FnOnce(&Tracer) -> ScheduleOutcome,
    ) -> (ScheduleOutcome, Vec<TraceEvent>) {
        let sink = std::sync::Arc::new(cgra_obs::RingSink::unbounded());
        let out = search(&Tracer::new(sink.clone()));
        (out, sink.drain())
    }

    /// Seeded random and paper kernels with random spills, on every
    /// fabric of the paper grid, in all three modes, under tight options
    /// (0–2 IIs of slack, 1–4 restarts, short chains) so that many
    /// searches fail or map only after failed attempts: the search with 0,
    /// 1 and 3 helpers returns the serial search's mapping, failure
    /// statistics and events, the helpers running as pool jobs.
    #[test]
    fn parallel_search_matches_serial() {
        let mut rng = StdRng::seed_from_u64(0x5EA2_0A11);
        let mut kernels = cgra_dfg::kernels::all();
        kernels.extend((0..6).map(|seed| {
            let params = cgra_dfg::random::RandomDfgParams {
                recurrences: seed as usize % 3,
                ..Default::default()
            };
            cgra_dfg::random::random_dfg(seed, params)
        }));
        let modes = [
            MapMode::Baseline,
            MapMode::Constrained,
            MapMode::ConstrainedStrict,
        ];
        let (mut mapped, mut failed, mut after_failures) = (0, 0, 0);
        for (dim, sizes) in cgra_arch::PAPER_GRID {
            for &size in sizes {
                let cgra = cgra_arch::fabric(dim, size).unwrap();
                for mode in modes {
                    for _ in 0..4 {
                        let kernel = &kernels[rng.gen_range(0..kernels.len())];
                        let spills = (0..kernel.num_edges())
                            .filter(|_| rng.gen_bool(0.15))
                            .collect();
                        let mdfg = MapDfg::with_spills(kernel, &spills);
                        let opts = MapOptions {
                            max_ii_slack: rng.gen_range(0..3),
                            restarts: rng.gen_range(1..5),
                            seed: rng.next_u64(),
                            chain_budget: rng.gen_range(1..6),
                            ..MapOptions::default()
                        };
                        let why = format!("{dim}x{dim}/p{size} {mode:?} {} {opts:?}", kernel.name);
                        let (want, want_events) =
                            recorded(|t| serial_schedule(&mdfg, &cgra, mode, &opts, t));
                        for n in [0, 1, 3] {
                            let (got, events) = recorded(|t| {
                                search(&mdfg, &cgra, mode, &opts, t, Helpers::Exactly(n))
                            });
                            let why = format!("{why}, {n} helpers");
                            assert_eq!(got.mapping, want.mapping, "{why}");
                            assert_eq!(
                                got.stats.edge_route_failures, want.stats.edge_route_failures,
                                "{why}"
                            );
                            assert_eq!(events, want_events, "{why}");
                        }
                        let attempts_failed = want_events
                            .iter()
                            .filter(|e| {
                                matches!(e, TraceEvent::Backtrack { .. } | TraceEvent::Evict { .. })
                            })
                            .count();
                        match want.mapping {
                            Ok(_) if attempts_failed > 0 => after_failures += 1,
                            Ok(_) => mapped += 1,
                            Err(_) => failed += 1,
                        }
                    }
                }
            }
        }
        // Searches that map at once, after failed attempts, and not at all.
        assert!(
            mapped > 15 && after_failures > 15 && failed > 30,
            "{mapped} {after_failures} {failed}"
        );
    }

    /// 200 back-to-back searches, each starting pool jobs (three with no
    /// core, or helpers on idle cores): the pool starts no more workers
    /// than the most jobs ever in flight at once, however many jobs it
    /// ran, and busy cores never exceed the machine's.
    #[test]
    fn pooled_helpers_start_no_more_workers_than_jobs_in_flight() {
        let cgra = cgra_arch::CgraConfig::square(4);
        let opts = MapOptions {
            max_ii_slack: 1,
            restarts: 4,
            ..MapOptions::default()
        };
        let kernels = cgra_dfg::kernels::all();
        for n in 0..200 {
            let mdfg = MapDfg::unspilled(&kernels[n % kernels.len()]);
            let helpers = if n % 2 == 0 {
                Helpers::Exactly(3)
            } else {
                Helpers::Idle
            };
            search(
                &mdfg,
                &cgra,
                MapMode::Baseline,
                &opts,
                &Tracer::off(),
                helpers,
            );
            assert!(cores::busy() <= cores::available());
            let (_, workers, peak) = cores::stats();
            assert!(
                workers <= peak,
                "{workers} workers, at most {peak} jobs in flight"
            );
        }
        // Other tests share the pool: its counts include their jobs.
        let (jobs, workers, peak) = cores::stats();
        assert!(jobs >= 300, "{jobs} jobs");
        assert!(
            workers <= peak,
            "{workers} workers, at most {peak} jobs in flight"
        );
    }

    /// Attempt `k` panics, on a helper or on the calling thread, with two
    /// helpers and with none, for every attempt the search commits: the
    /// caller sees the attempt's own payload, no core stays held, and the
    /// next 20 searches map as before without starting a worker.
    #[test]
    fn a_panicking_attempt_reraises_its_payload_and_leaves_the_pool_whole() {
        let cgra = cgra_arch::CgraConfig::square(4);
        let opts = MapOptions {
            max_ii_slack: 1,
            restarts: 4,
            ..MapOptions::default()
        };
        let mode = MapMode::Constrained;
        // A kernel that maps only after failed attempts, so that the
        // attempt that maps is not the first.
        let (mdfg, want, last) = cgra_dfg::kernels::all()
            .iter()
            .find_map(|kernel| {
                let mdfg = MapDfg::unspilled(kernel);
                let serial = |t: &Tracer| search(&mdfg, &cgra, mode, &opts, t, Helpers::Exactly(0));
                let (want, events) = recorded(serial);
                let failed = events
                    .iter()
                    .filter(|e| {
                        matches!(e, TraceEvent::Backtrack { .. } | TraceEvent::Evict { .. })
                    })
                    .count();
                (want.mapping.is_ok() && failed > 0).then_some((mdfg, want, failed))
            })
            .expect("a kernel that maps after failed attempts");
        // Waits until `n` parked workers could take the next search's
        // helpers; other tests' jobs hold a worker for a while at most.
        let settle = |n: usize| {
            while cores::parked() < n {
                std::thread::yield_now();
            }
        };
        for n in [0, 2] {
            for k in 0..=last {
                PANIC_AT.set(Some(k));
                let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    search(
                        &mdfg,
                        &cgra,
                        mode,
                        &opts,
                        &Tracer::off(),
                        Helpers::Exactly(n),
                    )
                }))
                .map(|_| ())
                .expect_err("the attempt panicked");
                PANIC_AT.set(None);
                let why = format!("attempt {k} of {n} helpers");
                assert_eq!(
                    payload.downcast_ref::<String>(),
                    Some(&format!("attempt {k}"))
                );
                // Other tests hold cores for a while at most; a core the
                // unwind left held never comes back.
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
                while cores::busy() != 0 {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "{why}: a core stays held"
                    );
                    std::thread::yield_now();
                }
                loop {
                    settle(n);
                    let (jobs, workers, _) = cores::stats();
                    for _ in 0..20 {
                        settle(n);
                        let out = search(
                            &mdfg,
                            &cgra,
                            mode,
                            &opts,
                            &Tracer::off(),
                            Helpers::Exactly(n),
                        );
                        assert_eq!(out.mapping, want.mapping, "{why}");
                        assert_eq!(
                            out.stats.edge_route_failures, want.stats.edge_route_failures,
                            "{why}"
                        );
                    }
                    let (jobs_after, workers_after, _) = cores::stats();
                    // Other tests share the pool: judge only a window in
                    // which no job of theirs started.
                    if jobs_after == jobs + 20 * n {
                        assert_eq!(workers_after, workers, "{why}: a search started a worker");
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn asap_with_mem_adds_store_latency() {
        let mut b = DfgBuilder::new("m");
        let u = b.node(OpKind::Load);
        let v = b.apply(OpKind::Add, &[u]);
        b.apply(OpKind::Store, &[v]);
        let g = b.build().unwrap();
        let spilled = MapDfg::with_spills(&g, &std::collections::BTreeSet::from([0]));
        let plain = asap_with_mem(&MapDfg::unspilled(&g), 4).unwrap();
        let aug = asap_with_mem(&spilled, 4).unwrap();
        // In the spilled graph, `v` starts at least 4 cycles after `u`
        // (1 store + 2 mem + 1 load) instead of 1.
        assert_eq!(plain[1] - plain[0], 1);
        assert!(aug[1] >= aug[0] + 4);
    }

    #[test]
    fn schedules_simple_chain_at_ii_one() {
        assert_eq!(schedule_4x4(&chain3(), MapMode::Baseline).ii, 1);
    }

    #[test]
    fn constrained_schedules_simple_chain() {
        schedule_4x4(&chain3(), MapMode::Constrained);
    }

    #[test]
    fn respects_rec_mii() {
        let mut b = DfgBuilder::new("rec");
        let a = b.node(OpKind::Add);
        let c = b.apply(OpKind::Add, &[a]);
        let d = b.apply(OpKind::Add, &[c]);
        b.carried_edge(d, a, 1);
        let mdfg = MapDfg::unspilled(&b.build().unwrap());
        assert!(schedule_4x4(&mdfg, MapMode::Baseline).ii >= 3);
    }

    #[test]
    fn too_many_nodes_raise_ii() {
        // 20 independent const nodes on a 4x4: ResMII = 2.
        let mut b = DfgBuilder::new("wide");
        let mut prev = b.node(OpKind::Load);
        for _ in 0..18 {
            prev = b.apply(OpKind::Add, &[prev]);
        }
        b.apply(OpKind::Store, &[prev]);
        let mdfg = MapDfg::unspilled(&b.build().unwrap());
        assert!(schedule_4x4(&mdfg, MapMode::Baseline).ii >= 2);
    }
}
