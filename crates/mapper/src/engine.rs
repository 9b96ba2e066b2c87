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
//! candidates it tried. The candidate PEs are sorted once by page
//! distance (from the node's target page), affinity and id; the walk then
//! runs time-major (time outer, PEs inner) or page-major (per
//! page-distance group, time outer, the group's PEs inner). That is the
//! order of sorting every `(time, PE)` pair by `(time, page distance,
//! affinity, PE)` or `(page distance, time, affinity, PE)`, without
//! building the list, so the first pair that commits is the same; the
//! random draws happen once per PE, before the walk. Like the routing
//! pruning of [`crate::route`], this saves work without changing a
//! decision.
//!
//! One [`schedule`] call owns a `Workspace`: the [`Router`] every
//! attempt routes through, the routable-SCC ids (a property of the graph,
//! not of the II or the restart), the PE×PE mesh distances, and the
//! buffers placement fills per node — incident edges, neighbour PEs,
//! candidate PEs and fanout sites. An attempt allocates only its own MRT,
//! placement and route tables, and a routed chain only its hop list. The
//! router answers each request exactly as a fresh search would (see
//! [`crate::route`]), and the buffers are cleared before each use, so
//! every decision — and every traced event — is the same as with fresh
//! allocations.
//!
//! **Per-node set-up.** Most candidates fail, so a candidate costs only
//! what depends on it. While one node's `(time, PE)` walk runs, the
//! placements and committed routes read at the start of each candidate do
//! not change: a candidate that fails rolls back everything it reserved,
//! and the first that commits ends the walk. So the node's *incident
//! edges* (those whose other end is placed) are gathered once per node,
//! and so are the fanout sites of the first of them, which is routed
//! before anything of the candidate is committed. The sites of later
//! edges can include routes the candidate itself just committed, so they
//! are gathered per candidate, as before. A candidate PE's sort key packs
//! its page distance, affinity and id into one `u64`, ordered as the
//! `(page distance, affinity, PE)` tuple is.
//!
//! **Reject before reserving.** The first incident edge fails without a
//! search when its timing cannot hold (a memory edge read before the
//! datum is visible, or a consumer before its producer) or when
//! [`Router::rejects`] its request. None of these checks reads the MRT,
//! so they give the same answer before the candidate's own slot is
//! reserved as after. `try_commit` therefore runs them first, and a
//! rejected candidate counts one routing failure on that edge — as the
//! full path would — and returns without reserving, gathering or rolling
//! back anything.

use crate::error::MapError;
use crate::mapping::{MapMode, Mapping, Placement, RouteHop};
use crate::mrt::{Mrt, SlotUse};
use crate::opts::MapOptions;
use crate::route::{RoutePlan, RouteRequest, Router, ValueSite};
use crate::spill::MapDfg;
use cgra_arch::{CgraConfig, PeId};
use cgra_dfg::graph::NodeId;
use cgra_obs::{TraceEvent, Tracer};
use rand::prelude::*;
use rand::rngs::StdRng;

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

/// What every attempt of one [`schedule`] call shares: the router, the
/// fabric's distance table and the buffers placement refills per node.
struct Workspace<'a> {
    router: Router<'a>,
    /// Routable-SCC id per node (ring modes only).
    scc_of: Vec<usize>,
    /// `distance[a·n + b]`: the mesh distance between PEs `a` and `b`.
    distance: Vec<u32>,
    /// The incident edges of the node being placed.
    node: NodeEdges,
    /// PEs of the placed neighbours of the node being placed.
    neighbour_pes: Vec<PeId>,
    /// Candidate PEs of the node being placed, as sort keys (see
    /// `place_node`).
    pes: Vec<u64>,
    /// Fanout sites of the edge being routed, past the first.
    sites: Vec<ValueSite>,
}

impl<'a> Workspace<'a> {
    fn new(mdfg: &MapDfg, cgra: &'a CgraConfig, mode: MapMode, opts: &MapOptions) -> Self {
        let mesh = cgra.mesh();
        Workspace {
            router: Router::new(cgra, mode, opts.chain_budget),
            scc_of: if mode.ring_constrained() {
                routable_scc_of(mdfg)
            } else {
                Vec::new()
            },
            distance: mesh
                .pes()
                .flat_map(|a| mesh.pes().map(move |b| mesh.distance(a, b)))
                .collect(),
            node: NodeEdges::default(),
            neighbour_pes: Vec::new(),
            pes: Vec::new(),
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

/// Fill `out` with the sites where the value of edge `edge_index` is
/// already available besides its producer: the landings of the committed
/// routes of its sibling edges from the same producer (fanout sharing),
/// in modes that let a value wait.
fn fanout_sites(
    mdfg: &MapDfg,
    mode: MapMode,
    routes: &[Option<Vec<RouteHop>>],
    edge_index: usize,
    out: &mut Vec<ValueSite>,
) {
    out.clear();
    if !mode.allows_waiting() {
        return;
    }
    let src = mdfg.dfg.edge(cgra_dfg::EdgeId(edge_index as u32)).src;
    out.extend(
        mdfg.dfg
            .succ_edges(src)
            .filter(|e2| e2.index() != edge_index && !mdfg.is_mem_edge(e2.index()))
            .filter_map(|e2| routes[e2.index()].as_ref())
            .flatten()
            .map(|h| (h.pe, h.time + 1)),
    );
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
    ws: &'w mut Workspace<'a>,
    mrt: Mrt,
    placed: Vec<Option<Placement>>,
    routes: Vec<Option<Vec<RouteHop>>>,
    stats: FailureStats,
    /// Page already chosen for an SCC, once any member is placed.
    scc_page: Vec<Option<u16>>,
    /// Restart-diversity knob: order all candidates time-major (see
    /// `place_node`).
    time_major: bool,
}

impl<'a, 'w> Attempt<'a, 'w> {
    fn new(
        mdfg: &'a MapDfg,
        cgra: &'a CgraConfig,
        mode: MapMode,
        ii: u32,
        ws: &'w mut Workspace<'a>,
    ) -> Self {
        let num_sccs = ws.scc_of.iter().copied().max().map_or(0, |m| m + 1);
        Attempt {
            mrt: Mrt::new(cgra.mesh(), ii, cgra.mem().buses_per_row()),
            placed: vec![None; mdfg.dfg.num_nodes()],
            routes: vec![None; mdfg.dfg.num_edges()],
            stats: FailureStats {
                edge_route_failures: vec![0; mdfg.dfg.num_edges()],
            },
            scc_page: vec![None; num_sccs],
            time_major: false,
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
                    fanout_sites(
                        self.mdfg,
                        self.mode,
                        &self.routes,
                        edge_index,
                        &mut ws.sites,
                    );
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

    /// Route edge `ei` of `v`'s tentative placement `cand` and reserve the
    /// route's hops. On failure nothing of the edge stays reserved.
    fn commit_edge(
        &mut self,
        ei: usize,
        v: NodeId,
        cand: Placement,
        sites: Option<&[ValueSite]>,
    ) -> bool {
        let hops = match self.route_edge(ei, v, cand, sites) {
            None => return false,
            Some(RoutePlan::Direct) => Vec::new(),
            Some(RoutePlan::Chain(hops)) => hops,
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

    /// Try to commit `v` at `cand`: reserve its slot, route and reserve
    /// every edge of `node` (gathered by `place_node`). Rolls back on
    /// failure.
    fn try_commit(&mut self, v: NodeId, cand: Placement, node: &NodeEdges) -> bool {
        let op = self.mdfg.dfg.node(v).op;
        if !self.mrt.pe_free(cand.pe, cand.time as u64) {
            return false;
        }
        if op.is_mem() && !self.mrt.bus_free(cand.pe, cand.time as u64) {
            return false;
        }
        // Reject before reserving (see the module docs).
        if let Some(&e0) = node.incident.first() {
            let rejected = match self.edge_need(e0, v, cand) {
                EdgeNeed::Nothing => false,
                EdgeNeed::Infeasible => true,
                EdgeNeed::Route(req) => self.ws.router.rejects(req, &node.first_sites),
            };
            if rejected {
                self.stats.edge_route_failures[e0] += 1;
                return false;
            }
        }
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
                let sites = (i == 0).then_some(&node.first_sites[..]);
                self.commit_edge(ei, v, cand, sites)
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

    /// Place every node in `order`; `Err` carries the node that could
    /// not be placed (the backtrack point).
    fn run(&mut self, order: &[NodeId], asap: &[u32], rng: &mut StdRng) -> Result<(), NodeId> {
        for &v in order {
            if !self.place_node(v, asap, rng) {
                return Err(v);
            }
        }
        Ok(())
    }

    /// How many pages the kernel actually needs: enough PE slots for all
    /// ops, and enough tile rows that memory ops do not saturate the row
    /// buses within one II window.
    fn used_pages_estimate(&self) -> u16 {
        let layout = self.cgra.layout();
        let total = layout.num_pages();
        let shape = layout.shape();
        let ii = self.ii as usize;
        let nodes = self.mdfg.dfg.num_nodes();
        let pages_for_ops = nodes.div_ceil(ii * shape.size());
        let pages_per_tile_row = (self.cgra.mesh().cols() / shape.w) as usize;
        let mem_slots_per_tile_row =
            ii * shape.h as usize * self.cgra.mem().buses_per_row() as usize;
        let mem_ops = self.mdfg.dfg.num_mem_ops();
        let pages_for_mem = mem_ops.div_ceil(mem_slots_per_tile_row.max(1)) * pages_per_tile_row;
        pages_for_ops.max(pages_for_mem).max(1).min(total) as u16
    }

    /// The page a node would ideally sit on: proportional to its ASAP
    /// depth across the pages the kernel needs, so dataflow sweeps the
    /// ring as a wavefront with small per-edge page advances while still
    /// spreading memory ops over enough tile rows.
    fn target_page(&self, v: NodeId, asap: &[u32], used_pages: u16) -> u16 {
        let max_asap = asap.iter().copied().max().unwrap_or(0).max(1);
        ((asap[v.index()] as u64 * (used_pages as u64 - 1)) / max_asap as u64) as u16
    }

    fn place_node(&mut self, v: NodeId, asap: &[u32], rng: &mut StdRng) -> bool {
        let dfg = &self.mdfg.dfg;
        let ii = self.ii as i64;

        // Time window from placed neighbours.
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
        if hi < lo {
            return false;
        }
        let hi_window = hi.min(lo + 2 * ii - 1);

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
        let target = self.mode.ring_constrained().then(|| {
            self.target_page(v, asap, self.used_pages_estimate())
                .clamp(page_lo, page_hi)
        });
        // Each candidate's key is `page_key << 48 | affinity << 16 | pe`:
        // 16, 32 and 16 bits, so sorting the keys sorts by
        // `(page_key, affinity, pe)`.
        let n = mesh.num_pes();
        let ws = &mut *self.ws;
        let (neighbour_pes, distance) = (&ws.neighbour_pes, &ws.distance);
        let pes = &mut ws.pes;
        pes.clear();
        pes.extend(
            mesh.pes()
                .filter(|&pe| {
                    let p = layout.page_of(pe).0;
                    (page_lo..=page_hi).contains(&p)
                })
                .map(|pe| {
                    let distance = &distance[pe.index() * n..][..n];
                    let affinity: u32 = neighbour_pes.iter().map(|&np| distance[np.index()]).sum();
                    let page_key = target.map_or(0, |target| layout.page_of(pe).0.abs_diff(target));
                    let aff = affinity + rng.gen_range(0..3);
                    (page_key as u64) << 48 | (aff as u64) << 16 | pe.0 as u64
                }),
        );
        pes.sort_unstable();
        let pes = std::mem::take(pes);
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
        match node.incident.first() {
            Some(&e0) => fanout_sites(
                self.mdfg,
                self.mode,
                &self.routes,
                e0,
                &mut node.first_sites,
            ),
            None => node.first_sites.clear(),
        }
        // Walk `(t, pe)` lazily and stop at the first commit: page-major
        // tries each `page_key` group at every time before the next group;
        // time-major is the same walk over one group holding every PE.
        let placed = pes
            .chunk_by(|a, b| time_major || a >> 48 == b >> 48)
            .flat_map(|group| {
                (lo..=hi_window).flat_map(move |t| group.iter().map(move |&key| (t, key as u16)))
            })
            .map(|(t, pe)| Placement {
                pe: PeId(pe),
                time: t as u32,
            })
            .find(|&cand| self.try_commit(v, cand, &node));
        self.ws.node = node;
        self.ws.pes = pes;
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
/// tracer off, events are never constructed.
pub fn schedule(
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
        // Height-first order (ties by ASAP then id), jittered per restart.
        for restart in 0..opts.restarts {
            let mut rng = StdRng::seed_from_u64(opts.seed ^ (ii as u64) << 32 ^ restart as u64);
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
            let mut attempt = Attempt::new(mdfg, cgra, mode, ii, &mut ws);
            // Alternate candidate-ordering strategy across restarts: some
            // kernels pack better page-major (bus-heavy), others
            // time-major (dependence-heavy).
            attempt.time_major = restart % 2 == 1;
            match attempt.run(&order, &asap, &mut rng) {
                Ok(()) => {
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
                    // "successful" attempt can still overflow a register
                    // file. Re-check everything with the independent
                    // validator; on failure, roll the dice again.
                    let violations = crate::mapping::validate_mapping(mdfg, cgra, &mapping, mode);
                    if violations.is_empty() {
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
                            ii,
                            success: true,
                        });
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
                Err(failed) => {
                    tracer.emit(|| TraceEvent::Backtrack {
                        ii,
                        restart,
                        op: failed.0,
                    });
                }
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
