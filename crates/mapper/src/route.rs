//! Operand routing on the time-extended CGRA graph.
//!
//! Routing finds how a value travels from its producer's PE to its
//! consumer's PE through the mesh, cycle by cycle, reserving routing PEs
//! along the way. Search is over states `(pe, t)` = "the value is
//! available at `pe` at cycle `t`". [`Router::route`] answers one request,
//! and the walk search (below) one node's candidates; the router's
//! [`MapMode`] picks the rules:
//!
//! * **Baseline**: waiting in an RF is free (`(pe,t) → (pe,t+1)`, no
//!   slot), moving costs a routing slot on the *destination* PE
//!   (`(pe,t) → (pe',t+1)` reserves `(pe', t mod II)`). 0-1 BFS minimises
//!   hops, then delivery time.
//! * **Constrained** (the paper's §VI-B data-flow constraint,
//!   stable-column discipline): same as baseline, but every hop and the
//!   final read must stay on the value's page or advance one page along
//!   the ring path — the shrink transform keeps each page's column fixed
//!   within an iteration, so parked values and single-page advances stay
//!   physically reachable after any shrink. At most `chain_budget` hops.
//! * **ConstrainedStrict**: additionally no waiting — each cycle the value
//!   self-hops (a `Route` op on its own PE) or moves, so the page-level
//!   schedule contains only the canonical 1-step dependences of §VI-C
//!   (the input discipline for the paper's drifting Algorithm 1
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
//!
//! **Rejecting without a search.** [`Router::rejects`] is the early exit
//! of both searches, written once: a deadline before `avail`; in strict
//! mode, zero steps from a PE the consumer cannot read or more steps
//! than the chain budget; otherwise no start site within the bound of
//! the deadline and the hop budget. It is exact: the searches return
//! `None` at the top exactly when it holds (a site that could be read
//! directly has `h = 0` and is within both limits, so a rejected request
//! has none), and it depends only on the request, the sites and the
//! fabric, never on the MRT. The property test
//! `rejects_exactly_what_route_fails_unsearched` checks both directions.
//! It is written in two parts that the engine also reads on their own:
//! the producer's site passes when the slack `deadline − avail` lies in
//! `Router::slack_range`, and a fanout site passes when the deadline is
//! at least `Router::site_deadline`. Each part is monotone in the
//! request's times, so the engine turns them into one time interval per
//! candidate PE before it walks a node's candidates (see
//! [`crate::engine`]).
//!
//! **One search per walk.** While the engine walks the candidates `(t, PE)`
//! of a node that consumes its first incident edge from another node, that
//! edge's request changes only in its consumer PE and deadline: the
//! producer's site, the fanout sites and the MRT (a failed candidate rolls
//! back what it reserved) stay fixed. The engine asks `Router::walk_route`
//! for each candidate. A short walk is answered by [`Router::route`]: a
//! pruned search is cheap, and most walks end within a few candidates. Once
//! those searches have popped as many states as the walk's window holds
//! (PEs × times up to its last deadline), the walk switches to the *walk
//! search*: the waiting-mode 0-1 BFS seeded once from the walk's sites over
//! that window, pruning nothing and stopping at no goal. A long, failing
//! walk thus pays for about one window of per-candidate searches and one
//! walk search, instead of one search per candidate. For each PE, the walk
//! search records the popped states a consumer there can read from, each
//! earlier than all recorded before it. A query `(PE, deadline)` takes the
//! first record at or before the deadline, advancing the search only until
//! one exists or the queue is empty; the state that answered goes back to
//! the queue's front unexpanded, so the next query resumes exactly. This is
//! the route [`Router::route`] finds: it pops the states that are live for
//! its consumer and deadline in the walk's order (a dead or late state has
//! only dead or late successors, so leaving them out reorders nothing) and
//! stops at the first the consumer can read from. Both run one body,
//! `Scratch::zero_one`, with the prune row and the goal test as parameters.
//!
//! Sharing is exact only in the waiting modes, and only on the MRT the
//! walk started from. A per-request waiting search never hops onto its
//! consumer's PE, since a state that could is one the consumer reads
//! from, where the search stops; so the candidate's own compute slot
//! never changes its answer, and the engine may ask before reserving it.
//! The walk search hops onto every PE, so it must run before a candidate
//! reserves its slot: run after, it would see that slot while answering
//! other candidates. A strict chain has no goal test before its last
//! step and can pass through the consumer's PE at the candidate's phase,
//! so the reserved slot does change its answer
//! (`strict_route_depends_on_the_candidate_slot`); strict requests are
//! routed per candidate.
//!
//! **Lifetime.** The mapping engine builds one [`Router`] per schedule
//! search and routes every edge of every attempt through it, so the
//! search's bookkeeping is paid once, not per request:
//!
//! * The fabric is one `(row, column, page)` entry per PE (`Geometry`),
//!   built in O(PEs) with the router, from which the mesh distance and
//!   `h` follow in closed form, with no division and nothing PE×PE
//!   computed up front. The searches read `h` towards their consumer
//!   once per state, so the router keeps it as a row per consumer PE,
//!   filled in O(PEs) from the closed form the first time a request
//!   names that consumer: a table read per state is cheaper than the
//!   closed form, whose page term branches on the mode (perfbench
//!   `compile` ran about 9 % slower with the closed form per state, see
//!   `BENCH_25.json`). The per-candidate checks (`Router::rejects` and
//!   its parts) compute `h` directly.
//! * The per-state cost, parent and seen marks live in one buffer that
//!   grows to the largest window seen and is never cleared. Each search
//!   takes a fresh epoch, and a cell counts as seen only when its stamp
//!   equals the current epoch, so a search initialises no cells and a
//!   stale cell from an earlier, larger window reads as unseen. When the
//!   epoch counter would wrap, every stamp is reset once.
//! * The work queue is one deque, cleared per search.
//! * The walk search keeps its own buffer, queue and records, so the
//!   per-request searches of a node's later edges leave it intact
//!   between queries. Its records are one list per walk, each linked to
//!   the same consumer PE's record before it.
//! * Each PE's ring-legal mesh neighbours are listed once, in
//!   [`Mesh::neighbors`] order, so a search pushes the same states in the
//!   same order as when it filtered the mesh's neighbours per pop. A
//!   popped state reduces its time modulo II once and tests its
//!   neighbours' bits in the MRT's busy words at that phase.
//!
//! A reused search is exact: the stamp test answers "seen in this search"
//! exactly as a freshly filled buffer would, the bound row holds the
//! values a fresh search would compute, and the search body is unchanged,
//! so it pops the same states, records the same parents and returns the
//! same route. The property test `reused_router_matches_fresh_search`
//! checks this against freshly allocating reference searches.

use crate::mapping::{MapMode, RouteHop};
use crate::mrt::{has, Mrt};
use cgra_arch::page::PageLayout;
use cgra_arch::topology::{Mesh, PeId};
use cgra_arch::CgraConfig;
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

/// Whether a step from `from` to `to` stays on its page or moves one page
/// along `ring`'s ring; any step passes without a ring.
pub(crate) fn ring_ok(ring: Option<&PageLayout>, from: PeId, to: PeId) -> bool {
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

/// [`Geometry::bound`] when no path exists.
const UNREACHABLE: u32 = u32::MAX;
/// A cell's parent when the search started there.
const NO_PARENT: u32 = u32::MAX;
/// The end of a consumer PE's records in the walk search.
const NO_RECORD: u32 = u32::MAX;

/// Where one PE sits: its mesh row and column, and its page.
#[derive(Debug, Clone, Copy)]
struct Spot {
    r: u16,
    c: u16,
    page: u16,
}

/// The fabric as the mapper measures it: one [`Spot`] per PE, from which
/// mesh distances and hop bounds follow in closed form, with no division
/// and no PE×PE table.
#[derive(Debug)]
pub(crate) struct Geometry {
    spots: Vec<Spot>,
    /// Whether the ring's page order bounds the hops (ring modes).
    ring: bool,
}

impl Geometry {
    /// The geometry of `cgra`; `ring` adds the page term of the bound.
    pub(crate) fn new(cgra: &CgraConfig, ring: bool) -> Self {
        let (mesh, layout) = (cgra.mesh(), cgra.layout());
        let spots = mesh
            .pes()
            .map(|pe| {
                let pos = mesh.pos(pe);
                Spot {
                    r: pos.r,
                    c: pos.c,
                    page: layout.page_of(pe).0,
                }
            })
            .collect();
        Geometry { spots, ring }
    }

    /// The Manhattan distance between PEs `a` and `b`: [`Mesh::distance`].
    #[inline]
    pub(crate) fn distance(&self, a: PeId, b: PeId) -> u32 {
        let (a, b) = (self.spots[a.index()], self.spots[b.index()]);
        a.r.abs_diff(b.r) as u32 + a.c.abs_diff(b.c) as u32
    }

    /// A lower bound on the hops a value on `pe` still needs before the
    /// consumer on `to` can read it, or [`UNREACHABLE`]. Each hop moves
    /// one link, so at least `distance − 1` hops remain (the consumer
    /// reads across the last link). Under the ring, each hop advances at
    /// most one page and never goes back, so at least
    /// `page(to) − page(pe) − 1` hops remain, and a consumer on an earlier
    /// page is out of reach. The bound is 0 exactly on the PEs the
    /// consumer can read from.
    #[inline]
    pub(crate) fn bound(&self, pe: PeId, to: PeId) -> u32 {
        let links = self.distance(pe, to).saturating_sub(1);
        if !self.ring {
            return links;
        }
        let (from_page, to_page) = (self.spots[pe.index()].page, self.spots[to.index()].page);
        match to_page.checked_sub(from_page) {
            Some(pages) => links.max(pages.saturating_sub(1) as u32),
            None => UNREACHABLE,
        }
    }
}

/// One search state's bookkeeping. It is meaningful only while `stamp`
/// equals the current epoch; otherwise the state is unseen.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    stamp: u32,
    cost: u32,
    parent: u32,
    /// Whether the step from `parent` was a hop (not a wait).
    hop: bool,
}

/// The cells and work queue one search uses, reused by the next.
#[derive(Debug, Default)]
struct Scratch {
    cells: Vec<Cell>,
    epoch: u32,
    queue: VecDeque<(PeId, u32)>,
    /// States popped by the waiting-mode searches, over all searches.
    pops: u64,
}

impl Scratch {
    /// Start a search over `len` cells: grow the buffer if needed and take
    /// a fresh epoch, so every cell reads as unseen.
    fn begin(&mut self, len: usize) {
        debug_assert!(len < NO_PARENT as usize, "{len} search states overflow u32");
        if self.cells.len() < len {
            self.cells.resize(len, Cell::default());
        }
        if self.epoch == u32::MAX {
            for cell in &mut self.cells {
                cell.stamp = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
        self.queue.clear();
    }

    /// Mark cell `i` seen in this search with `cost`, reached from
    /// `parent` by a hop or a wait.
    fn visit(&mut self, i: usize, cost: u32, parent: u32, hop: bool) {
        self.cells[i] = Cell {
            stamp: self.epoch,
            cost,
            parent,
            hop,
        };
    }

    fn seen(&self, i: usize) -> bool {
        self.cells[i].stamp == self.epoch
    }

    /// Push each of `sites` that `prune` keeps alive in `f`, once, at
    /// cost 0 and in order.
    fn seed(&mut self, f: Frame, prune: &[u32], sites: impl Iterator<Item = ValueSite>) {
        for (pe, a) in sites {
            if f.live(prune, pe, a) && !self.seen(f.idx(pe, a)) {
                self.visit(f.idx(pe, a), 0, NO_PARENT, false);
                self.queue.push_back((pe, a));
            }
        }
    }

    /// The waiting-mode 0-1 BFS, written once for both searches: pop
    /// states in order of hops and return the first that `goal` accepts,
    /// with its cell, or `None` once the queue is empty; push each other
    /// popped state's wait (cost 0, to the front) and its hops onto
    /// neighbours free at its phase (cost 1, to the back, within
    /// `hop_budget`), only where `prune` keeps the new state alive in
    /// `f`.
    fn zero_one(
        &mut self,
        f: Frame,
        mrt: &Mrt,
        neighbours: &Neighbours,
        hop_budget: u32,
        prune: &[u32],
        mut goal: impl FnMut(PeId, u32, usize) -> bool,
    ) -> Option<(PeId, u32, usize)> {
        while let Some((pe, t)) = self.queue.pop_front() {
            self.pops += 1;
            let here = f.idx(pe, t);
            if goal(pe, t, here) {
                return Some((pe, t, here));
            }
            if t == f.last {
                continue;
            }
            let c = self.cells[here].cost;
            // Wait (cost 0) — push front.
            let wi = f.idx(pe, t + 1);
            if f.live(prune, pe, t + 1) && (!self.seen(wi) || self.cells[wi].cost > c) {
                self.visit(wi, c, here as u32, false);
                self.queue.push_front((pe, t + 1));
            }
            // Hop (cost 1) — push back. The hop op runs at `t`.
            if c < hop_budget {
                let busy = mrt.busy_at_phase(t % mrt.ii());
                for &nb in neighbours.of(pe) {
                    if has(busy, nb) || !f.live(prune, nb, t + 1) {
                        continue;
                    }
                    let hi = f.idx(nb, t + 1);
                    if !self.seen(hi) || self.cells[hi].cost > c + 1 {
                        self.visit(hi, c + 1, here as u32, true);
                        self.queue.push_back((nb, t + 1));
                    }
                }
            }
        }
        None
    }

    /// The route to the popped state in cell `goal` of `f`, read back
    /// along its parents.
    fn path(&self, f: Frame, goal: usize) -> RoutePlan {
        let mut hops = Vec::new();
        let mut cur = goal;
        while self.cells[cur].parent != NO_PARENT {
            let Cell { parent, hop, .. } = self.cells[cur];
            if hop {
                let t = f.start + (cur / f.n) as u32;
                let pe = PeId((cur % f.n) as u16);
                // The hop op executes the cycle *before* the value lands.
                hops.push(RouteHop { pe, time: t - 1 });
            }
            cur = parent as usize;
        }
        hops.reverse();
        if hops.is_empty() {
            return RoutePlan::Direct;
        }
        RoutePlan::Chain(hops)
    }
}

/// The states of one waiting-mode search: `(pe, t)` with
/// `start ≤ t ≤ last`, in cell `(t − start)·n + pe`.
#[derive(Debug, Clone, Copy)]
struct Frame {
    start: u32,
    last: u32,
    n: usize,
}

impl Frame {
    /// The frame from the earliest of the value's `sites` to `last`.
    fn new(sites: impl Iterator<Item = ValueSite>, last: u32, n: usize) -> Self {
        let start = sites.map(|(_, a)| a).min().unwrap_or(last);
        debug_assert!(start <= last, "a search window from {start} to {last}");
        Frame { start, last, n }
    }

    fn cells(self) -> usize {
        (self.last - self.start) as usize * self.n + self.n
    }

    fn idx(self, pe: PeId, t: u32) -> usize {
        (t - self.start) as usize * self.n + pe.index()
    }

    /// Whether `(pe, t)` can still reach a goal by `last`, with `prune`
    /// the hops each PE still needs at least.
    fn live(self, prune: &[u32], pe: PeId, t: u32) -> bool {
        t.saturating_add(prune[pe.index()]) <= self.last
    }
}

/// The first-edge requests of one node's walk (see the module docs).
#[derive(Debug, Default)]
struct Walk {
    /// The producer's site, then the fanout sites.
    sites: Vec<ValueSite>,
    /// The walk's last deadline.
    last: u32,
    /// The states the per-request searches may still pop before the walk
    /// search starts.
    budget: u64,
    /// The walk search's window, once it has started.
    frame: Option<Frame>,
    scratch: Scratch,
    /// One zero per PE: the walk search prunes nothing.
    zeros: Vec<u32>,
    /// The popped states each consumer PE can read from that are earlier
    /// than every such state popped before, in pop order, as `(time,
    /// cell, the PE's record before)`.
    records: Vec<(u32, u32, u32)>,
    /// Per consumer PE, its newest record, or [`NO_RECORD`].
    newest: Vec<u32>,
}

/// Each PE's mesh neighbours that a ring rule lets a value hop to, in
/// [`Mesh::neighbors`] order.
#[derive(Debug)]
struct Neighbours {
    /// PE `pe`'s neighbours are `list[start[pe]..start[pe + 1]]`.
    list: Vec<PeId>,
    start: Vec<u32>,
}

impl Neighbours {
    fn new(mesh: Mesh, ring: Option<&PageLayout>) -> Self {
        let mut list = Vec::with_capacity(4 * mesh.num_pes());
        let mut start = Vec::with_capacity(mesh.num_pes() + 1);
        for pe in mesh.pes() {
            start.push(list.len() as u32);
            list.extend(mesh.neighbors(pe).filter(|&nb| ring_ok(ring, pe, nb)));
        }
        start.push(list.len() as u32);
        Neighbours { list, start }
    }

    fn of(&self, pe: PeId) -> &[PeId] {
        &self.list[self.start[pe.index()] as usize..self.start[pe.index() + 1] as usize]
    }
}

/// The router of one schedule search: the routing rules of one
/// [`MapMode`] on one fabric, plus the scratch every request reuses (see
/// the module docs for why reuse returns exactly what a fresh search
/// would).
#[derive(Debug)]
pub struct Router {
    mesh: Mesh,
    mode: MapMode,
    chain_budget: u32,
    /// Distances and hop bounds, with the page term in ring modes.
    geometry: Geometry,
    /// `bounds[to·n + pe]` = `h(pe)` towards consumer `to`, as the
    /// searches read it; row `to` is valid once `bound_rows[to]` is set.
    bounds: Vec<u32>,
    bound_rows: Vec<bool>,
    /// The mesh neighbours a value may hop to under this mode's ring rule.
    neighbours: Neighbours,
    scratch: Scratch,
    walk: Walk,
}

impl Router {
    /// A router for `mode` on `cgra`. Ring-constrained routes take at most
    /// `chain_budget` hops; strict chains take at most `chain_budget`
    /// steps.
    pub fn new(cgra: &CgraConfig, mode: MapMode, chain_budget: u32) -> Self {
        let mesh = cgra.mesh();
        let n = mesh.num_pes();
        let ring = mode.ring_constrained().then(|| cgra.layout());
        Router {
            mesh,
            mode,
            chain_budget,
            geometry: Geometry::new(cgra, ring.is_some()),
            bounds: vec![0; n * n],
            bound_rows: vec![false; n],
            neighbours: Neighbours::new(mesh, ring),
            scratch: Scratch::default(),
            walk: Walk {
                zeros: vec![0; n],
                newest: vec![NO_RECORD; n],
                ..Walk::default()
            },
        }
    }

    /// A router whose epoch counter starts at `epoch`, so a test can
    /// cross the wrap without four billion searches.
    #[cfg(test)]
    fn with_epoch(cgra: &CgraConfig, mode: MapMode, chain_budget: u32, epoch: u32) -> Self {
        let mut router = Router::new(cgra, mode, chain_budget);
        router.scratch.epoch = epoch;
        router
    }

    /// The fabric's distances and hop bounds under this router's mode.
    pub(crate) fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Route `req` on the current `mrt`. Returns `None` if no legal
    /// realisation exists within the deadline. `sites` are extra places
    /// the value is already available (fanout sharing); pass `&[]` when
    /// there are none. Strict mode ignores them: a strict chain starts at
    /// the producer.
    pub fn route(
        &mut self,
        mrt: &Mrt,
        req: RouteRequest,
        sites: &[ValueSite],
    ) -> Option<RoutePlan> {
        match self.mode {
            MapMode::Baseline | MapMode::Constrained => self.bfs(mrt, req, sites),
            MapMode::ConstrainedStrict => self.strict(mrt, req),
        }
    }

    /// Whether [`Router::route`] returns `None` for `req` and `sites`
    /// without searching: the deadline is before `avail`; a strict chain
    /// cannot have exactly `deadline − avail` steps (zero steps from a PE
    /// the consumer cannot read, or more than the chain budget); or no
    /// start site of a waiting route is within the bound of the deadline
    /// and the hop budget. It reads no MRT slot, so a caller can ask
    /// before reserving anything. `false` promises nothing: the search may
    /// still fail.
    pub fn rejects(&self, req: RouteRequest, sites: &[ValueSite]) -> bool {
        let Some(slack) = req.deadline.checked_sub(req.avail) else {
            return true;
        };
        let producer = self
            .slack_range(req.from_pe, req.to_pe)
            .is_some_and(|(lo, hi)| (lo..=hi).contains(&slack));
        !producer
            && self
                .site_deadline(req.to_pe, sites)
                .is_none_or(|earliest| earliest > req.deadline)
    }

    /// The slacks `deadline − avail` at which a request from `from` to
    /// `to` passes [`Router::rejects`] on its producer site, as an
    /// inclusive range, or `None` when none does. A strict chain has
    /// exactly `slack` steps: at most the chain budget, and zero only
    /// when the consumer can read `from`. A waiting route needs at least
    /// the hop bound, which must be within the hop budget.
    pub(crate) fn slack_range(&self, from: PeId, to: PeId) -> Option<(u32, u32)> {
        let h = self.geometry.bound(from, to);
        if self.mode == MapMode::ConstrainedStrict {
            let least = u32::from(h != 0);
            return (least <= self.chain_budget).then_some((least, self.chain_budget));
        }
        (h != UNREACHABLE && h <= self.hop_budget()).then_some((h, u32::MAX))
    }

    /// The earliest deadline at which one of the fanout `sites` passes
    /// [`Router::rejects`] for consumer `to`: a site available at `a`
    /// whose hop bound `h` is within the hop budget meets any deadline
    /// from `a + h` (saturating). `None` when no site can, and always in
    /// strict mode, which starts every chain at the producer.
    pub(crate) fn site_deadline(&self, to: PeId, sites: &[ValueSite]) -> Option<u32> {
        if self.mode == MapMode::ConstrainedStrict {
            return None;
        }
        let hop_budget = self.hop_budget();
        sites
            .iter()
            .filter_map(|&(pe, a)| {
                let h = self.geometry.bound(pe, to);
                (h != UNREACHABLE && h <= hop_budget).then(|| a.saturating_add(h))
            })
            .min()
    }

    /// The most hops a waiting route may take: the chain budget under the
    /// ring, unbounded in baseline mode.
    fn hop_budget(&self) -> u32 {
        if self.mode.ring_constrained() {
            self.chain_budget
        } else {
            u32::MAX
        }
    }

    /// `h` towards consumer `to` for every PE, filling the row from the
    /// closed form on first use.
    fn bound_row(&mut self, to: PeId) -> std::ops::Range<usize> {
        let n = self.mesh.num_pes();
        let row = to.index() * n..(to.index() + 1) * n;
        if !self.bound_rows[to.index()] {
            for (pe, h) in self.mesh.pes().zip(&mut self.bounds[row.clone()]) {
                *h = self.geometry.bound(pe, to);
            }
            self.bound_rows[to.index()] = true;
        }
        row
    }

    /// 0-1 BFS with free waiting; under the ring every step (and the final
    /// read) is restricted to ring-path page motion. `extra_sites` are
    /// additional starting states beyond the producer.
    ///
    /// The search is pruned with [`Geometry::bound`] `h`, without changing
    /// the route it finds. A state `(pe, t)` is *dead* when
    /// `t + h(pe) > deadline`: every hop takes a cycle, so no goal is
    /// reachable from it. A hop lowers `h` by at most one and takes a cycle,
    /// and a wait keeps `h` and takes a cycle, so every successor of a dead
    /// state is dead too. Dead states are therefore never pushed: no live
    /// state's cost or parent is set through one, and the live states pop in
    /// the same order. If every start site is dead or needs more hops than
    /// the hop budget, [`Router::rejects`] holds and the search returns
    /// `None` before touching any cell.
    fn bfs(
        &mut self,
        mrt: &Mrt,
        req: RouteRequest,
        extra_sites: &[ValueSite],
    ) -> Option<RoutePlan> {
        if self.rejects(req, extra_sites) {
            return None;
        }
        let hop_budget = self.hop_budget();
        let row = self.bound_row(req.to_pe);
        let bound = &self.bounds[row];
        let sites = std::iter::once((req.from_pe, req.avail)).chain(extra_sites.iter().copied());
        // Direct read from the producer or any existing site.
        if sites
            .clone()
            .any(|(pe, a)| a <= req.deadline && bound[pe.index()] == 0)
        {
            return Some(RoutePlan::Direct);
        }
        let f = Frame::new(sites.clone(), req.deadline, self.mesh.num_pes());
        let s = &mut self.scratch;
        s.begin(f.cells());
        s.seed(f, bound, sites);
        let (_, _, goal) =
            s.zero_one(f, mrt, &self.neighbours, hop_budget, bound, |pe, _, _| {
                bound[pe.index()] == 0
            })?;
        Some(s.path(f, goal))
    }

    /// Begin the first-edge requests of one node's walk (see the module
    /// docs): the value available on `from` at `avail` and at the fanout
    /// `sites`, read by consumers at deadlines up to `last`. Waiting modes
    /// only.
    pub(crate) fn walk_begin(&mut self, from: PeId, avail: u32, sites: &[ValueSite], last: u32) {
        debug_assert!(self.mode.allows_waiting(), "{:?}", self.mode);
        let w = &mut self.walk;
        w.sites.clear();
        w.sites.push((from, avail));
        w.sites.extend_from_slice(sites);
        let start = sites.iter().fold(avail, |start, &(_, a)| start.min(a));
        let times = (last as u64 + 1).saturating_sub(start as u64);
        (w.last, w.budget, w.frame) = (last, times * self.mesh.num_pes() as u64, None);
    }

    /// What [`Router::route`] returns for `req` with the walk's fanout
    /// sites, where `req` comes from the walk's producer site with a
    /// deadline up to its last, and `mrt` is the table the walk began on.
    /// The walk asks [`Router::route`] until its searches have popped as
    /// many states as the walk's window holds, then the walk search: the
    /// route to the first popped state, at or before the deadline, from
    /// which the consumer can read. That search advances only as far as
    /// an answer needs; a request with no route runs it to the end of
    /// its window.
    pub(crate) fn walk_route(&mut self, mrt: &Mrt, req: RouteRequest) -> Option<RoutePlan> {
        let hop_budget = self.hop_budget();
        let w = &mut self.walk;
        debug_assert!(w.sites[0] == (req.from_pe, req.avail) && req.deadline <= w.last);
        if w.frame.is_none() && w.budget == 0 {
            let f = Frame::new(w.sites.iter().copied(), w.last, self.mesh.num_pes());
            w.scratch.begin(f.cells());
            w.scratch.seed(f, &w.zeros, w.sites.iter().copied());
            w.records.clear();
            w.newest.fill(NO_RECORD);
            w.frame = Some(f);
        }
        let Some(f) = w.frame else {
            let (sites, popped) = (std::mem::take(&mut w.sites), self.scratch.pops);
            let plan = self.route(mrt, req, &sites[1..]);
            let w = &mut self.walk;
            w.budget = w.budget.saturating_sub(self.scratch.pops - popped);
            w.sites = sites;
            return plan;
        };
        let Walk {
            scratch,
            zeros,
            records,
            newest,
            ..
        } = w;
        // A PE's records run from late to early times, so the first at or
        // before the deadline is the oldest of those at or before it.
        let (mut found, mut r) = (None, newest[req.to_pe.index()]);
        while let Some(&(t, cell, before)) = records.get(r as usize) {
            if t > req.deadline {
                break;
            }
            (found, r) = (Some(cell as usize), before);
        }
        let goal = match found {
            Some(cell) => cell,
            None => {
                // The consumers that can read from `pe` are `pe` and its
                // ring-legal neighbours, the PEs with `h = 0` towards them.
                let neighbours = &self.neighbours;
                let record = |pe: PeId, t: u32, cell: usize| {
                    let mut reads = false;
                    for &to in std::iter::once(&pe).chain(neighbours.of(pe)) {
                        let r = &mut newest[to.index()];
                        if records
                            .get(*r as usize)
                            .is_none_or(|&(earliest, ..)| t < earliest)
                        {
                            records.push((t, cell as u32, *r));
                            *r = records.len() as u32 - 1;
                        }
                        reads |= to == req.to_pe;
                    }
                    reads && t <= req.deadline
                };
                let (pe, t, cell) =
                    scratch.zero_one(f, mrt, neighbours, hop_budget, zeros, record)?;
                // Put the answer back unexpanded, so the next query pops
                // and expands it where this one stopped. Its records are
                // made, so it answers no later query.
                scratch.queue.push_front((pe, t));
                cell
            }
        };
        Some(scratch.path(f, goal))
    }

    /// Let the current walk's next request start the walk search.
    #[cfg(test)]
    pub(crate) fn walk_search_now(&mut self) {
        self.walk.budget = 0;
    }

    /// Route under the strict 1-step discipline: the chain, if any, has
    /// exactly `deadline − avail` hops (self-hops included); `None` if that
    /// exceeds `chain_budget` or no ring-legal path exists.
    fn strict(&mut self, mrt: &Mrt, req: RouteRequest) -> Option<RoutePlan> {
        if self.rejects(req, &[]) {
            return None;
        }
        let steps = req.deadline - req.avail;
        if steps == 0 {
            return Some(RoutePlan::Direct);
        }
        let row = self.bound_row(req.to_pe);
        // `h` is 0 exactly on the PEs the consumer can read from.
        let bound = &self.bounds[row];
        let neighbours = &self.neighbours;
        // BFS over exactly `steps` transitions; states (pe, step).
        let n = self.mesh.num_pes();
        let idx = |pe: PeId, step: u32| step as usize * n + pe.index();
        let s = &mut self.scratch;
        s.begin(n * (steps as usize + 1));
        s.visit(idx(req.from_pe, 0), 0, NO_PARENT, true);
        s.queue.push_back((req.from_pe, 0));
        let mut goal: Option<PeId> = None;
        while let Some((pe, step)) = s.queue.pop_front() {
            if step == steps {
                if bound[pe.index()] == 0 {
                    goal = Some(pe);
                    break;
                }
                continue;
            }
            // The hop op executes at `avail + step`. Self-hop first, then
            // the ring-legal mesh neighbours.
            let busy = mrt.busy_at_phase((req.avail + step) % mrt.ii());
            for &nb in std::iter::once(&pe).chain(neighbours.of(pe)) {
                if has(busy, nb) {
                    continue;
                }
                let i = idx(nb, step + 1);
                if !s.seen(i) {
                    s.visit(i, 0, idx(pe, step) as u32, true);
                    s.queue.push_back((nb, step + 1));
                }
            }
        }
        let gpe = goal?;
        let mut chain = Vec::with_capacity(steps as usize);
        let mut cur = idx(gpe, steps);
        while s.cells[cur].parent != NO_PARENT {
            let step = (cur / n) as u32;
            let pe = PeId((cur % n) as u16);
            chain.push(RouteHop {
                pe,
                time: req.avail + step - 1,
            });
            cur = s.cells[cur].parent as usize;
        }
        chain.reverse();
        debug_assert_eq!(chain.len() as u32, steps);
        Some(RoutePlan::Chain(chain))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

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

    /// The strict search as it was before the router reused its buffers:
    /// fresh `seen`/`parent` vectors per request. The reference a reused
    /// strict search must agree with.
    fn strict_reference(
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
            let t = req.avail + step;
            for nb in std::iter::once(pe).chain(mesh.neighbors(pe)) {
                if !ring_ok(Some(layout), pe, nb) || !mrt.pe_free(nb, t as u64) {
                    continue;
                }
                let i = idx(nb, step + 1);
                if !seen[i] {
                    seen[i] = true;
                    parent[i] = idx(pe, step);
                    queue.push_back((nb, step + 1));
                }
            }
        }
        let gpe = goal?;
        let mut chain = Vec::new();
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
        Some(RoutePlan::Chain(chain))
    }

    /// The hop bound as the router computed it from `Mesh::distance` and
    /// the page table, before the closed form: the reference
    /// [`Geometry::bound`] must equal.
    fn hops_lower_bound(mesh: Mesh, ring: Option<&PageLayout>, pe: PeId, to: PeId) -> Option<u32> {
        let links = mesh.distance(pe, to).saturating_sub(1);
        let Some(layout) = ring else {
            return Some(links);
        };
        let (from_page, to_page) = (layout.page_of(pe).0, layout.page_of(to).0);
        let pages = to_page.checked_sub(from_page)?.saturating_sub(1);
        Some(links.max(pages as u32))
    }

    /// On every fabric of the paper grid, with and without the ring, the
    /// closed-form distance and hop bound equal `Mesh::distance` and the
    /// table-era bound for every pair of PEs.
    #[test]
    fn closed_form_geometry_matches_the_mesh() {
        for (dim, sizes) in cgra_arch::PAPER_GRID {
            for &size in sizes {
                let cgra = cgra_arch::fabric(dim, size).unwrap();
                let mesh = cgra.mesh();
                for ring in [false, true] {
                    let geometry = Geometry::new(&cgra, ring);
                    let layout = ring.then(|| cgra.layout());
                    for a in mesh.pes() {
                        for b in mesh.pes() {
                            let why = format!("{dim}x{dim}/p{size} ring={ring} {a}->{b}");
                            assert_eq!(geometry.distance(a, b), mesh.distance(a, b), "{why}");
                            assert_eq!(
                                geometry.bound(a, b),
                                hops_lower_bound(mesh, layout, a, b).unwrap_or(UNREACHABLE),
                                "{why}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// An MRT at a random II with each slot taken with probability
    /// `occupancy`.
    fn random_mrt(rng: &mut StdRng, mesh: Mesh, occupancy: f64) -> Mrt {
        let ii = rng.gen_range(1..7u32);
        let mut mrt = Mrt::new(mesh, ii, 1);
        for pe in mesh.pes() {
            for t in 0..ii {
                if rng.gen_bool(occupancy) {
                    mrt.reserve(pe, t as u64, crate::mrt::SlotUse::Compute(0), false);
                }
            }
        }
        mrt
    }

    /// One random routing problem of the router property tests.
    struct Case {
        cgra: CgraConfig,
        mrt: Mrt,
        req: RouteRequest,
        sites: Vec<ValueSite>,
        /// Whether the route keeps to the ring (`Constrained`, else
        /// `Baseline`).
        ring: bool,
        hop_budget: u32,
    }

    impl Case {
        /// Case number `case`: a fabric of the grid in turn, a random
        /// occupancy, request, sibling sites and hop budget, with and
        /// without the ring constraint.
        fn random(case: usize, rng: &mut StdRng) -> Self {
            let fabrics = [(4, 2), (4, 4), (4, 8), (6, 9), (8, 2), (8, 8)];
            let (dim, page_size) = fabrics[case % fabrics.len()];
            let cgra = CgraConfig::square(dim).with_page_size(page_size).unwrap();
            let mesh = cgra.mesh();
            let n = mesh.num_pes() as u16;
            let occupancy = rng.gen_range(0.0..0.6);
            let mrt = random_mrt(rng, mesh, occupancy);
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
            // Baseline routes have no hop budget; ring routes take the
            // chain budget, sometimes unbounded.
            let ring = rng.gen_bool(0.5);
            let hop_budget = if !ring || rng.gen_bool(0.3) {
                u32::MAX
            } else {
                rng.gen_range(0..12u32)
            };
            Case {
                cgra,
                mrt,
                req,
                sites,
                ring,
                hop_budget,
            }
        }

        fn label(&self) -> String {
            let (dim, page_size) = (self.cgra.mesh().rows(), self.cgra.layout().shape().size());
            format!(
                "{dim}x{dim}/p{page_size} {:?} sites={:?} budget={} ring={}",
                self.req, self.sites, self.hop_budget, self.ring
            )
        }

        fn mode(&self) -> MapMode {
            if self.ring {
                MapMode::Constrained
            } else {
                MapMode::Baseline
            }
        }

        /// What a fresh, unpruned search in `mode` returns.
        fn reference(&self, mode: MapMode) -> Option<RoutePlan> {
            let (mesh, layout) = (self.cgra.mesh(), self.cgra.layout());
            match mode {
                MapMode::Baseline => {
                    bfs_route_unpruned(mesh, &self.mrt, self.req, None, u32::MAX, &self.sites)
                }
                MapMode::Constrained => bfs_route_unpruned(
                    mesh,
                    &self.mrt,
                    self.req,
                    Some(layout),
                    self.hop_budget,
                    &self.sites,
                ),
                MapMode::ConstrainedStrict => {
                    strict_reference(mesh, layout, &self.mrt, self.req, self.hop_budget)
                }
            }
        }
    }

    /// The pruned router returns exactly what the unpruned search returns,
    /// on random occupancies, requests, sibling sites and hop budgets,
    /// with and without the ring constraint. Each request gets a fresh
    /// router, so this isolates the pruning from the buffer reuse.
    #[test]
    fn pruned_router_matches_unpruned_reference() {
        let mut rng = StdRng::seed_from_u64(0x5EED_B0D5);
        let (mut direct, mut chains, mut none) = (0, 0, 0);
        for case in 0..4000 {
            let c = Case::random(case, &mut rng);
            let pruned =
                Router::new(&c.cgra, c.mode(), c.hop_budget).route(&c.mrt, c.req, &c.sites);
            assert_eq!(pruned, c.reference(c.mode()), "case {case}: {}", c.label());
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

    /// `rejects` holds exactly when `route` fails without searching: when
    /// it holds, the route and the fresh reference are both `None`; when
    /// the route fails without starting a search (taking an epoch), it
    /// holds. The cases are those of
    /// `pruned_router_matches_unpruned_reference`, each routed in its own
    /// mode and in strict mode with the hop budget as chain budget; every
    /// route must also equal its reference, which checks strict mode's
    /// early exits against random budgets.
    #[test]
    fn rejects_exactly_what_route_fails_unsearched() {
        let mut rng = StdRng::seed_from_u64(0x5EED_B0D5);
        let (mut rejected, mut answered) = (0, 0);
        for case in 0..4000 {
            let c = Case::random(case, &mut rng);
            for mode in [c.mode(), MapMode::ConstrainedStrict] {
                let mut router = Router::new(&c.cgra, mode, c.hop_budget);
                let rejects = router.rejects(c.req, &c.sites);
                let epoch = router.scratch.epoch;
                let plan = router.route(&c.mrt, c.req, &c.sites);
                let searched = router.scratch.epoch != epoch;
                let why = format!("case {case} {mode:?}: {}", c.label());
                assert_eq!(rejects, plan.is_none() && !searched, "{why}: {plan:?}");
                assert_eq!(plan, c.reference(mode), "{why}");
                if rejects {
                    rejected += 1;
                } else if plan.is_some() {
                    answered += 1;
                }
            }
        }
        assert!(rejected > 200 && answered > 200, "{rejected} {answered}");
    }

    /// One long-lived router per fabric and mode answers a seeded random
    /// sequence of requests, and every answer equals a fresh, allocating
    /// search: the unpruned 0-1 BFS for baseline and ring routes, the
    /// pre-reuse strict search for strict ones. The sequence varies MRT
    /// occupancy and fanout sites, follows each large window with small
    /// ones (stale cells from the large window must read as unseen), and
    /// starts the epoch counter just below `u32::MAX` so it wraps early.
    /// Halfway through, the counter is pushed back up to wrap again: the
    /// epochs after that second wrap were already stamped on cells after
    /// the first, so only the reset on wrap keeps those cells unseen.
    #[test]
    fn reused_router_matches_fresh_search() {
        const CHAIN_BUDGET: u32 = 48;
        let fabrics = [(4, 4), (8, 2), (6, 9)];
        let modes = [
            MapMode::Baseline,
            MapMode::Constrained,
            MapMode::ConstrainedStrict,
        ];
        let mut rng = StdRng::seed_from_u64(0xB0FF_E125);
        for (dim, page_size) in fabrics {
            let c = CgraConfig::square(dim).with_page_size(page_size).unwrap();
            let mesh = c.mesh();
            let n = mesh.num_pes() as u16;
            for mode in modes {
                let mut router = Router::with_epoch(&c, mode, CHAIN_BUDGET, u32::MAX - 20);
                let (mut direct, mut chains, mut none) = (0, 0, 0);
                for case in 0..400 {
                    if case == 200 {
                        assert!(router.scratch.epoch < 200, "{mode:?}: no first wrap");
                        router.scratch.epoch = u32::MAX - 20;
                    }
                    let occupancy = rng.gen_range(0.0..0.5);
                    let mrt = random_mrt(&mut rng, mesh, occupancy);
                    let avail = rng.gen_range(0..6u32);
                    // Every eighth request spans a window several times
                    // wider than the ones after it.
                    let span = if case % 8 == 0 {
                        rng.gen_range(28..44u32)
                    } else {
                        rng.gen_range(0..10u32)
                    };
                    let req = RouteRequest {
                        from_pe: PeId(rng.gen_range(0..n)),
                        avail,
                        to_pe: PeId(rng.gen_range(0..n)),
                        deadline: (avail + span).saturating_sub(1),
                    };
                    let sites: Vec<ValueSite> = if mode.allows_waiting() {
                        (0..rng.gen_range(0..5))
                            .map(|_| {
                                (
                                    PeId(rng.gen_range(0..n)),
                                    rng.gen_range(0..req.deadline + 4),
                                )
                            })
                            .collect()
                    } else {
                        Vec::new()
                    };
                    let reused = router.route(&mrt, req, &sites);
                    let fresh = match mode {
                        MapMode::Baseline => {
                            bfs_route_unpruned(mesh, &mrt, req, None, u32::MAX, &sites)
                        }
                        MapMode::Constrained => bfs_route_unpruned(
                            mesh,
                            &mrt,
                            req,
                            Some(c.layout()),
                            CHAIN_BUDGET,
                            &sites,
                        ),
                        MapMode::ConstrainedStrict => {
                            strict_reference(mesh, c.layout(), &mrt, req, CHAIN_BUDGET)
                        }
                    };
                    assert_eq!(
                        reused, fresh,
                        "{dim}x{dim}/p{page_size} {mode:?} case {case}: {req:?} sites={sites:?}"
                    );
                    match reused {
                        Some(RoutePlan::Direct) => direct += 1,
                        Some(RoutePlan::Chain(_)) => chains += 1,
                        None => none += 1,
                    }
                }
                assert!(router.scratch.epoch < 200, "{mode:?}: no second wrap");
                // Strict routes are direct only at zero slack, so rarely.
                assert!(
                    direct > 0 && chains > 20 && none > 20,
                    "{dim}x{dim}/p{page_size} {mode:?}: {direct} {chains} {none}"
                );
            }
        }
    }

    fn setup(ii: u32) -> (CgraConfig, Mrt) {
        let c = CgraConfig::square(4);
        let mrt = Mrt::new(c.mesh(), ii, 1);
        (c, mrt)
    }

    fn baseline(c: &CgraConfig, mrt: &Mrt, req: RouteRequest) -> Option<RoutePlan> {
        Router::new(c, MapMode::Baseline, u32::MAX).route(mrt, req, &[])
    }

    fn ring(c: &CgraConfig, mrt: &Mrt, req: RouteRequest) -> Option<RoutePlan> {
        Router::new(c, MapMode::Constrained, 8).route(mrt, req, &[])
    }

    fn strict(c: &CgraConfig, mrt: &Mrt, req: RouteRequest, budget: u32) -> Option<RoutePlan> {
        Router::new(c, MapMode::ConstrainedStrict, budget).route(mrt, req, &[])
    }
    #[test]
    fn adjacent_is_direct() {
        let (c, mrt) = setup(4);
        let plan = baseline(
            &c,
            &mrt,
            RouteRequest {
                from_pe: PeId(0),
                avail: 1,
                to_pe: PeId(1),
                deadline: 5,
            },
        );
        assert_eq!(plan, Some(RoutePlan::Direct));
    }

    #[test]
    fn two_hop_distance_needs_one_routing_pe() {
        let (c, mrt) = setup(4);
        // PE0 -> PE2: PE1 is adjacent to both; one hop onto PE1 lets the
        // consumer read across the last link.
        let plan = baseline(
            &c,
            &mrt,
            RouteRequest {
                from_pe: PeId(0),
                avail: 1,
                to_pe: PeId(2),
                deadline: 3,
            },
        )
        .expect("routable");
        assert_eq!(plan.hops().len(), 1);
        assert_eq!(plan.hops()[0].pe, PeId(1));
    }

    #[test]
    fn deadline_too_tight_fails() {
        let (c, mrt) = setup(4);
        // PE0 to PE15 (corner to corner): needs 5 hops, deadline allows 1.
        let plan = baseline(
            &c,
            &mrt,
            RouteRequest {
                from_pe: PeId(0),
                avail: 1,
                to_pe: PeId(15),
                deadline: 2,
            },
        );
        assert!(plan.is_none());
    }

    #[test]
    fn far_corner_routes_given_time() {
        let (c, mrt) = setup(8);
        let plan = baseline(
            &c,
            &mrt,
            RouteRequest {
                from_pe: PeId(0),
                avail: 1,
                to_pe: PeId(15),
                deadline: 8,
            },
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
        let plan = baseline(
            &c,
            &mrt,
            RouteRequest {
                from_pe: PeId(0),
                avail: 1,
                to_pe: PeId(2),
                deadline: 9,
            },
        )
        .expect("routable around blockage");
        assert_eq!(plan.hops().len(), 3);
        assert!(plan.hops().iter().all(|h| h.pe != PeId(1)));
    }

    #[test]
    fn ring_route_rejects_backward_page_motion() {
        let (c, mrt) = setup(4);
        // PE2 (page 1) -> PE1 (page 0): backwards on the ring path.
        let plan = ring(
            &c,
            &mrt,
            RouteRequest {
                from_pe: PeId(2),
                avail: 3,
                to_pe: PeId(1),
                deadline: 12,
            },
        );
        assert!(plan.is_none());
        // Forward: PE1 (page 0) -> PE2 (page 1) is direct.
        let plan = ring(
            &c,
            &mrt,
            RouteRequest {
                from_pe: PeId(1),
                avail: 3,
                to_pe: PeId(2),
                deadline: 3,
            },
        );
        assert_eq!(plan, Some(RoutePlan::Direct));
    }

    #[test]
    fn ring_route_allows_waiting_then_crossing() {
        let (c, mrt) = setup(4);
        // PE0 (page 0) -> PE7 (row1,col3: page 1): distance 3. Value may
        // park at PE0 and hop through page 0/1 PEs.
        let plan = ring(
            &c,
            &mrt,
            RouteRequest {
                from_pe: PeId(0),
                avail: 1,
                to_pe: PeId(7),
                deadline: 9,
            },
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
        let plan = strict(
            &c,
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
        let plan = strict(
            &c,
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
        let plan = strict(
            &c,
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

    /// Why strict routes are not shared across a walk (see the module
    /// docs): a strict chain can pass through the consumer's PE at the
    /// candidate's phase. On a 4×4 at II 1 whose only reserved slot is the
    /// producer's, on PE 0 at time 0, the one-step chain from PE 0 at
    /// avail 1 to a consumer on PE 1 at deadline 2 hops onto PE 1 at time
    /// 1; with the consumer's compute slot on PE 1 reserved too, there is
    /// no chain.
    #[test]
    fn strict_route_depends_on_the_candidate_slot() {
        let (c, mut mrt) = setup(1);
        mrt.reserve(PeId(0), 0, crate::mrt::SlotUse::Compute(0), false);
        let req = RouteRequest {
            from_pe: PeId(0),
            avail: 1,
            to_pe: PeId(1),
            deadline: 2,
        };
        let through = RouteHop {
            pe: PeId(1),
            time: 1,
        };
        assert_eq!(
            strict(&c, &mrt, req, 8),
            Some(RoutePlan::Chain(vec![through]))
        );
        mrt.reserve(PeId(1), 2, crate::mrt::SlotUse::Compute(1), false);
        assert_eq!(strict(&c, &mrt, req, 8), None);
    }

    #[test]
    fn strict_cannot_wrap_the_ring() {
        let (c, mrt) = setup(8);
        // Path semantics: page 3 -> page 0 (the wrap link) is rejected
        // even though the quadrant pages are physically adjacent.
        let plan = strict(
            &c,
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
        let plan = baseline(
            &c,
            &mrt,
            RouteRequest {
                from_pe: PeId(0),
                avail: 1,
                to_pe: PeId(10),
                deadline: 8,
            },
        )
        .expect("routable");
        let hops = plan.hops();
        for w in hops.windows(2) {
            assert!(w[0].time < w[1].time);
        }
        assert!(hops.first().map(|h| h.time >= 1).unwrap_or(true));
    }
}
