//! Scheduling-oriented DFG analyses.
//!
//! Modulo-scheduling precedence: if `u → v` has distance `d`, then under
//! initiation interval `II` the start times satisfy
//! `start(v) ≥ start(u) + latency(u) − II·d` (Rau \[11\]). All analyses here
//! derive from this inequality.

use crate::graph::{Dfg, NodeId};

/// Resource-constrained minimum II: `⌈|V| / num_pes⌉`, optionally refined
/// by a memory-bus bound when `mem_slots_per_cycle` is known.
///
/// # Panics
/// Panics if `num_pes` is zero.
pub fn res_mii(dfg: &Dfg, num_pes: usize) -> u32 {
    assert!(num_pes > 0, "need at least one PE");
    div_ceil(dfg.num_nodes(), num_pes) as u32
}

/// ResMII refined by a second resource class: the row buses serving
/// memory operations. `mem_slots_per_cycle` is `rows × buses_per_row`.
pub fn res_mii_with_mem(dfg: &Dfg, num_pes: usize, mem_slots_per_cycle: usize) -> u32 {
    let pe_bound = res_mii(dfg, num_pes);
    if mem_slots_per_cycle == 0 {
        return pe_bound;
    }
    let mem_bound = div_ceil(dfg.num_mem_ops(), mem_slots_per_cycle) as u32;
    pe_bound.max(mem_bound).max(1)
}

/// Recurrence-constrained minimum II: the smallest `II ≥ 1` for which no
/// dependence cycle has positive weight under `w(e) = latency − II·distance`.
///
/// Equivalently `max over cycles ⌈Σ latency / Σ distance⌉`. Computed by
/// binary search on II with a Bellman–Ford positive-cycle check; validation
/// guarantees every cycle carries distance ≥ 1, so weights are monotone in
/// II and the search is sound.
pub fn rec_mii(dfg: &Dfg) -> u32 {
    // Upper bound: sum of latencies (a cycle visiting every node once with
    // total distance 1).
    let hi: u32 = dfg
        .node_ids()
        .map(|n| dfg.node(n).op.latency())
        .sum::<u32>()
        .max(1);
    if !has_positive_cycle(dfg, 1) {
        return 1;
    }
    let (mut lo, mut hi) = (1u32, hi); // invariant: lo infeasible, hi feasible
    debug_assert!(!has_positive_cycle(dfg, hi));
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if has_positive_cycle(dfg, mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// The minimum initiation interval: `max(ResMII, RecMII)`.
pub fn mii(dfg: &Dfg, num_pes: usize) -> u32 {
    res_mii(dfg, num_pes).max(rec_mii(dfg))
}

/// Whether some dependence cycle has positive weight at the given II
/// (i.e. the II is recurrence-infeasible).
pub fn has_positive_cycle(dfg: &Dfg, ii: u32) -> bool {
    // Bellman-Ford longest-path relaxation from a virtual source connected
    // to every node with weight 0. If the V-th pass still relaxes, a
    // positive cycle exists.
    let n = dfg.num_nodes();
    let mut dist = vec![0i64; n];
    for pass in 0..=n {
        let mut changed = false;
        for e in dfg.edges() {
            let w = dfg.node(e.src).op.latency() as i64 - ii as i64 * e.distance as i64;
            let cand = dist[e.src.index()] + w;
            if cand > dist[e.dst.index()] {
                dist[e.dst.index()] = cand;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
        if pass == n {
            return true;
        }
    }
    unreachable!("loop always returns")
}

/// ASAP start times under a given (feasible) II: the least fixpoint of the
/// modulo precedence inequalities, with all sources at 0.
///
/// Returns `None` if `ii` is recurrence-infeasible.
pub fn asap(dfg: &Dfg, ii: u32) -> Option<Vec<u32>> {
    if has_positive_cycle(dfg, ii) {
        return None;
    }
    let n = dfg.num_nodes();
    let mut start = vec![0i64; n];
    loop {
        let mut changed = false;
        for e in dfg.edges() {
            let w = dfg.node(e.src).op.latency() as i64 - ii as i64 * e.distance as i64;
            let cand = start[e.src.index()] + w;
            if cand > start[e.dst.index()] {
                start[e.dst.index()] = cand;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Normalise so the earliest op starts at 0 (carried edges can push
    // starts negative relative to the all-zero seed).
    let min = start.iter().copied().min().unwrap_or(0);
    Some(start.iter().map(|&s| (s - min) as u32).collect())
}

/// ALAP start times under a given II relative to the ASAP makespan:
/// the *latest* start of each op such that every sink keeps its ASAP time
/// (mobility = alap − asap).
///
/// Returns `None` if `ii` is recurrence-infeasible.
pub fn alap(dfg: &Dfg, ii: u32) -> Option<Vec<u32>> {
    let asap = asap(dfg, ii)?;
    let horizon = asap
        .iter()
        .enumerate()
        .map(|(i, &s)| s + dfg.node(NodeId(i as u32)).op.latency())
        .max()
        .unwrap_or(0) as i64;
    let n = dfg.num_nodes();
    let mut start: Vec<i64> = (0..n)
        .map(|i| horizon - dfg.node(NodeId(i as u32)).op.latency() as i64)
        .collect();
    loop {
        let mut changed = false;
        for e in dfg.edges() {
            let w = dfg.node(e.src).op.latency() as i64 - ii as i64 * e.distance as i64;
            let cand = start[e.dst.index()] - w;
            if cand < start[e.src.index()] {
                start[e.src.index()] = cand;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    Some(start.iter().map(|&s| s.max(0) as u32).collect())
}

/// Node *height*: the longest latency-weighted path from the node to any
/// sink, ignoring loop-carried edges. Standard list-scheduling priority
/// (higher = more critical).
pub fn heights(dfg: &Dfg) -> Vec<u32> {
    let n = dfg.num_nodes();
    let mut h = vec![0i64; n];
    loop {
        let mut changed = false;
        for e in dfg.edges() {
            if e.distance != 0 {
                continue;
            }
            let cand = h[e.dst.index()] + dfg.node(e.src).op.latency() as i64;
            if cand > h[e.src.index()] {
                h[e.src.index()] = cand;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    h.iter().map(|&x| x as u32).collect()
}

/// Strongly connected components (Tarjan, iterative), considering *all*
/// edges regardless of distance. Singleton components without self-loops
/// are returned too; callers filter as needed.
pub fn sccs(dfg: &Dfg) -> Vec<Vec<NodeId>> {
    let n = dfg.num_nodes();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut result: Vec<Vec<NodeId>> = Vec::new();

    // Iterative Tarjan: frame = (node, next successor edge position).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut ei)) = call.last_mut() {
            if *ei == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            let succs: Vec<usize> = dfg
                .succ_edges(NodeId(v as u32))
                .map(|e| dfg.edge(e).dst.index())
                .collect();
            if *ei < succs.len() {
                let w = succs[*ei];
                *ei += 1;
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(NodeId(w as u32));
                        if w == v {
                            break;
                        }
                    }
                    result.push(comp);
                }
                call.pop();
                if let Some(&mut (parent, _)) = call.last_mut() {
                    low[parent] = low[parent].min(low[v]);
                }
            }
        }
    }
    result
}

fn div_ceil(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfgBuilder;
    use crate::graph::OpKind;

    /// a -> b -> c with a carried back-edge c -> a of distance 1:
    /// cycle latency 3, distance 1 => RecMII = 3.
    fn three_cycle() -> Dfg {
        let mut b = DfgBuilder::new("c3");
        let x = b.node(OpKind::Add);
        let y = b.node(OpKind::Add);
        let z = b.node(OpKind::Add);
        b.edge(x, y);
        b.edge(y, z);
        b.carried_edge(z, x, 1);
        b.build().unwrap()
    }

    #[test]
    fn res_mii_rounds_up() {
        let g = three_cycle();
        assert_eq!(res_mii(&g, 16), 1);
        assert_eq!(res_mii(&g, 2), 2);
        assert_eq!(res_mii(&g, 1), 3);
    }

    #[test]
    fn res_mii_with_mem_bound() {
        let mut b = DfgBuilder::new("mem");
        let l1 = b.node(OpKind::Load);
        let l2 = b.node(OpKind::Load);
        let l3 = b.node(OpKind::Load);
        let s = b.apply(OpKind::Add, &[l1, l2, l3]);
        b.apply(OpKind::Store, &[s]);
        let g = b.build().unwrap();
        // 4 mem ops, 2 mem slots/cycle => bound 2, dominating PE bound 1.
        assert_eq!(res_mii_with_mem(&g, 16, 2), 2);
        assert_eq!(res_mii_with_mem(&g, 16, 4), 1);
    }

    #[test]
    fn rec_mii_of_cycle() {
        assert_eq!(rec_mii(&three_cycle()), 3);
    }

    #[test]
    fn rec_mii_distance_divides() {
        // Same 3-cycle but carried distance 3 => RecMII = ceil(3/3) = 1.
        let mut b = DfgBuilder::new("c3d3");
        let x = b.node(OpKind::Add);
        let y = b.node(OpKind::Add);
        let z = b.node(OpKind::Add);
        b.edge(x, y);
        b.edge(y, z);
        b.carried_edge(z, x, 3);
        let g = b.build().unwrap();
        assert_eq!(rec_mii(&g), 1);
    }

    #[test]
    fn rec_mii_acyclic_is_one() {
        let mut b = DfgBuilder::new("lin");
        let x = b.node(OpKind::Load);
        let y = b.apply(OpKind::Add, &[x]);
        b.apply(OpKind::Store, &[y]);
        assert_eq!(rec_mii(&b.build().unwrap()), 1);
    }

    #[test]
    fn rec_mii_takes_max_cycle() {
        // Two cycles: one RecMII 2, one RecMII 4.
        let mut b = DfgBuilder::new("two");
        let a0 = b.node(OpKind::Add);
        let a1 = b.node(OpKind::Add);
        b.edge(a0, a1);
        b.carried_edge(a1, a0, 1); // RecMII 2
        let c0 = b.node(OpKind::Add);
        let c1 = b.node(OpKind::Add);
        let c2 = b.node(OpKind::Add);
        let c3 = b.node(OpKind::Add);
        b.edge(c0, c1);
        b.edge(c1, c2);
        b.edge(c2, c3);
        b.carried_edge(c3, c0, 1); // RecMII 4
        assert_eq!(rec_mii(&b.build().unwrap()), 4);
    }

    #[test]
    fn mii_is_max_of_bounds() {
        let g = three_cycle();
        assert_eq!(mii(&g, 16), 3); // rec-bound
        assert_eq!(mii(&g, 1), 3); // equal
    }

    #[test]
    fn asap_respects_precedence() {
        let g = three_cycle();
        let s = asap(&g, 3).expect("II=3 feasible");
        // a -> b -> c chain.
        assert!(s[1] > s[0]);
        assert!(s[2] > s[1]);
    }

    #[test]
    fn asap_infeasible_ii_is_none() {
        assert!(asap(&three_cycle(), 2).is_none());
        assert!(asap(&three_cycle(), 3).is_some());
    }

    #[test]
    fn alap_not_before_asap() {
        let g = three_cycle();
        let a = asap(&g, 3).unwrap();
        let l = alap(&g, 3).unwrap();
        for i in 0..g.num_nodes() {
            assert!(l[i] >= a[i], "node {i}: alap {} < asap {}", l[i], a[i]);
        }
    }

    #[test]
    fn heights_decrease_along_chains() {
        let mut b = DfgBuilder::new("chain");
        let x = b.node(OpKind::Load);
        let y = b.apply(OpKind::Add, &[x]);
        let z = b.apply(OpKind::Store, &[y]);
        let g = b.build().unwrap();
        let h = heights(&g);
        assert!(h[x.index()] > h[y.index()]);
        assert!(h[y.index()] > h[z.index()]);
        assert_eq!(h[z.index()], 0);
    }

    #[test]
    fn sccs_find_the_cycle() {
        let g = three_cycle();
        let comps = sccs(&g);
        let big: Vec<_> = comps.iter().filter(|c| c.len() > 1).collect();
        assert_eq!(big.len(), 1);
        assert_eq!(big[0].len(), 3);
    }

    #[test]
    fn sccs_partition_nodes() {
        let g = three_cycle();
        let comps = sccs(&g);
        let total: usize = comps.iter().map(|c| c.len()).sum();
        assert_eq!(total, g.num_nodes());
    }

    #[test]
    fn sccs_on_dag_are_singletons() {
        let mut b = DfgBuilder::new("dag");
        let x = b.node(OpKind::Load);
        let y = b.apply(OpKind::Add, &[x]);
        b.apply(OpKind::Store, &[y]);
        let g = b.build().unwrap();
        assert!(sccs(&g).iter().all(|c| c.len() == 1));
    }
}
