//! Memory spilling — the paper's register-usage constraint (§VI-B.1).
//!
//! "The compiler must use memory to store temporary variables that a PE
//! may need. This simplifies moving the computation among pages." A
//! spilled dependence `u → v` becomes `u → store ⇒ load → v`, where `⇒`
//! is a *memory edge*: the value travels through the global data memory,
//! so the load may execute on any PE of any page — the dependence no
//! longer constrains placement, only timing (one cycle to store, one for
//! the datum to become visible).

use cgra_dfg::graph::{Dfg, Edge, Node, NodeId, OpKind};
use std::collections::BTreeSet;

/// A DFG prepared for mapping: possibly augmented with spill stores/loads,
/// with memory edges marked.
#[derive(Debug, Clone)]
pub struct MapDfg {
    /// The (possibly augmented) graph to place and route.
    pub dfg: Dfg,
    /// Per-edge flag: `true` for memory edges (store ⇒ load), which need
    /// no interconnect routing.
    pub mem_edge: Vec<bool>,
    /// Node count of the original kernel (spill ops are appended after).
    pub original_nodes: usize,
    /// Indices (into the *original* DFG's edge list) that were spilled.
    pub spilled: BTreeSet<usize>,
    /// Per augmented edge: the original-edge index it came from, or `None`
    /// for edges created by spilling (u→store, store⇒load, load→v).
    pub origin: Vec<Option<usize>>,
}

impl MapDfg {
    /// Wrap a DFG without any spills.
    pub fn unspilled(dfg: &Dfg) -> Self {
        MapDfg {
            mem_edge: vec![false; dfg.num_edges()],
            original_nodes: dfg.num_nodes(),
            spilled: BTreeSet::new(),
            origin: (0..dfg.num_edges()).map(Some).collect(),
            dfg: dfg.clone(),
        }
    }

    /// Rebuild `dfg` with the given original-edge indices spilled through
    /// memory.
    ///
    /// Spilled edges sharing a producer share one store; each spilled edge
    /// gets its own load (consumers may sit on different pages at
    /// different times).
    pub fn with_spills(dfg: &Dfg, spilled: &BTreeSet<usize>) -> Self {
        if spilled.is_empty() {
            return Self::unspilled(dfg);
        }
        let mut nodes: Vec<Node> = dfg.node_ids().map(|n| dfg.node(n).clone()).collect();
        let mut edges: Vec<Edge> = Vec::with_capacity(dfg.num_edges() + spilled.len() * 3);
        let mut mem_edge: Vec<bool> = Vec::with_capacity(edges.capacity());
        let mut origin: Vec<Option<usize>> = Vec::with_capacity(edges.capacity());
        let mut store_of: Vec<Option<NodeId>> = vec![None; dfg.num_nodes()];

        for (i, e) in dfg.edges().enumerate() {
            if !spilled.contains(&i) {
                edges.push(e);
                mem_edge.push(false);
                origin.push(Some(i));
                continue;
            }
            let st = *store_of[e.src.index()].get_or_insert_with(|| {
                nodes.push(Node {
                    op: OpKind::Store,
                    label: Some(format!("spill_st({})", e.src)),
                });
                let st = NodeId(nodes.len() as u32 - 1);
                edges.push(Edge {
                    src: e.src,
                    dst: st,
                    distance: 0,
                });
                mem_edge.push(false);
                origin.push(None);
                st
            });
            nodes.push(Node {
                op: OpKind::Load,
                label: Some(format!("spill_ld({}->{})", e.src, e.dst)),
            });
            let ld = NodeId(nodes.len() as u32 - 1);
            // The memory edge carries the original iteration distance.
            edges.push(Edge {
                src: st,
                dst: ld,
                distance: e.distance,
            });
            mem_edge.push(true);
            origin.push(None);
            edges.push(Edge {
                src: ld,
                dst: e.dst,
                distance: 0,
            });
            mem_edge.push(false);
            origin.push(None);
        }

        let augmented = Dfg::from_parts(dfg.name.clone(), nodes, edges);
        MapDfg {
            mem_edge,
            original_nodes: dfg.num_nodes(),
            spilled: spilled.clone(),
            origin,
            dfg: augmented,
        }
    }

    /// Whether an edge of the augmented graph is memory-carried.
    #[inline]
    pub fn is_mem_edge(&self, edge_index: usize) -> bool {
        self.mem_edge[edge_index]
    }

    /// Whether a node is a spill op (inserted, not part of the kernel).
    #[inline]
    pub fn is_spill_node(&self, n: NodeId) -> bool {
        n.index() >= self.original_nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_dfg::{DfgBuilder, OpKind};

    fn fanout2() -> Dfg {
        let mut b = DfgBuilder::new("f");
        let u = b.node(OpKind::Load);
        let v1 = b.apply(OpKind::Add, &[u]); // edge 0
        let v2 = b.apply(OpKind::Mul, &[u]); // edge 1
        b.apply(OpKind::Store, &[v1]); // edge 2
        b.apply(OpKind::Store, &[v2]); // edge 3
        b.build().unwrap()
    }

    #[test]
    fn unspilled_is_passthrough() {
        let g = fanout2();
        let m = MapDfg::unspilled(&g);
        assert_eq!(m.dfg.num_nodes(), g.num_nodes());
        assert!(m.mem_edge.iter().all(|&b| !b));
    }

    #[test]
    fn spilling_one_edge_adds_store_load() {
        let g = fanout2();
        let m = MapDfg::with_spills(&g, &BTreeSet::from([0]));
        assert_eq!(m.dfg.num_nodes(), g.num_nodes() + 2);
        // Original 4 edges: one replaced by 3 (u->st, st=>ld, ld->v1).
        assert_eq!(m.dfg.num_edges(), g.num_edges() + 2);
        assert_eq!(m.mem_edge.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn shared_producer_shares_store() {
        let g = fanout2();
        let m = MapDfg::with_spills(&g, &BTreeSet::from([0, 1]));
        // One store + two loads.
        assert_eq!(m.dfg.num_nodes(), g.num_nodes() + 3);
        assert_eq!(m.mem_edge.iter().filter(|&&b| b).count(), 2);
    }

    #[test]
    fn spill_nodes_are_flagged() {
        let g = fanout2();
        let m = MapDfg::with_spills(&g, &BTreeSet::from([0]));
        for n in m.dfg.node_ids() {
            assert_eq!(m.is_spill_node(n), n.index() >= g.num_nodes());
        }
    }

    #[test]
    fn carried_distance_moves_to_mem_edge() {
        let mut b = DfgBuilder::new("d");
        let u = b.node(OpKind::Load);
        let v = b.node(OpKind::Add);
        b.carried_edge(u, v, 3);
        b.apply(OpKind::Store, &[v]);
        let g = b.build().unwrap();
        let m = MapDfg::with_spills(&g, &BTreeSet::from([0]));
        let mem: Vec<_> = m
            .dfg
            .edges()
            .enumerate()
            .filter(|(i, _)| m.is_mem_edge(*i))
            .map(|(_, e)| e)
            .collect();
        assert_eq!(mem.len(), 1);
        assert_eq!(mem[0].distance, 3);
        // The surrounding store/load links are intra-iteration.
        for (i, e) in m.dfg.edges().enumerate() {
            if !m.is_mem_edge(i) {
                assert_eq!(e.distance, 0);
            }
        }
    }

    #[test]
    fn augmented_graph_validates() {
        let g = fanout2();
        let m = MapDfg::with_spills(&g, &BTreeSet::from([0, 1, 2, 3]));
        assert!(cgra_dfg::validate::validate(&m.dfg).is_ok());
    }
}
