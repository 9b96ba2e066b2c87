//! The DFG intermediate representation.

use serde::{Deserialize, Serialize};

/// Identifier of a DFG node: a dense index, resolved by [`Dfg::node`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a DFG edge (dense index into [`Dfg::edges`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The raw index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The micro-operation a node performs.
///
/// Every operation executes in one PE cycle (paper §II: "each PE can
/// execute an arithmetic or logic operation such as addition, shift,
/// multiplication, or load/store every cycle").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Load a word from data memory (uses the row bus).
    Load,
    /// Store a word to data memory (uses the row bus).
    Store,
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Integer multiply.
    Mul,
    /// Shift (left/right; direction is irrelevant to scheduling).
    Shift,
    /// Bitwise and/or/xor.
    Logic,
    /// Comparison producing a flag/predicate.
    Cmp,
    /// Select between two inputs based on a predicate (used for clipping).
    Select,
    /// Absolute value.
    Abs,
    /// Materialise a constant into the datapath.
    Const,
    /// Pure data movement inserted by the mapper (routing PE).
    Route,
}

impl OpKind {
    /// Cycles the operation occupies a PE. Uniformly one in this model.
    #[inline]
    pub fn latency(self) -> u32 {
        1
    }

    /// Whether the operation accesses data memory (contending for the row bus).
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self, OpKind::Load | OpKind::Store)
    }

    /// Whether the operation needs the multiplier.
    #[inline]
    pub fn is_mul(self) -> bool {
        matches!(self, OpKind::Mul)
    }

    /// Short mnemonic for display.
    pub fn mnemonic(self) -> &'static str {
        match self {
            OpKind::Load => "ld",
            OpKind::Store => "st",
            OpKind::Add => "add",
            OpKind::Sub => "sub",
            OpKind::Mul => "mul",
            OpKind::Shift => "shl",
            OpKind::Logic => "and",
            OpKind::Cmp => "cmp",
            OpKind::Select => "sel",
            OpKind::Abs => "abs",
            OpKind::Const => "cst",
            OpKind::Route => "rt",
        }
    }
}

/// A DFG vertex: one micro-operation of the loop body.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// What the node computes.
    pub op: OpKind,
    /// Optional human-readable label (e.g. `"gx"`), for DOT dumps.
    pub label: Option<String>,
}

/// A data dependence between two operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    /// Producer.
    pub src: NodeId,
    /// Consumer.
    pub dst: NodeId,
    /// Iteration distance: 0 = same iteration, k ≥ 1 = the consumer reads
    /// the value produced k iterations earlier (loop-carried).
    pub distance: u32,
}

/// A data-flow graph for one loop kernel.
///
/// Construct via [`crate::DfgBuilder`], which validates the invariants
/// (edge endpoints in range, no zero-distance cycles).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dfg {
    /// Kernel name (benchmark identifier).
    pub name: String,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// Outgoing edge ids per node.
    succ: Vec<Vec<EdgeId>>,
    /// Incoming edge ids per node.
    pred: Vec<Vec<EdgeId>>,
}

impl Dfg {
    /// Assemble a DFG from raw parts *without* validation. Prefer
    /// [`crate::DfgBuilder`]; this exists for graph rewrites (unrolling,
    /// spilling) that maintain the invariants themselves.
    pub fn from_parts(name: String, nodes: Vec<Node>, edges: Vec<Edge>) -> Self {
        let mut succ = vec![Vec::new(); nodes.len()];
        let mut pred = vec![Vec::new(); nodes.len()];
        for (i, e) in edges.iter().enumerate() {
            succ[e.src.index()].push(EdgeId(i as u32));
            pred[e.dst.index()].push(EdgeId(i as u32));
        }
        Dfg {
            name,
            nodes,
            edges,
            succ,
            pred,
        }
    }

    /// A stable 64-bit structural fingerprint: FNV-1a over the name,
    /// every node's op kind, and every edge's `(src, dst, distance)`.
    /// Mapping caches key on this so a kernel edit (same name, different
    /// body) invalidates stale entries instead of silently reusing them.
    /// Labels are excluded — they are display-only and do not affect
    /// mapping.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64; // FNV offset basis
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3); // FNV prime
            }
        };
        eat(self.name.as_bytes());
        for n in &self.nodes {
            eat(&[n.op as u8]);
        }
        for e in &self.edges {
            eat(&e.src.0.to_le_bytes());
            eat(&e.dst.0.to_le_bytes());
            eat(&e.distance.to_le_bytes());
        }
        h
    }

    /// Number of operations.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of dependences.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The node with the given id.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The edge with the given id.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> Edge {
        self.edges[id.index()]
    }

    /// Iterate over node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterate over edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Iterate over all edges.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges.iter().copied()
    }

    /// Outgoing edges of a node.
    pub fn succ_edges(&self, n: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.succ[n.index()].iter().copied()
    }

    /// Incoming edges of a node.
    pub fn pred_edges(&self, n: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.pred[n.index()].iter().copied()
    }

    /// Number of memory operations (loads + stores).
    pub fn num_mem_ops(&self) -> usize {
        self.nodes.iter().filter(|n| n.op.is_mem()).count()
    }

    /// Whether the graph has any loop-carried dependence.
    pub fn has_recurrence(&self) -> bool {
        // A recurrence is a *cycle*; a lone distance>0 edge between
        // otherwise-ordered nodes is not. Detect via SCCs of size > 1 or
        // self-loops.
        let sccs = crate::analysis::sccs(self);
        sccs.iter().any(|scc| scc.len() > 1) || self.edges.iter().any(|e| e.src == e.dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfgBuilder;

    fn diamond() -> Dfg {
        let mut b = DfgBuilder::new("diamond");
        let l = b.node(OpKind::Load);
        let a = b.node(OpKind::Add);
        let m = b.node(OpKind::Mul);
        let s = b.node(OpKind::Store);
        b.edge(l, a);
        b.edge(l, m);
        b.edge(a, s);
        b.edge(m, s);
        b.build().unwrap()
    }

    #[test]
    fn counts() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_mem_ops(), 2);
    }

    #[test]
    fn adjacency_lists_are_consistent() {
        let g = diamond();
        for e in g.edge_ids() {
            let edge = g.edge(e);
            assert!(g.succ_edges(edge.src).any(|x| x == e));
            assert!(g.pred_edges(edge.dst).any(|x| x == e));
        }
    }

    #[test]
    fn diamond_has_no_recurrence() {
        assert!(!diamond().has_recurrence());
    }

    #[test]
    fn cycle_is_a_recurrence() {
        let mut b = DfgBuilder::new("rec");
        let a = b.node(OpKind::Add);
        let c = b.node(OpKind::Add);
        b.edge(a, c);
        b.carried_edge(c, a, 1);
        let g = b.build().unwrap();
        assert!(g.has_recurrence());
    }

    #[test]
    fn self_loop_is_a_recurrence() {
        let mut b = DfgBuilder::new("acc");
        let a = b.node(OpKind::Add);
        b.carried_edge(a, a, 1);
        let g = b.build().unwrap();
        assert!(g.has_recurrence());
    }

    #[test]
    fn lone_carried_edge_is_not_a_recurrence() {
        let mut b = DfgBuilder::new("fwd");
        let a = b.node(OpKind::Load);
        let c = b.node(OpKind::Store);
        b.carried_edge(a, c, 2);
        let g = b.build().unwrap();
        assert!(!g.has_recurrence());
    }

    #[test]
    fn op_kind_properties() {
        assert!(OpKind::Load.is_mem());
        assert!(OpKind::Store.is_mem());
        assert!(!OpKind::Add.is_mem());
        assert!(OpKind::Mul.is_mul());
        assert_eq!(OpKind::Add.latency(), 1);
    }
}
