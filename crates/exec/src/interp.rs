//! The golden reference: direct interpretation of a DFG over a number of
//! loop iterations, following dataflow semantics only (no schedule, no
//! fabric).

use crate::error::ExecError;
use crate::semantics::{const_value, eval, Word};
use cgra_dfg::graph::{Dfg, NodeId, OpKind};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::HashMap;

/// Per-stream-load input values: `streams[node][iteration]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputStreams {
    streams: HashMap<u32, Vec<Word>>,
}

impl InputStreams {
    /// Random inputs for every stream load of `dfg`, `iters` values each.
    pub fn random(dfg: &Dfg, iters: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut streams = HashMap::new();
        for n in dfg.node_ids() {
            if dfg.node(n).op == OpKind::Load && dfg.pred_edges(n).count() == 0 {
                streams.insert(
                    n.0,
                    (0..iters).map(|_| rng.gen_range(-1000..1000)).collect(),
                );
            }
        }
        InputStreams { streams }
    }

    /// The input for a stream load at one iteration, if present.
    pub fn try_get(&self, node: NodeId, iteration: usize) -> Option<Word> {
        self.streams
            .get(&node.0)
            .and_then(|v| v.get(iteration))
            .copied()
    }

    /// The input for a stream load at one iteration.
    ///
    /// # Panics
    ///
    /// When the stream is missing or too short — convenience for tests
    /// that built the streams themselves; execution paths use
    /// [`InputStreams::try_get`] and report a typed error instead.
    pub fn get(&self, node: NodeId, iteration: usize) -> Word {
        self.try_get(node, iteration)
            .unwrap_or_else(|| panic!("no input for {node} iteration {iteration}"))
    }
}

/// Outputs: for each store node, the value stored at each iteration.
pub type Outputs = HashMap<u32, Vec<Word>>;

/// Topological order of `dfg` over its distance-0 edges (carried edges
/// read earlier iterations and impose no intra-iteration order), or
/// [`ExecError::CyclicDfg`] if a zero-distance cycle slipped past the
/// builder's validation.
fn topo_order(dfg: &Dfg) -> Result<Vec<NodeId>, ExecError> {
    let n = dfg.num_nodes();
    let mut indeg = vec![0usize; n];
    for e in dfg.edges() {
        if e.distance == 0 {
            indeg[e.dst.index()] += 1;
        }
    }
    let mut queue: Vec<NodeId> = dfg.node_ids().filter(|v| indeg[v.index()] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop() {
        order.push(v);
        for e in dfg.succ_edges(v) {
            let edge = dfg.edge(e);
            if edge.distance == 0 {
                indeg[edge.dst.index()] -= 1;
                if indeg[edge.dst.index()] == 0 {
                    queue.push(edge.dst);
                }
            }
        }
    }
    if order.len() != n {
        return Err(ExecError::CyclicDfg);
    }
    Ok(order)
}

/// Interpret `dfg` for `iters` iterations over `inputs`.
///
/// Loop-carried reads before iteration 0 see the value 0 (the paper's
/// prologue is out of scope; both the interpreter and the machine use the
/// same convention, so equivalence is unaffected).
///
/// # Errors
///
/// [`ExecError::MissingInput`] when a stream load has no value for some
/// iteration, [`ExecError::CyclicDfg`] when the graph has a
/// zero-distance cycle, [`ExecError::MissingOperand`] when a node lacks an
/// operand its op reads.
pub fn interpret(dfg: &Dfg, inputs: &InputStreams, iters: usize) -> Result<Outputs, ExecError> {
    let order = topo_order(dfg)?;
    // values[node][iteration]
    let mut values: Vec<Vec<Word>> = vec![vec![0; iters]; dfg.num_nodes()];
    for i in 0..iters {
        for &v in &order {
            let node = dfg.node(v);
            let op = node.op;
            let operands: Vec<Word> = dfg
                .pred_edges(v)
                .map(|e| {
                    let edge = dfg.edge(e);
                    let d = edge.distance as usize;
                    if i >= d {
                        values[edge.src.index()][i - d]
                    } else {
                        0
                    }
                })
                .collect();
            values[v.index()][i] = match op {
                OpKind::Const => const_value(v.index()),
                OpKind::Load if operands.is_empty() => {
                    inputs.try_get(v, i).ok_or(ExecError::MissingInput {
                        node: v.0,
                        iteration: i,
                    })?
                }
                _ => eval(v, op, &operands)?,
            };
        }
    }
    Ok(dfg
        .node_ids()
        .filter(|&v| dfg.node(v).op == OpKind::Store)
        .map(|v| (v.0, values[v.index()].clone()))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_dfg::DfgBuilder;

    #[test]
    fn chain_computes_expected_values() {
        // st = (x + x) << 1
        let mut b = DfgBuilder::new("t");
        let x = b.node(OpKind::Load);
        let s = b.apply(OpKind::Add, &[x, x]);
        let sh = b.apply(OpKind::Shift, &[s]);
        let st = b.apply(OpKind::Store, &[sh]);
        let dfg = b.build().unwrap();
        let inputs = InputStreams::random(&dfg, 4, 1);
        let out = interpret(&dfg, &inputs, 4).unwrap();
        for (i, &v) in out[&st.0].iter().enumerate() {
            let x_v = inputs.get(x, i);
            assert_eq!(v, (x_v + x_v) << 1);
        }
    }

    #[test]
    fn accumulator_sums_history() {
        // acc += x (self-loop, distance 1), st = acc
        let mut b = DfgBuilder::new("acc");
        let x = b.node(OpKind::Load);
        let acc = b.apply(OpKind::Add, &[x]);
        b.carried_edge(acc, acc, 1);
        let st = b.apply(OpKind::Store, &[acc]);
        let dfg = b.build().unwrap();
        let inputs = InputStreams::random(&dfg, 5, 2);
        let out = interpret(&dfg, &inputs, 5).unwrap();
        let mut sum = 0i64;
        for (i, &v) in out[&st.0].iter().enumerate() {
            sum += inputs.get(x, i);
            assert_eq!(v, sum);
        }
    }

    #[test]
    fn carried_distance_two_reads_two_back() {
        let mut b = DfgBuilder::new("d2");
        let x = b.node(OpKind::Load);
        let y = b.labeled(OpKind::Add, "y");
        b.carried_edge(x, y, 2);
        let st = b.apply(OpKind::Store, &[y]);
        let dfg = b.build().unwrap();
        let inputs = InputStreams::random(&dfg, 6, 3);
        let out = interpret(&dfg, &inputs, 6).unwrap();
        assert_eq!(out[&st.0][0], 0);
        assert_eq!(out[&st.0][1], 0);
        for (i, &v) in out[&st.0].iter().enumerate().skip(2) {
            assert_eq!(v, inputs.get(x, i - 2));
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let dfg = cgra_dfg::kernels::sobel();
        let a = interpret(&dfg, &InputStreams::random(&dfg, 8, 9), 8);
        let b = interpret(&dfg, &InputStreams::random(&dfg, 8, 9), 8);
        assert_eq!(a, b);
    }

    #[test]
    fn all_kernels_interpret() {
        for k in cgra_dfg::kernels::all() {
            let inputs = InputStreams::random(&k, 4, 7);
            let out = interpret(&k, &inputs, 4).unwrap();
            assert!(!out.is_empty(), "{} produced no outputs", k.name);
        }
    }

    #[test]
    fn short_input_stream_is_typed_error() {
        let mut b = DfgBuilder::new("short");
        let x = b.node(OpKind::Load);
        b.apply(OpKind::Store, &[x]);
        let dfg = b.build().unwrap();
        // Streams hold 2 values; ask for 4 iterations.
        let inputs = InputStreams::random(&dfg, 2, 5);
        assert_eq!(
            interpret(&dfg, &inputs, 4),
            Err(ExecError::MissingInput {
                node: x.0,
                iteration: 2,
            })
        );
    }
}
