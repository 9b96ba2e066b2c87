//! Seeded random DFG generation for property tests and golden snapshots.
//!
//! The generator produces *layered* graphs — the shape of real loop-body
//! DFGs (loads feed arithmetic layers feeding stores) — with optional
//! recurrence cycles of configurable length and distance.

use crate::builder::DfgBuilder;
use crate::graph::{Dfg, NodeId, OpKind};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Parameters for random DFG generation.
#[derive(Debug, Clone, Copy)]
pub struct RandomDfgParams {
    /// Number of layers (≥ 2: a load layer and a store layer).
    pub layers: usize,
    /// Nodes per layer, min and max inclusive.
    pub width: (usize, usize),
    /// Probability of an edge from a node to each node of the next layer.
    pub edge_prob: f64,
    /// Number of recurrence cycles to thread through the graph.
    pub recurrences: usize,
    /// Carried distance of each recurrence back-edge.
    pub rec_distance: u32,
}

impl Default for RandomDfgParams {
    fn default() -> Self {
        RandomDfgParams {
            layers: 4,
            width: (2, 5),
            edge_prob: 0.4,
            recurrences: 0,
            rec_distance: 1,
        }
    }
}

/// Generate a random, always-valid DFG from a seed.
///
/// Guarantees:
/// * validates (`validate::validate` passes);
/// * every non-first-layer node has at least one predecessor (no floating
///   arithmetic);
/// * recurrence back-edges have distance ≥ 1, so no zero-distance cycles.
pub fn random_dfg(seed: u64, params: RandomDfgParams) -> Dfg {
    assert!(params.layers >= 2, "need at least load and store layers");
    assert!(params.width.0 >= 1 && params.width.0 <= params.width.1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = DfgBuilder::new(format!("rand{seed}"));
    let mut layers: Vec<Vec<NodeId>> = Vec::with_capacity(params.layers);

    let arith = [
        OpKind::Add,
        OpKind::Sub,
        OpKind::Mul,
        OpKind::Shift,
        OpKind::Logic,
        OpKind::Cmp,
        OpKind::Select,
        OpKind::Abs,
    ];

    for layer in 0..params.layers {
        let w = rng.gen_range(params.width.0..=params.width.1);
        let mut ids = Vec::with_capacity(w);
        for _ in 0..w {
            let op = if layer == 0 {
                OpKind::Load
            } else if layer == params.layers - 1 {
                OpKind::Store
            } else {
                *arith.choose(&mut rng).expect("non-empty op set")
            };
            ids.push(b.node(op));
        }
        layers.push(ids);
    }

    for li in 1..params.layers {
        let (prev, cur) = (layers[li - 1].clone(), layers[li].clone());
        for &dst in &cur {
            let mut has_pred = false;
            for &src in &prev {
                if rng.gen_bool(params.edge_prob) {
                    b.edge(src, dst);
                    has_pred = true;
                }
            }
            if !has_pred {
                let src = *prev.choose(&mut rng).expect("layers non-empty");
                b.edge(src, dst);
            }
        }
    }

    // Thread recurrences: pick a forward chain inside the arithmetic
    // layers and close it with a carried back-edge.
    for _ in 0..params.recurrences {
        if params.layers < 3 {
            break;
        }
        let from_layer = rng.gen_range(1..params.layers - 1);
        let to_layer = rng.gen_range(from_layer..params.layers - 1);
        let head = *layers[from_layer].choose(&mut rng).expect("non-empty");
        let tail = *layers[to_layer].choose(&mut rng).expect("non-empty");
        if from_layer < to_layer {
            b.edge(head, tail);
        }
        b.carried_edge(tail, head, params.rec_distance.max(1));
    }

    b.build().expect("generator maintains validity invariants")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::rec_mii;
    use crate::validate::validate;

    #[test]
    fn deterministic_for_seed() {
        let p = RandomDfgParams::default();
        assert_eq!(random_dfg(42, p), random_dfg(42, p));
    }

    #[test]
    fn different_seeds_differ() {
        let p = RandomDfgParams::default();
        assert_ne!(random_dfg(1, p), random_dfg(2, p));
    }

    #[test]
    fn always_valid_across_seeds() {
        for seed in 0..50 {
            let g = random_dfg(
                seed,
                RandomDfgParams {
                    recurrences: (seed % 3) as usize,
                    ..Default::default()
                },
            );
            assert!(validate(&g).is_ok(), "seed {seed} invalid");
        }
    }

    #[test]
    fn recurrences_raise_rec_mii() {
        let without = random_dfg(7, RandomDfgParams::default());
        assert_eq!(rec_mii(&without), 1);
        let with = random_dfg(
            7,
            RandomDfgParams {
                recurrences: 2,
                ..Default::default()
            },
        );
        assert!(rec_mii(&with) >= 1);
    }

    #[test]
    fn first_layer_is_loads_last_is_stores() {
        let g = random_dfg(3, RandomDfgParams::default());
        // Node 0 is always in the first layer; the last node in the last.
        assert_eq!(g.node(crate::graph::NodeId(0)).op, OpKind::Load);
        let last = crate::graph::NodeId(g.num_nodes() as u32 - 1);
        assert_eq!(g.node(last).op, OpKind::Store);
    }

    #[test]
    fn interior_nodes_have_predecessors() {
        let g = random_dfg(11, RandomDfgParams::default());
        for id in g.node_ids() {
            if g.node(id).op != OpKind::Load {
                assert!(g.pred_edges(id).count() > 0, "{id} has no predecessor");
            }
        }
    }
}
