//! Cycle-level machine execution of a mapped schedule.
//!
//! Events — every op instance and every routing-hop instance — execute in
//! strict time order against a store of *published* values: a value
//! exists at a PE only from the cycle its producing step completes there.
//! Each hop and consumer reads where the mapper's read rule
//! ([`cgra_mapper::edge_reads`], the rule `validate_mapping` checks)
//! says, so a mapping with a read the validator rejects — too early, off
//! the ring, or from no chain or fanout site — fails with
//! [`ExecError::NoReadSource`]. The rule only returns sources on the
//! reader's PE or a neighbour that hold the value by the read cycle; the
//! machine re-checks both on every read only as a guard
//! ([`ExecError::NotAdjacent`], [`ExecError::ValueNotPresent`]). What it
//! checks by itself is the values: each read takes the right iteration's
//! value from what earlier steps actually published, so if the mapper,
//! the PageMaster fold, or any timing argument were wrong, some read
//! would find nothing (or the wrong iteration's value) and execution
//! would fail — this is the semantic ground truth the structural
//! validators approximate.

use crate::error::ExecError;
use crate::interp::{InputStreams, Outputs};
use crate::semantics::{const_value, eval, Word};
use cgra_arch::topology::PeId;
use cgra_arch::CgraConfig;
use cgra_dfg::graph::OpKind;
use cgra_mapper::{edge_reads, MapResult};
use std::collections::HashMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// Hops publish before same-cycle consumers would read... execution
    /// order within a cycle is by (time, kind, index); reads only accept
    /// values published at strictly earlier cycles, so intra-cycle order
    /// does not matter for correctness — only for determinism.
    Node {
        node: u32,
    },
    Hop {
        edge: u32,
        hop: u32,
    },
}

/// Execute `result`'s mapping on `cgra`, feeding `inputs`, for `iters`
/// iterations. Returns the per-store outputs.
pub fn execute(
    result: &MapResult,
    cgra: &CgraConfig,
    inputs: &InputStreams,
    iters: usize,
) -> Result<Outputs, ExecError> {
    let (mdfg, mapping, mesh) = (&result.mdfg, &result.mapping, cgra.mesh());
    let dfg = &mdfg.dfg;
    let ii = mapping.ii as u64;
    let reads = (0..dfg.num_edges())
        .map(|ei| {
            edge_reads(mdfg, cgra, mapping, result.mode, ei)
                .map_err(|_| ExecError::NoReadSource { edge: ei })
        })
        .collect::<Result<Vec<_>, _>>()?;

    // Build the event list: every node and hop instance.
    let mut events: Vec<(u64, EventKind, u64)> = Vec::new(); // (time, kind, instance)
    for j in 0..iters as u64 {
        for v in dfg.node_ids() {
            let t = mapping.placements[v.index()].time as u64;
            events.push((t + j * ii, EventKind::Node { node: v.0 }, j));
        }
        for (ei, hops) in mapping.routes.iter().enumerate() {
            for (hi, h) in hops.iter().enumerate() {
                events.push((
                    h.time as u64 + j * ii,
                    EventKind::Hop {
                        edge: ei as u32,
                        hop: hi as u32,
                    },
                    j,
                ));
            }
        }
    }
    events.sort_unstable();

    // published[(pe, node, instance)] -> (avail_time, value)
    let mut published: HashMap<(PeId, u32, u64), (u64, Word)> = HashMap::new();
    // memory[(store node, instance)] -> (visible_time, value)
    let mut memory: HashMap<(u32, u64), (u64, Word)> = HashMap::new();
    let mut outputs: Outputs = HashMap::new();
    let publish = |map: &mut HashMap<(PeId, u32, u64), (u64, Word)>,
                   key: (PeId, u32, u64),
                   avail: u64,
                   value: Word| {
        let entry = map.entry(key).or_insert((avail, value));
        debug_assert_eq!(entry.1, value, "conflicting value republished at {key:?}");
        if avail < entry.0 {
            *entry = (avail, value);
        }
    };

    // A read of `node`'s value of `instance` by `reader` from `spe`.
    let read = |published: &HashMap<(PeId, u32, u64), (u64, Word)>,
                reader: PeId,
                spe: PeId,
                node: u32,
                instance: u64,
                at: u64|
     -> Result<Word, ExecError> {
        if spe != reader && !mesh.adjacent(spe, reader) {
            return Err(ExecError::NotAdjacent {
                reader,
                source: spe,
            });
        }
        match published.get(&(spe, node, instance)) {
            Some(&(avail, value)) if avail <= at => Ok(value),
            _ => Err(ExecError::ValueNotPresent {
                what: format!("n{node} instance {instance} at {spe} by cycle {at}"),
            }),
        }
    };

    for (time, kind, j) in events {
        match kind {
            EventKind::Hop { edge, hop } => {
                let e = dfg.edge(cgra_dfg::EdgeId(edge));
                let r = reads[edge as usize][hop as usize];
                let value = read(&published, r.pe, r.from.0, e.src.0, j, time)?;
                publish(&mut published, (r.pe, e.src.0, j), time + 1, value);
            }
            EventKind::Node { node } => {
                let v = cgra_dfg::NodeId(node);
                let op = dfg.node(v).op;
                let pe_v = mapping.placements[v.index()].pe;
                // Gather operands in pred-edge order.
                let mut operands = Vec::new();
                for pe in dfg.pred_edges(v) {
                    let ei = pe.index();
                    let e = dfg.edge(pe);
                    let Some(inst) = j.checked_sub(e.distance as u64) else {
                        operands.push(0); // pre-loop iterations see zero
                        continue;
                    };
                    operands.push(if mdfg.is_mem_edge(ei) {
                        match memory.get(&(e.src.0, inst)) {
                            Some(&(visible, value)) if visible <= time => value,
                            _ => {
                                return Err(ExecError::MemoryNotReady {
                                    store: e.src.0,
                                    instance: inst,
                                })
                            }
                        }
                    } else {
                        let src = reads[ei]
                            .last()
                            .expect("a routable edge has a consumer read");
                        read(&published, pe_v, src.from.0, e.src.0, inst, time)?
                    });
                }
                let value =
                    match op {
                        OpKind::Const => const_value(v.index()),
                        OpKind::Load if operands.is_empty() => inputs
                            .try_get(v, j as usize)
                            .ok_or(ExecError::MissingInput {
                                node: v.0,
                                iteration: j as usize,
                            })?,
                        _ => eval(v, op, &operands)?,
                    };
                publish(&mut published, (pe_v, node, j), time + 1, value);
                if op == OpKind::Store {
                    // Visible in the data memory one cycle after execution.
                    memory.insert((node, j), (time + 2, value));
                    outputs.entry(node).or_default().push(value);
                }
            }
        }
    }
    Ok(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::interpret;
    use cgra_mapper::{map_baseline, map_constrained, MapOptions};

    const ITERS: usize = 8;

    fn check_kernel(name: &str) {
        let cgra = cgra_arch::CgraConfig::square(4).with_rf_size(32);
        let kernel = cgra_dfg::kernels::by_name(name).unwrap();
        let inputs = InputStreams::random(&kernel, ITERS, 0xFEED);
        let golden = interpret(&kernel, &inputs, ITERS).unwrap();

        for (label, result) in [
            (
                "baseline",
                map_baseline(&kernel, &cgra, &MapOptions::default()).unwrap(),
            ),
            (
                "constrained",
                map_constrained(&kernel, &cgra, &MapOptions::default()).unwrap(),
            ),
        ] {
            let out = execute(&result, &cgra, &inputs, ITERS)
                .unwrap_or_else(|e| panic!("{name}/{label}: {e}"));
            // Compare only the original kernel's stores (spill stores are
            // implementation detail).
            for (store, values) in &golden {
                assert_eq!(
                    out.get(store),
                    Some(values),
                    "{name}/{label}: store n{store} diverged"
                );
            }
        }
    }

    #[test]
    fn machine_matches_interpreter_mpeg2() {
        check_kernel("mpeg2");
    }

    #[test]
    fn machine_matches_interpreter_sor() {
        check_kernel("sor");
    }

    #[test]
    fn machine_matches_interpreter_fir() {
        check_kernel("fir");
    }

    #[test]
    fn machine_matches_interpreter_all_kernels() {
        for name in cgra_dfg::kernels::NAMES {
            check_kernel(name);
        }
    }

    #[test]
    fn folded_schedule_computes_identically() {
        let cgra = cgra_arch::CgraConfig::square(4).with_rf_size(64);
        for name in ["mpeg2", "laplace", "sor", "compress"] {
            let kernel = cgra_dfg::kernels::by_name(name).unwrap();
            let mapped = map_constrained(&kernel, &cgra, &MapOptions::default()).unwrap();
            let folded = cgra_core::fold_to_page(&mapped, &cgra).unwrap();
            let inputs = InputStreams::random(&kernel, ITERS, 0xF01D);
            let golden = interpret(&kernel, &inputs, ITERS).unwrap();
            let out = execute(&folded, &cgra.page_fabric(), &inputs, ITERS)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            for (store, values) in &golden {
                assert_eq!(out.get(store), Some(values), "{name}: store n{store}");
            }
        }
    }

    #[test]
    fn corrupted_schedule_fails_to_execute() {
        let cgra = cgra_arch::CgraConfig::square(4);
        let kernel = cgra_dfg::kernels::mpeg2();
        let mut mapped = map_baseline(&kernel, &cgra, &MapOptions::default()).unwrap();
        // Teleport one op far away: some read must break.
        let victim = mapped
            .mapping
            .placements
            .iter()
            .position(|p| p.pe != cgra_arch::PeId(15))
            .unwrap();
        mapped.mapping.placements[victim].pe = cgra_arch::PeId(15);
        let inputs = InputStreams::random(&kernel, 4, 1);
        // The read rule finds no legal source for one of the victim's
        // reads before the machine runs a cycle.
        let r = execute(&mapped, &cgra, &inputs, 4);
        assert!(
            matches!(r, Err(ExecError::NoReadSource { .. })),
            "corrupted schedule: {r:?}"
        );
    }

    #[test]
    fn read_backwards_along_the_ring_fails_to_execute() {
        // A stream load on PE2 (page 1 of the 4x4's 2x2 pages) feeds a
        // store on its neighbour PE1 (page 0) one cycle later: adjacent
        // and timely, so the baseline executes it, but the read moves
        // back along the ring, which no constrained mapping may do.
        let mut b = cgra_dfg::DfgBuilder::new("backwards");
        let load = b.node(OpKind::Load);
        b.apply(OpKind::Store, &[load]);
        let kernel = b.build().unwrap();
        let cgra = cgra_arch::CgraConfig::square(4);
        let place = |pe, time| cgra_mapper::Placement { pe: PeId(pe), time };
        let mut mapped = MapResult {
            mapping: cgra_mapper::Mapping {
                ii: 2,
                placements: vec![place(2, 0), place(1, 1)],
                routes: vec![Vec::new()],
            },
            mdfg: cgra_mapper::MapDfg::unspilled(&kernel),
            mode: cgra_mapper::MapMode::Baseline,
        };
        let inputs = InputStreams::random(&kernel, 4, 1);
        let golden = interpret(&kernel, &inputs, 4).unwrap();
        assert_eq!(execute(&mapped, &cgra, &inputs, 4).unwrap(), golden);
        mapped.mode = cgra_mapper::MapMode::Constrained;
        assert_eq!(
            execute(&mapped, &cgra, &inputs, 4),
            Err(ExecError::NoReadSource { edge: 0 })
        );
    }
}
