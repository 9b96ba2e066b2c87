//! Cycle-level machine execution of a mapped schedule.
//!
//! Events — every op instance and every routing-hop instance — execute in
//! strict time order against a store of *published* values: a value
//! exists at a PE only from the cycle its producing step completes there,
//! and every read asserts presence at an adjacent-or-same PE at the read
//! cycle. If the mapper, the fanout-sharing logic, the PageMaster fold,
//! or any timing argument were wrong, some read here would find nothing
//! (or the wrong iteration's value) and execution would fail — this is
//! the semantic ground truth the structural validators approximate.

use crate::error::ExecError;
use crate::interp::{InputStreams, Outputs};
use crate::semantics::{const_value, eval, Word};
use cgra_arch::topology::{Mesh, PeId};
use cgra_dfg::graph::OpKind;
use cgra_mapper::{MapDfg, Mapping};
use std::collections::HashMap;

/// A schedule in the unified form the machine executes: absolute
/// (PE, time) per node and per routing hop, plus the initiation interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSchedule {
    /// Initiation interval (cycles between iterations).
    pub ii: u64,
    /// Per-node (PE, time).
    pub placements: Vec<(PeId, u64)>,
    /// Per-edge routing hops, each (PE, time).
    pub routes: Vec<Vec<(PeId, u64)>>,
}

impl MachineSchedule {
    /// View a mapper schedule.
    pub fn from_mapping(m: &Mapping) -> Self {
        MachineSchedule {
            ii: m.ii as u64,
            placements: m.placements.iter().map(|p| (p.pe, p.time as u64)).collect(),
            routes: m
                .routes
                .iter()
                .map(|hops| hops.iter().map(|h| (h.pe, h.time as u64)).collect())
                .collect(),
        }
    }
}

/// A static read plan for one edge: where each hop and the final consumer
/// pick the value up, in instance-0 coordinates. `(pe, exec_time)` of the
/// producing *step* — the value is available there from `exec_time + 1`.
#[derive(Debug, Clone)]
struct EdgePlan {
    /// Source step for each hop of this edge's own chain.
    hop_sources: Vec<(PeId, u64)>,
    /// Source step for the consumer's read (None for memory edges).
    read_source: Option<(PeId, u64)>,
}

/// Derive the static read plans, mirroring the mapping validator's
/// pick-source rule: prefer the edge's own chain location, then the first
/// legal sibling site in successor-edge order.
fn edge_plans(
    mdfg: &MapDfg,
    mesh: Mesh,
    sched: &MachineSchedule,
) -> Result<Vec<EdgePlan>, ExecError> {
    let dfg = &mdfg.dfg;
    let mut plans = Vec::with_capacity(dfg.num_edges());
    for (ei, e) in dfg.edges().enumerate() {
        if mdfg.is_mem_edge(ei) {
            plans.push(EdgePlan {
                hop_sources: Vec::new(),
                read_source: None,
            });
            continue;
        }
        let (pe_u, t_u) = sched.placements[e.src.index()];
        let (pe_v, t_v) = sched.placements[e.dst.index()];
        let consume = t_v + e.distance as u64 * sched.ii;
        // Sibling sites: landings of other routes of the same value.
        let sites: Vec<(PeId, u64)> = dfg
            .succ_edges(e.src)
            .filter(|e2| e2.index() != ei && !mdfg.is_mem_edge(e2.index()))
            .flat_map(|e2| sched.routes[e2.index()].iter().copied())
            .collect();
        let pick = |loc: (PeId, u64), to: PeId, read_time: u64| -> Option<(PeId, u64)> {
            let legal = |(pe, t): (PeId, u64)| read_time > t && (pe == to || mesh.adjacent(pe, to));
            if legal(loc) {
                return Some(loc);
            }
            sites.iter().copied().find(|&s| legal(s))
        };
        let mut loc = (pe_u, t_u);
        let mut hop_sources = Vec::with_capacity(sched.routes[ei].len());
        for &(hpe, ht) in &sched.routes[ei] {
            let src = pick(loc, hpe, ht).ok_or(ExecError::NoReadSource { edge: ei })?;
            hop_sources.push(src);
            loc = (hpe, ht);
        }
        let read_source =
            Some(pick(loc, pe_v, consume).ok_or(ExecError::NoReadSource { edge: ei })?);
        plans.push(EdgePlan {
            hop_sources,
            read_source,
        });
    }
    Ok(plans)
}

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

/// Execute `sched` of `mdfg` on a fabric with `mesh`, feeding `inputs`,
/// for `iters` iterations. Returns the per-store outputs.
pub fn execute(
    mdfg: &MapDfg,
    mesh: Mesh,
    sched: &MachineSchedule,
    inputs: &InputStreams,
    iters: usize,
) -> Result<Outputs, ExecError> {
    let dfg = &mdfg.dfg;
    let plans = edge_plans(mdfg, mesh, sched)?;

    // Build the event list: every node and hop instance.
    let mut events: Vec<(u64, EventKind, u64)> = Vec::new(); // (time, kind, instance)
    for j in 0..iters as u64 {
        for v in dfg.node_ids() {
            let (_, t) = sched.placements[v.index()];
            events.push((t + j * sched.ii, EventKind::Node { node: v.0 }, j));
        }
        for (ei, hops) in sched.routes.iter().enumerate() {
            for (hi, &(_, ht)) in hops.iter().enumerate() {
                events.push((
                    ht + j * sched.ii,
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

    let read = |published: &HashMap<(PeId, u32, u64), (u64, Word)>,
                reader: PeId,
                src_step: (PeId, u64),
                node: u32,
                instance: i64,
                at: u64|
     -> Result<Word, ExecError> {
        if instance < 0 {
            return Ok(0); // pre-loop iterations see zero
        }
        let (spe, _) = src_step;
        if spe != reader && !mesh.adjacent(spe, reader) {
            return Err(ExecError::NotAdjacent {
                reader,
                source: spe,
            });
        }
        match published.get(&(spe, node, instance as u64)) {
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
                let (hpe, _) = sched.routes[edge as usize][hop as usize];
                let src = plans[edge as usize].hop_sources[hop as usize];
                let src_shifted = (src.0, src.1 + j * sched.ii);
                let value = read(&published, hpe, src_shifted, e.src.0, j as i64, time)?;
                publish(&mut published, (hpe, e.src.0, j), time + 1, value);
            }
            EventKind::Node { node } => {
                let v = cgra_dfg::NodeId(node);
                let op = dfg.node(v).op;
                let (pe_v, _) = sched.placements[v.index()];
                // Gather operands in pred-edge order.
                let mut operands = Vec::new();
                for pe in dfg.pred_edges(v) {
                    let ei = pe.index();
                    let e = dfg.edge(pe);
                    let inst = j as i64 - e.distance as i64;
                    if mdfg.is_mem_edge(ei) {
                        let value = if inst < 0 {
                            0
                        } else {
                            match memory.get(&(e.src.0, inst as u64)) {
                                Some(&(visible, value)) if visible <= time => value,
                                _ => {
                                    return Err(ExecError::MemoryNotReady {
                                        store: e.src.0,
                                        instance: inst as u64,
                                    })
                                }
                            }
                        };
                        operands.push(value);
                        continue;
                    }
                    let src = plans[ei]
                        .read_source
                        .expect("non-mem edges always have a read source");
                    let src_shifted = if inst < 0 {
                        src // irrelevant; read() returns 0
                    } else {
                        (src.0, src.1 + inst as u64 * sched.ii)
                    };
                    operands.push(read(&published, pe_v, src_shifted, e.src.0, inst, time)?);
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
            let sched = MachineSchedule::from_mapping(&result.mapping);
            let out = execute(&result.mdfg, cgra.mesh(), &sched, &inputs, ITERS)
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
            let sched = MachineSchedule::from_mapping(&folded.mapping);
            let page = cgra.page_fabric().mesh();
            let out = execute(&folded.mdfg, page, &sched, &inputs, ITERS)
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
        let mapped = map_baseline(&kernel, &cgra, &MapOptions::default()).unwrap();
        let mut sched = MachineSchedule::from_mapping(&mapped.mapping);
        // Teleport one op far away: some read must break.
        let victim = sched
            .placements
            .iter()
            .position(|&(pe, _)| pe != cgra_arch::PeId(15))
            .unwrap();
        sched.placements[victim].0 = cgra_arch::PeId(15);
        let inputs = InputStreams::random(&kernel, 4, 1);
        let r = execute(&mapped.mdfg, cgra.mesh(), &sched, &inputs, 4);
        assert!(r.is_err(), "corrupted schedule executed successfully");
    }
}
