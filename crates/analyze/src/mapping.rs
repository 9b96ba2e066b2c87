//! Modulo-resource and rotating-register analysis of a [`Mapping`].
//!
//! The resource/dataflow core reuses the mapper crate's independent
//! re-derivation ([`validate_mapping`] rebuilds the MRT and walks every
//! edge realisation from scratch — it never trusts the search that
//! produced the mapping) and lifts each [`Violation`] into the coded
//! diagnostic vocabulary. On top of that, this pass adds a check the
//! shallow validator lacks: **per-value lifetime analysis** (A102) — a
//! single value whose live range alone exceeds the rotating file is
//! unschedulable on this fabric no matter how other values are packed,
//! which is a stronger statement than the aggregate-pressure overflow
//! (A101).

use crate::diag::{Code, Diagnostic, Report, Span};
use cgra_arch::register::RotatingRf;
use cgra_arch::CgraConfig;
use cgra_mapper::{edge_reads, validate_mapping, MapDfg, MapMode, Mapping, Violation};

/// Lift one shallow [`Violation`] into a coded [`Diagnostic`].
pub fn diagnostic_from_violation(v: &Violation) -> Diagnostic {
    match v {
        Violation::SlotConflict { pe, slot } => Diagnostic::new(
            Code::A001PeSlotConflict,
            Span::Pe(pe.0),
            format!("two reservations collide at modulo slot {slot}"),
        ),
        Violation::BusOverflow { row, slot } => Diagnostic::new(
            Code::A002BusOverflow,
            Span::Global,
            format!("row {row} bus over capacity at slot {slot}"),
        ),
        Violation::BadCapability { node } => Diagnostic::new(
            Code::A003MissingFu,
            Span::Node(*node as u32),
            "placed on a PE lacking the required functional unit".to_string(),
        ),
        Violation::BadEdge { edge, reason } if *edge == usize::MAX => {
            Diagnostic::new(Code::A004ShapeMismatch, Span::Global, reason.clone())
        }
        Violation::BadEdge { edge, reason } => Diagnostic::new(
            Code::A005BadDataflow,
            Span::Edge(*edge as u32),
            reason.clone(),
        ),
        Violation::RingViolation { edge, reason } => Diagnostic::new(
            Code::A201RingStepViolation,
            Span::Edge(*edge as u32),
            reason.clone(),
        ),
        Violation::RfOverflow {
            pe,
            required,
            available,
        } => Diagnostic::new(
            Code::A101RfPressure,
            Span::Pe(pe.0),
            format!("rotating file needs {required} registers, has {available}"),
        ),
    }
}

/// Analyze a mapping: modulo-resource exclusivity, dataflow legality,
/// ring discipline, aggregate RF pressure (via the shallow validator)
/// plus per-value lifetime analysis (A102).
pub fn analyze_mapping(
    mdfg: &MapDfg,
    cgra: &CgraConfig,
    mapping: &Mapping,
    mode: MapMode,
) -> Report {
    let mut diagnostics: Vec<Diagnostic> = validate_mapping(mdfg, cgra, mapping, mode)
        .iter()
        .map(diagnostic_from_violation)
        .collect();

    // Shape errors poison every downstream index; stop like the shallow
    // validator does.
    if diagnostics
        .iter()
        .any(|d| d.code == Code::A004ShapeMismatch)
    {
        return Report::from_diagnostics(diagnostics);
    }

    // --- Per-value live-range analysis (first principles). ---
    // A value produced at `t` and last consumed at `T` occupies
    // `(T - t) / II + 1` rotating registers on its resident PE
    // (`RotatingRf::registers_for_range`). If that single interval
    // exceeds the file, the lifetime itself is unschedulable — report it
    // on the producing node, independent of aggregate packing.
    if mode.allows_waiting() {
        let dfg = &mdfg.dfg;
        let ii = mapping.ii;
        let rf = cgra.rf().size() as u32;
        for n in dfg.node_ids() {
            let pu = mapping.placements[n.index()];
            let avail = pu.time as u64 + 1;
            // The value's last read from the producer PE itself, where
            // the mapper's read rule (`edge_reads`) takes each hop's and
            // consumer's value from. An edge the rule rejects is already
            // a violation above and adds no read.
            let own = (pu.pe, pu.time + 1);
            let last_read = dfg
                .succ_edges(n)
                .filter_map(|e| edge_reads(mdfg, cgra, mapping, mode, e.index()).ok())
                .flatten()
                .filter(|r| r.from == own)
                .map(|r| r.time)
                .max();
            if let Some(read) = last_read {
                let needed = RotatingRf::registers_for_range(avail, read, ii);
                if needed > rf {
                    diagnostics.push(Diagnostic::new(
                        Code::A102LifetimeExceedsRotation,
                        Span::Node(n.0),
                        format!(
                            "value live {avail}..={read} needs {needed} rotating registers \
                             (II {ii}), file holds {rf}"
                        ),
                    ));
                }
            }
        }
    }

    Report::from_diagnostics(diagnostics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_arch::topology::PeId;
    use cgra_mapper::{map_baseline, map_constrained, MapOptions, Placement};

    #[test]
    fn clean_mappings_analyze_clean() {
        let cgra = CgraConfig::square(4);
        let k = cgra_dfg::kernels::fir();
        for (r, mode) in [
            (
                map_baseline(&k, &cgra, &MapOptions::default()).unwrap(),
                MapMode::Baseline,
            ),
            (
                map_constrained(&k, &cgra, &MapOptions::default()).unwrap(),
                MapMode::Constrained,
            ),
        ] {
            let rep = analyze_mapping(&r.mdfg, &cgra, &r.mapping, mode);
            assert!(rep.is_clean(), "{}", rep.render());
        }
    }

    #[test]
    fn lifetime_beyond_rotation_is_flagged_on_the_node() {
        // One producer, one consumer parked absurdly long: with II=2 and
        // an 8-register file, a park of 16·II busts the single value's
        // own live range.
        let mut b = cgra_dfg::DfgBuilder::new("t");
        let u = b.node(cgra_dfg::OpKind::Const);
        b.apply(cgra_dfg::OpKind::Add, &[u]);
        let m = MapDfg::unspilled(&b.build().unwrap());
        let cgra = CgraConfig::square(4);
        let mapping = Mapping {
            ii: 2,
            placements: vec![
                Placement {
                    pe: PeId(0),
                    time: 0,
                },
                Placement {
                    pe: PeId(1),
                    time: 33,
                },
            ],
            routes: vec![Vec::new()],
        };
        let rep = analyze_mapping(&m, &cgra, &mapping, MapMode::Baseline);
        assert!(
            rep.codes().contains(&Code::A102LifetimeExceedsRotation),
            "{}",
            rep.render()
        );
        // The aggregate pass agrees (the one value already overflows).
        assert!(rep.codes().contains(&Code::A101RfPressure));
    }

    #[test]
    fn shape_mismatch_short_circuits() {
        let mut b = cgra_dfg::DfgBuilder::new("t");
        let u = b.node(cgra_dfg::OpKind::Const);
        b.apply(cgra_dfg::OpKind::Add, &[u]);
        let m = MapDfg::unspilled(&b.build().unwrap());
        let cgra = CgraConfig::square(4);
        let mapping = Mapping {
            ii: 2,
            placements: vec![Placement {
                pe: PeId(0),
                time: 0,
            }],
            routes: vec![Vec::new()],
        };
        let rep = analyze_mapping(&m, &cgra, &mapping, MapMode::Baseline);
        assert_eq!(rep.codes(), vec![Code::A004ShapeMismatch]);
    }
}
