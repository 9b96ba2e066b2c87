//! The baseline mapper — the unconstrained compiler of §VII-A ("a
//! compiler based on the EMS mapping algorithm") used to establish the
//! baseline II for every kernel.

use crate::engine::{mii_with_mem, schedule};
use crate::error::MapError;
use crate::mapping::{MapMode, Mapping};
use crate::opts::MapOptions;
use crate::spill::MapDfg;
use cgra_arch::CgraConfig;
use cgra_dfg::graph::Dfg;
use cgra_obs::Tracer;

/// A finished mapping plus the graph it actually placed (identical to the
/// kernel for the baseline; spill-augmented for the constrained mapper).
#[derive(Debug, Clone)]
pub struct MapResult {
    /// The modulo schedule.
    pub mapping: Mapping,
    /// The placed graph (with any spill ops).
    pub mdfg: MapDfg,
    /// The discipline it was produced (and must be validated) under.
    pub mode: MapMode,
}

impl MapResult {
    /// The achieved initiation interval.
    pub fn ii(&self) -> u32 {
        self.mapping.ii
    }
}

/// Map a kernel with the conventional (unconstrained) discipline.
pub fn map_baseline(
    dfg: &Dfg,
    cgra: &CgraConfig,
    opts: &MapOptions,
) -> Result<MapResult, MapError> {
    map_baseline_traced(dfg, cgra, opts, &Tracer::off())
}

/// [`map_baseline`] with the search's decisions emitted to `tracer`.
pub fn map_baseline_traced(
    dfg: &Dfg,
    cgra: &CgraConfig,
    opts: &MapOptions,
    tracer: &Tracer,
) -> Result<MapResult, MapError> {
    let mdfg = MapDfg::unspilled(dfg);
    let out = schedule(&mdfg, cgra, MapMode::Baseline, opts, tracer);
    out.mapping.map(|mapping| MapResult {
        mapping,
        mdfg,
        mode: MapMode::Baseline,
    })
}

/// The minimum initiation interval for a kernel on a fabric (ResMII with
/// bus refinement vs RecMII), exposed for reporting.
pub fn kernel_mii(dfg: &Dfg, cgra: &CgraConfig) -> u32 {
    mii_with_mem(&MapDfg::unspilled(dfg), cgra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::validate_mapping;

    #[test]
    fn baseline_maps_every_kernel_on_every_paper_fabric() {
        let opts = MapOptions::default();
        // Mapping is page-agnostic in baseline mode, so test one layout
        // per mesh dim of the paper grid.
        for (dim, _) in cgra_arch::PAPER_GRID {
            let cgra = cgra_arch::fabric(dim, 4).unwrap();
            for kernel in cgra_dfg::kernels::all() {
                let r = map_baseline(&kernel, &cgra, &opts)
                    .unwrap_or_else(|e| panic!("{} on {:?}: {e}", kernel.name, cgra.mesh()));
                let v = validate_mapping(&r.mdfg, &cgra, &r.mapping, MapMode::Baseline);
                assert!(v.is_empty(), "{}: {v:?}", kernel.name);
            }
        }
    }

    #[test]
    fn baseline_ii_close_to_mii() {
        let opts = MapOptions::default();
        let cgra = CgraConfig::square(8);
        for kernel in cgra_dfg::kernels::all() {
            let mii = kernel_mii(&kernel, &cgra);
            let r = map_baseline(&kernel, &cgra, &opts).expect("maps");
            assert!(
                r.ii() <= mii + 2,
                "{}: II {} far above MII {mii}",
                kernel.name,
                r.ii()
            );
        }
    }
}
