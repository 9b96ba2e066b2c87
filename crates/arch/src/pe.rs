//! Processing-element capabilities.
//!
//! Each PE is "essentially an ALU with a local register file" (paper, §II)
//! and executes one micro-operation per cycle: add/sub/shift/logic,
//! multiply, or load/store. Fabrics in the literature differ in whether
//! every PE may multiply or touch memory; the model captures this with a
//! per-PE capability set so heterogeneous fabrics (cf. Ahn et al. \[26\])
//! can be described, while the paper's homogeneous fabric is the default.

use serde::{Deserialize, Serialize};

/// A functional-unit class a PE may provide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FuClass {
    /// Add, subtract, compare, shift, bitwise logic, select, move.
    Alu,
    /// Integer multiply (some fabrics restrict multipliers to a subset of PEs).
    Mul,
    /// Load/store to the on-chip data memory via the row bus.
    Mem,
    /// Pure routing: forward an input to the output unchanged. Every PE can
    /// route; a PE spent this way is a *routing PE* (paper, §II).
    Route,
}

/// The capability set of one PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeCapability {
    alu: bool,
    mul: bool,
    mem: bool,
}

impl PeCapability {
    /// The paper's homogeneous PE: ALU + multiply + memory access.
    pub const fn full() -> Self {
        PeCapability {
            alu: true,
            mul: true,
            mem: true,
        }
    }

    /// An ALU-only PE (no multiplier, no memory port).
    pub const fn alu_only() -> Self {
        PeCapability {
            alu: true,
            mul: false,
            mem: false,
        }
    }

    /// Builder: enable/disable the multiplier.
    pub const fn with_mul(mut self, mul: bool) -> Self {
        self.mul = mul;
        self
    }

    /// Builder: enable/disable memory access.
    pub const fn with_mem(mut self, mem: bool) -> Self {
        self.mem = mem;
        self
    }

    /// Whether this PE provides the given functional-unit class.
    pub fn supports(&self, class: FuClass) -> bool {
        match class {
            FuClass::Alu => self.alu,
            FuClass::Mul => self.mul,
            FuClass::Mem => self.mem,
            FuClass::Route => true,
        }
    }
}

impl Default for PeCapability {
    fn default() -> Self {
        Self::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pe_supports_everything() {
        let pe = PeCapability::full();
        for class in [FuClass::Alu, FuClass::Mul, FuClass::Mem, FuClass::Route] {
            assert!(pe.supports(class));
        }
    }

    #[test]
    fn alu_only_cannot_mul_or_mem() {
        let pe = PeCapability::alu_only();
        assert!(pe.supports(FuClass::Alu));
        assert!(!pe.supports(FuClass::Mul));
        assert!(!pe.supports(FuClass::Mem));
    }

    #[test]
    fn every_pe_can_route() {
        assert!(PeCapability::alu_only().supports(FuClass::Route));
        assert!(PeCapability::full().supports(FuClass::Route));
    }

    #[test]
    fn builders_toggle_capabilities() {
        let pe = PeCapability::alu_only().with_mul(true).with_mem(true);
        assert_eq!(pe, PeCapability::full());
    }
}
