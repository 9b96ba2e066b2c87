//! The on-chip data memory and its row buses.
//!
//! The paper contrasts CGRAs with systolic arrays partly through memory
//! access: "there is an explicit instruction and data memory, and a shared
//! data bus for each row of the CGRA" (§III). Load/store operations placed
//! on a PE therefore contend for that PE's *row bus*; the mapper's modulo
//! reservation table charges one bus slot per memory operation per cycle.

use serde::{Deserialize, Serialize};

/// The memory subsystem parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemModel {
    /// Concurrent load/store operations each row bus sustains per cycle.
    buses_per_row: u16,
}

impl MemModel {
    /// Create a memory model.
    ///
    /// # Panics
    /// Panics if `buses_per_row` is zero (PEs could never load or store).
    pub fn new(buses_per_row: u16) -> Self {
        assert!(buses_per_row > 0, "each row needs at least one bus");
        MemModel { buses_per_row }
    }

    /// Load/store slots available per row per cycle.
    #[inline]
    pub fn buses_per_row(&self) -> u16 {
        self.buses_per_row
    }
}

impl Default for MemModel {
    /// One bus per row.
    fn default() -> Self {
        MemModel::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_has_one_bus() {
        assert_eq!(MemModel::default().buses_per_row(), 1);
    }

    #[test]
    fn accessors_return_constructor_values() {
        let m = MemModel::new(2);
        assert_eq!(m.buses_per_row(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one bus")]
    fn zero_buses_panics() {
        MemModel::new(0);
    }
}
