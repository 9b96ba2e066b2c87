//! The modulo reservation table (MRT).
//!
//! Under modulo scheduling with initiation interval II, an operation
//! placed at absolute time `t` on PE `p` re-executes every II cycles, so
//! it reserves the slot `(p, t mod II)` *exclusively*. Memory operations
//! additionally reserve a slot on their row's shared data bus.

use cgra_arch::topology::{Mesh, PeId};
use serde::{Deserialize, Serialize};

/// What occupies a PE slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SlotUse {
    /// A compute operation of the DFG (by node index).
    Compute(u32),
    /// A routing hop serving an edge (by edge index).
    Route(u32),
}

/// Modulo reservation table for one fabric at one II.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mrt {
    ii: u32,
    mesh: Mesh,
    bus_capacity: u16,
    /// `num_pes × ii` slots, row-major by PE.
    pe_slots: Vec<Option<SlotUse>>,
    /// `rows × ii` bus occupancy counters.
    bus_used: Vec<u16>,
}

impl Mrt {
    /// Create an empty MRT.
    ///
    /// # Panics
    /// Panics if `ii == 0`.
    pub fn new(mesh: Mesh, ii: u32, bus_capacity: u16) -> Self {
        assert!(ii > 0, "II must be positive");
        Mrt {
            ii,
            mesh,
            bus_capacity,
            pe_slots: vec![None; mesh.num_pes() * ii as usize],
            bus_used: vec![0; mesh.rows() as usize * ii as usize],
        }
    }

    /// The initiation interval this table was built for.
    #[inline]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    #[inline]
    fn slot_index(&self, pe: PeId, time: u64) -> usize {
        pe.index() * self.ii as usize + (time % self.ii as u64) as usize
    }

    #[inline]
    fn bus_index(&self, pe: PeId, time: u64) -> usize {
        let row = self.mesh.pos(pe).r as usize;
        row * self.ii as usize + (time % self.ii as u64) as usize
    }

    /// What occupies `(pe, time mod II)`, if anything.
    pub fn slot(&self, pe: PeId, time: u64) -> Option<SlotUse> {
        self.pe_slots[self.slot_index(pe, time)]
    }

    /// Whether the PE slot is free.
    pub fn pe_free(&self, pe: PeId, time: u64) -> bool {
        self.slot(pe, time).is_none()
    }

    /// Whether `pe`'s slot at `phase` (a time mod II, below II) is free:
    /// [`Mrt::pe_free`] for a caller that reduced the time itself.
    #[inline]
    pub(crate) fn pe_free_at_phase(&self, pe: PeId, phase: u32) -> bool {
        debug_assert!(phase < self.ii, "phase {phase} not below II {}", self.ii);
        self.pe_slots[pe.index() * self.ii as usize + phase as usize].is_none()
    }

    /// Whether a bus slot is available on `pe`'s row at `time`.
    pub fn bus_free(&self, pe: PeId, time: u64) -> bool {
        self.bus_used[self.bus_index(pe, time)] < self.bus_capacity
    }

    /// Reserve a PE slot (and a bus slot when `uses_bus`).
    ///
    /// # Panics
    /// Panics if the slot is already taken or the bus is saturated —
    /// callers must check availability first; double-booking is a logic
    /// error, not a recoverable condition.
    pub fn reserve(&mut self, pe: PeId, time: u64, what: SlotUse, uses_bus: bool) {
        let idx = self.slot_index(pe, time);
        assert!(
            self.pe_slots[idx].is_none(),
            "slot ({pe}, {time} mod {}) double-booked",
            self.ii
        );
        if uses_bus {
            let b = self.bus_index(pe, time);
            assert!(
                self.bus_used[b] < self.bus_capacity,
                "row bus saturated at ({pe}, {time} mod {})",
                self.ii
            );
            self.bus_used[b] += 1;
        }
        self.pe_slots[idx] = Some(what);
    }

    /// Release a previously reserved slot.
    ///
    /// # Panics
    /// Panics if the slot does not currently hold `what`.
    pub fn release(&mut self, pe: PeId, time: u64, what: SlotUse, uses_bus: bool) {
        let idx = self.slot_index(pe, time);
        assert_eq!(
            self.pe_slots[idx],
            Some(what),
            "releasing a slot that holds something else"
        );
        self.pe_slots[idx] = None;
        if uses_bus {
            let b = self.bus_index(pe, time);
            assert!(self.bus_used[b] > 0);
            self.bus_used[b] -= 1;
        }
    }

    /// Number of occupied PE slots.
    pub fn occupied(&self) -> usize {
        self.pe_slots.iter().filter(|s| s.is_some()).count()
    }

    /// Fraction of PE slots occupied — the utilization `U` from §IV.
    pub fn utilization(&self) -> f64 {
        self.occupied() as f64 / self.pe_slots.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mrt() -> Mrt {
        Mrt::new(Mesh::new(4, 4), 2, 1)
    }

    #[test]
    fn fresh_table_is_free() {
        let m = mrt();
        for pe in Mesh::new(4, 4).pes() {
            for t in 0..4u64 {
                assert!(m.pe_free(pe, t));
                assert!(m.bus_free(pe, t));
            }
        }
        assert_eq!(m.occupied(), 0);
    }

    #[test]
    fn reserve_blocks_modulo_aliases() {
        let mut m = mrt();
        m.reserve(PeId(0), 1, SlotUse::Compute(7), false);
        assert!(!m.pe_free(PeId(0), 1));
        assert!(!m.pe_free(PeId(0), 3)); // 3 mod 2 == 1
        assert!(m.pe_free(PeId(0), 2));
        assert_eq!(m.slot(PeId(0), 5), Some(SlotUse::Compute(7)));
    }

    #[test]
    fn bus_counts_per_row() {
        let mut m = mrt();
        // PEs 0 and 1 share row 0.
        m.reserve(PeId(0), 0, SlotUse::Compute(0), true);
        assert!(!m.bus_free(PeId(1), 0)); // same row, same slot
        assert!(m.bus_free(PeId(1), 1));
        assert!(m.bus_free(PeId(4), 0)); // row 1 unaffected
    }

    #[test]
    fn release_restores_availability() {
        let mut m = mrt();
        m.reserve(PeId(3), 0, SlotUse::Route(2), true);
        m.release(PeId(3), 0, SlotUse::Route(2), true);
        assert!(m.pe_free(PeId(3), 0));
        assert!(m.bus_free(PeId(3), 0));
        assert_eq!(m.occupied(), 0);
    }

    #[test]
    fn utilization_counts_slots() {
        let mut m = mrt();
        assert_eq!(m.utilization(), 0.0);
        m.reserve(PeId(0), 0, SlotUse::Compute(0), false);
        // 1 of 16*2 slots.
        assert!((m.utilization() - 1.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "double-booked")]
    fn double_booking_panics() {
        let mut m = mrt();
        m.reserve(PeId(0), 0, SlotUse::Compute(0), false);
        m.reserve(PeId(0), 2, SlotUse::Compute(1), false); // aliases slot 0
    }

    #[test]
    fn capacity_two_bus_allows_two_mem_ops() {
        let mut m = Mrt::new(Mesh::new(4, 4), 1, 2);
        m.reserve(PeId(0), 0, SlotUse::Compute(0), true);
        assert!(m.bus_free(PeId(1), 0));
        m.reserve(PeId(1), 0, SlotUse::Compute(1), true);
        assert!(!m.bus_free(PeId(2), 0));
    }
}
