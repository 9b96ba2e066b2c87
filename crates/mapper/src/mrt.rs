//! The modulo reservation table (MRT).
//!
//! Under modulo scheduling with initiation interval II, an operation
//! placed at absolute time `t` on PE `p` re-executes every II cycles, so
//! it reserves the slot `(p, t mod II)` *exclusively*. Memory operations
//! additionally reserve a slot on their row's shared data bus.
//!
//! The table records what holds each slot, for [`Mrt::slot`] and for
//! [`Mrt::release`]'s check, and answers "is this slot free?" from bits.
//! Each phase (a time mod II) has a busy bitset in `u64` words: PE `p` is
//! bit `p % 64` of word `p / 64`, as in the allocator's page bitsets. A
//! second bitset per phase marks the PEs whose row bus is saturated.
//! [`Mrt::reserve`] and [`Mrt::release`] keep both in step with the slot
//! table and the bus counters, so the mapper tests a placement candidate
//! or a routing hop with one bit read, on a mesh of any size.

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

/// Whether PE `pe`'s bit is set in a phase's bitset.
#[inline]
pub(crate) fn has(words: &[u64], pe: PeId) -> bool {
    words[pe.index() / 64] >> (pe.index() % 64) & 1 != 0
}

/// Modulo reservation table for one fabric at one II. Only
/// [`Mrt::reserve`] and [`Mrt::release`] change it (it has no serde
/// form), so its bitsets always agree with its slot table.
#[derive(Debug, Clone)]
pub struct Mrt {
    ii: u32,
    mesh: Mesh,
    bus_capacity: u16,
    /// `u64` words per phase bitset: `⌈PEs / 64⌉`.
    words: usize,
    /// `num_pes × ii` slots, row-major by PE.
    pe_slots: Vec<Option<SlotUse>>,
    /// Phase `s`'s busy bitset is `busy[s·words..][..words]`; a bit is
    /// set exactly when the PE's slot at `s` holds something.
    busy: Vec<u64>,
    /// `rows × ii` bus occupancy counters.
    bus_used: Vec<u16>,
    /// Laid out as `busy`; a bit is set exactly when the PE's row bus is
    /// saturated at that phase.
    bus_full: Vec<u64>,
}

impl Mrt {
    /// Create an empty MRT.
    ///
    /// # Panics
    /// Panics if `ii == 0`.
    pub fn new(mesh: Mesh, ii: u32, bus_capacity: u16) -> Self {
        assert!(ii > 0, "II must be positive");
        let words = mesh.num_pes().div_ceil(64);
        let mut mrt = Mrt {
            ii,
            mesh,
            bus_capacity,
            words,
            pe_slots: vec![None; mesh.num_pes() * ii as usize],
            busy: vec![0; words * ii as usize],
            bus_used: vec![0; mesh.rows() as usize * ii as usize],
            bus_full: vec![0; words * ii as usize],
        };
        if bus_capacity == 0 {
            // A fabric without buses has every row saturated at once.
            for phase in 0..ii {
                for row in 0..mesh.rows() {
                    mrt.mark_row(row, phase, true);
                }
            }
        }
        mrt
    }

    /// The initiation interval this table was built for.
    #[inline]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    #[inline]
    fn phase(&self, time: u64) -> u32 {
        (time % self.ii as u64) as u32
    }

    #[inline]
    fn slot_index(&self, pe: PeId, phase: u32) -> usize {
        pe.index() * self.ii as usize + phase as usize
    }

    #[inline]
    fn bus_index(&self, pe: PeId, phase: u32) -> usize {
        let row = self.mesh.pos(pe).r as usize;
        row * self.ii as usize + phase as usize
    }

    /// The bitset of phase `phase` in `bits` (`busy` or `bus_full`).
    #[inline]
    fn words_at<'b>(&self, bits: &'b [u64], phase: u32) -> &'b [u64] {
        &bits[phase as usize * self.words..][..self.words]
    }

    /// Set or clear the saturated-bus bits of every PE on `row` at
    /// `phase`.
    fn mark_row(&mut self, row: u16, phase: u32, on: bool) {
        let cols = self.mesh.cols() as usize;
        let base = phase as usize * self.words;
        for p in row as usize * cols..(row as usize + 1) * cols {
            let (word, bit) = (&mut self.bus_full[base + p / 64], 1u64 << (p % 64));
            if on {
                *word |= bit;
            } else {
                *word &= !bit;
            }
        }
    }

    /// What occupies `(pe, time mod II)`, if anything.
    pub fn slot(&self, pe: PeId, time: u64) -> Option<SlotUse> {
        self.pe_slots[self.slot_index(pe, self.phase(time))]
    }

    /// Whether the PE slot is free.
    pub fn pe_free(&self, pe: PeId, time: u64) -> bool {
        !has(self.busy_at_phase(self.phase(time)), pe)
    }

    /// The busy bitset of `phase` (a time mod II, below II): a PE's bit
    /// is set when its slot at `phase` is taken.
    #[inline]
    pub(crate) fn busy_at_phase(&self, phase: u32) -> &[u64] {
        debug_assert!(phase < self.ii, "phase {phase} not below II {}", self.ii);
        self.words_at(&self.busy, phase)
    }

    /// Fill `out` with the PEs a new op cannot take at `phase` (below
    /// II): those whose slot is taken, and for a memory op (`uses_bus`)
    /// also those whose row bus is saturated.
    pub(crate) fn blocked_at_phase(&self, phase: u32, uses_bus: bool, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(self.busy_at_phase(phase));
        if uses_bus {
            for (word, full) in out.iter_mut().zip(self.words_at(&self.bus_full, phase)) {
                *word |= full;
            }
        }
    }

    /// Whether a bus slot is available on `pe`'s row at `time`.
    pub fn bus_free(&self, pe: PeId, time: u64) -> bool {
        !has(self.words_at(&self.bus_full, self.phase(time)), pe)
    }

    /// Reserve a PE slot (and a bus slot when `uses_bus`).
    ///
    /// # Panics
    /// Panics if the slot is already taken or the bus is saturated —
    /// callers must check availability first; double-booking is a logic
    /// error, not a recoverable condition.
    pub fn reserve(&mut self, pe: PeId, time: u64, what: SlotUse, uses_bus: bool) {
        let phase = self.phase(time);
        let idx = self.slot_index(pe, phase);
        assert!(
            self.pe_slots[idx].is_none(),
            "slot ({pe}, {time} mod {}) double-booked",
            self.ii
        );
        if uses_bus {
            let b = self.bus_index(pe, phase);
            assert!(
                self.bus_used[b] < self.bus_capacity,
                "row bus saturated at ({pe}, {time} mod {})",
                self.ii
            );
            self.bus_used[b] += 1;
            if self.bus_used[b] == self.bus_capacity {
                self.mark_row(self.mesh.pos(pe).r, phase, true);
            }
        }
        self.pe_slots[idx] = Some(what);
        self.busy[phase as usize * self.words + pe.index() / 64] |= 1 << (pe.index() % 64);
    }

    /// Release a previously reserved slot.
    ///
    /// # Panics
    /// Panics if the slot does not currently hold `what`.
    pub fn release(&mut self, pe: PeId, time: u64, what: SlotUse, uses_bus: bool) {
        let phase = self.phase(time);
        let idx = self.slot_index(pe, phase);
        assert_eq!(
            self.pe_slots[idx],
            Some(what),
            "releasing a slot that holds something else"
        );
        self.pe_slots[idx] = None;
        self.busy[phase as usize * self.words + pe.index() / 64] &= !(1 << (pe.index() % 64));
        if uses_bus {
            let b = self.bus_index(pe, phase);
            assert!(self.bus_used[b] > 0);
            if self.bus_used[b] == self.bus_capacity {
                self.mark_row(self.mesh.pos(pe).r, phase, false);
            }
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
    use rand::prelude::*;
    use rand::rngs::StdRng;

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

    #[test]
    fn no_bus_is_always_saturated() {
        let m = Mrt::new(Mesh::new(9, 9), 3, 0);
        assert!(Mesh::new(9, 9)
            .pes()
            .all(|pe| (0..3).all(|t| !m.bus_free(pe, t) && m.pe_free(pe, t))));
    }

    /// Assert that `m`'s busy and saturated-bus words say what its slot
    /// table and bus counters say, bit by bit, unused high bits clear.
    fn assert_words_match(m: &Mrt, why: &str) {
        let n = m.mesh.num_pes();
        for phase in 0..m.ii {
            let (busy, full) = (m.words_at(&m.busy, phase), m.words_at(&m.bus_full, phase));
            for p in 0..m.words * 64 {
                let bit = |words: &[u64]| words[p / 64] >> (p % 64) & 1 != 0;
                let (slot_busy, row_full) = if p < n {
                    let pe = PeId(p as u16);
                    (
                        m.pe_slots[m.slot_index(pe, phase)].is_some(),
                        m.bus_used[m.bus_index(pe, phase)] >= m.bus_capacity,
                    )
                } else {
                    (false, false)
                };
                assert_eq!(bit(busy), slot_busy, "{why}: busy bit of {p} at {phase}");
                assert_eq!(bit(full), row_full, "{why}: bus bit of {p} at {phase}");
            }
        }
    }

    /// After seeded random sequences of reserves and releases at II 1–8,
    /// on meshes up to and beyond 64 PEs (9×9 takes two words per phase),
    /// the busy and saturated-bus words equal the slot table and the bus
    /// counters after every step.
    #[test]
    fn busy_words_follow_the_slot_table() {
        let mut rng = StdRng::seed_from_u64(0x5107_B175);
        for (rows, cols) in [(4, 4), (6, 6), (8, 8), (9, 9), (3, 40)] {
            let mesh = Mesh::new(rows, cols);
            for ii in 1..=8u32 {
                let mut m = Mrt::new(mesh, ii, rng.gen_range(1..=2));
                // The reservations live now: (pe, time, what, uses_bus).
                let mut live: Vec<(PeId, u64, SlotUse, bool)> = Vec::new();
                for step in 0..400 {
                    let why = format!("{rows}x{cols} II {ii} step {step}");
                    if !live.is_empty() && rng.gen_bool(0.4) {
                        let (pe, time, what, bus) = live.swap_remove(rng.gen_range(0..live.len()));
                        m.release(pe, time, what, bus);
                    } else {
                        let pe = PeId(rng.gen_range(0..mesh.num_pes() as u16));
                        let time = rng.gen_range(0..40u64);
                        let bus = rng.gen_bool(0.3);
                        if m.pe_free(pe, time) && (!bus || m.bus_free(pe, time)) {
                            let what = if bus {
                                SlotUse::Compute(step)
                            } else {
                                SlotUse::Route(step)
                            };
                            m.reserve(pe, time, what, bus);
                            live.push((pe, time, what, bus));
                        }
                    }
                    assert_words_match(&m, &why);
                }
            }
        }
    }
}
