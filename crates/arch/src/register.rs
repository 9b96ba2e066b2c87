//! Rotating register files and register-pressure accounting.
//!
//! Each PE has a small *rotating* register file (RF). Under modulo
//! scheduling, a value written in iteration *i* must not be clobbered by
//! the same instruction's write in iteration *i+1* while consumers of
//! iteration *i* are still pending — rotation renames registers each II
//! boundary exactly as in Rau's rotating files \[10\]. The PageMaster
//! transformation additionally parks values in the RF while their consumer
//! page waits its turn (§VI-E: "N rotating registers in each PE will
//! ensure that the original mapping ... can be shrunk to a single page").
//!
//! The model here is *capacity accounting*, not value simulation: a live
//! range occupies one rotating register per II window it spans, and the
//! file overflows when the number of simultaneously-live ranges exceeds
//! its size.

use serde::{Deserialize, Serialize};

/// A rotating register file of fixed capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RotatingRf {
    size: u16,
}

impl RotatingRf {
    /// Create a rotating RF with `size` physical registers.
    pub const fn new(size: u16) -> Self {
        RotatingRf { size }
    }

    /// Number of physical registers.
    #[inline]
    pub fn size(&self) -> u16 {
        self.size
    }

    /// How many rotating registers a live range `[write_time, last_read]`
    /// occupies under initiation interval `ii`.
    ///
    /// Rau's rule: a range spanning `L` cycles needs `ceil(L / II)`
    /// rotating registers, because a new instance of the value is created
    /// every II cycles while old instances are still live. A value read in
    /// the same cycle-window it is written still occupies one register.
    ///
    /// # Panics
    /// Panics if `last_read < write_time` or `ii == 0`.
    pub fn registers_for_range(write_time: u64, last_read: u64, ii: u32) -> u32 {
        assert!(ii > 0, "II must be positive");
        assert!(
            last_read >= write_time,
            "live range ends before it starts ({last_read} < {write_time})"
        );
        let span = last_read - write_time;
        (span / ii as u64 + 1) as u32
    }
}

impl Default for RotatingRf {
    /// MorphoSys/ADRES-class PEs carry small files; 8 is a common size.
    fn default() -> Self {
        RotatingRf::new(8)
    }
}

/// Accumulates live ranges on one PE and reports peak rotating-register
/// pressure for a given II.
#[derive(Debug, Clone, Default)]
pub struct PressureTracker {
    ranges: Vec<(u64, u64)>,
}

impl PressureTracker {
    /// Create an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a live range `[write_time, last_read]` held in this PE's RF.
    pub fn add_range(&mut self, write_time: u64, last_read: u64) {
        assert!(
            last_read >= write_time,
            "live range ends before it starts ({last_read} < {write_time})"
        );
        self.ranges.push((write_time, last_read));
    }

    /// Number of recorded ranges.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether no ranges have been recorded.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Total rotating registers required for all recorded ranges at `ii`.
    ///
    /// Every range is produced by a distinct (instruction, iteration)
    /// instance, so requirements add up — there is no sharing between
    /// ranges within one steady-state window.
    pub fn registers_required(&self, ii: u32) -> u32 {
        self.ranges
            .iter()
            .map(|&(w, r)| RotatingRf::registers_for_range(w, r, ii))
            .sum()
    }

    /// Whether the recorded ranges fit in `rf` at initiation interval `ii`.
    pub fn fits(&self, rf: RotatingRf, ii: u32) -> bool {
        self.registers_required(ii) <= rf.size() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_cycle_range_needs_one_register() {
        assert_eq!(RotatingRf::registers_for_range(5, 5, 4), 1);
    }

    #[test]
    fn range_shorter_than_ii_needs_one_register() {
        assert_eq!(RotatingRf::registers_for_range(0, 3, 4), 1);
    }

    #[test]
    fn range_of_exactly_ii_needs_two_registers() {
        // By the time the value is read, the next iteration's instance has
        // been written: two live instances.
        assert_eq!(RotatingRf::registers_for_range(0, 4, 4), 2);
    }

    #[test]
    fn long_range_scales_with_ii() {
        assert_eq!(RotatingRf::registers_for_range(0, 11, 4), 3);
        assert_eq!(RotatingRf::registers_for_range(0, 11, 2), 6);
        assert_eq!(RotatingRf::registers_for_range(0, 11, 12), 1);
    }

    #[test]
    fn tracker_sums_requirements() {
        let mut t = PressureTracker::new();
        t.add_range(0, 3); // 1 reg at II=4
        t.add_range(0, 4); // 2 regs at II=4
        t.add_range(2, 2); // 1 reg
        assert_eq!(t.registers_required(4), 4);
    }

    #[test]
    fn tracker_fits_respects_capacity() {
        let mut t = PressureTracker::new();
        for _ in 0..8 {
            t.add_range(0, 0);
        }
        assert!(t.fits(RotatingRf::new(8), 1));
        t.add_range(0, 0);
        assert!(!t.fits(RotatingRf::new(8), 1));
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn inverted_range_panics() {
        RotatingRf::registers_for_range(5, 4, 1);
    }

    #[test]
    #[should_panic(expected = "II must be positive")]
    fn zero_ii_panics() {
        RotatingRf::registers_for_range(0, 0, 0);
    }
}
