//! Mapper tuning knobs.

use serde::{Deserialize, Serialize};

/// Options controlling the modulo-scheduling search.
///
/// `Hash`/`Eq` let mapping caches key on the exact option set: two
/// sweeps sharing a cache never cross-contaminate results produced
/// under different knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MapOptions {
    /// Give up if no schedule is found at `mii + max_ii_slack`.
    pub max_ii_slack: u32,
    /// Randomised placement attempts per II before increasing it.
    pub restarts: u32,
    /// RNG seed for tie-breaking between equally good candidates.
    pub seed: u64,
    /// Longest route chain the constrained mapper will build before
    /// preferring a memory spill (in hops; chains occupy one PE slot per
    /// hop, so long chains crowd out computation).
    pub chain_budget: u32,
    /// Spill-and-retry rounds per II in constrained mode.
    pub spill_rounds: u32,
}

impl Default for MapOptions {
    fn default() -> Self {
        MapOptions {
            max_ii_slack: 16,
            restarts: 12,
            seed: 0xC6_4A_11,
            chain_budget: 10,
            spill_rounds: 10,
        }
    }
}

impl MapOptions {
    /// A fast profile for property tests (fewer restarts).
    pub fn fast() -> Self {
        MapOptions {
            restarts: 4,
            spill_rounds: 2,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = MapOptions::default();
        assert!(o.restarts >= 1);
        assert!(o.max_ii_slack >= 1);
        assert!(o.chain_budget >= 1);
    }

    #[test]
    fn fast_profile_is_cheaper() {
        assert!(MapOptions::fast().restarts < MapOptions::default().restarts);
    }
}
