//! Fault model over the page grid.
//!
//! The paper's core argument (§VI–VII) is that page-level virtualization
//! lets a thread keep making progress as resources are taken away from
//! it. A faulty page is just another way resources disappear at runtime:
//! a [`FaultMap`] records which pages of a fabric are healthy, degraded
//! (usable at reduced rate), dead (unusable) or under repair, and
//! [`FaultSpec`] describes *when* faults strike — a targeted page at a
//! fixed time, or MTBF-style random arrivals from a deterministic seeded
//! stream ([`splitmix64`]). Faults strike whole pages, the unit the
//! runtime allocates and reshapes schedules over.

use serde::{Deserialize, Serialize};

/// Health of one page of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PageHealth {
    /// Fully usable.
    #[default]
    Healthy,
    /// Usable, but at a reduced rate (e.g. one PE routed around).
    Degraded,
    /// Unusable; no op may be placed on it.
    Dead,
    /// A transient fault cleared and repair is under way; the page is
    /// still unusable until repair completes (Dead → Repairing →
    /// Healthy).
    Repairing,
}

/// Health of every page in a fabric, in ring order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultMap {
    health: Vec<PageHealth>,
}

impl FaultMap {
    /// An all-healthy map over `num_pages` pages.
    pub fn new(num_pages: u16) -> Self {
        FaultMap {
            health: vec![PageHealth::Healthy; num_pages as usize],
        }
    }

    /// Number of pages covered.
    pub fn num_pages(&self) -> u16 {
        self.health.len() as u16
    }

    /// Health of one page.
    pub fn health(&self, page: u16) -> PageHealth {
        self.health[page as usize]
    }

    /// Whether a page can still execute ops (healthy or degraded). A
    /// page under repair is *not* usable until repair completes.
    pub fn is_usable(&self, page: u16) -> bool {
        matches!(
            self.health[page as usize],
            PageHealth::Healthy | PageHealth::Degraded
        )
    }

    /// Set a page's health directly.
    pub fn mark_page(&mut self, page: u16, health: PageHealth) {
        self.health[page as usize] = health;
    }

    /// Dead → Repairing: a transient fault has cleared and the page is
    /// being repaired. It stays unusable; only [`complete_repair`] makes
    /// it healthy again. A page in any other state is left unchanged
    /// (in particular a page re-struck while repairing stays whatever
    /// the new fault made it).
    ///
    /// [`complete_repair`]: FaultMap::complete_repair
    pub fn begin_repair(&mut self, page: u16) {
        if self.health[page as usize] == PageHealth::Dead {
            self.health[page as usize] = PageHealth::Repairing;
        }
    }

    /// Repairing → Healthy: repair finished. Only a page actually in
    /// [`Repairing`] transitions — a page re-killed mid-repair stays
    /// dead.
    ///
    /// [`Repairing`]: PageHealth::Repairing
    pub fn complete_repair(&mut self, page: u16) {
        if self.health[page as usize] == PageHealth::Repairing {
            self.health[page as usize] = PageHealth::Healthy;
        }
    }

    /// Pages that can still execute ops, in ring order.
    pub fn usable_pages(&self) -> Vec<u16> {
        (0..self.num_pages())
            .filter(|&p| self.is_usable(p))
            .collect()
    }

    /// Dead pages, in ring order.
    pub fn dead_pages(&self) -> Vec<u16> {
        (0..self.num_pages())
            .filter(|&p| !self.is_usable(p))
            .collect()
    }

    /// Degraded pages, in ring order.
    pub fn degraded_pages(&self) -> Vec<u16> {
        (0..self.num_pages())
            .filter(|&p| self.health(p) == PageHealth::Degraded)
            .collect()
    }

    /// Pages currently under repair, in ring order.
    pub fn repairing_pages(&self) -> Vec<u16> {
        (0..self.num_pages())
            .filter(|&p| self.health(p) == PageHealth::Repairing)
            .collect()
    }

    /// Number of usable pages.
    pub fn usable_count(&self) -> u16 {
        self.usable_pages().len() as u16
    }

    /// Maximal runs of consecutive *usable* pages in ring order, as
    /// `(start, len)`. The ring path is what carries inter-page
    /// dependences (§VI-B.2), so a shrunk schedule must land on one run.
    pub fn surviving_runs(&self) -> Vec<(u16, u16)> {
        let mut runs = Vec::new();
        let mut start = None;
        for p in 0..self.num_pages() {
            match (self.is_usable(p), start) {
                (true, None) => start = Some(p),
                (false, Some(s)) => {
                    runs.push((s, p - s));
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            runs.push((s, self.num_pages() - s));
        }
        runs
    }

    /// The longest surviving run (ties: earliest start), if any page
    /// survives at all.
    pub fn longest_surviving_run(&self) -> Option<(u16, u16)> {
        self.surviving_runs()
            .into_iter()
            .max_by_key(|&(start, len)| (len, std::cmp::Reverse(start)))
    }
}

/// What a fault does to its page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The page becomes degraded (usable at reduced rate).
    Degrade,
    /// The page dies, permanently.
    Kill,
    /// The page dies, but the fault clears: repair begins
    /// `repair_after` cycles after the strike (the MTTR), after which
    /// the page transitions Dead → Repairing → Healthy and can be
    /// re-offered to threads.
    Transient {
        /// Mean time to repair, in cycles after the strike.
        repair_after: u64,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Cycle at which the fault strikes.
    pub time: u64,
    /// Ring index of the struck page.
    pub page: u16,
    /// What happens to it.
    pub kind: FaultKind,
}

/// A deterministic fault-injection schedule description.
///
/// Parsed from `--faults <spec>`:
///
/// * `off` — no faults (the default; byte-identical to a fault-free run)
/// * `at=<time>,page=<p>[,degrade]` — targeted: page `p` struck at cycle
///   `time` (killed unless `degrade` is given)
/// * `mtbf=<mean>,count=<n>[,seed=<s>][,degrade]` — `n` faults with
///   exponentially distributed inter-arrival times of mean `mean`
///   cycles, striking uniformly random pages; fully determined by `s`
///   (default 0)
/// * either form may append `mttr=<cycles>` to make the faults
///   transient: a struck page begins repair `cycles` after the strike
///   and returns to the free pool once repaired (incompatible with
///   `degrade` — a degraded page never died, so there is nothing to
///   repair)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum FaultSpec {
    /// No faults.
    #[default]
    Off,
    /// One targeted fault.
    At {
        /// Strike cycle.
        time: u64,
        /// Struck page.
        page: u16,
        /// Effect.
        kind: FaultKind,
    },
    /// MTBF-style random arrivals.
    Mtbf {
        /// Mean cycles between faults.
        mean: u64,
        /// Number of faults drawn.
        count: u32,
        /// Stream seed; the schedule is a pure function of
        /// `(mean, count, seed, num_pages)`.
        seed: u64,
        /// Effect of every fault.
        kind: FaultKind,
    },
}

/// Why a `--faults` spec failed to parse. Every variant names the
/// offending clause and its byte offset into the original input, so
/// front-ends can print a caret span under the bad text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpecError {
    /// A clause's keyword is known but its value does not parse.
    BadValue {
        /// The full offending clause, e.g. `at=x`.
        clause: String,
        /// Byte offset of the clause in the input.
        offset: usize,
        /// What a value of this clause must be.
        expected: &'static str,
    },
    /// A clause whose keyword is not in the grammar.
    UnknownClause {
        /// The full offending clause.
        clause: String,
        /// Byte offset of the clause in the input.
        offset: usize,
    },
    /// Two clauses contradict each other (e.g. `degrade` with `mttr=`:
    /// a degraded page never died, so there is nothing to repair).
    Conflict {
        /// The later of the two clashing clauses.
        clause: String,
        /// Byte offset of that clause in the input.
        offset: usize,
        /// The earlier clause it clashes with.
        with: &'static str,
    },
    /// The clauses parsed individually but do not assemble into a
    /// complete spec (e.g. `at=` without `page=`).
    Incomplete {
        /// The whole input, for reporting.
        clause: String,
    },
}

impl FaultSpecError {
    /// The offending clause text.
    pub fn clause(&self) -> &str {
        match self {
            FaultSpecError::BadValue { clause, .. }
            | FaultSpecError::UnknownClause { clause, .. }
            | FaultSpecError::Conflict { clause, .. }
            | FaultSpecError::Incomplete { clause } => clause,
        }
    }

    /// `(byte offset, byte length)` of the offending clause in the
    /// original input — the span a front-end should underline.
    pub fn span(&self) -> (usize, usize) {
        match self {
            FaultSpecError::BadValue { clause, offset, .. }
            | FaultSpecError::UnknownClause { clause, offset }
            | FaultSpecError::Conflict { clause, offset, .. } => (*offset, clause.len()),
            FaultSpecError::Incomplete { clause } => (0, clause.len()),
        }
    }
}

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSpecError::BadValue {
                clause,
                offset,
                expected,
            } => write!(
                f,
                "bad fault spec: `{clause}` at byte {offset}: expected {expected}"
            ),
            FaultSpecError::UnknownClause { clause, offset } => {
                write!(
                    f,
                    "bad fault spec: unknown clause `{clause}` at byte {offset}"
                )
            }
            FaultSpecError::Conflict {
                clause,
                offset,
                with,
            } => write!(
                f,
                "bad fault spec: `{clause}` at byte {offset} conflicts with `{with}`"
            ),
            FaultSpecError::Incomplete { clause } => write!(
                f,
                "bad fault spec `{clause}`: expected `off`, \
                 `at=<t>,page=<p>[,degrade|,mttr=<c>]`, or \
                 `mtbf=<mean>,count=<n>[,seed=<s>][,degrade|,mttr=<c>]`"
            ),
        }
    }
}

impl std::error::Error for FaultSpecError {}

/// One step of SplitMix64: advances `state` and returns the next value of
/// a tiny deterministic stream.
///
/// It drives the fault arrival draws of [`FaultSpec::schedule`] and the
/// analyzer's mutation-site choices, keeping `cgra-arch` dependency-free.
/// The stream is part of the reproducibility contract: a given seed must
/// keep producing the same fault schedule, so the constants never change.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultSpec {
    /// Parse a `--faults` spec string (see the type-level grammar).
    /// Errors are typed and carry the offending clause plus its byte
    /// offset into `input`, so callers can underline the bad span.
    pub fn parse(input: &str) -> Result<FaultSpec, FaultSpecError> {
        let trimmed = input.trim();
        if trimmed.is_empty() || trimmed == "off" || trimmed == "none" || trimmed == "0" {
            return Ok(FaultSpec::Off);
        }
        let mut time = None;
        let mut page = None;
        let mut mean = None;
        let mut count = None;
        let mut seed = 0u64;
        let mut kind = FaultKind::Kill;
        let mut mttr: Option<u64> = None;
        // Byte offset of the clause currently being scanned, relative
        // to the *original* (untrimmed) input.
        let mut offset = input.len() - input.trim_start().len();
        for raw in trimmed.split(',') {
            let part = raw.trim();
            let at = offset + (raw.len() - raw.trim_start().len());
            offset += raw.len() + 1; // clause + its trailing comma
            let bad = |expected: &'static str| FaultSpecError::BadValue {
                clause: part.to_string(),
                offset: at,
                expected,
            };
            match part.split_once('=') {
                Some(("at", v)) => match v.parse() {
                    Ok(t) => time = Some(t),
                    Err(_) => return Err(bad("a cycle count")),
                },
                Some(("page", v)) => match v.parse() {
                    Ok(p) => page = Some(p),
                    Err(_) => return Err(bad("a page index")),
                },
                Some(("mtbf", v)) => match v.parse::<u64>() {
                    Ok(m) if m > 0 => mean = Some(m),
                    _ => return Err(bad("a positive cycle count")),
                },
                Some(("count", v)) => match v.parse() {
                    Ok(c) => count = Some(c),
                    Err(_) => return Err(bad("a fault count")),
                },
                Some(("seed", v)) => match v.parse() {
                    Ok(x) => seed = x,
                    Err(_) => return Err(bad("a u64")),
                },
                Some(("mttr", v)) => match v.parse::<u64>() {
                    Ok(m) if m > 0 => {
                        if kind == FaultKind::Degrade {
                            return Err(FaultSpecError::Conflict {
                                clause: part.to_string(),
                                offset: at,
                                with: "degrade",
                            });
                        }
                        mttr = Some(m);
                    }
                    _ => return Err(bad("a positive repair time in cycles")),
                },
                None if part == "degrade" => {
                    if mttr.is_some() {
                        return Err(FaultSpecError::Conflict {
                            clause: part.to_string(),
                            offset: at,
                            with: "mttr",
                        });
                    }
                    kind = FaultKind::Degrade;
                }
                None if part == "kill" => kind = FaultKind::Kill,
                _ => {
                    return Err(FaultSpecError::UnknownClause {
                        clause: part.to_string(),
                        offset: at,
                    })
                }
            }
        }
        if let Some(repair_after) = mttr {
            kind = FaultKind::Transient { repair_after };
        }
        match (time, page, mean, count) {
            (Some(time), Some(page), None, None) => Ok(FaultSpec::At { time, page, kind }),
            (None, None, Some(mean), Some(count)) => Ok(FaultSpec::Mtbf {
                mean,
                count,
                seed,
                kind,
            }),
            _ => Err(FaultSpecError::Incomplete {
                clause: trimmed.to_string(),
            }),
        }
    }

    /// The concrete event schedule over a fabric of `num_pages` pages,
    /// sorted by `(time, page)`. Deterministic: a pure function of the
    /// spec and `num_pages`.
    pub fn schedule(&self, num_pages: u16) -> Vec<FaultEvent> {
        match *self {
            FaultSpec::Off => Vec::new(),
            FaultSpec::At { time, page, kind } => {
                if page < num_pages {
                    vec![FaultEvent { time, page, kind }]
                } else {
                    Vec::new()
                }
            }
            FaultSpec::Mtbf {
                mean,
                count,
                seed,
                kind,
            } => {
                if num_pages == 0 {
                    return Vec::new();
                }
                // Domain-separate the stream from other users of the seed.
                let mut state = seed ^ 0xFA01_7FA0_17FA_017F;
                let mut t = 0u64;
                let mut events = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    // Exponential inter-arrival via inverse CDF; the
                    // uniform comes from the top 53 bits of SplitMix64.
                    let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                    let dt = (-(mean as f64) * (1.0 - u).ln()).ceil().max(1.0);
                    t = t.saturating_add(dt as u64);
                    let page = (splitmix64(&mut state) % num_pages as u64) as u16;
                    events.push(FaultEvent {
                        time: t,
                        page,
                        kind,
                    });
                }
                events.sort_by_key(|e| (e.time, e.page));
                events
            }
        }
    }

    /// Whether the spec injects anything at all.
    pub fn is_off(&self) -> bool {
        matches!(self, FaultSpec::Off)
    }

    /// The same spec with the fault rate scaled by `factor` (MTBF
    /// divided): the axis of a throughput-vs-fault-rate degradation
    /// curve. `Off` and `At` specs are returned unchanged.
    pub fn scaled(&self, factor: u64) -> FaultSpec {
        match *self {
            FaultSpec::Mtbf {
                mean,
                count,
                seed,
                kind,
            } => FaultSpec::Mtbf {
                mean: (mean / factor.max(1)).max(1),
                count,
                seed,
                kind,
            },
            other => other,
        }
    }

    /// The same spec with its RNG seed mixed with `salt` (MTBF specs
    /// only; deterministic schedules pass through). Sweep drivers use
    /// this to give every point an independent but reproducible fault
    /// timeline derived from the point's coordinates.
    pub fn reseeded(&self, salt: u64) -> FaultSpec {
        match *self {
            FaultSpec::Mtbf {
                mean,
                count,
                seed,
                kind,
            } => FaultSpec::Mtbf {
                mean,
                count,
                seed: seed ^ salt,
                kind,
            },
            other => other,
        }
    }

    /// The spec's fault kind, if it injects anything.
    pub fn kind(&self) -> Option<FaultKind> {
        match *self {
            FaultSpec::Off => None,
            FaultSpec::At { kind, .. } | FaultSpec::Mtbf { kind, .. } => Some(kind),
        }
    }

    /// The repair interval, if the spec's faults are transient.
    pub fn mttr(&self) -> Option<u64> {
        match self.kind() {
            Some(FaultKind::Transient { repair_after }) => Some(repair_after),
            _ => None,
        }
    }

    /// The same spec with its faults made transient, repairing
    /// `repair_after` cycles after each strike (the mttr axis of a
    /// recovery curve). `Off` passes through.
    pub fn with_mttr(&self, repair_after: u64) -> FaultSpec {
        let kind = FaultKind::Transient { repair_after };
        match *self {
            FaultSpec::Off => FaultSpec::Off,
            FaultSpec::At { time, page, .. } => FaultSpec::At { time, page, kind },
            FaultSpec::Mtbf {
                mean, count, seed, ..
            } => FaultSpec::Mtbf {
                mean,
                count,
                seed,
                kind,
            },
        }
    }

    /// The same spec with any transient kind made permanent — the
    /// no-repair reference row of a recovery curve. `Degrade` and
    /// `Kill` specs pass through unchanged.
    pub fn permanent(&self) -> FaultSpec {
        match *self {
            FaultSpec::At {
                time,
                page,
                kind: FaultKind::Transient { .. },
            } => FaultSpec::At {
                time,
                page,
                kind: FaultKind::Kill,
            },
            FaultSpec::Mtbf {
                mean,
                count,
                seed,
                kind: FaultKind::Transient { .. },
            } => FaultSpec::Mtbf {
                mean,
                count,
                seed,
                kind: FaultKind::Kill,
            },
            other => other,
        }
    }
}

impl std::fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind_suffix = |f: &mut std::fmt::Formatter<'_>, kind: &FaultKind| match kind {
            FaultKind::Kill => Ok(()),
            FaultKind::Degrade => write!(f, ",degrade"),
            FaultKind::Transient { repair_after } => write!(f, ",mttr={repair_after}"),
        };
        match self {
            FaultSpec::Off => write!(f, "off"),
            FaultSpec::At { time, page, kind } => {
                write!(f, "at={time},page={page}")?;
                kind_suffix(f, kind)
            }
            FaultSpec::Mtbf {
                mean,
                count,
                seed,
                kind,
            } => {
                write!(f, "mtbf={mean},count={count},seed={seed}")?;
                kind_suffix(f, kind)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_map_is_all_healthy() {
        let m = FaultMap::new(8);
        assert_eq!(m.usable_count(), 8);
        assert!(m.dead_pages().is_empty());
        assert_eq!(m.surviving_runs(), vec![(0, 8)]);
    }

    #[test]
    fn killing_a_page_splits_the_ring() {
        let mut m = FaultMap::new(8);
        m.mark_page(3, PageHealth::Dead);
        assert_eq!(m.surviving_runs(), vec![(0, 3), (4, 4)]);
        assert_eq!(m.longest_surviving_run(), Some((4, 4)));
        assert_eq!(m.dead_pages(), vec![3]);
        assert_eq!(m.usable_count(), 7);
    }

    #[test]
    fn tie_between_runs_prefers_earliest() {
        let mut m = FaultMap::new(7);
        m.mark_page(3, PageHealth::Dead);
        assert_eq!(m.longest_surviving_run(), Some((0, 3)));
    }

    #[test]
    fn all_dead_has_no_run() {
        let mut m = FaultMap::new(2);
        m.mark_page(0, PageHealth::Dead);
        m.mark_page(1, PageHealth::Dead);
        assert_eq!(m.longest_surviving_run(), None);
    }

    #[test]
    fn degraded_pages_stay_usable() {
        let mut m = FaultMap::new(4);
        m.mark_page(1, PageHealth::Degraded);
        assert_eq!(m.surviving_runs(), vec![(0, 4)]);
        assert_eq!(m.degraded_pages(), vec![1]);
    }

    #[test]
    fn spec_parsing_roundtrips() {
        for s in [
            "off",
            "at=5000,page=2",
            "at=5000,page=2,degrade",
            "mtbf=20000,count=4,seed=9",
        ] {
            let spec = FaultSpec::parse(s).unwrap();
            assert_eq!(FaultSpec::parse(&spec.to_string()).unwrap(), spec, "{s}");
        }
        assert_eq!(FaultSpec::parse(""), Ok(FaultSpec::Off));
        assert_eq!(FaultSpec::parse("none"), Ok(FaultSpec::Off));
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(FaultSpec::parse("at=5000").is_err());
        assert!(FaultSpec::parse("page=1").is_err());
        assert!(FaultSpec::parse("mtbf=0,count=3").is_err());
        assert!(FaultSpec::parse("banana").is_err());
        assert!(FaultSpec::parse("at=x,page=1").is_err());
        assert!(FaultSpec::parse("at=1,page=0,mttr=0").is_err());
        assert!(FaultSpec::parse("at=1,page=0,mttr=x").is_err());
    }

    #[test]
    fn parse_errors_carry_clause_and_span() {
        // The typed error names the offending clause and its byte
        // offset in the *original* input, including leading whitespace
        // and clause-internal trimming.
        match FaultSpec::parse("at=x,page=1").unwrap_err() {
            FaultSpecError::BadValue {
                clause,
                offset,
                expected,
            } => {
                assert_eq!(clause, "at=x");
                assert_eq!(offset, 0);
                assert_eq!(expected, "a cycle count");
            }
            other => panic!("{other:?}"),
        }
        match FaultSpec::parse("at=1,banana").unwrap_err() {
            FaultSpecError::UnknownClause { clause, offset } => {
                assert_eq!(clause, "banana");
                assert_eq!(offset, 5);
            }
            other => panic!("{other:?}"),
        }
        // Offsets survive surrounding whitespace.
        let err = FaultSpec::parse("  at=1, page=zzz").unwrap_err();
        assert_eq!(err.clause(), "page=zzz");
        assert_eq!(err.span(), (8, 8));
        // Incomplete assemblies span the whole (trimmed) input.
        match FaultSpec::parse("at=5000").unwrap_err() {
            FaultSpecError::Incomplete { clause } => assert_eq!(clause, "at=5000"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mttr_and_degrade_conflict_either_order() {
        match FaultSpec::parse("at=1,page=0,degrade,mttr=50").unwrap_err() {
            FaultSpecError::Conflict {
                clause,
                offset,
                with,
            } => {
                assert_eq!(clause, "mttr=50");
                assert_eq!(offset, 20);
                assert_eq!(with, "degrade");
            }
            other => panic!("{other:?}"),
        }
        match FaultSpec::parse("at=1,page=0,mttr=50,degrade").unwrap_err() {
            FaultSpecError::Conflict { clause, with, .. } => {
                assert_eq!(clause, "degrade");
                assert_eq!(with, "mttr");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mttr_clause_makes_faults_transient() {
        assert_eq!(
            FaultSpec::parse("at=100,page=1,mttr=500").unwrap(),
            FaultSpec::At {
                time: 100,
                page: 1,
                kind: FaultKind::Transient { repair_after: 500 }
            }
        );
        // `kill` is the default; an explicit `kill` with `mttr` is
        // simply a transient kill, whichever order they appear in.
        assert_eq!(
            FaultSpec::parse("mtbf=9000,count=3,mttr=250,kill").unwrap(),
            FaultSpec::Mtbf {
                mean: 9000,
                count: 3,
                seed: 0,
                kind: FaultKind::Transient { repair_after: 250 }
            }
        );
    }

    #[test]
    fn spec_kind_accessors_round_trip() {
        let base = FaultSpec::parse("mtbf=8000,count=2,seed=7").unwrap();
        assert_eq!(base.mttr(), None);
        let transient = base.with_mttr(300);
        assert_eq!(transient.mttr(), Some(300));
        assert_eq!(
            transient.kind(),
            Some(FaultKind::Transient { repair_after: 300 })
        );
        // permanent() is the inverse direction back to plain kills.
        assert_eq!(transient.permanent(), base);
        assert_eq!(base.permanent(), base);
        assert_eq!(FaultSpec::Off.with_mttr(300), FaultSpec::Off);
        assert_eq!(FaultSpec::Off.kind(), None);
        // Derivations preserve the transient kind.
        assert_eq!(transient.scaled(2).mttr(), Some(300));
        assert_eq!(transient.reseeded(9).mttr(), Some(300));
        // The schedule carries the transient kind on every event.
        assert!(transient
            .schedule(4)
            .iter()
            .all(|e| e.kind == FaultKind::Transient { repair_after: 300 }));
    }

    #[test]
    fn repair_transitions_follow_the_state_machine() {
        let mut m = FaultMap::new(4);
        m.mark_page(2, PageHealth::Dead);
        assert!(!m.is_usable(2));

        // Dead → Repairing: still not usable, still splits the ring.
        m.begin_repair(2);
        assert_eq!(m.health(2), PageHealth::Repairing);
        assert!(!m.is_usable(2));
        assert_eq!(m.repairing_pages(), vec![2]);
        assert_eq!(m.surviving_runs(), vec![(0, 2), (3, 1)]);

        // Repairing → Healthy.
        m.complete_repair(2);
        assert_eq!(m.health(2), PageHealth::Healthy);
        assert!(m.is_usable(2));
        assert_eq!(m.surviving_runs(), vec![(0, 4)]);

        // begin_repair on a non-dead page is a no-op...
        m.begin_repair(2);
        assert_eq!(m.health(2), PageHealth::Healthy);
        m.mark_page(1, PageHealth::Degraded);
        m.begin_repair(1);
        assert_eq!(m.health(1), PageHealth::Degraded);
        // ...and complete_repair on a non-repairing page is too (a page
        // re-killed mid-repair stays dead).
        m.mark_page(3, PageHealth::Dead);
        m.begin_repair(3);
        m.mark_page(3, PageHealth::Dead); // re-struck while repairing
        m.complete_repair(3);
        assert_eq!(m.health(3), PageHealth::Dead);
    }

    #[test]
    fn targeted_schedule_is_one_event() {
        let spec = FaultSpec::parse("at=100,page=1").unwrap();
        assert_eq!(
            spec.schedule(4),
            vec![FaultEvent {
                time: 100,
                page: 1,
                kind: FaultKind::Kill
            }]
        );
        // A page outside the fabric never fires.
        assert!(spec.schedule(1).is_empty());
    }

    #[test]
    fn mtbf_schedule_is_deterministic_and_sorted() {
        let spec = FaultSpec::parse("mtbf=10000,count=16,seed=3").unwrap();
        let a = spec.schedule(8);
        let b = spec.schedule(8);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        assert!(a.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(a.iter().all(|e| e.page < 8));
        // A different seed gives a different schedule.
        let c = FaultSpec::parse("mtbf=10000,count=16,seed=4")
            .unwrap()
            .schedule(8);
        assert_ne!(a, c);
    }

    #[test]
    fn mtbf_mean_is_roughly_respected() {
        let spec = FaultSpec::Mtbf {
            mean: 1000,
            count: 400,
            seed: 1,
            kind: FaultKind::Kill,
        };
        let events = spec.schedule(4);
        let last = events.last().unwrap().time;
        let mean = last as f64 / 400.0;
        assert!(
            (mean - 1000.0).abs() < 250.0,
            "empirical MTBF {mean:.0} far from 1000"
        );
    }

    #[test]
    fn spec_display_parse_round_trips_exhaustively() {
        // Property sweep over an enumerated spec family: every member
        // must survive Display → parse unchanged, including the extreme
        // field values the hand-picked cases above never reach.
        let mut specs = vec![FaultSpec::Off];
        for kind in [
            FaultKind::Kill,
            FaultKind::Degrade,
            FaultKind::Transient { repair_after: 1 },
            FaultKind::Transient { repair_after: 4096 },
            FaultKind::Transient {
                repair_after: u64::MAX,
            },
        ] {
            for time in [0u64, 1, 999, u64::MAX] {
                for page in [0u16, 1, 7, u16::MAX] {
                    specs.push(FaultSpec::At { time, page, kind });
                }
            }
            for mean in [1u64, 500, u64::MAX] {
                for count in [0u32, 1, u32::MAX] {
                    for seed in [0u64, 42, u64::MAX] {
                        specs.push(FaultSpec::Mtbf {
                            mean,
                            count,
                            seed,
                            kind,
                        });
                    }
                }
            }
        }
        for spec in specs {
            let shown = spec.to_string();
            assert_eq!(FaultSpec::parse(&shown), Ok(spec), "via {shown:?}");
        }
    }

    #[test]
    fn scaled_and_reseeded_schedules_stay_deterministic() {
        // Derivation laws over a small grid of fabrics and factors:
        // deriving a spec is pure (equal schedules on repeat), scaling
        // preserves the fault count and never stretches the timeline,
        // reseeding with 0 is the identity and reseeding twice with the
        // same salt undoes itself.
        let base = FaultSpec::Mtbf {
            mean: 8_000,
            count: 8,
            seed: 5,
            kind: FaultKind::Kill,
        };
        assert_eq!(base.reseeded(0), base);
        for pages in [1u16, 4, 9] {
            let reference = base.schedule(pages);
            for factor in [1u64, 2, 8, 1_000_000] {
                let scaled = base.scaled(factor);
                let a = scaled.schedule(pages);
                assert_eq!(a, scaled.schedule(pages), "pages={pages} x{factor}");
                assert_eq!(a.len(), reference.len(), "scaling must keep the count");
                assert!(
                    a.last().unwrap().time <= reference.last().unwrap().time,
                    "pages={pages} x{factor}: scaling up the rate stretched the timeline"
                );
                // Same seed stream: the struck pages are unchanged, only
                // the arrival times compress.
                let struck = |evs: &[FaultEvent]| {
                    let mut p: Vec<u16> = evs.iter().map(|e| e.page).collect();
                    p.sort_unstable();
                    p
                };
                assert_eq!(struck(&a), struck(&reference));
            }
            for salt in [0u64, 1, 0xDEAD_BEEF] {
                let reseeded = base.reseeded(salt);
                assert_eq!(
                    reseeded.schedule(pages),
                    reseeded.schedule(pages),
                    "pages={pages} salt={salt}"
                );
                assert_eq!(reseeded.reseeded(salt), base, "reseed is an involution");
            }
        }
        // Off and At specs pass through both derivations unchanged.
        let at = FaultSpec::At {
            time: 7,
            page: 1,
            kind: FaultKind::Degrade,
        };
        for spec in [FaultSpec::Off, at] {
            assert_eq!(spec.scaled(8), spec);
            assert_eq!(spec.reseeded(99), spec);
        }
    }

    #[test]
    fn scaling_divides_the_mtbf() {
        let spec = FaultSpec::parse("mtbf=8000,count=2,seed=0").unwrap();
        match spec.scaled(4) {
            FaultSpec::Mtbf { mean, .. } => assert_eq!(mean, 2000),
            other => panic!("{other:?}"),
        }
        assert_eq!(FaultSpec::Off.scaled(4), FaultSpec::Off);
    }
}
