//! The diagnostic vocabulary: stable codes, severities, spans, and the
//! [`Report`] container with human and JSON renderers.
//!
//! Codes are grouped by hundreds:
//!
//! * `A0xx` — modulo-resource analysis of a [`Mapping`]
//!   (MRT exclusivity, buses, functional units, dataflow shape).
//! * `A1xx` — rotating-register live-range analysis.
//! * `A2xx` — paging constraints (§VI-B): ring discipline, paged
//!   dependences, shrink-plan legality.
//! * `A3xx` — degradation analysis of a [`DegradedPlan`] against a
//!   [`FaultMap`] (`A30x`: the pages of its run), and recovery analysis
//!   (`A31x`) of a [`RecoveryPlan`] re-expanding onto repaired pages.
//! * `A4xx` — compiled kernel-profile semantic integrity.
//!
//! Codes are **stable**: external tooling may match on them, so a code
//! is never renumbered or reused once released. New checks append.
//!
//! Retired, never reused:
//!
//! * `A220`–`A225`, the Fig. 6 fold's own pass. A fold is now a mapping
//!   on the one-page fabric, so the `A0xx`/`A1xx` mapping checks cover
//!   it.
//! * `A302`–`A305` (columns not contiguous, remap not bijective, shape
//!   mismatch, stale fault bookkeeping). A degraded or recovery plan is
//!   now a shrink plan and the first page of its run, so its pages are
//!   ring-consecutive, one per column and as many as the plan's columns
//!   by construction, and it keeps no copy of the fault map to go
//!   stale.
//!
//! [`Mapping`]: cgra_mapper::Mapping
//! [`DegradedPlan`]: cgra_core::DegradedPlan
//! [`RecoveryPlan`]: cgra_core::RecoveryPlan
//! [`FaultMap`]: cgra_arch::FaultMap

use cgra_obs::jsonio::Json;

/// A stable diagnostic code. See the module docs for the numbering plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(clippy::enum_variant_names)]
pub enum Code {
    /// Two MRT reservations collide on one PE slot (mod II).
    A001PeSlotConflict,
    /// A row bus exceeds its per-slot capacity.
    A002BusOverflow,
    /// An op sits on a PE lacking the required functional unit.
    A003MissingFu,
    /// Artifact shape does not match the DFG (placement/route counts).
    A004ShapeMismatch,
    /// An edge's dataflow is unrealisable (timing, adjacency, chain
    /// contiguity, memory visibility).
    A005BadDataflow,
    /// Rotating-register pressure exceeds the per-PE file size.
    A101RfPressure,
    /// A single value's lifetime alone needs more rotating registers
    /// than one PE's file holds — no schedule shuffle can save it.
    A102LifetimeExceedsRotation,
    /// A dataflow step leaves the page ring (not same-page, not the
    /// next page on the serpentine path).
    A201RingStepViolation,
    /// A paged dependence parks longer than the producing page's
    /// rotating file can hold under §VI-B's register-usage bound.
    A202DepOverparked,
    /// A paged dependence is malformed: its pages are not a ring step,
    /// or its consumer does not run after its producer.
    A204PagedDepNotRing,
    /// A shrink plan leaves a cell unplaced in some period entry.
    A210PlanMissingCell,
    /// A shrink plan names a column outside `0..M`.
    A211PlanBadColumn,
    /// Two plan instances collide on (column, cycle).
    A212PlanSlotCollision,
    /// A plan dependence's consumer does not run after its producer.
    A213PlanDepTiming,
    /// A plan dependence spans non-adjacent columns.
    A214PlanDepColumns,
    /// A parked value's page wanders between columns.
    A215PlanUnstableParking,
    /// A plan undershoots the §VI-C capacity bound.
    A216PlanBelowCapacity,
    /// A degraded plan column is backed by a dead or out-of-range page.
    A301OpOnDeadPage,
    /// A column is backed by a degraded (slow but usable) page.
    A306ColumnOnDegradedPage,
    /// A recovery plan re-places work on a page that is still dead,
    /// mid-repair or out of range (repaired-page reuse legality).
    A310RecoveryOnUnrepairedPage,
    /// A recovery plan activates a repaired page before its quarantine
    /// window elapsed.
    A311QuarantineViolated,
    /// A recovery plan resumes at a different iteration than the thread
    /// completed — iterations were lost (or replayed) across the
    /// shrink → repair → expand round trip.
    A312IterationLoss,
    /// A profile claims a zero initiation interval.
    A401ProfileBadIi,
    /// A profile's constrained II is below its baseline II.
    A402ProfileConstraintInverted,
    /// A profile's II table does not enumerate the halving chain.
    A403ProfileOffChain,
    /// A profile's II table is not monotone as pages shrink.
    A404ProfileNotMonotone,
    /// A profile's used-page count is out of the fabric's range.
    A405ProfileUsedPagesOutOfRange,
}

impl Code {
    /// Every code, in ascending numeric order. The mutation suite
    /// asserts each one is produced by at least one operator.
    pub const ALL: [Code; 27] = [
        Code::A001PeSlotConflict,
        Code::A002BusOverflow,
        Code::A003MissingFu,
        Code::A004ShapeMismatch,
        Code::A005BadDataflow,
        Code::A101RfPressure,
        Code::A102LifetimeExceedsRotation,
        Code::A201RingStepViolation,
        Code::A202DepOverparked,
        Code::A204PagedDepNotRing,
        Code::A210PlanMissingCell,
        Code::A211PlanBadColumn,
        Code::A212PlanSlotCollision,
        Code::A213PlanDepTiming,
        Code::A214PlanDepColumns,
        Code::A215PlanUnstableParking,
        Code::A216PlanBelowCapacity,
        Code::A301OpOnDeadPage,
        Code::A306ColumnOnDegradedPage,
        Code::A310RecoveryOnUnrepairedPage,
        Code::A311QuarantineViolated,
        Code::A312IterationLoss,
        Code::A401ProfileBadIi,
        Code::A402ProfileConstraintInverted,
        Code::A403ProfileOffChain,
        Code::A404ProfileNotMonotone,
        Code::A405ProfileUsedPagesOutOfRange,
    ];

    /// The stable wire form, e.g. `"A001"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::A001PeSlotConflict => "A001",
            Code::A002BusOverflow => "A002",
            Code::A003MissingFu => "A003",
            Code::A004ShapeMismatch => "A004",
            Code::A005BadDataflow => "A005",
            Code::A101RfPressure => "A101",
            Code::A102LifetimeExceedsRotation => "A102",
            Code::A201RingStepViolation => "A201",
            Code::A202DepOverparked => "A202",
            Code::A204PagedDepNotRing => "A204",
            Code::A210PlanMissingCell => "A210",
            Code::A211PlanBadColumn => "A211",
            Code::A212PlanSlotCollision => "A212",
            Code::A213PlanDepTiming => "A213",
            Code::A214PlanDepColumns => "A214",
            Code::A215PlanUnstableParking => "A215",
            Code::A216PlanBelowCapacity => "A216",
            Code::A301OpOnDeadPage => "A301",
            Code::A306ColumnOnDegradedPage => "A306",
            Code::A310RecoveryOnUnrepairedPage => "A310",
            Code::A311QuarantineViolated => "A311",
            Code::A312IterationLoss => "A312",
            Code::A401ProfileBadIi => "A401",
            Code::A402ProfileConstraintInverted => "A402",
            Code::A403ProfileOffChain => "A403",
            Code::A404ProfileNotMonotone => "A404",
            Code::A405ProfileUsedPagesOutOfRange => "A405",
        }
    }

    /// The default severity a finding with this code carries.
    pub fn default_severity(self) -> Severity {
        match self {
            // Legal-but-suspicious: running on a degraded (not dead) page
            // works, and a heuristic mapper's constrained search can land
            // on a better II than its baseline search did.
            Code::A306ColumnOnDegradedPage | Code::A402ProfileConstraintInverted => {
                Severity::Warning
            }
            _ => Severity::Error,
        }
    }
}

impl std::fmt::Display for Code {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Legal but worth knowing (e.g. running on a degraded page).
    Warning,
    /// The artifact is illegal; executing it would compute wrong values
    /// or collide on hardware.
    Error,
}

impl Severity {
    /// The wire form: `"error"` / `"warning"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where in the artifact a finding points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Span {
    /// The artifact as a whole.
    Global,
    /// A DFG node index.
    Node(u32),
    /// A DFG edge index.
    Edge(u32),
    /// A processing element.
    Pe(u16),
    /// A page of the layout.
    Page(u16),
    /// One cell of a paged schedule.
    Cell {
        /// The page.
        page: u16,
        /// The modulo slot.
        slot: u32,
    },
    /// A shrink-plan column.
    Column(u16),
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Span::Global => write!(f, "global"),
            Span::Node(n) => write!(f, "node#{n}"),
            Span::Edge(e) => write!(f, "edge#{e}"),
            Span::Pe(p) => write!(f, "PE{p}"),
            Span::Page(p) => write!(f, "page{p}"),
            Span::Cell { page, slot } => write!(f, "cell({page},{slot})"),
            Span::Column(c) => write!(f, "col{c}"),
        }
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// How bad it is.
    pub severity: Severity,
    /// What part of the artifact it points at.
    pub span: Span,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// A finding with the code's default severity.
    pub fn new(code: Code, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            span,
            message: message.into(),
        }
    }

    /// JSON form: `{"code","severity","span","message"}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("code", Json::Str(self.code.as_str().into())),
            ("severity", Json::Str(self.severity.as_str().into())),
            ("span", Json::Str(self.span.to_string())),
            ("message", Json::Str(self.message.clone())),
        ])
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.code, self.span, self.message
        )
    }
}

/// The outcome of one analysis pass (or several merged): an ordered,
/// deduplicated list of findings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty (clean) report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Build from raw findings (sorted and deduplicated).
    pub fn from_diagnostics(mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by(|a, b| {
            (a.code, a.span, &a.message, a.severity).cmp(&(b.code, b.span, &b.message, b.severity))
        });
        diagnostics.dedup();
        Report { diagnostics }
    }

    /// Append another pass's findings.
    #[must_use]
    pub fn merge(self, other: Report) -> Report {
        let mut all = self.diagnostics;
        all.extend(other.diagnostics);
        Report::from_diagnostics(all)
    }

    /// The findings, ordered by (code, span, message).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether any error-severity finding is present.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The distinct codes present, ascending.
    pub fn codes(&self) -> Vec<Code> {
        let mut codes: Vec<Code> = self.diagnostics.iter().map(|d| d.code).collect();
        codes.sort_unstable();
        codes.dedup();
        codes
    }

    /// Human rendering: one finding per line, `"clean"` when empty.
    pub fn render(&self) -> String {
        if self.is_clean() {
            return "clean\n".into();
        }
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }

    /// JSON form: `{"clean": bool, "diagnostics": [...]}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("clean", Json::Bool(self.is_clean())),
            (
                "diagnostics",
                Json::Arr(self.diagnostics.iter().map(Diagnostic::to_json).collect()),
            ),
        ])
    }
}

impl FromIterator<Diagnostic> for Report {
    fn from_iter<T: IntoIterator<Item = Diagnostic>>(iter: T) -> Self {
        Report::from_diagnostics(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_distinct_and_sorted() {
        let strs: Vec<&str> = Code::ALL.iter().map(|c| c.as_str()).collect();
        let mut sorted = strs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(strs, sorted, "Code::ALL must be ascending and unique");
    }

    #[test]
    fn report_dedups_and_orders() {
        let d1 = Diagnostic::new(Code::A005BadDataflow, Span::Edge(3), "x");
        let d0 = Diagnostic::new(Code::A001PeSlotConflict, Span::Pe(1), "y");
        let r = Report::from_diagnostics(vec![d1.clone(), d0.clone(), d1.clone()]);
        assert_eq!(r.diagnostics(), &[d0, d1]);
        assert!(r.has_errors());
        assert!(!r.is_clean());
    }

    #[test]
    fn warning_only_report_has_no_errors() {
        let r = Report::from_diagnostics(vec![Diagnostic::new(
            Code::A306ColumnOnDegradedPage,
            Span::Column(0),
            "slow",
        )]);
        assert!(!r.is_clean());
        assert!(!r.has_errors());
    }

    #[test]
    fn json_rendering_is_stable() {
        let r = Report::from_diagnostics(vec![Diagnostic::new(
            Code::A001PeSlotConflict,
            Span::Pe(2),
            "conflict",
        )]);
        let j = r.to_json().compact();
        assert!(j.contains("\"code\":\"A001\""), "{j}");
        assert!(j.contains("\"severity\":\"error\""), "{j}");
        assert!(j.contains("\"span\":\"PE2\""), "{j}");
    }
}
