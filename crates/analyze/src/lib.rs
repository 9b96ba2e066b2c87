//! `cgra-analyze` — whole-pipeline static schedule analyzer.
//!
//! Every artifact the pipeline produces — a modulo [`Mapping`] (a Fig. 6
//! fold is one), a page-level schedule, a §VI-C shrink plan, a degraded
//! plan, or a compiled kernel profile — can be handed to this crate and
//! re-checked **from first principles** against the
//! architecture and dataflow models, independent of the code that
//! produced it. Findings are structured [`Diagnostic`]s with stable
//! codes (`A001`…`A405`), a severity, a source span, and both JSON and
//! human renderers, collected into a [`Report`].
//!
//! The analyzer is its own verifier: [`mutate`] holds a library of
//! seeded mutation operators that each break one invariant of a
//! known-good artifact, and the test suite asserts every mutant is
//! flagged with the expected code class (100 % kill rate) and that every
//! code is reachable.
//!
//! Pass families:
//!
//! * [`analyze_mapping`] — modulo-resource exclusivity, dataflow
//!   legality, ring discipline, aggregate RF pressure, per-value
//!   lifetime analysis (`A0xx`/`A1xx`/`A201`). A Fig. 6 fold is a
//!   mapping on the one-page fabric and goes through this pass.
//! * [`analyze_paged`] — §VI-B paging constraints on a page-level
//!   schedule (`A202`/`A204`).
//! * [`analyze_plan`] — §VI-C shrink-plan legality (`A21x`).
//! * [`analyze_degraded`] — degradation legality against a fault map:
//!   every page of the plan's run usable (`A301`), degraded pages
//!   flagged (`A306`), and the inner shrink plan (`A21x`).
//! * [`analyze_recovery`] — post-repair re-expansion legality: repaired
//!   page reuse, quarantine, and iteration conservation (`A31x`), and
//!   the inner shrink plan (`A21x`).
//! * [`analyze_profile`] — semantic integrity of compiled kernel
//!   profiles (`A40x`).
//!
//! [`Mapping`]: cgra_mapper::Mapping

#![deny(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_lossless,
    clippy::module_name_repetitions,
    clippy::must_use_candidate,
    clippy::missing_panics_doc,
    clippy::doc_markdown
)]

pub mod degrade;
pub mod diag;
pub mod mapping;
pub mod mutate;
pub mod paged;
pub mod plan;
pub mod profile;
pub mod recovery;

pub use degrade::analyze_degraded;
pub use diag::{Code, Diagnostic, Report, Severity, Span};
pub use mapping::{analyze_mapping, diagnostic_from_violation};
pub use paged::analyze_paged;
pub use plan::{analyze_plan, diagnostic_from_transform_violation};
pub use profile::analyze_profile;
pub use recovery::analyze_recovery;
