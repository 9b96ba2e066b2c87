//! # cgra-exec — functional execution of CGRA schedules
//!
//! Structural validators (crates `cgra-mapper`, `cgra-core`) check that
//! schedules *could* move values correctly; this crate checks that they
//! *do*: it runs schedules with concrete values and compares against a
//! golden dataflow interpretation.
//!
//! * [`semantics`] — concrete, operand-order-sensitive op semantics.
//! * [`interp`] — the golden reference: direct DFG interpretation over
//!   input streams.
//! * [`machine`] — cycle-level execution of a mapped schedule, a
//!   PageMaster fold onto one page included (it is a mapping on the
//!   one-page fabric): values only exist where and when their producing
//!   steps published them; every read takes its value where the mapper's
//!   read rule says and asserts physical presence there.
//! * [`error`] — the shared [`ExecError`] both paths report instead of
//!   panicking, so a bad schedule or truncated input stream stays a
//!   value the caller can route.
//!
//! The headline property (exercised by the test suites and
//! `examples/functional_check.rs`): for every benchmark kernel,
//!
//! ```text
//! interpret(dfg)  ==  execute(map_baseline(dfg))
//!                 ==  execute(map_constrained(dfg))
//!                 ==  execute(fold_to_page(map_constrained(dfg)))
//! ```
//!
//! so the paging constraints and the shrink transformation preserve
//! program semantics, not just scheduling invariants.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod interp;
pub mod machine;
pub mod semantics;

pub use error::ExecError;
pub use interp::{interpret, InputStreams, Outputs};
pub use machine::execute;
pub use semantics::{const_value, eval, Word};
