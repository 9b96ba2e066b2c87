//! Offline stand-in for the `serde` facade.
//!
//! This build environment has no access to crates.io, so the real serde
//! cannot be vendored. The workspace only ever used serde as derive
//! decoration — no call site serializes through the serde data model —
//! so this shim keeps the existing `#[derive(Serialize, Deserialize)]`
//! annotations compiling as *markers*:
//!
//! * [`Serialize`] / [`Deserialize`] are empty marker traits;
//! * the derive macros (re-exported from `serde_derive` under the
//!   `derive` feature, exactly like the real facade) emit marker impls.
//!
//! Actual serialization in this workspace goes through the hand-rolled
//! JSON codec `cgra_obs::jsonio`: the trace events generate theirs from
//! one declaration, and the analyzer's reports write theirs by hand. If
//! the real serde ever becomes available, deleting this crate
//! and restoring the registry dependency is the only change needed: the
//! annotations are already in place.

#![warn(missing_docs)]

/// Marker for types that are serializable. The real trait's methods are
/// intentionally absent — see the crate docs.
pub trait Serialize {}

/// Marker for types that are deserializable. The real trait's lifetime
/// parameter and methods are intentionally absent — see the crate docs.
pub trait Deserialize {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
