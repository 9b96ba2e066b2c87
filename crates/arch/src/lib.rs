//! # cgra-arch — CGRA architecture model
//!
//! A Coarse-Grained Reconfigurable Array (CGRA) is a 2-D mesh of processing
//! elements (PEs). Each PE contains an ALU and a small *rotating* register
//! file, executes one arithmetic/logic/memory micro-operation per cycle, and
//! can consume the previous-cycle outputs of its four mesh neighbours
//! (paper, Fig. 1). Rows share a data bus to the on-chip data memory.
//!
//! This crate models everything *static* about the fabric:
//!
//! * [`topology`] — the PE mesh: identifiers, coordinates, adjacency.
//! * [`pe`] — per-PE capabilities and functional-unit classes.
//! * [`register`] — rotating register files and register-pressure
//!   accounting (needed by the PageMaster transformation, §VI-E).
//! * [`page`] — the *conceptual* division of the array into pages:
//!   symmetric tiles ordered so that consecutive pages are physically
//!   adjacent (the ring of Fig. 5).
//! * [`mirror`] — orientation transforms used when a page's intra-page
//!   mapping must be mirrored during a shrink (Fig. 6).
//! * [`memory`] — the shared row buses to data memory.
//! * [`fault`] — the fault model: per-page health and deterministic
//!   seeded injection schedules.
//! * [`config`] — [`CgraConfig`], the validated bundle of all
//!   architectural parameters, and [`fabric`], the checked square
//!   fabric that every command line builds from its flags.
//!
//! Nothing here is specific to any one mapping algorithm; the mapper and
//! PageMaster crates build on these types.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod fault;
pub mod memory;
pub mod mirror;
pub mod page;
pub mod pe;
pub mod register;
pub mod topology;

pub use config::{fabric, CgraConfig, FabricError, PAPER_GRID};
pub use fault::{FaultEvent, FaultKind, FaultMap, FaultSpec, FaultSpecError, PageHealth};
pub use mirror::Orientation;
pub use page::{PageId, PageLayout, PageShape};
pub use pe::{FuClass, PeCapability};
pub use topology::{Mesh, PeId, Pos};
