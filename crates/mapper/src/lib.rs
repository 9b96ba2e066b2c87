//! # cgra-mapper — modulo-scheduling CGRA mappers
//!
//! Maps loop-kernel DFGs onto a CGRA: joint scheduling, placement, and
//! operand routing, minimising the initiation interval (II). Two entry
//! points:
//!
//! * [`map_baseline`] — conventional mapping (the paper's unmodified
//!   compiler): RF parking allowed, routing unconstrained.
//! * [`map_constrained`] — the paper's §VI-B compile-time constraints:
//!   ring-topology page dataflow and memory spilling of long-lived
//!   temporaries, producing schedules the PageMaster transformation can
//!   reshape at runtime.
//!
//! Every mapping can be re-checked from scratch with
//! [`validate_mapping`]; nothing downstream trusts the search engine.
//!
//! ```
//! use cgra_arch::CgraConfig;
//! use cgra_mapper::{map_baseline, map_constrained, MapOptions};
//!
//! let cgra = CgraConfig::square(4);
//! let kernel = cgra_dfg::kernels::mpeg2();
//! let base = map_baseline(&kernel, &cgra, &MapOptions::default()).unwrap();
//! let paged = map_constrained(&kernel, &cgra, &MapOptions::default()).unwrap();
//! assert!(paged.ii() >= base.ii());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod constrained;
pub mod ems;
pub mod engine;
pub mod error;
pub mod mapping;
pub mod mrt;
pub mod opts;
pub mod route;
pub mod spill;

pub use constrained::{map_constrained, map_constrained_strict, map_constrained_traced};
pub use ems::{kernel_mii, map_baseline, map_baseline_traced, MapResult};
pub use error::MapError;
pub use mapping::{validate_mapping, MapMode, Mapping, Placement, RouteHop, Violation};
pub use opts::MapOptions;
pub use spill::MapDfg;
