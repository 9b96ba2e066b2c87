//! # cgra-core — the PageMaster runtime schedule transformation
//!
//! The paper's contribution: take a kernel schedule compiled (under the
//! §VI-B paging constraints) for the *whole* CGRA and reshape it at
//! runtime to occupy fewer — or again more — pages, so kernels from
//! several threads can share the fabric (§V, §VI).
//!
//! * [`paged`] — [`PagedSchedule`]: the `N × II` page-level cell grid
//!   extracted from a constrained mapping, with its dependences.
//! * [`transform`] — [`ShrinkPlan`] and the column-stable *block*
//!   strategy; [`transform()`](transform::transform) dispatches.
//! * [`pagemaster`] — the paper's Algorithm 1: two-hop interleave
//!   initialization, `PlacePage`'s three cases, tails, steady-state
//!   extraction.
//! * [`validate`] — an independent checker for every §VI-C constraint
//!   (slot exclusivity, dependence timing and column adjacency, capacity
//!   bound).
//! * [`degrade`] — [`DegradedPlan`]: a shrink plan placed on the
//!   surviving contiguous run of a faulty page region (the plan and the
//!   run's first page) instead of a panic when pages die.
//! * [`recovery`] — [`RecoveryPlan`]: the undo, the same shrink plan on
//!   a run of the healed region back toward the full-ring schedule, with
//!   the quarantine/iteration bookkeeping the analyzer audits (codes
//!   A310–A312).
//! * [`fold`] — the PE-level shrink-to-one-page of Fig. 6, with
//!   intra-page mirroring: a mapping on the one-page fabric, which the
//!   mapper's validator checks like any other.
//!
//! ```
//! use cgra_arch::CgraConfig;
//! use cgra_mapper::{map_constrained, MapOptions};
//! use cgra_core::{PagedSchedule, transform::{transform, Strategy}};
//!
//! let cgra = CgraConfig::square(4);
//! let mapped = map_constrained(&cgra_dfg::kernels::mpeg2(), &cgra,
//!                              &MapOptions::default()).unwrap();
//! let paged = PagedSchedule::from_mapping(&mapped, &cgra).unwrap();
//! // Another thread arrives: shrink from 4 pages to 2.
//! let plan = transform(&paged, 2, Strategy::Auto).unwrap();
//! assert!(cgra_core::validate::validate_plan(&paged, &plan).is_empty());
//! assert_eq!(plan.ii_q_ceil(), 2 * mapped.ii());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod degrade;
pub mod fold;
pub mod paged;
pub mod pagemaster;
pub mod recovery;
pub mod transform;
pub mod validate;

pub use degrade::{transform_degraded, DegradedPlan};
pub use fold::fold_to_page;
pub use paged::{Discipline, PageDep, PagedSchedule};
pub use pagemaster::transform_pagemaster;
pub use recovery::{plan_recovery, RecoveryPlan, RepairedPage};
pub use transform::{transform_block, transform_traced, ShrinkPlan, Strategy, TransformError};
pub use validate::{is_slot_optimal, validate_plan, TransformViolation};
