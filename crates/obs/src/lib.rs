//! # cgra-obs — observability for the CGRA workspace
//!
//! A zero-cost-when-off trace/metrics layer shared by `cgra-mapper`,
//! `cgra-core`, `cgra-sim` and `cgra-bench`:
//!
//! * [`event::TraceEvent`] — typed events covering the mapper search
//!   (place / evict / backtrack / route), the PageMaster transform
//!   (begin / end with page geometry), and the multithreaded simulator
//!   (queue / start / shrink / expand / fault / revoke / repair). Each
//!   event is declared once; its tag and JSONL codec are generated.
//! * [`sink::TraceSink`] — the sink trait, with ring-buffer
//!   ([`sink::RingSink`]), JSONL-writer ([`sink::JsonlSink`]) and
//!   counting ([`metrics::MetricsSink`]) implementations, plus the
//!   [`sink::Tracer`] handle that producers thread through their entry
//!   points. A disabled tracer never constructs an event (the closure
//!   passed to [`sink::Tracer::emit`] is simply not called), so traced
//!   code paths cost one branch when tracing is off.
//! * [`metrics::Metrics`] — monotonic counters and log₂ cycle
//!   histograms in the style of the simulator's `stats` structs.
//! * [`oracle`] — a replay checker that consumes a trace and asserts
//!   invariants end-state diffs cannot see: every revoked page was
//!   previously owned, thread cycle accounting sums to the reported
//!   makespan, and no pages are handed to a thread after their death
//!   event.
//! * [`jsonio`] — the workspace's offline JSON codec, used for JSONL
//!   traces and the analyzer's JSON reports.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod jsonio;
pub mod metrics;
pub mod oracle;
pub mod sink;

pub use event::TraceEvent;
pub use metrics::{CycleHisto, Metrics, MetricsSink};
pub use oracle::{check_trace, OracleError, OracleReport};
pub use sink::{InOrder, JsonlSink, RingSink, TeeSink, TraceSink, Tracer};
