//! Typed trace events and their JSONL encoding.
//!
//! Every event renders to a single-line JSON object (see
//! [`TraceEvent::to_jsonl`]) tagged by an `"ev"` field, and parses back
//! with [`TraceEvent::parse_line`]. The encoding is canonical — object
//! keys are sorted by the codec — so identical event streams produce
//! byte-identical trace files.
//!
//! Each event is declared once, in the `trace_events!` table below:
//! its variant, its tag and its documented fields. The field names are
//! the JSON keys, and the table generates the enum, [`TraceEvent::kind`],
//! the encoder and the strict decoder. To add an event, add one entry to
//! the table and one sample to the tests' `samples()`, then regenerate
//! `tests/golden/events.jsonl` with `UPDATE_GOLDEN=1 cargo test -p
//! cgra-obs`. A field of a new type needs a `Field` impl.

use crate::jsonio::Json;
use cgra_arch::FaultKind;
use std::collections::BTreeMap;

macro_rules! trace_events {
    (
        $(#[$meta:meta])*
        pub enum TraceEvent {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $tag:literal {
                    $( $(#[$fmeta:meta])* $field:ident: $ty:ty, )*
                },
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum TraceEvent {
            $(
                $(#[$vmeta])*
                $variant { $( $(#[$fmeta])* $field: $ty, )* },
            )*
        }

        impl TraceEvent {
            /// The event's tag: the `"ev"` field of its JSONL encoding, also
            /// used as the metrics counter key.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( TraceEvent::$variant { .. } => $tag, )*
                }
            }

            /// Render as one JSONL line (no trailing newline).
            pub fn to_jsonl(&self) -> String {
                let mut obj = BTreeMap::new();
                self.kind().to_string().put("ev", &mut obj);
                match self {
                    $( TraceEvent::$variant { $($field),* } => {
                        $( $field.put(stringify!($field), &mut obj); )*
                    } )*
                }
                Json::Obj(obj).compact()
            }

            /// Parse one JSONL line back into an event. Strict: unknown tags,
            /// missing fields and malformed JSON are errors.
            pub fn parse_line(line: &str) -> Result<TraceEvent, DecodeError> {
                let v = Json::parse(line).map_err(|e| decode_error(e.to_string()))?;
                Ok(match String::take(&v, "ev")?.as_str() {
                    $( $tag => TraceEvent::$variant {
                        $( $field: Field::take(&v, stringify!($field))?, )*
                    }, )*
                    other => return Err(decode_error(format!("unknown event tag {other:?}"))),
                })
            }

            /// Parse a whole JSONL document (blank lines are skipped).
            pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, DecodeError> {
                text.lines()
                    .enumerate()
                    .filter(|(_, l)| !l.trim().is_empty())
                    .map(|(i, l)| {
                        TraceEvent::parse_line(l)
                            .map_err(|e| decode_error(format!("line {}: {}", i + 1, e.message)))
                    })
                    .collect()
            }
        }
    };
}

trace_events! {
    /// One observable decision made by the mapper, the PageMaster
    /// transform, or the multithreaded simulator.
    ///
    /// Times are simulator cycles; `thread` / `kernel` / `op` / `edge` are
    /// dense indices; `page` / `pe` are fabric identifiers.
    #[derive(Debug, Clone, PartialEq)]
    pub enum TraceEvent {
        /// The mapper started a schedule search for one kernel.
        MapBegin = "map_begin" {
            /// Kernel name.
            kernel: String,
            /// Number of DFG operations being placed.
            ops: u32,
            /// Mapping mode (`Baseline` / `Constrained` / ...).
            mode: String,
        },
        /// A placement attempt failed at `op` and the search backtracked to
        /// a fresh restart (or the next II).
        Backtrack = "backtrack" {
            /// The II being attempted.
            ii: u32,
            /// Restart index within that II.
            restart: u32,
            /// The DFG node that could not be placed.
            op: u32,
        },
        /// A complete candidate mapping was evicted by the acceptance
        /// validator.
        Evict = "evict" {
            /// The II of the rejected mapping.
            ii: u32,
            /// Restart index that produced it.
            restart: u32,
            /// Number of validator violations.
            violations: u32,
        },
        /// One operation's final placement in the accepted mapping.
        Place = "place" {
            /// DFG node index.
            op: u32,
            /// Flat PE index.
            pe: u32,
            /// Page containing that PE.
            page: u16,
            /// Schedule time slot.
            time: u32,
        },
        /// One routed edge in the accepted mapping.
        Route = "route" {
            /// DFG edge index.
            edge: u32,
            /// Number of routing hops used.
            hops: u32,
        },
        /// The schedule search finished.
        MapEnd = "map_end" {
            /// Kernel name.
            kernel: String,
            /// Achieved II (last attempted II on failure).
            ii: u32,
            /// Whether a mapping was accepted.
            success: bool,
        },
        /// The PageMaster transform started shrinking a paged schedule.
        TransformBegin = "transform_begin" {
            /// Kernel name.
            kernel: String,
            /// Source page count.
            n: u16,
            /// Target page count.
            m: u16,
            /// Source II.
            ii: u32,
            /// Strategy requested (`Block` / `PageMaster` / `Auto`).
            strategy: String,
        },
        /// The PageMaster transform produced a plan.
        TransformEnd = "transform_end" {
            /// Kernel name.
            kernel: String,
            /// Target page count.
            m: u16,
            /// Plan period (cycles per source cycle).
            period: u32,
            /// Plan span (cycles per iteration).
            span: u64,
            /// Effective II, rounded up.
            ii_q_ceil: u32,
        },
        /// A multithreaded simulation run started. Opens a run segment;
        /// every `Thread*` / `Fault` / `Revoke` event belongs to the most
        /// recent `SimBegin`.
        SimBegin = "sim_begin" {
            /// Number of threads in the workload.
            threads: u32,
            /// Total pages on the fabric.
            pages: u16,
        },
        /// A thread requested pages and was queued (none available).
        ThreadQueue = "thread_queue" {
            /// Simulation time.
            time: u64,
            /// Thread index.
            thread: u32,
            /// Kernel index the thread wants to run.
            kernel: u32,
        },
        /// A thread was granted pages and started a kernel segment.
        ThreadStart = "thread_start" {
            /// Simulation time.
            time: u64,
            /// Thread index.
            thread: u32,
            /// Kernel index.
            kernel: u32,
            /// The exact pages granted.
            pages: Vec<u16>,
        },
        /// A running thread was shrunk to fewer pages.
        ThreadShrink = "thread_shrink" {
            /// Simulation time.
            time: u64,
            /// Thread index.
            thread: u32,
            /// Page count before.
            from: u16,
            /// Page count after.
            to: u16,
            /// The pages it retains.
            pages: Vec<u16>,
        },
        /// A running thread was expanded onto freed pages.
        ThreadExpand = "thread_expand" {
            /// Simulation time.
            time: u64,
            /// Thread index.
            thread: u32,
            /// Page count before.
            from: u16,
            /// Page count after.
            to: u16,
            /// The pages it now holds.
            pages: Vec<u16>,
        },
        /// A thread finished a kernel segment and released its pages.
        ThreadFinish = "thread_finish" {
            /// Simulation time.
            time: u64,
            /// Thread index.
            thread: u32,
            /// Number of pages released.
            freed: u16,
        },
        /// A thread completed its entire workload.
        ThreadDone = "thread_done" {
            /// Simulation time.
            time: u64,
            /// Thread index.
            thread: u32,
        },
        /// A fault was injected into the fabric.
        Fault = "fault" {
            /// Simulation time.
            time: u64,
            /// The page hit.
            page: u16,
            /// What the fault does.
            kind: FaultKind,
        },
        /// A page death revoked a thread's only page; the thread was
        /// re-queued.
        Revoke = "revoke" {
            /// Simulation time.
            time: u64,
            /// The thread losing the page.
            thread: u32,
            /// The dead page.
            page: u16,
        },
        /// A transiently-failed page finished repair (and its quarantine
        /// window) and returned to the allocator's free pool.
        PageRepaired = "page_repaired" {
            /// Simulation time.
            time: u64,
            /// The repaired page.
            page: u16,
        },
        /// The supervision policy re-expanded a shrunk thread onto
        /// recovered pages (the recovery counterpart of `ThreadExpand`).
        Reexpanded = "reexpanded" {
            /// Simulation time.
            time: u64,
            /// The re-expanded thread.
            thread: u32,
            /// Page count before.
            from: u16,
            /// Page count after.
            to: u16,
            /// The pages it now holds.
            pages: Vec<u16>,
        },
        /// The run terminated with an error instead of completing. Closes
        /// the run segment; oracle completeness checks are skipped.
        SimAbort = "sim_abort" {
            /// The simulator error, rendered.
            reason: String,
        },
        /// The run completed. Closes the run segment.
        SimEnd = "sim_end" {
            /// Reported makespan (cycles).
            makespan: u64,
            /// Total CGRA iterations executed.
            iterations: u64,
        },
    }
}

/// A failure decoding a JSONL trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace decode error: {}", self.message)
    }
}

impl std::error::Error for DecodeError {}

/// One event field's JSON codec: `put` writes it under `key`, `take`
/// reads it back and fails if it is missing or malformed.
trait Field: Sized {
    fn put(&self, key: &str, obj: &mut BTreeMap<String, Json>);
    fn take(v: &Json, key: &str) -> Result<Self, DecodeError>;
}

fn decode_error(message: String) -> DecodeError {
    DecodeError { message }
}

macro_rules! int_fields {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn put(&self, key: &str, obj: &mut BTreeMap<String, Json>) {
                // Cycle counts live far below 2^63; saturate rather than
                // panic if one ever does not.
                obj.insert(key.into(), Json::Int(i64::try_from(*self).unwrap_or(i64::MAX)));
            }

            fn take(v: &Json, key: &str) -> Result<Self, DecodeError> {
                v.get(key)
                    .and_then(Json::as_int)
                    .and_then(|i| Self::try_from(i).ok())
                    .ok_or_else(|| {
                        decode_error(format!("missing or out-of-range integer field {key:?}"))
                    })
            }
        }
    )*};
}

int_fields!(u16, u32, u64);

impl Field for String {
    fn put(&self, key: &str, obj: &mut BTreeMap<String, Json>) {
        obj.insert(key.into(), Json::Str(self.clone()));
    }

    fn take(v: &Json, key: &str) -> Result<Self, DecodeError> {
        v.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| decode_error(format!("missing string field {key:?}")))
    }
}

impl Field for bool {
    fn put(&self, key: &str, obj: &mut BTreeMap<String, Json>) {
        obj.insert(key.into(), Json::Bool(*self));
    }

    fn take(v: &Json, key: &str) -> Result<Self, DecodeError> {
        match v.get(key) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(decode_error(format!("missing bool field {key:?}"))),
        }
    }
}

impl Field for Vec<u16> {
    fn put(&self, key: &str, obj: &mut BTreeMap<String, Json>) {
        let pages = self.iter().map(|&p| Json::Int(p.into())).collect();
        obj.insert(key.into(), Json::Arr(pages));
    }

    fn take(v: &Json, key: &str) -> Result<Self, DecodeError> {
        v.get(key)
            .and_then(Json::as_arr)
            .and_then(|arr| {
                arr.iter()
                    .map(|p| p.as_int().and_then(|i| u16::try_from(i).ok()))
                    .collect()
            })
            .ok_or_else(|| decode_error(format!("missing page-list field {key:?}")))
    }
}

impl Field for FaultKind {
    fn put(&self, key: &str, obj: &mut BTreeMap<String, Json>) {
        let name = match self {
            FaultKind::Degrade => "degrade",
            FaultKind::Kill => "kill",
            FaultKind::Transient { .. } => "transient",
        };
        name.to_string().put(key, obj);
        // Transient faults carry their repair interval in an extra
        // `mttr` field, present only for this kind.
        if let FaultKind::Transient { repair_after } = self {
            repair_after.put("mttr", obj);
        }
    }

    fn take(v: &Json, key: &str) -> Result<Self, DecodeError> {
        match String::take(v, key)?.as_str() {
            "degrade" => Ok(FaultKind::Degrade),
            "kill" => Ok(FaultKind::Kill),
            "transient" => Ok(FaultKind::Transient {
                repair_after: Field::take(v, "mttr")?,
            }),
            other => Err(decode_error(format!("unknown fault kind {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TraceEvent> {
        vec![
            TraceEvent::MapBegin {
                kernel: "fir".into(),
                ops: 12,
                mode: "Constrained".into(),
            },
            TraceEvent::Backtrack {
                ii: 3,
                restart: 1,
                op: 7,
            },
            TraceEvent::Evict {
                ii: 3,
                restart: 2,
                violations: 1,
            },
            TraceEvent::Place {
                op: 0,
                pe: 5,
                page: 1,
                time: 2,
            },
            TraceEvent::Route { edge: 4, hops: 2 },
            TraceEvent::MapEnd {
                kernel: "fir".into(),
                ii: 4,
                success: true,
            },
            TraceEvent::TransformBegin {
                kernel: "fir".into(),
                n: 4,
                m: 2,
                ii: 4,
                strategy: "Auto".into(),
            },
            TraceEvent::TransformEnd {
                kernel: "fir".into(),
                m: 2,
                period: 2,
                span: 8,
                ii_q_ceil: 8,
            },
            TraceEvent::SimBegin {
                threads: 2,
                pages: 4,
            },
            TraceEvent::ThreadQueue {
                time: 10,
                thread: 1,
                kernel: 0,
            },
            TraceEvent::ThreadStart {
                time: 0,
                thread: 0,
                kernel: 3,
                pages: vec![0, 1],
            },
            TraceEvent::ThreadShrink {
                time: 20,
                thread: 0,
                from: 2,
                to: 1,
                pages: vec![0],
            },
            TraceEvent::ThreadExpand {
                time: 30,
                thread: 1,
                from: 1,
                to: 2,
                pages: vec![2, 3],
            },
            TraceEvent::ThreadFinish {
                time: 40,
                thread: 0,
                freed: 1,
            },
            TraceEvent::ThreadDone {
                time: 41,
                thread: 0,
            },
            TraceEvent::Fault {
                time: 15,
                page: 2,
                kind: FaultKind::Kill,
            },
            TraceEvent::Fault {
                time: 16,
                page: 3,
                kind: FaultKind::Degrade,
            },
            TraceEvent::Revoke {
                time: 15,
                thread: 1,
                page: 2,
            },
            TraceEvent::Fault {
                time: 17,
                page: 1,
                kind: FaultKind::Transient { repair_after: 600 },
            },
            TraceEvent::PageRepaired { time: 617, page: 1 },
            TraceEvent::Reexpanded {
                time: 620,
                thread: 1,
                from: 1,
                to: 2,
                pages: vec![1, 2],
            },
            TraceEvent::SimAbort {
                reason: "starved".into(),
            },
            TraceEvent::SimEnd {
                makespan: 99,
                iterations: 40,
            },
        ]
    }

    #[test]
    fn every_event_round_trips_through_jsonl() {
        for ev in samples() {
            let line = ev.to_jsonl();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(TraceEvent::parse_line(&line).unwrap(), ev, "{line}");
        }
    }

    #[test]
    fn whole_document_round_trips() {
        let evs = samples();
        let doc: String = evs.iter().map(|e| e.to_jsonl() + "\n").collect();
        assert_eq!(TraceEvent::parse_jsonl(&doc).unwrap(), evs);
    }

    /// The encoder's exact bytes for every sample, pinned so that an
    /// encoder and decoder drifting together cannot pass the round-trip
    /// tests. Regenerate with `UPDATE_GOLDEN=1 cargo test -p cgra-obs`.
    #[test]
    fn samples_match_golden_jsonl() {
        let evs = samples();
        let kinds: std::collections::BTreeSet<&str> = evs.iter().map(TraceEvent::kind).collect();
        assert_eq!(kinds.len(), 21, "one sample per event kind: {kinds:?}");
        let faults: std::collections::BTreeSet<String> = evs
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Fault { kind, .. } => Some(format!("{kind:?}")),
                _ => None,
            })
            .collect();
        assert_eq!(faults.len(), 3, "one sample per fault kind: {faults:?}");

        let doc: String = evs.iter().map(|e| e.to_jsonl() + "\n").collect();
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/events.jsonl");
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &doc).unwrap();
            return;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); regenerate with UPDATE_GOLDEN=1",
                path.display()
            )
        });
        assert_eq!(
            doc, expected,
            "events.jsonl diverged; if intentional, rerun with UPDATE_GOLDEN=1"
        );
    }

    #[test]
    fn every_key_is_required() {
        for ev in samples() {
            let Json::Obj(full) = Json::parse(&ev.to_jsonl()).unwrap() else {
                panic!("{ev:?} is not an object");
            };
            for key in full.keys() {
                let mut partial = full.clone();
                partial.remove(key);
                let line = Json::Obj(partial).compact();
                assert!(
                    TraceEvent::parse_line(&line).is_err(),
                    "decoded without {key:?}: {line}"
                );
            }
        }
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(TraceEvent::parse_line("not json").is_err());
        assert!(TraceEvent::parse_line("{\"ev\":\"no_such_tag\"}").is_err());
        assert!(TraceEvent::parse_line("{\"ev\":\"sim_end\"}").is_err());
        assert!(TraceEvent::parse_line(
            "{\"ev\":\"fault\",\"time\":1,\"page\":0,\"kind\":\"melt\"}"
        )
        .is_err());
        // A transient fault without its repair interval is malformed.
        assert!(TraceEvent::parse_line(
            "{\"ev\":\"fault\",\"time\":1,\"page\":0,\"kind\":\"transient\"}"
        )
        .is_err());
        assert!(TraceEvent::parse_line("{\"ev\":\"page_repaired\",\"time\":1}").is_err());
    }
}
