//! The trace oracle: a replay checker that consumes an event stream
//! and asserts invariants the end-state diffs cannot see.
//!
//! The simulator's reports say *how long* a run took; the oracle checks
//! that the decisions along the way were legal:
//!
//! * every revoked page was owned by the revoked thread at that moment,
//! * no two threads ever hold the same page,
//! * a shrink or expand event's `from` is the thread's replayed
//!   holding and its `to` is the length of its page list,
//! * no page is handed to a thread after its death event (a
//!   `PageRepaired` event lifts the ban: repair returns the page to the
//!   grantable pool, and ownership exclusivity must hold across the
//!   repair),
//! * per-thread cycle accounting sums to the reported makespan (the
//!   last `ThreadDone` must land exactly on `SimEnd.makespan`, and
//!   every thread must check out),
//! * event times within a run never go backwards,
//! * every page and thread an event names exists: a page below
//!   `SimBegin.pages`, a thread below `SimBegin.threads`,
//! * every run that begins either completes (`SimEnd`) or aborts
//!   (`SimAbort`), and
//! * mapper/transform segments are well-formed (an accepted mapping has
//!   placements; ends match begins).
//!
//! [`check_trace`] walks the stream once and returns the first
//! violation, pinpointed by event index.

use crate::event::TraceEvent;
use cgra_arch::FaultKind;
use std::collections::{BTreeMap, BTreeSet};

/// Everything the oracle verified, for reporting and test assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OracleReport {
    /// Total events checked.
    pub events: usize,
    /// Simulation runs that completed (`SimEnd`).
    pub runs: usize,
    /// Simulation runs that terminated early (`SimAbort`).
    pub aborted_runs: usize,
    /// Mapper search segments (`MapBegin`..`MapEnd`).
    pub map_segments: usize,
    /// Completed transform segments (`TransformBegin`..`TransformEnd`).
    pub transforms: usize,
}

/// An invariant violation, pinpointed by the 0-based index of the
/// offending event in the checked stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleError {
    /// A `Revoke` named a page its thread did not hold.
    RevokeWithoutOwnership {
        /// Offending event index.
        index: usize,
        /// The revoked thread.
        thread: u32,
        /// The page it allegedly lost.
        page: u16,
    },
    /// A page was granted to a thread while another still held it.
    DoubleOwnership {
        /// Offending event index.
        index: usize,
        /// The contested page.
        page: u16,
        /// Who holds it.
        owner: u32,
        /// Who was just granted it.
        claimant: u32,
    },
    /// A shrink, expand or re-expand event whose page counts disagree
    /// with the replay: `from` is not the thread's holding before the
    /// event, or `to` is not the length of its page list.
    ResizeMismatch {
        /// Offending event index.
        index: usize,
        /// The resized thread.
        thread: u32,
        /// Pages the thread held before the event, per the replay.
        held: u16,
        /// The event's `from`.
        from: u16,
        /// The event's `to`.
        to: u16,
        /// Length of the event's page list.
        listed: u16,
    },
    /// A page appeared in a grant after its `Kill` fault.
    DeadPageAllocated {
        /// Offending event index.
        index: usize,
        /// The thread that received the dead page.
        thread: u32,
        /// The dead page.
        page: u16,
    },
    /// `SimEnd.makespan` disagrees with the last `ThreadDone` time.
    MakespanMismatch {
        /// Offending event index (the `SimEnd`).
        index: usize,
        /// Makespan the run reported.
        reported: u64,
        /// Makespan accounted from `ThreadDone` events.
        accounted: u64,
    },
    /// A run ended with fewer `ThreadDone` events than threads.
    ThreadsUnaccounted {
        /// Offending event index (the `SimEnd`).
        index: usize,
        /// Threads declared by `SimBegin`.
        expected: u32,
        /// Threads that reached `ThreadDone`.
        done: u32,
    },
    /// An event's time went backwards within a run.
    NonMonotonicTime {
        /// Offending event index.
        index: usize,
        /// Time of the preceding event.
        prev: u64,
        /// This event's (earlier) time.
        time: u64,
    },
    /// A simulation event appeared outside any `SimBegin` segment.
    EventOutsideRun {
        /// Offending event index.
        index: usize,
        /// The event's tag.
        kind: &'static str,
    },
    /// A `SimBegin` opened while the previous run was still open, or
    /// the trace ended mid-run.
    MissingSimEnd {
        /// Index of the unclosed `SimBegin`.
        index: usize,
    },
    /// An event named a page the run's fabric does not have.
    PageOutOfRange {
        /// Offending event index.
        index: usize,
        /// The named page.
        page: u16,
        /// Pages declared by `SimBegin`.
        pages: u16,
    },
    /// An event named a thread the run's workload does not have.
    ThreadOutOfRange {
        /// Offending event index.
        index: usize,
        /// The named thread.
        thread: u32,
        /// Threads declared by `SimBegin`.
        threads: u32,
    },
    /// A mapper event appeared outside any `MapBegin` segment.
    MapEventOutsideSegment {
        /// Offending event index.
        index: usize,
        /// The event's tag.
        kind: &'static str,
    },
    /// A `MapEnd` did not match the open segment's kernel.
    MapEndWithoutBegin {
        /// Offending event index.
        index: usize,
        /// Kernel the `MapEnd` named.
        kernel: String,
    },
    /// A successful `MapEnd` with no `Place` events in its segment.
    SuccessWithoutPlacements {
        /// Offending event index.
        index: usize,
        /// The kernel.
        kernel: String,
    },
    /// A `TransformEnd` with no matching open `TransformBegin`.
    TransformEndWithoutBegin {
        /// Offending event index.
        index: usize,
        /// The kernel.
        kernel: String,
        /// Target page count.
        m: u16,
    },
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::RevokeWithoutOwnership {
                index,
                thread,
                page,
            } => write!(
                f,
                "event {index}: revoked page {page} from thread {thread}, which does not hold it"
            ),
            OracleError::DoubleOwnership {
                index,
                page,
                owner,
                claimant,
            } => write!(
                f,
                "event {index}: page {page} granted to thread {claimant} while thread {owner} holds it"
            ),
            OracleError::ResizeMismatch {
                index,
                thread,
                held,
                from,
                to,
                listed,
            } => write!(
                f,
                "event {index}: thread {thread} resized {from} -> {to} while holding {held} pages, \
                 listing {listed}"
            ),
            OracleError::DeadPageAllocated {
                index,
                thread,
                page,
            } => write!(
                f,
                "event {index}: dead page {page} granted to thread {thread} after its kill fault"
            ),
            OracleError::MakespanMismatch {
                index,
                reported,
                accounted,
            } => write!(
                f,
                "event {index}: reported makespan {reported} but thread completions account for {accounted}"
            ),
            OracleError::ThreadsUnaccounted {
                index,
                expected,
                done,
            } => write!(
                f,
                "event {index}: run declared {expected} threads but only {done} reached ThreadDone"
            ),
            OracleError::NonMonotonicTime { index, prev, time } => write!(
                f,
                "event {index}: time {time} precedes earlier event at {prev}"
            ),
            OracleError::EventOutsideRun { index, kind } => {
                write!(f, "event {index}: {kind} outside any SimBegin segment")
            }
            OracleError::MissingSimEnd { index } => {
                write!(f, "run opened at event {index} never reached SimEnd/SimAbort")
            }
            OracleError::PageOutOfRange {
                index,
                page,
                pages,
            } => write!(f, "event {index}: page {page} is not one of the run's {pages} pages"),
            OracleError::ThreadOutOfRange {
                index,
                thread,
                threads,
            } => write!(
                f,
                "event {index}: thread {thread} is not one of the run's {threads} threads"
            ),
            OracleError::MapEventOutsideSegment { index, kind } => {
                write!(f, "event {index}: {kind} outside any MapBegin segment")
            }
            OracleError::MapEndWithoutBegin { index, kernel } => {
                write!(f, "event {index}: MapEnd for {kernel:?} without a MapBegin")
            }
            OracleError::SuccessWithoutPlacements { index, kernel } => write!(
                f,
                "event {index}: MapEnd for {kernel:?} claims success but placed nothing"
            ),
            OracleError::TransformEndWithoutBegin { index, kernel, m } => write!(
                f,
                "event {index}: TransformEnd for {kernel:?} at m={m} without a TransformBegin"
            ),
        }
    }
}

impl std::error::Error for OracleError {}

/// Per-run replay state.
struct RunState {
    begin_index: usize,
    threads: u32,
    pages: u16,
    owner: BTreeMap<u16, u32>,
    held: BTreeMap<u32, Vec<u16>>,
    dead: BTreeSet<u16>,
    last_time: u64,
    last_done: u64,
    done_count: u32,
}

impl RunState {
    fn new(begin_index: usize, threads: u32, pages: u16) -> Self {
        RunState {
            begin_index,
            threads,
            pages,
            owner: BTreeMap::new(),
            held: BTreeMap::new(),
            dead: BTreeSet::new(),
            last_time: 0,
            last_done: 0,
            done_count: 0,
        }
    }

    /// Check one simulation event: its time does not go back, and the
    /// thread (if any) and every page it names exist.
    fn step(
        &mut self,
        index: usize,
        time: u64,
        thread: Option<u32>,
        pages: &[u16],
    ) -> Result<(), OracleError> {
        if time < self.last_time {
            return Err(OracleError::NonMonotonicTime {
                index,
                prev: self.last_time,
                time,
            });
        }
        self.last_time = time;
        if let Some(thread) = thread.filter(|&t| t >= self.threads) {
            return Err(OracleError::ThreadOutOfRange {
                index,
                thread,
                threads: self.threads,
            });
        }
        match pages.iter().find(|&&p| p >= self.pages) {
            Some(&page) => Err(OracleError::PageOutOfRange {
                index,
                page,
                pages: self.pages,
            }),
            None => Ok(()),
        }
    }

    fn release(&mut self, thread: u32) {
        for page in self.held.remove(&thread).unwrap_or_default() {
            self.owner.remove(&page);
        }
    }

    /// Replace `thread`'s holding with `pages`, checking liveness and
    /// exclusivity of every granted page.
    fn claim(&mut self, index: usize, thread: u32, pages: &[u16]) -> Result<(), OracleError> {
        self.release(thread);
        for &page in pages {
            if self.dead.contains(&page) {
                return Err(OracleError::DeadPageAllocated {
                    index,
                    thread,
                    page,
                });
            }
            if let Some(&owner) = self.owner.get(&page) {
                return Err(OracleError::DoubleOwnership {
                    index,
                    page,
                    owner,
                    claimant: thread,
                });
            }
            self.owner.insert(page, thread);
        }
        self.held.insert(thread, pages.to_vec());
        Ok(())
    }
}

/// Replay a trace and verify every invariant; returns the first
/// violation, or a summary of everything checked.
pub fn check_trace(events: &[TraceEvent]) -> Result<OracleReport, OracleError> {
    let mut report = OracleReport {
        events: events.len(),
        ..OracleReport::default()
    };
    let mut run: Option<RunState> = None;
    // Open mapper segment: (kernel, placements seen so far).
    let mut map_open: Option<(String, u32)> = None;
    // Open transform begins, keyed by (kernel, m).
    let mut transforms_open: BTreeMap<(String, u16), u32> = BTreeMap::new();

    for (index, ev) in events.iter().enumerate() {
        match ev {
            // ---- mapper segments --------------------------------------
            TraceEvent::MapBegin { kernel, .. } => {
                // Segments never nest; an unfinished one (mapper error
                // path) is simply superseded.
                map_open = Some((kernel.clone(), 0));
            }
            TraceEvent::Backtrack { .. } | TraceEvent::Evict { .. } | TraceEvent::Route { .. } => {
                if map_open.is_none() {
                    return Err(OracleError::MapEventOutsideSegment {
                        index,
                        kind: ev.kind(),
                    });
                }
            }
            TraceEvent::Place { .. } => match map_open.as_mut() {
                Some((_, places)) => *places += 1,
                None => {
                    return Err(OracleError::MapEventOutsideSegment {
                        index,
                        kind: ev.kind(),
                    })
                }
            },
            TraceEvent::MapEnd {
                kernel, success, ..
            } => match map_open.take() {
                Some((open_kernel, places)) if open_kernel == *kernel => {
                    if *success && places == 0 {
                        return Err(OracleError::SuccessWithoutPlacements {
                            index,
                            kernel: kernel.clone(),
                        });
                    }
                    report.map_segments += 1;
                }
                _ => {
                    return Err(OracleError::MapEndWithoutBegin {
                        index,
                        kernel: kernel.clone(),
                    })
                }
            },

            // ---- transform segments -----------------------------------
            TraceEvent::TransformBegin { kernel, m, .. } => {
                *transforms_open.entry((kernel.clone(), *m)).or_insert(0) += 1;
            }
            TraceEvent::TransformEnd { kernel, m, .. } => {
                match transforms_open.get_mut(&(kernel.clone(), *m)) {
                    Some(n) if *n > 0 => {
                        *n -= 1;
                        report.transforms += 1;
                    }
                    _ => {
                        return Err(OracleError::TransformEndWithoutBegin {
                            index,
                            kernel: kernel.clone(),
                            m: *m,
                        })
                    }
                }
            }

            // ---- simulation runs --------------------------------------
            TraceEvent::SimBegin { threads, pages } => {
                if let Some(open) = &run {
                    return Err(OracleError::MissingSimEnd {
                        index: open.begin_index,
                    });
                }
                run = Some(RunState::new(index, *threads, *pages));
            }
            TraceEvent::ThreadQueue { time, thread, .. } => {
                let state = open_run(&mut run, index, ev)?;
                state.step(index, *time, Some(*thread), &[])?;
            }
            TraceEvent::ThreadStart {
                time,
                thread,
                pages,
                ..
            } => {
                let state = open_run(&mut run, index, ev)?;
                state.step(index, *time, Some(*thread), pages)?;
                state.claim(index, *thread, pages)?;
            }
            TraceEvent::ThreadShrink {
                time,
                thread,
                from,
                to,
                pages,
            }
            | TraceEvent::ThreadExpand {
                time,
                thread,
                from,
                to,
                pages,
            }
            | TraceEvent::Reexpanded {
                time,
                thread,
                from,
                to,
                pages,
            } => {
                let state = open_run(&mut run, index, ev)?;
                state.step(index, *time, Some(*thread), pages)?;
                let held = state.held.get(thread).map_or(0, Vec::len) as u16;
                let listed = pages.len() as u16;
                if held != *from || listed != *to {
                    return Err(OracleError::ResizeMismatch {
                        index,
                        thread: *thread,
                        held,
                        from: *from,
                        to: *to,
                        listed,
                    });
                }
                state.claim(index, *thread, pages)?;
            }
            TraceEvent::ThreadFinish { time, thread, .. } => {
                let state = open_run(&mut run, index, ev)?;
                state.step(index, *time, Some(*thread), &[])?;
                state.release(*thread);
            }
            TraceEvent::ThreadDone { time, thread } => {
                let state = open_run(&mut run, index, ev)?;
                state.step(index, *time, Some(*thread), &[])?;
                state.done_count += 1;
                state.last_done = state.last_done.max(*time);
            }
            TraceEvent::Fault { time, page, kind } => {
                let state = open_run(&mut run, index, ev)?;
                state.step(index, *time, None, &[*page])?;
                // Transient faults kill the page too; only a later
                // PageRepaired makes it grantable again.
                if matches!(kind, FaultKind::Kill | FaultKind::Transient { .. }) {
                    state.dead.insert(*page);
                }
            }
            TraceEvent::PageRepaired { time, page } => {
                let state = open_run(&mut run, index, ev)?;
                state.step(index, *time, None, &[*page])?;
                state.dead.remove(page);
            }
            TraceEvent::Revoke { time, thread, page } => {
                let state = open_run(&mut run, index, ev)?;
                state.step(index, *time, Some(*thread), &[*page])?;
                let holds = state
                    .held
                    .get(thread)
                    .is_some_and(|pages| pages.contains(page));
                if !holds {
                    return Err(OracleError::RevokeWithoutOwnership {
                        index,
                        thread: *thread,
                        page: *page,
                    });
                }
                // The victim loses the dead page (and with it, in the
                // current allocator, its whole holding: a revoke only
                // hits single-page owners — but the oracle stays
                // general and removes just the named page).
                if let Some(pages) = state.held.get_mut(thread) {
                    pages.retain(|p| p != page);
                }
                state.owner.remove(page);
            }
            TraceEvent::SimAbort { .. } => {
                // An aborted run vouches for nothing beyond what was
                // already replayed; completeness checks are skipped.
                if run.take().is_none() {
                    return Err(OracleError::EventOutsideRun {
                        index,
                        kind: ev.kind(),
                    });
                }
                report.aborted_runs += 1;
            }
            TraceEvent::SimEnd { makespan, .. } => {
                let state = run.take().ok_or(OracleError::EventOutsideRun {
                    index,
                    kind: ev.kind(),
                })?;
                if state.done_count != state.threads {
                    return Err(OracleError::ThreadsUnaccounted {
                        index,
                        expected: state.threads,
                        done: state.done_count,
                    });
                }
                if state.last_done != *makespan {
                    return Err(OracleError::MakespanMismatch {
                        index,
                        reported: *makespan,
                        accounted: state.last_done,
                    });
                }
                report.runs += 1;
            }
        }
    }

    if let Some(open) = &run {
        return Err(OracleError::MissingSimEnd {
            index: open.begin_index,
        });
    }
    Ok(report)
}

fn open_run<'a>(
    run: &'a mut Option<RunState>,
    index: usize,
    ev: &TraceEvent,
) -> Result<&'a mut RunState, OracleError> {
    run.as_mut().ok_or(OracleError::EventOutsideRun {
        index,
        kind: ev.kind(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A legal two-thread run: a kill shrinks thread 1, thread 1 later
    /// expands onto the freed (live) pages.
    fn valid_run() -> Vec<TraceEvent> {
        vec![
            TraceEvent::SimBegin {
                threads: 2,
                pages: 4,
            },
            TraceEvent::ThreadStart {
                time: 0,
                thread: 0,
                kernel: 0,
                pages: vec![0, 1],
            },
            TraceEvent::ThreadStart {
                time: 0,
                thread: 1,
                kernel: 1,
                pages: vec![2, 3],
            },
            TraceEvent::Fault {
                time: 50,
                page: 3,
                kind: FaultKind::Kill,
            },
            TraceEvent::ThreadShrink {
                time: 50,
                thread: 1,
                from: 2,
                to: 1,
                pages: vec![2],
            },
            TraceEvent::ThreadFinish {
                time: 100,
                thread: 0,
                freed: 2,
            },
            TraceEvent::ThreadDone {
                time: 100,
                thread: 0,
            },
            TraceEvent::ThreadExpand {
                time: 100,
                thread: 1,
                from: 1,
                to: 3,
                pages: vec![0, 1, 2],
            },
            TraceEvent::ThreadFinish {
                time: 200,
                thread: 1,
                freed: 3,
            },
            TraceEvent::ThreadDone {
                time: 200,
                thread: 1,
            },
            TraceEvent::SimEnd {
                makespan: 200,
                iterations: 30,
            },
        ]
    }

    #[test]
    fn clean_run_passes() {
        let report = check_trace(&valid_run()).expect("trace is legal");
        assert_eq!(report.runs, 1);
        assert_eq!(report.events, 11);
    }

    #[test]
    fn revoke_without_ownership_fires() {
        let mut trace = valid_run();
        // Thread 0 holds pages {0,1}; revoking page 3 from it is illegal.
        trace.insert(
            5,
            TraceEvent::Revoke {
                time: 60,
                thread: 0,
                page: 3,
            },
        );
        assert_eq!(
            check_trace(&trace),
            Err(OracleError::RevokeWithoutOwnership {
                index: 5,
                thread: 0,
                page: 3
            })
        );
    }

    #[test]
    fn legal_revoke_passes_and_frees_the_page() {
        let trace = vec![
            TraceEvent::SimBegin {
                threads: 1,
                pages: 2,
            },
            TraceEvent::ThreadStart {
                time: 0,
                thread: 0,
                kernel: 0,
                pages: vec![1],
            },
            TraceEvent::Fault {
                time: 10,
                page: 1,
                kind: FaultKind::Kill,
            },
            TraceEvent::Revoke {
                time: 10,
                thread: 0,
                page: 1,
            },
            TraceEvent::ThreadStart {
                time: 10,
                thread: 0,
                kernel: 0,
                pages: vec![0],
            },
            TraceEvent::ThreadFinish {
                time: 90,
                thread: 0,
                freed: 1,
            },
            TraceEvent::ThreadDone {
                time: 90,
                thread: 0,
            },
            TraceEvent::SimEnd {
                makespan: 90,
                iterations: 10,
            },
        ];
        assert!(check_trace(&trace).is_ok());
    }

    #[test]
    fn unknown_pages_and_threads_fire_at_their_event() {
        let page = |page| OracleError::PageOutOfRange {
            index: 1,
            page,
            pages: 4,
        };
        let thread = |thread| OracleError::ThreadOutOfRange {
            index: 1,
            thread,
            threads: 1,
        };
        // One event of a run on 4 pages with 1 thread, naming a page or a
        // thread the run does not have.
        let cases = [
            (
                r#""thread_start","kernel":0,"pages":[9],"thread":5"#,
                thread(5),
            ),
            (
                r#""thread_start","kernel":0,"pages":[0,4],"thread":0"#,
                page(4),
            ),
            (r#""thread_queue","kernel":0,"thread":1"#, thread(1)),
            (
                r#""thread_shrink","from":0,"pages":[7],"thread":0,"to":1"#,
                page(7),
            ),
            (
                r#""thread_expand","from":0,"pages":[8],"thread":0,"to":1"#,
                page(8),
            ),
            (
                r#""reexpanded","from":0,"pages":[5],"thread":0,"to":1"#,
                page(5),
            ),
            (r#""thread_finish","freed":0,"thread":2"#, thread(2)),
            (r#""thread_done","thread":3"#, thread(3)),
            (r#""fault","kind":"kill","page":4"#, page(4)),
            (r#""page_repaired","page":5"#, page(5)),
            (r#""revoke","page":6,"thread":0"#, page(6)),
        ];
        for (event, want) in cases {
            let trace = TraceEvent::parse_jsonl(&format!(
                "{{\"ev\":\"sim_begin\",\"pages\":4,\"threads\":1}}\n\
                 {{\"ev\":{event},\"time\":0}}\n\
                 {{\"ev\":\"sim_end\",\"iterations\":0,\"makespan\":0}}"
            ))
            .unwrap();
            assert_eq!(check_trace(&trace), Err(want), "{event}");
        }
    }

    #[test]
    fn makespan_under_count_fires() {
        let mut trace = valid_run();
        let last = trace.len() - 1;
        trace[last] = TraceEvent::SimEnd {
            makespan: 150,
            iterations: 30,
        };
        assert_eq!(
            check_trace(&trace),
            Err(OracleError::MakespanMismatch {
                index: last,
                reported: 150,
                accounted: 200
            })
        );
    }

    #[test]
    fn dead_page_allocation_fires() {
        let mut trace = valid_run();
        // Corrupt the expansion to include page 3, which died at t=50.
        trace[7] = TraceEvent::ThreadExpand {
            time: 100,
            thread: 1,
            from: 1,
            to: 3,
            pages: vec![0, 2, 3],
        };
        assert_eq!(
            check_trace(&trace),
            Err(OracleError::DeadPageAllocated {
                index: 7,
                thread: 1,
                page: 3
            })
        );
    }

    /// A legal transient-fault run: the strike kills page 3 and shrinks
    /// thread 1; `PageRepaired` returns the page and the supervised
    /// re-expansion puts thread 1 back on its original two pages.
    fn transient_run() -> Vec<TraceEvent> {
        vec![
            TraceEvent::SimBegin {
                threads: 2,
                pages: 4,
            },
            TraceEvent::ThreadStart {
                time: 0,
                thread: 0,
                kernel: 0,
                pages: vec![0, 1],
            },
            TraceEvent::ThreadStart {
                time: 0,
                thread: 1,
                kernel: 1,
                pages: vec![2, 3],
            },
            TraceEvent::Fault {
                time: 50,
                page: 3,
                kind: FaultKind::Transient { repair_after: 80 },
            },
            TraceEvent::ThreadShrink {
                time: 50,
                thread: 1,
                from: 2,
                to: 1,
                pages: vec![2],
            },
            TraceEvent::PageRepaired { time: 160, page: 3 },
            TraceEvent::Reexpanded {
                time: 160,
                thread: 1,
                from: 1,
                to: 2,
                pages: vec![2, 3],
            },
            TraceEvent::ThreadFinish {
                time: 200,
                thread: 0,
                freed: 2,
            },
            TraceEvent::ThreadDone {
                time: 200,
                thread: 0,
            },
            TraceEvent::ThreadFinish {
                time: 250,
                thread: 1,
                freed: 2,
            },
            TraceEvent::ThreadDone {
                time: 250,
                thread: 1,
            },
            TraceEvent::SimEnd {
                makespan: 250,
                iterations: 30,
            },
        ]
    }

    #[test]
    fn transient_repair_reexpand_round_trip_passes() {
        let report = check_trace(&transient_run()).expect("repair round trip is legal");
        assert_eq!(report.runs, 1);
        assert_eq!(report.events, 12);
    }

    #[test]
    fn reuse_of_transiently_dead_page_before_repair_fires() {
        let mut trace = transient_run();
        // Re-expand onto page 3 while it is still dead (the PageRepaired
        // at index 5 has not happened yet).
        trace.swap(5, 6);
        assert_eq!(
            check_trace(&trace),
            Err(OracleError::DeadPageAllocated {
                index: 5,
                thread: 1,
                page: 3
            })
        );
    }

    #[test]
    fn reexpansion_must_respect_ownership_exclusivity() {
        let mut trace = transient_run();
        // Corrupt the re-expansion to steal page 0 from thread 0.
        trace[6] = TraceEvent::Reexpanded {
            time: 160,
            thread: 1,
            from: 1,
            to: 2,
            pages: vec![2, 0],
        };
        assert_eq!(
            check_trace(&trace),
            Err(OracleError::DoubleOwnership {
                index: 6,
                page: 0,
                owner: 0,
                claimant: 1
            })
        );
    }

    #[test]
    fn resize_with_disagreeing_counts_fires() {
        // An expansion whose `to` disagrees with its page list.
        let mut trace = valid_run();
        trace[7] = TraceEvent::ThreadExpand {
            time: 100,
            thread: 1,
            from: 1,
            to: 2,
            pages: vec![0, 1, 2],
        };
        assert_eq!(
            check_trace(&trace),
            Err(OracleError::ResizeMismatch {
                index: 7,
                thread: 1,
                held: 1,
                from: 1,
                to: 2,
                listed: 3
            })
        );
        // A shrink whose `from` is not what the thread held.
        let mut trace = valid_run();
        trace[4] = TraceEvent::ThreadShrink {
            time: 50,
            thread: 1,
            from: 4,
            to: 1,
            pages: vec![2],
        };
        let err = check_trace(&trace).unwrap_err();
        assert_eq!(
            err,
            OracleError::ResizeMismatch {
                index: 4,
                thread: 1,
                held: 2,
                from: 4,
                to: 1,
                listed: 1
            }
        );
        assert_eq!(
            err.to_string(),
            "event 4: thread 1 resized 4 -> 1 while holding 2 pages, listing 1"
        );
    }

    #[test]
    fn double_ownership_fires() {
        let mut trace = valid_run();
        // Thread 1's start grabs page 1 while thread 0 still holds it.
        trace[2] = TraceEvent::ThreadStart {
            time: 0,
            thread: 1,
            kernel: 1,
            pages: vec![1, 2],
        };
        assert_eq!(
            check_trace(&trace),
            Err(OracleError::DoubleOwnership {
                index: 2,
                page: 1,
                owner: 0,
                claimant: 1
            })
        );
    }

    #[test]
    fn missing_thread_done_fires() {
        let mut trace = valid_run();
        trace.remove(9); // thread 1's ThreadDone
        assert_eq!(
            check_trace(&trace),
            Err(OracleError::ThreadsUnaccounted {
                index: 9,
                expected: 2,
                done: 1
            })
        );
    }

    #[test]
    fn time_going_backwards_fires() {
        let mut trace = valid_run();
        trace[5] = TraceEvent::ThreadFinish {
            time: 40, // before the fault at t=50
            thread: 0,
            freed: 2,
        };
        assert_eq!(
            check_trace(&trace),
            Err(OracleError::NonMonotonicTime {
                index: 5,
                prev: 50,
                time: 40
            })
        );
    }

    #[test]
    fn truncated_run_fires() {
        let mut trace = valid_run();
        trace.pop();
        assert_eq!(
            check_trace(&trace),
            Err(OracleError::MissingSimEnd { index: 0 })
        );
    }

    #[test]
    fn aborted_run_skips_completeness() {
        let trace = vec![
            TraceEvent::SimBegin {
                threads: 2,
                pages: 4,
            },
            TraceEvent::ThreadStart {
                time: 0,
                thread: 0,
                kernel: 0,
                pages: vec![0, 1],
            },
            TraceEvent::SimAbort {
                reason: "all pages dead: starved".into(),
            },
        ];
        let report = check_trace(&trace).expect("abort closes the run");
        assert_eq!(report.aborted_runs, 1);
        assert_eq!(report.runs, 0);
    }

    #[test]
    fn sim_event_outside_run_fires() {
        let trace = vec![TraceEvent::ThreadDone { time: 5, thread: 0 }];
        assert_eq!(
            check_trace(&trace),
            Err(OracleError::EventOutsideRun {
                index: 0,
                kind: "thread_done"
            })
        );
    }

    #[test]
    fn map_segment_checks_fire() {
        assert_eq!(
            check_trace(&[TraceEvent::MapEnd {
                kernel: "fir".into(),
                ii: 4,
                success: true
            }]),
            Err(OracleError::MapEndWithoutBegin {
                index: 0,
                kernel: "fir".into()
            })
        );
        assert_eq!(
            check_trace(&[
                TraceEvent::MapBegin {
                    kernel: "fir".into(),
                    ops: 3,
                    mode: "Baseline".into()
                },
                TraceEvent::MapEnd {
                    kernel: "fir".into(),
                    ii: 4,
                    success: true
                }
            ]),
            Err(OracleError::SuccessWithoutPlacements {
                index: 1,
                kernel: "fir".into()
            })
        );
        // A failed search may legally place nothing.
        let failed = check_trace(&[
            TraceEvent::MapBegin {
                kernel: "fir".into(),
                ops: 3,
                mode: "Baseline".into(),
            },
            TraceEvent::Backtrack {
                ii: 2,
                restart: 0,
                op: 1,
            },
            TraceEvent::MapEnd {
                kernel: "fir".into(),
                ii: 4,
                success: false,
            },
        ]);
        assert_eq!(failed.map(|r| r.map_segments), Ok(1));
    }

    #[test]
    fn transform_end_requires_begin() {
        assert_eq!(
            check_trace(&[TraceEvent::TransformEnd {
                kernel: "fir".into(),
                m: 2,
                period: 2,
                span: 8,
                ii_q_ceil: 8
            }]),
            Err(OracleError::TransformEndWithoutBegin {
                index: 0,
                kernel: "fir".into(),
                m: 2
            })
        );
    }

    #[test]
    fn errors_render_precisely() {
        let err = OracleError::RevokeWithoutOwnership {
            index: 5,
            thread: 0,
            page: 3,
        };
        assert_eq!(
            err.to_string(),
            "event 5: revoked page 3 from thread 0, which does not hold it"
        );
        let err = OracleError::MakespanMismatch {
            index: 10,
            reported: 150,
            accounted: 200,
        };
        assert_eq!(
            err.to_string(),
            "event 10: reported makespan 150 but thread completions account for 200"
        );
    }
}
