//! The multithreaded CGRA system (§VII-B case (ii)).
//!
//! Threads request CGRA pages when they reach a kernel segment. The
//! allocator serves them from unused pages when possible, otherwise
//! shrinks the biggest tenant (PageMaster transform, modelled by the
//! pre-computed `II_q(M)` table); when a tenant leaves, survivors are
//! expanded back. Schedule switches take effect at the next iteration
//! boundary of the old schedule (§VII-B.1: "switched at an integer value
//! of II_p × N/M"), plus a configurable transformation overhead (the
//! paper argues it is negligible against the kernel-memory transfer; the
//! `fig9 --ablation-overhead` sweep tests that claim).
//!
//! The [`Allocator`] owns all page state, each fact once: each page's
//! health and owner. Budgets, free pages and the busy-page count that
//! `page_cycles` integrates are popcounts of them. The event loop keeps
//! no copy. It changes page state only through allocator calls and
//! derives every rate from the allocator's answers.
//!
//! ## Fault injection
//!
//! [`simulate_multithreaded_faulty`] additionally threads a schedule of
//! [`FaultEvent`]s through the discrete-event loop. A page *death* is
//! handled exactly like a contention shrink — the owning thread is
//! remapped onto its surviving pages at the next iteration boundary (or
//! re-queued when it was already at one page) — and a page *degrade*
//! halves the speed of whoever holds the page. Every fault is
//! applied **before** the next thread event at a later time, because
//! applying one can cancel and move a thread's pending event; the loop
//! peeks instead of popping for exactly this reason. Fault-free runs
//! take the same code path and are bit-identical to the pre-fault
//! simulator. The allocator's invariant is checked after every event:
//! thread, fault and repair alike.
//!
//! ## Repair and re-expansion
//!
//! A [`FaultKind::Transient`] fault kills its page like a permanent
//! kill, then schedules repair: `repair_after` cycles later the page
//! enters `Repairing`, and after a further quarantine window
//! ([`MtConfig::quarantine`] — hysteresis so a flapping page cannot
//! thrash shrink/expand) it returns to the allocator's free pool as a
//! `PageRepaired` discrete event. Recovered capacity first re-admits
//! queued threads, then a supervision policy re-expands the *most
//! shrunk* live thread through the ordinary PageMaster expansion path
//! (`Reexpanded` trace events). Any new fault on a page invalidates its
//! in-flight repair — a permanent kill during repair sticks.

use crate::alloc::{Allocator, ExpandPolicy, Growth, PageDeath, RequestOutcome};
use crate::error::SimError;
use crate::event::EventQueue;
use crate::kernel_lib::{KernelLibrary, KernelProfile};
use crate::stats::{FaultStats, SimReport};
use crate::workload::{Segment, ThreadSpec};
use cgra_arch::{FaultEvent, FaultKind};
use cgra_obs::{TraceEvent, Tracer};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// II multiplier for a thread holding a *degraded* (but usable) page.
const DEGRADE_FACTOR: u64 = 2;

/// Multithreaded-system knobs.
#[derive(Debug, Clone, Copy)]
pub struct MtConfig {
    /// Extra cycles a schedule switch costs (0 = the paper's assumption).
    pub switch_overhead: u64,
    /// Redistribution policy when pages free up.
    pub expand: ExpandPolicy,
    /// Cycles a repaired page must stay fault-free *after* its repair
    /// interval elapses before it is re-offered to threads (hysteresis
    /// against flapping pages). Inert without transient faults.
    pub quarantine: u64,
}

impl Default for MtConfig {
    fn default() -> Self {
        MtConfig {
            switch_overhead: 0,
            expand: ExpandPolicy::SmallestFirst,
            quarantine: 64,
        }
    }
}

/// The two stages of a scheduled page repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum RepairPhase {
    /// Dead → Repairing, `repair_after` cycles after the strike.
    Begin,
    /// Repairing → Healthy + back to the free pool, after the
    /// quarantine window.
    Commit,
}

/// One scheduled repair action. Ordered by `(time, page, phase,
/// version)` so the pending-repair heap pops deterministically; the
/// version snapshot invalidates the action if the page is struck again
/// after it was scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct RepairAction {
    time: u64,
    page: u16,
    phase: RepairPhase,
    version: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Waiting to start the next segment (event pending).
    Advancing,
    /// Executing a kernel: iterations remaining as of `since`, at
    /// `rate` cycles per iteration.
    OnCgra {
        kernel: usize,
        remaining: u64,
        rate: u64,
        since: u64,
    },
    /// Stalled in the CGRA queue; `revoked` when a fault took the
    /// thread's last page (its wait counts toward recovery latency, not
    /// just stall time).
    Waiting {
        kernel: usize,
        iterations: u64,
        enqueued: u64,
        revoked: bool,
    },
    Done,
}

/// The next fabric event of the run loop.
enum FabricEvent {
    Repair(RepairAction),
    Fault(FaultEvent),
}

struct Sim<'a> {
    lib: &'a KernelLibrary,
    /// Each kernel's wanted pages by kernel id, computed once per run.
    wants: Vec<u16>,
    threads: &'a [ThreadSpec],
    cfg: MtConfig,
    tracer: &'a Tracer,
    q: EventQueue,
    seg_idx: Vec<usize>,
    mode: Vec<Mode>,
    finish: Vec<u64>,
    alloc: Allocator,
    queue: VecDeque<usize>,
    // Fault injection.
    fault_events: Vec<FaultEvent>,
    fault_idx: usize,
    fstats: FaultStats,
    /// Pending repair actions for transient faults, popped in
    /// `(time, page, phase)` order.
    repairs: BinaryHeap<Reverse<RepairAction>>,
    /// Per-page strike counter; a repair action scheduled under an
    /// older version is stale and dropped (the page was re-struck).
    repair_version: Vec<u64>,
    // Stats.
    cgra_iterations: u64,
    page_cycles: u64,
    last_integral: u64,
    shrinks: u64,
    expands: u64,
    stall_cycles: u64,
}

impl<'a> Sim<'a> {
    /// Bill the busy pages for the time since the last event. `run`
    /// calls this once per event, before the event changes anything.
    fn integrate(&mut self, now: u64) {
        self.page_cycles += u64::from(self.alloc.busy_pages()) * (now - self.last_integral);
        self.last_integral = now;
    }

    /// Cycles per iteration for `thread` running `kernel` on the pages
    /// it holds, including the degraded-page slowdown. Typed error
    /// instead of a panic when the budget is off the profile's chain.
    fn effective_rate(&self, thread: usize, kernel: usize) -> Result<u64, SimError> {
        let pages = self
            .alloc
            .allocation(thread)
            .ok_or(SimError::UnknownThread { thread })?;
        let profile = self.lib.profile(kernel);
        let base = profile
            .try_ii_at(pages)
            .ok_or_else(|| SimError::ProfileMissing {
                kernel: profile.name.clone(),
                m: pages,
            })? as u64;
        Ok(if self.alloc.holds_degraded(thread) {
            base * DEGRADE_FACTOR
        } else {
            base
        })
    }

    /// Re-derive a running thread's rate from the page table and switch
    /// to it at the next iteration boundary of its old schedule (plus
    /// the switch overhead). Returns the time the new schedule takes
    /// over, or `None` when the rate did not change.
    fn rerate(&mut self, thread: usize, now: u64) -> Result<Option<u64>, SimError> {
        let Mode::OnCgra {
            kernel,
            remaining,
            rate,
            since,
        } = self.mode[thread]
        else {
            return Err(SimError::VictimNotRunning { thread });
        };
        let new_rate = self.effective_rate(thread, kernel)?;
        if new_rate == rate {
            return Ok(None);
        }
        // `since` can lie in the future while a previous switch's overhead
        // drains; no progress has been made in that case.
        let started = now.saturating_sub(since).div_ceil(rate);
        let boundary = since + started * rate;
        let done = started.min(remaining);
        self.cgra_iterations += done;
        let remaining = remaining - done;
        // A finished kernel pays no switch overhead.
        let since = if remaining == 0 {
            boundary
        } else {
            boundary + self.cfg.switch_overhead
        };
        self.mode[thread] = Mode::OnCgra {
            kernel,
            remaining,
            rate: new_rate,
            since,
        };
        self.q.cancel(thread);
        self.q.push(since + remaining * new_rate, thread);
        Ok(Some(since))
    }

    /// Handle a CGRA page request: start the kernel on the granted
    /// pages, shrinking a victim first if need be, or queue.
    fn request_cgra(
        &mut self,
        thread: usize,
        kernel: usize,
        iterations: u64,
        now: u64,
    ) -> Result<(), SimError> {
        match self.alloc.request(thread, self.wants[kernel])? {
            RequestOutcome::Granted { .. } => {}
            RequestOutcome::Shrunk {
                victim,
                victim_was,
                victim_pages,
                ..
            } => {
                self.shrinks += 1;
                self.rerate(victim, now)?;
                let tr = self.tracer;
                tr.emit(|| TraceEvent::ThreadShrink {
                    time: now,
                    thread: victim as u32,
                    from: victim_was,
                    to: victim_pages,
                    pages: self.alloc.pages_of(victim),
                });
            }
            RequestOutcome::Queued => {
                self.mode[thread] = Mode::Waiting {
                    kernel,
                    iterations,
                    enqueued: now,
                    revoked: false,
                };
                self.queue.push_back(thread);
                self.tracer.emit(|| TraceEvent::ThreadQueue {
                    time: now,
                    thread: thread as u32,
                    kernel: kernel as u32,
                });
                return Ok(());
            }
        }
        let rate = self.effective_rate(thread, kernel)?;
        let since = now + self.cfg.switch_overhead;
        self.mode[thread] = Mode::OnCgra {
            kernel,
            remaining: iterations,
            rate,
            since,
        };
        self.q.push(since + iterations * rate, thread);
        let tr = self.tracer;
        tr.emit(|| TraceEvent::ThreadStart {
            time: now,
            thread: thread as u32,
            kernel: kernel as u32,
            pages: self.alloc.pages_of(thread),
        });
        Ok(())
    }

    /// Serve stalled threads from freed pages, front of the queue
    /// first. A fault-revoked thread's wait counts toward recovery
    /// latency as well as stall time.
    fn drain_queue(&mut self, now: u64) -> Result<(), SimError> {
        while let Some(&head) = self.queue.front() {
            let Mode::Waiting {
                kernel,
                iterations,
                enqueued,
                revoked,
            } = self.mode[head]
            else {
                self.queue.pop_front();
                continue;
            };
            if self.alloc.free_pages() == 0 {
                break;
            }
            self.queue.pop_front();
            self.stall_cycles += now - enqueued;
            if revoked {
                self.fstats.recovery_cycles += now - enqueued;
            }
            // Re-request: guaranteed to be served from free pages.
            self.request_cgra(head, kernel, iterations, now)?;
        }
        Ok(())
    }

    /// Serve stalled threads from freed pages, then grow the survivors.
    /// Runs after every kernel completion and page death, and with
    /// `repaired` after every page repair. Then the recovered capacity
    /// goes to the *most shrunk* live thread (supervision policy),
    /// counted as a re-expansion and emitted as `Reexpanded` rather than
    /// `ThreadExpand`, so the trace tells recovery from routine growth.
    fn redistribute(&mut self, now: u64, repaired: bool) -> Result<(), SimError> {
        self.drain_queue(now)?;

        let order = if repaired {
            Growth::MostShrunk
        } else {
            Growth::Policy(self.cfg.expand)
        };
        // One chain step at a time, so each event carries the holding
        // right after its own step.
        while let Some(ex) = {
            // A running or queued thread wants its kernel's budget.
            let want = |t: usize| match self.mode[t] {
                Mode::OnCgra { kernel, .. } | Mode::Waiting { kernel, .. } => self.wants[kernel],
                _ => 1,
            };
            self.alloc.grow(order, want)?
        } {
            self.expands += 1;
            if repaired {
                self.fstats.reexpansions += 1;
            }
            self.rerate(ex.thread, now)?;
            let tr = self.tracer;
            tr.emit(|| {
                let (time, thread, from, to) = (now, ex.thread as u32, ex.from_pages, ex.to_pages);
                let pages = self.alloc.pages_of(ex.thread);
                if repaired {
                    TraceEvent::Reexpanded {
                        time,
                        thread,
                        from,
                        to,
                        pages,
                    }
                } else {
                    TraceEvent::ThreadExpand {
                        time,
                        thread,
                        from,
                        to,
                        pages,
                    }
                }
            });
        }
        Ok(())
    }

    /// A thread finished its kernel segment: release pages, serve the
    /// queue, expand survivors.
    fn finish_kernel(&mut self, thread: usize, now: u64) -> Result<(), SimError> {
        let Mode::OnCgra { remaining, .. } = self.mode[thread] else {
            return Err(SimError::VictimNotRunning { thread });
        };
        self.cgra_iterations += remaining;
        let freed = self.alloc.release(thread)?;
        self.tracer.emit(|| TraceEvent::ThreadFinish {
            time: now,
            thread: thread as u32,
            freed,
        });
        self.advance(thread, now)?;
        self.redistribute(now, false)
    }

    /// Move a thread to its next segment at `now`.
    fn advance(&mut self, thread: usize, now: u64) -> Result<(), SimError> {
        let idx = self.seg_idx[thread];
        if idx >= self.threads[thread].segments.len() {
            self.mode[thread] = Mode::Done;
            self.finish[thread] = now;
            self.tracer.emit(|| TraceEvent::ThreadDone {
                time: now,
                thread: thread as u32,
            });
            return Ok(());
        }
        self.seg_idx[thread] += 1;
        match self.threads[thread].segments[idx] {
            Segment::Cpu(cycles) => {
                self.mode[thread] = Mode::Advancing;
                self.q.push(now + cycles, thread);
                Ok(())
            }
            Segment::Cgra { kernel, iterations } => {
                self.request_cgra(thread, kernel, iterations, now)
            }
        }
    }

    /// Apply one fault event at its scheduled time.
    fn apply_fault(&mut self, ev: FaultEvent) -> Result<(), SimError> {
        let now = ev.time;
        self.alloc.check_page(ev.page)?;
        self.fstats.injected += 1;
        self.tracer.emit(|| TraceEvent::Fault {
            time: now,
            page: ev.page,
            kind: ev.kind,
        });
        match ev.kind {
            FaultKind::Degrade => {
                if !self.alloc.degrade(ev.page)? {
                    return Ok(()); // dead, repairing or already degraded
                }
                self.fstats.pages_degraded += 1;
                if let Some(owner) = self.alloc.owner_of(ev.page) {
                    let at = self.rerate(owner, now)?;
                    self.fstats.recovery_cycles += at.map_or(0, |at| at - now);
                }
                Ok(())
            }
            FaultKind::Kill => {
                // A permanent kill cancels any in-flight repair of this
                // page — whatever happens below, the page stays dead.
                self.repair_version[ev.page as usize] += 1;
                self.apply_kill(now, ev.page, None)
            }
            FaultKind::Transient { repair_after } => {
                self.apply_kill(now, ev.page, Some(repair_after))
            }
        }
    }

    /// The kill machinery shared by permanent and transient faults: the
    /// page dies, its owner (if any) is shrunk or revoked, and freed
    /// capacity is redistributed. A page that is already dead is left
    /// alone: either permanently killed (it never improves) or awaiting
    /// its first repair (which stands — repair tracks the first strike).
    /// Otherwise `repair_after` schedules the repair of a transient
    /// strike; a re-strike mid-repair invalidates the pending completion,
    /// so repair restarts from this strike.
    fn apply_kill(
        &mut self,
        now: u64,
        page: u16,
        repair_after: Option<u64>,
    ) -> Result<(), SimError> {
        let death = self.alloc.kill_page(page)?;
        if death == PageDeath::AlreadyDead {
            return Ok(());
        }
        if let Some(repair_after) = repair_after {
            self.repair_version[page as usize] += 1;
            self.repairs.push(Reverse(RepairAction {
                time: now.saturating_add(repair_after),
                page,
                phase: RepairPhase::Begin,
                version: self.repair_version[page as usize],
            }));
        }
        self.fstats.pages_killed += 1;
        match death {
            PageDeath::AlreadyDead | PageDeath::Unallocated => {}
            PageDeath::Shrunk {
                victim,
                from_pages,
                to_pages,
            } => {
                self.fstats.threads_remapped += 1;
                let at = self.rerate(victim, now)?;
                self.fstats.recovery_cycles += at.map_or(0, |at| at - now);
                let tr = self.tracer;
                tr.emit(|| TraceEvent::ThreadShrink {
                    time: now,
                    thread: victim as u32,
                    from: from_pages,
                    to: to_pages,
                    pages: self.alloc.pages_of(victim),
                });
            }
            PageDeath::Revoked { victim } => {
                self.fstats.threads_revoked += 1;
                let Mode::OnCgra {
                    kernel,
                    remaining,
                    rate,
                    since,
                } = self.mode[victim]
                else {
                    return Err(SimError::VictimNotRunning { thread: victim });
                };
                // Credit whole iterations completed before the
                // fault; the in-flight remainder is lost and
                // re-queued.
                let done = if now <= since {
                    0
                } else {
                    ((now - since) / rate).min(remaining)
                };
                self.cgra_iterations += done;
                let left = remaining - done;
                self.fstats.iterations_deferred += left;
                self.q.cancel(victim);
                self.mode[victim] = Mode::Waiting {
                    kernel,
                    iterations: left,
                    enqueued: now,
                    revoked: true,
                };
                self.queue.push_back(victim);
                self.tracer.emit(|| TraceEvent::Revoke {
                    time: now,
                    thread: victim as u32,
                    page,
                });
            }
        }
        // A death can free surplus pages (chain rounding): let
        // waiting threads in and regrow survivors.
        self.redistribute(now, false)
    }

    /// Apply one pending repair action (stale ones — scheduled before
    /// the page was struck again — are dropped).
    fn apply_repair(&mut self, action: RepairAction) -> Result<(), SimError> {
        if action.version != self.repair_version[action.page as usize] {
            return Ok(());
        }
        let now = action.time;
        match action.phase {
            RepairPhase::Begin => {
                // Dead → Repairing; the quarantine window starts. The
                // page is still unusable until the commit.
                self.alloc.begin_repair(action.page)?;
                self.repairs.push(Reverse(RepairAction {
                    time: now.saturating_add(self.cfg.quarantine),
                    page: action.page,
                    phase: RepairPhase::Commit,
                    version: action.version,
                }));
                Ok(())
            }
            RepairPhase::Commit => {
                // Repairing → Healthy; the page returns to the free
                // pool and recovered capacity is re-offered: queued
                // threads first, then the most-shrunk live thread.
                let revived = self.alloc.commit_repair(action.page)?;
                debug_assert!(revived, "live-version commit must find the page repairing");
                self.fstats.repairs += 1;
                self.tracer.emit(|| TraceEvent::PageRepaired {
                    time: now,
                    page: action.page,
                });
                self.redistribute(now, true)
            }
        }
    }

    fn run(&mut self) -> Result<(), SimError> {
        for t in 0..self.threads.len() {
            self.q.push(0, t);
        }
        // Kick-off events advance each thread into its first segment.
        // Three merged streams: thread events, fault events, and repair
        // actions. Fabric events (faults + repairs) strictly before the
        // next thread event go first (ties go to the thread event: a
        // kernel finishing at t completes before a page dying at t),
        // and must be applied before *popping* — a fault can cancel and
        // move the event we would have popped. Among
        // fabric events at the same time, repairs fire before faults (a
        // page repairs, then is struck again). Fabric events also
        // continue with no thread events pending: with every tenant
        // revoked and queued, a later kill can still free surplus pages
        // — and a pending repair can rescue the whole queue.
        loop {
            let next_event = self.q.peek();
            let next_fault = self.fault_events.get(self.fault_idx).copied();
            let next_repair = self.repairs.peek().map(|&Reverse(a)| a);
            let fabric = match (next_repair, next_fault) {
                (Some(r), Some(f)) if f.time < r.time => Some(FabricEvent::Fault(f)),
                (Some(r), _) => Some(FabricEvent::Repair(r)),
                (None, f) => f.map(FabricEvent::Fault),
            };
            let due = |at: u64| next_event.is_none_or(|e| at < e.time);
            match fabric {
                Some(FabricEvent::Repair(r)) if due(r.time) => {
                    self.repairs.pop();
                    self.integrate(r.time);
                    self.apply_repair(r)?;
                }
                Some(FabricEvent::Fault(f)) if due(f.time) => {
                    self.fault_idx += 1;
                    self.integrate(f.time);
                    self.apply_fault(f)?;
                }
                _ => {
                    let Some(ev) = next_event else { break };
                    self.q.cancel(ev.thread);
                    self.integrate(ev.time);
                    let t = ev.thread;
                    match self.mode[t] {
                        Mode::Advancing => self.advance(t, ev.time)?,
                        Mode::OnCgra { .. } => self.finish_kernel(t, ev.time)?,
                        Mode::Waiting { .. } | Mode::Done => {}
                    }
                }
            }
            self.alloc.check_invariant()?;
        }
        // Faults can eat so much of the fabric that queued threads are
        // never admitted again; report that instead of a silent zero
        // finish time. (Impossible without faults: every queued thread
        // is eventually served when a running thread finishes.)
        for t in 0..self.threads.len() {
            if self.mode[t] != Mode::Done {
                return Err(SimError::Starved {
                    thread: t,
                    usable_pages: self.alloc.usable_pages(),
                });
            }
        }
        Ok(())
    }
}

/// Simulate the multithreaded system under a fault schedule;
/// deterministic for a given workload and schedule.
///
/// `faults` need not be sorted; events are applied in `(time, page)`
/// order, each one strictly before any thread event at a later time.
/// An empty schedule is the fault-free system.
///
/// # Errors
///
/// [`SimError::UnknownKernel`] before the run starts when a segment
/// names a kernel outside `lib`; otherwise any [`SimError`] the run
/// reaches.
pub fn simulate_multithreaded_faulty(
    lib: &KernelLibrary,
    threads: &[ThreadSpec],
    cfg: MtConfig,
    faults: &[FaultEvent],
) -> Result<SimReport, SimError> {
    simulate_multithreaded_faulty_traced(lib, threads, cfg, faults, &Tracer::off())
}

/// [`simulate_multithreaded_faulty`] with every scheduling decision
/// emitted to `tracer`: one `SimBegin`/`SimEnd` pair bracketing the run
/// (or `SimAbort` when the simulation errors out), with thread
/// queue/start/shrink/expand/finish/done, fault, and revoke events in
/// between, all stamped with simulation time.
pub fn simulate_multithreaded_faulty_traced(
    lib: &KernelLibrary,
    threads: &[ThreadSpec],
    cfg: MtConfig,
    faults: &[FaultEvent],
    tracer: &Tracer,
) -> Result<SimReport, SimError> {
    let unknown = threads
        .iter()
        .flat_map(|t| &t.segments)
        .find_map(|s| match *s {
            Segment::Cgra { kernel, .. } if kernel >= lib.len() => Some(kernel),
            _ => None,
        });
    if let Some(kernel) = unknown {
        return Err(SimError::UnknownKernel {
            kernel,
            kernels: lib.len(),
        });
    }
    let mut fault_events = faults.to_vec();
    fault_events.sort_by_key(|f| (f.time, f.page));
    tracer.emit(|| TraceEvent::SimBegin {
        threads: threads.len() as u32,
        pages: lib.num_pages,
    });
    let want = |p: &KernelProfile| p.wanted_pages(lib.num_pages);
    let mut sim = Sim {
        lib,
        wants: lib.profiles.iter().map(want).collect(),
        threads,
        cfg,
        tracer,
        q: EventQueue::new(threads.len()),
        seg_idx: vec![0; threads.len()],
        mode: vec![Mode::Advancing; threads.len()],
        finish: vec![0; threads.len()],
        alloc: Allocator::new(lib.num_pages),
        queue: VecDeque::new(),
        fault_events,
        fault_idx: 0,
        fstats: FaultStats::default(),
        repairs: BinaryHeap::new(),
        repair_version: vec![0; lib.num_pages as usize],
        cgra_iterations: 0,
        page_cycles: 0,
        last_integral: 0,
        shrinks: 0,
        expands: 0,
        stall_cycles: 0,
    };
    if let Err(err) = sim.run() {
        tracer.emit(|| TraceEvent::SimAbort {
            reason: err.to_string(),
        });
        return Err(err);
    }
    tracer.emit(|| TraceEvent::SimEnd {
        makespan: sim.finish.iter().copied().max().unwrap_or(0),
        iterations: sim.cgra_iterations,
    });
    Ok(SimReport {
        makespan: sim.finish.iter().copied().max().unwrap_or(0),
        thread_finish: sim.finish,
        cgra_iterations: sim.cgra_iterations,
        page_cycles: sim.page_cycles,
        shrinks: sim.shrinks,
        expands: sim.expands,
        stall_cycles: sim.stall_cycles,
        faults: sim.fstats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::improvement_percent;
    use crate::workload::{generate, CgraNeed, WorkloadParams};
    use cgra_mapper::MapOptions;

    fn lib(dim: u16) -> KernelLibrary {
        KernelLibrary::compile_benchmarks(
            &cgra_arch::CgraConfig::square(dim),
            &MapOptions::default(),
            &Tracer::off(),
        )
        .expect("library compiles")
    }

    #[test]
    fn unknown_kernel_is_a_typed_error() {
        let lib = lib(4);
        let spec = ThreadSpec {
            segments: vec![
                Segment::Cpu(10),
                Segment::Cgra {
                    kernel: lib.len(),
                    iterations: 5,
                },
            ],
        };
        let sink = std::sync::Arc::new(cgra_obs::RingSink::unbounded());
        let tracer = Tracer::new(sink.clone());
        let err =
            simulate_multithreaded_faulty_traced(&lib, &[spec], MtConfig::default(), &[], &tracer)
                .unwrap_err();
        assert_eq!(
            err,
            SimError::UnknownKernel {
                kernel: lib.len(),
                kernels: lib.len()
            }
        );
        assert!(sink.is_empty(), "rejected before the run starts");
    }

    #[test]
    fn single_thread_matches_constrained_rate() {
        let lib = lib(4);
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: 0,
                iterations: 50,
            }],
        };
        let r = simulate_multithreaded_faulty(&lib, &[spec], MtConfig::default(), &[]).unwrap();
        let ii = lib.profile(0).ii_constrained as u64;
        assert_eq!(r.makespan, 50 * ii);
        assert_eq!(r.shrinks, 0);
    }

    #[test]
    fn deterministic() {
        let lib = lib(4);
        let w = generate(&lib, &WorkloadParams::default());
        let a = simulate_multithreaded_faulty(&lib, &w, MtConfig::default(), &[]).unwrap();
        let b = simulate_multithreaded_faulty(&lib, &w, MtConfig::default(), &[]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn small_kernels_co_run_without_shrinking() {
        let lib = lib(4);
        // Two threads running kernels that fit half the array each.
        let small = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) <= 2)
            .expect("some kernel uses at most half the 4x4");
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: small,
                iterations: 100,
            }],
        };
        let r =
            simulate_multithreaded_faulty(&lib, &[spec.clone(), spec], MtConfig::default(), &[])
                .unwrap();
        assert_eq!(r.shrinks, 0, "unused-portion rule should serve both");
        let ii = lib.profile(small).ii_constrained as u64;
        assert_eq!(r.makespan, 100 * ii);
    }

    #[test]
    fn multithreading_beats_baseline_on_contended_workloads() {
        let lib = lib(8);
        let w = generate(
            &lib,
            &WorkloadParams {
                threads: 8,
                need: CgraNeed::High,
                work_per_thread: 50_000,
                bursts: 3,
                seed: 7,
            },
        );
        let base = crate::baseline::simulate_baseline(&lib, &w);
        let mt = simulate_multithreaded_faulty(&lib, &w, MtConfig::default(), &[]).unwrap();
        let imp = improvement_percent(base.makespan, mt.makespan);
        assert!(
            imp > 20.0,
            "expected solid improvement on 8x8 with 8 threads, got {imp:.1}%"
        );
    }

    #[test]
    fn overhead_reduces_but_does_not_break_improvement() {
        let lib = lib(4);
        let w = generate(
            &lib,
            &WorkloadParams {
                threads: 4,
                need: CgraNeed::High,
                ..Default::default()
            },
        );
        let zero = simulate_multithreaded_faulty(&lib, &w, MtConfig::default(), &[]).unwrap();
        let heavy = simulate_multithreaded_faulty(
            &lib,
            &w,
            MtConfig {
                switch_overhead: 1000,
                ..Default::default()
            },
            &[],
        )
        .unwrap();
        assert!(heavy.makespan >= zero.makespan);
    }

    #[test]
    fn conservation_of_iterations() {
        let lib = lib(4);
        let w = generate(&lib, &WorkloadParams::default());
        let total: u64 = w
            .iter()
            .flat_map(|t| &t.segments)
            .map(|s| match s {
                Segment::Cgra { iterations, .. } => *iterations,
                _ => 0,
            })
            .sum();
        let r = simulate_multithreaded_faulty(&lib, &w, MtConfig::default(), &[]).unwrap();
        assert_eq!(r.cgra_iterations, total);
    }

    #[test]
    fn queued_thread_drains_when_capacity_frees() {
        let lib = lib(4);
        // Find a kernel wanting the whole array, so every arrival forces
        // a shrink and the fifth request finds everyone at one page.
        let big = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == lib.num_pages)
            .expect("some kernel wants the whole 4x4");
        let spec = |iters: u64| ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: big,
                iterations: iters,
            }],
        };
        // Threads 0..4 fill the fabric down to 1 page each; thread 4
        // arrives with nothing shrinkable left and must queue until one
        // of the others finishes.
        let threads = [spec(200), spec(200), spec(200), spec(200), spec(50)];
        let r = simulate_multithreaded_faulty(&lib, &threads, MtConfig::default(), &[]).unwrap();
        assert!(r.stall_cycles > 0, "fifth thread should have waited: {r:?}");
        assert!(r.thread_finish.iter().all(|&f| f > 0));
        assert_eq!(r.shrinks, 3, "arrivals 1..3 each shrink a tenant");
    }

    #[test]
    fn page_death_shrinks_only_the_owner() {
        let lib = lib(4);
        let small = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == 2)
            .expect("some kernel wants half the 4x4");
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: small,
                iterations: 1000,
            }],
        };
        // Two tenants at 2 pages each: thread 0 on pages {0,1}, thread 1
        // on pages {2,3}. Kill page 0 mid-run: only thread 0 is remapped.
        let ii = lib.profile(small).ii_constrained as u64;
        let faults = [FaultEvent {
            time: 100 * ii,
            page: 0,
            kind: FaultKind::Kill,
        }];
        let r = simulate_multithreaded_faulty(
            &lib,
            &[spec.clone(), spec],
            MtConfig::default(),
            &faults,
        )
        .unwrap();
        assert_eq!(r.faults.injected, 1);
        assert_eq!(r.faults.pages_killed, 1);
        assert_eq!(r.faults.threads_remapped, 1);
        assert_eq!(r.faults.threads_revoked, 0);
        // Thread 1 is untouched: it finishes at its undisturbed rate.
        assert_eq!(r.thread_finish[1], 1000 * ii);
        // Thread 0 lost a page and must run slower from the fault on.
        assert!(r.thread_finish[0] > 1000 * ii);
        assert_eq!(r.cgra_iterations, 2000);
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let lib = lib(4);
        let w = generate(&lib, &WorkloadParams::default());
        let faults = [
            FaultEvent {
                time: 5_000,
                page: 1,
                kind: FaultKind::Kill,
            },
            FaultEvent {
                time: 9_000,
                page: 3,
                kind: FaultKind::Degrade,
            },
        ];
        let a = simulate_multithreaded_faulty(&lib, &w, MtConfig::default(), &faults).unwrap();
        let b = simulate_multithreaded_faulty(&lib, &w, MtConfig::default(), &faults).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn revoked_thread_requeues_and_completes() {
        let lib = lib(4);
        let big = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == lib.num_pages)
            .expect("some kernel wants the whole 4x4");
        let spec = |iters: u64| ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: big,
                iterations: iters,
            }],
        };
        // Four tenants at one page each; kill thread 0's page early. It
        // is revoked, waits, and is re-admitted when a tenant finishes.
        let threads = [spec(500), spec(100), spec(500), spec(500)];
        let r = simulate_multithreaded_faulty(
            &lib,
            &threads,
            MtConfig::default(),
            &[FaultEvent {
                time: 3,
                page: 0,
                kind: FaultKind::Kill,
            }],
        )
        .unwrap();
        assert_eq!(r.faults.threads_revoked, 1);
        assert!(r.faults.iterations_deferred > 0);
        assert!(r.faults.recovery_cycles > 0);
        assert!(r.thread_finish.iter().all(|&f| f > 0), "{r:?}");
    }

    #[test]
    fn killing_every_page_starves_typed() {
        let lib = lib(4);
        let big = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == lib.num_pages)
            .expect("some kernel wants the whole 4x4");
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: big,
                iterations: 1_000_000,
            }],
        };
        let faults: Vec<FaultEvent> = (0..4)
            .map(|p| FaultEvent {
                time: 10 + p as u64,
                page: p,
                kind: FaultKind::Kill,
            })
            .collect();
        let err =
            simulate_multithreaded_faulty(&lib, &[spec], MtConfig::default(), &faults).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::Starved {
                    usable_pages: 0,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    /// Two tenants at two pages each; a transient strike on page 0
    /// shrinks thread 0 to one page, then repair + supervised
    /// re-expansion puts it back on two — the full
    /// shrink → repair → expand round trip, with the trace showing
    /// `PageRepaired` and `Reexpanded` at the expected cycles.
    #[test]
    fn transient_fault_round_trips_to_original_page_count() {
        let lib = lib(4);
        let small = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == 2)
            .expect("some kernel wants half the 4x4");
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: small,
                iterations: 1000,
            }],
        };
        let ii = lib.profile(small).ii_constrained as u64;
        let (strike, repair_after, quarantine) = (100 * ii, 50 * ii, 64);
        let sink = std::sync::Arc::new(cgra_obs::RingSink::unbounded());
        let tracer = Tracer::new(sink.clone());
        let r = simulate_multithreaded_faulty_traced(
            &lib,
            &[spec.clone(), spec],
            MtConfig {
                quarantine,
                ..MtConfig::default()
            },
            &[FaultEvent {
                time: strike,
                page: 0,
                kind: FaultKind::Transient { repair_after },
            }],
            &tracer,
        )
        .unwrap();
        assert_eq!(r.faults.pages_killed, 1);
        assert_eq!(r.faults.threads_remapped, 1);
        assert_eq!(r.faults.repairs, 1);
        assert_eq!(r.faults.reexpansions, 1);
        // No revoke ⇒ no iteration loss across the round trip.
        assert_eq!(r.faults.iterations_deferred, 0);
        assert_eq!(r.cgra_iterations, 2000);
        // Thread 1 never noticed; thread 0 paid for the one-page spell.
        assert_eq!(r.thread_finish[1], 1000 * ii);
        assert!(r.thread_finish[0] > 1000 * ii);
        let events = sink.drain();
        let repaired_at = events
            .iter()
            .find_map(|ev| match ev {
                TraceEvent::PageRepaired { time, page: 0 } => Some(*time),
                _ => None,
            })
            .expect("page 0 is repaired");
        assert_eq!(repaired_at, strike + repair_after + quarantine);
        let reexpanded = events
            .iter()
            .find_map(|ev| match ev {
                TraceEvent::Reexpanded {
                    time,
                    thread: 0,
                    from,
                    to,
                    ..
                } => Some((*time, *from, *to)),
                _ => None,
            })
            .expect("thread 0 is re-expanded");
        assert_eq!(reexpanded.1, 1, "re-expansion starts from the shrunk size");
        assert_eq!(reexpanded.2, 2, "…and restores the original page count");
        assert!(reexpanded.0 >= repaired_at);
    }

    /// A longer quarantine window keeps the repaired page out of the
    /// pool longer, so the shrunk thread runs slow for longer.
    #[test]
    fn quarantine_delays_the_reoffer() {
        let lib = lib(4);
        let small = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == 2)
            .expect("some kernel wants half the 4x4");
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: small,
                iterations: 1000,
            }],
        };
        let ii = lib.profile(small).ii_constrained as u64;
        let fault = [FaultEvent {
            time: 100 * ii,
            page: 0,
            kind: FaultKind::Transient {
                repair_after: 10 * ii,
            },
        }];
        let run = |quarantine: u64| {
            simulate_multithreaded_faulty(
                &lib,
                &[spec.clone(), spec.clone()],
                MtConfig {
                    quarantine,
                    ..MtConfig::default()
                },
                &fault,
            )
            .unwrap()
        };
        let short = run(0);
        let long = run(400 * ii);
        assert_eq!(short.faults.repairs, 1);
        assert_eq!(long.faults.repairs, 1);
        assert!(
            short.thread_finish[0] < long.thread_finish[0],
            "longer quarantine must delay recovery: {} vs {}",
            short.thread_finish[0],
            long.thread_finish[0]
        );
    }

    /// A permanent kill landing while the page awaits repair cancels
    /// the repair — the page stays dead for good.
    #[test]
    fn permanent_kill_during_repair_sticks() {
        let lib = lib(4);
        let small = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == 2)
            .expect("some kernel wants half the 4x4");
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: small,
                iterations: 1000,
            }],
        };
        let ii = lib.profile(small).ii_constrained as u64;
        let faults = [
            FaultEvent {
                time: 100 * ii,
                page: 0,
                kind: FaultKind::Transient {
                    repair_after: 50 * ii,
                },
            },
            // Lands while page 0 is dead awaiting repair.
            FaultEvent {
                time: 120 * ii,
                page: 0,
                kind: FaultKind::Kill,
            },
        ];
        let r = simulate_multithreaded_faulty(
            &lib,
            &[spec.clone(), spec],
            MtConfig::default(),
            &faults,
        )
        .unwrap();
        assert_eq!(r.faults.injected, 2);
        assert_eq!(r.faults.pages_killed, 1, "second strike found it dead");
        assert_eq!(r.faults.repairs, 0, "the permanent kill cancels repair");
        assert_eq!(r.faults.reexpansions, 0);
        assert!(r.thread_finish[0] > 1000 * ii, "thread 0 stays shrunk");
    }

    /// A second transient strike mid-quarantine invalidates the pending
    /// commit and restarts the repair clock from the new strike.
    #[test]
    fn restrike_during_quarantine_restarts_the_repair_clock() {
        let lib = lib(4);
        let small = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == 2)
            .expect("some kernel wants half the 4x4");
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: small,
                iterations: 2000,
            }],
        };
        let ii = lib.profile(small).ii_constrained as u64;
        let (t0, ra, q) = (100 * ii, 20 * ii, 100 * ii);
        let t1 = t0 + ra + q / 2; // inside the quarantine window
        let faults = [
            FaultEvent {
                time: t0,
                page: 0,
                kind: FaultKind::Transient { repair_after: ra },
            },
            FaultEvent {
                time: t1,
                page: 0,
                kind: FaultKind::Transient { repair_after: ra },
            },
        ];
        let sink = std::sync::Arc::new(cgra_obs::RingSink::unbounded());
        let tracer = Tracer::new(sink.clone());
        let r = simulate_multithreaded_faulty_traced(
            &lib,
            &[spec.clone(), spec],
            MtConfig {
                quarantine: q,
                ..MtConfig::default()
            },
            &faults,
            &tracer,
        )
        .unwrap();
        assert_eq!(r.faults.pages_killed, 2, "the re-strike kills it again");
        assert_eq!(r.faults.repairs, 1, "only the restarted repair commits");
        let repaired_at = sink
            .drain()
            .iter()
            .find_map(|ev| match ev {
                TraceEvent::PageRepaired { time, page: 0 } => Some(*time),
                _ => None,
            })
            .expect("page 0 is eventually repaired");
        assert_eq!(repaired_at, t1 + ra + q, "clock restarts at the re-strike");
    }

    /// Transient kills of *every* page starve the fabric only until the
    /// repairs land — the revoked threads are re-admitted from the
    /// queue and the run completes (contrast
    /// [`killing_every_page_starves_typed`]).
    #[test]
    fn transient_kill_of_every_page_recovers_instead_of_starving() {
        let lib = lib(4);
        let big = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == lib.num_pages)
            .expect("some kernel wants the whole 4x4");
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: big,
                iterations: 1000,
            }],
        };
        let faults: Vec<FaultEvent> = (0..4)
            .map(|p| FaultEvent {
                time: 10 + u64::from(p),
                page: p,
                kind: FaultKind::Transient { repair_after: 500 },
            })
            .collect();
        let r = simulate_multithreaded_faulty(
            &lib,
            std::slice::from_ref(&spec),
            MtConfig::default(),
            &faults,
        )
        .unwrap();
        assert_eq!(r.faults.repairs, 4, "every page comes back");
        assert_eq!(r.faults.threads_revoked, 1);
        assert!(r.faults.recovery_cycles > 0);
        assert!(r.thread_finish[0] > 0, "{r:?}");
        assert_eq!(r.cgra_iterations, 1000, "no iterations lost for good");
    }

    #[test]
    fn transient_runs_are_deterministic() {
        let lib = lib(4);
        let w = generate(&lib, &WorkloadParams::default());
        let faults = [
            FaultEvent {
                time: 5_000,
                page: 1,
                kind: FaultKind::Transient { repair_after: 800 },
            },
            FaultEvent {
                time: 9_000,
                page: 3,
                kind: FaultKind::Transient { repair_after: 200 },
            },
        ];
        let a = simulate_multithreaded_faulty(&lib, &w, MtConfig::default(), &faults).unwrap();
        let b = simulate_multithreaded_faulty(&lib, &w, MtConfig::default(), &faults).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn degrade_slows_only_while_holding_the_page() {
        let lib = lib(4);
        let big = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == lib.num_pages)
            .expect("some kernel wants the whole 4x4");
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: big,
                iterations: 100,
            }],
        };
        let ii = lib.profile(big).ii_constrained as u64;
        let clean = simulate_multithreaded_faulty(
            &lib,
            std::slice::from_ref(&spec),
            MtConfig::default(),
            &[],
        )
        .unwrap();
        let degraded = simulate_multithreaded_faulty(
            &lib,
            &[spec],
            MtConfig::default(),
            &[FaultEvent {
                time: 10 * ii,
                page: 2,
                kind: FaultKind::Degrade,
            }],
        )
        .unwrap();
        assert_eq!(degraded.faults.pages_degraded, 1);
        assert!(
            degraded.makespan > clean.makespan,
            "degraded page should slow the tenant: {} vs {}",
            degraded.makespan,
            clean.makespan
        );
    }

    /// A run whose last three events are fabric events — a transient
    /// strike on a free page after the only thread is done, its repair
    /// start and its commit — checks the allocator after each of them.
    #[test]
    fn invariant_is_checked_after_trailing_fabric_events() {
        let lib = lib(4);
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: kernel_wanting(&lib, 1),
                iterations: 10,
            }],
        };
        let done = 10 * lib.profile(kernel_wanting(&lib, 1)).ii_constrained as u64;
        let strike = [FaultEvent {
            time: done + 10,
            page: 3,
            kind: FaultKind::Transient { repair_after: 10 },
        }];
        let checks = |faults: &[FaultEvent]| {
            crate::alloc::tests::CHECKS.with(|c| c.set(0));
            let r = simulate_multithreaded_faulty(
                &lib,
                std::slice::from_ref(&spec),
                MtConfig::default(),
                faults,
            )
            .unwrap();
            assert_eq!(r.makespan, done);
            crate::alloc::tests::CHECKS.with(|c| c.get())
        };
        let (with, without) = (checks(&strike), checks(&[]));
        assert_eq!(with, without + 3, "one check per fabric event");
    }

    /// The first kernel of `lib` that wants exactly `pages` pages.
    fn kernel_wanting(lib: &KernelLibrary, pages: u16) -> usize {
        (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == pages)
            .unwrap_or_else(|| panic!("some kernel wants {pages} pages"))
    }

    /// A kill landing while a page is `Repairing` (past its repair
    /// interval, inside quarantine) kills it again: it counts, it
    /// cancels the commit, and redistribution still runs. On the 8×8
    /// fabric with 8-PE pages, page 7 is struck before anyone arrives;
    /// four arrivals then leave one page free that thread 2 (one page,
    /// wanting eight) can use, and the kill is the first event that
    /// redistributes it.
    #[test]
    fn kill_during_repairing_counts_and_cancels_the_commit() {
        let cgra = cgra_arch::CgraConfig::square(8)
            .with_page_size(8)
            .expect("grid fabric");
        let lib = KernelLibrary::compile_benchmarks(&cgra, &MapOptions::default(), &Tracer::off())
            .expect("library compiles");
        assert_eq!(lib.num_pages, 8);
        let arrive = |at: u64, want: u16| ThreadSpec {
            segments: vec![
                Segment::Cpu(at),
                Segment::Cgra {
                    kernel: kernel_wanting(&lib, want),
                    iterations: 10_000,
                },
            ],
        };
        // With page 7 gone: thread 0 takes 4 pages, thread 1 the
        // largest budget that fits (2), thread 2 the last page; thread
        // 3 shrinks thread 0 to 2 and takes one of the two freed pages.
        let threads = [arrive(20, 4), arrive(30, 8), arrive(40, 8), arrive(50, 1)];
        let kill_at = 60;
        let faults = [
            FaultEvent {
                time: 1,
                page: 7,
                kind: FaultKind::Transient { repair_after: 10 },
            },
            FaultEvent {
                time: kill_at,
                page: 7,
                kind: FaultKind::Kill,
            },
        ];
        let sink = std::sync::Arc::new(cgra_obs::RingSink::unbounded());
        let tracer = Tracer::new(sink.clone());
        let r = simulate_multithreaded_faulty_traced(
            &lib,
            &threads,
            MtConfig {
                quarantine: 1_000_000,
                ..MtConfig::default()
            },
            &faults,
            &tracer,
        )
        .unwrap();
        assert_eq!(r.faults.injected, 2);
        assert_eq!(
            r.faults.pages_killed, 2,
            "the kill on a repairing page counts"
        );
        assert_eq!(r.faults.repairs, 0, "the kill cancels the pending commit");
        assert_eq!(r.faults.reexpansions, 0);
        let events = sink.drain();
        let grown_at_kill = events.iter().any(|ev| {
            matches!(
                ev,
                TraceEvent::ThreadExpand {
                    time,
                    thread: 2,
                    from: 1,
                    to: 2,
                    ..
                } if *time == kill_at
            )
        });
        assert!(grown_at_kill, "the kill redistributes the free page");
        assert!(cgra_obs::check_trace(&events).is_ok());
    }

    /// A degrade on a dead page or on a page under repair changes
    /// nothing; once the page is healthy again a degrade counts.
    #[test]
    fn degrade_on_dead_or_repairing_page_is_ignored() {
        let lib = lib(4);
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: kernel_wanting(&lib, 2),
                iterations: 2000,
            }],
        };
        let degrade = |time: u64| FaultEvent {
            time,
            page: 0,
            kind: FaultKind::Degrade,
        };
        // Page 0 is dead on [100, 200), repairing on [200, 300) and
        // healthy from 300.
        let transient = FaultEvent {
            time: 100,
            page: 0,
            kind: FaultKind::Transient { repair_after: 100 },
        };
        let cfg = MtConfig {
            quarantine: 100,
            ..MtConfig::default()
        };
        let run = |faults: &[FaultEvent]| {
            simulate_multithreaded_faulty(&lib, std::slice::from_ref(&spec), cfg, faults).unwrap()
        };
        let ignored = run(&[transient, degrade(150), degrade(250)]);
        assert_eq!(ignored.faults.injected, 3);
        assert_eq!(ignored.faults.pages_degraded, 0);
        assert_eq!(ignored.faults.repairs, 1);
        let without = run(&[transient]);
        assert_eq!(ignored.thread_finish, without.thread_finish);
        // The same degrade after the commit lands on a healthy page.
        let counted = run(&[transient, degrade(350)]);
        assert_eq!(counted.faults.pages_degraded, 1);
        // A permanently dead page ignores it too.
        let kill = FaultEvent {
            time: 100,
            page: 0,
            kind: FaultKind::Kill,
        };
        let dead = run(&[kill, degrade(150)]);
        assert_eq!(dead.faults.pages_degraded, 0);
    }

    /// A transient strike on a degraded page, then repair: the page
    /// comes back healthy, so the thread that next holds it runs at the
    /// undegraded rate — exactly as if the page had never faulted.
    #[test]
    fn repair_clears_an_earlier_degrade() {
        let lib = lib(4);
        let big = kernel_wanting(&lib, lib.num_pages);
        let spec = ThreadSpec {
            segments: vec![
                Segment::Cpu(1_000),
                Segment::Cgra {
                    kernel: big,
                    iterations: 100,
                },
            ],
        };
        let faults = [
            FaultEvent {
                time: 10,
                page: 0,
                kind: FaultKind::Degrade,
            },
            FaultEvent {
                time: 20,
                page: 0,
                kind: FaultKind::Transient { repair_after: 100 },
            },
        ];
        let run = |faults: &[FaultEvent]| {
            simulate_multithreaded_faulty(
                &lib,
                std::slice::from_ref(&spec),
                MtConfig::default(),
                faults,
            )
            .unwrap()
        };
        let repaired = run(&faults);
        assert_eq!(repaired.faults.pages_degraded, 1);
        assert_eq!(repaired.faults.repairs, 1);
        let clean = run(&[]);
        let ii = lib.profile(big).ii_constrained as u64;
        assert_eq!(clean.makespan, 1_000 + 100 * ii);
        assert_eq!(repaired.thread_finish, clean.thread_finish);
        // Without the repair the degrade would still slow the thread.
        let degraded = run(&faults[..1]);
        assert!(degraded.makespan > clean.makespan);
    }
}
