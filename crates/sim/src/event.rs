//! The discrete-event queue: one pending slot per thread.
//!
//! A thread has at most one live event: its next segment start or its
//! kernel's completion. When the page allocator reshuffles the CGRA, the
//! simulator [cancels](EventQueue::cancel) a moved completion and pushes
//! the new one into the same slot, so no stale event is ever stored.
//! [`pop`](EventQueue::pop) and [`peek`](EventQueue::peek) scan the slots
//! for the least `(time, thread)`: ties go to the lowest thread id.

/// An event bound for `thread` at `time`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Simulation time.
    pub time: u64,
    /// Target thread.
    pub thread: usize,
}

/// Each thread's pending event time, indexed by thread id; `u64::MAX`
/// marks an empty slot.
#[derive(Debug, Default)]
pub struct EventQueue {
    slots: Vec<u64>,
}

impl EventQueue {
    /// Create a queue for `threads` threads, none with an event.
    pub fn new(threads: usize) -> Self {
        EventQueue {
            slots: vec![u64::MAX; threads],
        }
    }

    /// Drop the thread's pending event, if any.
    pub fn cancel(&mut self, thread: usize) {
        self.slots[thread] = u64::MAX;
    }

    /// Schedule the thread's next event, at a time before `u64::MAX`;
    /// the thread has none pending ([`cancel`](Self::cancel) it first).
    pub fn push(&mut self, time: u64, thread: usize) {
        debug_assert!(
            self.slots[thread] == u64::MAX,
            "thread {thread} already has an event pending"
        );
        debug_assert!(time < u64::MAX, "event time {time} marks an empty slot");
        self.slots[thread] = time;
    }

    /// The next event, the least `(time, thread)` pending, without
    /// popping it. The fault-injection loop uses this to apply every
    /// fault due *before* the next thread event: applying a fault can
    /// cancel and move that event, so peeking first is load-bearing, not
    /// an optimisation.
    pub fn peek(&self) -> Option<Event> {
        // The first least time, so ties go to the lowest thread id.
        let (thread, &time) = self.slots.iter().enumerate().min_by_key(|&(_, &t)| t)?;
        (time < u64::MAX).then_some(Event { time, thread })
    }

    /// Pop the next event, emptying its thread's slot.
    pub fn pop(&mut self) -> Option<Event> {
        let next = self.peek()?;
        self.cancel(next.thread);
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new(3);
        q.push(30, 2);
        q.push(10, 0);
        q.push(20, 1);
        assert_eq!(q.pop().unwrap().time, 10);
        assert_eq!(q.pop().unwrap().time, 20);
        assert_eq!(q.pop().unwrap().time, 30);
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancelled_events_never_pop() {
        let mut q = EventQueue::new(1);
        q.push(10, 0);
        q.cancel(0);
        q.push(20, 0);
        let e = q.pop().unwrap();
        assert_eq!(e.time, 20);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_thread_id() {
        let mut q = EventQueue::new(2);
        q.push(10, 1);
        q.push(10, 0);
        assert_eq!(q.pop().unwrap().thread, 0);
        assert_eq!(q.pop().unwrap().thread, 1);
    }

    #[test]
    fn peek_skips_cancelled_and_preserves_pop() {
        let mut q = EventQueue::new(2);
        q.push(10, 0);
        q.cancel(0);
        q.push(25, 0);
        q.push(15, 1);
        assert_eq!(q.peek().map(|e| e.time), Some(15));
        assert_eq!(q.pop().unwrap().time, 15);
        assert_eq!(q.peek().map(|e| e.time), Some(25));
        assert_eq!(q.pop().unwrap().time, 25);
        assert_eq!(q.peek().map(|e| e.time), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "thread 0 already has an event pending")]
    fn push_onto_a_live_slot_is_caught() {
        let mut q = EventQueue::new(1);
        q.push(10, 0);
        q.push(20, 0);
    }

    /// The lazily deleting heap the slots replaced, kept as the
    /// reference: events carry the thread's version at push time, and a
    /// popped event whose version is stale is skipped.
    #[derive(Default)]
    struct LazyHeap {
        heap: BinaryHeap<Reverse<(u64, usize, u64)>>,
        versions: Vec<u64>,
    }

    impl LazyHeap {
        fn bump(&mut self, thread: usize) {
            self.versions[thread] += 1;
        }

        fn push(&mut self, time: u64, thread: usize) {
            self.heap
                .push(Reverse((time, thread, self.versions[thread])));
        }

        fn peek_time(&mut self) -> Option<u64> {
            while let Some(&Reverse((time, thread, version))) = self.heap.peek() {
                if self.versions[thread] == version {
                    return Some(time);
                }
                self.heap.pop();
            }
            None
        }

        fn pop(&mut self) -> Option<Event> {
            self.peek_time()?;
            let Reverse((time, thread, _)) = self.heap.pop()?;
            Some(Event { time, thread })
        }
    }

    /// Seeded random push / cancel / pop / peek sequences that keep at
    /// most one live event per thread pop exactly what the lazily
    /// deleting heap pops.
    #[test]
    fn slots_pop_what_the_lazy_heap_pops() {
        for seed in 0..200u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let threads = rng.gen_range(1..=24usize);
            let mut q = EventQueue::new(threads);
            let mut reference = LazyHeap {
                versions: vec![0; threads],
                ..LazyHeap::default()
            };
            // Kick-off: every thread starts with an event at time 0, as
            // both simulators do.
            for t in 0..threads {
                q.push(0, t);
                reference.push(0, t);
            }
            let mut now = 0u64;
            for step in 0..400 {
                let t = rng.gen_range(0..threads);
                match rng.gen_range(0..4u32) {
                    // Reschedule: cancel whatever is pending, push anew
                    // at or after `now` (ties are frequent).
                    0 => {
                        q.cancel(t);
                        reference.bump(t);
                        let time = now + rng.gen_range(0..8u64);
                        q.push(time, t);
                        reference.push(time, t);
                    }
                    1 => {
                        q.cancel(t);
                        reference.bump(t);
                    }
                    2 => {
                        assert_eq!(
                            q.peek().map(|e| e.time),
                            reference.peek_time(),
                            "seed {seed} {step}"
                        )
                    }
                    _ => {
                        let popped = q.pop();
                        assert_eq!(popped, reference.pop(), "seed {seed} step {step}");
                        if let Some(e) = popped {
                            now = e.time;
                            // A popped thread usually schedules its next
                            // event into its now empty slot.
                            if rng.gen_bool(0.7) {
                                let time = now + rng.gen_range(0..8u64);
                                q.push(time, e.thread);
                                reference.push(time, e.thread);
                            }
                        }
                    }
                }
            }
            while let Some(e) = reference.pop() {
                assert_eq!(q.pop(), Some(e), "seed {seed} drain");
            }
            assert_eq!(q.pop(), None, "seed {seed}");
        }
    }
}
