//! The OS page allocator (§VII-B.1).
//!
//! Budgets move along the halving chain: "when another thread requests
//! access to the CGRA, the thread using the most pages is decreased to use
//! half as many pages and the new thread is resized to fit into the freed
//! portion … threads are expanded as other threads complete."
//!
//! Two tables hold the state. The *tenant table* maps each thread id to
//! its budget (`None` when the thread is not on the CGRA); it is scanned
//! in ascending id order, so every tie goes to the lowest id. The *page
//! table* records which thread owns each physical page, so a
//! [`kill_page`](Allocator::kill_page) fault can find the owning thread
//! and revoke exactly the page that died. Budgets drive every policy
//! decision. Grants take the lowest-numbered free pages; shrinks return a
//! thread's highest-numbered pages — both deterministic.
//!
//! Every expansion goes through one loop, `grow`: each round it grows the
//! affordable tenant with the least policy key by one chain step.
//! [`expand`](Allocator::expand) and
//! [`expand_most_shrunk`](Allocator::expand_most_shrunk) differ only in
//! that key.

use crate::error::SimError;
use crate::kernel_lib::halving_chain;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;

/// How freed pages are redistributed when a thread leaves the CGRA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExpandPolicy {
    /// Grow the smallest allocation first (default; fairness-oriented).
    SmallestFirst,
    /// Grow the largest allocation first (throughput for the leader).
    LargestFirst,
    /// Never expand (ablation: measures how much expansion contributes).
    None,
}

/// Outcome of a CGRA page request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Pages granted without touching anyone.
    Granted {
        /// Pages handed to the requester.
        pages: u16,
    },
    /// A running thread was shrunk to make room.
    Shrunk {
        /// The shrunk thread.
        victim: usize,
        /// The victim's allocation before the shrink.
        victim_was: u16,
        /// The victim's new allocation.
        victim_pages: u16,
        /// Pages handed to the requester.
        pages: u16,
    },
    /// No pages available (every running thread is at one page): stall.
    Queued,
}

/// What happened when a page died ([`Allocator::kill_page`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageDeath {
    /// The page was already dead; nothing changed.
    AlreadyDead,
    /// The page was free; capacity shrank by one, no thread affected.
    Unallocated,
    /// The owning thread dropped to the next halving-chain budget.
    Shrunk {
        /// The affected thread.
        victim: usize,
        /// Its allocation before the fault.
        from_pages: u16,
        /// Its allocation after (next chain value below).
        to_pages: u16,
    },
    /// The owning thread was at one page: its allocation is gone and it
    /// must re-queue.
    Revoked {
        /// The evicted thread.
        victim: usize,
    },
}

/// One applied expansion: `thread` grew `from_pages → to_pages`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expansion {
    /// The grown thread.
    pub thread: usize,
    /// Allocation before the expansion.
    pub from_pages: u16,
    /// Allocation after.
    pub to_pages: u16,
}

/// Per-page ownership state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageState {
    Free,
    Dead,
    Owned(usize),
}

/// Page bookkeeping for the multithreaded CGRA.
#[derive(Debug, Clone)]
pub struct Allocator {
    n: u16,
    free: u16,
    /// The tenant table: each thread's budget, indexed by thread id.
    running: Vec<Option<u16>>,
    chain: Vec<u16>,
    pages: Vec<PageState>,
}

impl Allocator {
    /// An allocator over `n` pages.
    pub fn new(n: u16) -> Self {
        Allocator {
            n,
            free: n,
            running: Vec::new(),
            chain: halving_chain(n),
            pages: vec![PageState::Free; n as usize],
        }
    }

    /// Pages currently unallocated (and not dead).
    pub fn free_pages(&self) -> u16 {
        self.free
    }

    /// Pages still usable (free or owned; excludes dead).
    pub fn usable_pages(&self) -> u16 {
        self.pages
            .iter()
            .filter(|s| !matches!(s, PageState::Dead))
            .count() as u16
    }

    /// Current allocation of a thread (None if not on the CGRA).
    pub fn allocation(&self, thread: usize) -> Option<u16> {
        self.running.get(thread).copied().flatten()
    }

    /// The threads on the CGRA and their budgets, ascending by id.
    fn tenants(&self) -> impl Iterator<Item = (usize, u16)> + '_ {
        let budget = |(t, b): (usize, &Option<u16>)| b.map(|b| (t, b));
        self.running.iter().enumerate().filter_map(budget)
    }

    /// Enter a thread into the tenant table, growing the table to reach
    /// its id.
    fn admit(&mut self, thread: usize, pages: u16) {
        if thread >= self.running.len() {
            self.running.resize(thread + 1, None);
        }
        self.running[thread] = Some(pages);
    }

    /// The thread owning `page`, if any.
    pub fn owner_of(&self, page: u16) -> Option<usize> {
        match self.pages.get(page as usize)? {
            PageState::Owned(t) => Some(*t),
            _ => None,
        }
    }

    /// The physical pages held by `thread`, ascending.
    pub fn owned(&self, thread: usize) -> impl Iterator<Item = u16> + '_ {
        let owner = PageState::Owned(thread);
        (0..self.n).filter(move |&p| self.pages[p as usize] == owner)
    }

    /// [`owned`](Self::owned), collected (for trace events).
    pub fn pages_of(&self, thread: usize) -> Vec<u16> {
        self.owned(thread).collect()
    }

    fn largest_chain_at_most(&self, x: u16) -> Option<u16> {
        self.chain.iter().copied().find(|&c| c <= x)
    }

    fn chain_above(&self, c: u16) -> Option<u16> {
        self.chain.iter().copied().rev().find(|&x| x > c)
    }

    fn chain_below(&self, c: u16) -> Option<u16> {
        self.chain.iter().copied().find(|&x| x < c)
    }

    /// Hand the `count` lowest-numbered free pages to `thread`.
    fn take_free(&mut self, thread: usize, count: u16) -> Result<(), SimError> {
        let mut left = count;
        for s in self.pages.iter_mut() {
            if left == 0 {
                break;
            }
            if *s == PageState::Free {
                *s = PageState::Owned(thread);
                left -= 1;
            }
        }
        if left != 0 {
            return Err(SimError::InvariantViolated {
                detail: format!(
                    "free count {} but only {} free pages",
                    self.free,
                    count - left
                ),
            });
        }
        self.free -= count;
        Ok(())
    }

    /// Return `count` of `thread`'s highest-numbered pages to the free
    /// pool.
    fn give_back(&mut self, thread: usize, count: u16) -> Result<(), SimError> {
        let mut left = count;
        for s in self.pages.iter_mut().rev() {
            if left == 0 {
                break;
            }
            if *s == PageState::Owned(thread) {
                *s = PageState::Free;
                left -= 1;
            }
        }
        if left != 0 {
            return Err(SimError::InvariantViolated {
                detail: format!("thread {thread} owns fewer than {count} pages"),
            });
        }
        self.free += count;
        Ok(())
    }

    /// Request pages for `thread` (wanting `want`, a halving-chain value).
    pub fn request(&mut self, thread: usize, want: u16) -> Result<RequestOutcome, SimError> {
        debug_assert!(self.chain.contains(&want), "want {want} not on chain");
        if self.allocation(thread).is_some() {
            return Err(SimError::InvariantViolated {
                detail: format!("thread {thread} requested pages while already on the CGRA"),
            });
        }
        // Unused portion first: no transformation of anyone needed.
        if self.free > 0 {
            if let Some(pages) = self.largest_chain_at_most(self.free.min(want)) {
                self.take_free(thread, pages)?;
                self.admit(thread, pages);
                return Ok(RequestOutcome::Granted { pages });
            }
        }
        // Shrink the thread using the most pages (ties: lowest id).
        let victim = self
            .tenants()
            .max_by_key(|&(id, pages)| (pages, Reverse(id)));
        let Some((victim, victim_was)) = victim else {
            return Ok(RequestOutcome::Queued);
        };
        let Some(new_pages) = self.chain_below(victim_was) else {
            return Ok(RequestOutcome::Queued); // everyone already at 1 page
        };
        let freed = victim_was - new_pages;
        self.running[victim] = Some(new_pages);
        self.give_back(victim, freed)?;
        let pages =
            self.largest_chain_at_most(self.free.min(want))
                .ok_or(SimError::InvariantViolated {
                    detail: "shrink freed no usable budget".to_string(),
                })?;
        self.take_free(thread, pages)?;
        self.admit(thread, pages);
        Ok(RequestOutcome::Shrunk {
            victim,
            victim_was,
            victim_pages: new_pages,
            pages,
        })
    }

    /// Release a thread's pages; returns how many were freed.
    pub fn release(&mut self, thread: usize) -> Result<u16, SimError> {
        let pages = self
            .running
            .get_mut(thread)
            .and_then(Option::take)
            .ok_or(SimError::UnknownThread { thread })?;
        self.give_back(thread, pages)?;
        Ok(pages)
    }

    /// A page died. Capacity shrinks by one; if a thread owned the page
    /// it drops to the next halving-chain budget below (its other freed
    /// pages return to the pool), or loses its allocation entirely when
    /// it was already at one page.
    pub fn kill_page(&mut self, page: u16) -> Result<PageDeath, SimError> {
        let Some(&state) = self.pages.get(page as usize) else {
            return Err(SimError::PageOutOfRange {
                page,
                num_pages: self.n,
            });
        };
        match state {
            PageState::Dead => Ok(PageDeath::AlreadyDead),
            PageState::Free => {
                self.pages[page as usize] = PageState::Dead;
                self.free -= 1;
                Ok(PageDeath::Unallocated)
            }
            PageState::Owned(victim) => {
                let from_pages = self
                    .allocation(victim)
                    .ok_or(SimError::UnknownThread { thread: victim })?;
                self.pages[page as usize] = PageState::Dead;
                match self.chain_below(from_pages) {
                    None => {
                        // Was at the chain bottom (one page): fully evicted.
                        self.running[victim] = None;
                        Ok(PageDeath::Revoked { victim })
                    }
                    Some(to_pages) => {
                        // The thread keeps `to_pages` of its surviving
                        // pages; the rest (beyond the dead one) free up.
                        let extra = from_pages - 1 - to_pages;
                        self.give_back(victim, extra)?;
                        self.running[victim] = Some(to_pages);
                        Ok(PageDeath::Shrunk {
                            victim,
                            from_pages,
                            to_pages,
                        })
                    }
                }
            }
        }
    }

    /// A repaired page returns to the free pool (Dead → Free). Returns
    /// `true` if the page was actually dead; reviving a page that is
    /// free or owned is a no-op (`false`) so a stale repair completion
    /// can never double-count capacity.
    pub fn revive(&mut self, page: u16) -> Result<bool, SimError> {
        let Some(&state) = self.pages.get(page as usize) else {
            return Err(SimError::PageOutOfRange {
                page,
                num_pages: self.n,
            });
        };
        if state == PageState::Dead {
            self.pages[page as usize] = PageState::Free;
            self.free += 1;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Supervised re-expansion after a page repair: repeatedly grow the
    /// live thread with the largest *deficit* below its desired budget
    /// (ties: lowest id) by one halving-chain step, while free pages
    /// cover the cost. Unlike [`expand`](Allocator::expand), which
    /// orders by current size per policy, this orders by how much a
    /// thread has been shrunk — the most-shrunk thread recovers first,
    /// which is the supervision policy recovered capacity is for.
    /// Returns every applied expansion.
    pub fn expand_most_shrunk(
        &mut self,
        want: impl Fn(usize) -> u16,
    ) -> Result<Vec<Expansion>, SimError> {
        self.grow(want, |id, pages, desired| (Reverse(desired - pages), id))
    }

    /// Expand running threads into free pages per `policy`. `want(t)`
    /// caps each thread's growth. Returns every applied expansion.
    pub fn expand(
        &mut self,
        policy: ExpandPolicy,
        want: impl Fn(usize) -> u16,
    ) -> Result<Vec<Expansion>, SimError> {
        match policy {
            ExpandPolicy::SmallestFirst => self.grow(want, |id, pages, _| (pages, id)),
            ExpandPolicy::LargestFirst => self.grow(want, |id, pages, _| (Reverse(pages), id)),
            ExpandPolicy::None => Ok(Vec::new()),
        }
    }

    /// The one expansion loop. Each round grows, by one chain step capped
    /// at `want`, the tenant with the least `key(id, pages, want)` among
    /// those below their want whose step the free pages can pay for;
    /// it stops when no tenant qualifies. Keys end in the thread id, so
    /// they are unique and the pick is deterministic.
    fn grow<K: Ord>(
        &mut self,
        want: impl Fn(usize) -> u16,
        key: impl Fn(usize, u16, u16) -> K,
    ) -> Result<Vec<Expansion>, SimError> {
        let mut applied = Vec::new();
        loop {
            let pick = self
                .tenants()
                .filter_map(|(id, pages)| {
                    let desired = want(id);
                    let up = self.chain_above(pages)?.min(desired);
                    (up > pages && up - pages <= self.free)
                        .then(|| (key(id, pages, desired), id, pages, up))
                })
                .min_by(|a, b| a.0.cmp(&b.0));
            let Some((_, thread, from_pages, to_pages)) = pick else {
                return Ok(applied);
            };
            self.take_free(thread, to_pages - from_pages)?;
            self.running[thread] = Some(to_pages);
            applied.push(Expansion {
                thread,
                from_pages,
                to_pages,
            });
        }
    }

    /// Sanity, in one pass over the page table: no page is owned by a
    /// thread that is not a tenant, each tenant owns exactly its budget,
    /// the free pages number `free`, and budgets + free + dead sum to N.
    pub fn check_invariant(&self) -> bool {
        // One count per tenant-table slot; on the stack for the thread
        // counts a simulation uses.
        let (mut small, mut large) = ([0u16; 64], Vec::new());
        let held = if self.running.len() <= small.len() {
            &mut small[..self.running.len()]
        } else {
            large.resize(self.running.len(), 0u16);
            &mut large[..]
        };
        let (mut free, mut dead) = (0u16, 0u16);
        for page in &self.pages {
            match *page {
                PageState::Free => free += 1,
                PageState::Dead => dead += 1,
                PageState::Owned(t) if self.allocation(t).is_some() => held[t] += 1,
                PageState::Owned(_) => return false,
            }
        }
        let budgets: u32 = self.tenants().map(|(_, b)| u32::from(b)).sum();
        free == self.free
            && budgets + u32::from(self.free) + u32::from(dead) == u32::from(self.n)
            && self
                .running
                .iter()
                .zip(held.iter())
                .all(|(b, &h)| b.unwrap_or(0) == h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_thread_gets_what_it_wants() {
        let mut a = Allocator::new(8);
        assert_eq!(
            a.request(0, 8).unwrap(),
            RequestOutcome::Granted { pages: 8 }
        );
        assert_eq!(a.pages_of(0), (0..8).collect::<Vec<u16>>());
        assert!(a.check_invariant());
    }

    #[test]
    fn unused_portion_served_without_shrinking() {
        let mut a = Allocator::new(8);
        a.request(0, 4).unwrap();
        // 4 pages free: second thread fits without a shrink.
        assert_eq!(
            a.request(1, 4).unwrap(),
            RequestOutcome::Granted { pages: 4 }
        );
        assert_eq!(a.pages_of(1), vec![4, 5, 6, 7]);
        assert!(a.check_invariant());
    }

    #[test]
    fn shrink_halves_the_biggest() {
        let mut a = Allocator::new(8);
        a.request(0, 8).unwrap();
        let out = a.request(1, 8).unwrap();
        assert_eq!(
            out,
            RequestOutcome::Shrunk {
                victim: 0,
                victim_was: 8,
                victim_pages: 4,
                pages: 4
            }
        );
        // Victim keeps its lowest pages; newcomer takes the freed ones.
        assert_eq!(a.pages_of(0), vec![0, 1, 2, 3]);
        assert_eq!(a.pages_of(1), vec![4, 5, 6, 7]);
        assert!(a.check_invariant());
    }

    #[test]
    fn cascade_of_arrivals() {
        let mut a = Allocator::new(8);
        a.request(0, 8).unwrap();
        a.request(1, 8).unwrap(); // 4 + 4
        let out = a.request(2, 8).unwrap(); // shrink thread 0 (tie-lowest) to 2
        assert_eq!(
            out,
            RequestOutcome::Shrunk {
                victim: 0,
                victim_was: 4,
                victim_pages: 2,
                pages: 2
            }
        );
        assert_eq!(a.allocation(1), Some(4));
        assert!(a.check_invariant());
    }

    #[test]
    fn queue_when_everyone_at_one_page() {
        let mut a = Allocator::new(2);
        a.request(0, 2).unwrap();
        a.request(1, 2).unwrap(); // 1 + 1
        assert_eq!(a.request(2, 2).unwrap(), RequestOutcome::Queued);
        assert!(a.check_invariant());
    }

    #[test]
    fn queued_request_drains_after_release() {
        let mut a = Allocator::new(2);
        a.request(0, 2).unwrap();
        a.request(1, 2).unwrap(); // 1 + 1
        assert_eq!(a.request(2, 2).unwrap(), RequestOutcome::Queued);
        // Thread 0 finishes; the stalled request now fits its free page.
        a.release(0).unwrap();
        assert_eq!(
            a.request(2, 2).unwrap(),
            RequestOutcome::Granted { pages: 1 }
        );
        assert!(a.check_invariant());
    }

    #[test]
    fn release_and_expand_smallest_first() {
        let mut a = Allocator::new(8);
        a.request(0, 8).unwrap();
        a.request(1, 8).unwrap(); // 4+4
        a.request(2, 8).unwrap(); // 2+4+2
        assert_eq!(a.allocation(0), Some(2));
        a.release(1).unwrap();
        let grown = a.expand(ExpandPolicy::SmallestFirst, |_| 8).unwrap();
        // Thread 0 (2 pages) doubles to 4, then thread 2 doubles to 4.
        assert_eq!(
            grown,
            vec![
                Expansion {
                    thread: 0,
                    from_pages: 2,
                    to_pages: 4
                },
                Expansion {
                    thread: 2,
                    from_pages: 2,
                    to_pages: 4
                }
            ]
        );
        assert!(a.check_invariant());
    }

    #[test]
    fn expansion_respects_want() {
        let mut a = Allocator::new(8);
        a.request(0, 2).unwrap();
        let grown = a.expand(ExpandPolicy::SmallestFirst, |_| 2).unwrap();
        assert!(grown.is_empty(), "{grown:?}");
    }

    #[test]
    fn expand_none_is_inert() {
        let mut a = Allocator::new(8);
        a.request(0, 2).unwrap();
        assert!(a.expand(ExpandPolicy::None, |_| 8).unwrap().is_empty());
    }

    #[test]
    fn nine_page_chain_composition() {
        // 6x6 with 2x2 pages: 9 pages, chain [9,4,2,1].
        let mut a = Allocator::new(9);
        assert_eq!(
            a.request(0, 9).unwrap(),
            RequestOutcome::Granted { pages: 9 }
        );
        let out = a.request(1, 9).unwrap();
        // Victim halves 9 -> 4, freeing 5; newcomer takes 4 (largest chain <= 5).
        assert_eq!(
            out,
            RequestOutcome::Shrunk {
                victim: 0,
                victim_was: 9,
                victim_pages: 4,
                pages: 4
            }
        );
        assert_eq!(a.free_pages(), 1);
        // A third small thread can take the loose page without shrinking.
        assert_eq!(
            a.request(2, 1).unwrap(),
            RequestOutcome::Granted { pages: 1 }
        );
        assert!(a.check_invariant());
    }

    #[test]
    fn release_unknown_thread_is_typed_error() {
        let mut a = Allocator::new(4);
        assert_eq!(a.release(3), Err(SimError::UnknownThread { thread: 3 }));
    }

    #[test]
    fn kill_free_page_shrinks_capacity() {
        let mut a = Allocator::new(4);
        assert_eq!(a.kill_page(2).unwrap(), PageDeath::Unallocated);
        assert_eq!(a.free_pages(), 3);
        assert_eq!(a.usable_pages(), 3);
        assert_eq!(a.kill_page(2).unwrap(), PageDeath::AlreadyDead);
        assert!(a.check_invariant());
    }

    #[test]
    fn kill_owned_page_shrinks_owner_to_chain_below() {
        let mut a = Allocator::new(8);
        a.request(0, 8).unwrap();
        // Page 5 dies: thread 0 drops 8 -> 4, pages 5 is dead and the
        // other 3 surplus pages free up.
        assert_eq!(
            a.kill_page(5).unwrap(),
            PageDeath::Shrunk {
                victim: 0,
                from_pages: 8,
                to_pages: 4
            }
        );
        assert_eq!(a.allocation(0), Some(4));
        assert_eq!(a.pages_of(0).len(), 4);
        assert!(!a.pages_of(0).contains(&5));
        assert_eq!(a.free_pages(), 3);
        assert_eq!(a.usable_pages(), 7);
        assert!(a.check_invariant());
    }

    #[test]
    fn kill_last_page_revokes_thread() {
        let mut a = Allocator::new(2);
        a.request(0, 2).unwrap();
        a.request(1, 2).unwrap(); // 1 + 1
        let page = a.pages_of(1)[0];
        assert_eq!(a.kill_page(page).unwrap(), PageDeath::Revoked { victim: 1 });
        assert_eq!(a.allocation(1), None);
        assert!(a.check_invariant());
    }

    #[test]
    fn kill_out_of_range_is_typed_error() {
        let mut a = Allocator::new(4);
        assert_eq!(
            a.kill_page(9),
            Err(SimError::PageOutOfRange {
                page: 9,
                num_pages: 4
            })
        );
    }

    #[test]
    fn revive_returns_dead_page_to_the_pool() {
        let mut a = Allocator::new(4);
        a.kill_page(2).unwrap();
        assert_eq!(a.free_pages(), 3);
        assert_eq!(a.usable_pages(), 3);
        assert!(a.revive(2).unwrap());
        assert_eq!(a.free_pages(), 4);
        assert_eq!(a.usable_pages(), 4);
        // Double-revive and reviving a live page are no-ops.
        assert!(!a.revive(2).unwrap());
        assert_eq!(a.free_pages(), 4);
        a.request(0, 4).unwrap();
        assert!(!a.revive(0).unwrap());
        assert_eq!(
            a.revive(9),
            Err(SimError::PageOutOfRange {
                page: 9,
                num_pages: 4
            })
        );
        assert!(a.check_invariant());
    }

    #[test]
    fn revived_page_is_grantable_again() {
        let mut a = Allocator::new(2);
        a.request(0, 2).unwrap();
        a.request(1, 2).unwrap(); // 1 + 1
        let page = a.pages_of(1)[0];
        assert_eq!(a.kill_page(page).unwrap(), PageDeath::Revoked { victim: 1 });
        assert_eq!(a.request(1, 2).unwrap(), RequestOutcome::Queued);
        assert!(a.revive(page).unwrap());
        assert_eq!(
            a.request(1, 2).unwrap(),
            RequestOutcome::Granted { pages: 1 }
        );
        assert_eq!(a.pages_of(1), vec![page]);
        assert!(a.check_invariant());
    }

    #[test]
    fn expand_most_shrunk_grows_largest_deficit_first() {
        let mut a = Allocator::new(8);
        a.request(0, 8).unwrap();
        a.request(1, 8).unwrap(); // 4 + 4
        a.request(2, 8).unwrap(); // 2 + 4 + 2
        a.release(1).unwrap(); // 4 free
                               // Thread 0 wants 8 (deficit 6); thread 2 wants 4 (deficit 2):
                               // the most-shrunk thread 0 doubles first, then thread 2 takes
                               // the remaining 2.
        let wants = |t: usize| if t == 0 { 8 } else { 4 };
        let grown = a.expand_most_shrunk(wants).unwrap();
        assert_eq!(
            grown,
            vec![
                Expansion {
                    thread: 0,
                    from_pages: 2,
                    to_pages: 4
                },
                Expansion {
                    thread: 2,
                    from_pages: 2,
                    to_pages: 4
                }
            ]
        );
        assert_eq!(a.free_pages(), 0);
        assert!(a.check_invariant());
    }

    #[test]
    fn expand_most_shrunk_ties_go_to_lowest_id() {
        let mut a = Allocator::new(8);
        a.request(0, 8).unwrap();
        a.request(1, 8).unwrap(); // 4 + 4
        a.request(2, 8).unwrap(); // 2 + 4 + 2
        a.release(1).unwrap(); // 4 free; threads 0 and 2 both at 2
                               // Equal deficits: thread 0 wins the tie, and after one chain
                               // step (2 -> 4) the pool is drained before thread 2's turn
                               // comes again.
        let grown = a.expand_most_shrunk(|_| 8).unwrap();
        assert_eq!(grown.len(), 2);
        assert_eq!(grown[0].thread, 0);
        assert_eq!((grown[0].from_pages, grown[0].to_pages), (2, 4));
        assert_eq!(grown[1].thread, 2);
        assert!(a.check_invariant());
    }

    #[test]
    fn expand_most_shrunk_respects_want_and_empty_pool() {
        let mut a = Allocator::new(8);
        a.request(0, 2).unwrap();
        // Satisfied threads never grow.
        assert!(a.expand_most_shrunk(|_| 2).unwrap().is_empty());
        // Nothing free: no growth even with a deficit.
        let mut b = Allocator::new(2);
        b.request(0, 2).unwrap();
        b.request(1, 2).unwrap();
        assert!(b.expand_most_shrunk(|_| 2).unwrap().is_empty());
    }

    /// Two tenants — thread 0 on pages 0–3, thread 1 on pages 4–5 — and
    /// two free pages, in a consistent state.
    fn two_tenants() -> Allocator {
        let mut a = Allocator::new(8);
        a.request(0, 4).unwrap();
        a.request(1, 2).unwrap();
        assert!(a.check_invariant());
        a
    }

    #[test]
    fn invariant_fails_on_a_page_owned_by_a_non_tenant() {
        let mut a = two_tenants();
        // Thread 1 left the tenant table without giving its pages back.
        a.running[1] = None;
        assert!(!a.check_invariant());
        // A page names a thread the table has never seen.
        let mut b = two_tenants();
        b.pages[6] = PageState::Owned(9);
        b.free -= 1;
        assert!(!b.check_invariant());
    }

    #[test]
    fn invariant_fails_on_swapped_page_counts() {
        let mut a = two_tenants();
        a.running.swap(0, 1);
        assert!(!a.check_invariant());
    }

    #[test]
    fn invariant_fails_on_a_free_count_off_by_one() {
        let mut a = two_tenants();
        a.free += 1;
        assert!(!a.check_invariant());
        let mut b = two_tenants();
        b.free -= 1;
        assert!(!b.check_invariant());
    }

    #[test]
    fn invariant_fails_when_counts_do_not_sum_to_n() {
        // Budgets, free and dead pages all agree with the page table, but
        // the table has grown a ninth page on an 8-page fabric.
        let mut a = two_tenants();
        a.pages.push(PageState::Dead);
        assert!(!a.check_invariant());
    }

    /// The two orders of the expansion loop: an [`ExpandPolicy`] or the
    /// supervision policy of [`Allocator::expand_most_shrunk`].
    #[derive(Debug, Clone, Copy)]
    enum Order {
        Policy(ExpandPolicy),
        MostShrunk,
    }

    /// The collect-and-sort selection that `grow` replaced, kept as the
    /// reference it must agree with: each round sorts the tenants below
    /// their want by the order's key and grows the first affordable one.
    fn sorted_reference(
        a: &mut Allocator,
        order: Order,
        want: impl Fn(usize) -> u16,
    ) -> Vec<Expansion> {
        let mut applied = Vec::new();
        loop {
            let mut candidates: Vec<(usize, u16, u16)> = a
                .tenants()
                .map(|(id, pages)| (id, pages, want(id)))
                .filter(|&(_, pages, desired)| pages < desired)
                .collect();
            match order {
                Order::Policy(ExpandPolicy::SmallestFirst) => {
                    candidates.sort_by_key(|&(id, p, _)| (p, id))
                }
                Order::Policy(ExpandPolicy::LargestFirst) => {
                    candidates.sort_by_key(|&(id, p, _)| (Reverse(p), id))
                }
                Order::Policy(ExpandPolicy::None) => return applied,
                Order::MostShrunk => candidates.sort_by_key(|&(id, p, d)| (Reverse(d - p), id)),
            }
            let pick = candidates.into_iter().find_map(|(id, pages, desired)| {
                let up = a.chain_above(pages)?.min(desired);
                (up > pages && up - pages <= a.free).then_some((id, pages, up))
            });
            let Some((thread, from_pages, to_pages)) = pick else {
                return applied;
            };
            a.take_free(thread, to_pages - from_pages).unwrap();
            a.running[thread] = Some(to_pages);
            applied.push(Expansion {
                thread,
                from_pages,
                to_pages,
            });
        }
    }

    /// A consistent allocator with random tenants (budgets on the chain,
    /// pages scattered over the fabric, some pages dead), and a random
    /// want per thread id, some of them off the chain.
    fn random_tenants(rng: &mut rand::rngs::StdRng) -> (Allocator, Vec<u16>) {
        use rand::Rng;
        let n = rng.gen_range(1..=20u16);
        let mut a = Allocator::new(n);
        let mut order: Vec<usize> = (0..n as usize).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let threads = rng.gen_range(1..=10usize);
        let mut taken = 0;
        for t in 0..threads {
            let budget = a.chain[rng.gen_range(0..a.chain.len())] as usize;
            if rng.gen_bool(0.25) || taken + budget > order.len() {
                continue;
            }
            for &p in &order[taken..taken + budget] {
                a.pages[p] = PageState::Owned(t);
            }
            taken += budget;
            a.admit(t, budget as u16);
        }
        for &p in &order[taken..] {
            if rng.gen_bool(0.2) {
                a.pages[p] = PageState::Dead;
            }
        }
        a.free = a.pages.iter().filter(|&&s| s == PageState::Free).count() as u16;
        assert!(a.check_invariant());
        let wants = (0..threads).map(|_| rng.gen_range(0..=n + 1)).collect();
        (a, wants)
    }

    #[test]
    fn grow_picks_what_the_sorted_reference_picks() {
        use rand::SeedableRng;
        let orders = [
            Order::Policy(ExpandPolicy::SmallestFirst),
            Order::Policy(ExpandPolicy::LargestFirst),
            Order::Policy(ExpandPolicy::None),
            Order::MostShrunk,
        ];
        for seed in 0..500 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (start, wants) = random_tenants(&mut rng);
            for order in orders {
                let want = |t: usize| wants[t];
                let mut expected = start.clone();
                let reference = sorted_reference(&mut expected, order, want);
                let mut actual = start.clone();
                let grown = match order {
                    Order::Policy(policy) => actual.expand(policy, want),
                    Order::MostShrunk => actual.expand_most_shrunk(want),
                }
                .unwrap();
                assert_eq!(grown, reference, "seed {seed}, {order:?}");
                assert_eq!(actual.running, expected.running, "seed {seed}, {order:?}");
                assert_eq!(actual.pages, expected.pages, "seed {seed}, {order:?}");
                assert_eq!(actual.free, expected.free, "seed {seed}, {order:?}");
                assert!(actual.check_invariant(), "seed {seed}, {order:?}");
            }
        }
    }
}
