//! The OS page allocator (§VII-B.1).
//!
//! Budgets move along the halving chain: "when another thread requests
//! access to the CGRA, the thread using the most pages is decreased to use
//! half as many pages and the new thread is resized to fit into the freed
//! portion … threads are expanded as other threads complete."
//!
//! The page table keeps each fact once, as page bitsets (`u64` words).
//! Its health column is a [`FaultMap`], the one record of the Dead →
//! Repairing → Healthy cycle; the allocator reads its usable and
//! degraded words in place. Its owner column has one bitset per thread
//! id: a thread's budget is the bitset's popcount, and the thread is a
//! tenant exactly when the bitset is non-empty. Each pick — the shrink
//! victim, the tenant to grow — is one pass over the slots in ascending
//! id order that counts each slot's pages; a later tenant replaces the
//! best so far only when it is strictly better, so every tie goes to
//! the lowest id. The free pages are one more bitset, so finding a
//! page's owner or whether a thread
//! [holds a degraded page](Allocator::holds_degraded) is a word test,
//! and the free and busy counts are popcounts. Grants take the
//! lowest free pages; shrinks return a thread's highest pages — both
//! deterministic. Budgets drive every policy decision.
//!
//! Every expansion goes through one step, [`grow`](Allocator::grow): it
//! grows the affordable tenant that comes first in a [`Growth`] order by
//! one chain step. Routine redistribution and the supervised
//! re-expansion after a repair differ only in that order.

use crate::error::SimError;
use cgra_arch::{FaultMap, PageHealth};
use serde::{Deserialize, Serialize};

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

/// The order in which [`Allocator::grow`] picks the tenant to grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Growth {
    /// Routine redistribution under an [`ExpandPolicy`].
    Policy(ExpandPolicy),
    /// Supervised re-expansion after a page repair: the live thread with
    /// the largest *deficit* below its desired budget grows first, so
    /// the most-shrunk thread recovers first.
    MostShrunk,
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
    /// No thread held the page: it was free (capacity shrank by one) or
    /// under repair (capacity unchanged).
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

/// Page bookkeeping for the multithreaded CGRA.
#[derive(Debug, Clone)]
pub struct Allocator {
    /// `u64` words per page bitset: the health column's.
    words: usize,
    /// The owner column: thread `t` owns the pages of
    /// `owned[t * words..][..words]`, and its budget is their count.
    owned: Vec<u64>,
    /// Pages that are usable and unowned.
    free: Vec<u64>,
    /// By budget `x`: the largest chain budget ≤ `x`, the least > `x` (0: none).
    chain: Vec<(u16, u16)>,
    /// The health column.
    health: FaultMap,
}

/// The word and the bit of `page` in a page bitset.
fn bit(page: u16) -> (usize, u64) {
    (usize::from(page / 64), 1 << (page % 64))
}

/// The pages in a page bitset.
fn count(bits: &[u64]) -> u16 {
    bits.iter().map(|w| w.count_ones() as u16).sum()
}

impl Allocator {
    /// An allocator over `n` healthy pages.
    pub fn new(n: u16) -> Self {
        // Walk the budgets down, halving past each as `halving_chain` does.
        let mut chain = vec![(0, 0); usize::from(n) + 1];
        let (mut at_most, mut above) = (n, 0);
        for x in (0..=n).rev() {
            while at_most > x {
                (at_most, above) = (at_most / 2, at_most);
            }
            chain[usize::from(x)] = (at_most, above);
        }
        let health = FaultMap::new(n);
        let [usable, ..] = health.words();
        Allocator {
            words: usable.len(),
            owned: Vec::new(),
            free: usable.to_vec(),
            chain,
            health,
        }
    }

    /// Pages currently unallocated (and usable).
    pub fn free_pages(&self) -> u16 {
        count(&self.free)
    }

    /// Pages still usable (free or owned; excludes dead and repairing).
    pub fn usable_pages(&self) -> u16 {
        let [usable, ..] = self.health.words();
        count(usable)
    }

    /// Pages held by threads.
    pub fn busy_pages(&self) -> u16 {
        self.usable_pages() - self.free_pages()
    }

    /// Current allocation of a thread (None if not on the CGRA).
    pub fn allocation(&self, thread: usize) -> Option<u16> {
        Some(count(self.slot(thread))).filter(|&pages| pages > 0)
    }

    /// The page bitset of `thread` (empty beyond the owner column).
    fn slot(&self, thread: usize) -> &[u64] {
        let at = thread * self.words;
        self.owned.get(at..at + self.words).unwrap_or_default()
    }

    /// The thread owning `page`, if any.
    pub fn owner_of(&self, page: u16) -> Option<usize> {
        let (w, b) = bit(page);
        let mut slots = self.owned.chunks(self.words);
        slots.position(|slot| slot.get(w).is_some_and(|x| x & b != 0))
    }

    /// The physical pages held by `thread`, ascending (for trace events).
    pub fn pages_of(&self, thread: usize) -> Vec<u16> {
        let (slot, pages) = (self.slot(thread), 0..self.health.num_pages());
        pages
            .filter(|&p| slot.get(bit(p).0).is_some_and(|w| w & bit(p).1 != 0))
            .collect()
    }

    /// Whether any page `thread` holds is degraded.
    pub fn holds_degraded(&self, thread: usize) -> bool {
        let [_, degraded, _] = self.health.words();
        let slot = self.slot(thread).iter();
        slot.zip(degraded).any(|(s, d)| s & d != 0)
    }

    /// A typed error when `page` lies outside the fabric.
    pub fn check_page(&self, page: u16) -> Result<(), SimError> {
        let num_pages = self.health.num_pages();
        (page < num_pages)
            .then_some(())
            .ok_or(SimError::PageOutOfRange { page, num_pages })
    }

    fn largest_chain_at_most(&self, x: u16) -> Option<u16> {
        let (at_most, _) = self.chain[usize::from(x).min(self.chain.len() - 1)];
        (at_most > 0).then_some(at_most)
    }

    fn chain_above(&self, c: u16) -> Option<u16> {
        let (_, above) = *self.chain.get(usize::from(c))?;
        (above > 0).then_some(above)
    }

    fn chain_below(&self, c: u16) -> Option<u16> {
        self.largest_chain_at_most(c.checked_sub(1)?)
    }

    /// Hand the `count` (≤ free) lowest-numbered free pages to `thread`,
    /// growing the owner column to its slot.
    fn take_free(&mut self, thread: usize, count: u16) {
        let at = thread * self.words;
        if self.owned.len() < at + self.words {
            self.owned.resize(at + self.words, 0);
        }
        let mut left = count;
        let slot = &mut self.owned[at..][..self.words];
        for (free, held) in self.free.iter_mut().zip(slot) {
            while left > 0 && *free != 0 {
                let page = *free & free.wrapping_neg();
                (*free, *held, left) = (*free ^ page, *held | page, left - 1);
            }
        }
        debug_assert_eq!(left, 0, "asked for more pages than are free");
    }

    /// Return `thread`'s `count` (≤ its budget) highest-numbered pages to
    /// the free pool.
    fn give_back(&mut self, thread: usize, count: u16) {
        let mut left = count;
        let slot = &mut self.owned[thread * self.words..][..self.words];
        for (free, held) in self.free.iter_mut().zip(slot).rev() {
            while left > 0 && *held != 0 {
                let page = 1 << (63 - held.leading_zeros());
                (*held, *free, left) = (*held ^ page, *free | page, left - 1);
            }
        }
        debug_assert_eq!(left, 0, "gave back more pages than are owned");
    }

    /// Request pages for `thread` (wanting `want`, a halving-chain value).
    pub fn request(&mut self, thread: usize, want: u16) -> Result<RequestOutcome, SimError> {
        debug_assert_eq!(
            self.largest_chain_at_most(want),
            Some(want),
            "want off the chain"
        );
        if self.allocation(thread).is_some() {
            return Err(SimError::InvariantViolated {
                detail: format!("thread {thread} requested pages while already on the CGRA"),
            });
        }
        // Unused portion first: no transformation of anyone needed.
        if let Some(pages) = self.largest_chain_at_most(self.free_pages().min(want)) {
            self.take_free(thread, pages);
            return Ok(RequestOutcome::Granted { pages });
        }
        // Shrink the thread using the most pages (ties: lowest id).
        let (mut victim, mut victim_was) = (0, 0);
        for (id, slot) in self.owned.chunks_exact(self.words).enumerate() {
            let pages = count(slot);
            if pages > victim_was {
                (victim, victim_was) = (id, pages);
            }
        }
        // No tenant (a budget of 0), or everyone already at 1 page.
        let Some(new_pages) = self.chain_below(victim_was) else {
            return Ok(RequestOutcome::Queued);
        };
        self.give_back(victim, victim_was - new_pages);
        let pages = self
            .largest_chain_at_most(self.free_pages().min(want))
            .ok_or_else(|| SimError::InvariantViolated {
                detail: "shrink freed no usable budget".to_string(),
            })?;
        self.take_free(thread, pages);
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
            .allocation(thread)
            .ok_or(SimError::UnknownThread { thread })?;
        self.give_back(thread, pages);
        Ok(pages)
    }

    /// A page died. A usable page leaves the pool: if a thread owned it
    /// that thread drops to the next halving-chain budget below (its
    /// other freed pages return to the pool), or loses its allocation
    /// entirely when it was already at one page. A page under repair
    /// dies again without changing capacity.
    pub fn kill_page(&mut self, page: u16) -> Result<PageDeath, SimError> {
        self.check_page(page)?;
        let was = self.health.health(page);
        if was == PageHealth::Dead {
            return Ok(PageDeath::AlreadyDead);
        }
        self.health.mark_page(page, PageHealth::Dead);
        if was == PageHealth::Repairing {
            return Ok(PageDeath::Unallocated);
        }
        let (w, b) = bit(page);
        let Some(victim) = self.owner_of(page) else {
            self.free[w] &= !b;
            return Ok(PageDeath::Unallocated);
        };
        // The budget still counts the dead page until its bit is cleared.
        let from_pages = count(self.slot(victim));
        self.owned[victim * self.words + w] &= !b;
        match self.chain_below(from_pages) {
            // Was at the chain bottom (one page): fully evicted.
            None => Ok(PageDeath::Revoked { victim }),
            Some(to_pages) => {
                // The thread keeps `to_pages` of its surviving pages; the
                // rest (beyond the dead one) free up.
                self.give_back(victim, from_pages - 1 - to_pages);
                Ok(PageDeath::Shrunk {
                    victim,
                    from_pages,
                    to_pages,
                })
            }
        }
    }

    /// A healthy page degrades (Healthy → Degraded): it stays usable, but
    /// its owner runs slower. Returns `false`, changing nothing, when the
    /// page is not healthy.
    pub fn degrade(&mut self, page: u16) -> Result<bool, SimError> {
        self.check_page(page)?;
        let healthy = self.health.health(page) == PageHealth::Healthy;
        if healthy {
            self.health.mark_page(page, PageHealth::Degraded);
        }
        Ok(healthy)
    }

    /// Dead → Repairing: the page stays unusable until
    /// [`commit_repair`](Allocator::commit_repair). Any other page is
    /// left unchanged.
    pub fn begin_repair(&mut self, page: u16) -> Result<(), SimError> {
        self.check_page(page)?;
        self.health.begin_repair(page);
        Ok(())
    }

    /// Repairing → Healthy: the page returns to the free pool. Returns
    /// `false`, changing nothing, when the page is not under repair, so
    /// a stale completion can never double-count capacity.
    pub fn commit_repair(&mut self, page: u16) -> Result<bool, SimError> {
        self.check_page(page)?;
        let repairing = self.health.health(page) == PageHealth::Repairing;
        if repairing {
            self.health.complete_repair(page);
            let (w, b) = bit(page);
            self.free[w] |= b;
        }
        Ok(repairing)
    }

    /// One expansion step: grow, by one chain step capped at `want`, the
    /// tenant that comes first in `order` among those below their want
    /// whose step the free pages can pay for. `None` when no tenant
    /// qualifies. Ties go to the lowest id, so the pick is
    /// deterministic.
    pub fn grow(
        &mut self,
        order: Growth,
        want: impl Fn(usize) -> u16,
    ) -> Result<Option<Expansion>, SimError> {
        let key = |pages: u16, desired: u16| match order {
            Growth::Policy(ExpandPolicy::LargestFirst) => -i32::from(pages),
            Growth::MostShrunk => i32::from(pages) - i32::from(desired),
            _ => i32::from(pages),
        };
        let free = self.free_pages();
        // Every step costs at least one free page.
        if free == 0 || order == Growth::Policy(ExpandPolicy::None) {
            return Ok(None);
        }
        // The first tenant with the least key (ties: lowest id).
        let mut pick: Option<(i32, usize, u16, u16)> = None;
        for (id, slot) in self.owned.chunks_exact(self.words).enumerate() {
            let pages = count(slot);
            if pages == 0 {
                continue;
            }
            let desired = want(id);
            let Some(up) = self.chain_above(pages).map(|above| above.min(desired)) else {
                continue;
            };
            let k = key(pages, desired);
            if up > pages && up - pages <= free && pick.is_none_or(|(best, ..)| k < best) {
                pick = Some((k, id, pages, up));
            }
        }
        let Some((_, thread, from_pages, to_pages)) = pick else {
            return Ok(None);
        };
        self.take_free(thread, to_pages - from_pages);
        Ok(Some(Expansion {
            thread,
            from_pages,
            to_pages,
        }))
    }

    /// Sanity in word operations, naming the first clause that fails:
    /// the owner column holds whole slots; no page has two owners; owned
    /// pages are usable; free = usable − owned; owned + free + unusable
    /// = n; and the health column is well-formed (degraded pages are
    /// usable, repairing pages are not, no bit lies past page n).
    pub fn check_invariant(&self) -> Result<(), SimError> {
        self.check_with(self.health.words())
    }

    /// [`check_invariant`](Allocator::check_invariant) over the given
    /// usable, degraded and repairing words.
    fn check_with(&self, [usable, degraded, repairing]: [&[u64]; 3]) -> Result<(), SimError> {
        #[cfg(test)]
        tests::CHECKS.with(|c| c.set(c.get() + 1));
        let fail = |detail: String| Err(SimError::InvariantViolated { detail });
        let words = self.words;
        if !self.owned.len().is_multiple_of(words) {
            return fail("the owner column holds a partial slot".to_string());
        }
        let n = u32::from(self.health.num_pages());
        let (mut pages, mut malformed) = (0, false);
        for w in 0..words {
            let (mut owned, mut shared) = (0u64, 0u64);
            for x in self.owned.chunks_exact(words).map(|slot| slot[w]) {
                (owned, shared) = (owned | x, shared | (owned & x));
            }
            if shared != 0 {
                return fail(format!("a page in word {w} has two owners"));
            }
            if owned & !usable[w] != 0 {
                return fail(format!("an owned page in word {w} is not usable"));
            }
            if self.free[w] != usable[w] & !owned {
                return fail(format!("free word {w} is not usable minus owned"));
            }
            // The fabric's pages in this word.
            let fabric = u64::MAX
                .checked_shr(64 - n.saturating_sub(64 * w as u32).min(64))
                .unwrap_or(0);
            let unusable = fabric & !usable[w];
            // The clauses above make the three sets disjoint.
            pages += (owned | self.free[w] | unusable).count_ones();
            let any = usable[w] | degraded[w] | repairing[w];
            malformed |= degraded[w] & !usable[w] | repairing[w] & usable[w] | any & !fabric != 0;
        }
        if pages != n {
            return fail("owned + free + unusable pages do not sum to the fabric".to_string());
        }
        if malformed {
            return fail("the health column is malformed".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::kernel_lib::halving_chain;
    use std::cmp::Reverse;

    thread_local! {
        /// Calls to [`Allocator::check_invariant`] on this thread.
        pub(crate) static CHECKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    #[test]
    fn first_thread_gets_what_it_wants() {
        let mut a = Allocator::new(8);
        assert_eq!(
            a.request(0, 8).unwrap(),
            RequestOutcome::Granted { pages: 8 }
        );
        assert_eq!(a.pages_of(0), (0..8).collect::<Vec<u16>>());
        a.check_invariant().unwrap();
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
        a.check_invariant().unwrap();
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
        a.check_invariant().unwrap();
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
        a.check_invariant().unwrap();
    }

    #[test]
    fn queue_when_everyone_at_one_page() {
        let mut a = Allocator::new(2);
        a.request(0, 2).unwrap();
        a.request(1, 2).unwrap(); // 1 + 1
        assert_eq!(a.request(2, 2).unwrap(), RequestOutcome::Queued);
        a.check_invariant().unwrap();
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
        a.check_invariant().unwrap();
    }

    #[test]
    fn release_and_expand_smallest_first() {
        let mut a = Allocator::new(8);
        a.request(0, 8).unwrap();
        a.request(1, 8).unwrap(); // 4+4
        a.request(2, 8).unwrap(); // 2+4+2
        assert_eq!(a.allocation(0), Some(2));
        a.release(1).unwrap();
        let grown = grow_all(&mut a, Growth::Policy(ExpandPolicy::SmallestFirst), |_| 8);
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
        a.check_invariant().unwrap();
    }

    #[test]
    fn expansion_respects_want() {
        let mut a = Allocator::new(8);
        a.request(0, 2).unwrap();
        let grown = grow_all(&mut a, Growth::Policy(ExpandPolicy::SmallestFirst), |_| 2);
        assert!(grown.is_empty(), "{grown:?}");
    }

    #[test]
    fn expand_none_is_inert() {
        let mut a = Allocator::new(8);
        a.request(0, 2).unwrap();
        assert!(grow_all(&mut a, Growth::Policy(ExpandPolicy::None), |_| 8).is_empty());
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
        a.check_invariant().unwrap();
    }

    #[test]
    fn release_unknown_thread_is_typed_error() {
        let mut a = Allocator::new(4);
        assert_eq!(a.release(3), Err(SimError::UnknownThread { thread: 3 }));
    }

    #[test]
    fn chain_table_walks_the_halving_chain() {
        for n in (0..=300).chain([1023, 4096, u16::MAX]) {
            let a = Allocator::new(n);
            let chain = halving_chain(n);
            for x in 0..=n {
                let at_most = chain.iter().copied().find(|&c| c <= x);
                assert_eq!(a.largest_chain_at_most(x), at_most, "n={n} x={x}");
                let above = chain.iter().copied().rev().find(|&c| c > x);
                assert_eq!(a.chain_above(x), above, "n={n} x={x}");
            }
        }
    }

    #[test]
    fn extreme_fabric_sizes_keep_the_invariant() {
        // No pages at all: nothing is free, usable or grantable.
        let mut a = Allocator::new(0);
        assert_eq!((a.free_pages(), a.usable_pages()), (0, 0));
        assert_eq!(
            a.kill_page(0),
            Err(SimError::PageOutOfRange {
                page: 0,
                num_pages: 0
            })
        );
        a.check_invariant().unwrap();
        // The largest fabric: 1024 words per bitset, the last one partial.
        let n = u16::MAX;
        let mut a = Allocator::new(n);
        assert_eq!(
            a.request(0, n).unwrap(),
            RequestOutcome::Granted { pages: n }
        );
        let victim = RequestOutcome::Shrunk {
            victim: 0,
            victim_was: n,
            victim_pages: n / 2,
            pages: n / 4,
        };
        assert_eq!(a.request(1, n / 4).unwrap(), victim);
        assert_eq!(a.pages_of(1), (n / 2..n / 2 + n / 4).collect::<Vec<u16>>());
        assert_eq!(a.owner_of(n - 1), None);
        assert_eq!(a.kill_page(n - 1).unwrap(), PageDeath::Unallocated);
        assert_eq!(
            a.kill_page(0).unwrap(),
            PageDeath::Shrunk {
                victim: 0,
                from_pages: n / 2,
                to_pages: n / 4,
            }
        );
        assert_eq!(a.pages_of(0), (1..=n / 4).collect::<Vec<u16>>());
        a.check_invariant().unwrap();
    }

    #[test]
    fn kill_free_page_shrinks_capacity() {
        let mut a = Allocator::new(4);
        assert_eq!(a.kill_page(2).unwrap(), PageDeath::Unallocated);
        assert_eq!(a.free_pages(), 3);
        assert_eq!(a.usable_pages(), 3);
        assert_eq!(a.kill_page(2).unwrap(), PageDeath::AlreadyDead);
        a.check_invariant().unwrap();
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
        a.check_invariant().unwrap();
    }

    #[test]
    fn kill_last_page_revokes_thread() {
        let mut a = Allocator::new(2);
        a.request(0, 2).unwrap();
        a.request(1, 2).unwrap(); // 1 + 1
        let page = a.pages_of(1)[0];
        assert_eq!(a.kill_page(page).unwrap(), PageDeath::Revoked { victim: 1 });
        assert_eq!(a.allocation(1), None);
        a.check_invariant().unwrap();
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
    fn repair_returns_dead_page_to_the_pool() {
        let mut a = Allocator::new(4);
        a.kill_page(2).unwrap();
        assert_eq!(a.free_pages(), 3);
        assert_eq!(a.usable_pages(), 3);
        // A dead page commits nothing until its repair has begun, and a
        // page under repair is still unusable.
        assert!(!a.commit_repair(2).unwrap());
        a.begin_repair(2).unwrap();
        assert_eq!(a.usable_pages(), 3);
        assert!(a.commit_repair(2).unwrap());
        assert_eq!(a.free_pages(), 4);
        assert_eq!(a.usable_pages(), 4);
        // A second commit and committing a live page are no-ops.
        assert!(!a.commit_repair(2).unwrap());
        assert_eq!(a.free_pages(), 4);
        a.request(0, 4).unwrap();
        a.begin_repair(0).unwrap();
        assert!(!a.commit_repair(0).unwrap());
        let out_of_range = SimError::PageOutOfRange {
            page: 9,
            num_pages: 4,
        };
        assert_eq!(a.commit_repair(9), Err(out_of_range.clone()));
        assert_eq!(a.begin_repair(9), Err(out_of_range));
        a.check_invariant().unwrap();
    }

    #[test]
    fn repaired_page_is_grantable_again() {
        let mut a = Allocator::new(2);
        a.request(0, 2).unwrap();
        a.request(1, 2).unwrap(); // 1 + 1
        let page = a.pages_of(1)[0];
        assert_eq!(a.kill_page(page).unwrap(), PageDeath::Revoked { victim: 1 });
        assert_eq!(a.request(1, 2).unwrap(), RequestOutcome::Queued);
        a.begin_repair(page).unwrap();
        assert_eq!(a.request(1, 2).unwrap(), RequestOutcome::Queued);
        assert!(a.commit_repair(page).unwrap());
        assert_eq!(
            a.request(1, 2).unwrap(),
            RequestOutcome::Granted { pages: 1 }
        );
        assert_eq!(a.pages_of(1), vec![page]);
        a.check_invariant().unwrap();
    }

    #[test]
    fn kill_while_repairing_keeps_capacity_and_stops_the_commit() {
        let mut a = Allocator::new(4);
        a.kill_page(1).unwrap();
        a.begin_repair(1).unwrap();
        assert_eq!(a.kill_page(1).unwrap(), PageDeath::Unallocated);
        assert_eq!((a.free_pages(), a.usable_pages()), (3, 3));
        assert!(!a.commit_repair(1).unwrap(), "the page is dead again");
        assert_eq!(a.kill_page(1).unwrap(), PageDeath::AlreadyDead);
        a.check_invariant().unwrap();
    }

    #[test]
    fn degrade_marks_only_healthy_pages_and_its_owner_sees_it() {
        let mut a = Allocator::new(4);
        a.request(0, 2).unwrap(); // pages 0 and 1
        assert!(!a.holds_degraded(0));
        assert!(a.degrade(1).unwrap());
        assert!(a.holds_degraded(0));
        assert!(!a.degrade(1).unwrap(), "already degraded");
        a.kill_page(3).unwrap();
        assert!(!a.degrade(3).unwrap(), "dead");
        // A degraded page stays usable and owned.
        assert_eq!((a.usable_pages(), a.busy_pages()), (3, 2));
        a.check_invariant().unwrap();
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
        let grown = grow_all(&mut a, Growth::MostShrunk, wants);
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
        a.check_invariant().unwrap();
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
        let grown = grow_all(&mut a, Growth::MostShrunk, |_| 8);
        assert_eq!(grown.len(), 2);
        assert_eq!(grown[0].thread, 0);
        assert_eq!((grown[0].from_pages, grown[0].to_pages), (2, 4));
        assert_eq!(grown[1].thread, 2);
        a.check_invariant().unwrap();
    }

    #[test]
    fn expand_most_shrunk_respects_want_and_empty_pool() {
        let mut a = Allocator::new(8);
        a.request(0, 2).unwrap();
        // Satisfied threads never grow.
        assert!(grow_all(&mut a, Growth::MostShrunk, |_| 2).is_empty());
        // Nothing free: no growth even with a deficit.
        let mut b = Allocator::new(2);
        b.request(0, 2).unwrap();
        b.request(1, 2).unwrap();
        assert!(grow_all(&mut b, Growth::MostShrunk, |_| 2).is_empty());
    }

    /// Two tenants — thread 0 on pages 0–3, thread 1 on pages 4–5 — and
    /// two free pages, in a consistent state.
    fn two_tenants() -> Allocator {
        let mut a = Allocator::new(8);
        a.request(0, 4).unwrap();
        a.request(1, 2).unwrap();
        a.check_invariant().unwrap();
        a
    }

    /// The clause `check_invariant` names for a corrupted table.
    fn violation(a: &Allocator) -> String {
        match a.check_invariant() {
            Err(SimError::InvariantViolated { detail }) => detail,
            other => panic!("corruption not caught: {other:?}"),
        }
    }

    /// The clause `check_invariant` names when `corrupt` changes copies
    /// of the usable, degraded and repairing words.
    fn health_violation(a: &Allocator, corrupt: impl FnOnce(&mut [Vec<u64>; 3])) -> String {
        let mut columns = a.health.words().map(<[u64]>::to_vec);
        corrupt(&mut columns);
        match a.check_with(columns.each_ref().map(Vec::as_slice)) {
            Err(SimError::InvariantViolated { detail }) => detail,
            other => panic!("corruption not caught: {other:?}"),
        }
    }

    #[test]
    fn invariant_fails_on_an_owned_unusable_page() {
        // A tenant's page dies in the health column only.
        let mut a = two_tenants();
        a.health.mark_page(0, PageHealth::Dead);
        assert_eq!(violation(&a), "an owned page in word 0 is not usable");
    }

    #[test]
    fn invariant_fails_on_a_page_with_two_owners() {
        // Thread 1 also holds thread 0's page 0.
        let mut a = two_tenants();
        a.owned[a.words] |= 1;
        assert_eq!(violation(&a), "a page in word 0 has two owners");
    }

    #[test]
    fn invariant_fails_when_free_is_not_usable_minus_owned() {
        let mut a = two_tenants();
        a.free[0] |= 1; // an owned page is also free
        let mut b = two_tenants();
        b.free[0] &= !(1 << 6); // a free page went missing
        let mut c = two_tenants();
        c.health.mark_page(7, PageHealth::Dead); // a free page is not usable
        for x in [a, b, c] {
            assert_eq!(violation(&x), "free word 0 is not usable minus owned");
        }
    }

    #[test]
    fn invariant_fails_when_counts_do_not_sum_to_n() {
        // The sets agree with each other, but a ninth page appears
        // beyond the end of an 8-page fabric.
        let mut a = two_tenants();
        a.free[0] |= 1 << 8;
        assert_eq!(
            health_violation(&a, |[usable, ..]| usable[0] |= 1 << 8),
            "owned + free + unusable pages do not sum to the fabric"
        );
    }

    #[test]
    fn invariant_fails_on_a_malformed_health_column() {
        // A dead page that is also degraded, a free page that is also
        // repairing, and a repairing page past the end of the fabric.
        let mut a = two_tenants();
        a.kill_page(7).unwrap();
        a.check_invariant().unwrap();
        let corruptions: [fn(&mut [Vec<u64>; 3]); 3] = [
            |[_, degraded, _]| degraded[0] |= 1 << 7,
            |[.., repairing]| repairing[0] |= 1 << 6,
            |[.., repairing]| repairing[0] |= 1 << 8,
        ];
        for corrupt in corruptions {
            assert_eq!(
                health_violation(&a, corrupt),
                "the health column is malformed"
            );
        }
    }

    #[test]
    fn invariant_fails_on_an_owner_table_of_the_wrong_length() {
        // Two words per slot: one extra word is a partial slot.
        let mut a = Allocator::new(65);
        a.request(0, 65).unwrap();
        a.owned.push(0);
        assert_eq!(violation(&a), "the owner column holds a partial slot");
    }

    impl Allocator {
        /// The threads on the CGRA and their budgets, ascending by id.
        fn tenants(&self) -> impl Iterator<Item = (usize, u16)> + '_ {
            let budget =
                |(t, slot): (usize, &[u64])| slot.iter().any(|&w| w != 0).then(|| (t, count(slot)));
            self.owned.chunks(self.words).enumerate().filter_map(budget)
        }
    }

    /// Every [`Allocator::grow`] step in `order` until none applies.
    fn grow_all(a: &mut Allocator, order: Growth, want: impl Fn(usize) -> u16) -> Vec<Expansion> {
        let mut applied = Vec::new();
        while let Some(ex) = a.grow(order, &want).unwrap() {
            applied.push(ex);
        }
        applied
    }

    /// The collect-and-sort selection that `grow` replaced, kept as the
    /// reference it must agree with: each round sorts the tenants below
    /// their want by the order's key and grows the first affordable one.
    fn sorted_reference(
        a: &mut Allocator,
        order: Growth,
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
                Growth::Policy(ExpandPolicy::SmallestFirst) => {
                    candidates.sort_by_key(|&(id, p, _)| (p, id))
                }
                Growth::Policy(ExpandPolicy::LargestFirst) => {
                    candidates.sort_by_key(|&(id, p, _)| (Reverse(p), id))
                }
                Growth::Policy(ExpandPolicy::None) => return applied,
                Growth::MostShrunk => candidates.sort_by_key(|&(id, p, d)| (Reverse(d - p), id)),
            }
            let pick = candidates.into_iter().find_map(|(id, pages, desired)| {
                let up = a.chain_above(pages)?.min(desired);
                (up > pages && up - pages <= a.free_pages()).then_some((id, pages, up))
            });
            let Some((thread, from_pages, to_pages)) = pick else {
                return applied;
            };
            a.take_free(thread, to_pages - from_pages);
            applied.push(Expansion {
                thread,
                from_pages,
                to_pages,
            });
        }
    }

    /// The selection `request` made before its one-pass scan, kept as the
    /// reference it must agree with: the tenant with the most pages, ties
    /// to the lowest id.
    fn victim_reference(a: &Allocator) -> Option<(usize, u16)> {
        a.tenants().max_by_key(|&(id, pages)| (pages, Reverse(id)))
    }

    /// [`Allocator::request`] for a thread off the CGRA, with its shrink
    /// victim picked by [`victim_reference`].
    fn request_reference(a: &mut Allocator, thread: usize, want: u16) -> RequestOutcome {
        if let Some(pages) = a.largest_chain_at_most(a.free_pages().min(want)) {
            a.take_free(thread, pages);
            return RequestOutcome::Granted { pages };
        }
        let Some((victim, victim_was)) = victim_reference(a) else {
            return RequestOutcome::Queued;
        };
        let Some(victim_pages) = a.chain_below(victim_was) else {
            return RequestOutcome::Queued;
        };
        a.give_back(victim, victim_was - victim_pages);
        let pages = a.largest_chain_at_most(a.free_pages().min(want)).unwrap();
        a.take_free(thread, pages);
        RequestOutcome::Shrunk {
            victim,
            victim_was,
            victim_pages,
            pages,
        }
    }

    /// A consistent allocator with random tenants (budgets on the chain,
    /// pages scattered over the fabric, some pages dead or repairing), and a random
    /// want per thread id, some of them off the chain.
    fn random_tenants(rng: &mut rand::rngs::StdRng) -> (Allocator, Vec<u16>) {
        use rand::Rng;
        let n = rng.gen_range(1..=140u16);
        let mut a = Allocator::new(n);
        let mut order: Vec<usize> = (0..n as usize).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let chain = halving_chain(n);
        let threads = rng.gen_range(1..=10usize);
        let mut taken = 0;
        for t in 0..threads {
            let budget = chain[rng.gen_range(0..chain.len())] as usize;
            if rng.gen_bool(0.25) || taken + budget > order.len() {
                continue;
            }
            a.owned.resize((t + 1) * a.words, 0);
            for &p in &order[taken..taken + budget] {
                let (w, b) = bit(p as u16);
                a.owned[t * a.words + w] |= b;
                a.free[w] &= !b;
            }
            taken += budget;
        }
        for &p in &order[taken..] {
            if rng.gen_bool(0.2) {
                a.kill_page(p as u16).unwrap();
                if rng.gen_bool(0.5) {
                    a.begin_repair(p as u16).unwrap();
                }
            }
        }
        a.check_invariant().unwrap();
        let wants = (0..threads).map(|_| rng.gen_range(0..=n + 1)).collect();
        (a, wants)
    }

    #[test]
    fn grow_picks_what_the_sorted_reference_picks() {
        use rand::SeedableRng;
        let orders = [
            Growth::Policy(ExpandPolicy::SmallestFirst),
            Growth::Policy(ExpandPolicy::LargestFirst),
            Growth::Policy(ExpandPolicy::None),
            Growth::MostShrunk,
        ];
        for seed in 0..500 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (start, wants) = random_tenants(&mut rng);
            for order in orders {
                let want = |t: usize| wants[t];
                let mut expected = start.clone();
                let reference = sorted_reference(&mut expected, order, want);
                let mut actual = start.clone();
                let grown = grow_all(&mut actual, order, want);
                assert_eq!(grown, reference, "seed {seed}, {order:?}");
                assert_eq!(actual.owned, expected.owned, "seed {seed}, {order:?}");
                assert_eq!(actual.free, expected.free, "seed {seed}, {order:?}");
                actual.check_invariant().unwrap();
            }
        }
    }

    #[test]
    fn request_picks_what_the_victim_reference_picks() {
        use rand::{Rng, SeedableRng};
        for seed in 0..1000 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (start, wants) = random_tenants(&mut rng);
            // Any thread off the CGRA may ask, for any budget on the chain.
            let idle: Vec<usize> = (0..=wants.len())
                .filter(|&t| start.allocation(t).is_none())
                .collect();
            let thread = idle[rng.gen_range(0..idle.len())];
            let chain = halving_chain(start.health.num_pages());
            let want = chain[rng.gen_range(0..chain.len())];
            let mut expected = start.clone();
            let reference = request_reference(&mut expected, thread, want);
            let mut actual = start.clone();
            let outcome = actual.request(thread, want).unwrap();
            let why = format!("seed {seed}, thread {thread} wants {want}");
            assert_eq!(outcome, reference, "{why}");
            assert_eq!(actual.owned, expected.owned, "{why}");
            assert_eq!(actual.free, expected.free, "{why}");
            actual.check_invariant().unwrap();
        }
    }
}
