//! The per-node lock table behind the lock manager of 2PL, 2PL-T,
//! wound-wait and wait-die ([`Locking`](crate::locking::Locking)).
//!
//! Read locks share; write locks exclude. Requests that cannot be granted
//! join a FIFO queue, except lock *upgrades* (read → write by the holder),
//! which queue ahead of ordinary waiters. On every release the longest
//! grantable prefix of the queue is granted.

use crate::common::LockMode;
use crate::dense::{PageTable, TxnLists};
use ddbm_config::{PageId, TxnId};
use std::collections::{BTreeSet, VecDeque};

/// Outcome of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock is held; proceed.
    Granted,
    /// The request joined the wait queue.
    Queued,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WaitReq {
    txn: TxnId,
    mode: LockMode,
    /// True when the transaction already holds a read lock on the page and
    /// is converting it to a write lock.
    is_upgrade: bool,
}

#[derive(Debug, Default)]
struct PageLock {
    holders: Vec<(TxnId, LockMode)>,
    queue: VecDeque<WaitReq>,
}

impl PageLock {
    fn can_grant(&self, req: &WaitReq) -> bool {
        if req.is_upgrade {
            // An upgrade is grantable only when the upgrader is the sole holder.
            self.holders.len() == 1 && self.holders[0].0 == req.txn
        } else {
            self.holders
                .iter()
                .all(|(_, held)| held.compatible(req.mode))
        }
    }

    /// The transactions the request at queue position `i` waits behind:
    /// conflicting holders (every other holder, for an upgrade), then
    /// conflicting requests queued ahead of it, since FIFO queues make those
    /// real waits too. The one conflict rule behind both the exported
    /// waits-for edges and 2PL's local search.
    fn blockers(&self, i: usize) -> impl Iterator<Item = TxnId> + '_ {
        let w = self.queue[i];
        let holders = self
            .holders
            .iter()
            .filter(move |(_, m)| w.is_upgrade || !m.compatible(w.mode))
            .map(|(t, _)| *t);
        let ahead = self
            .queue
            .iter()
            .take(i)
            .filter(move |a| !a.mode.compatible(w.mode))
            .map(|a| a.txn);
        holders.chain(ahead).filter(move |t| *t != w.txn)
    }

    fn grant(&mut self, req: WaitReq) {
        if req.is_upgrade {
            debug_assert_eq!(self.holders.len(), 1);
            debug_assert_eq!(self.holders[0].0, req.txn);
            self.holders[0].1 = LockMode::Write;
        } else {
            self.holders.push((req.txn, req.mode));
        }
    }
}

/// The lock table for the pages stored at one node.
#[derive(Debug, Default)]
pub struct LockTable {
    /// Holders and wait queue of every page touched here. Entries stay when
    /// their last lock drops, so each keeps its buffers for the next
    /// locker.
    pages: PageTable<PageLock>,
    /// Pages each transaction holds locks on (for O(1) release).
    held: TxnLists<PageId>,
    /// Pages each transaction is queued on.
    waiting: TxnLists<PageId>,
    /// Pages whose queue is non-empty, kept sorted: [`waits_for_edges`]
    /// walks only these instead of every page touched, and their order is
    /// the order of its edges.
    ///
    /// [`waits_for_edges`]: LockTable::waits_for_edges
    queued: BTreeSet<PageId>,
    /// Grant policy: `false` (default) is strict FIFO — a request compatible
    /// with the holders still waits behind any queued request; `true` lets
    /// compatible requests barge past the queue (readers never wait for
    /// queued writers). Barging trades writer latency for fewer waits —
    /// and, in distributed 2PL, far fewer queue-edge deadlocks.
    barging: bool,
    /// Scratch for the pages touched by [`release_all`], which runs on every
    /// commit and abort — without it each release allocates a fresh list.
    ///
    /// [`release_all`]: LockTable::release_all
    touched_scratch: Vec<PageId>,
    /// Set when a grant goes to a transaction that still waits on another
    /// page here: its new incoming edges can close a waits-for cycle that
    /// does not pass through the next requester. Read and cleared by
    /// [`take_grant_to_waiter`](LockTable::take_grant_to_waiter).
    grant_to_waiter: bool,
    /// Scratch for [`waits_on_itself`](LockTable::waits_on_itself): the
    /// search stack and the waiting transactions already pushed on it.
    search: Vec<TxnId>,
    seen: Vec<TxnId>,
}

impl LockTable {
    /// A strict-FIFO (no-barging) lock table.
    pub fn new() -> LockTable {
        LockTable::default()
    }

    /// A lock table with barging grants.
    pub fn with_barging() -> LockTable {
        LockTable {
            barging: true,
            ..LockTable::default()
        }
    }

    /// Size the per-transaction page lists and the release scratch for
    /// transactions that lock at most `max_txn_accesses` pages here (see
    /// [`CcManager::preallocate`](crate::manager::CcManager::preallocate)).
    pub fn preallocate(&mut self, max_txn_accesses: usize) {
        self.held.set_capacity(max_txn_accesses);
        self.waiting.set_capacity(max_txn_accesses);
        self.touched_scratch.reserve(2 * max_txn_accesses);
    }

    /// Request a `mode` lock on `page` for `txn`.
    ///
    /// Re-requesting a page the transaction already holds is answered
    /// `Granted` (upgrading read → write when needed, possibly by queueing an
    /// upgrade request, in which case `Queued` is returned).
    pub fn request(&mut self, txn: TxnId, page: PageId, mode: LockMode) -> LockOutcome {
        let lock = self.pages.entry(page);
        // Re-requesting while already queued is idempotent (strengthening a
        // queued read to a write upgrades the queued request in place).
        if let Some(queued) = lock.queue.iter_mut().find(|w| w.txn == txn) {
            if mode == LockMode::Write {
                queued.mode = LockMode::Write;
            }
            return LockOutcome::Queued;
        }
        let held_mode = lock
            .holders
            .iter()
            .find(|(t, _)| *t == txn)
            .map(|(_, m)| *m);
        let req = match held_mode {
            Some(LockMode::Write) => return LockOutcome::Granted,
            Some(LockMode::Read) if mode == LockMode::Read => return LockOutcome::Granted,
            Some(LockMode::Read) => WaitReq {
                txn,
                mode: LockMode::Write,
                is_upgrade: true,
            },
            None => WaitReq {
                txn,
                mode,
                is_upgrade: false,
            },
        };
        // Ordinary requests respect the queue unless barging is enabled;
        // upgrades always bypass it but queue ahead of ordinary waiters.
        let grantable =
            lock.can_grant(&req) && (req.is_upgrade || lock.queue.is_empty() || self.barging);
        if grantable {
            lock.grant(req);
            if !req.is_upgrade {
                self.held.push(txn, page);
            }
            self.grant_to_waiter |= self.waiting.contains(txn);
            LockOutcome::Granted
        } else {
            if req.is_upgrade {
                // Ahead of ordinary waiters, behind earlier upgrades.
                let pos = lock.queue.iter().take_while(|w| w.is_upgrade).count();
                lock.queue.insert(pos, req);
            } else {
                lock.queue.push_back(req);
            }
            self.queued.insert(page);
            self.waiting.push(txn, page);
            LockOutcome::Queued
        }
    }

    /// Release everything `txn` holds or waits for. Returns the requests
    /// granted as a consequence, in grant order.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<(TxnId, PageId)> {
        let mut touched = std::mem::take(&mut self.touched_scratch);
        touched.clear();
        self.held.drain(txn, |page| {
            self.pages[page].holders.retain(|(t, _)| *t != txn);
            touched.push(page);
        });
        self.waiting.drain(txn, |page| {
            self.pages[page].queue.retain(|w| w.txn != txn);
            touched.push(page);
        });
        touched.sort_unstable();
        touched.dedup();
        let mut granted = Vec::new();
        for &page in &touched {
            granted.extend(self.grant_from_queue(page));
        }
        self.touched_scratch = touched;
        granted
    }

    /// Withdraw a single queued request (e.g. the requester was chosen as a
    /// deadlock victim and will abort; its *held* locks stay put until the
    /// abort protocol completes). Returns requests granted because the
    /// withdrawal unclogged the queue.
    pub fn cancel_wait(&mut self, txn: TxnId, page: PageId) -> Vec<(TxnId, PageId)> {
        self.pages.entry(page).queue.retain(|w| w.txn != txn);
        self.waiting.retain(txn, |p| *p != page);
        self.grant_from_queue(page)
    }

    /// Grant from `page`'s queue: the longest grantable prefix under strict
    /// FIFO, or every grantable request under barging.
    fn grant_from_queue(&mut self, page: PageId) -> Vec<(TxnId, PageId)> {
        let mut granted = Vec::new();
        let lock = self.pages.entry(page);
        let mut scan = 0usize;
        while let Some(head) = lock.queue.get(scan).copied() {
            if !lock.can_grant(&head) {
                if self.barging {
                    scan += 1;
                    continue;
                }
                break;
            }
            lock.queue.remove(scan);
            lock.grant(head);
            if !head.is_upgrade {
                self.held.push(head.txn, page);
            }
            self.waiting.retain(head.txn, |p| *p != page);
            self.grant_to_waiter |= self.waiting.contains(head.txn);
            granted.push((head.txn, page));
        }
        if lock.queue.is_empty() {
            self.queued.remove(&page);
        }
        granted
    }

    /// Current holders of `page`.
    pub fn holders(&self, page: PageId) -> Vec<(TxnId, LockMode)> {
        self.pages
            .get(page)
            .map(|l| l.holders.clone())
            .unwrap_or_default()
    }

    /// Append `page`'s current holders to `out` (allocation-free variant of
    /// [`holders`](LockTable::holders) for hot callers).
    pub fn holders_into(&self, page: PageId, out: &mut Vec<(TxnId, LockMode)>) {
        if let Some(l) = self.pages.get(page) {
            out.extend(l.holders.iter().copied());
        }
    }

    /// Append `page`'s queued requests to `out` in queue order
    /// (allocation-free variant of [`waiters`](LockTable::waiters)).
    pub fn waiters_into(&self, page: PageId, out: &mut Vec<(TxnId, LockMode)>) {
        if let Some(l) = self.pages.get(page) {
            out.extend(l.queue.iter().map(|w| (w.txn, w.mode)));
        }
    }

    /// Waits-for edges implied by the table: each waiter waits for every
    /// conflicting holder and every conflicting request queued ahead of it
    /// (FIFO queues make those real waits too).
    pub fn waits_for_edges(&self) -> Vec<(TxnId, TxnId)> {
        let mut edges = Vec::new();
        self.waits_for_edges_into(&mut edges);
        edges
    }

    /// [`waits_for_edges`], appending into a caller-owned buffer so repeated
    /// callers (the Snoop, 2PL's full local scan) can recycle the allocation.
    ///
    /// [`waits_for_edges`]: LockTable::waits_for_edges
    pub fn waits_for_edges_into(&self, edges: &mut Vec<(TxnId, TxnId)>) {
        for &page in &self.queued {
            let lock = &self.pages[page];
            for (i, w) in lock.queue.iter().enumerate() {
                edges.extend(lock.blockers(i).map(|b| (w.txn, b)));
            }
        }
    }

    /// True when `txn` reaches itself over the edges of
    /// [`waits_for_edges`](LockTable::waits_for_edges): a depth-first search
    /// from `txn` through the blockers of its queued requests, theirs, and
    /// so on. Only waiting transactions have outgoing edges, so holders that
    /// wait nowhere end a path.
    pub(crate) fn waits_on_itself(&mut self, txn: TxnId) -> bool {
        let LockTable {
            pages,
            waiting,
            search,
            seen,
            ..
        } = self;
        search.clear();
        seen.clear();
        search.push(txn);
        while let Some(t) = search.pop() {
            for &page in waiting.get(t) {
                let lock = &pages[page];
                let at = lock.queue.iter().position(|w| w.txn == t);
                let at = at.expect("a waiting transaction is queued on its pages");
                for b in lock.blockers(at) {
                    if b == txn {
                        return true;
                    }
                    if !seen.contains(&b) && waiting.contains(b) {
                        seen.push(b);
                        search.push(b);
                    }
                }
            }
        }
        false
    }

    /// Whether a grant went to a transaction still waiting here since the
    /// last call (see `grant_to_waiter`); clears the flag.
    pub(crate) fn take_grant_to_waiter(&mut self) -> bool {
        std::mem::take(&mut self.grant_to_waiter)
    }

    /// The queued-page index: pages whose wait queue is currently
    /// non-empty, in ascending order. This is the incrementally maintained
    /// index that [`waits_for_edges`](LockTable::waits_for_edges) walks;
    /// [`scan_queued_pages`](LockTable::scan_queued_pages) recomputes the
    /// same set naively so tests can check the index never drifts.
    pub fn queued_pages(&self) -> Vec<PageId> {
        self.queued.iter().copied().collect()
    }

    /// Recompute the queued-page set by scanning every page entry — the
    /// O(pages) reference implementation of
    /// [`queued_pages`](LockTable::queued_pages), for consistency tests.
    pub fn scan_queued_pages(&self) -> Vec<PageId> {
        self.pages
            .iter()
            .filter(|(_, lock)| !lock.queue.is_empty())
            .map(|(page, _)| page)
            .collect()
    }

    /// The queued requests on `page` in queue order.
    pub fn waiters(&self, page: PageId) -> Vec<(TxnId, LockMode)> {
        self.pages
            .get(page)
            .map(|l| l.queue.iter().map(|w| (w.txn, w.mode)).collect())
            .unwrap_or_default()
    }

    /// The pages on which `txn` is currently queued.
    pub fn wait_pages(&self, txn: TxnId) -> Vec<PageId> {
        self.waiting.get(txn).to_vec()
    }

    /// True if `txn` holds or awaits any lock.
    pub fn involves(&self, txn: TxnId) -> bool {
        self.held.contains(txn) || self.waiting.contains(txn)
    }

    /// Number of pages with holders or waiters (tests/diagnostics).
    pub fn active_pages(&self) -> usize {
        self.pages
            .iter()
            .filter(|(_, lock)| !lock.holders.is_empty() || !lock.queue.is_empty())
            .count()
    }

    /// Number of transactions currently holding at least one lock here.
    pub fn holding_txns(&self) -> usize {
        self.held.len()
    }

    /// Number of transactions currently waiting for at least one lock here.
    pub fn waiting_txns(&self) -> usize {
        self.waiting.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddbm_config::FileId;

    fn page(n: u64) -> PageId {
        PageId {
            file: FileId(0),
            page: n,
        }
    }

    #[test]
    fn shared_reads_exclusive_writes() {
        let mut lt = LockTable::new();
        assert_eq!(
            lt.request(TxnId(1), page(1), LockMode::Read),
            LockOutcome::Granted
        );
        assert_eq!(
            lt.request(TxnId(2), page(1), LockMode::Read),
            LockOutcome::Granted
        );
        assert_eq!(
            lt.request(TxnId(3), page(1), LockMode::Write),
            LockOutcome::Queued
        );
        assert_eq!(
            lt.request(TxnId(4), page(2), LockMode::Write),
            LockOutcome::Granted
        );
        assert_eq!(
            lt.request(TxnId(5), page(2), LockMode::Read),
            LockOutcome::Queued
        );
    }

    #[test]
    fn fifo_no_barging_past_queued_writer() {
        let mut lt = LockTable::new();
        lt.request(TxnId(1), page(1), LockMode::Read);
        lt.request(TxnId(2), page(1), LockMode::Write); // queued
                                                        // A new read is compatible with holders but must not barge ahead of
                                                        // the queued writer.
        assert_eq!(
            lt.request(TxnId(3), page(1), LockMode::Read),
            LockOutcome::Queued
        );
        let granted = lt.release_all(TxnId(1));
        assert_eq!(granted, vec![(TxnId(2), page(1))]);
        let granted = lt.release_all(TxnId(2));
        assert_eq!(granted, vec![(TxnId(3), page(1))]);
    }

    #[test]
    fn batch_grant_of_compatible_prefix() {
        let mut lt = LockTable::new();
        lt.request(TxnId(1), page(1), LockMode::Write);
        lt.request(TxnId(2), page(1), LockMode::Read);
        lt.request(TxnId(3), page(1), LockMode::Read);
        lt.request(TxnId(4), page(1), LockMode::Write);
        let granted = lt.release_all(TxnId(1));
        // Both reads granted together; the writer stays queued.
        assert_eq!(granted, vec![(TxnId(2), page(1)), (TxnId(3), page(1))]);
        assert_eq!(lt.holders(page(1)).len(), 2);
    }

    #[test]
    fn reentrant_requests_are_granted() {
        let mut lt = LockTable::new();
        assert_eq!(
            lt.request(TxnId(1), page(1), LockMode::Write),
            LockOutcome::Granted
        );
        assert_eq!(
            lt.request(TxnId(1), page(1), LockMode::Read),
            LockOutcome::Granted
        );
        assert_eq!(
            lt.request(TxnId(1), page(1), LockMode::Write),
            LockOutcome::Granted
        );
    }

    #[test]
    fn upgrade_of_sole_holder_is_immediate() {
        let mut lt = LockTable::new();
        lt.request(TxnId(1), page(1), LockMode::Read);
        assert_eq!(
            lt.request(TxnId(1), page(1), LockMode::Write),
            LockOutcome::Granted
        );
        assert_eq!(lt.holders(page(1)), vec![(TxnId(1), LockMode::Write)]);
    }

    #[test]
    fn upgrade_waits_for_other_readers_and_jumps_queue() {
        let mut lt = LockTable::new();
        lt.request(TxnId(1), page(1), LockMode::Read);
        lt.request(TxnId(2), page(1), LockMode::Read);
        lt.request(TxnId(3), page(1), LockMode::Write); // ordinary waiter
                                                        // T1 upgrades: must wait for T2 but goes ahead of T3.
        assert_eq!(
            lt.request(TxnId(1), page(1), LockMode::Write),
            LockOutcome::Queued
        );
        let granted = lt.release_all(TxnId(2));
        assert_eq!(granted, vec![(TxnId(1), page(1))]);
        assert_eq!(lt.holders(page(1)), vec![(TxnId(1), LockMode::Write)]);
        let granted = lt.release_all(TxnId(1));
        assert_eq!(granted, vec![(TxnId(3), page(1))]);
    }

    #[test]
    fn release_of_waiter_unclogs_queue() {
        let mut lt = LockTable::new();
        lt.request(TxnId(1), page(1), LockMode::Read);
        lt.request(TxnId(2), page(1), LockMode::Write); // queued
        lt.request(TxnId(3), page(1), LockMode::Read); // queued behind writer
                                                       // The queued writer aborts: the read behind it becomes grantable.
        let granted = lt.release_all(TxnId(2));
        assert_eq!(granted, vec![(TxnId(3), page(1))]);
    }

    #[test]
    fn waits_for_edges_cover_holders_and_queue() {
        let mut lt = LockTable::new();
        lt.request(TxnId(1), page(1), LockMode::Read);
        lt.request(TxnId(2), page(1), LockMode::Write);
        lt.request(TxnId(3), page(1), LockMode::Write);
        let mut edges = lt.waits_for_edges();
        edges.sort();
        assert_eq!(
            edges,
            vec![
                (TxnId(2), TxnId(1)), // waiter → holder
                (TxnId(3), TxnId(1)), // waiter → holder
                (TxnId(3), TxnId(2)), // waiter → conflicting waiter ahead
            ]
        );
    }

    #[test]
    fn upgrade_edge_against_compatible_read_holder() {
        let mut lt = LockTable::new();
        lt.request(TxnId(1), page(1), LockMode::Read);
        lt.request(TxnId(2), page(1), LockMode::Read);
        lt.request(TxnId(1), page(1), LockMode::Write); // upgrade, waits on T2
        let edges = lt.waits_for_edges();
        assert_eq!(edges, vec![(TxnId(1), TxnId(2))]);
    }

    #[test]
    fn upgrade_deadlock_shows_in_edges() {
        let mut lt = LockTable::new();
        lt.request(TxnId(1), page(1), LockMode::Read);
        lt.request(TxnId(2), page(1), LockMode::Read);
        lt.request(TxnId(1), page(1), LockMode::Write);
        lt.request(TxnId(2), page(1), LockMode::Write);
        let mut edges = lt.waits_for_edges();
        edges.sort();
        assert!(edges.contains(&(TxnId(1), TxnId(2))));
        assert!(edges.contains(&(TxnId(2), TxnId(1))));
    }

    #[test]
    fn release_leaves_no_lock_state() {
        let mut lt = LockTable::new();
        lt.request(TxnId(1), page(1), LockMode::Write);
        lt.request(TxnId(1), page(2), LockMode::Read);
        assert_eq!(lt.active_pages(), 2);
        assert!(lt.involves(TxnId(1)));
        assert!(lt.release_all(TxnId(1)).is_empty());
        assert_eq!(lt.active_pages(), 0);
        assert!(!lt.involves(TxnId(1)));
    }

    #[test]
    fn wait_pages_tracking() {
        let mut lt = LockTable::new();
        lt.request(TxnId(1), page(1), LockMode::Write);
        lt.request(TxnId(2), page(1), LockMode::Write);
        assert_eq!(lt.wait_pages(TxnId(2)), vec![page(1)]);
        lt.release_all(TxnId(1));
        assert!(lt.wait_pages(TxnId(2)).is_empty());
    }
}
