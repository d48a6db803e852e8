//! The four lock-based algorithms — distributed two-phase locking (paper
//! §2.2), its timeout-resolved variant 2PL-T, wound-wait (§2.3, after
//! Rosenkrantz et al.) and wait-die — as one manager over one [`LockTable`].
//!
//! Cohorts lock pages dynamically as they execute and hold all locks until
//! the transaction commits or aborts. Read locks share; write locks exclude;
//! an access that will update a page takes a write lock directly (the read
//! and its conversion happen at the same access instant in this workload
//! model). The algorithms differ only in how they deal with deadlock:
//!
//! * **2PL** runs *local* deadlock detection every time a cohort blocks;
//!   *global* deadlocks are found by the rotating Snoop, which unions
//!   [`CcManager::waits_for_edges_into`] from every node. In both cases the
//!   victim is the cycle member with the most recent initial startup time.
//!   The local check is incremental: while the node's graph is known to be
//!   acyclic, a new cycle must pass through the requester, so a search from
//!   it decides; only when it reaches the requester, or the graph is not
//!   known to be acyclic, is the whole graph rebuilt and resolved.
//! * **2PL-T** does nothing on block: the transaction manager aborts cohorts
//!   that stay blocked past `SystemParams::lock_timeout`.
//! * **Wound-wait** prevents deadlock with initial-startup timestamps: a
//!   waiter *wounds* every younger transaction it waits behind — reported in
//!   `must_abort` for the coordinator to kill, unless the target is already
//!   in the second phase of its commit protocol (that immunity check is the
//!   coordinator's, because only it knows the commit phase). Younger
//!   transactions simply wait for older ones.
//! * **Wait-die** (an extension; the paper evaluates wound-wait only)
//!   reverses the asymmetry: a waiter behind any *older* transaction dies
//!   (aborts itself), so every wait edge points old → young. The requester
//!   keeps its original timestamp across restarts, so it eventually becomes
//!   the oldest and cannot die forever.
//!
//! Both prevention rules apply to a waiter's *blockers*: the conflicting
//! holders *and* the conflicting requests queued ahead of it, since FIFO
//! queues make those real waits too. Applying a rule to holders alone would
//! leave a deadlock: an old reader queued behind a young writer that waits
//! on a young holder can close a cycle through queue-order edges alone. The
//! rules are re-applied to a page's waiters whenever its holder set changes
//! — after a granted request (an upgrade strengthens a holder's mode) and
//! after a release that granted waiters. For wound-wait that re-evaluation
//! is what guarantees the oldest transaction progresses even though the
//! FIFO queue can put an older waiter behind a younger one.

use crate::common::{AccessResponse, LockMode, ReleaseResponse, Ts, TxnMeta};
use crate::locktable::{LockOutcome, LockTable};
use crate::manager::{CcManager, LockStats};
use crate::rules::rules_of;
use crate::waitsfor::resolve_deadlocks;
use ddbm_config::{Algorithm, PageId, TxnId};
use denet::FxHashMap;

/// See module docs.
#[derive(Debug)]
pub struct Locking {
    algorithm: Algorithm,
    table: LockTable,
    /// Initial startup timestamps of transactions seen at this node, for
    /// victim selection and the prevention rules. Entries are dropped on
    /// commit/abort.
    initial_ts: FxHashMap<TxnId, Ts>,
    /// Scratch for one page's holders and queue, copied out so the borrow on
    /// the table stays short without an allocation per evaluation.
    holders: Vec<(TxnId, LockMode)>,
    waiters: Vec<(TxnId, LockMode)>,
    /// Scratch for 2PL's full local scan: the node's waits-for edges.
    edges: Vec<(TxnId, TxnId)>,
    /// True while this node's waits-for graph is known to be acyclic apart
    /// from what the lock table's `grant_to_waiter` flag reports. Starts
    /// true (no waits); a full scan leaves it true only when it finds no
    /// victim, or only the requester and its cancelled wait was its last.
    clean: bool,
}

/// The transactions a `mode` request by `waiter` waits behind: conflicting
/// holders other than itself, then conflicting requests queued `ahead` of
/// it.
fn blockers<'a>(
    holders: &'a [(TxnId, LockMode)],
    ahead: &'a [(TxnId, LockMode)],
    waiter: TxnId,
    mode: LockMode,
) -> impl Iterator<Item = TxnId> + 'a {
    holders
        .iter()
        .chain(ahead)
        .filter(move |(t, m)| *t != waiter && !m.compatible(mode))
        .map(|(t, _)| *t)
}

impl Locking {
    /// The manager for a lock-based `algorithm`. `barging` switches the lock
    /// table to barging grants (see [`LockTable::with_barging`]) for 2PL and
    /// 2PL-T only: wound-wait and wait-die keep strict FIFO, because their
    /// prevention rules are formulated against queue order.
    pub fn new(algorithm: Algorithm, barging: bool) -> Locking {
        assert!(
            rules_of(algorithm).lock_queue,
            "{algorithm:?} is not a locking algorithm"
        );
        let barging = barging && !matches!(algorithm, Algorithm::WoundWait | Algorithm::WaitDie);
        Locking {
            algorithm,
            table: if barging {
                LockTable::with_barging()
            } else {
                LockTable::new()
            },
            initial_ts: FxHashMap::default(),
            holders: Vec::new(),
            waiters: Vec::new(),
            edges: Vec::new(),
            clean: true,
        }
    }

    fn ts(&self, txn: TxnId) -> Ts {
        self.initial_ts.get(&txn).copied().unwrap_or(Ts::ZERO)
    }

    /// Copy `page`'s holders and queue into the scratch buffers.
    fn load(&mut self, page: PageId) {
        self.holders.clear();
        self.waiters.clear();
        self.table.holders_into(page, &mut self.holders);
        self.table.waiters_into(page, &mut self.waiters);
    }

    /// Apply the prevention rule to every request still queued on `pages`:
    /// under wound-wait each waiter wounds its younger blockers, under
    /// wait-die a waiter with an older blocker dies. No-op for 2PL and 2PL-T.
    fn reevaluate(&mut self, pages: impl IntoIterator<Item = PageId>, out: &mut ReleaseResponse) {
        let wound = match self.algorithm {
            Algorithm::WoundWait => true,
            Algorithm::WaitDie => false,
            _ => return,
        };
        for page in pages {
            self.load(page);
            for (i, &(waiter, mode)) in self.waiters.iter().enumerate() {
                let waiter_ts = self.ts(waiter);
                let mut blocked_by = blockers(&self.holders, &self.waiters[..i], waiter, mode);
                if wound {
                    out.must_abort
                        .extend(blocked_by.filter(|b| waiter_ts.older_than(self.ts(*b))));
                } else if blocked_by.any(|b| self.ts(b).older_than(waiter_ts)) {
                    out.rejected.push((waiter, page));
                }
            }
        }
        out.must_abort.sort();
        out.must_abort.dedup();
    }

    /// Wait-die's rule for a fresh `mode` request by `txn`, queued on `page`.
    fn must_die(&mut self, txn: TxnId, page: PageId, mode: LockMode) -> bool {
        self.load(page);
        let at = self.waiters.iter().position(|(t, _)| *t == txn);
        let at = at.expect("a queued request is in its page's queue");
        let txn_ts = self.ts(txn);
        blockers(&self.holders, &self.waiters[..at], txn, mode)
            .any(|b| self.ts(b).older_than(txn_ts))
    }

    /// 2PL's local deadlock detection for `txn`, just queued on `page`.
    ///
    /// Between two detections the graph gains edges only where a request
    /// is queued (every new edge leaves or enters the requester) and where
    /// a grant makes a transaction a holder (every new edge enters the
    /// grantee, so it can close a cycle only if the grantee still waits
    /// here). So when the graph was acyclic after the last detection and
    /// no grant went to a waiter since, any cycle passes through `txn`, and
    /// a search from `txn` that does not come back finds none. Otherwise
    /// the whole graph is resolved, with the same victims in the same order.
    fn detect(&mut self, txn: TxnId, page: PageId) -> AccessResponse {
        let grant_to_waiter = self.table.take_grant_to_waiter();
        if self.clean && !grant_to_waiter && !self.table.waits_on_itself(txn) {
            debug_assert_eq!(self.full_scan(), [], "the search missed a cycle");
            return AccessResponse::blocked();
        }
        let mut victims = self.full_scan();
        if !victims.contains(&txn) {
            self.clean = victims.is_empty();
            let mut resp = AccessResponse::blocked();
            resp.side_effects.must_abort = victims;
            return resp;
        }
        victims.retain(|v| *v != txn);
        let mut resp = self.reject(txn, page);
        // With its last wait cancelled the requester has no outgoing edge,
        // so it closes no cycle.
        self.clean = victims.is_empty() && self.table.wait_pages(txn).is_empty();
        resp.side_effects.must_abort = victims;
        resp
    }

    /// The victims of every cycle in this node's waits-for graph, in the
    /// order the detector picks them.
    fn full_scan(&mut self) -> Vec<TxnId> {
        self.edges.clear();
        self.table.waits_for_edges_into(&mut self.edges);
        resolve_deadlocks(&self.edges, |t| self.ts(t))
    }

    /// The requester itself must abort: withdraw its fresh wait so the table
    /// holds no dangling request while the abort protocol runs. Its other
    /// locks are freed by `abort`.
    fn reject(&mut self, txn: TxnId, page: PageId) -> AccessResponse {
        let mut resp = AccessResponse::rejected();
        resp.side_effects.granted = self.table.cancel_wait(txn, page);
        resp
    }

    fn finish(&mut self, txn: TxnId) -> ReleaseResponse {
        self.initial_ts.remove(&txn);
        let granted = self.table.release_all(txn);
        let mut resp = ReleaseResponse::default();
        self.reevaluate(granted.iter().map(|(_, p)| *p), &mut resp);
        resp.granted = granted;
        resp
    }
}

impl CcManager for Locking {
    fn request_access(&mut self, txn: &TxnMeta, page: PageId, write: bool) -> AccessResponse {
        self.initial_ts.insert(txn.id, txn.initial_ts);
        let algorithm = self.algorithm;
        let mode = if write {
            LockMode::Write
        } else {
            LockMode::Read
        };
        match self.table.request(txn.id, page, mode) {
            LockOutcome::Granted => {
                // A granted upgrade strengthens the holder's mode under the
                // requests already queued on the page.
                let mut resp = AccessResponse::granted();
                self.reevaluate([page], &mut resp.side_effects);
                resp
            }
            LockOutcome::Queued => match algorithm {
                Algorithm::TwoPhaseLocking => self.detect(txn.id, page),
                Algorithm::WoundWait => {
                    // Covers the requester's own wounds and any older waiter
                    // an upgrade just queued ahead of.
                    let mut resp = AccessResponse::blocked();
                    self.reevaluate([page], &mut resp.side_effects);
                    resp
                }
                Algorithm::WaitDie if self.must_die(txn.id, page, mode) => {
                    self.reject(txn.id, page)
                }
                // 2PL-T and surviving wait-die requesters simply wait.
                _ => AccessResponse::blocked(),
            },
        }
    }

    fn certify(&mut self, _txn: &TxnMeta, _commit_ts: Ts) -> bool {
        true
    }

    fn commit(&mut self, txn: TxnId) -> ReleaseResponse {
        self.finish(txn)
    }

    fn abort(&mut self, txn: TxnId) -> ReleaseResponse {
        self.finish(txn)
    }

    fn waits_for_edges_into(&self, out: &mut Vec<(TxnId, TxnId)>) {
        self.table.waits_for_edges_into(out);
    }

    fn preallocate(&mut self, _num_pages: usize, max_txn_accesses: usize) {
        self.table.preallocate(max_txn_accesses);
    }

    fn lock_stats(&self) -> Option<LockStats> {
        Some(LockStats {
            held: self.table.holding_txns(),
            waiting: self.table.waiting_txns(),
        })
    }

    fn algorithm(&self) -> Algorithm {
        self.algorithm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::AccessReply;
    use ddbm_config::FileId;

    fn page(n: u64) -> PageId {
        PageId {
            file: FileId(0),
            page: n,
        }
    }

    /// Transaction `id` with startup order equal to its id (smaller = older).
    fn meta(id: u64) -> TxnMeta {
        TxnMeta {
            id: TxnId(id),
            initial_ts: Ts::new(id, TxnId(id)),
            run_ts: Ts::new(id, TxnId(id)),
        }
    }

    /// The manager's waits-for edges, as the Snoop reads them.
    fn edges(m: &Locking) -> Vec<(TxnId, TxnId)> {
        let mut edges = Vec::new();
        m.waits_for_edges_into(&mut edges);
        edges
    }

    mod two_pl {
        use super::*;

        #[test]
        fn readers_share_writers_block() {
            let mut m = Locking::new(Algorithm::TwoPhaseLocking, false);
            assert_eq!(
                m.request_access(&meta(1), page(1), false).reply,
                AccessReply::Granted
            );
            assert_eq!(
                m.request_access(&meta(2), page(1), false).reply,
                AccessReply::Granted
            );
            let r = m.request_access(&meta(3), page(1), true);
            assert_eq!(r.reply, AccessReply::Blocked);
            assert!(r.must_abort().is_empty());
        }

        #[test]
        fn commit_releases_and_grants_waiters() {
            let mut m = Locking::new(Algorithm::TwoPhaseLocking, false);
            m.request_access(&meta(1), page(1), true);
            assert_eq!(
                m.request_access(&meta(2), page(1), false).reply,
                AccessReply::Blocked
            );
            let rel = m.commit(TxnId(1));
            assert_eq!(rel.granted, vec![(TxnId(2), page(1))]);
            assert!(rel.must_abort.is_empty());
        }

        #[test]
        fn abort_releases_waits_too() {
            let mut m = Locking::new(Algorithm::TwoPhaseLocking, false);
            m.request_access(&meta(1), page(1), true);
            assert_eq!(
                m.request_access(&meta(2), page(1), true).reply,
                AccessReply::Blocked
            );
            assert_eq!(
                m.request_access(&meta(3), page(1), true).reply,
                AccessReply::Blocked
            );
            // T2 (the queued waiter) aborts; T1 still holds, so nothing granted.
            assert!(m.abort(TxnId(2)).granted.is_empty());
            // T1 commits: T3 gets the lock (T2 is gone).
            let rel = m.commit(TxnId(1));
            assert_eq!(rel.granted, vec![(TxnId(3), page(1))]);
        }

        #[test]
        fn local_deadlock_aborts_youngest() {
            let mut m = Locking::new(Algorithm::TwoPhaseLocking, false);
            // T1 (older) holds A, T2 (younger) holds B.
            m.request_access(&meta(1), page(1), true);
            m.request_access(&meta(2), page(2), true);
            // T1 waits for B.
            assert_eq!(
                m.request_access(&meta(1), page(2), true).reply,
                AccessReply::Blocked
            );
            // T2 requests A → cycle. T2 is youngest → T2 itself is rejected.
            let r = m.request_access(&meta(2), page(1), true);
            assert_eq!(r.reply, AccessReply::Rejected);
            assert!(r.must_abort().is_empty());
            // After T2's abort protocol finishes, T1 is granted B.
            let rel = m.abort(TxnId(2));
            assert_eq!(rel.granted, vec![(TxnId(1), page(2))]);
        }

        #[test]
        fn local_deadlock_can_pick_the_other_transaction() {
            let mut m = Locking::new(Algorithm::TwoPhaseLocking, false);
            // T2 (younger) holds A, T1 (older) holds B.
            m.request_access(&meta(2), page(1), true);
            m.request_access(&meta(1), page(2), true);
            // T2 waits for B (no cycle yet).
            assert_eq!(
                m.request_access(&meta(2), page(2), true).reply,
                AccessReply::Blocked
            );
            // T1 requests A → cycle {T1, T2}; victim is T2 (younger), not the
            // requester, so T1 blocks and T2 is reported for abort.
            let r = m.request_access(&meta(1), page(1), true);
            assert_eq!(r.reply, AccessReply::Blocked);
            assert_eq!(r.must_abort(), vec![TxnId(2)]);
            // T2's abort unblocks T1 on page 1.
            let rel = m.abort(TxnId(2));
            assert_eq!(rel.granted, vec![(TxnId(1), page(1))]);
        }

        #[test]
        fn no_false_deadlocks_on_plain_blocking() {
            let mut m = Locking::new(Algorithm::TwoPhaseLocking, false);
            m.request_access(&meta(1), page(1), true);
            for i in 2..10 {
                let r = m.request_access(&meta(i), page(1), true);
                assert_eq!(r.reply, AccessReply::Blocked);
                assert!(r.must_abort().is_empty(), "waiter chain is not a deadlock");
            }
        }

        #[test]
        fn three_way_deadlock_resolved_with_one_victim() {
            let mut m = Locking::new(Algorithm::TwoPhaseLocking, false);
            m.request_access(&meta(1), page(1), true);
            m.request_access(&meta(2), page(2), true);
            m.request_access(&meta(3), page(3), true);
            assert_eq!(
                m.request_access(&meta(1), page(2), true).reply,
                AccessReply::Blocked
            );
            assert_eq!(
                m.request_access(&meta(2), page(3), true).reply,
                AccessReply::Blocked
            );
            // T3 → page(1) closes the cycle; T3 is the youngest → rejected itself.
            let r = m.request_access(&meta(3), page(1), true);
            assert_eq!(r.reply, AccessReply::Rejected);
        }

        #[test]
        fn waits_for_edges_are_exported_for_the_snoop() {
            let mut m = Locking::new(Algorithm::TwoPhaseLocking, false);
            m.request_access(&meta(1), page(1), true);
            m.request_access(&meta(2), page(1), true);
            assert_eq!(edges(&m), vec![(TxnId(2), TxnId(1))]);
        }

        #[test]
        fn rejected_requester_leaves_no_dangling_wait() {
            let mut m = Locking::new(Algorithm::TwoPhaseLocking, false);
            m.request_access(&meta(1), page(1), true);
            m.request_access(&meta(2), page(2), true);
            m.request_access(&meta(1), page(2), true); // T1 blocked on B
            let r = m.request_access(&meta(2), page(1), true); // T2 rejected
            assert_eq!(r.reply, AccessReply::Rejected);
            // T2's rejected request must not appear as a wait edge.
            let edges = edges(&m);
            assert!(
                !edges.contains(&(TxnId(2), TxnId(1))),
                "rejected wait still present: {edges:?}"
            );
        }

        /// Cycles that a grant closes, away from the next requester: only a
        /// transaction that keeps requesting while blocked (never one in
        /// the simulator) can be granted a lock while it still waits.
        #[test]
        fn cycle_closed_by_barging_request_is_found_at_next_block() {
            let mut m = Locking::new(Algorithm::TwoPhaseLocking, true);
            m.request_access(&meta(1), page(1), false);
            m.request_access(&meta(2), page(2), true);
            // T2 waits on T1's read lock; T3 waits on T2's write lock.
            let blocked = AccessReply::Blocked;
            assert_eq!(m.request_access(&meta(2), page(1), true).reply, blocked);
            assert_eq!(m.request_access(&meta(3), page(2), false).reply, blocked);
            // Barging grants T3's read past T2's queued write: T2 now also
            // waits on T3, closing the cycle {T2, T3}.
            let r = m.request_access(&meta(3), page(1), false);
            assert_eq!(r.reply, AccessReply::Granted);
            // An unrelated block still sees it; T3 is the youngest member.
            let r = m.request_access(&meta(9), page(1), true);
            assert_eq!(r.reply, AccessReply::Blocked);
            assert_eq!(r.must_abort(), vec![TxnId(3)]);
        }

        #[test]
        fn cycle_closed_by_barging_release_is_found_at_next_block() {
            let mut m = Locking::new(Algorithm::TwoPhaseLocking, true);
            m.request_access(&meta(8), page(1), true);
            m.request_access(&meta(3), page(2), true);
            // Queue on page 1: T1 read, T3 write, T4 read. T4 also waits on
            // T3's write lock on page 2.
            let blocked = AccessReply::Blocked;
            assert_eq!(m.request_access(&meta(1), page(1), false).reply, blocked);
            assert_eq!(m.request_access(&meta(3), page(1), true).reply, blocked);
            assert_eq!(m.request_access(&meta(4), page(2), true).reply, blocked);
            assert_eq!(m.request_access(&meta(4), page(1), false).reply, blocked);
            // T8's commit grants both reads past T3's write: T3 now waits on
            // T4, which still waits on T3.
            let rel = m.commit(TxnId(8));
            assert_eq!(rel.granted, vec![(TxnId(1), page(1)), (TxnId(4), page(1))]);
            let r = m.request_access(&meta(9), page(1), true);
            assert_eq!(r.reply, AccessReply::Blocked);
            assert_eq!(r.must_abort(), vec![TxnId(4)]);
        }
    }

    mod wound_wait {
        use super::*;

        #[test]
        fn younger_waits_for_older() {
            let mut m = Locking::new(Algorithm::WoundWait, false);
            m.request_access(&meta(1), page(1), true); // older holds
            let r = m.request_access(&meta(2), page(1), true); // younger requests
            assert_eq!(r.reply, AccessReply::Blocked);
            assert!(r.must_abort().is_empty(), "younger must simply wait");
        }

        #[test]
        fn older_wounds_younger_holder() {
            let mut m = Locking::new(Algorithm::WoundWait, false);
            m.request_access(&meta(5), page(1), true); // younger holds
            let r = m.request_access(&meta(1), page(1), true); // older requests
            assert_eq!(r.reply, AccessReply::Blocked);
            assert_eq!(r.must_abort(), vec![TxnId(5)]);
            // The wound kills T5; its abort frees the lock for T1.
            let rel = m.abort(TxnId(5));
            assert_eq!(rel.granted, vec![(TxnId(1), page(1))]);
        }

        #[test]
        fn older_reader_wounds_younger_writer_only() {
            let mut m = Locking::new(Algorithm::WoundWait, false);
            m.request_access(&meta(5), page(1), false); // younger read holder
            m.request_access(&meta(6), page(1), false); // another younger reader
                                                        // An older *reader* is compatible; no wound, no wait.
            let r = m.request_access(&meta(1), page(1), false);
            assert_eq!(r.reply, AccessReply::Granted);
        }

        #[test]
        fn older_writer_wounds_all_younger_readers() {
            let mut m = Locking::new(Algorithm::WoundWait, false);
            m.request_access(&meta(5), page(1), false);
            m.request_access(&meta(6), page(1), false);
            let r = m.request_access(&meta(1), page(1), true);
            assert_eq!(r.reply, AccessReply::Blocked);
            assert_eq!(r.must_abort(), vec![TxnId(5), TxnId(6)]);
        }

        #[test]
        fn mixed_ages_wound_only_the_younger() {
            let mut m = Locking::new(Algorithm::WoundWait, false);
            m.request_access(&meta(1), page(1), false); // older than requester
            m.request_access(&meta(9), page(1), false); // younger than requester
            let r = m.request_access(&meta(4), page(1), true);
            assert_eq!(r.reply, AccessReply::Blocked);
            assert_eq!(r.must_abort(), vec![TxnId(9)]);
        }

        #[test]
        fn grant_time_rewound_protects_waiting_elder() {
            let mut m = Locking::new(Algorithm::WoundWait, false);
            // T3 holds; queue: first T5 (young), then T2 (older than T5).
            m.request_access(&meta(3), page(1), true);
            assert_eq!(
                m.request_access(&meta(5), page(1), true).reply,
                AccessReply::Blocked
            );
            let r = m.request_access(&meta(2), page(1), true);
            assert_eq!(r.reply, AccessReply::Blocked);
            // T2 is older than both the holder T3 and the queued T5; it wounds
            // everything younger it would wait behind.
            assert_eq!(r.must_abort(), vec![TxnId(3), TxnId(5)]);
            // T3 dies; FIFO grants T5 — but waiting T2 is older than the new
            // holder T5, so the release must wound T5.
            let rel = m.abort(TxnId(3));
            assert_eq!(rel.granted, vec![(TxnId(5), page(1))]);
            assert_eq!(rel.must_abort, vec![TxnId(5)]);
            // T5 dies in turn; T2 finally gets the lock.
            let rel = m.abort(TxnId(5));
            assert_eq!(rel.granted, vec![(TxnId(2), page(1))]);
            assert!(rel.must_abort.is_empty());
        }

        #[test]
        fn commit_releases_without_wounding_younger_waiters() {
            let mut m = Locking::new(Algorithm::WoundWait, false);
            m.request_access(&meta(1), page(1), true);
            m.request_access(&meta(2), page(1), true); // younger waits
            let rel = m.commit(TxnId(1));
            assert_eq!(rel.granted, vec![(TxnId(2), page(1))]);
            assert!(rel.must_abort.is_empty());
        }

        #[test]
        fn no_wound_when_requester_is_youngest() {
            let mut m = Locking::new(Algorithm::WoundWait, false);
            m.request_access(&meta(1), page(1), true);
            m.request_access(&meta(2), page(1), true);
            let r = m.request_access(&meta(3), page(1), true);
            assert_eq!(r.reply, AccessReply::Blocked);
            assert!(r.must_abort().is_empty());
        }

        #[test]
        fn wound_repeated_on_new_conflict_is_idempotent_per_call() {
            let mut m = Locking::new(Algorithm::WoundWait, false);
            m.request_access(&meta(9), page(1), false);
            m.request_access(&meta(9), page(2), false);
            // Older T1 conflicts on both pages; each request wounds T9 once.
            let r1 = m.request_access(&meta(1), page(1), true);
            let r2 = m.request_access(&meta(1), page(2), true);
            assert_eq!(r1.must_abort(), vec![TxnId(9)]);
            assert_eq!(r2.must_abort(), vec![TxnId(9)]);
            // Double-kill is the coordinator's problem (it ignores wounds for
            // transactions already aborting); the abort itself happens once.
            let rel = m.abort(TxnId(9));
            let mut granted = rel.granted.clone();
            granted.sort();
            assert_eq!(granted, vec![(TxnId(1), page(1)), (TxnId(1), page(2))]);
        }
    }

    mod wait_die {
        use super::*;

        #[test]
        fn older_waits_for_younger() {
            let mut m = Locking::new(Algorithm::WaitDie, false);
            m.request_access(&meta(5), page(1), true); // younger holds
            let r = m.request_access(&meta(1), page(1), true); // older requests
            assert_eq!(r.reply, AccessReply::Blocked);
            assert!(r.must_abort().is_empty());
            // The younger holder's commit hands the lock over.
            let rel = m.commit(TxnId(5));
            assert_eq!(rel.granted, vec![(TxnId(1), page(1))]);
        }

        #[test]
        fn younger_dies_immediately() {
            let mut m = Locking::new(Algorithm::WaitDie, false);
            m.request_access(&meta(1), page(1), true); // older holds
            let r = m.request_access(&meta(5), page(1), true); // younger requests
            assert_eq!(r.reply, AccessReply::Rejected);
            // The rejected request leaves no residue.
            assert!(edges(&m).is_empty());
            m.abort(TxnId(5));
        }

        #[test]
        fn compatible_reads_share_regardless_of_age() {
            let mut m = Locking::new(Algorithm::WaitDie, false);
            m.request_access(&meta(1), page(1), false);
            assert_eq!(
                m.request_access(&meta(9), page(1), false).reply,
                AccessReply::Granted
            );
            assert_eq!(
                m.request_access(&meta(5), page(1), false).reply,
                AccessReply::Granted
            );
        }

        #[test]
        fn young_reader_dies_behind_old_queued_writer() {
            let mut m = Locking::new(Algorithm::WaitDie, false);
            m.request_access(&meta(5), page(1), false); // reader holds
            m.request_access(&meta(1), page(1), true); // old writer queues
                                                       // A younger reader would wait behind the old writer → dies.
            let r = m.request_access(&meta(7), page(1), false);
            assert_eq!(r.reply, AccessReply::Rejected);
        }

        #[test]
        fn old_reader_waits_behind_young_queued_writer() {
            let mut m = Locking::new(Algorithm::WaitDie, false);
            m.request_access(&meta(8), page(1), false); // young reader holds
                                                        // An older writer waits behind the younger holder (old may wait).
            assert_eq!(
                m.request_access(&meta(6), page(1), true).reply,
                AccessReply::Blocked
            );
            // An even older reader waits behind the (younger) queued writer.
            let r = m.request_access(&meta(2), page(1), false);
            assert_eq!(r.reply, AccessReply::Blocked);
        }

        #[test]
        fn grant_time_reorder_kills_young_waiter() {
            let mut m = Locking::new(Algorithm::WaitDie, false);
            // T2 holds. Queue: T1 (older than T2 → allowed to wait)…
            m.request_access(&meta(2), page(1), true);
            assert_eq!(
                m.request_access(&meta(1), page(1), true).reply,
                AccessReply::Blocked
            );
            // …then T0, the oldest, also waits.
            assert_eq!(
                m.request_access(&meta(0), page(1), true).reply,
                AccessReply::Blocked
            );
            // T2 commits: FIFO grants T1; T0 now waits behind the *younger*
            // holder T1 — fine for wait-die (old waits). Nothing dies.
            let rel = m.commit(TxnId(2));
            assert_eq!(rel.granted, vec![(TxnId(1), page(1))]);
            assert!(rel.rejected.is_empty());
            // And T1's commit grants T0.
            let rel = m.commit(TxnId(1));
            assert_eq!(rel.granted, vec![(TxnId(0), page(1))]);
        }

        #[test]
        fn no_wounds_ever() {
            let mut m = Locking::new(Algorithm::WaitDie, false);
            m.request_access(&meta(9), page(1), true);
            let r = m.request_access(&meta(1), page(1), true);
            assert!(r.must_abort().is_empty(), "wait-die never aborts others");
            let rel = m.abort(TxnId(9));
            assert!(rel.must_abort.is_empty());
        }

        #[test]
        fn restart_with_same_timestamp_eventually_wins() {
            let mut m = Locking::new(Algorithm::WaitDie, false);
            m.request_access(&meta(1), page(1), true);
            // T5 dies, restarts (same initial ts), dies again while T1 holds…
            for _ in 0..3 {
                let r = m.request_access(&meta(5), page(1), true);
                assert_eq!(r.reply, AccessReply::Rejected);
                m.abort(TxnId(5));
            }
            // …but once T1 is gone, T5 gets through.
            m.commit(TxnId(1));
            assert_eq!(
                m.request_access(&meta(5), page(1), true).reply,
                AccessReply::Granted
            );
        }
    }
}
