//! `WoundWait` as it was before the four lock-based algorithms were folded
//! into one `ddbm_cc::locking::Locking` manager. Kept verbatim (apart from
//! its imports and the dropped allocating `waits_for_edges` trait
//! method) as a reference the unified manager must agree with, response
//! for response. The original module docs follow.
//!
//! Distributed wound-wait locking (paper §2.3, after Rosenkrantz et al.).
//!
//! Identical to 2PL except in how it deals with deadlock: deadlocks are
//! *prevented* using initial-startup timestamps. When a cohort's lock request
//! conflicts with locks held by *younger* transactions, those transactions
//! are wounded — reported in `must_abort` for the coordinator to kill, unless
//! the target is already in the second phase of its commit protocol, in which
//! case the wound is ignored (that immunity check is the coordinator's,
//! because only it knows the commit phase). Younger transactions simply wait
//! for older ones.
//!
//! Wounds are (re-)evaluated whenever a waits-for-holder relationship is
//! established: at request time and again whenever a release changes the
//! holder set. The re-evaluation at grant time is what guarantees that the
//! oldest transaction always makes progress even though the FIFO queue can
//! put an older waiter behind a younger one.

use ddbm_cc::{
    AccessResponse, CcManager, LockMode, LockOutcome, LockTable, ReleaseResponse, Ts, TxnMeta,
};
use ddbm_config::{Algorithm, PageId, TxnId};
use denet::FxHashMap;

/// See module docs.
#[derive(Debug, Default)]
pub struct WoundWait {
    table: LockTable,
    initial_ts: FxHashMap<TxnId, Ts>,
    /// Scratch for wound evaluation, which runs on every request, grant,
    /// and release — copying the holder/waiter lists out per page keeps the
    /// borrow on the table short without paying an allocation each time.
    holders_scratch: Vec<(TxnId, LockMode)>,
    waiters_scratch: Vec<(TxnId, LockMode)>,
}

impl WoundWait {
    /// Create a new instance.
    pub fn new() -> WoundWait {
        WoundWait::default()
    }

    fn ts(&self, txn: TxnId) -> Ts {
        *self.initial_ts.get(&txn).unwrap_or(&Ts::ZERO)
    }

    /// Everything the queued `requester` now waits behind — conflicting
    /// holders *and* conflicting requests queued ahead of it (FIFO queues
    /// make those real waits too) — that is younger than it gets wounded.
    /// Wounding only holders would leave a deadlock: an old reader queued
    /// behind a young writer that waits on a young holder can close a cycle
    /// through queue-order edges alone.
    fn wounds_for(&mut self, page: PageId, requester: TxnId, mode: LockMode) -> Vec<TxnId> {
        let requester_ts = self.ts(requester);
        let mut holders = std::mem::take(&mut self.holders_scratch);
        holders.clear();
        self.table.holders_into(page, &mut holders);
        let mut wounds: Vec<TxnId> = Vec::new();
        for (holder, held_mode) in &holders {
            if *holder != requester
                && !held_mode.compatible(mode)
                && requester_ts.older_than(self.ts(*holder))
            {
                wounds.push(*holder);
            }
        }
        let mut waiters = std::mem::take(&mut self.waiters_scratch);
        waiters.clear();
        self.table.waiters_into(page, &mut waiters);
        for (ahead, ahead_mode) in &waiters {
            if *ahead == requester {
                break; // only requests queued ahead of ours
            }
            if !ahead_mode.compatible(mode) && requester_ts.older_than(self.ts(*ahead)) {
                wounds.push(*ahead);
            }
        }
        self.holders_scratch = holders;
        self.waiters_scratch = waiters;
        wounds.sort();
        wounds.dedup();
        wounds
    }

    /// Re-evaluate wounds for every transaction still waiting on the given
    /// pages after the holder set or queue changed: each waiter wounds every
    /// younger transaction it now waits behind (holders and conflicting
    /// earlier waiters).
    fn rewound_waiters(&mut self, pages: impl IntoIterator<Item = PageId>) -> Vec<TxnId> {
        let mut wounds = Vec::new();
        let mut holders = std::mem::take(&mut self.holders_scratch);
        let mut waiters = std::mem::take(&mut self.waiters_scratch);
        for page in pages {
            holders.clear();
            waiters.clear();
            self.table.holders_into(page, &mut holders);
            self.table.waiters_into(page, &mut waiters);
            for (i, (waiter, wmode)) in waiters.iter().enumerate() {
                let waiter_ts = self.ts(*waiter);
                for (holder, held_mode) in &holders {
                    if holder != waiter
                        && !held_mode.compatible(*wmode)
                        && waiter_ts.older_than(self.ts(*holder))
                    {
                        wounds.push(*holder);
                    }
                }
                for (ahead, ahead_mode) in &waiters[..i] {
                    if !ahead_mode.compatible(*wmode) && waiter_ts.older_than(self.ts(*ahead)) {
                        wounds.push(*ahead);
                    }
                }
            }
        }
        self.holders_scratch = holders;
        self.waiters_scratch = waiters;
        wounds.sort();
        wounds.dedup();
        wounds
    }

    fn finish(&mut self, txn: TxnId) -> ReleaseResponse {
        self.initial_ts.remove(&txn);
        let granted = self.table.release_all(txn);
        // Holder sets changed on the granted pages; older waiters still
        // queued there wound the fresh (younger) holders.
        let must_abort = self.rewound_waiters(granted.iter().map(|(_, p)| *p));
        ReleaseResponse {
            granted,
            rejected: Vec::new(),
            must_abort,
        }
    }
}

impl CcManager for WoundWait {
    fn request_access(&mut self, txn: &TxnMeta, page: PageId, write: bool) -> AccessResponse {
        self.initial_ts.insert(txn.id, txn.initial_ts);
        let mode = if write {
            LockMode::Write
        } else {
            LockMode::Read
        };
        // Compute wounds against the holders *before* queueing: these are
        // the transactions whose locks the (older) requester refuses to
        // wait behind.
        match self.table.request(txn.id, page, mode) {
            LockOutcome::Granted => {
                // A granted *upgrade* strengthens the holder's mode while
                // waiters are queued; any older waiter now conflicting with
                // the upgraded (younger) holder must wound it.
                let mut resp = AccessResponse::granted();
                resp.side_effects.must_abort = self.rewound_waiters([page]);
                resp
            }
            LockOutcome::Queued => {
                let mut resp = AccessResponse::blocked();
                // Wounds from the new request, plus a re-evaluation of the
                // whole page (an upgrade insertion can reorder the queue and
                // put an older waiter behind a younger one).
                let mut wounds = self.wounds_for(page, txn.id, mode);
                wounds.extend(self.rewound_waiters([page]));
                wounds.sort();
                wounds.dedup();
                resp.side_effects.must_abort = wounds;
                resp
            }
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

    fn lock_stats(&self) -> Option<ddbm_cc::LockStats> {
        Some(ddbm_cc::LockStats {
            held: self.table.holding_txns(),
            waiting: self.table.waiting_txns(),
        })
    }

    fn algorithm(&self) -> Algorithm {
        Algorithm::WoundWait
    }
}
