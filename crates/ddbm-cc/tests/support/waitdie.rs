//! `WaitDie` as it was before the four lock-based algorithms were folded
//! into one `ddbm_cc::locking::Locking` manager. Kept verbatim (apart from
//! its imports, the dropped allocating `waits_for_edges` trait method, and
//! `LockTable::conflicting_holders`, which left the lock table with it and
//! is restated at the end of this file) as a reference the unified
//! manager must agree with, response for response. The original module
//! docs follow.
//!
//! Wait-die locking — the companion deadlock-prevention scheme to
//! wound-wait (Rosenkrantz et al.), included as an extension for ablation
//! studies (the paper evaluates wound-wait only).
//!
//! Timestamps again order transactions by initial startup time, but the
//! asymmetry is reversed: an *older* requester may wait for a younger
//! holder, while a *younger* requester "dies" (aborts itself) rather than
//! wait for an older one. All wait edges therefore point old → young, so
//! waits-for cycles cannot form.
//!
//! As with wound-wait (see `woundwait.rs`), the rule is applied against the
//! full conflict set — holders and conflicting queued-ahead requests — or
//! FIFO queue edges could hide a young→old wait. Because the requester keeps
//! its original timestamp across restarts, it eventually becomes the oldest
//! and cannot die forever.

use ddbm_cc::{
    AccessResponse, CcManager, LockMode, LockOutcome, LockTable, ReleaseResponse, Ts, TxnMeta,
};
use ddbm_config::{Algorithm, PageId, TxnId};
use denet::FxHashMap;

/// See module docs.
#[derive(Debug, Default)]
pub struct WaitDie {
    table: LockTable,
    initial_ts: FxHashMap<TxnId, Ts>,
}

impl WaitDie {
    /// Create a new instance.
    pub fn new() -> WaitDie {
        WaitDie::default()
    }

    fn ts(&self, txn: TxnId) -> Ts {
        *self.initial_ts.get(&txn).unwrap_or(&Ts::ZERO)
    }

    /// True iff `requester`, queued on `page` with `mode`, waits behind any
    /// transaction *older* than itself — in which case it must die.
    fn must_die(&self, page: PageId, requester: TxnId, mode: LockMode) -> bool {
        let requester_ts = self.ts(requester);
        if self
            .table
            .conflicting_holders(page, requester, mode)
            .into_iter()
            .any(|holder| self.ts(holder).older_than(requester_ts))
        {
            return true;
        }
        for (ahead, ahead_mode) in self.table.waiters(page) {
            if ahead == requester {
                break;
            }
            if !ahead_mode.compatible(mode) && self.ts(ahead).older_than(requester_ts) {
                return true;
            }
        }
        false
    }

    fn finish(&mut self, txn: TxnId) -> ReleaseResponse {
        self.initial_ts.remove(&txn);
        let granted = self.table.release_all(txn);
        // Grants can reorder waits: any waiter now behind an *older*
        // transaction must die (mirror of wound-wait's grant-time rewound).
        let mut rejected = Vec::new();
        let pages: Vec<PageId> = granted.iter().map(|(_, p)| *p).collect();
        for page in pages {
            let waiters = self.table.waiters(page);
            for (waiter, wmode) in waiters {
                if self.must_die(page, waiter, wmode) {
                    rejected.push((waiter, page));
                }
            }
        }
        ReleaseResponse {
            granted,
            rejected,
            must_abort: Vec::new(),
        }
    }
}

impl CcManager for WaitDie {
    fn request_access(&mut self, txn: &TxnMeta, page: PageId, write: bool) -> AccessResponse {
        self.initial_ts.insert(txn.id, txn.initial_ts);
        let mode = if write {
            LockMode::Write
        } else {
            LockMode::Read
        };
        match self.table.request(txn.id, page, mode) {
            LockOutcome::Granted => {
                // A granted *upgrade* strengthens the holder's mode; any
                // younger waiter now conflicting with an older holder dies.
                let mut resp = AccessResponse::granted();
                for (waiter, wmode) in self.table.waiters(page) {
                    if self.must_die(page, waiter, wmode) {
                        resp.side_effects.rejected.push((waiter, page));
                    }
                }
                resp
            }
            LockOutcome::Queued => {
                if self.must_die(page, txn.id, mode) {
                    // Withdraw the fresh wait; the requester aborts itself.
                    let mut resp = AccessResponse::rejected();
                    resp.side_effects.granted = self.table.cancel_wait(txn.id, page);
                    resp
                } else {
                    AccessResponse::blocked()
                }
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
        Algorithm::WaitDie
    }
}

/// The lock-table query wait-die used to make, restated over
/// [`LockTable::holders`].
trait ConflictingHolders {
    /// Holders of `page` whose locks conflict with a `mode` request by `txn`.
    fn conflicting_holders(&self, page: PageId, txn: TxnId, mode: LockMode) -> Vec<TxnId>;
}

impl ConflictingHolders for LockTable {
    fn conflicting_holders(&self, page: PageId, txn: TxnId, mode: LockMode) -> Vec<TxnId> {
        self.holders(page)
            .into_iter()
            .filter(|(t, held)| *t != txn && !held.compatible(mode))
            .map(|(t, _)| t)
            .collect()
    }
}
