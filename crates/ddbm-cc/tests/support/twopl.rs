//! `TwoPhaseLocking` as it was before the four lock-based algorithms were
//! folded into one `ddbm_cc::locking::Locking` manager. Kept verbatim
//! (apart from its imports and the dropped allocating
//! `waits_for_edges` trait method) as a reference the unified manager
//! must agree with, response for response. The original module docs
//! follow.
//!
//! Distributed two-phase locking (paper §2.2).
//!
//! Cohorts lock pages dynamically as they execute and hold all locks until
//! the transaction commits or aborts. Read locks share; write locks exclude;
//! an access that will update a page takes a write lock directly (the read
//! and its conversion happen at the same access instant in this workload
//! model). *Local* deadlock detection runs every time a cohort blocks;
//! *global* deadlocks are found by the rotating Snoop, which unions
//! [`CcManager::waits_for_edges`] from every node. In both cases the victim
//! is the cycle member with the most recent initial startup time.

use ddbm_cc::resolve_deadlocks;
use ddbm_cc::{
    AccessResponse, CcManager, LockMode, LockOutcome, LockTable, ReleaseResponse, Ts, TxnMeta,
};
use ddbm_config::{Algorithm, PageId, TxnId};
use denet::FxHashMap;

/// See module docs.
#[derive(Debug)]
pub struct TwoPhaseLocking {
    table: LockTable,
    /// Initial startup timestamps of transactions seen at this node, for
    /// local victim selection. Entries are dropped on commit/abort.
    initial_ts: FxHashMap<TxnId, Ts>,
    /// When false, blocked requests are never checked for deadlock (the
    /// timeout-based 2PL variant: the transaction manager aborts cohorts
    /// that stay blocked past `SystemParams::lock_timeout`).
    detection: bool,
    /// Recycled edge buffer for local detection, which runs on every block.
    edges_scratch: Vec<(TxnId, TxnId)>,
}

impl Default for TwoPhaseLocking {
    fn default() -> Self {
        TwoPhaseLocking::new()
    }
}

impl TwoPhaseLocking {
    /// Create a new instance.
    pub fn new() -> TwoPhaseLocking {
        TwoPhaseLocking {
            table: LockTable::new(),
            initial_ts: FxHashMap::default(),
            detection: true,
            edges_scratch: Vec::new(),
        }
    }

    /// The timeout-resolved variant ([`Algorithm::TwoPhaseLockingTimeout`]):
    /// identical locking, but deadlocks are broken by the caller's lock-wait
    /// timeout instead of detection.
    pub fn without_detection() -> TwoPhaseLocking {
        TwoPhaseLocking {
            detection: false,
            ..TwoPhaseLocking::new()
        }
    }

    /// Switch this manager's lock table to barging grants (ablation:
    /// compatible requests pass queued incompatible ones, eliminating
    /// queue-edge waits at the price of possible writer starvation).
    pub fn with_barging(mut self) -> TwoPhaseLocking {
        self.table = LockTable::with_barging();
        self
    }

    fn finish(&mut self, txn: TxnId) -> ReleaseResponse {
        self.initial_ts.remove(&txn);
        ReleaseResponse {
            granted: self.table.release_all(txn),
            rejected: Vec::new(),
            must_abort: Vec::new(),
        }
    }
}

impl CcManager for TwoPhaseLocking {
    fn request_access(&mut self, txn: &TxnMeta, page: PageId, write: bool) -> AccessResponse {
        self.initial_ts.insert(txn.id, txn.initial_ts);
        let mode = if write {
            LockMode::Write
        } else {
            LockMode::Read
        };
        match self.table.request(txn.id, page, mode) {
            LockOutcome::Granted => AccessResponse::granted(),
            LockOutcome::Queued if !self.detection => AccessResponse::blocked(),
            LockOutcome::Queued => {
                // Local deadlock detection on every block (paper §2.2),
                // through the recycled edge buffer.
                let mut edges = std::mem::take(&mut self.edges_scratch);
                edges.clear();
                self.table.waits_for_edges_into(&mut edges);
                let default_ts = Ts::ZERO;
                let victims =
                    resolve_deadlocks(&edges, |t| *self.initial_ts.get(&t).unwrap_or(&default_ts));
                self.edges_scratch = edges;
                if victims.contains(&txn.id) {
                    // The requester itself dies: withdraw its fresh wait so
                    // the table holds no dangling request while the abort
                    // protocol runs. Its other locks are freed by `abort`.
                    let mut resp = AccessResponse::rejected();
                    resp.side_effects.granted = self.table.cancel_wait(txn.id, page);
                    resp.side_effects.must_abort =
                        victims.into_iter().filter(|v| *v != txn.id).collect();
                    return resp;
                }
                let mut resp = AccessResponse::blocked();
                resp.side_effects.must_abort = victims;
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
        if self.detection {
            Algorithm::TwoPhaseLocking
        } else {
            Algorithm::TwoPhaseLockingTimeout
        }
    }
}
