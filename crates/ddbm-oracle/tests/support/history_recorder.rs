//! The committed-history recorder the simulator used to carry, kept
//! verbatim (apart from its imports) as the reference for
//! [`ddbm_oracle::conflict_cycle`]: it builds the conflict graph from every
//! pair of conflicting operations on a page. [`replay`] feeds it a witness
//! stream the way the simulator's hooks did — granted reads and installs
//! are recorded, `Committed` commits the run, `WaitingRestart` aborts it.

use ddbm_cc::find_cycle;
use ddbm_config::{PageId, TxnId};
use ddbm_core::protocol::RunId;
use ddbm_core::{TxnPhase, WitnessEvent, WitnessReply};
use denet::SimTime;
use std::collections::HashMap;

/// One recorded operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Txn.
    pub txn: TxnId,
    /// Page.
    pub page: PageId,
    /// Write.
    pub write: bool,
    /// Effective instant (grant for reads, install for writes) plus a
    /// monotone sequence number to break ties deterministically.
    pub at: SimTime,
    /// Seq.
    pub seq: u64,
}

/// See module docs.
#[derive(Debug, Default)]
pub struct HistoryRecorder {
    /// In-flight operations of the current run of each transaction.
    pending: HashMap<(TxnId, RunId), Vec<Op>>,
    /// Operations of committed transactions.
    committed: Vec<Op>,
    seq: u64,
    committed_txns: u64,
}

impl HistoryRecorder {
    /// Create a new instance.
    pub fn new() -> HistoryRecorder {
        HistoryRecorder::default()
    }

    /// Record an effective operation of `txn`'s current run.
    pub fn record(&mut self, txn: TxnId, run: RunId, page: PageId, write: bool, at: SimTime) {
        let seq = self.seq;
        self.seq += 1;
        self.pending.entry((txn, run)).or_default().push(Op {
            txn,
            page,
            write,
            at,
            seq,
        });
    }

    /// The run committed: its operations enter the history.
    pub fn commit(&mut self, txn: TxnId, run: RunId) {
        if let Some(ops) = self.pending.remove(&(txn, run)) {
            self.committed.extend(ops);
        }
        self.committed_txns += 1;
    }

    /// The run aborted: its operations never happened.
    pub fn abort(&mut self, txn: TxnId, run: RunId) {
        self.pending.remove(&(txn, run));
    }

    /// `committed_ops`.
    pub fn committed_ops(&self) -> usize {
        self.committed.len()
    }

    /// `committed_txns`.
    pub fn committed_txns(&self) -> u64 {
        self.committed_txns
    }

    /// Build the conflict graph of the committed history and return one
    /// cycle if it is not conflict-serializable.
    pub fn check_conflict_serializability(&self) -> Result<(), Vec<TxnId>> {
        // Group ops per page, sort by effective time.
        let mut per_page: HashMap<PageId, Vec<&Op>> = HashMap::new();
        for op in &self.committed {
            per_page.entry(op.page).or_default().push(op);
        }
        let mut edges: Vec<(TxnId, TxnId)> = Vec::new();
        for ops in per_page.values_mut() {
            ops.sort_by_key(|o| (o.at, o.seq));
            for i in 0..ops.len() {
                for later in ops.iter().skip(i + 1) {
                    let a = ops[i];
                    if a.txn != later.txn && (a.write || later.write) {
                        edges.push((a.txn, later.txn));
                    }
                }
            }
        }
        edges.sort();
        edges.dedup();
        match find_cycle(&edges) {
            None => Ok(()),
            Some(cycle) => Err(cycle),
        }
    }
}

/// Record `stream` into a fresh [`HistoryRecorder`].
pub fn replay(stream: &[(SimTime, WitnessEvent)]) -> HistoryRecorder {
    let mut h = HistoryRecorder::new();
    for &(at, ref ev) in stream {
        match *ev {
            WitnessEvent::Access {
                txn,
                run,
                page,
                write: false,
                reply: WitnessReply::Granted,
                ..
            }
            | WitnessEvent::Grant {
                txn,
                run,
                page,
                write: false,
                ..
            } => h.record(txn, run, page, false, at),
            WitnessEvent::Install { txn, run, page, .. } => h.record(txn, run, page, true, at),
            WitnessEvent::Committed { txn, run, .. } => h.commit(txn, run),
            WitnessEvent::Phase {
                txn,
                run,
                phase: TxnPhase::WaitingRestart,
            } => h.abort(txn, run),
            _ => {}
        }
    }
    h
}
