//! Conflict serializability of the committed history, read off the witness
//! stream.
//!
//! An operation takes effect when the engine makes it visible: a read when
//! the CC manager grants it (`Access` answered `Granted`, or a later
//! `Grant`), a write when its cohort installs it in phase 2 of the commit
//! protocol (`Install`; deferred-update semantics, paper §3.3). Only
//! operations of runs that commit count. Pages are keyed by logical
//! [`PageId`], so the installs at every replica of a page are writes to one
//! page.
//!
//! The conflict graph has an edge T1 → T2 whenever an operation of T1
//! precedes a conflicting operation of T2 on the same page (at least one of
//! them a write). [`conflict_cycle`] builds only the edges between
//! neighbouring conflicts — each page's last writer to every later
//! operation, and every reader since that write to the next writer. Any
//! conflicting pair is joined by a path of those edges through the writes
//! between them, so the graph has a cycle exactly when the all-pairs graph
//! does, at a cost linear in the stream.
//!
//! For the strict locking family (2PL, 2PL-T, WW, WD) an acyclic graph is
//! exactly conflict serializability. BTO with the Thomas write rule and OPT
//! admit histories that are view- but not conflict-serializable; the
//! [`VsrCollector`](crate::VsrCollector) covers those, and the NO_DC
//! baseline is knowingly unserializable under contention.

use ddbm_cc::find_cycle;
use ddbm_config::{PageId, TxnId};
use ddbm_core::protocol::RunId;
use ddbm_core::{WitnessEvent, WitnessReply, WitnessStream};
use denet::{FxHashMap, FxHashSet};

/// The committed operations seen so far on one page.
#[derive(Default)]
struct PageHistory {
    writer: Option<TxnId>,
    readers: Vec<TxnId>,
}

/// Check the committed history in `stream` for conflict serializability.
/// Returns the number of committed operations checked, or the members of
/// one conflict-graph cycle.
pub fn conflict_cycle(stream: &WitnessStream) -> Result<usize, Vec<TxnId>> {
    let committed: FxHashSet<(TxnId, RunId)> = stream
        .iter()
        .filter_map(|(_, ev)| match *ev {
            WitnessEvent::Committed { txn, run, .. } => Some((txn, run)),
            _ => None,
        })
        .collect();
    let mut pages: FxHashMap<PageId, PageHistory> = FxHashMap::default();
    let mut edges = Vec::new();
    let mut ops = 0;
    for (_, ev) in stream {
        let (txn, run, page, write) = match *ev {
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
            } => (txn, run, page, false),
            WitnessEvent::Install { txn, run, page, .. } => (txn, run, page, true),
            _ => continue,
        };
        if !committed.contains(&(txn, run)) {
            continue;
        }
        ops += 1;
        let p = pages.entry(page).or_default();
        if let Some(w) = p.writer.filter(|&w| w != txn) {
            edges.push((w, txn));
        }
        if write {
            edges.extend(p.readers.drain(..).filter(|&r| r != txn).map(|r| (r, txn)));
            p.writer = Some(txn);
        } else {
            p.readers.push(txn);
        }
    }
    match find_cycle(&edges) {
        None => Ok(ops),
        Some(cycle) => Err(cycle),
    }
}
