//! The coordinator phase tracker: an independent replay of the transaction
//! lifecycle state machine, shared context for every algorithm checker.
//!
//! The simulator emits a `Phase` witness event at each coordinator
//! transition. The tracker re-validates the machine (submit → Executing →
//! Preparing → Committing/AbortingVote → ..., wounds only before the commit
//! point) and, because the witness stream is totally ordered, lets node-side
//! events be checked against the coordinator phase *as of their emission*:
//! a commit-release witnessed while the coordinator is still Executing is
//! exactly the broken early lock release the strictness check must catch.

use crate::violation::{Violation, ViolationKind};
use ddbm_config::{NodeId, TxnId};
use ddbm_core::protocol::RunId;
use ddbm_core::{TxnPhase, WitnessEvent};
use denet::{FxHashMap, FxHashSet, SimTime};

/// See module docs.
#[derive(Debug, Default)]
pub struct PhaseTracker {
    phases: FxHashMap<(TxnId, RunId), TxnPhase>,
    /// Failed certifications still awaiting the commit check:
    /// `(txn, run) → [(node, node crash count at certify time)]`.
    failed_certify: FxHashMap<(TxnId, RunId), Vec<(NodeId, u64)>>,
    /// Crashes seen per node, to excuse certify state lost in a rebuild.
    crash_counts: FxHashMap<NodeId, u64>,
    /// Node-local CC state already released: `(txn, run, node)`.
    released: FxHashSet<(TxnId, RunId, NodeId)>,
}

impl PhaseTracker {
    /// A fresh tracker.
    pub fn new() -> PhaseTracker {
        PhaseTracker::default()
    }

    /// Current coordinator phase of `(txn, run)`, if the run has started.
    pub fn phase(&self, txn: TxnId, run: RunId) -> Option<TxnPhase> {
        self.phases.get(&(txn, run)).copied()
    }

    /// True when this node's CC state for the run was already released.
    pub fn is_released(&self, txn: TxnId, run: RunId, node: NodeId) -> bool {
        self.released.contains(&(txn, run, node))
    }

    fn check_transition(
        &mut self,
        at: SimTime,
        txn: TxnId,
        run: RunId,
        phase: TxnPhase,
        out: &mut Vec<Violation>,
    ) {
        let prev = self.phase(txn, run);
        let ok = match phase {
            TxnPhase::Executing => {
                prev.is_none()
                    && (run == 1 || self.phase(txn, run - 1) == Some(TxnPhase::WaitingRestart))
            }
            TxnPhase::Preparing => prev == Some(TxnPhase::Executing),
            TxnPhase::Committing | TxnPhase::AbortingVote => prev == Some(TxnPhase::Preparing),
            TxnPhase::Aborting => {
                matches!(prev, Some(TxnPhase::Executing) | Some(TxnPhase::Preparing))
            }
            TxnPhase::WaitingRestart => {
                matches!(
                    prev,
                    Some(TxnPhase::Aborting) | Some(TxnPhase::AbortingVote)
                )
            }
        };
        if !ok {
            out.push(Violation {
                kind: ViolationKind::PhaseOrder,
                at,
                txn: Some(txn),
                node: None,
                page: None,
                detail: format!("run {run} entered {phase:?} from {prev:?}"),
            });
        }
        self.phases.insert((txn, run), phase);
    }

    /// Feed one witnessed event through the tracker, reporting phase-level
    /// violations. Call this for *every* event, before the algorithm
    /// checker sees it. `faults` relaxes the certify→commit check, whose
    /// bookkeeping a crash legitimately destroys.
    pub fn observe(
        &mut self,
        at: SimTime,
        ev: &WitnessEvent,
        faults: bool,
        out: &mut Vec<Violation>,
    ) {
        match *ev {
            WitnessEvent::Phase { txn, run, phase } => {
                self.check_transition(at, txn, run, phase, out);
            }
            WitnessEvent::Access {
                txn,
                run,
                node,
                page,
                reply,
                ..
            } => {
                // Cohorts issue requests only while executing; an abort
                // decided at the coordinator may still be in flight toward
                // the node, so Aborting is legitimate too.
                let phase = self.phase(txn, run);
                if !matches!(phase, Some(TxnPhase::Executing) | Some(TxnPhase::Aborting)) {
                    out.push(Violation {
                        kind: ViolationKind::GrantOutsidePhase,
                        at,
                        txn: Some(txn),
                        node: Some(node),
                        page: Some(page),
                        detail: format!("access request ({reply:?}) while in {phase:?}"),
                    });
                }
                if self.is_released(txn, run, node) {
                    out.push(Violation {
                        kind: ViolationKind::GrantAfterRelease,
                        at,
                        txn: Some(txn),
                        node: Some(node),
                        page: Some(page),
                        detail: "access request after this node released the run".into(),
                    });
                }
            }
            WitnessEvent::Grant {
                txn,
                run,
                node,
                page,
                ..
            } => {
                // A release can wake a waiter whose coordinator has already
                // decided to abort it (the wake is dropped downstream), so
                // Aborting grants are benign; anything at or past the
                // commit point is not.
                let phase = self.phase(txn, run);
                if !matches!(phase, Some(TxnPhase::Executing) | Some(TxnPhase::Aborting)) {
                    out.push(Violation {
                        kind: ViolationKind::GrantOutsidePhase,
                        at,
                        txn: Some(txn),
                        node: Some(node),
                        page: Some(page),
                        detail: format!("lock granted while in {phase:?}"),
                    });
                }
                if self.is_released(txn, run, node) {
                    out.push(Violation {
                        kind: ViolationKind::GrantAfterRelease,
                        at,
                        txn: Some(txn),
                        node: Some(node),
                        page: Some(page),
                        detail: "lock granted after this node released the run".into(),
                    });
                }
            }
            WitnessEvent::Certify {
                txn, run, node, ok, ..
            } => {
                if !ok {
                    let crashes = self.crash_counts.get(&node).copied().unwrap_or(0);
                    self.failed_certify
                        .entry((txn, run))
                        .or_default()
                        .push((node, crashes));
                }
            }
            WitnessEvent::Release {
                txn,
                run,
                node,
                commit,
            } => {
                if self.released.contains(&(txn, run, node)) {
                    return; // duplicate release: first one was checked
                }
                let phase = self.phase(txn, run);
                let ok = if commit {
                    // The two-phase/strictness rule: a commit release is
                    // legal only after the coordinator's commit point.
                    phase == Some(TxnPhase::Committing)
                } else {
                    matches!(
                        phase,
                        Some(TxnPhase::Aborting) | Some(TxnPhase::AbortingVote)
                    )
                };
                if !ok {
                    out.push(Violation {
                        kind: ViolationKind::ReleaseOutsidePhase,
                        at,
                        txn: Some(txn),
                        node: Some(node),
                        page: None,
                        detail: format!(
                            "{}-release while in {phase:?}",
                            if commit { "commit" } else { "abort" }
                        ),
                    });
                }
                self.released.insert((txn, run, node));
            }
            WitnessEvent::Committed { txn, run, .. } => {
                let phase = self.phase(txn, run);
                if phase != Some(TxnPhase::Committing) {
                    out.push(Violation {
                        kind: ViolationKind::PhaseOrder,
                        at,
                        txn: Some(txn),
                        node: None,
                        page: None,
                        detail: format!("committed from {phase:?} (never reached Committing)"),
                    });
                }
                if let Some(failures) = self.failed_certify.remove(&(txn, run)) {
                    for (node, crashes_then) in failures {
                        let crashes_now = self.crash_counts.get(&node).copied().unwrap_or(0);
                        // A crash rebuilds the manager and the cohort is
                        // re-voted; only an unexcused failure is a bug.
                        if !faults || crashes_now == crashes_then {
                            out.push(Violation {
                                kind: ViolationKind::PhaseOrder,
                                at,
                                txn: Some(txn),
                                node: Some(node),
                                page: None,
                                detail: "committed despite a failed certification".into(),
                            });
                        }
                    }
                }
            }
            WitnessEvent::NodeCrash { node } => {
                *self.crash_counts.entry(node).or_insert(0) += 1;
            }
            WitnessEvent::Reject { .. }
            | WitnessEvent::Wound { .. }
            | WitnessEvent::Install { .. } => {}
        }
    }
}
