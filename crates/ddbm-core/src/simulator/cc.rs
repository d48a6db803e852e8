//! The cohort access path and its glue to each node's CC manager (paper
//! §2): CC request, disk read for reads, page processing; lock waits and
//! their timeouts; and acting on whatever a CC state change grants,
//! rejects or wounds.

use super::Simulator;
use crate::protocol::{AbortCause, CohortIdx, CpuJob, DiskJob, Event, MsgKind, RunId};
use crate::txn::TxnPhase;
use crate::witness::WitnessEvent;
use ddbm_cc::{AccessReply, ReleaseResponse, Ts};
use ddbm_config::{Algorithm, NodeId, TxnId};
use denet::SimTime;

impl Simulator {
    /// True if (txn, run, cohort) identifies a cohort that is still
    /// executing — the guard that drops stale completions.
    #[inline]
    pub(super) fn live_cohort(&self, id: TxnId, run: RunId, cohort: CohortIdx) -> bool {
        self.txns.live_run(id, run).is_some_and(|t| {
            t.phase == TxnPhase::Executing && t.cohorts.get(cohort).is_some_and(|c| !c.done)
        })
    }

    /// Start the next access of a cohort, or report it done.
    pub(super) fn cohort_continue(
        &mut self,
        now: SimTime,
        id: TxnId,
        run: RunId,
        cohort: CohortIdx,
    ) {
        if !self.live_cohort(id, run, cohort) {
            return;
        }
        let txn = self.txns.get(id).expect("live cohort checked");
        let next = txn.cohorts[cohort].next_access;
        let spec = &txn.template.cohorts[cohort];
        let node = spec.node;
        if next >= spec.accesses.len() {
            // All accesses complete: report to the coordinator. Locks and
            // workspace updates are held through the commit protocol.
            if let Some(t) = self.txns.get_mut(id) {
                t.cohorts[cohort].done = true;
            }
            if self.hooks.early_lock_release {
                // Test-only defect: a broken lock manager that frees the
                // cohort's locks at work-completion instead of holding them
                // through commit. The witness records the release honestly,
                // so the strictness checker sees a commit-release while the
                // coordinator is still Executing.
                self.release_cc(now, id, run, node, true);
            }
            let done = MsgKind::CohortDone {
                txn: id,
                run,
                cohort,
            };
            self.send(now, node, NodeId::HOST, done);
            return;
        }
        // Concurrency-control request processing first (InstPerCCReq).
        let cc_instr = self.config.system.inst_per_cc_req as f64;
        let job = CpuJob::CcRequest {
            txn: id,
            run,
            cohort,
            access: next,
        };
        self.cpu_shared(now, node, job, cc_instr);
    }

    /// The CC request's CPU cost has been paid: ask the CC manager.
    pub(super) fn do_cc_request(
        &mut self,
        now: SimTime,
        node: NodeId,
        id: TxnId,
        run: RunId,
        cohort: CohortIdx,
        access: usize,
    ) {
        if !self.live_cohort(id, run, cohort) {
            return;
        }
        let txn = self.txns.get(id).expect("live cohort checked");
        let meta = txn.meta();
        let acc = txn.template.cohorts[cohort].accesses[access];
        let resp = self.nodes[node.0]
            .cc
            .request_access(&meta, acc.page, acc.write);
        // Move the side effects out instead of cloning the grant/reject lists.
        let side = resp.side_effects;
        self.obs.witness_with(now, || WitnessEvent::Access {
            txn: meta.id,
            run,
            node,
            page: acc.page,
            write: acc.write,
            reply: resp.reply.into(),
            initial_ts: meta.initial_ts,
            run_ts: meta.run_ts,
        });
        match resp.reply {
            AccessReply::Granted => self.access_granted(now, node, id, run, cohort, access),
            AccessReply::Blocked => {
                if let Some(t) = self.txns.get_mut(id) {
                    t.cohorts[cohort].blocked_since = Some(now);
                    self.obs
                        .lock_wait_begin(now, t, node, &*self.nodes[node.0].cc);
                }
                if self.config.algorithm == Algorithm::TwoPhaseLockingTimeout {
                    self.calendar.schedule_after(
                        self.config.system.lock_timeout,
                        Event::LockTimeout {
                            txn: id,
                            run,
                            cohort,
                            access,
                        },
                    );
                }
            }
            // The requester must abort: tell the coordinator.
            AccessReply::Rejected => self.request_abort(now, node, id, run, AbortCause::Timestamp),
        }
        self.apply_release(now, node, side, Some((id, meta.initial_ts)));
    }

    /// A granted access proceeds: reads do a synchronous disk I/O, writes go
    /// straight to page processing (their disk write is deferred to after
    /// commit — paper §3.3).
    fn access_granted(
        &mut self,
        now: SimTime,
        node: NodeId,
        id: TxnId,
        run: RunId,
        cohort: CohortIdx,
        access: usize,
    ) {
        if !self.live_cohort(id, run, cohort) {
            return;
        }
        let acc = self
            .txns
            .get(id)
            .expect("live cohort checked")
            .template
            .cohorts[cohort]
            .accesses[access];
        // A buffer hit (extension; never taken with the paper's settings)
        // finds the page already in memory and skips the disk read.
        if acc.write || self.nodes[node.0].buffer.probe(&acc.page) {
            self.start_page_processing(now, node, id, run, cohort, access);
        } else {
            let page = acc.page;
            let read = DiskJob::Read {
                txn: id,
                run,
                cohort,
                access,
                page,
            };
            self.submit_disk(now, node, read);
        }
    }

    #[inline]
    pub(super) fn start_page_processing(
        &mut self,
        now: SimTime,
        node: NodeId,
        id: TxnId,
        run: RunId,
        cohort: CohortIdx,
        access: usize,
    ) {
        let instr = self
            .rng_proc
            .exponential(self.config.workload.inst_per_page as f64);
        let job = CpuJob::PageProcess {
            txn: id,
            run,
            cohort,
            access,
        };
        self.cpu_shared(now, node, job, instr);
    }

    #[inline]
    pub(super) fn access_finished(
        &mut self,
        now: SimTime,
        id: TxnId,
        run: RunId,
        cohort: CohortIdx,
    ) {
        if !self.live_cohort(id, run, cohort) {
            return;
        }
        if let Some(t) = self.txns.get_mut(id) {
            t.cohorts[cohort].next_access += 1;
        }
        self.cohort_continue(now, id, run, cohort);
    }

    /// 2PL-T: a cohort has been blocked for the full lock timeout — presume
    /// deadlock and abort the transaction (the blocked node notifies the
    /// coordinator, paying the usual message costs).
    pub(super) fn on_lock_timeout(
        &mut self,
        now: SimTime,
        id: TxnId,
        run: RunId,
        cohort: CohortIdx,
        access: usize,
    ) {
        let Some(txn) = self.txns.live_run(id, run) else {
            return;
        };
        let c = &txn.cohorts[cohort];
        if txn.phase != TxnPhase::Executing || c.blocked_since.is_none() || c.next_access != access
        {
            return; // the wait resolved before the timer fired
        }
        let node = txn.template.cohorts[cohort].node;
        self.request_abort(now, node, id, run, AbortCause::LockTimeout);
    }

    /// `node` asks the coordinator to abort run `run` of `id` for `cause`.
    pub(super) fn request_abort(
        &mut self,
        now: SimTime,
        node: NodeId,
        txn: TxnId,
        run: RunId,
        cause: AbortCause,
    ) {
        let kind = MsgKind::AbortRequest { txn, run, cause };
        self.send(now, node, NodeId::HOST, kind);
    }

    /// Release `id`'s CC state at `node` with the given outcome (witnessed
    /// first) and act on what the release frees.
    pub(super) fn release_cc(
        &mut self,
        now: SimTime,
        id: TxnId,
        run: RunId,
        node: NodeId,
        commit: bool,
    ) {
        self.obs.witness_with(now, || WitnessEvent::Release {
            txn: id,
            run,
            node,
            commit,
        });
        let cc = &mut self.nodes[node.0].cc;
        let rel = if commit { cc.commit(id) } else { cc.abort(id) };
        self.apply_release(now, node, rel, None);
    }

    /// Apply the consequences of a CC state change at `node`: resume granted
    /// waiters, abort rejected waiters, and forward wounds/victims to the
    /// coordinator. `wound_ctx` names the access requester whose conflict
    /// provoked the change, when there is one — it gives the witness stream
    /// the aggressor side of each wound so the oracle can check WW priority.
    fn apply_release(
        &mut self,
        now: SimTime,
        node: NodeId,
        rel: ReleaseResponse,
        wound_ctx: Option<(TxnId, Ts)>,
    ) {
        for (id, _page) in rel.granted {
            let Some((run, cohort)) = self.close_lock_wait(now, node, id) else {
                continue;
            };
            let txn = self.txns.get(id).expect("closed above");
            let access = txn.cohorts[cohort].next_access;
            self.obs.grant(now, txn, node, cohort, access);
            self.access_granted(now, node, id, run, cohort, access);
        }
        for (id, page) in rel.rejected {
            let Some((run, _)) = self.close_lock_wait(now, node, id) else {
                continue;
            };
            self.obs.witness_with(now, || WitnessEvent::Reject {
                txn: id,
                run,
                node,
                page,
            });
            self.request_abort(now, node, id, run, AbortCause::Timestamp);
        }
        for id in rel.must_abort {
            let Some(txn) = self.txns.get(id) else {
                continue;
            };
            let run = txn.run;
            self.obs.witness_with(now, || WitnessEvent::Wound {
                victim: id,
                victim_initial_ts: txn.meta().initial_ts,
                requester: wound_ctx.map(|(r, _)| r),
                requester_initial_ts: wound_ctx.map(|(_, ts)| ts),
                node,
            });
            self.request_abort(now, node, id, run, AbortCause::Wound);
        }
    }

    /// A waiting request of `id` at `node` was granted or rejected: end its
    /// lock wait, if it was blocked, and return the run and cohort it
    /// belongs to.
    fn close_lock_wait(
        &mut self,
        now: SimTime,
        node: NodeId,
        id: TxnId,
    ) -> Option<(RunId, CohortIdx)> {
        let txn = self.txns.get_mut(id)?;
        let cohort = txn.cohort_at(node)?;
        if let Some(since) = txn.cohorts[cohort].blocked_since.take() {
            if txn.phase == TxnPhase::Executing {
                self.metrics.record_blocking(now.since(since));
            }
            self.obs.lock_wait_end(now, txn, node);
        }
        Some((txn.run, cohort))
    }
}
