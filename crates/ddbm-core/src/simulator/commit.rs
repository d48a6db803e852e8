//! The transaction manager (paper §2.1, §3.3): admission and replica
//! routing, cohort loading, centralized two-phase commit, the abort
//! protocol, and restarts — plus the freelists that keep the steady-state
//! transaction lifecycle free of heap allocation (pinned by
//! `tests/alloc_steady_state.rs`).

use super::resources::Res;
use super::Simulator;
use crate::protocol::{AbortCause, CohortIdx, CpuJob, DiskJob, Event, MsgKind, RunId};
use crate::txn::{CohortRun, TxnPhase, TxnRuntime};
use crate::witness::WitnessEvent;
use crate::workload::{generate_template_into, route_replicated, TxnTemplate};
use ddbm_cc::Ts;
use ddbm_config::{ExecPattern, NodeId, PageId, TxnId};
use denet::SimTime;
use std::rc::Rc;

impl Simulator {
    pub(super) fn submit_transaction(&mut self, now: SimTime, terminal: usize) {
        if self.draining {
            return; // chaos epilogue: no new admissions, just finish the rest
        }
        let mut logical: Option<Rc<TxnTemplate>> = None;
        let mut unavailable = false;
        let template = if let Some(script) = &mut self.script {
            // Oracle replay: fixed templates in submission order; once the
            // script runs dry the terminal simply stops submitting. Scripted
            // templates are already physical (replica routing baked in at
            // recording time), so they are never re-routed.
            let Some(t) = script.templates.get(script.next) else {
                return;
            };
            script.next += 1;
            let t = t.clone();
            self.pooled_template(t)
        } else {
            let relation = self.config.relation_of_terminal(terminal);
            let mut tpl = self.take_template();
            let out = Rc::get_mut(&mut tpl).expect("pooled template is uniquely owned");
            generate_template_into(
                &self.config,
                &self.cohort_groups[relation],
                relation,
                &mut self.rng_work,
                &mut self.sample_scratch,
                out,
            );
            if self.replication_on {
                // No live read/write replica set for some file: the
                // transaction aborts before doing any work and retries after
                // the usual restart delay.
                let routed = self.route(&tpl);
                unavailable = routed.is_none();
                // Only a restart under faults re-routes the logical plan
                // (see `restart_txn`), so only then is it kept; otherwise
                // `put_template` hands it straight back to the freelist.
                if self.faults_enabled {
                    logical = Some(Rc::clone(&tpl));
                }
                match routed {
                    Some(physical) => {
                        self.put_template(tpl);
                        physical
                    }
                    None => tpl,
                }
            } else {
                tpl
            }
        };
        if !unavailable {
            if let Some(log) = &mut self.template_log {
                log.push((*template).clone());
            }
        }
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        let cohorts = self.take_cohorts(template.cohorts.len());
        let mut txn = TxnRuntime::with_cohorts(id, terminal, template, cohorts, now);
        txn.logical = logical;
        self.obs.phase(now, &mut txn, TxnPhase::Executing);
        self.txns.insert(txn);
        if unavailable {
            self.abort_replica_unavailable(now, id);
            return;
        }
        // Run 1 pays the coordinator process-startup cost at the host.
        let startup = self.config.system.inst_per_startup as f64;
        let job = CpuJob::CoordStartup { txn: id, run: 1 };
        self.cpu_shared(now, NodeId::HOST, job, startup);
    }

    /// Replication: route a logical plan onto the currently live replicas
    /// (see [`route_replicated`]), into a plan from the freelist; `None`
    /// when some file has no live read/write replica set.
    fn route(&mut self, logical: &TxnTemplate) -> Option<Rc<TxnTemplate>> {
        let mut tpl = self.take_template();
        let out = Rc::get_mut(&mut tpl).expect("pooled template is uniquely owned");
        let nodes = &self.nodes;
        let routed = route_replicated(
            &self.config,
            &self.placement,
            logical,
            |n| nodes[n.0].up,
            &mut self.read_rr,
            self.hooks.skip_replica_write,
            out,
        );
        if routed.is_err() {
            self.put_template(tpl);
            return None;
        }
        Some(tpl)
    }

    /// Upper bound on each freelist; anything beyond the cap is genuinely
    /// excess (pool high-water marks track live-transaction counts, which
    /// the terminal population bounds).
    pub(super) const POOL_CAP: usize = 256;

    /// A uniquely-owned plan from the freelist (or a fresh one); the caller
    /// writes the new plan through `Rc::get_mut`, reusing the recycled
    /// cohort/access vectors.
    fn take_template(&mut self) -> Rc<TxnTemplate> {
        self.tpl_pool.pop().unwrap_or_else(|| {
            Rc::new(TxnTemplate {
                relation: 0,
                cohorts: Vec::new(),
            })
        })
    }

    /// Move `t` into a pooled `Rc`.
    fn pooled_template(&mut self, t: TxnTemplate) -> Rc<TxnTemplate> {
        let mut tpl = self.take_template();
        *Rc::get_mut(&mut tpl).expect("pooled template is uniquely owned") = t;
        tpl
    }

    /// Return a plan handle to the freelist if this was the last one.
    fn put_template(&mut self, tpl: Rc<TxnTemplate>) {
        if Rc::strong_count(&tpl) == 1 && self.tpl_pool.len() < Self::POOL_CAP {
            self.tpl_pool.push(tpl);
        }
    }

    /// A cleared cohort-progress vector of length `n` from the freelist.
    fn take_cohorts(&mut self, n: usize) -> Vec<CohortRun> {
        let mut v = self.cohort_pool.pop().unwrap_or_default();
        v.clear();
        v.resize_with(n, CohortRun::default);
        v
    }

    /// Return a finished transaction's heap parts to the freelists. A kept
    /// logical plan goes back after the physical one, so the next
    /// submission generates into this logical plan's buffers and routes
    /// into this route's: each keeps its cohort count, and no access buffer
    /// is dropped and regrown.
    fn recycle_txn(&mut self, txn: TxnRuntime) {
        let TxnRuntime {
            template,
            logical,
            mut cohorts,
            ..
        } = txn;
        self.put_template(template);
        if let Some(l) = logical {
            self.put_template(l);
        }
        if self.cohort_pool.len() < Self::POOL_CAP {
            cohorts.clear();
            self.cohort_pool.push(cohorts);
        }
    }

    /// Return a write-back page list to its freelist.
    pub(super) fn put_pages(&mut self, mut pages: Vec<PageId>) {
        if self.page_pool.len() < Self::POOL_CAP {
            pages.clear();
            self.page_pool.push(pages);
        }
    }

    pub(super) fn restart_txn(&mut self, now: SimTime, id: TxnId) {
        let Some(txn) = self.txns.get_mut(id) else {
            return;
        };
        debug_assert_eq!(txn.phase, TxnPhase::WaitingRestart);
        self.obs.restart(now, txn);
        let run = txn.run;
        // The coordinator process survives restarts; only the cohorts are
        // re-initiated, so no CoordStartup cost here.
        //
        // Replication under faults: the live-replica set may have changed
        // since the last run, so the logical plan is re-routed before the
        // cohorts load. Fault-free replicated runs keep their original
        // routing (re-routing would advance the read cursor and pick
        // the same live set anyway), which also keeps recorded oracle
        // workloads aligned with their replays.
        if self.replication_on && self.faults_enabled {
            if let Some(logical) = txn.logical.clone() {
                let Some(t) = self.route(&logical) else {
                    self.abort_replica_unavailable(now, id);
                    return;
                };
                let old = self.txns.get_mut(id).map(|txn| txn.replace_template(t));
                if let Some(old) = old {
                    self.put_template(old);
                }
            }
        }
        self.load_cohorts(now, id, run);
    }

    /// Send `LoadCohort` to the cohorts that should start now: all of them
    /// for parallel execution, just the first for sequential.
    pub(super) fn load_cohorts(&mut self, now: SimTime, id: TxnId, run: RunId) {
        let Some(txn) = self.txns.get(id) else {
            return;
        };
        let count = match self.config.workload.exec_pattern {
            ExecPattern::Parallel => txn.template.cohorts.len(),
            ExecPattern::Sequential => 1,
        };
        // Hold the (immutable, Rc-shared) plan across the sends instead of
        // collecting a target list per fan-out.
        let template = Rc::clone(&txn.template);
        for (cohort, spec) in template.cohorts.iter().take(count).enumerate() {
            self.load_one_cohort(now, id, run, cohort, spec.node);
        }
    }

    fn load_one_cohort(
        &mut self,
        now: SimTime,
        id: TxnId,
        run: RunId,
        cohort: CohortIdx,
        node: NodeId,
    ) {
        if let Some(txn) = self.txns.get_mut(id) {
            txn.cohorts[cohort].loaded = true;
        }
        let load = MsgKind::LoadCohort {
            txn: id,
            run,
            cohort,
        };
        self.send(now, NodeId::HOST, node, load);
    }

    /// A cohort arrives at `node` and starts up there, unless its run died
    /// while the message was in flight.
    pub(super) fn on_load_cohort(
        &mut self,
        now: SimTime,
        node: NodeId,
        txn: TxnId,
        run: RunId,
        cohort: CohortIdx,
    ) {
        let Some(t) = self.txns.live_run_mut(txn, run) else {
            return;
        };
        if t.phase != TxnPhase::Executing {
            return;
        }
        // Stamp the node's crash epoch the moment the node learns of the
        // cohort: protocol messages carrying an older stamp refer to state a
        // crash has since destroyed.
        t.cohorts[cohort].load_epoch = self.nodes[node.0].epoch;
        let startup = self.config.system.inst_per_startup as f64;
        let job = CpuJob::CohortStartup { txn, run, cohort };
        self.cpu_shared(now, node, job, startup);
    }

    pub(super) fn on_cohort_done(
        &mut self,
        now: SimTime,
        id: TxnId,
        run: RunId,
        cohort: CohortIdx,
    ) {
        let Some(txn) = self.txns.live_run_mut(id, run) else {
            return;
        };
        if txn.phase != TxnPhase::Executing {
            return;
        }
        txn.cohorts[cohort].done = true;
        if !txn.all_done() {
            // Sequential execution: fire up the next cohort.
            if self.config.workload.exec_pattern == ExecPattern::Sequential {
                if let Some(next) = txn.cohorts.iter().position(|c| !c.loaded) {
                    let node = txn.template.cohorts[next].node;
                    self.load_one_cohort(now, id, run, next, node);
                }
            }
            return;
        }
        // All cohorts done: begin phase 1 of commit with a globally unique
        // commit timestamp (used by OPT certification).
        self.obs.phase(now, txn, TxnPhase::Preparing);
        txn.votes_received = 0;
        txn.all_yes = true;
        let commit_ts = Ts::new(now.0, id);
        txn.commit_ts = Some(commit_ts);
        let template = Rc::clone(&txn.template);
        for (cohort, spec) in template.cohorts.iter().enumerate() {
            let prepare = MsgKind::Prepare {
                txn: id,
                run,
                cohort,
                commit_ts,
            };
            self.send(now, NodeId::HOST, spec.node, prepare);
        }
        // One response timer covers the whole commit protocol: it presumes
        // abort if votes stall and re-arms itself through phase 2 until the
        // final acknowledgement arrives.
        if self.faults_enabled {
            self.arm_cohort_timeout(id, run);
        }
    }

    /// Phase 1 at a cohort: certify and vote.
    pub(super) fn on_prepare(
        &mut self,
        now: SimTime,
        node: NodeId,
        txn: TxnId,
        run: RunId,
        cohort: CohortIdx,
        commit_ts: Ts,
    ) {
        let Some(t) = self.txns.live_run_mut(txn, run) else {
            return;
        };
        // A cohort whose state died in a crash cannot vote yes: the rebuilt
        // CC manager has no read/write sets to certify.
        let c = &t.cohorts[cohort];
        let yes = if c.lost || c.load_epoch != self.nodes[node.0].epoch {
            t.abort_cause = Some(AbortCause::NodeCrash);
            false
        } else {
            let meta = t.meta();
            let ok = self.nodes[node.0].cc.certify(&meta, commit_ts);
            self.obs.witness_with(now, || WitnessEvent::Certify {
                txn: meta.id,
                run,
                node,
                commit_ts,
                run_ts: meta.run_ts,
                ok,
            });
            ok
        };
        let vote = MsgKind::Vote {
            txn,
            run,
            cohort,
            yes,
        };
        self.send(now, node, NodeId::HOST, vote);
    }

    pub(super) fn on_vote(&mut self, now: SimTime, id: TxnId, run: RunId, yes: bool) {
        let Some(txn) = self.txns.live_run_mut(id, run) else {
            return;
        };
        if txn.phase != TxnPhase::Preparing {
            return;
        }
        txn.votes_received += 1;
        txn.all_yes &= yes;
        if !yes {
            // Keep a more specific cause (a crash detected at Prepare time)
            // if one was already recorded; otherwise this is certification.
            txn.abort_cause.get_or_insert(AbortCause::Validation);
        }
        if txn.votes_received < txn.template.cohorts.len() {
            return;
        }
        let commit = txn.all_yes;
        let phase = if commit {
            TxnPhase::Committing
        } else {
            TxnPhase::AbortingVote
        };
        self.obs.phase(now, txn, phase);
        txn.acks_outstanding = txn.template.cohorts.len();
        let template = Rc::clone(&txn.template);
        for (cohort, spec) in template.cohorts.iter().enumerate() {
            let decision = MsgKind::Decision {
                txn: id,
                run,
                cohort,
                commit,
            };
            self.send(now, NodeId::HOST, spec.node, decision);
        }
    }

    /// Phase 2 at a cohort: install (on commit) and release, then ack.
    pub(super) fn on_decision(
        &mut self,
        now: SimTime,
        node: NodeId,
        id: TxnId,
        run: RunId,
        cohort: CohortIdx,
        commit: bool,
    ) {
        let Some(txn) = self.txns.live_run_mut(id, run) else {
            return;
        };
        // Fault injection: a retransmitted decision, or one that outlived the
        // cohort's state (crash between load and decision), must not install
        // pages or touch the rebuilt CC manager — it is only acknowledged.
        // The `settled` flag makes decision processing exactly-once per run.
        let c = &mut txn.cohorts[cohort];
        if !c.settled && !c.lost && c.load_epoch == self.nodes[node.0].epoch {
            c.settled = true;
            if commit {
                self.commit_cohort(now, node, id, run, cohort);
            } else {
                self.release_cc(now, id, run, node, false);
            }
        }
        let ack = MsgKind::Ack {
            txn: id,
            run,
            cohort,
        };
        self.send(now, node, NodeId::HOST, ack);
    }

    /// Commit `id`'s cohort at `node`: install its writes, release its CC
    /// state, and start the asynchronous write-back of the updated pages.
    fn commit_cohort(
        &mut self,
        now: SimTime,
        node: NodeId,
        id: TxnId,
        run: RunId,
        cohort: CohortIdx,
    ) {
        let txn = self.txns.get(id).expect("decided txn exists");
        // Only the commit path needs the write set; read-only cohorts and
        // aborts build nothing. The list comes from the page-list freelist
        // (recycled when the write-back chain issues its last disk write),
        // so steady-state commits allocate nothing.
        let mut pages = self.page_pool.pop().unwrap_or_default();
        // Grow straight to the workload bound: letting each recycled buffer
        // creep up by amortized doubling would reallocate long after warmup.
        pages.reserve(self.config.max_txn_accesses());
        let accesses = &txn.template.cohorts[cohort].accesses;
        pages.extend(accesses.iter().filter(|a| a.write).map(|a| a.page));
        // Witness installs *before* releasing locks: a release can grant a
        // waiter at this same instant, and its read must sequence after
        // these writes.
        self.obs.install(now, txn, node, &pages);
        self.release_cc(now, id, run, node, true);
        // Kick off the asynchronous write-back chain for this cohort's
        // updated pages: InstPerUpdate CPU per page, then the disk write.
        if pages.is_empty() {
            self.put_pages(pages);
        } else {
            let instr = self.config.system.inst_per_update as f64;
            let job = CpuJob::UpdateInit {
                txn: id,
                pages,
                next: 0,
            };
            self.cpu_shared(now, node, job, instr);
        }
    }

    pub(super) fn on_ack(&mut self, now: SimTime, id: TxnId, run: RunId, cohort: CohortIdx) {
        let Some(txn) = self.txns.live_run_mut(id, run) else {
            return;
        };
        // Retransmission makes duplicate acks possible, and a crash sweep may
        // have synthesized this cohort's ack already: count each cohort once.
        if !matches!(txn.phase, TxnPhase::Committing | TxnPhase::AbortingVote)
            || txn.cohorts[cohort].acked
        {
            return;
        }
        txn.cohorts[cohort].acked = true;
        self.count_ack(now, id);
    }

    /// Count one acknowledgement (received, or synthesized for a cohort
    /// that crashed after the decision point) against the coordinator's
    /// outstanding count, completing the commit or abort on the last one.
    pub(super) fn count_ack(&mut self, now: SimTime, id: TxnId) {
        let Some(txn) = self.txns.get_mut(id) else {
            return;
        };
        debug_assert!(txn.acks_outstanding > 0, "ack with nothing pending");
        txn.acks_outstanding -= 1;
        if txn.acks_outstanding > 0 {
            return;
        }
        match txn.phase {
            TxnPhase::Committing => self.complete_commit(now, id),
            TxnPhase::AbortingVote | TxnPhase::Aborting => self.complete_abort(now, id),
            _ => {}
        }
    }

    /// The transaction is durably committed: record metrics, free state, and
    /// put the terminal back to thinking.
    fn complete_commit(&mut self, now: SimTime, id: TxnId) {
        let mut txn = self.txns.remove(id).expect("committing txn exists");
        let response = now.since(txn.origin);
        self.metrics.record_commit(response);
        self.obs.committed(now, &mut txn);
        if let Some(p) = &mut self.metrics.phases {
            p.record_commit(&txn.phase_ns, response);
        }
        let delay = self.think_delay();
        let terminal = txn.terminal;
        self.calendar
            .schedule_after(delay, Event::TerminalSubmit { terminal });
        self.recycle_txn(txn);
        self.check_progress(now);
    }

    /// An aborted run is fully dismantled: count it and schedule the rerun
    /// after one observed average response time (paper §3.3).
    fn complete_abort(&mut self, now: SimTime, id: TxnId) {
        let Some(txn) = self.txns.get_mut(id) else {
            return;
        };
        self.obs.phase(now, txn, TxnPhase::WaitingRestart);
        let mut fallback = now.since(txn.origin);
        if fallback.is_zero() {
            // Aborted at its submission instant (no live replica set): a
            // zero delay would restart it into the same state at the same
            // instant forever, so back off as a message to a down node does.
            fallback = self.config.faults.msg_retry;
        }
        let run_lifetime = now.since(txn.run_start);
        let cause = txn.abort_cause.take().unwrap_or(AbortCause::Validation);
        self.metrics.record_abort(cause);
        if let Some(p) = &mut self.metrics.phases {
            p.record_abort(cause, run_lifetime);
        }
        let delay = self.metrics.restart_delay(fallback);
        self.calendar
            .schedule_after(delay, Event::Restart { txn: id });
    }

    /// A run that finds no live replica set aborts before loading any
    /// cohort. It still passes through `Aborting`, as every abort does, and
    /// then completes at once.
    fn abort_replica_unavailable(&mut self, now: SimTime, id: TxnId) {
        let Some(txn) = self.txns.get_mut(id) else {
            return;
        };
        self.obs.phase(now, txn, TxnPhase::Aborting);
        txn.abort_cause = Some(AbortCause::ReplicaUnavailable);
        self.complete_abort(now, id);
    }

    pub(super) fn on_abort_request(
        &mut self,
        now: SimTime,
        id: TxnId,
        run: RunId,
        cause: AbortCause,
    ) {
        let Some(txn) = self.txns.live_run_mut(id, run) else {
            return; // already committed, or a stale run
        };
        if txn.abort_in_progress() || txn.wound_immune() {
            return;
        }
        // Kill this run: dismantle every cohort loaded so far. Cohorts lost
        // to a crash have nothing left to dismantle — their acknowledgement
        // is implicit, so only the surviving cohorts are counted and told.
        self.obs.phase(now, txn, TxnPhase::Aborting);
        txn.abort_cause = Some(cause);
        let mut live = 0usize;
        for c in txn.cohorts.iter_mut().filter(|c| c.loaded) {
            if c.lost {
                c.acked = true;
            } else {
                live += 1;
            }
        }
        txn.acks_outstanding = live;
        if live == 0 {
            // No surviving cohort ever started (abort raced cohort loading,
            // or the crash took every loaded cohort): the run dies instantly.
            self.complete_abort(now, id);
            return;
        }
        // The loaded flags cannot change underneath the sends (they are only
        // set while the transaction is Executing, and it is now Aborting),
        // so re-reading them per cohort is equivalent to snapshotting.
        let template = Rc::clone(&txn.template);
        for (cohort, spec) in template.cohorts.iter().enumerate() {
            let is_live = self
                .txns
                .get(id)
                .is_some_and(|t| t.cohorts[cohort].loaded && !t.cohorts[cohort].lost);
            if is_live {
                let abort = MsgKind::AbortCohort {
                    txn: id,
                    run,
                    cohort,
                };
                self.send(now, NodeId::HOST, spec.node, abort);
            }
        }
        if self.faults_enabled {
            self.arm_cohort_timeout(id, run);
        }
    }

    /// Dismantle a cohort at `node`: discard its CC state and cancel its
    /// pending CPU work and queued disk reads, then acknowledge. In-service
    /// disk requests complete harmlessly (their completions are
    /// stale-dropped). Fault injection can retransmit this message, so a
    /// stale copy (newer run, already-settled cohort, or a cohort whose
    /// state a crash destroyed) must not dismantle fresh state — it is only
    /// acknowledged. The run is compared first: a restart re-routed under
    /// faults may have fewer cohorts than the run the message was sent for.
    pub(super) fn on_abort_cohort(
        &mut self,
        now: SimTime,
        node: NodeId,
        txn: TxnId,
        run: RunId,
        cohort: CohortIdx,
    ) {
        if let Some(c) = self
            .txns
            .live_run_mut(txn, run)
            .map(|t| &mut t.cohorts[cohort])
        {
            if !c.settled && !c.lost && c.load_epoch == self.nodes[node.0].epoch {
                c.settled = true;
                self.release_cc(now, txn, run, node, false);
                self.touch_cpu(now, node);
                self.nodes[node.0].cpu.cancel_shared_where(|job| match job {
                    CpuJob::CohortStartup { txn: t, run: r, .. }
                    | CpuJob::CcRequest { txn: t, run: r, .. }
                    | CpuJob::PageProcess { txn: t, run: r, .. } => *t == txn && *r == run,
                    _ => false,
                });
                self.resched(node, Res::Cpu);
                self.nodes[node.0]
                    .disks
                    .cancel_queued_where(|job| match job {
                        DiskJob::Read { txn: t, run: r, .. } => *t == txn && *r == run,
                        DiskJob::WriteBack { .. } => false,
                    });
            }
        }
        let ack = MsgKind::AbortAck { txn, run, cohort };
        self.send(now, node, NodeId::HOST, ack);
    }

    pub(super) fn on_abort_ack(&mut self, now: SimTime, id: TxnId, run: RunId, cohort: CohortIdx) {
        let Some(txn) = self.txns.live_run_mut(id, run) else {
            return;
        };
        if txn.phase != TxnPhase::Aborting || txn.cohorts[cohort].acked {
            return;
        }
        txn.cohorts[cohort].acked = true;
        self.count_ack(now, id);
    }

    /// Start (or restart) the commit-protocol response timer for `id`'s run.
    pub(super) fn arm_cohort_timeout(&mut self, id: TxnId, run: RunId) {
        self.calendar.schedule_after(
            self.config.faults.cohort_timeout,
            Event::CohortTimeout { txn: id, run },
        );
    }
}
