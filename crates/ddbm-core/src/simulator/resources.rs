//! The resource glue (paper §3.4): advancing each node's processor-sharing
//! CPU and disk array to the current instant, handling the jobs that
//! complete, and keeping each resource's next-completion prediction in its
//! calendar slot.

use super::Simulator;
use crate::protocol::{CpuJob, DiskJob, Event};
use ddbm_config::NodeId;
use denet::{SimDuration, SimTime};

/// A node's two resource models, in the order their deferred predictions
/// are flushed. Indexes `NodeState::slot`/`dirty` and `Simulator::dirty`.
#[derive(Clone, Copy)]
pub(super) enum Res {
    Cpu = 0,
    Disks = 1,
}

impl Simulator {
    /// A CPU or disk-array poll fired: advance the resource and re-predict.
    pub(super) fn on_poll(&mut self, now: SimTime, node: NodeId, res: Res) {
        // Superseded predictions are overwritten in their slot, so a poll
        // that fires is always the live prediction, and popping it vacated
        // the slot — the handlers below can freely re-predict without
        // clobbering the event firing right now.
        debug_assert_eq!(
            self.calendar
                .slot_time(self.nodes[node.0].slot[res as usize]),
            None,
            "a stale poll fired"
        );
        match res {
            Res::Cpu => self.touch_cpu(now, node),
            Res::Disks => self.touch_disks(now, node),
        }
        self.resched(node, res);
    }

    /// Advance a node's CPU and handle every completed job. Completions land
    /// in a pooled scratch buffer, so steady-state advances do not allocate.
    #[inline]
    pub(super) fn touch_cpu(&mut self, now: SimTime, node: NodeId) {
        if self.nodes[node.0].cpu.is_current(now) {
            return; // clock already at `now`: nothing can have completed
        }
        let mut buf = self.cpu_bufs.pop().unwrap_or_default();
        self.nodes[node.0].cpu.advance_into(now, &mut buf);
        for job in buf.drain(..) {
            self.handle_cpu_done(now, node, job);
        }
        self.cpu_bufs.push(buf);
    }

    fn touch_disks(&mut self, now: SimTime, node: NodeId) {
        if self.nodes[node.0].disks.is_current(now) {
            return; // nothing in service can have completed by `now`
        }
        let mut buf = self.disk_bufs.pop().unwrap_or_default();
        self.nodes[node.0].disks.advance_into(now, &mut buf);
        for job in buf.drain(..) {
            self.handle_disk_done(now, node, job);
        }
        self.disk_bufs.push(buf);
    }

    /// Note that the prediction of `node`'s `res` may have changed. The
    /// calendar is reconciled lazily by [`flush_rescheds`](Self::flush_rescheds)
    /// once the current event's handler cascade has run to completion — a
    /// single event often re-predicts the same resource several times
    /// (message completions submitting replies, grants waking cohorts, ...),
    /// and deferring collapses all of them into at most one slot update.
    #[inline]
    pub(super) fn resched(&mut self, node: NodeId, res: Res) {
        let dirty = &mut self.nodes[node.0].dirty[res as usize];
        if !*dirty {
            *dirty = true;
            self.dirty[res as usize].push(node);
        }
    }

    /// Reconcile every deferred prediction with the calendar, CPUs first,
    /// then disk arrays. Must run after each event dispatch, before the
    /// next calendar pop: the calendar only stays an accurate picture of
    /// future completions between events, not within a handler cascade.
    /// Unchanged predictions keep their slot entry, moved ones overwrite it
    /// in place, vanished ones clear the slot; only a *changed* prediction
    /// consumes a calendar sequence number.
    pub(super) fn flush_rescheds(&mut self) {
        let now = self.calendar.now();
        for res in [Res::Cpu, Res::Disks] {
            while let Some(node) = self.dirty[res as usize].pop() {
                let st = &mut self.nodes[node.0];
                st.dirty[res as usize] = false;
                let (next, poll) = match res {
                    Res::Cpu => {
                        self.obs.cpu_busy(now, node, &st.cpu);
                        (st.cpu.next_completion(), Event::CpuPoll { node })
                    }
                    Res::Disks => {
                        self.obs.disk_busy(now, node, &st.disks);
                        (st.disks.next_completion(), Event::DiskPoll { node })
                    }
                };
                let slot = st.slot[res as usize];
                match next {
                    Some(at) if self.calendar.slot_time(slot) == Some(at) => {}
                    Some(at) => self.calendar.set_slot(slot, at, poll),
                    None => self.calendar.clear_slot(slot),
                }
            }
        }
    }

    /// Submit ordinary (processor-shared) CPU work; zero-cost work completes
    /// inline.
    #[inline]
    pub(super) fn cpu_shared(&mut self, now: SimTime, node: NodeId, job: CpuJob, instr: f64) {
        self.touch_cpu(now, node);
        if let Some(done) = self.nodes[node.0].cpu.submit_shared(now, job, instr) {
            self.handle_cpu_done(now, node, done);
        }
        self.resched(node, Res::Cpu);
    }

    /// Queue a page read or write-back on a randomly chosen disk at `node`.
    #[inline]
    pub(super) fn submit_disk(&mut self, now: SimTime, node: NodeId, job: DiskJob) {
        let lo = self.config.system.min_disk_time.as_secs_f64();
        let hi = self.config.system.max_disk_time.as_secs_f64();
        let service = SimDuration::from_secs_f64(self.rng_disk.uniform_f64(lo, hi));
        let disk = self.rng_disk.index(self.config.system.num_disks);
        let write = matches!(job, DiskJob::WriteBack { .. });
        self.nodes[node.0]
            .disks
            .submit(now, disk, job, write, service);
        self.resched(node, Res::Disks);
    }

    fn handle_cpu_done(&mut self, now: SimTime, node: NodeId, job: CpuJob) {
        match job {
            CpuJob::CoordStartup { txn, run } => self.load_cohorts(now, txn, run),
            CpuJob::CohortStartup { txn, run, cohort } => {
                if self.live_cohort(txn, run, cohort) {
                    if let Some(t) = self.txns.get_mut(txn) {
                        t.cohorts[cohort].started = true;
                    }
                    self.cohort_continue(now, txn, run, cohort);
                }
            }
            CpuJob::CcRequest {
                txn,
                run,
                cohort,
                access,
            } => self.do_cc_request(now, node, txn, run, cohort, access),
            CpuJob::PageProcess {
                txn, run, cohort, ..
            } => self.access_finished(now, txn, run, cohort),
            CpuJob::UpdateInit { txn, pages, next } => {
                // Issue the disk write for the current page, then chain the
                // next initiation, advancing the cursor through the shared
                // page list (no front-shifting). The fresh page version is in
                // memory, so it enters the buffer pool (extension; no-op at
                // capacity 0).
                self.nodes[node.0].buffer.insert(pages[next]);
                self.submit_disk(now, node, DiskJob::WriteBack { txn });
                if next + 1 < pages.len() {
                    let instr = self.config.system.inst_per_update as f64;
                    let next = next + 1;
                    self.cpu_shared(now, node, CpuJob::UpdateInit { txn, pages, next }, instr);
                } else {
                    // Last initiation of the chain: recycle the page list.
                    self.put_pages(pages);
                }
            }
            CpuJob::MsgSend(msg) => self.deliver(now, msg),
            CpuJob::MsgRecv(msg) => self.handle_message(now, msg),
        }
    }

    fn handle_disk_done(&mut self, now: SimTime, node: NodeId, job: DiskJob) {
        match job {
            DiskJob::Read {
                txn,
                run,
                cohort,
                access,
                page,
            } => {
                self.nodes[node.0].buffer.insert(page);
                if self.live_cohort(txn, run, cohort) {
                    self.start_page_processing(now, node, txn, run, cohort, access);
                }
            }
            DiskJob::WriteBack { .. } => {
                // Fire-and-forget: the transaction committed long ago.
            }
        }
    }
}
