//! The observation layer: the one path by which the simulator reports what
//! it does.
//!
//! An [`Observer`] owns every sink — the per-transaction phase clock
//! (`trace.phase_stats`), the event [`Tracer`] (`trace.events`) and the
//! protocol witness log (`trace.witness`) — so each probe site in the
//! simulator is a single call: a named method where the probe does work of
//! its own, [`Observer::witness_with`] where it only records one witness
//! event. With every sink off a call costs the same `bool`/`Option`
//! branches the sites used to inline: nothing is computed, drawn or
//! scheduled, and the run stays bit-identical to an unobserved one (the
//! determinism golden). Within each stream, events appear in probe-call
//! order (the stream golden pins it).

use crate::protocol::{CpuJob, DiskJob, Message, MsgKind, RunId};
use crate::trace::{TraceEvent, TraceLog, Tracer};
use crate::txn::{TxnPhase, TxnRuntime};
use crate::witness::{WitnessEvent, WitnessStream};
use ddbm_cc::{CcManager, Ts};
use ddbm_config::{Config, NodeId, PageId, TxnId};
use ddbm_resource::{Cpu, DiskArray};
use denet::{SimTime, WitnessLog};

/// See module docs.
pub struct Observer {
    /// `config.trace.phase_stats`: keep each transaction's phase clock.
    phases: bool,
    /// The event recorder, present only when `config.trace.events` is on.
    tracer: Option<Box<Tracer>>,
    /// The protocol witness log (replayed by the `ddbm-oracle` checkers),
    /// present only when `config.trace.witness` is on.
    witness: Option<Box<WitnessLog<WitnessEvent>>>,
}

impl Observer {
    pub fn new(config: &Config) -> Observer {
        let trace = &config.trace;
        Observer {
            phases: trace.phase_stats,
            tracer: trace
                .events
                .then(|| Box::new(Tracer::new(trace.capacity(), config.system.num_nodes()))),
            witness: trace
                .witness
                .then(|| Box::new(WitnessLog::new(trace.effective_witness_capacity()))),
        }
    }

    /// Seal the event trace at `end`; `None` when tracing was off.
    pub fn take_trace(&mut self, end: SimTime) -> Option<TraceLog> {
        self.tracer.take().map(|t| t.finish(end))
    }

    /// The witness stream and its overflow count; `None` when off.
    pub fn take_witness(&mut self) -> Option<(WitnessStream, u64)> {
        self.witness.take().map(|w| w.into_parts())
    }

    #[inline]
    fn emit_phase(&mut self, now: SimTime, txn: TxnId, run: RunId, phase: TxnPhase) {
        if let Some(tr) = &mut self.tracer {
            tr.push(now, TraceEvent::Phase { txn, run, phase });
        }
        if let Some(w) = &mut self.witness {
            w.push(now, WitnessEvent::Phase { txn, run, phase });
        }
    }

    /// Record the event `ev` builds, if the witness log is on. Probes that
    /// emit one witness event and nothing else call this directly.
    #[inline]
    pub fn witness_with(&mut self, now: SimTime, ev: impl FnOnce() -> WitnessEvent) {
        if let Some(w) = &mut self.witness {
            w.push(now, ev());
        }
    }

    /// The coordinator moves `txn` into `phase`: clock the old phase, set
    /// the new one, and emit it.
    #[inline]
    pub fn phase(&mut self, now: SimTime, txn: &mut TxnRuntime, phase: TxnPhase) {
        if self.phases {
            txn.phase_clock(now);
        }
        txn.phase = phase;
        self.emit_phase(now, txn.id, txn.run, phase);
    }

    /// `txn` leaves `WaitingRestart`: clock the wait, begin the next run,
    /// and emit its `Executing` phase.
    #[inline]
    pub fn restart(&mut self, now: SimTime, txn: &mut TxnRuntime) {
        if self.phases {
            txn.phase_clock(now);
        }
        txn.begin_run(now);
        self.emit_phase(now, txn.id, txn.run, TxnPhase::Executing);
    }

    /// A cohort of `txn` blocked on a CC request at `node`.
    #[inline]
    pub fn lock_wait_begin(
        &mut self,
        now: SimTime,
        txn: &mut TxnRuntime,
        node: NodeId,
        cc: &dyn CcManager,
    ) {
        if self.phases {
            txn.phase_clock(now);
            txn.blocked_cohorts += 1;
        }
        if let Some(tr) = &mut self.tracer {
            let stats = cc.lock_stats().unwrap_or_default();
            tr.push(
                now,
                TraceEvent::LockWaitBegin {
                    txn: txn.id,
                    node,
                    held: stats.held as u32,
                    waiting: stats.waiting as u32,
                },
            );
        }
    }

    /// The blocked cohort of `txn` at `node` was granted or rejected.
    #[inline]
    pub fn lock_wait_end(&mut self, now: SimTime, txn: &mut TxnRuntime, node: NodeId) {
        if self.phases {
            txn.phase_clock(now);
            txn.blocked_cohorts = txn.blocked_cohorts.saturating_sub(1);
        }
        if let Some(tr) = &mut self.tracer {
            tr.push(now, TraceEvent::LockWaitEnd { txn: txn.id, node });
        }
    }

    #[inline]
    pub fn msg_send(&mut self, now: SimTime, from: NodeId, to: NodeId, kind: &MsgKind) {
        if let Some(tr) = &mut self.tracer {
            let kind = kind.tag();
            tr.push(now, TraceEvent::MsgSend { from, to, kind });
        }
    }

    #[inline]
    pub fn msg_arrive(&mut self, now: SimTime, msg: &Message) {
        if let Some(tr) = &mut self.tracer {
            let (from, to, kind) = (msg.from, msg.to, msg.kind.tag());
            tr.push(now, TraceEvent::MsgArrive { from, to, kind });
        }
    }

    /// A waiting request of `txn`'s cohort at `node` (its access number
    /// `access`, if the cohort has one) was granted.
    #[inline]
    pub fn grant(
        &mut self,
        now: SimTime,
        txn: &TxnRuntime,
        node: NodeId,
        cohort: usize,
        access: usize,
    ) {
        if let Some(w) = &mut self.witness {
            if let Some(acc) = txn.template.cohorts[cohort].accesses.get(access) {
                let meta = txn.meta();
                w.push(
                    now,
                    WitnessEvent::Grant {
                        txn: txn.id,
                        run: txn.run,
                        node,
                        page: acc.page,
                        write: acc.write,
                        initial_ts: meta.initial_ts,
                        run_ts: meta.run_ts,
                    },
                );
            }
        }
    }

    /// `txn`'s cohort at `node` installs its committed writes to `pages`.
    #[inline]
    pub fn install(&mut self, now: SimTime, txn: &TxnRuntime, node: NodeId, pages: &[PageId]) {
        if let Some(w) = &mut self.witness {
            let run_ts = txn.meta().run_ts;
            let commit_ts = txn.commit_ts.unwrap_or(Ts::ZERO);
            for &page in pages {
                w.push(
                    now,
                    WitnessEvent::Install {
                        txn: txn.id,
                        run: txn.run,
                        node,
                        page,
                        run_ts,
                        commit_ts,
                    },
                );
            }
        }
    }

    /// `txn` committed durably: close its phase clock and emit the commit.
    #[inline]
    pub fn committed(&mut self, now: SimTime, txn: &mut TxnRuntime) {
        if self.phases {
            txn.phase_clock(now);
        }
        if let Some(tr) = &mut self.tracer {
            tr.push(now, TraceEvent::Committed { txn: txn.id });
        }
        self.witness_with(now, || WitnessEvent::Committed {
            txn: txn.id,
            run: txn.run,
            run_ts: txn.meta().run_ts,
            commit_ts: txn.commit_ts.unwrap_or(Ts::ZERO),
        });
    }

    /// Sample `node`'s CPU busy state (only transitions are recorded).
    #[inline]
    pub fn cpu_busy(&mut self, now: SimTime, node: NodeId, cpu: &Cpu<CpuJob>) {
        if let Some(tr) = &mut self.tracer {
            tr.note_cpu(now, node, !cpu.is_idle());
        }
    }

    /// Sample `node`'s disk-array busy state (only transitions are recorded).
    #[inline]
    pub fn disk_busy(&mut self, now: SimTime, node: NodeId, disks: &DiskArray<DiskJob>) {
        if let Some(tr) = &mut self.tracer {
            tr.note_disk(now, node, disks.any_busy());
        }
    }
}
