//! The network manager (paper §3.5): zero wire time, `InstPerMsg` CPU at
//! both endpoints, the optional fault draws on the wire, and the dispatch of
//! every arriving message to the layer that handles it.

use super::resources::Res;
use super::Simulator;
use crate::protocol::{CpuJob, Event, Message, MsgKind};
use ddbm_config::NodeId;
use denet::{SimDuration, SimTime};

impl Simulator {
    /// Queue the send-side protocol processing for a message.
    #[inline]
    pub(super) fn send(&mut self, now: SimTime, from: NodeId, to: NodeId, kind: MsgKind) {
        self.obs.msg_send(now, from, to, &kind);
        let msg = Message { from, to, kind };
        let instr = self.config.system.inst_per_msg as f64;
        self.touch_cpu(now, from);
        if let Some(CpuJob::MsgSend(m)) =
            self.nodes[from.0]
                .cpu
                .submit_message(now, CpuJob::MsgSend(msg), instr)
        {
            self.deliver(now, m);
        }
        self.resched(from, Res::Cpu);
    }

    /// The network manager: zero wire time — hand the message to the
    /// receive-side CPU immediately. With fault injection on, the link may
    /// first drop the message (it reappears after the retransmission delay —
    /// the model of a reliable transport over a lossy wire) or delay it.
    /// Each message is drawn against at most once; redeliveries skip the
    /// fault draws and go straight to [`deliver_now`](Self::deliver_now).
    #[inline]
    pub(super) fn deliver(&mut self, now: SimTime, msg: Message) {
        if self.faults_enabled {
            let f = &self.config.faults;
            if f.msg_drop_prob > 0.0 && self.rng_fault.bernoulli(f.msg_drop_prob) {
                self.metrics.faults.msgs_dropped += 1;
                let retry = f.msg_retry;
                self.redeliver_after(retry, msg);
                return;
            }
            if f.msg_delay_prob > 0.0 && self.rng_fault.bernoulli(f.msg_delay_prob) {
                self.metrics.faults.msgs_delayed += 1;
                let extra = SimDuration(self.rng_fault.uniform_u64(1, f.msg_delay_max.0.max(1)));
                self.redeliver_after(extra, msg);
                return;
            }
        }
        self.deliver_now(now, msg);
    }

    /// Put `msg` back on the wire for delivery after `delay`, boxed in a
    /// recycled `Event::MsgArrive` envelope when one is pooled.
    fn redeliver_after(&mut self, delay: SimDuration, msg: Message) {
        let msg = match self.msg_pool.pop() {
            Some(mut b) => {
                *b = msg;
                b
            }
            None => Box::new(msg),
        };
        self.calendar
            .schedule_after(delay, Event::MsgArrive { msg });
    }

    /// A dropped, delayed or parked message reaches the wire's far end: take
    /// the contents and recycle the envelope (capped so a fault burst cannot
    /// grow the pool without bound).
    pub(super) fn on_msg_arrive(&mut self, now: SimTime, mut msg: Box<Message>) {
        let m = std::mem::replace(
            &mut *msg,
            Message {
                from: NodeId(0),
                to: NodeId(0),
                kind: MsgKind::SnoopPass,
            },
        );
        if self.msg_pool.len() < 64 {
            self.msg_pool.push(msg);
        }
        self.deliver_now(now, m);
    }

    /// Deliver unconditionally — unless the receiver is crashed, in which
    /// case the message parks in the retry loop until the node comes back
    /// (senders in this model retransmit indefinitely; the coordinator's
    /// own timeouts decide when to give up on a cohort).
    fn deliver_now(&mut self, now: SimTime, msg: Message) {
        let to = msg.to;
        if !self.nodes[to.0].up {
            self.metrics.faults.msgs_to_down_node += 1;
            self.redeliver_after(self.config.faults.msg_retry, msg);
            return;
        }
        let instr = self.config.system.inst_per_msg as f64;
        self.touch_cpu(now, to);
        if let Some(CpuJob::MsgRecv(m)) =
            self.nodes[to.0]
                .cpu
                .submit_message(now, CpuJob::MsgRecv(msg), instr)
        {
            self.handle_message(now, m);
        }
        self.resched(to, Res::Cpu);
    }

    /// The receive-side processing of `msg` is done: hand it to its layer.
    pub(super) fn handle_message(&mut self, now: SimTime, msg: Message) {
        self.obs.msg_arrive(now, &msg);
        let node = msg.to;
        match msg.kind {
            MsgKind::LoadCohort { txn, run, cohort } => {
                self.on_load_cohort(now, node, txn, run, cohort)
            }
            MsgKind::CohortDone { txn, run, cohort } => self.on_cohort_done(now, txn, run, cohort),
            MsgKind::Prepare {
                txn,
                run,
                cohort,
                commit_ts,
            } => self.on_prepare(now, node, txn, run, cohort, commit_ts),
            MsgKind::Vote { txn, run, yes, .. } => self.on_vote(now, txn, run, yes),
            MsgKind::Decision {
                txn,
                run,
                cohort,
                commit,
            } => self.on_decision(now, node, txn, run, cohort, commit),
            MsgKind::Ack { txn, run, cohort } => self.on_ack(now, txn, run, cohort),
            MsgKind::AbortRequest { txn, run, cause } => {
                self.on_abort_request(now, txn, run, cause)
            }
            MsgKind::AbortCohort { txn, run, cohort } => {
                self.on_abort_cohort(now, node, txn, run, cohort)
            }
            MsgKind::AbortAck { txn, run, cohort } => self.on_abort_ack(now, txn, run, cohort),
            MsgKind::SnoopRequest { round } => self.on_snoop_request(now, node, msg.from, round),
            MsgKind::SnoopReply { round, edges } => self.on_snoop_reply(now, node, round, edges),
            MsgKind::SnoopPass => self.on_snoop_pass(node),
        }
    }
}
