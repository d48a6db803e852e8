//! The distributed database machine simulator (paper §3).
//!
//! One [`Simulator`] instance runs one configuration to completion and
//! produces a [`RunReport`]. The machine consists of the host node (node 0,
//! terminals + coordinators) and `NumProcNodes` processing nodes (data +
//! cohorts + CC managers). The network manager is the trivial switch of
//! §3.5: zero wire time, with `InstPerMsg` CPU charged at both endpoints;
//! since each node's message work is a priority FIFO queue, messages between
//! any ordered pair of nodes arrive in send order, which the commit and
//! abort protocols rely on.
//!
//! This module holds the machine's state, the event loop and the run entry
//! points. The handlers live in one child module per layer of the paper's
//! machine:
//!
//! - `net`: the network manager (§3.5): sends, fault draws on the wire,
//!   redelivery, and the dispatch of each arriving message.
//! - `resources`: the CPU and disk models (§3.4): advancing them, handling
//!   completed jobs, and keeping each one's next-completion prediction in
//!   its calendar slot.
//! - `cc`: the cohort access path and the glue to each node's CC manager
//!   (§2): requests, grants, lock waits and their timeouts.
//! - `commit`: the transaction manager (§2.1, §3.3): admission, replica
//!   routing, cohort loading, two-phase commit, the abort protocol and
//!   restarts.
//! - `faults`: node crashes and recoveries, disk stalls, and the
//!   commit-protocol timeouts that let runs survive them.
//! - `snoop`: the rotating global deadlock detector (2PL only).

mod cc;
mod commit;
mod faults;
mod net;
mod resources;
mod snoop;

use crate::metrics::{MetricsCollector, PhaseCollector, RunReport};
use crate::observe::Observer;
use crate::protocol::{CpuJob, DiskJob, Event, Message};
use crate::store::TxnStore;
use crate::trace::TraceLog;
use crate::txn::CohortRun;
use crate::witness::WitnessStream;
use crate::workload::TxnTemplate;
use ddbm_cc::{make_manager_with, CcManager};
use ddbm_config::{Algorithm, Config, ConfigError, FaultPlan, NodeId, Placement, TxnId};
use ddbm_resource::{Cpu, DiskArray, LruPool};
use denet::{EventCalendar, SimDuration, SimRng, SimTime, SlotId};
use resources::Res;
use snoop::SnoopState;
use std::rc::Rc;

struct NodeState {
    cpu: Cpu<CpuJob>,
    disks: DiskArray<DiskJob>,
    cc: Box<dyn CcManager>,
    /// Extension: per-node LRU buffer pool (capacity 0 = the paper's model,
    /// every read access does a disk I/O).
    buffer: LruPool<ddbm_config::PageId>,
    /// The pending CPU and disk-array completion events, indexed by
    /// [`Res`], each in its own calendar *prediction slot*. Every resource
    /// state change re-predicts; if the instant moved, the slot is
    /// overwritten in place (an O(1) store, no heap traffic), so every poll
    /// that fires is the unique live prediction for this resource: no stale
    /// polls reach the handler, and a resource is only ever advanced to
    /// instants where something actually completes.
    slot: [SlotId; 2],
    /// True while this resource's prediction awaits reconciliation with the
    /// calendar (the node is listed in `Simulator::dirty`). A handler
    /// cascade can re-predict the same resource many times within one
    /// event; the flag coalesces those into a single slot update at event
    /// end.
    dirty: [bool; 2],
    /// Fault injection: false while the node is crashed. The host is always
    /// up (the paper's machine has no host failures; neither does ours).
    up: bool,
    /// Fault injection: bumped on every crash. Cohort state tagged with an
    /// older epoch no longer exists on this node, so retransmitted protocol
    /// messages that refer to it must not touch the (rebuilt) CC manager.
    epoch: u64,
}

/// Deliberate, test-only protocol defects, injectable through
/// [`run_oracle`] so the `ddbm-oracle` invariant checkers can be validated
/// against a simulator that is known to be broken. All hooks default to
/// off; no production entry point sets them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TestHooks {
    /// Release a cohort's locks the moment its last access completes,
    /// instead of holding them through the commit protocol — the classic
    /// non-strict early release. The 2PL strictness checker must catch it.
    #[serde(default)]
    pub early_lock_release: bool,
    /// Replication: silently drop the last replica from every multi-replica
    /// write set at materialization time, so a committed write is never
    /// installed there — the classic stale-replica defect. The oracle's
    /// under-replication / one-copy-serializability checkers must catch it.
    #[serde(default)]
    pub skip_replica_write: bool,
}

/// A fixed transaction script for oracle replay (see [`run_oracle`]).
struct ScriptedWorkload {
    templates: Vec<TxnTemplate>,
    next: usize,
}

/// See module docs.
pub struct Simulator {
    config: Config,
    placement: Placement,
    calendar: EventCalendar<Event>,
    nodes: Vec<NodeState>,
    txns: TxnStore,
    next_txn: u64,
    /// Scratch buffers reused by `touch_cpu` / `touch_disks`. A pool rather
    /// than a single buffer because handling one completion can
    /// recursively advance the same resource (e.g. a message completion
    /// sends another message).
    cpu_bufs: Vec<Vec<CpuJob>>,
    disk_bufs: Vec<Vec<DiskJob>>,
    /// Per [`Res`]: nodes whose prediction changed during the current event
    /// and whose calendar slot has not been reconciled yet (see
    /// `flush_rescheds`).
    dirty: [Vec<NodeId>; 2],
    /// Recycled `Event::MsgArrive` envelopes. Only fault paths (drops,
    /// delays, down receivers) box a message — fault-free traffic rides the
    /// CPU message class unboxed — so with the pool even faulty steady-state
    /// message traffic allocates nothing. The pool stores the `Box` itself
    /// (not the `Message`): the recycled heap cell is the point, since
    /// `Event::MsgArrive` needs a `Box<Message>` and re-boxing would
    /// allocate.
    #[allow(clippy::vec_box)]
    msg_pool: Vec<Box<Message>>,
    /// Per-relation cohort groups, precomputed at construction:
    /// `Placement::cohort_groups` is placement-static but allocates per
    /// call, and template generation needs it once per transaction.
    cohort_groups: Vec<Vec<(NodeId, Vec<ddbm_config::FileId>)>>,
    /// Freelist of uniquely-owned transaction plans. A committed
    /// transaction's template (and, under replication, its logical plan)
    /// returns here, and the next submission writes its fresh plan into the
    /// recycled cohort/access vectors through `Rc::get_mut` — steady-state
    /// admission allocates nothing.
    tpl_pool: Vec<Rc<TxnTemplate>>,
    /// Freelist of per-cohort progress vectors (`TxnRuntime::cohorts`).
    cohort_pool: Vec<Vec<CohortRun>>,
    /// Freelist of commit write-back page lists (`CpuJob::UpdateInit`),
    /// recycled when the initiation chain issues its last disk write.
    page_pool: Vec<Vec<ddbm_config::PageId>>,
    /// Freelist of Snoop gather buffers (`MsgKind::SnoopReply` edge lists).
    edge_pool: Vec<Vec<(TxnId, TxnId)>>,
    /// Page-sampling scratch reused across template generations.
    sample_scratch: Vec<usize>,
    /// Node-liveness scratch reused across replica materializations.
    route_up: Vec<bool>,
    rng_think: SimRng,
    rng_work: SimRng,
    rng_proc: SimRng,
    rng_disk: SimRng,
    /// Online fault draws (message drops/delays). Its own named stream so a
    /// fault-free run consumes exactly the same values from every other
    /// stream as before the fault subsystem existed.
    rng_fault: SimRng,
    /// `config.faults.any()`, hoisted: every fault branch on the hot path is
    /// gated on this so the fault-free simulation is bit-identical to the
    /// pre-fault-injection simulator.
    faults_enabled: bool,
    /// `config.replication.enabled()`, hoisted: gates every replica-routing
    /// branch so a disabled (or `factor = 1` single-copy) run is
    /// bit-identical to the pre-replication simulator.
    replication_on: bool,
    /// Replication: round-robin cursor rotating the starting replica of
    /// each file's read set. A plain counter (no RNG draws), so replicated
    /// runs leave every named random stream untouched relative to
    /// single-copy runs.
    read_rr: u64,
    /// Every observation sink: phase clocks, event trace, witness log.
    obs: Observer,
    /// Test-only failure hooks (see [`TestHooks`]); all-off in normal runs.
    hooks: TestHooks,
    /// Oracle replay: when set, terminals submit these templates in order
    /// instead of drawing fresh ones from the workload stream, and stop
    /// admitting once the script is exhausted.
    script: Option<ScriptedWorkload>,
    /// Oracle capture: when set, every generated template is recorded in
    /// submission order so a failing workload can be replayed and shrunk.
    template_log: Option<Vec<TxnTemplate>>,
    /// Chaos mode: after the measurement target is reached, keep the event
    /// loop running but stop admitting new transactions, so every live
    /// transaction can run to commit (the liveness check).
    draining: bool,
    metrics: MetricsCollector,
    warmup_done: bool,
    snoop: Option<SnoopState>,
    finished: bool,
    truncated: bool,
}

/// A fresh CC manager for `node`, sized for the pages it stores. Built at
/// construction and again when a crash wipes the node's CC state.
fn node_cc(config: &Config, placement: &Placement, node: NodeId) -> Box<dyn CcManager> {
    let mut cc = make_manager_with(config.algorithm, config.system.lock_barging);
    let files = match node.0 {
        0 => 0, // the host stores no data
        n => placement.files_per_node(config.system.num_proc_nodes)[n - 1],
    };
    cc.preallocate(
        files * config.database.pages_per_file as usize,
        config.max_txn_accesses(),
    );
    cc
}

impl Simulator {
    /// Build a simulator for `config` (validated first).
    pub fn new(config: Config) -> Result<Simulator, ConfigError> {
        config.validate()?;
        let placement = config.placement().map_err(|e| ConfigError(e.to_string()))?;
        let seed = config.control.seed;
        let mut calendar = EventCalendar::new();
        let nodes: Vec<NodeState> = config
            .node_ids()
            .map(|id| NodeState {
                cpu: Cpu::new(config.system.cpu_rate(id)),
                disks: DiskArray::new(config.system.num_disks),
                cc: node_cc(&config, &placement, id),
                buffer: LruPool::new(config.system.buffer_pages as usize),
                slot: [calendar.register_slot(), calendar.register_slot()],
                dirty: [false; 2],
                up: true,
                epoch: 0,
            })
            .collect();
        let mut metrics = MetricsCollector::new();
        if config.trace.phase_stats {
            metrics.phases = Some(Box::new(PhaseCollector::new()));
        }
        let snoop = (config.algorithm == Algorithm::TwoPhaseLocking).then(|| SnoopState {
            current: NodeId(1),
            round: 0,
            awaiting: 0,
            edges: Vec::new(),
        });
        let cohort_groups = (0..config.database.num_relations)
            .map(|rel| placement.cohort_groups(rel))
            .collect();
        Ok(Simulator {
            placement,
            calendar,
            nodes,
            txns: TxnStore::new(),
            next_txn: 1,
            cpu_bufs: Vec::new(),
            disk_bufs: Vec::new(),
            dirty: [Vec::new(), Vec::new()],
            msg_pool: Vec::new(),
            cohort_groups,
            tpl_pool: Vec::new(),
            cohort_pool: Vec::new(),
            // Stocked up front at full capacity: the pool drains LIFO, so a
            // rarely-reached depth would otherwise hand out a fresh buffer
            // (and one allocation) long after warmup.
            page_pool: (0..Self::POOL_CAP)
                .map(|_| Vec::with_capacity(config.max_txn_accesses()))
                .collect(),
            edge_pool: Vec::new(),
            sample_scratch: Vec::new(),
            route_up: Vec::new(),
            rng_think: SimRng::derive(seed, "think"),
            rng_work: SimRng::derive(seed, "workload"),
            rng_proc: SimRng::derive(seed, "page-processing"),
            rng_disk: SimRng::derive(seed, "disk"),
            rng_fault: SimRng::derive(seed, "fault"),
            faults_enabled: config.faults.any(),
            replication_on: config.replication.enabled(),
            read_rr: 0,
            obs: Observer::new(&config),
            hooks: TestHooks::default(),
            script: None,
            template_log: None,
            draining: false,
            metrics,
            warmup_done: false,
            snoop,
            finished: false,
            truncated: false,
            config,
        })
    }

    /// Run to completion and report.
    pub fn run(mut self) -> RunReport {
        self.execute(false, false)
    }

    /// Like [`Simulator::run`], but prints a progress line to stderr every
    /// 100k events — a diagnostic aid for stalled configurations.
    pub fn run_debug(mut self) -> RunReport {
        self.execute(true, false)
    }

    /// Seed the calendar, run the event loop to its end and report. With
    /// `drain` (chaos mode), the loop then keeps going with new admissions
    /// shut off until every live transaction commits — the liveness
    /// property; `RunReport::drained` says whether it did, and falls short
    /// only when the simulated-time wall is hit with transactions in flight.
    fn execute(&mut self, debug: bool, drain: bool) -> RunReport {
        self.seed();
        self.drive(debug);
        if drain {
            self.draining = true;
            self.drive(debug);
        }
        self.report(self.calendar.now())
    }

    /// Schedule the initial events: every terminal starts thinking, and the
    /// Snoop role (2PL only) starts at node `S1`. With fault injection on,
    /// the whole crash/stall schedule is materialized up front from the
    /// dedicated `"fault-plan"` stream and posted to the calendar.
    fn seed(&mut self) {
        for terminal in 0..self.config.workload.num_terminals {
            let delay = self.think_delay();
            self.calendar
                .schedule_after(delay, Event::TerminalSubmit { terminal });
        }
        if self.snoop.is_some() {
            self.schedule_snoop_wake(NodeId(1), 0);
        }
        if self.faults_enabled {
            let plan = FaultPlan::generate(
                &self.config.faults,
                self.nodes.len() - 1,
                self.config.control.max_sim_time,
                self.config.control.seed,
            );
            for w in &plan.crashes {
                self.calendar
                    .schedule(w.at, Event::NodeDown { node: w.node });
                self.calendar
                    .schedule(w.up_at, Event::NodeUp { node: w.node });
            }
            for s in &plan.stalls {
                self.calendar.schedule(
                    s.at,
                    Event::DiskStall {
                        node: s.node,
                        until: s.until,
                    },
                );
            }
        }
    }

    /// The event loop: pop and dispatch until the commit target (when
    /// draining: the last live transaction's commit) or the simulated-time
    /// wall is reached.
    fn drive(&mut self, debug: bool) {
        let mut count: u64 = 0;
        while let Some((now, ev)) = self.calendar.pop() {
            count += 1;
            if debug && count.is_multiple_of(100_000) {
                let mut phases = std::collections::HashMap::new();
                for t in self.txns.values() {
                    *phases.entry(format!("{:?}", t.phase)).or_insert(0usize) += 1;
                }
                eprintln!(
                    "[{count}] t={now} commits={} active={} cal={} phases={phases:?} ev={ev:?}",
                    self.metrics.total_commits,
                    self.txns.len(),
                    self.calendar.len(),
                );
            }
            if now > SimTime::ZERO + self.config.control.max_sim_time {
                self.truncated = true;
                break;
            }
            self.on_event(now, ev);
            // Reconcile deferred CPU/disk predictions with the calendar now
            // that the cascade is done, before the next pop relies on it.
            self.flush_rescheds();
            if self.finished && (!self.draining || self.txns.is_empty()) {
                break;
            }
        }
    }

    fn report(&self, end: SimTime) -> RunReport {
        let m = &self.metrics;
        let elapsed = end.since(m.measure_start).as_secs_f64();
        let procs = &self.nodes[1..];
        let proc_cpu =
            procs.iter().map(|n| n.cpu.utilization(end)).sum::<f64>() / procs.len() as f64;
        let disk = procs
            .iter()
            .map(|n| n.disks.mean_utilization(end))
            .sum::<f64>()
            / procs.len() as f64;
        RunReport {
            commits: m.commits,
            aborts: m.aborts,
            throughput: if elapsed > 0.0 {
                m.commits as f64 / elapsed
            } else {
                0.0
            },
            mean_response_time: m.response_time.mean(),
            response_time_std: m.response_time.std_dev(),
            response_time_ci95: {
                let hw = m.response_batches.ci95_half_width();
                if hw.is_finite() {
                    hw
                } else {
                    0.0
                }
            },
            abort_ratio: if m.commits > 0 {
                m.aborts as f64 / m.commits as f64
            } else {
                m.aborts as f64
            },
            mean_blocking_time: m.blocking_time.mean(),
            host_cpu_utilization: self.nodes[0].cpu.utilization(end),
            proc_cpu_utilization: proc_cpu,
            disk_utilization: disk,
            measured_seconds: elapsed,
            truncated: self.truncated,
            aborts_by_cause: m.aborts_by_cause,
            fault_stats: m.faults,
            drained: self.draining && self.txns.is_empty(),
            phase_breakdown: m.phases.as_ref().map(|p| p.breakdown()),
            buffer_hit_ratio: {
                let (hits, misses) = self.nodes[1..].iter().fold((0u64, 0u64), |(h, m), n| {
                    (h + n.buffer.hits(), m + n.buffer.misses())
                });
                if hits + misses == 0 {
                    0.0
                } else {
                    hits as f64 / (hits + misses) as f64
                }
            },
        }
    }

    fn on_event(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::TerminalSubmit { terminal } => self.submit_transaction(now, terminal),
            Event::CpuPoll { node } => self.on_poll(now, node, Res::Cpu),
            Event::DiskPoll { node } => self.on_poll(now, node, Res::Disks),
            Event::Restart { txn } => self.restart_txn(now, txn),
            Event::SnoopWake { node, round } => self.snoop_wake(now, node, round),
            Event::LockTimeout {
                txn,
                run,
                cohort,
                access,
            } => self.on_lock_timeout(now, txn, run, cohort, access),
            Event::NodeDown { node } => self.on_node_down(now, node),
            Event::NodeUp { node } => self.on_node_up(node),
            Event::DiskStall { node, until } => self.on_disk_stall(node, until),
            Event::CohortTimeout { txn, run } => self.on_cohort_timeout(now, txn, run),
            Event::MsgArrive { msg } => self.on_msg_arrive(now, msg),
        }
    }

    fn think_delay(&mut self) -> SimDuration {
        let secs = self
            .rng_think
            .exponential(self.config.workload.think_time_secs);
        SimDuration::from_secs_f64(secs)
    }

    /// After every commit: end warmup or end the run.
    fn check_progress(&mut self, now: SimTime) {
        if !self.warmup_done {
            if self.metrics.total_commits >= self.config.control.warmup_commits {
                self.warmup_done = true;
                self.metrics.reset(now);
                for n in &mut self.nodes {
                    n.cpu.reset_utilization(now);
                    n.disks.reset_utilization(now);
                    n.buffer.reset_stats();
                }
            }
            return;
        }
        if self.metrics.commits >= self.config.control.measure_commits {
            self.finished = true;
        }
    }
}

/// Convenience: build, run, and report in one call.
pub fn run_config(config: Config) -> Result<RunReport, ConfigError> {
    Ok(Simulator::new(config)?.run())
}

/// Run with event tracing and phase statistics forced on; returns the
/// report together with the sealed [`TraceLog`], ready for export as
/// Chrome-trace JSON or JSONL.
pub fn run_traced(mut config: Config) -> Result<(RunReport, TraceLog), ConfigError> {
    config.trace.events = true;
    config.trace.phase_stats = true;
    let mut sim = Simulator::new(config)?;
    let report = sim.execute(false, false);
    let end = sim.calendar.now();
    let trace = sim.obs.take_trace(end).expect("tracing was enabled");
    Ok((report, trace))
}

/// Everything the `ddbm-oracle` invariant checkers need from one
/// instrumented run: the report, the protocol witness stream, and the
/// workload that was actually executed (in submission order, ready for
/// delta-debugging when a check fails).
pub struct OracleRecording {
    /// The run report.
    pub report: RunReport,
    /// The witnessed protocol events in emission order.
    pub witness: WitnessStream,
    /// Events dropped after the witness log filled; `0` means the stream is
    /// a complete record of the run.
    pub witness_overflow: u64,
    /// Every template submitted, in submission order. For a scripted run
    /// this is the consumed prefix of the script; otherwise it is the
    /// generated workload. Empty for [`run_chaos`] recordings.
    pub templates: Vec<TxnTemplate>,
    /// True when the run hit `max_sim_time` instead of reaching its
    /// measurement target — the normal ending for scripted replays, whose
    /// finite workload can never satisfy `measure_commits`.
    pub truncated: bool,
}

/// Oracle entry point: run with witness recording forced on, optionally
/// replaying a fixed transaction `script` (terminals consume its templates
/// in order and stop admitting when it runs dry) and optionally injecting
/// a deliberate [`TestHooks`] protocol defect.
pub fn run_oracle(
    config: Config,
    script: Option<Vec<TxnTemplate>>,
    hooks: TestHooks,
) -> Result<OracleRecording, ConfigError> {
    record(config, script, hooks, false)
}

/// Chaos-suite entry point: [`run_oracle`], then keep the event loop going
/// (with admissions shut off) until every in-flight transaction commits.
/// `report.drained` records whether the system actually emptied — the
/// liveness property the chaos tests assert — and the witness stream
/// covers everything that committed, including during the drain.
pub fn run_chaos(config: Config) -> Result<OracleRecording, ConfigError> {
    record(config, None, TestHooks::default(), true)
}

fn record(
    mut config: Config,
    script: Option<Vec<TxnTemplate>>,
    hooks: TestHooks,
    drain: bool,
) -> Result<OracleRecording, ConfigError> {
    config.trace.witness = true;
    let mut sim = Simulator::new(config)?;
    sim.hooks = hooks;
    // The chaos suite never replays its workload, so only oracle runs keep it.
    sim.template_log = (!drain).then(Vec::new);
    if let Some(templates) = script {
        sim.script = Some(ScriptedWorkload { templates, next: 0 });
    }
    let report = sim.execute(false, drain);
    let (witness, witness_overflow) = sim
        .obs
        .take_witness()
        .expect("witness recording was enabled");
    Ok(OracleRecording {
        report,
        witness,
        witness_overflow,
        templates: sim.template_log.take().unwrap_or_default(),
        truncated: sim.truncated,
    })
}
