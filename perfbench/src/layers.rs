//! The traced run and the per-layer metrics derived from it.
//!
//! For each config the workload reruns it twice more: once with
//! `trace.events` and `trace.phase_stats` on (`run_traced`) and once with
//! the protocol witness on (`run_oracle`), so each observation overhead is
//! timed on its own. Both reports must equal the untraced one. Counts come
//! from the two recorded streams and are exact; host times come from the
//! replays in [`crate::replay`].

use crate::e2e::{complete, plain_run};
use crate::ledger::Ledger;
use crate::metrics::{ratio, Metrics};
use crate::replay::{self, CcReplay, Timing};
use ddbm_config::{Algorithm, Config};
use ddbm_core::{
    run_oracle, run_traced, AbortBreakdown, AbortCause, OracleRecording, PhaseBucket, RunReport,
    TestHooks, TraceEvent, TraceLog, WitnessEvent, WitnessReply,
};
use ddbm_oracle::check_recording;
use std::time::Instant;

/// The simulator's message kinds, as traced (`MsgKind::tag`).
pub const MSG_KINDS: [&str; 12] = [
    "LoadCohort",
    "CohortDone",
    "Prepare",
    "Vote",
    "Decision",
    "Ack",
    "AbortRequest",
    "AbortCohort",
    "AbortAck",
    "SnoopRequest",
    "SnoopReply",
    "SnoopPass",
];

/// The algorithms whose oracle check time is reported by name.
pub const CHECKED: [Algorithm; 2] = [Algorithm::TwoPhaseLocking, Algorithm::Optimistic];

/// Trace-ring and witness-log capacity per whole-run commit. Both streams
/// stay far below this (about 60–200 events per commit); a run that still
/// overflows fails its completeness check.
const EVENTS_PER_COMMIT_CAP: usize = 1_000;

/// A copy of `config` with room for every event of the whole run.
fn with_capacity(config: &Config) -> Config {
    let commits = (config.control.warmup_commits + config.control.measure_commits) as usize;
    let cap = (commits * EVENTS_PER_COMMIT_CAP).clamp(1 << 16, 1 << 28);
    let mut c = config.clone();
    c.trace.event_capacity = cap;
    c.trace.witness_capacity = cap;
    c
}

fn cause_count(b: &AbortBreakdown, cause: AbortCause) -> u64 {
    match cause {
        AbortCause::Deadlock => b.deadlock,
        AbortCause::Wound => b.wound,
        AbortCause::Timestamp => b.timestamp,
        AbortCause::Validation => b.validation,
        AbortCause::LockTimeout => b.lock_timeout,
        AbortCause::NodeCrash => b.node_crash,
        AbortCause::CohortTimeout => b.cohort_timeout,
        AbortCause::ReplicaUnavailable => b.replica_unavailable,
    }
}

/// A traced run: the report (phase breakdown removed, for comparison), the
/// breakdown, the trace and the host seconds.
pub struct Traced {
    /// The report without its phase breakdown.
    pub report: RunReport,
    /// Total seconds committed transactions spent in each phase bucket.
    pub phase_total_s: [f64; 6],
    /// Committed transactions behind `phase_total_s`.
    pub phase_count: u64,
    /// The sealed trace.
    pub log: TraceLog,
    /// Host seconds of `run_traced`.
    pub secs: f64,
}

/// `run_traced` with room for the whole run, checked for completeness.
pub fn traced_run(config: &Config) -> Result<Traced, String> {
    let c = with_capacity(config);
    let start = Instant::now();
    let (mut report, log) = run_traced(c).map_err(|e| e.to_string())?;
    let secs = start.elapsed().as_secs_f64();
    complete(config, &report)?;
    let breakdown = report
        .phase_breakdown
        .take()
        .ok_or("traced report has no phase breakdown")?;
    let mut phase_total_s = [0.0; 6];
    for (slot, (_, stats)) in phase_total_s.iter_mut().zip(breakdown.phases()) {
        *slot = stats.total_s;
    }
    Ok(Traced {
        report,
        phase_total_s,
        phase_count: breakdown.response.count,
        log,
        secs,
    })
}

/// Counts and host times accumulated over a workload's configs.
#[derive(Debug, Default)]
pub struct Layers {
    /// Commits in the traced runs, warm-up included (the per-commit base
    /// of every trace- and witness-derived count).
    commits: u64,
    /// Commits and aborts in the measurement windows (the base of the
    /// `txn.*` and `rep.*` ratios).
    window_commits: u64,
    /// See `window_commits`.
    window_aborts: u64,
    causes: [u64; 8],
    phase_total_s: [f64; 6],
    phase_count: u64,
    trace_events: u64,
    same_instant: u64,
    msgs: [u64; 12],
    msg_sends: u64,
    cpu_busy: u64,
    disk_busy: u64,
    lock_waits: u64,
    fault_msgs: u64,
    witness_events: u64,
    accesses: u64,
    blocked: u64,
    rejected: u64,
    certifies: u64,
    certify_fails: u64,
    cc: CcReplay,
    templates: u64,
    template_accesses: u64,
    workload: Timing,
    calendar: Timing,
    cpu: Timing,
    disk: Timing,
    export: Timing,
    proc_util: f64,
    disk_util: f64,
    host_util: f64,
    configs: u64,
    untraced_s: f64,
    traced_s: f64,
    witness_s: f64,
    check_s: f64,
    checks: [Timing; 2],
}

impl Layers {
    /// Rerun `config` traced and witnessed, check both against `reference`,
    /// and add its counts and replay times. `untraced_s` is the host time of
    /// an untraced run of the same config (the overheads' base); `None`
    /// times one here.
    pub fn observe(
        &mut self,
        config: &Config,
        reference: &RunReport,
        untraced_s: Option<f64>,
        ledger: &mut Ledger,
    ) {
        let label = config.algorithm.label();
        let untraced_s = match untraced_s {
            Some(s) => Some(s),
            None => ledger.op(&format!("untraced run {label}"), || {
                let (report, secs) = plain_run(config)?;
                same(reference, &report)?;
                Ok(secs)
            }),
        };
        let Some(traced) = ledger.op(&format!("traced run {label}"), || traced_run(config)) else {
            return;
        };
        check_traced(&traced, reference, ledger);
        let Some((recording, witness_s, check_s)) = ledger
            .op(&format!("witness run {label}"), || {
                witness_run(config, reference)
            })
        else {
            return;
        };
        let Some(untraced_s) = untraced_s else {
            return;
        };
        self.add_counts(&traced, &recording);
        self.add_replays(config, &traced.log, &recording, ledger);
        self.untraced_s += untraced_s;
        self.traced_s += traced.secs;
        self.witness_s += witness_s;
        self.check_s += check_s;
        if let Some(i) = CHECKED.iter().position(|&a| a == config.algorithm) {
            self.checks[i].add(Timing {
                secs: check_s,
                ops: recording.witness.len() as u64,
            });
        }
    }

    fn add_counts(&mut self, traced: &Traced, recording: &OracleRecording) {
        let report = &traced.report;
        self.configs += 1;
        self.window_commits += report.commits;
        self.window_aborts += report.aborts;
        for (slot, cause) in self.causes.iter_mut().zip(AbortCause::ALL) {
            *slot += cause_count(&report.aborts_by_cause, cause);
        }
        for (slot, s) in self.phase_total_s.iter_mut().zip(traced.phase_total_s) {
            *slot += s;
        }
        self.phase_count += traced.phase_count;
        self.proc_util += report.proc_cpu_utilization;
        self.disk_util += report.disk_utilization;
        self.host_util += report.host_cpu_utilization;
        let f = &report.fault_stats;
        self.fault_msgs += f.msgs_dropped + f.msgs_delayed + f.msgs_to_down_node;

        let log = &traced.log;
        self.trace_events += log.events.len() as u64;
        self.same_instant += replay::same_instant_events(log);
        let mut commits = 0;
        for (_, ev) in &log.events {
            match *ev {
                TraceEvent::Committed { .. } => commits += 1,
                TraceEvent::MsgSend { kind, .. } => {
                    // An unknown kind is caught by the known-kinds check.
                    self.msg_sends += 1;
                    if let Some(i) = MSG_KINDS.iter().position(|&k| k == kind) {
                        self.msgs[i] += 1;
                    }
                }
                TraceEvent::CpuBusy { busy: true, .. } => self.cpu_busy += 1,
                TraceEvent::DiskBusy { busy: true, .. } => self.disk_busy += 1,
                TraceEvent::LockWaitBegin { .. } => self.lock_waits += 1,
                _ => {}
            }
        }
        self.commits += commits;

        self.witness_events += recording.witness.len() as u64;
        for (_, ev) in &recording.witness {
            match *ev {
                WitnessEvent::Access { reply, .. } => {
                    self.accesses += 1;
                    match reply {
                        WitnessReply::Blocked => self.blocked += 1,
                        WitnessReply::Rejected => self.rejected += 1,
                        WitnessReply::Granted => {}
                    }
                }
                WitnessEvent::Reject { .. } => self.rejected += 1,
                WitnessEvent::Certify { ok, .. } => {
                    self.certifies += 1;
                    self.certify_fails += u64::from(!ok);
                }
                _ => {}
            }
        }
        self.templates += recording.templates.len() as u64;
        self.template_accesses += recording
            .templates
            .iter()
            .map(|t| t.total_accesses() as u64)
            .sum::<u64>();
    }

    fn add_replays(
        &mut self,
        config: &Config,
        log: &TraceLog,
        recording: &OracleRecording,
        ledger: &mut Ledger,
    ) {
        let label = config.algorithm.label();
        let (calendar, in_order) = replay::calendar(config, log);
        ledger.check(&format!("calendar replay {label}"), in_order, || {
            "pops left the traced order".into()
        });
        self.calendar.add(calendar);
        let (cpu, disk) = replay::resources(config, log, &recording.witness);
        self.cpu.add(cpu);
        self.disk.add(disk);
        if let Some(cc) = ledger.op(&format!("cc replay {label}"), || {
            replay::cc(config, &recording.witness)
        }) {
            self.cc.timing.add(cc.timing);
            self.cc.calls += cc.calls;
            self.cc.mismatches += cc.mismatches;
        }
        if let Some(t) = ledger.op(&format!("workload replay {label}"), || {
            replay::workload(config, &recording.templates)
        }) {
            self.workload.add(t);
        }
        if let Some(t) = ledger.op(&format!("trace export {label}"), || replay::export(log)) {
            self.export.add(t);
        }
    }

    /// The workload-level checks on the accumulated counts.
    pub fn check(&self, ledger: &mut Ledger) {
        ledger.check("cc.replay_mismatches == 0", self.cc.mismatches == 0, || {
            format!(
                "{} replayed replies differ from the witness",
                self.cc.mismatches
            )
        });
        let known = self.msgs.iter().sum::<u64>();
        ledger.check("known message kinds", known == self.msg_sends, || {
            format!(
                "{} of {} sends have an unknown kind",
                self.msg_sends - known,
                self.msg_sends
            )
        });
    }

    /// The per-layer metrics, every ratio with its base among them.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let commits = self.commits as f64;
        let per_commit = |x: u64| ratio(x as f64, commits);
        let wc = self.window_commits as f64;
        let configs = self.configs.max(1) as f64;

        m.push("base.commits", commits, "count");
        m.push("base.window_commits", wc, "count");
        m.push("base.trace_events", self.trace_events as f64, "count");
        m.push("base.witness_events", self.witness_events as f64, "count");
        m.push("base.cc_requests", self.accesses as f64, "count");
        m.push("base.cpu_jobs", self.cpu.ops as f64, "count");
        m.push("base.disk_ios", self.disk.ops as f64, "count");

        m.push(
            "denet.calendar_ns_per_event",
            self.calendar.ns_per_op(),
            "ns",
        );
        m.push(
            "denet.same_instant_share",
            ratio(self.same_instant as f64, self.trace_events as f64),
            "ratio",
        );

        m.push(
            "net.msgs_per_commit",
            per_commit(self.msgs.iter().sum()),
            "count",
        );
        for (kind, &n) in MSG_KINDS.iter().zip(&self.msgs) {
            m.push(
                format!("net.msgs_per_commit.{kind}"),
                per_commit(n),
                "count",
            );
        }
        m.push(
            "net.fault_msgs_per_commit",
            per_commit(self.fault_msgs),
            "count",
        );

        m.push(
            "cpu.busy_periods_per_commit",
            per_commit(self.cpu_busy),
            "count",
        );
        m.push(
            "disk.busy_periods_per_commit",
            per_commit(self.disk_busy),
            "count",
        );
        m.push("cpu.ns_per_job", self.cpu.ns_per_op(), "ns");
        m.push("disk.ns_per_io", self.disk.ns_per_op(), "ns");
        m.push("model.proc_cpu_util", self.proc_util / configs, "ratio");
        m.push("model.disk_util", self.disk_util / configs, "ratio");
        m.push("model.host_cpu_util", self.host_util / configs, "ratio");

        let accesses = self.accesses as f64;
        m.push("cc.requests_per_commit", per_commit(self.accesses), "count");
        m.push(
            "cc.block_share",
            ratio(self.blocked as f64, accesses),
            "ratio",
        );
        m.push(
            "cc.reject_share",
            ratio(self.rejected as f64, accesses),
            "ratio",
        );
        m.push(
            "cc.lock_waits_per_commit",
            per_commit(self.lock_waits),
            "count",
        );
        m.push(
            "cc.certify_fail_share",
            ratio(self.certify_fails as f64, self.certifies as f64),
            "ratio",
        );
        m.push("cc.ns_per_request", self.cc.timing.ns_per_op(), "ns");
        m.push("cc.replay_mismatches", self.cc.mismatches as f64, "count");

        m.push(
            "txn.commit_share",
            ratio(wc, wc + self.window_aborts as f64),
            "ratio",
        );
        for (cause, &n) in AbortCause::ALL.iter().zip(&self.causes) {
            m.push(
                format!("txn.aborts_per_commit.{}", cause.label()),
                ratio(n as f64, wc),
                "count",
            );
        }
        for (bucket, &s) in PhaseBucket::ALL.iter().zip(&self.phase_total_s) {
            m.push(
                format!("txn.phase_s.{}", bucket.label()),
                ratio(s, self.phase_count as f64),
                "s",
            );
        }

        m.push("workload.ns_per_template", self.workload.ns_per_op(), "ns");
        m.push(
            "workload.accesses_per_template",
            ratio(self.template_accesses as f64, self.templates as f64),
            "count",
        );

        m.push(
            "obs.trace_overhead",
            ratio(self.traced_s, self.untraced_s),
            "ratio",
        );
        m.push(
            "obs.witness_overhead",
            ratio(self.witness_s, self.untraced_s),
            "ratio",
        );
        m.push(
            "obs.trace_events_per_commit",
            per_commit(self.trace_events),
            "count",
        );
        m.push(
            "obs.witness_events_per_commit",
            per_commit(self.witness_events),
            "count",
        );
        m.push("obs.export_ns_per_event", self.export.ns_per_op(), "ns");

        for (algo, t) in CHECKED.iter().zip(&self.checks) {
            m.push(
                format!("oracle.check_ns_per_event.{}", algo.label()),
                t.ns_per_op(),
                "ns",
            );
        }
        m.push(
            "oracle.check_share",
            ratio(self.check_s, self.witness_s + self.check_s),
            "ratio",
        );

        let replayed_ns = self.calendar.secs
            + self.cpu.secs
            + self.disk.secs
            + self.cc.timing.secs
            + self.workload.secs;
        m.push(
            "core.residual_ns_per_commit",
            ratio((self.untraced_s - replayed_ns) * 1e9, commits),
            "ns",
        );
        m
    }
}

fn same(reference: &RunReport, report: &RunReport) -> Result<(), String> {
    if reference == report {
        Ok(())
    } else {
        Err("report differs from the untraced run's".into())
    }
}

/// The traced run's checks: its report equals the untraced one, and its
/// trace is complete.
pub fn check_traced(traced: &Traced, reference: &RunReport, ledger: &mut Ledger) {
    let label = "traced report == untraced report";
    ledger.check(label, traced.report == *reference, || {
        "observation perturbed the model".into()
    });
    ledger.check("trace dropped == 0", traced.log.dropped == 0, || {
        format!("{} trace events dropped", traced.log.dropped)
    });
}

/// `run_oracle` plus `check_recording`, both timed. The recording must be
/// complete and oracle-clean, and its report must equal the untraced one.
fn witness_run(
    config: &Config,
    reference: &RunReport,
) -> Result<(OracleRecording, f64, f64), String> {
    let c = with_capacity(config);
    let start = Instant::now();
    let recording = run_oracle(c, None, TestHooks::default()).map_err(|e| e.to_string())?;
    let recorded = Instant::now();
    let verdict = check_recording(config, &recording);
    let checked = Instant::now();
    if recording.witness_overflow > 0 {
        return Err(format!(
            "{} witness events overflowed",
            recording.witness_overflow
        ));
    }
    if !verdict.clean() {
        return Err(format!("oracle violations:\n{}", verdict.render()));
    }
    same(reference, &recording.report)?;
    Ok((
        recording,
        (recorded - start).as_secs_f64(),
        (checked - recorded).as_secs_f64(),
    ))
}

/// The trace-off run's observation checks: a traced rerun must reproduce
/// the untraced report with a complete trace, and where the timed runs
/// recorded the witness (`plain_too`), a plain run must reproduce it too.
pub fn check_observation(
    config: &Config,
    reference: &RunReport,
    plain_too: bool,
    ledger: &mut Ledger,
) {
    let label = config.algorithm.label();
    if plain_too {
        ledger.op(&format!("untraced run {label}"), || {
            let (report, _) = plain_run(config)?;
            same(reference, &report)
        });
    }
    if let Some(traced) = ledger.op(&format!("traced run {label}"), || traced_run(config)) {
        check_traced(&traced, reference, ledger);
    }
}
