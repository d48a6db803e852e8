//! Host-time replays: the streams recorded by a traced run, driven into
//! each layer's public API on its own, so each layer's host cost can be
//! timed from outside the simulator.
//!
//! The replays are proxies. The trace records event instants, not calendar
//! operations, and the CPU/disk job mix is rebuilt from messages and
//! witnessed accesses with sampled service demands. Only the CC replay is
//! exact: it feeds each node's manager the very calls the simulator made,
//! and every reply must match the witnessed one.

use ddbm_cc::{make_manager_with, AccessReply, CcManager, Ts, TxnMeta};
use ddbm_config::{Config, NodeId, PageId, TxnId};
use ddbm_core::workload::generate_template_into;
use ddbm_core::{TraceEvent, TraceLog, TxnTemplate, WitnessEvent, WitnessReply, WitnessStream};
use ddbm_resource::{Cpu, DiskArray};
use denet::{EventCalendar, FxHashMap, SimDuration, SimRng, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// Host seconds spent on `ops` replayed operations.
#[derive(Debug, Default, Clone, Copy)]
pub struct Timing {
    /// Host seconds of the replay loop.
    pub secs: f64,
    /// Operations replayed (the base of the ns-per-op figure).
    pub ops: u64,
}

impl Timing {
    /// Host nanoseconds per operation (0 with no operations).
    pub fn ns_per_op(&self) -> f64 {
        crate::metrics::ratio(self.secs * 1e9, self.ops as f64)
    }

    /// Accumulate another replay into this one.
    pub fn add(&mut self, other: Timing) {
        self.secs += other.secs;
        self.ops += other.ops;
    }
}

/// Pending events kept ahead of the replay cursor: about one think timer
/// per terminal plus one CPU and one disk prediction per node.
fn calendar_window(config: &Config) -> usize {
    config.workload.num_terminals + 2 * config.system.num_nodes()
}

/// Replay the traced event instants through an [`EventCalendar`]: keep a
/// window of future instants scheduled, and for every pop schedule the
/// next traced instant (`schedule_now` when it is the current instant).
/// Returns the timing and whether the pops came back in traced order.
pub fn calendar(config: &Config, log: &TraceLog) -> (Timing, bool) {
    let instants: Vec<SimTime> = log.events.iter().map(|(t, _)| *t).collect();
    let window = calendar_window(config).min(instants.len());
    let start = Instant::now();
    let mut cal: EventCalendar<u32> = EventCalendar::new();
    for (i, &t) in instants[..window].iter().enumerate() {
        cal.schedule(t, i as u32);
    }
    let mut next = window;
    let mut popped = 0u64;
    let mut in_order = true;
    let mut last = SimTime::ZERO;
    while let Some((t, _)) = cal.pop() {
        in_order &= t >= last;
        last = t;
        popped += 1;
        if let Some(&at) = instants.get(next) {
            if at == cal.now() {
                cal.schedule_now(next as u32);
            } else {
                cal.schedule(at, next as u32);
            }
            next += 1;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    in_order &= popped == instants.len() as u64;
    (Timing { secs, ops: popped }, in_order)
}

/// Traced events at the same instant as the event before them.
pub fn same_instant_events(log: &TraceLog) -> u64 {
    log.events.windows(2).filter(|w| w[0].0 == w[1].0).count() as u64
}

/// One CPU job or disk I/O of the rebuilt job mix.
#[derive(Debug, Clone, Copy)]
enum Job {
    /// Message-class CPU work (send or receive).
    Msg(f64),
    /// Processor-shared CPU work.
    Shared(f64),
    /// A disk I/O: write flag and service time.
    Io(bool, SimDuration),
}

/// Rebuild the job mix from the trace's messages and the witness's
/// accesses: `InstPerMsg` per send and per receive, `InstPerStartup` per
/// cohort load, `InstPerCCReq` per access request, an exponential
/// `InstPerPage` plus a disk read per granted access, and `InstPerUpdate`
/// plus a disk write per installed page. Service demands are drawn from
/// their own stream, so the mix is a function of the seed.
fn job_mix(
    config: &Config,
    log: &TraceLog,
    witness: &WitnessStream,
) -> Vec<(SimTime, NodeId, Job)> {
    let sys = &config.system;
    let mut rng = SimRng::derive(config.control.seed, "perfbench-job-mix");
    let mut jobs = Vec::new();
    let granted = |rng: &mut SimRng, jobs: &mut Vec<_>, at, node| {
        let page = rng.exponential(config.workload.inst_per_page as f64);
        jobs.push((at, node, Job::Shared(page)));
        let service = rng.uniform_u64(sys.min_disk_time.0, sys.max_disk_time.0);
        jobs.push((at, node, Job::Io(false, SimDuration(service))));
    };
    for &(at, ref ev) in &log.events {
        match *ev {
            TraceEvent::MsgSend { from, .. } => {
                jobs.push((at, from, Job::Msg(sys.inst_per_msg as f64)));
            }
            TraceEvent::MsgArrive { to, kind, .. } => {
                jobs.push((at, to, Job::Msg(sys.inst_per_msg as f64)));
                if kind == "LoadCohort" {
                    jobs.push((at, to, Job::Shared(sys.inst_per_startup as f64)));
                }
            }
            _ => {}
        }
    }
    for &(at, ref ev) in witness {
        match *ev {
            WitnessEvent::Access { node, reply, .. } => {
                jobs.push((at, node, Job::Shared(sys.inst_per_cc_req as f64)));
                if reply == WitnessReply::Granted {
                    granted(&mut rng, &mut jobs, at, node);
                }
            }
            WitnessEvent::Grant { node, .. } => granted(&mut rng, &mut jobs, at, node),
            WitnessEvent::Install { node, .. } => {
                jobs.push((at, node, Job::Shared(sys.inst_per_update as f64)));
                let service = rng.uniform_u64(sys.min_disk_time.0, sys.max_disk_time.0);
                jobs.push((at, node, Job::Io(true, SimDuration(service))));
            }
            _ => {}
        }
    }
    // Both streams are in time order; a stable sort merges them.
    jobs.sort_by_key(|&(at, _, _)| at);
    jobs
}

/// Drive the rebuilt job mix through one [`Cpu`] and one [`DiskArray`] per
/// node, the way the simulator does: advance to the job's instant, submit,
/// then ask for the next completion. Returns (CPU jobs, disk I/Os) timings.
pub fn resources(config: &Config, log: &TraceLog, witness: &WitnessStream) -> (Timing, Timing) {
    let jobs = job_mix(config, log, witness);
    let sys = &config.system;
    let mut rng = SimRng::derive(config.control.seed, "perfbench-disk-pick");
    let picks: Vec<usize> = jobs
        .iter()
        .filter(|(_, _, j)| matches!(j, Job::Io(..)))
        .map(|_| rng.index(sys.num_disks))
        .collect();
    let end = jobs.last().map_or(SimTime::ZERO, |j| j.0) + SimDuration::from_secs_f64(3600.0);

    let mut cpus: Vec<Cpu<u32>> = config
        .node_ids()
        .map(|n| Cpu::new(sys.cpu_rate(n)))
        .collect();
    let mut done = Vec::new();
    let mut cpu = Timing::default();
    let start = Instant::now();
    for (i, &(at, node, job)) in jobs.iter().enumerate() {
        let c = &mut cpus[node.0];
        let finished = match job {
            Job::Msg(instr) => {
                c.advance_into(at, &mut done);
                c.submit_message(at, i as u32, instr)
            }
            Job::Shared(instr) => {
                c.advance_into(at, &mut done);
                c.submit_shared(at, i as u32, instr)
            }
            Job::Io(..) => continue,
        };
        black_box(finished);
        black_box(c.next_completion());
        done.clear();
        cpu.ops += 1;
    }
    for c in &mut cpus {
        c.advance_into(end, &mut done);
    }
    cpu.secs = start.elapsed().as_secs_f64();
    black_box(&done);

    let mut arrays: Vec<DiskArray<u32>> = config
        .node_ids()
        .map(|_| DiskArray::new(sys.num_disks))
        .collect();
    let mut disk = Timing::default();
    let start = Instant::now();
    let mut pick = picks.iter();
    for (i, &(at, node, job)) in jobs.iter().enumerate() {
        let Job::Io(write, service) = job else {
            continue;
        };
        let d = &mut arrays[node.0];
        d.advance_into(at, &mut done);
        d.submit(
            at,
            *pick.next().expect("one pick per I/O"),
            i as u32,
            write,
            service,
        );
        black_box(d.next_completion());
        done.clear();
        disk.ops += 1;
    }
    for d in &mut arrays {
        d.advance_into(end, &mut done);
    }
    disk.secs = start.elapsed().as_secs_f64();
    black_box(&done);
    (cpu, disk)
}

/// One call the simulator made into a node's CC manager.
#[derive(Debug, Clone, Copy)]
enum CcCall {
    Access {
        node: usize,
        meta: TxnMeta,
        page: PageId,
        write: bool,
        reply: AccessReply,
    },
    Certify {
        node: usize,
        meta: TxnMeta,
        commit_ts: Ts,
        ok: bool,
    },
    Release {
        node: usize,
        txn: TxnId,
        commit: bool,
    },
    Crash {
        node: usize,
    },
}

/// The result of a CC replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct CcReplay {
    /// Host time over every manager call (access, certify, release, and the
    /// rebuild after a crash); `ops` counts access requests.
    pub timing: Timing,
    /// Manager calls replayed.
    pub calls: u64,
    /// Replies that differ from the witnessed ones.
    pub mismatches: u64,
}

/// Extract the manager calls from the witness stream, in emission order.
fn cc_calls(witness: &WitnessStream) -> Vec<CcCall> {
    let mut initial: FxHashMap<TxnId, Ts> = FxHashMap::default();
    let mut calls = Vec::new();
    for (_, ev) in witness {
        let call = match *ev {
            WitnessEvent::Access {
                txn,
                node,
                page,
                write,
                reply,
                initial_ts,
                run_ts,
                ..
            } => {
                initial.insert(txn, initial_ts);
                CcCall::Access {
                    node: node.0,
                    meta: TxnMeta {
                        id: txn,
                        initial_ts,
                        run_ts,
                    },
                    page,
                    write,
                    reply: match reply {
                        WitnessReply::Granted => AccessReply::Granted,
                        WitnessReply::Blocked => AccessReply::Blocked,
                        WitnessReply::Rejected => AccessReply::Rejected,
                    },
                }
            }
            WitnessEvent::Certify {
                txn,
                node,
                commit_ts,
                run_ts,
                ok,
                ..
            } => CcCall::Certify {
                node: node.0,
                meta: TxnMeta {
                    id: txn,
                    initial_ts: initial.get(&txn).copied().unwrap_or(run_ts),
                    run_ts,
                },
                commit_ts,
                ok,
            },
            WitnessEvent::Release {
                txn, node, commit, ..
            } => CcCall::Release {
                node: node.0,
                txn,
                commit,
            },
            WitnessEvent::NodeCrash { node } => CcCall::Crash { node: node.0 },
            _ => continue,
        };
        calls.push(call);
    }
    calls
}

/// A fresh manager for `node`, preallocated as the simulator does at
/// construction and on crash recovery.
fn fresh_manager(config: &Config, files_per_node: &[usize], node: usize) -> Box<dyn CcManager> {
    let mut cc = make_manager_with(config.algorithm, config.system.lock_barging);
    if node > 0 {
        cc.preallocate(
            files_per_node[node - 1] * config.database.pages_per_file as usize,
            config.max_txn_accesses(),
        );
    }
    cc
}

/// Replay the witnessed CC stream per node into `make_manager_with`
/// managers, resetting a node's manager on `NodeCrash`, and count replies
/// that differ from the witnessed ones.
pub fn cc(config: &Config, witness: &WitnessStream) -> Result<CcReplay, String> {
    let calls = cc_calls(witness);
    let placement = config.placement().map_err(|e| e.to_string())?;
    let files_per_node = placement.files_per_node(config.system.num_proc_nodes);
    let start = Instant::now();
    let mut managers: Vec<Box<dyn CcManager>> = (0..config.system.num_nodes())
        .map(|n| fresh_manager(config, &files_per_node, n))
        .collect();
    let mut out = CcReplay::default();
    for call in &calls {
        match *call {
            CcCall::Access {
                node,
                meta,
                page,
                write,
                reply,
            } => {
                let resp = managers[node].request_access(&meta, page, write);
                out.mismatches += u64::from(resp.reply != reply);
                out.timing.ops += 1;
                black_box(resp);
            }
            CcCall::Certify {
                node,
                meta,
                commit_ts,
                ok,
            } => {
                let got = managers[node].certify(&meta, commit_ts);
                out.mismatches += u64::from(got != ok);
            }
            CcCall::Release { node, txn, commit } => {
                let resp = if commit {
                    managers[node].commit(txn)
                } else {
                    managers[node].abort(txn)
                };
                black_box(resp);
            }
            CcCall::Crash { node } => {
                managers[node] = fresh_manager(config, &files_per_node, node);
                continue;
            }
        }
        out.calls += 1;
    }
    out.timing.secs = start.elapsed().as_secs_f64();
    Ok(out)
}

/// Regenerate the recorded workload with `generate_template_into`: one
/// template per recorded submission, for the same relation, from the
/// simulator's workload stream. Returns the timing (ops = templates).
pub fn workload(config: &Config, templates: &[TxnTemplate]) -> Result<Timing, String> {
    let placement = config.placement().map_err(|e| e.to_string())?;
    let groups: Vec<_> = (0..config.database.num_relations)
        .map(|rel| placement.cohort_groups(rel))
        .collect();
    let mut rng = SimRng::derive(config.control.seed, "workload");
    let mut scratch = Vec::new();
    let mut out = TxnTemplate {
        relation: 0,
        cohorts: Vec::new(),
    };
    let start = Instant::now();
    for t in templates {
        generate_template_into(
            config,
            &groups[t.relation],
            t.relation,
            &mut rng,
            &mut scratch,
            &mut out,
        );
        black_box(&out);
    }
    Ok(Timing {
        secs: start.elapsed().as_secs_f64(),
        ops: templates.len() as u64,
    })
}

/// A writer that keeps only a byte count, so the export pays for all of its
/// formatting but no I/O.
struct ByteCount(u64);

impl std::io::Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Export the trace with `TraceLog::write_jsonl` into a byte counter.
/// Returns the timing (ops = events).
pub fn export(log: &TraceLog) -> Result<Timing, String> {
    let mut out = ByteCount(0);
    let start = Instant::now();
    log.write_jsonl(&mut out).map_err(|e| e.to_string())?;
    let secs = start.elapsed().as_secs_f64();
    if out.0 == 0 && !log.events.is_empty() {
        return Err("the export wrote nothing".into());
    }
    Ok(Timing {
        secs,
        ops: log.events.len() as u64,
    })
}
