//! End-to-end measurement: set-up time, the timed runs, peak memory and the
//! simulated-statistics fingerprint. Everything here runs with observation
//! off, except the oracle workload's witness, which is the work it times.

use crate::ledger::Ledger;
use crate::metrics::median;
use crate::workload::Workload;
use crate::yardstick::{Yardstick, YARDSTICK_SECONDS};
use ddbm_config::Config;
use ddbm_core::{run_oracle, RunReport, Simulator, TestHooks};
use ddbm_oracle::check_recording;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Constructions per config for `setup_s`; odd, so the median is a sample.
pub const SETUP_REPS: usize = 61;

/// Timed rounds made even when they outlast the time budget, so the
/// determinism check always compares at least this many reports per config.
pub const MIN_ROUNDS: usize = 2;

/// Host seconds of `work` scaled to the yardstick host: the time a
/// yardstick pass takes just before and just after it is the local measure
/// of host speed.
fn scaled(work: f64, before: f64, after: f64) -> f64 {
    work * YARDSTICK_SECONDS * 2.0 / (before + after)
}

/// One timed operation on one config.
#[derive(Debug, Clone, Copy)]
pub struct OpTime {
    /// Host seconds of the whole operation (recording plus check for the
    /// oracle workload).
    pub secs: f64,
    /// The same, scaled to the yardstick host.
    pub scaled_secs: f64,
    /// Simulated commits, warm-up plus measured.
    pub commits: u64,
}

/// The timed phase: every timed operation, the first report of every
/// config, and every yardstick pass.
#[derive(Debug, Default)]
pub struct Timed {
    /// Operations that succeeded, each with its config's index.
    pub ops: Vec<(usize, OpTime)>,
    /// The reference report per config (from its first successful run).
    pub reports: Vec<Option<RunReport>>,
    /// Host seconds of each yardstick pass.
    pub yardstick: Vec<f64>,
}

impl Timed {
    /// Simulated commits per second of the timed operations, scaled to the
    /// yardstick host (`scaled`) or as measured.
    pub fn commits_per_s(&self, scaled: bool) -> Option<f64> {
        let commits: u64 = self.ops.iter().map(|(_, o)| o.commits).sum();
        let secs: f64 = self
            .ops
            .iter()
            .map(|(_, o)| if scaled { o.scaled_secs } else { o.secs })
            .sum();
        (commits > 0).then(|| commits as f64 / secs)
    }

    /// Median host seconds of config `i`'s operation, as measured.
    pub fn median_secs(&self, i: usize) -> Option<f64> {
        let secs: Vec<f64> = self
            .ops
            .iter()
            .filter(|(c, _)| *c == i)
            .map(|(_, o)| o.secs)
            .collect();
        (!secs.is_empty()).then(|| median(&secs))
    }

    /// Median host seconds of a yardstick pass.
    pub fn yardstick_secs(&self) -> Option<f64> {
        (!self.yardstick.is_empty()).then(|| median(&self.yardstick))
    }
}

/// A run that stopped early or missed its commit target failed.
pub fn complete(config: &Config, report: &RunReport) -> Result<(), String> {
    if report.truncated {
        return Err("run truncated at max_sim_time".into());
    }
    if report.commits < config.control.measure_commits {
        return Err(format!(
            "{} commits measured, target {}",
            report.commits, config.control.measure_commits
        ));
    }
    Ok(())
}

/// Commits of a whole run: the warm-up plus the measured window.
pub fn run_commits(config: &Config, report: &RunReport) -> u64 {
    config.control.warmup_commits + report.commits
}

/// A plain (unobserved) run: `Simulator::new` plus `Simulator::run`.
pub fn plain_run(config: &Config) -> Result<(RunReport, f64), String> {
    let c = config.clone();
    let start = Instant::now();
    let report = Simulator::new(c).map_err(|e| e.to_string())?.run();
    let secs = start.elapsed().as_secs_f64();
    complete(config, &report)?;
    Ok((report, secs))
}

/// Witness recording plus the oracle check; returns the report and the
/// host seconds of both.
pub fn oracle_run(config: &Config) -> Result<(RunReport, f64), String> {
    let c = config.clone();
    let start = Instant::now();
    let recording = run_oracle(c, None, TestHooks::default()).map_err(|e| e.to_string())?;
    let verdict = check_recording(config, &recording);
    let secs = start.elapsed().as_secs_f64();
    if recording.truncated {
        return Err("witness run truncated".into());
    }
    if recording.witness_overflow > 0 {
        return Err(format!(
            "{} witness events overflowed",
            recording.witness_overflow
        ));
    }
    if !verdict.clean() {
        return Err(format!("oracle violations:\n{}", verdict.render()));
    }
    complete(config, &recording.report)?;
    Ok((recording.report, secs))
}

/// Check `report` against the config's reference report, recording it as
/// the reference when it is the first.
pub fn same_as_reference(
    reference: &mut Option<RunReport>,
    report: RunReport,
) -> Result<(), String> {
    match reference {
        None => {
            *reference = Some(report);
            Ok(())
        }
        Some(r) if *r == report => Ok(()),
        Some(_) => Err("report differs from an earlier run of the same config".into()),
    }
}

/// `setup_s`: the median host time of `Simulator::new` per config, summed
/// over the workload's configs (one operation constructs each once).
/// Returns it scaled to the yardstick host and as measured.
pub fn setup_seconds(configs: &[Config], ledger: &mut Ledger) -> Option<(f64, f64)> {
    let mut yardstick = Yardstick::new();
    ledger.op("setup", || {
        let before = yardstick.pass();
        let mut total = 0.0;
        for config in configs {
            let mut times = Vec::with_capacity(SETUP_REPS);
            // One untimed construction first: the first one also pays for
            // faulting in the allocator's arena.
            drop(Simulator::new(config.clone()).map_err(|e| e.to_string())?);
            for _ in 0..SETUP_REPS {
                let c = config.clone();
                let start = Instant::now();
                let sim = Simulator::new(c).map_err(|e| e.to_string())?;
                times.push(start.elapsed().as_secs_f64());
                drop(black_box(sim));
            }
            total += median(&times);
        }
        let after = yardstick.pass();
        Ok((scaled(total, before, after), total))
    })
}

/// The timed phase: whole rounds over the workload's configs until
/// `budget` has passed (and at least [`MIN_ROUNDS`] rounds), with a
/// yardstick pass before the first operation and after every one.
pub fn timed_phase(
    workload: Workload,
    configs: &[Config],
    budget: Duration,
    ledger: &mut Ledger,
) -> Timed {
    let mut timed = Timed {
        ops: Vec::new(),
        reports: vec![None; configs.len()],
        yardstick: Vec::new(),
    };
    let mut yardstick = Yardstick::new();
    let mut before = yardstick.pass();
    timed.yardstick.push(before);
    let start = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || start.elapsed() < budget {
        for (i, config) in configs.iter().enumerate() {
            let what = format!(
                "{} round {round}: {} seed {}",
                workload.name(),
                config.algorithm.label(),
                config.control.seed
            );
            let reference = &mut timed.reports[i];
            let op = ledger.op(&what, || {
                let (report, secs) = if workload.checks_oracle() {
                    oracle_run(config)?
                } else {
                    plain_run(config)?
                };
                let commits = run_commits(config, &report);
                same_as_reference(reference, report)?;
                Ok((secs, commits))
            });
            let after = yardstick.pass();
            timed.yardstick.push(after);
            if let Some((secs, commits)) = op {
                let scaled_secs = scaled(secs, before, after);
                timed.ops.push((
                    i,
                    OpTime {
                        secs,
                        scaled_secs,
                        commits,
                    },
                ));
            }
            before = after;
        }
        round += 1;
        // Every operation failing would otherwise spin for the budget.
        if round >= MIN_ROUNDS && timed.ops.is_empty() {
            break;
        }
    }
    timed
}

/// The process's peak resident set in MiB (`VmHWM`), when the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A fingerprint of the simulated statistics: commits, aborts and the bit
/// patterns of throughput and mean response time of every config's report
/// (FNV-1a, 64 bits). Equal digests mean a change left the model's output
/// untouched.
pub fn sim_digest(reports: &[Option<RunReport>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in reports {
        match r {
            Some(r) => {
                feed(r.commits);
                feed(r.aborts);
                feed(r.throughput.to_bits());
                feed(r.mean_response_time.to_bits());
            }
            None => feed(u64::MAX),
        }
    }
    h
}
