//! Stream golden: pins the exact contents of both observation streams — the
//! event trace (as exported JSONL bytes) and the protocol witness stream (as
//! its `Debug` rendering) — for six configurations that between them hit
//! every probe kind: lock waits and the Snoop (2PL), wounds, crashes and
//! retransmissions (WW under faults), and certification with replicated
//! installs over a lossy network (OPT, 3-way ROWA). Three more cases pin
//! the remaining lock rules: wait-die deaths, 2PL-T lock-wait timeouts,
//! and 2PL with barging grants. The last three pin the replica-routing and
//! crash-recovery paths: 3-way ROWA and factor-1 replication under crashes
//! (restarts re-routed onto live replicas, replica-unavailable aborts), and
//! crashes plus disk stalls under sequential execution with a buffer pool.
//!
//! The determinism golden pins run *reports*; this test pins the order and
//! payload of every observed event, so a refactor of the observation path
//! that reorders, drops or duplicates one event fails here even when every
//! report stays bit-identical.

use ddbm::config::{Algorithm, Config, ExecPattern, ReplicationParams};
use ddbm::core::{run_oracle, run_traced, RunReport, TestHooks};
use ddbm::sim::SimDuration;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(trace JSONL digest, witness Debug digest)` for one configuration,
/// after checking that each stream contains every marker in `covers` and
/// that the run's report satisfies `took_path` (so a digest never silently
/// pins a run that stopped exercising its probes or its code path).
fn digests(config: &Config, covers: &[&str], took_path: fn(&RunReport) -> bool) -> (u64, u64) {
    let (report, trace) = run_traced(config.clone()).expect("valid config");
    assert!(
        took_path(&report),
        "{:?}: the run missed its path: {:?} {:?}",
        config.algorithm,
        report.aborts_by_cause,
        report.fault_stats
    );
    assert_eq!(trace.dropped, 0, "the trace ring must hold the whole run");
    let mut jsonl = Vec::new();
    trace.write_jsonl(&mut jsonl).expect("in-memory write");
    let rec = run_oracle(config.clone(), None, TestHooks::default()).expect("valid config");
    assert_eq!(rec.witness_overflow, 0, "the witness log must hold the run");
    let witness = format!("{:?}", rec.witness);
    let digests = (fnv1a(&jsonl), fnv1a(witness.as_bytes()));
    let trace_text = String::from_utf8(jsonl).expect("JSONL is UTF-8");
    for marker in covers {
        assert!(
            trace_text.contains(marker) || witness.contains(marker),
            "{:?}: neither stream contains {marker}",
            config.algorithm
        );
    }
    digests
}

fn short(mut c: Config) -> Config {
    c.control.warmup_commits = 20;
    c.control.measure_commits = 120;
    c
}

/// The paper's 8-node, 8-way 2PL machine, fault-free.
fn two_pl() -> Config {
    short(Config::paper(Algorithm::TwoPhaseLocking, 8, 8, 1.0))
}

/// Wound-wait on a small, hot 4-node machine with node crashes and message
/// drops.
fn ww_faulty() -> Config {
    let mut c = Config::paper(Algorithm::WoundWait, 4, 4, 0.5);
    c.workload.num_terminals = 16;
    c.workload.mean_pages_per_file = 2;
    c.workload.min_pages_per_file = 1;
    c.workload.max_pages_per_file = 3;
    c.database.pages_per_file = 50;
    c.control.seed = 7;
    c.control.max_sim_time = SimDuration::from_secs_f64(2_000.0);
    c.faults.crash_rate = 0.1;
    c.faults.recovery = SimDuration::from_secs_f64(1.0);
    c.faults.msg_drop_prob = 0.01;
    c.faults.msg_retry = SimDuration::from_millis(50);
    c.faults.cohort_timeout = SimDuration::from_secs_f64(3.0);
    short(c)
}

/// OPT over 3-way read-one/write-all replication with message drops and
/// delays.
fn opt_rowa3_lossy() -> Config {
    let mut c = Config::paper(Algorithm::Optimistic, 8, 8, 1.0);
    c.replication = ReplicationParams::rowa(3);
    c.faults.msg_drop_prob = 0.005;
    c.faults.msg_delay_prob = 0.01;
    c.faults.msg_delay_max = SimDuration::from_millis(20);
    c.faults.msg_retry = SimDuration::from_millis(50);
    c.faults.cohort_timeout = SimDuration::from_secs_f64(3.0);
    short(c)
}

/// Wait-die on a small, hot 4-node machine: younger requesters die.
fn wd_hot() -> Config {
    let mut c = Config::paper(Algorithm::WaitDie, 4, 4, 0.5);
    c.workload.num_terminals = 16;
    c.database.pages_per_file = 50;
    c.control.seed = 11;
    short(c)
}

/// Timeout-resolved 2PL on the paper's 8-node, 8-way machine under load,
/// with a lock-wait timeout short enough to fire.
fn two_pl_timeout() -> Config {
    let mut c = Config::paper(Algorithm::TwoPhaseLockingTimeout, 8, 8, 0.0);
    c.system.lock_timeout = SimDuration::from_secs_f64(0.5);
    short(c)
}

/// 2PL with barging grants on the paper's 8-node, 8-way machine under
/// load.
fn two_pl_barging() -> Config {
    let mut c = Config::paper(Algorithm::TwoPhaseLocking, 8, 8, 0.0);
    c.system.lock_barging = true;
    short(c)
}

/// Crash windows short enough to recur within a short run, with the
/// retransmission and commit-timeout knobs crashes need.
fn crashes(c: &mut Config, rate: f64) {
    c.faults.crash_rate = rate;
    c.faults.recovery = SimDuration::from_secs_f64(1.0);
    c.faults.msg_retry = SimDuration::from_millis(50);
    c.faults.cohort_timeout = SimDuration::from_secs_f64(3.0);
}

/// 2PL over 3-way read-one/write-all replication with node crashes:
/// restarts re-route the logical plan onto the live replicas, and runs
/// that find a file's replica down abort as replica-unavailable.
fn rowa3_crashes() -> Config {
    let mut c = Config::paper(Algorithm::TwoPhaseLocking, 4, 4, 1.0);
    c.replication = ReplicationParams::rowa(3);
    crashes(&mut c, 0.05);
    c.faults.recovery = SimDuration::from_secs_f64(5.0);
    short(c)
}

/// Wound-wait over factor-1 replication with node crashes: each restart
/// re-routes the logical plan, which fails while the one copy's node is
/// down.
fn rowa1_crashes() -> Config {
    let mut c = Config::paper(Algorithm::WoundWait, 8, 8, 1.0);
    c.replication = ReplicationParams::rowa(1);
    crashes(&mut c, 0.02);
    short(c)
}

/// 2PL with sequential cohorts and a buffer pool, under node crashes and
/// disk stalls.
fn sequential_stalls() -> Config {
    let mut c = Config::paper(Algorithm::TwoPhaseLocking, 8, 8, 1.0);
    c.workload.exec_pattern = ExecPattern::Sequential;
    c.system.buffer_pages = 64;
    crashes(&mut c, 0.01);
    c.faults.disk_stall_rate = 0.2;
    c.faults.disk_stall = SimDuration::from_millis(200);
    short(c)
}

/// `(name, config, markers its streams must contain, path check on the
/// report, golden digests)`.
type Case = (
    &'static str,
    Config,
    &'static [&'static str],
    fn(&RunReport) -> bool,
    (u64, u64),
);

#[test]
fn observation_streams_match_golden() {
    let cases: [Case; 9] = [
        (
            "2PL 8x8",
            two_pl(),
            &["lock_wait_begin", "SnoopRequest", "cpu_busy", "disk_busy"],
            |r| r.aborts_by_cause.deadlock > 0,
            (0x4ce4_d1c1_917a_9aa9, 0x2098_83b7_b476_a90f),
        ),
        (
            "WW crashes+drops",
            ww_faulty(),
            &["NodeCrash", "Wound", "WaitingRestart", "lock_wait_end"],
            |r| r.fault_stats.crashes > 0,
            (0xf78f_5a79_3e4b_9690, 0xa85d_9d8a_506b_d922),
        ),
        (
            "OPT ROWA-3 lossy",
            opt_rowa3_lossy(),
            &["ok: false", "Install", "AbortingVote", "msg_arrive"],
            |r| r.aborts_by_cause.validation > 0 && r.fault_stats.msgs_dropped > 0,
            (0x99c1_6600_053a_ea5e, 0xa033_9835_3c83_c85d),
        ),
        (
            "WD hot 4x4",
            wd_hot(),
            &["reply: Rejected", "lock_wait_end"],
            |r| r.aborts_by_cause.timestamp > 0,
            (0x7c91_a77a_2b1d_c25b, 0x0554_95ad_7471_8bca),
        ),
        (
            "2PL-T 8x8",
            two_pl_timeout(),
            &["AbortRequest", "lock_wait_begin"],
            |r| r.aborts_by_cause.lock_timeout > 0,
            (0x8ab1_36b4_eb19_b131, 0x53ca_8b4c_7be5_1c11),
        ),
        (
            "2PL barging 8x8",
            two_pl_barging(),
            &["reply: Rejected", "SnoopRequest", "lock_wait_end"],
            |r| r.aborts_by_cause.deadlock > 0,
            (0x4041_d614_a619_ee30, 0x5505_ca75_b56b_d646),
        ),
        (
            "2PL ROWA-3 crashes",
            rowa3_crashes(),
            &["NodeCrash", "WaitingRestart", "Install"],
            |r| r.fault_stats.crashes > 0 && r.aborts_by_cause.replica_unavailable > 0,
            (0xf850_abf9_848d_4692, 0x2eb4_d688_b0c5_2181),
        ),
        (
            "WW ROWA-1 crashes",
            rowa1_crashes(),
            &["NodeCrash", "WaitingRestart"],
            |r| r.fault_stats.crashes > 0 && r.aborts_by_cause.replica_unavailable > 0,
            (0x247a_4e64_212a_9314, 0xaf7b_7e1c_5d34_a986),
        ),
        (
            "2PL sequential crashes+stalls",
            sequential_stalls(),
            &["NodeCrash", "SnoopRequest", "disk_busy"],
            |r| {
                r.fault_stats.crashes > 0
                    && r.fault_stats.disk_stalls > 0
                    && r.buffer_hit_ratio > 0.0
            },
            (0x0574_571b_3519_f6f7, 0x7de8_a30a_1779_3201),
        ),
    ];
    let mut mismatches = Vec::new();
    for (name, config, covers, took_path, golden) in cases {
        let got = digests(&config, covers, took_path);
        if got != golden {
            mismatches.push(format!("{name}: got ({:#018x}, {:#018x})", got.0, got.1));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
