//! Crashes with 3-way replication (the E28 availability machine): a
//! transaction that finds no live replica set must neither stall the clock
//! nor skip the `Aborting` phase the oracle's phase machine requires.

use ddbm_config::{Algorithm, Config};
use ddbm_core::{RunReport, Simulator, TestHooks};
use ddbm_experiments::extensions::e28_config;
use ddbm_oracle::{run_and_check, ViolationKind};
use denet::SimDuration;

fn e28_opt(seed: u64) -> Config {
    let mut c = e28_config(
        Algorithm::Optimistic,
        3,
        1.0,
        0.02,
        SimDuration::from_secs_f64(5.0),
    );
    c.control.seed = seed;
    c
}

fn run(config: Config) -> RunReport {
    Simulator::new(config).expect("valid config").run()
}

/// Seeds 27 and 109 abort a transaction at its submission instant before
/// any commit. The restart delay must still be positive, or the run
/// restarts it at the same instant forever and never reaches the crashed
/// node's recovery.
#[test]
fn replica_unavailable_at_submission_does_not_livelock() {
    for seed in [27, 109] {
        let a = run(e28_opt(seed));
        assert!(!a.truncated, "seed {seed}: run hit the simulated-time wall");
        assert!(a.commits > 0, "seed {seed}: nothing committed");
        let b = run(e28_opt(seed));
        assert_eq!(a, b, "seed {seed}: repeated runs differ");
    }
}

/// Aborts for want of a live replica set, at submission or at restart,
/// pass through `Aborting` like every other abort.
#[test]
fn replica_unavailable_aborts_keep_phase_order() {
    let config = e28_opt(1);
    let (rec, report) = run_and_check(config, None, TestHooks::default()).expect("valid config");
    assert_eq!(rec.witness_overflow, 0);
    assert!(
        rec.report.aborts_by_cause.replica_unavailable > 0,
        "seed 1 no longer exercises replica-unavailable aborts"
    );
    let phase_order: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.kind == ViolationKind::PhaseOrder)
        .collect();
    assert!(phase_order.is_empty(), "{phase_order:#?}");
}
