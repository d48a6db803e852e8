//! End-to-end serializability oracle: run each strict-locking algorithm
//! under heavy contention with the witness stream on and verify the
//! committed history's conflict graph is acyclic. A single misplaced lock
//! release, lost wakeup, or stale-event bug anywhere in the simulator shows
//! up here.

use ddbm_config::{Algorithm, Config};
use ddbm_core::{run_oracle, OracleRecording, TestHooks};
use ddbm_oracle::conflict_cycle;

fn contended(algorithm: Algorithm) -> Config {
    let mut c = Config::paper(algorithm, 8, 8, 0.0);
    c.workload.num_terminals = 32;
    c.workload.mean_pages_per_file = 2;
    c.workload.min_pages_per_file = 1;
    c.workload.max_pages_per_file = 3;
    c.database.pages_per_file = 25; // very hot pages
    c.control.warmup_commits = 0; // check the history from the first commit
    c.control.measure_commits = 400;
    c
}

/// Record `config` with the witness stream complete.
fn record(config: Config) -> OracleRecording {
    let rec = run_oracle(config, None, TestHooks::default()).expect("valid");
    assert_eq!(
        rec.witness_overflow, 0,
        "the witness stream must be complete"
    );
    rec
}

#[test]
fn strict_locking_histories_are_conflict_serializable() {
    for algorithm in [
        Algorithm::TwoPhaseLocking,
        Algorithm::TwoPhaseLockingTimeout,
        Algorithm::WoundWait,
        Algorithm::WaitDie,
    ] {
        let rec = record(contended(algorithm));
        assert_eq!(rec.report.commits, 400, "{algorithm}");
        match conflict_cycle(&rec.witness) {
            Ok(ops) => assert!(ops > 1_000, "{algorithm}: too few ops recorded ({ops})"),
            Err(cycle) => {
                panic!("{algorithm}: committed history not serializable; cycle {cycle:?}")
            }
        }
    }
}

#[test]
fn one_way_partitioning_is_serializable_too() {
    // Sequential single-cohort transactions stress the local lock paths.
    let mut c = contended(Algorithm::TwoPhaseLocking);
    c.database.declustering_degree = 1;
    let rec = record(c);
    assert_eq!(rec.report.commits, 400);
    assert!(conflict_cycle(&rec.witness).is_ok());
}

#[test]
fn sequential_execution_is_serializable() {
    let mut c = contended(Algorithm::WoundWait);
    c.workload.exec_pattern = ddbm_config::ExecPattern::Sequential;
    let rec = record(c);
    assert_eq!(rec.report.commits, 400);
    assert!(conflict_cycle(&rec.witness).is_ok());
}

#[test]
fn nodc_baseline_is_knowingly_unserializable_under_conflict() {
    // Sanity check that the oracle has teeth: NO_DC ignores all conflicts,
    // so a contended run must produce a non-serializable history.
    let rec = record(contended(Algorithm::NoDataContention));
    assert_eq!(rec.report.commits, 400);
    assert!(
        conflict_cycle(&rec.witness).is_err(),
        "NO_DC under heavy conflict should violate serializability"
    );
}
