//! The CC replay is exact: feeding each node's manager the witnessed calls
//! reproduces every witnessed reply, for the lock table (2PL) and for
//! certification (OPT), with and without crashes.

use ddbm_config::{Algorithm, Config};
use ddbm_core::{run_oracle, TestHooks, WitnessEvent, WitnessReply};
use perfbench::replay;

fn replay_is_exact(config: Config) {
    let label = config.algorithm.label();
    let recording = run_oracle(config.clone(), None, TestHooks::default()).expect("valid config");
    assert_eq!(recording.witness_overflow, 0);
    let out = replay::cc(&config, &recording.witness).expect("replay runs");
    let accesses = recording
        .witness
        .iter()
        .filter(|(_, e)| matches!(e, WitnessEvent::Access { .. }))
        .count() as u64;
    assert_eq!(
        out.timing.ops, accesses,
        "{label}: one op per access request"
    );
    assert!(
        out.calls > accesses,
        "{label}: certify and release calls replayed too"
    );
    assert_eq!(out.mismatches, 0, "{label}: replayed replies differ");
}

fn short(mut config: Config) -> Config {
    config.control.warmup_commits = 50;
    config.control.measure_commits = 300;
    config
}

#[test]
fn lock_table_replay_reproduces_blocks() {
    let config = short(Config::paper(Algorithm::TwoPhaseLocking, 8, 8, 4.0));
    let recording = run_oracle(config.clone(), None, TestHooks::default()).expect("valid config");
    let blocked = recording.witness.iter().any(|(_, e)| {
        matches!(
            e,
            WitnessEvent::Access {
                reply: WitnessReply::Blocked,
                ..
            }
        )
    });
    assert!(blocked, "the 2PL stream must contain lock waits to replay");
    replay_is_exact(config);
}

#[test]
fn certification_replay_reproduces_failures() {
    let config = short(Config::paper(Algorithm::Optimistic, 8, 8, 4.0));
    let recording = run_oracle(config.clone(), None, TestHooks::default()).expect("valid config");
    let failed = recording
        .witness
        .iter()
        .any(|(_, e)| matches!(e, WitnessEvent::Certify { ok: false, .. }));
    assert!(failed, "the OPT stream must contain failed certifications");
    replay_is_exact(config);
}

#[test]
fn replay_resets_managers_on_crash() {
    for algo in [Algorithm::TwoPhaseLocking, Algorithm::Optimistic] {
        let mut config = short(Config::paper(algo, 8, 8, 4.0));
        config.faults.crash_rate = 0.02;
        let recording =
            run_oracle(config.clone(), None, TestHooks::default()).expect("valid config");
        assert!(
            recording
                .witness
                .iter()
                .any(|(_, e)| matches!(e, WitnessEvent::NodeCrash { .. })),
            "{algo}: the stream must contain crashes"
        );
        replay_is_exact(config);
    }
}
