//! The benchmark's own derivations, on short runs of every workload: each
//! run passes its correctness checks, prints exactly the metrics that
//! `BENCHMARK.json` declares for its mode, and yields sane values.

use perfbench::workload::{RunLength, Workload};
use perfbench::Outcome;
use serde::Value;
use std::time::Duration;

fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let Value::Object(fields) = serde_json::from_str::<Value>(&text).expect("valid JSON") else {
        panic!("BENCHMARK.json is not an object");
    };
    let (_, Value::Array(entries)) = fields
        .iter()
        .find(|(k, _)| k == section)
        .unwrap_or_else(|| panic!("no {section} section"))
    else {
        panic!("{section} is not a list");
    };
    entries
        .iter()
        .map(|e| {
            let Value::Object(e) = e else {
                panic!("{section} entry is not an object")
            };
            match e.iter().find(|(k, _)| k == "name") {
                Some((_, Value::Str(name))) => name.clone(),
                _ => panic!("{section} entry without a name"),
            }
        })
        .collect()
}

fn short(workload: Workload, trace: bool) -> Outcome {
    let outcome = perfbench::run(workload, 7, Duration::ZERO, trace, RunLength::Short);
    assert!(
        outcome.correct(),
        "{} failed: {:?}",
        workload.name(),
        outcome.ledger.failures
    );
    outcome
}

fn names(outcome: &Outcome) -> Vec<String> {
    outcome.metrics.names().map(String::from).collect()
}

#[test]
fn workload_names_match_the_declaration() {
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
    assert_eq!(declared("workloads"), ours);
}

#[test]
fn end_to_end_metrics_are_declared_and_positive() {
    let expected = declared("end_to_end");
    for workload in Workload::ALL {
        let outcome = short(workload, false);
        assert_eq!(names(&outcome), expected, "{}", workload.name());
        for (name, value, _) in outcome.metrics.entries() {
            assert!(
                value.is_finite() && *value > 0.0,
                "{} {name} = {value}",
                workload.name()
            );
        }
    }
}

#[test]
fn per_layer_metrics_are_declared_and_consistent() {
    let expected = declared("per_layer");
    for workload in Workload::ALL {
        let outcome = short(workload, true);
        let m = &outcome.metrics;
        assert_eq!(names(&outcome), expected, "{}", workload.name());
        let get = |name: &str| m.get(name).expect("declared metric present");
        for (name, value, _) in m.entries() {
            assert!(value.is_finite(), "{} {name} = {value}", workload.name());
        }
        // Every run commits its warm-up plus its measured window.
        let commits = get("base.commits");
        assert!(commits >= 300.0, "{commits} commits");
        assert!(get("base.window_commits") >= 250.0);
        // The per-kind message counts partition the total.
        let by_kind: f64 = perfbench::layers::MSG_KINDS
            .iter()
            .map(|k| get(&format!("net.msgs_per_commit.{k}")))
            .sum();
        let total = get("net.msgs_per_commit");
        assert!(
            (by_kind - total).abs() < 1e-9 * total,
            "{by_kind} vs {total}"
        );
        // Every committed transaction ran 2PC: prepare and vote per cohort.
        assert!(get("net.msgs_per_commit.Prepare") >= 1.0);
        assert!(get("cc.requests_per_commit") > 0.0);
        assert_eq!(get("cc.replay_mismatches"), 0.0);
        let share = get("txn.commit_share");
        assert!(share > 0.0 && share <= 1.0, "commit share {share}");
        // Host-time replays ran on every layer.
        for name in [
            "denet.calendar_ns_per_event",
            "cpu.ns_per_job",
            "disk.ns_per_io",
            "cc.ns_per_request",
            "workload.ns_per_template",
            "obs.export_ns_per_event",
        ] {
            assert!(get(name) > 0.0, "{} {name} is 0", workload.name());
        }
        match workload {
            Workload::Paper2pl => {
                assert!(get("cc.lock_waits_per_commit") > 0.0);
                assert_eq!(get("net.fault_msgs_per_commit"), 0.0);
                assert!(get("oracle.check_ns_per_event.2PL") > 0.0);
                assert_eq!(get("oracle.check_ns_per_event.OPT"), 0.0);
            }
            Workload::Rowa3Lossy => {
                // Certification instead of a lock table.
                assert_eq!(get("cc.lock_waits_per_commit"), 0.0);
                assert_eq!(get("cc.block_share"), 0.0);
                assert!(get("net.fault_msgs_per_commit") > 0.0);
                assert!(get("oracle.check_ns_per_event.OPT") > 0.0);
            }
            Workload::OracleCheck => {
                assert!(get("oracle.check_ns_per_event.2PL") > 0.0);
                assert!(get("oracle.check_ns_per_event.OPT") > 0.0);
            }
        }
    }
}

#[test]
fn the_same_seed_gives_the_same_digest() {
    let a = perfbench::run(
        Workload::Paper2pl,
        3,
        Duration::ZERO,
        false,
        RunLength::Short,
    );
    let b = perfbench::run(
        Workload::Paper2pl,
        3,
        Duration::ZERO,
        false,
        RunLength::Short,
    );
    let c = perfbench::run(
        Workload::Paper2pl,
        4,
        Duration::ZERO,
        false,
        RunLength::Short,
    );
    assert_eq!(a.digest, b.digest);
    assert_ne!(a.digest, c.digest);
}
