//! Guards on the committed benchmark baseline (`BENCH_core.json`).
//!
//! These tests read the snapshot at the repo root rather than running
//! benches, so they are cheap enough for every `cargo test` and pin the
//! *recorded* performance story: the numbers the docs cite and the CI
//! perf gate compares against.

use serde::Value;

fn after() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_core.json");
    let text = std::fs::read_to_string(path).expect("BENCH_core.json at the repo root");
    let root: Value = serde_json::from_str(&text).expect("valid JSON");
    serde::find_field(root.as_object().expect("top-level object"), "after")
        .expect("'after' snapshot")
        .clone()
}

fn median(snapshot: &Value, name: &str) -> f64 {
    let v = serde::find_field(snapshot.as_object().expect("snapshot object"), name)
        .unwrap_or_else(|| panic!("{name} missing from the 'after' snapshot"));
    match v {
        Value::UInt(n) => *n as f64,
        Value::Int(n) => *n as f64,
        Value::Float(x) => *x,
        other => panic!("{name}: expected a number, found {}", other.kind()),
    }
}

/// The replication no-op tax: `2PL-rep1` is the same 2PL run routed
/// through the replica router at factor 1, which copies each logical plan
/// into a recycled physical plan, so its whole-sim median must sit within
/// 2% of plain `2PL`. A regression here means routing has grown costly
/// again, e.g. by allocating per route.
#[test]
fn factor_one_replication_tax_is_within_two_percent() {
    let after = after();
    let plain = median(&after, "simulation_240_commits/2PL");
    let rep1 = median(&after, "simulation_240_commits/2PL-rep1");
    let tax = rep1 / plain - 1.0;
    assert!(
        tax <= 0.02,
        "2PL-rep1 is {:.1}% slower than 2PL (allowed: 2%); \
         factor-1 replica routing has grown costly",
        tax * 100.0
    );
}

/// Every whole-sim row the CI perf gate watches must be present in the
/// committed snapshot, so a rename can't silently drop a row out of the
/// gate.
#[test]
fn whole_sim_rows_are_recorded() {
    let after = after();
    for name in ["2PL", "BTO", "NO_DC", "OPT", "WW", "2PL-rep1"] {
        median(&after, &format!("simulation_240_commits/{name}"));
    }
}
