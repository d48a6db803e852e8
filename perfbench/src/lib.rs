//! The ddbm simulator's benchmark: end-to-end host-time metrics from
//! untraced runs, and per-layer metrics from a traced rerun whose recorded
//! streams are replayed into each layer's public API. See `README.md`.

pub mod e2e;
pub mod layers;
pub mod ledger;
pub mod metrics;
pub mod replay;
pub mod workload;
pub mod yardstick;

use ledger::Ledger;
use metrics::Metrics;
use std::time::Duration;
use workload::{RunLength, Workload};

/// Everything one benchmark run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub ledger: Ledger,
    /// End-to-end metrics (trace off) or per-layer metrics (trace on).
    pub metrics: Metrics,
    /// [`e2e::sim_digest`] of the workload's untraced reports.
    pub digest: u64,
}

impl Outcome {
    /// True when no operation failed.
    pub fn correct(&self) -> bool {
        self.ledger.failed() == 0
    }
}

/// Run `workload` for `seed`: measure set-up, run the timed phase for
/// `budget`, then either check observation (trace off) or derive the
/// per-layer metrics from the traced rerun (trace on).
pub fn run(
    workload: Workload,
    seed: u64,
    budget: Duration,
    trace: bool,
    length: RunLength,
) -> Outcome {
    let configs = workload.configs(seed, length);
    let mut ledger = Ledger::default();
    // Set-up is timed, and observation checked and traced, on the first
    // seed's configs.
    let first_seed = &configs[..workload.machine_count()];
    let setup_s = e2e::setup_seconds(first_seed, &mut ledger);
    let timed = e2e::timed_phase(workload, &configs, budget, &mut ledger);
    let peak_rss_mb = e2e::peak_rss_mb();
    let digest = e2e::sim_digest(&timed.reports);
    let references = first_seed.iter().zip(&timed.reports);
    let metrics = if trace {
        let mut layers = layers::Layers::default();
        for (i, (config, reference)) in references.enumerate() {
            let Some(reference) = reference else { continue };
            // The oracle workload's timed runs record the witness, so its
            // untraced base is timed separately.
            let untraced_s = (!workload.checks_oracle())
                .then(|| timed.median_secs(i))
                .flatten();
            layers.observe(config, reference, untraced_s, &mut ledger);
        }
        layers.check(&mut ledger);
        let mut m = layers.metrics();
        // The unscaled host figures behind the end-to-end metrics.
        let host = [
            ("host.raw_commits_per_s", timed.commits_per_s(false), "1/s"),
            ("host.raw_setup_s", setup_s.map(|(_, raw)| raw), "s"),
            ("host.yardstick_s", timed.yardstick_secs(), "s"),
        ];
        push_measured(&mut m, &mut ledger, host);
        m
    } else {
        for (config, reference) in references {
            if let Some(reference) = reference {
                layers::check_observation(config, reference, workload.checks_oracle(), &mut ledger);
            }
        }
        let mut m = Metrics::default();
        // Host times are scaled to the yardstick host (see `yardstick`).
        let measured = [
            ("commits_per_s", timed.commits_per_s(true), "1/s"),
            ("setup_s", setup_s.map(|(scaled, _)| scaled), "s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ];
        push_measured(&mut m, &mut ledger, measured);
        m
    };
    Outcome {
        ledger,
        metrics,
        digest,
    }
}

/// Record each measured value; one that could not be measured is a failed
/// check and is left out.
fn push_measured(
    m: &mut Metrics,
    ledger: &mut Ledger,
    values: [(&str, Option<f64>, &'static str); 3],
) {
    for (name, value, unit) in values {
        match value {
            Some(v) => m.push(name, v, unit),
            None => ledger.check(name, false, || "not measured".into()),
        }
    }
}
