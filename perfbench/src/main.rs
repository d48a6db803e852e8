//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name and unit, the workload's `sim_digest`, and as
//! its last line one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. Exits 0 only when every operation and check passed.

use perfbench::ledger::CURRENT;
use perfbench::metrics::{result_line, Metrics};
use perfbench::workload::{RunLength, Workload};
use std::process::ExitCode;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// How long past its time budget a run may take before it counts as
/// stalled. A simulation that never returns (a same-instant livelock, say)
/// then fails the run instead of hanging it.
const STALL_AFTER: Duration = Duration::from_secs(120);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| s >= 1)
                        .ok_or_else(|| bad("expected a whole number of at least 1"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // The benchmark runs on a worker thread so that this thread can give up
    // on a stalled simulation; returning from `main` ends the process.
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let outcome = perfbench::run(
            args.workload,
            args.seed,
            Duration::from_secs(args.seconds),
            args.trace,
            RunLength::Full,
        );
        // The receiver is gone only after a stall report.
        let _ = tx.send(outcome);
    });
    println!(
        "workload {} seed {} trace {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let outcome = match rx.recv_timeout(Duration::from_secs(args.seconds) + STALL_AFTER) {
        Ok(outcome) => {
            worker
                .join()
                .expect("the benchmark thread sent its outcome");
            outcome
        }
        Err(RecvTimeoutError::Timeout) => {
            let current = CURRENT.lock().map(|c| c.clone()).unwrap_or_default();
            eprintln!("FAILED {current}: stalled, no result after {STALL_AFTER:?} past the budget");
            println!("{}", result_line(false, 1, 1, &Metrics::default()));
            return ExitCode::FAILURE;
        }
        Err(RecvTimeoutError::Disconnected) => {
            let _ = worker.join();
            eprintln!("FAILED the benchmark thread panicked");
            println!("{}", result_line(false, 1, 1, &Metrics::default()));
            return ExitCode::FAILURE;
        }
    };
    println!("sim_digest {:#018x}", outcome.digest);
    for (name, value, unit) in outcome.metrics.entries() {
        println!("{name} {value} {unit}");
    }
    println!(
        "{}",
        result_line(
            outcome.correct(),
            outcome.ledger.attempted,
            outcome.ledger.failed(),
            &outcome.metrics
        )
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
