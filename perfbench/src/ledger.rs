//! Counting operations and failures. An operation is one simulation run or
//! one check; it fails when it panics or returns an error.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// The operation in progress, for the stall report (see `main.rs`).
pub static CURRENT: Mutex<String> = Mutex::new(String::new());

/// Attempted and failed operations, with the reason for each failure.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Reasons, one per failed operation.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Run one operation, counting it; a panic or an `Err` is a failure and
    /// yields `None`.
    pub fn op<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        if let Ok(mut current) = CURRENT.lock() {
            what.clone_into(&mut current);
        }
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(value)) => Some(value),
            Ok(Err(reason)) => {
                self.fail(format!("{what}: {reason}"));
                None
            }
            Err(_) => {
                self.fail(format!("{what}: panicked"));
                None
            }
        }
    }

    /// One check: counted, and a failure unless `ok`.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(format!("{what}: {}", detail()));
        }
    }

    fn fail(&mut self, reason: String) {
        eprintln!("FAILED {reason}");
        self.failures.push(reason);
    }

    /// Failed operations.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}
