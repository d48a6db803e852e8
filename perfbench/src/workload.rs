//! The benchmark's workloads: named sets of simulator configurations built
//! from a seed. The simulator receives only these `Config`s.

use ddbm_config::{Algorithm, Config};
use denet::SimDuration;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's headline machine under 2PL, fault-free, single copy.
    Paper2pl,
    /// The E28 machine without crashes: OPT, 3-way ROWA, message drops and
    /// delays.
    Rowa3Lossy,
    /// Witness recording plus oracle checking for 2PL and OPT.
    OracleCheck,
}

/// How long each simulation runs: `Full` for measurement, `Short` for the
/// benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunLength {
    /// The measured run lengths.
    Full,
    /// A few hundred commits: enough to exercise every derivation.
    Short,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Paper2pl,
        Workload::Rowa3Lossy,
        Workload::OracleCheck,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper2pl => "paper_2pl",
            Workload::Rowa3Lossy => "rowa3_lossy",
            Workload::OracleCheck => "oracle_check",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True when the timed operation is witness recording plus an oracle
    /// check rather than a plain simulation run.
    pub fn checks_oracle(self) -> bool {
        self == Workload::OracleCheck
    }

    /// The workload's machines, one per algorithm it runs, before run
    /// lengths and the seed are set.
    fn machines(self) -> Vec<Config> {
        match self {
            Workload::Paper2pl => vec![Config::paper(Algorithm::TwoPhaseLocking, 8, 8, 4.0)],
            // Crash rate 0: with crashes, some seeds never finish (see
            // README.md, "Known findings").
            Workload::Rowa3Lossy => vec![ddbm_experiments::extensions::e28_config(
                Algorithm::Optimistic,
                3,
                1.0,
                0.0,
                SimDuration::from_millis(5_000),
            )],
            Workload::OracleCheck => vec![
                Config::paper(Algorithm::TwoPhaseLocking, 8, 8, 4.0),
                Config::paper(Algorithm::Optimistic, 8, 8, 4.0),
            ],
        }
    }

    /// How many of [`Workload::configs`] come first with distinct machines;
    /// the rest repeat them under the other seeds.
    pub fn machine_count(self) -> usize {
        self.machines().len()
    }

    /// The workload's configurations for `seed`: every machine under each
    /// of [`SEEDS_PER_RUN`] master seeds derived from `seed`, seed-major.
    /// Nothing else depends on the seed.
    pub fn configs(self, seed: u64, length: RunLength) -> Vec<Config> {
        let (warmup, measure) = match (self, length) {
            (_, RunLength::Short) => (50, 250),
            (Workload::Paper2pl, RunLength::Full) => (400, 4_000),
            (Workload::Rowa3Lossy, RunLength::Full) => (400, 2_000),
            (Workload::OracleCheck, RunLength::Full) => (400, 2_000),
        };
        let mut configs = Vec::new();
        for k in 0..SEEDS_PER_RUN {
            for mut c in self.machines() {
                c.control.seed = seed.wrapping_mul(SEEDS_PER_RUN).wrapping_add(k);
                c.control.warmup_commits = warmup;
                c.control.measure_commits = measure;
                configs.push(c);
            }
        }
        configs
    }
}

/// Master seeds per run. Host cost per commit follows the simulated work,
/// which varies from seed to seed by about 1% on these machines; a run
/// averages over two seeds to keep that out of its spread.
pub const SEEDS_PER_RUN: u64 = 2;
