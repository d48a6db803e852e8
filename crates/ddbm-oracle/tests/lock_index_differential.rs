//! Differential test of the locking-family checker: the indexed
//! [`LockChecker`] (a release visits only the releasing transaction's
//! pages) must report exactly what the whole-node-scan reference reports,
//! on random witness streams and on real simulator recordings.

#[path = "support/scan_lock_checker.rs"]
mod scan_lock_checker;

use ddbm_cc::Ts;
use ddbm_config::{Algorithm, Config, FileId, NodeId, PageId, TxnId};
use ddbm_core::{run_oracle, TestHooks, WitnessEvent, WitnessReply};
use ddbm_oracle::{LockChecker, LockVariant, Violation};
use denet::{SimDuration, SimTime};
use proptest::prelude::*;
use scan_lock_checker::ScanLockChecker;

const VARIANTS: [LockVariant; 4] = [
    LockVariant::TwoPl,
    LockVariant::TwoPlTimeout,
    LockVariant::WoundWait,
    LockVariant::WaitDie,
];

/// Both checkers' violations for one stream.
fn both(
    variant: LockVariant,
    barging: bool,
    stream: &[(SimTime, WitnessEvent)],
) -> (Vec<Violation>, Vec<Violation>) {
    let mut indexed = LockChecker::new(variant, barging);
    let mut scan = ScanLockChecker::new(variant, barging);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for &(at, ref ev) in stream {
        indexed.observe(at, ev, &mut a);
        scan.observe(at, ev, &mut b);
    }
    (a, b)
}

/// One random locking-family event over a few transactions, nodes and
/// pages, so that holders, waiters and releases collide often.
/// `(kind, txn, other txn, node, page, write, ts time, other ts time)`.
type RawEvent = (u8, u64, u64, usize, u64, bool, u64, u64);

fn event(raw: RawEvent) -> WitnessEvent {
    let (kind, txn, other, node, page, write, time, other_time) = raw;
    let txn_id = TxnId(txn);
    let node = NodeId(node);
    let page = PageId {
        file: FileId(0),
        page,
    };
    let ts = Ts::new(time, txn_id);
    let other_ts = Ts::new(other_time, TxnId(other));
    let access = |reply| WitnessEvent::Access {
        txn: txn_id,
        run: 1,
        node,
        page,
        write,
        reply,
        initial_ts: ts,
        run_ts: ts,
    };
    match kind {
        0..=3 => access(WitnessReply::Granted),
        4..=5 => access(WitnessReply::Blocked),
        6 => access(WitnessReply::Rejected),
        7..=8 => WitnessEvent::Grant {
            txn: txn_id,
            run: 1,
            node,
            page,
            write,
            initial_ts: ts,
            run_ts: ts,
        },
        9 => WitnessEvent::Reject {
            txn: txn_id,
            run: 1,
            node,
            page,
        },
        10 => WitnessEvent::Wound {
            victim: txn_id,
            victim_initial_ts: ts,
            requester: Some(TxnId(other)),
            requester_initial_ts: Some(other_ts),
            node,
        },
        11 => WitnessEvent::Wound {
            victim: txn_id,
            victim_initial_ts: ts,
            requester: None,
            requester_initial_ts: None,
            node,
        },
        12..=14 => WitnessEvent::Release {
            txn: txn_id,
            run: 1,
            node,
            commit: write,
        },
        _ => WitnessEvent::NodeCrash { node },
    }
}

fn raw_event() -> impl Strategy<Value = RawEvent> {
    (
        0u8..16,
        1u64..7,
        1u64..7,
        0usize..3,
        0u64..5,
        any::<bool>(),
        0u64..6,
        0u64..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Random streams, mostly violating: non-FIFO and conflicting grants,
    /// grants with nothing queued, duplicate releases, wounds and rejects
    /// with and without a cause, and node crashes.
    #[test]
    fn indexed_checker_matches_whole_node_scan(
        variant_idx in 0usize..4,
        barging in any::<bool>(),
        raw in prop::collection::vec(raw_event(), 0..160),
    ) {
        let variant = VARIANTS[variant_idx];
        let stream: Vec<(SimTime, WitnessEvent)> = raw
            .into_iter()
            .enumerate()
            .map(|(i, r)| (SimTime(i as u64), event(r)))
            .collect();
        let (indexed, scan) = both(variant, barging, &stream);
        prop_assert_eq!(indexed, scan);
    }
}

/// Real recordings of every locking variant, barging on and off, with and
/// without crashes: the two checkers agree on each.
#[test]
fn indexed_checker_matches_whole_node_scan_on_recordings() {
    for algorithm in [
        Algorithm::TwoPhaseLocking,
        Algorithm::TwoPhaseLockingTimeout,
        Algorithm::WoundWait,
        Algorithm::WaitDie,
    ] {
        let variant = LockVariant::of(algorithm).expect("locking algorithm");
        for (barging, crashes) in [(false, false), (true, false), (false, true)] {
            let mut c = Config::paper(algorithm, 4, 4, 0.0);
            c.workload.num_terminals = 16;
            c.workload.mean_pages_per_file = 2;
            c.workload.min_pages_per_file = 1;
            c.workload.max_pages_per_file = 3;
            c.database.pages_per_file = 30;
            c.control.warmup_commits = 0;
            c.control.measure_commits = 120;
            c.control.seed = 11;
            c.control.max_sim_time = SimDuration::from_secs_f64(2_000.0);
            c.system.lock_barging = barging;
            if crashes {
                c.faults.crash_rate = 0.05;
                c.faults.recovery = SimDuration::from_secs_f64(1.0);
                c.faults.cohort_timeout = SimDuration::from_secs_f64(3.0);
            }
            let rec = run_oracle(c, None, TestHooks::default()).expect("valid config");
            assert_eq!(rec.witness_overflow, 0);
            let (indexed, scan) = both(variant, barging, &rec.witness);
            assert_eq!(
                indexed, scan,
                "{algorithm} barging={barging} crashes={crashes}"
            );
        }
    }
}
