//! Differential test of the conflict-serializability check: the linear
//! [`conflict_cycle`] (edges only between neighbouring conflicts on a page)
//! must reach the same acyclic/cyclic verdict, over the same committed
//! operations, as the all-pairs [`HistoryRecorder`] reference — on
//! hand-built histories, on random well-formed witness streams, and on real
//! simulator recordings.

#[path = "support/history_recorder.rs"]
mod history_recorder;

use ddbm_config::{Algorithm, Config, FileId, PageId, ReplicationParams, TxnId};
use ddbm_core::protocol::RunId;
use ddbm_core::{run_oracle, TestHooks, TxnPhase, WitnessEvent, WitnessReply, WitnessStream};
use ddbm_oracle::conflict_cycle;
use denet::{SimDuration, SimTime};
use history_recorder::{replay, HistoryRecorder};
use proptest::prelude::*;

fn page(n: u64) -> PageId {
    PageId {
        file: FileId(0),
        page: n,
    }
}

fn ts(at: u64, txn: u64) -> ddbm_cc::Ts {
    ddbm_cc::Ts::new(at, TxnId(txn))
}

/// A granted read of page `p` by `(t, run)`.
fn read(t: u64, run: RunId, p: u64, at: u64) -> (SimTime, WitnessEvent) {
    (
        SimTime(at),
        WitnessEvent::Access {
            txn: TxnId(t),
            run,
            node: ddbm_config::NodeId(1),
            page: page(p),
            write: false,
            reply: WitnessReply::Granted,
            initial_ts: ts(0, t),
            run_ts: ts(0, t),
        },
    )
}

/// A queued read of page `p` by `(t, run)`, granted later.
fn grant(t: u64, run: RunId, p: u64, at: u64) -> (SimTime, WitnessEvent) {
    (
        SimTime(at),
        WitnessEvent::Grant {
            txn: TxnId(t),
            run,
            node: ddbm_config::NodeId(1),
            page: page(p),
            write: false,
            initial_ts: ts(0, t),
            run_ts: ts(0, t),
        },
    )
}

/// An install of page `p` by `(t, run)`.
fn write(t: u64, run: RunId, p: u64, at: u64) -> (SimTime, WitnessEvent) {
    (
        SimTime(at),
        WitnessEvent::Install {
            txn: TxnId(t),
            run,
            node: ddbm_config::NodeId(1),
            page: page(p),
            run_ts: ts(0, t),
            commit_ts: ts(at, t),
        },
    )
}

fn commit(t: u64, run: RunId, at: u64) -> (SimTime, WitnessEvent) {
    (
        SimTime(at),
        WitnessEvent::Committed {
            txn: TxnId(t),
            run,
            run_ts: ts(0, t),
            commit_ts: ts(at, t),
        },
    )
}

fn abort(t: u64, run: RunId, at: u64) -> (SimTime, WitnessEvent) {
    (
        SimTime(at),
        WitnessEvent::Phase {
            txn: TxnId(t),
            run,
            phase: TxnPhase::WaitingRestart,
        },
    )
}

/// Both checks' results; asserts they agree on the verdict and, when the
/// history is serializable, on the number of committed operations.
fn both(stream: &WitnessStream) -> (Result<usize, Vec<TxnId>>, HistoryRecorder) {
    let linear = conflict_cycle(stream);
    let reference = replay(stream);
    let all_pairs = reference.check_conflict_serializability();
    assert_eq!(
        linear.is_ok(),
        all_pairs.is_ok(),
        "verdicts differ: linear {linear:?}, all-pairs {all_pairs:?}"
    );
    if let Ok(ops) = linear {
        assert_eq!(ops, reference.committed_ops());
    }
    (linear, reference)
}

// ----------------------------------------------------------------------
// Hand-built histories
// ----------------------------------------------------------------------

#[test]
fn serial_history_is_serializable() {
    let (linear, h) = both(&vec![
        read(1, 1, 1, 10),
        write(1, 1, 1, 20),
        commit(1, 1, 20),
        read(2, 1, 1, 30),
        write(2, 1, 1, 40),
        commit(2, 1, 40),
    ]);
    assert_eq!(linear, Ok(4));
    assert_eq!(h.committed_txns(), 2);
}

#[test]
fn classic_lost_update_cycle_detected() {
    // r1(p)@10 r2(p)@15 w1(p)@20 w2(p)@25 — a cycle T1⇄T2.
    let (linear, _) = both(&vec![
        read(1, 1, 1, 10),
        read(2, 1, 1, 15),
        write(1, 1, 1, 20),
        write(2, 1, 1, 25),
        commit(1, 1, 25),
        commit(2, 1, 25),
    ]);
    let cycle = linear.unwrap_err();
    assert!(cycle.contains(&TxnId(1)) && cycle.contains(&TxnId(2)));
}

#[test]
fn cross_page_cycle_detected() {
    // w1(a)@10 … r2(a)@20 ⇒ T1→T2;  w2(b)@30 … r1(b)@40 ⇒ T2→T1.
    let (linear, _) = both(&vec![
        write(1, 1, 1, 10),
        read(2, 1, 1, 20),
        write(2, 1, 2, 30),
        read(1, 1, 2, 40),
        commit(1, 1, 40),
        commit(2, 1, 40),
    ]);
    assert!(linear.is_err());
}

#[test]
fn aborted_runs_do_not_pollute_the_history() {
    // Run 1 of T1 would have formed a cycle; it aborts, and run 2 happens
    // entirely after T2.
    let (linear, _) = both(&vec![
        read(1, 1, 1, 10),
        read(2, 1, 1, 15),
        write(2, 1, 1, 20),
        abort(1, 1, 20),
        commit(2, 1, 20),
        read(1, 2, 1, 30),
        write(1, 2, 1, 40),
        commit(1, 2, 40),
    ]);
    assert_eq!(linear, Ok(4));
}

#[test]
fn reads_never_conflict_with_reads() {
    let mut stream: WitnessStream = [(1u64, 10u64), (2, 11), (3, 12), (1, 13), (2, 14)]
        .into_iter()
        .map(|(t, at)| read(t, 1, 1, at))
        .collect();
    stream.extend((1..=3).map(|t| commit(t, 1, 20)));
    assert_eq!(both(&stream).0, Ok(5));
}

#[test]
fn simultaneous_ops_are_ordered_by_the_stream() {
    // Same instant: w1 then w2 — one edge, no cycle.
    let (linear, _) = both(&vec![
        write(1, 1, 1, 10),
        write(2, 1, 1, 10),
        commit(1, 1, 10),
        commit(2, 1, 10),
    ]);
    assert!(linear.is_ok());
}

#[test]
fn same_instant_cycle_only_visible_through_stream_order() {
    // At t=10 the order is r1(a) r2(b) w2(a) w1(b): T1 →(a)→ T2 and
    // T2 →(b)→ T1. Treating same-instant operations as unordered would
    // miss it.
    let (linear, _) = both(&vec![
        read(1, 1, 1, 10),
        read(2, 1, 2, 10),
        write(2, 1, 1, 10),
        write(1, 1, 2, 10),
        commit(1, 1, 10),
        commit(2, 1, 10),
    ]);
    let cycle = linear.unwrap_err();
    assert!(cycle.contains(&TxnId(1)) && cycle.contains(&TxnId(2)));
}

#[test]
fn install_then_grant_at_one_instant_orders_the_read_after_the_write() {
    // A commit's install releases the lock and grants a waiter in the same
    // event: w1(a) r2(a) at t=10 is T1 → T2, and T2's earlier read of b
    // that T1 overwrote is T2 → T1.
    let (linear, _) = both(&vec![
        read(2, 1, 2, 5),
        write(1, 1, 2, 10),
        write(1, 1, 1, 10),
        grant(2, 1, 1, 10),
        commit(1, 1, 10),
        commit(2, 1, 12),
    ]);
    assert!(linear.is_err());
}

#[test]
fn three_txn_cycle_detected() {
    // T1 →(a)→ T2 →(b)→ T3 →(c)→ T1: no pair conflicts both ways.
    let (linear, _) = both(&vec![
        write(1, 1, 1, 10),
        read(2, 1, 1, 20),
        write(2, 1, 2, 30),
        read(3, 1, 2, 40),
        write(3, 1, 3, 50),
        read(1, 1, 3, 60),
        commit(1, 1, 60),
        commit(2, 1, 60),
        commit(3, 1, 60),
    ]);
    let cycle = linear.unwrap_err();
    assert_eq!(cycle.len(), 3, "expected the 3-cycle, got {cycle:?}");
}

#[test]
fn abort_discards_only_that_run() {
    let (linear, h) = both(&vec![
        write(1, 1, 1, 10),
        write(1, 1, 2, 11),
        abort(1, 1, 11),
        write(1, 2, 3, 20),
        commit(1, 2, 20),
    ]);
    assert_eq!(linear, Ok(1));
    assert_eq!(h.committed_txns(), 1);
}

#[test]
fn commit_of_a_run_without_operations_checks_nothing() {
    let (linear, h) = both(&vec![commit(9, 3, 10)]);
    assert_eq!(linear, Ok(0));
    assert_eq!(h.committed_txns(), 1);
}

#[test]
fn blocked_reads_and_uncommitted_runs_are_ignored() {
    // Counting T2's blocked read of b would add T2 → T1 against
    // r1(a) w2(a)'s T1 → T2.
    let mut blocked = read(2, 1, 2, 11);
    if let WitnessEvent::Access { reply, .. } = &mut blocked.1 {
        *reply = WitnessReply::Blocked;
    }
    let (linear, _) = both(&vec![
        read(1, 1, 1, 10),
        blocked,
        write(1, 1, 2, 12),
        write(2, 1, 1, 14),
        commit(1, 1, 14),
        commit(2, 1, 14),
    ]);
    assert_eq!(linear, Ok(3));
    // T3 never commits; counting it would close T1 → T3 → T1.
    let (linear, _) = both(&vec![
        read(1, 1, 1, 10),
        write(3, 1, 1, 12),
        write(3, 1, 2, 12),
        read(1, 1, 2, 13),
        commit(1, 1, 14),
    ]);
    assert_eq!(linear, Ok(2));
}

// ----------------------------------------------------------------------
// Random well-formed streams
// ----------------------------------------------------------------------

/// One random step: `(kind, slot, other slot, page, advance the clock)`.
type Step = (u8, usize, usize, u64, bool);

/// Interpret `steps` over four transaction slots. Each slot runs one
/// transaction at a time: it reads and installs pages, then commits (the
/// slot moves on to a fresh transaction) or aborts (it restarts under the
/// next `RunId`). Runs still in flight at the end never commit. The clock
/// often stands still, so many events share an instant.
fn stream_of(steps: &[Step]) -> WitnessStream {
    let mut slots: Vec<(u64, RunId)> = (1..=4).map(|t| (t, 1)).collect();
    let mut next_txn = 5;
    let mut now = 0;
    let mut out = Vec::new();
    for &(kind, slot, other, p, advance) in steps {
        if advance {
            now += 1;
        }
        let (t, run) = slots[slot];
        match kind {
            0..=2 => out.push(read(t, run, p, now)),
            3..=4 => out.push(grant(t, run, p, now)),
            5..=7 => out.push(write(t, run, p, now)),
            8 => {
                // Installs-then-grants at one instant.
                let (u, urun) = slots[other];
                out.push(write(t, run, p, now));
                out.push(grant(u, urun, p, now));
            }
            9..=10 => {
                out.push(commit(t, run, now));
                slots[slot] = (next_txn, 1);
                next_txn += 1;
            }
            11 => {
                out.push(abort(t, run, now));
                slots[slot].1 += 1;
            }
            _ => {
                // Noise both checks must skip: blocked reads, granted
                // write requests (writes count at install), releases.
                let mut ev = read(t, run, p, now);
                if let WitnessEvent::Access { reply, write, .. } = &mut ev.1 {
                    if p % 2 == 0 {
                        *reply = WitnessReply::Blocked;
                    } else {
                        *write = true;
                    }
                }
                out.push(ev);
                out.push((
                    SimTime(now),
                    WitnessEvent::Release {
                        txn: TxnId(t),
                        run,
                        node: ddbm_config::NodeId(1),
                        commit: false,
                    },
                ));
            }
        }
    }
    out
}

fn step() -> impl Strategy<Value = Step> {
    (0u8..14, 0usize..4, 0usize..4, 0u64..4, any::<bool>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// Interleaved runs, aborts, restarts under a new run id, and
    /// same-instant installs followed by grants: both checks agree.
    #[test]
    fn linear_graph_matches_all_pairs(steps in prop::collection::vec(step(), 0..120)) {
        let stream = stream_of(&steps);
        let linear = conflict_cycle(&stream);
        let reference = replay(&stream);
        let all_pairs = reference.check_conflict_serializability();
        prop_assert_eq!(linear.is_ok(), all_pairs.is_ok());
        if let Ok(ops) = linear {
            prop_assert_eq!(ops, reference.committed_ops());
        }
    }
}

// ----------------------------------------------------------------------
// Real recordings
// ----------------------------------------------------------------------

/// Contended recordings of every algorithm, with and without faults and
/// replication: both checks agree, and NO_DC is caught.
#[test]
fn linear_graph_matches_all_pairs_on_recordings() {
    let mut nodc_cyclic = false;
    for algorithm in [
        Algorithm::TwoPhaseLocking,
        Algorithm::TwoPhaseLockingTimeout,
        Algorithm::BasicTimestampOrdering,
        Algorithm::WoundWait,
        Algorithm::WaitDie,
        Algorithm::Optimistic,
        Algorithm::NoDataContention,
    ] {
        for (faults, replicated) in [(false, false), (true, false), (false, true)] {
            let mut c = Config::paper(algorithm, 4, 4, 0.0);
            c.workload.num_terminals = 16;
            c.workload.mean_pages_per_file = 2;
            c.workload.min_pages_per_file = 1;
            c.workload.max_pages_per_file = 3;
            c.database.pages_per_file = 30;
            c.control.warmup_commits = 0;
            c.control.measure_commits = 150;
            c.control.seed = 5;
            c.control.max_sim_time = SimDuration::from_secs_f64(2_000.0);
            if faults {
                c.faults.crash_rate = 0.05;
                c.faults.recovery = SimDuration::from_secs_f64(1.0);
                c.faults.msg_drop_prob = 0.01;
                c.faults.msg_retry = SimDuration::from_millis(50);
                c.faults.cohort_timeout = SimDuration::from_secs_f64(3.0);
            }
            if replicated {
                c.replication = ReplicationParams::rowa(3);
            }
            let rec = run_oracle(c, None, TestHooks::default()).expect("valid config");
            assert_eq!(rec.witness_overflow, 0);
            let (linear, _) = both(&rec.witness);
            if algorithm == Algorithm::NoDataContention {
                nodc_cyclic |= linear.is_err();
            }
        }
    }
    assert!(nodc_cyclic, "contended NO_DC must produce a conflict cycle");
}
