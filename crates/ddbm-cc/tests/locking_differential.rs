//! Differential test of the unified lock manager: for 2PL, 2PL-T,
//! wound-wait and wait-die, with barging grants on and off,
//! [`make_manager_with`] must answer every request, commit and abort exactly
//! as the separate managers it replaced (kept under `support/`), down to the
//! order of grants, rejections and wounds, and must export the same
//! waits-for edges and lock statistics after every step.
//!
//! The generator is biased toward the paths where the conflict rules act:
//! a few transactions contend for a few pages, reads are upgraded to writes
//! on the same page, and transactions told to abort (deadlock victims,
//! wounds, deaths) do so, so releases cascade through the queues. Blocked
//! and doomed transactions also retry requests, which the simulator never
//! does but which reaches the rarest paths (see [`differential`]). A second
//! mode keeps the simulator's discipline instead, so 2PL's local detection
//! mostly answers from its search from the requester rather than the full
//! scan the retired manager runs on every block (see [`Discipline`]). Each
//! run asserts that every kind of side effect occurred often enough for the
//! comparison to mean something.

#[path = "support/twopl.rs"]
mod twopl;
#[path = "support/waitdie.rs"]
mod waitdie;
#[path = "support/woundwait.rs"]
mod woundwait;

use ddbm_cc::{make_manager_with, AccessReply, CcManager, ReleaseResponse, Ts, TxnMeta};
use ddbm_config::{Algorithm, FileId, PageId, TxnId};
use proptest::prelude::*;
use proptest::ProptestConfig;
use std::collections::{BTreeSet, HashMap};
use twopl::TwoPhaseLocking;
use waitdie::WaitDie;
use woundwait::WoundWait;

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::TwoPhaseLocking,
    Algorithm::TwoPhaseLockingTimeout,
    Algorithm::WoundWait,
    Algorithm::WaitDie,
];

/// Transaction slots and pages in play: small enough that requests collide
/// on almost every step. The pages spread over `FILES` files (see [`page`]).
const SLOTS: u64 = 6;
const PAGES: u64 = 4;
const FILES: u64 = 3;

/// The manager `make_manager_with` built before the lock-based algorithms
/// shared one.
fn retired(algorithm: Algorithm, barging: bool) -> Box<dyn CcManager> {
    match algorithm {
        Algorithm::TwoPhaseLocking if barging => Box::new(TwoPhaseLocking::new().with_barging()),
        Algorithm::TwoPhaseLocking => Box::new(TwoPhaseLocking::new()),
        Algorithm::TwoPhaseLockingTimeout if barging => {
            Box::new(TwoPhaseLocking::without_detection().with_barging())
        }
        Algorithm::TwoPhaseLockingTimeout => Box::new(TwoPhaseLocking::without_detection()),
        Algorithm::WoundWait => Box::new(WoundWait::new()),
        Algorithm::WaitDie => Box::new(WaitDie::new()),
        other => unreachable!("{other:?} is not a locking algorithm"),
    }
}

/// How a stream's transactions behave between their steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Discipline {
    /// Blocked transactions keep issuing requests, and doomed ones retry
    /// blocked requests before they abort.
    Free,
    /// As in the simulator: a transaction with a blocked request makes no
    /// move but its abort (its other steps are skipped), and a transaction
    /// told to abort aborts on its next move.
    Simulator,
}

/// One generated step. Transactions are named by slot; a slot's current
/// transaction is replaced by a fresh one when it commits and keeps its
/// identity (and initial timestamp) across aborts, as a restart does.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Access a page, reading or writing.
    Access {
        slot: u64,
        page: u64,
        write: bool,
    },
    /// Write a page the slot's transaction holds a read lock on, forcing a
    /// read → write upgrade (a plain write when it holds no read lock).
    Upgrade {
        slot: u64,
        pick: u64,
    },
    /// Re-issue one of the slot's blocked requests as a write (a plain read
    /// when nothing is blocked).
    Retry {
        slot: u64,
        pick: u64,
    },
    Commit {
        slot: u64,
    },
    Abort {
        slot: u64,
    },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..SLOTS, 0..PAGES, 0..3u64)
            .prop_map(|(slot, page, w)| Op::Access { slot, page, write: w == 0 }),
        3 => (0..SLOTS, 0..PAGES).prop_map(|(slot, pick)| Op::Upgrade { slot, pick }),
        5 => (0..SLOTS, 0..PAGES).prop_map(|(slot, pick)| Op::Retry { slot, pick }),
        2 => (0..SLOTS).prop_map(|slot| Op::Commit { slot }),
        2 => (0..SLOTS).prop_map(|slot| Op::Abort { slot }),
    ]
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(op(), 10..80)
}

/// Page key `n` as a page id, dealt round-robin over the files so that
/// pages sit in different rows of the page table and waits-for edges come
/// out in cross-file order.
fn page(n: u64) -> PageId {
    PageId {
        file: FileId((n % FILES) as usize),
        page: n / FILES,
    }
}

/// `txn`'s timestamps: scrambled against ids, with ties, so every age order
/// between slots and generations occurs.
fn meta(txn: TxnId) -> TxnMeta {
    let ts = Ts::new((txn.0 * 7919) % 13, txn);
    TxnMeta {
        id: txn,
        initial_ts: ts,
        run_ts: ts,
    }
}

/// How often each kind of outcome occurred across a run.
#[derive(Debug, Default)]
struct Tally {
    upgrades: usize,
    retries: usize,
    blocks: usize,
    release_grants: usize,
    rejections: usize,
    waiter_rejections: usize,
    must_abort: usize,
    cancel_wait_grants: usize,
}

/// The transaction-manager side of one run: which transaction each slot
/// runs, and what it holds, waits for and has been told.
#[derive(Default)]
struct Driver {
    generation: HashMap<u64, u64>,
    /// Pages each live transaction has read (granted), in grant order.
    reads: HashMap<TxnId, Vec<PageId>>,
    /// Blocked requests' write flags, to tell granted reads from writes.
    pending: HashMap<(TxnId, PageId), bool>,
    /// Transactions told to abort; their next move is the abort unless it
    /// is a retry.
    doomed: BTreeSet<TxnId>,
}

impl Driver {
    fn txn(&self, slot: u64) -> TxnId {
        TxnId(slot + SLOTS * self.generation.get(&slot).copied().unwrap_or(0))
    }

    /// `txn`'s blocked requests, in page order.
    fn blocked(&self, txn: TxnId) -> Vec<PageId> {
        let mut pages: Vec<PageId> = self
            .pending
            .keys()
            .filter(|(t, _)| *t == txn)
            .map(|(_, p)| *p)
            .collect();
        pages.sort();
        pages
    }

    fn granted(&mut self, txn: TxnId, page: PageId, write: bool) {
        if !write {
            self.reads.entry(txn).or_default().push(page);
        }
    }

    /// Apply a response's effects on other transactions: grants of blocked
    /// requests, deaths and wounds.
    fn side_effects(&mut self, effects: &ReleaseResponse, tally: &mut Tally) {
        tally.waiter_rejections += effects.rejected.len();
        tally.must_abort += effects.must_abort.len();
        for &(t, p) in &effects.granted {
            let write = self.pending.remove(&(t, p));
            self.granted(
                t,
                p,
                write.expect("only a blocked request is granted later"),
            );
        }
        self.doomed.extend(effects.rejected.iter().map(|(t, _)| *t));
        self.doomed.extend(effects.must_abort.iter().copied());
    }

    fn forget(&mut self, txn: TxnId) {
        self.reads.remove(&txn);
        self.pending.retain(|(t, _), _| *t != txn);
        self.doomed.remove(&txn);
    }
}

/// Every observable of both managers after a step.
fn assert_same_state(old: &dyn CcManager, new: &dyn CcManager, step: usize) {
    let (mut old_edges, mut new_edges) = (Vec::new(), Vec::new());
    old.waits_for_edges_into(&mut old_edges);
    new.waits_for_edges_into(&mut new_edges);
    assert_eq!(old_edges, new_edges, "waits-for edges after step {step}");
    assert_eq!(
        old.lock_stats(),
        new.lock_stats(),
        "lock stats after step {step}"
    );
    assert_eq!(old.algorithm(), new.algorithm());
}

/// Run `ops` through the retired and the unified manager side by side.
fn run(algorithm: Algorithm, barging: bool, discipline: Discipline, ops: &[Op], tally: &mut Tally) {
    let mut old = retired(algorithm, barging);
    let mut new = make_manager_with(algorithm, barging);
    let mut d = Driver::default();
    for (step, &op) in ops.iter().enumerate() {
        let (slot, release) = match op {
            Op::Access { slot, .. } | Op::Upgrade { slot, .. } | Op::Retry { slot, .. } => {
                (slot, None)
            }
            Op::Commit { slot } => (slot, Some(true)),
            Op::Abort { slot } => (slot, Some(false)),
        };
        let txn = d.txn(slot);
        let doomed = d.doomed.contains(&txn);
        let blocked = d.pending.keys().any(|(t, _)| *t == txn);
        if discipline == Discipline::Simulator && blocked && !doomed && release != Some(false) {
            continue;
        }
        // A doomed transaction's next move is its abort, unless it retries
        // in a free stream.
        let release =
            if doomed && (discipline == Discipline::Simulator || !matches!(op, Op::Retry { .. })) {
                Some(false)
            } else {
                release
            };
        if let Some(commit) = release {
            let (a, b) = if commit {
                (old.commit(txn), new.commit(txn))
            } else {
                (old.abort(txn), new.abort(txn))
            };
            assert_eq!(a, b, "step {step}: release of {txn:?}");
            d.forget(txn);
            if commit {
                *d.generation.entry(slot).or_default() += 1;
            }
            tally.release_grants += b.granted.len();
            d.side_effects(&b, tally);
            assert_same_state(old.as_ref(), new.as_ref(), step);
            continue;
        }
        let (p, write) = match op {
            Op::Access { page: p, write, .. } => (page(p), write),
            Op::Upgrade { pick, .. } => match d.reads.get(&txn) {
                Some(read) if !read.is_empty() => {
                    tally.upgrades += 1;
                    (read[pick as usize % read.len()], true)
                }
                _ => (page(pick), true),
            },
            Op::Retry { pick, .. } => match d.blocked(txn).as_slice() {
                [] => (page(pick), false),
                blocked => {
                    tally.retries += 1;
                    (blocked[pick as usize % blocked.len()], true)
                }
            },
            _ => unreachable!("releases handled above"),
        };
        let meta = meta(txn);
        let a = old.request_access(&meta, p, write);
        let b = new.request_access(&meta, p, write);
        assert_eq!(a, b, "step {step}: {txn:?} requests {p:?} (write {write})");
        match b.reply {
            AccessReply::Granted => d.granted(txn, p, write),
            AccessReply::Blocked => {
                tally.blocks += 1;
                *d.pending.entry((txn, p)).or_default() |= write;
            }
            AccessReply::Rejected => {
                tally.rejections += 1;
                tally.cancel_wait_grants += b.side_effects.granted.len();
                d.pending.remove(&(txn, p));
                d.doomed.insert(txn);
            }
        }
        d.side_effects(&b.side_effects, tally);
        assert_same_state(old.as_ref(), new.as_ref(), step);
    }
}

/// Run `cases` random streams per algorithm and barging setting, then
/// check that each algorithm's characteristic side effects were exercised:
/// common ones in at least one case in 16, rare ones in one in 256.
///
/// The rare ones are wait-die deaths at release time and grants that follow
/// a rejected requester's withdrawal. Both need a request the simulator
/// never makes (a blocked or doomed transaction re-requesting), so only
/// `Retry` reaches them. Withdrawals grant nothing under barging, where no
/// queued request is ever grantable, nor under wait-die, where a retry
/// meets the same blockers as the first request.
fn differential(cases: u32) {
    let common = (cases / 16) as usize;
    let rare = (cases / 256) as usize;
    for algorithm in ALGORITHMS {
        for barging in [false, true] {
            let mut tally = Tally::default();
            let name = format!("locking_differential {algorithm:?} barging={barging}");
            proptest::run_cases(
                &name,
                &ProptestConfig::with_cases(cases),
                &(ops(),),
                |(ops,)| run(algorithm, barging, Discipline::Free, &ops, &mut tally),
            );
            let t = &tally;
            let mut expected = vec![
                ("upgrades", t.upgrades, common),
                ("retries", t.retries, common),
                ("blocks", t.blocks, common),
                ("release grants", t.release_grants, common),
            ];
            match algorithm {
                Algorithm::TwoPhaseLocking => {
                    expected.push(("rejections", t.rejections, common));
                    expected.push(("must-abort", t.must_abort, common));
                    if !barging {
                        expected.push(("cancel-wait grants", t.cancel_wait_grants, rare));
                    }
                }
                Algorithm::WoundWait => expected.push(("must-abort", t.must_abort, common)),
                Algorithm::WaitDie => {
                    expected.push(("rejections", t.rejections, common));
                    expected.push(("waiter rejections", t.waiter_rejections, rare));
                }
                _ => {}
            }
            for (kind, count, floor) in expected {
                assert!(
                    count >= floor,
                    "{name}: only {count} {kind} in {cases} cases: {t:?}"
                );
            }
        }
    }
}

/// Run `cases` simulator-discipline streams through 2PL, with barging off
/// and on, against the retired manager's full scan on every block, and
/// check that blocks, local deadlocks and their resolutions all occurred.
fn disciplined_differential(cases: u32) {
    let common = (cases / 16) as usize;
    for barging in [false, true] {
        let mut tally = Tally::default();
        let name = format!("locking_differential simulator discipline barging={barging}");
        proptest::run_cases(
            &name,
            &ProptestConfig::with_cases(cases),
            &(ops(),),
            |(ops,)| {
                let algorithm = Algorithm::TwoPhaseLocking;
                run(algorithm, barging, Discipline::Simulator, &ops, &mut tally)
            },
        );
        let t = &tally;
        for (kind, count) in [
            ("upgrades", t.upgrades),
            ("blocks", t.blocks),
            ("release grants", t.release_grants),
            ("rejections", t.rejections),
            ("must-abort", t.must_abort),
        ] {
            assert!(
                count >= common,
                "{name}: only {count} {kind} in {cases} cases: {t:?}"
            );
        }
        assert_eq!(t.retries, 0, "{name}: a blocked transaction retried");
    }
}

#[test]
fn unified_manager_matches_retired_managers() {
    differential(2_048);
}

#[test]
#[ignore = "long run; `cargo test --release -p ddbm-cc -- --ignored`"]
fn unified_manager_matches_retired_managers_long() {
    differential(20_000);
}

#[test]
fn two_pl_matches_full_scan_under_simulator_discipline() {
    disciplined_differential(2_048);
}

#[test]
#[ignore = "long run; `cargo test --release -p ddbm-cc -- --ignored`"]
fn two_pl_matches_full_scan_under_simulator_discipline_long() {
    disciplined_differential(20_000);
}
