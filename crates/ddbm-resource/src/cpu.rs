//! The node CPU model (paper §3.4).
//!
//! The CPU serves two classes of work:
//!
//! * **message work** — protocol processing for sending/receiving messages.
//!   Served FIFO, one job at a time, at *preemptive priority* over all other
//!   work ("with message processing being higher priority").
//! * **ordinary work** — page processing, process startup, update initiation,
//!   CC request processing. Served **processor sharing**: when `n` jobs are
//!   present each progresses at `rate / n`.
//!
//! # Virtual-time (fluid) accounting
//!
//! The processor-sharing class is tracked in *virtual time*: `v` is the
//! cumulative work a hypothetical always-present job would have received
//! (in instructions), advancing at `rate / n` per real second while `n`
//! shared jobs are live and frozen while a message preempts them. A job
//! arriving with `w` instructions is stamped with a finish tag
//! `f = v + w` that never changes afterwards, and it completes exactly when
//! `v` reaches `f`. The pending tags sit in a small min-heap ordered by
//! `(f, arrival seq)`, so:
//!
//! * [`Cpu::advance`] to an instant with no completions is an O(1) clock
//!   update (one add to `v`) — no per-job work, no rescan;
//! * [`Cpu::next_completion`] is O(1): the next finisher is the min finish
//!   tag, at `last + (f_min − v)·n / rate`;
//! * completing one job is one heap pop, O(log n).
//!
//! The previous implementation rescanned the whole shared-job vector on
//! every state change (O(n) per interaction, with repeated re-prediction of
//! completion instants drifting by a nanosecond per rescan thanks to ceil
//! rounding). The virtual-time form makes every prediction *exact*: calling
//! `advance` at the instant `next_completion` returned recomputes the same
//! `(f_min − v)·n` product and takes the exact-completion path, so
//! prediction and completion cannot drift apart.
//!
//! `v` is rebased to zero whenever the shared class empties, which bounds
//! floating-point magnitude growth to one busy period.
//!
//! The model is driven by the owner: every interaction first calls
//! [`Cpu::advance`] to apply progress up to the current instant, and after
//! any state change the owner asks [`Cpu::next_completion`] and keeps one
//! calendar event at that instant in a prediction slot, overwriting it when
//! the prediction moves, so stale completions never fire.

use denet::{BusyTracker, SimDuration, SimTime, NANOS_PER_SEC};
use std::collections::VecDeque;

/// Work remaining below this many instructions counts as finished (guards
/// against floating-point residue; far below one instruction).
const EPS_INSTR: f64 = 1e-6;

#[derive(Debug)]
struct Job<T> {
    tag: T,
    remaining: f64, // instructions
}

/// A shared-class job: its tag plus the sequence number that validates heap
/// entries pointing at this slot (slots are reused; stale heap entries carry
/// an older sequence number and are skipped).
#[derive(Debug)]
struct SharedSlot<T> {
    tag: T,
    seq: u64,
}

/// One entry of the intra-CPU finish-tag heap.
#[derive(Debug, Clone, Copy)]
struct PsEntry {
    /// Virtual finish tag `v(arrival) + instructions`.
    finish: f64,
    /// Arrival sequence: FIFO tie-break for equal tags, and slot validation.
    seq: u64,
    /// Index into `Cpu::slots`.
    slot: u32,
}

impl PsEntry {
    /// Min-heap order: earliest finish tag first, FIFO within a tag.
    #[inline]
    fn before(&self, other: &PsEntry) -> bool {
        self.finish < other.finish || (self.finish == other.finish && self.seq < other.seq)
    }
}

/// A single-CPU node processor.
#[derive(Debug)]
pub struct Cpu<T> {
    /// Instruction rate, instructions per second.
    rate: f64,
    /// Nanoseconds per instruction (`1e9 / rate`), precomputed so the
    /// service-time conversion on every prediction and advance is a single
    /// multiply instead of a divide.
    ns_per_instr: f64,
    messages: VecDeque<Job<T>>,
    /// Cumulative virtual work per unit share, in instructions.
    v: f64,
    /// Shared-job payloads; heap entries point into this slab.
    slots: Vec<Option<SharedSlot<T>>>,
    /// Vacated slab positions available for reuse.
    free: Vec<u32>,
    /// Min-heap of pending finish tags. May contain stale entries for
    /// cancelled jobs; they are skipped lazily (validated against `slots`).
    heap: Vec<PsEntry>,
    /// Live shared jobs (`n` in the fluid model); excludes cancelled ones.
    live: usize,
    next_seq: u64,
    last: SimTime,
    busy: BusyTracker,
}

impl<T> Cpu<T> {
    /// A CPU executing `rate` instructions per second.
    pub fn new(rate: f64) -> Cpu<T> {
        assert!(rate > 0.0 && rate.is_finite());
        Cpu {
            rate,
            ns_per_instr: NANOS_PER_SEC as f64 / rate,
            messages: VecDeque::new(),
            v: 0.0,
            slots: Vec::new(),
            free: Vec::new(),
            heap: Vec::new(),
            live: 0,
            next_seq: 0,
            last: SimTime::ZERO,
            busy: BusyTracker::new(SimTime::ZERO),
        }
    }

    #[inline]
    /// `is_idle`.
    pub fn is_idle(&self) -> bool {
        self.messages.is_empty() && self.live == 0
    }

    /// True when the accounting clock already sits at `now`: an `advance`
    /// to `now` would be a no-op, so callers can skip completion-buffer
    /// setup entirely. Same-instant interactions dominate event cascades.
    #[inline]
    pub fn is_current(&self, now: SimTime) -> bool {
        self.last == now
    }

    /// Fraction of time busy since the last utilization reset.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.busy.utilization(now)
    }

    /// Restart the utilization window (end of warmup).
    pub fn reset_utilization(&mut self, now: SimTime) {
        self.busy.reset(now);
    }

    /// Apply progress from the last interaction up to `now` and return the
    /// tags of all jobs that completed, in completion order.
    ///
    /// Allocates a fresh `Vec`; the simulator's hot path uses
    /// [`advance_into`](Self::advance_into) with a reused scratch buffer.
    pub fn advance(&mut self, now: SimTime) -> Vec<T> {
        let mut done = Vec::new();
        self.advance_into(now, &mut done);
        done
    }

    /// Like [`advance`](Self::advance), but appends the completed tags to
    /// `done` instead of allocating. Completion order is identical.
    pub fn advance_into(&mut self, now: SimTime, done: &mut Vec<T>) {
        debug_assert!(now >= self.last, "CPU advanced backwards");
        if now == self.last {
            // Zero elapsed time: no fluid progress, no message service, and
            // any sub-EPS residue was already swept by the call that moved
            // `last` here. The owner touches the CPU before every submit, so
            // this no-op path is the most common call by far.
            return;
        }
        let mut t = self.last; // current position within (last, now]
        loop {
            if let Some(head) = self.messages.front() {
                // Message service: head of queue, full rate, preemptive.
                // Virtual time is frozen while a message holds the CPU.
                let need = duration_for(head.remaining, self.ns_per_instr);
                if t + need <= now {
                    t += need;
                    let job = self.messages.pop_front().expect("head exists");
                    done.push(job.tag);
                } else {
                    // Partial progress. Scheduled completion instants are
                    // rounded *up* to whole nanoseconds, so an intermediate
                    // advance can overshoot the true finish point by a
                    // sub-nanosecond sliver — sweep out anything finished or
                    // the job would linger forever with ~zero work left.
                    let served = now.since(t).as_secs_f64() * self.rate;
                    let head = self.messages.front_mut().expect("head exists");
                    head.remaining -= served;
                    if head.remaining <= EPS_INSTR {
                        let job = self.messages.pop_front().expect("head exists");
                        done.push(job.tag);
                    }
                    // The message (or its successor) holds the CPU past `now`;
                    // the shared class is preempted and sees zero progress.
                    t = now;
                    break;
                }
            } else if self.live > 0 {
                let n = self.live as f64;
                let top = self.heap[0];
                debug_assert!(self.entry_live(&top), "heap top must be live");
                let need = duration_for((top.finish - self.v).max(0.0) * n, self.ns_per_instr);
                if t + need <= now {
                    // Exact completion: the same product that predicted this
                    // instant lands virtual time exactly on the finish tag.
                    t += need;
                    self.v = top.finish;
                    done.push(self.complete_top());
                } else {
                    // No completion in (t, now]: one O(1) fluid update.
                    self.v += now.since(t).as_secs_f64() * self.rate / n;
                    t = now;
                    // Ceil-rounded instants can overshoot a finish tag by a
                    // sub-nanosecond sliver; sweep tags the fluid already
                    // passed (the EPS companion to the message-class sweep).
                    while self.live > 0 && self.heap[0].finish <= self.v + EPS_INSTR {
                        done.push(self.complete_top());
                    }
                    break;
                }
            } else {
                break; // idle for the rest of the interval
            }
            if t >= now && self.messages.is_empty() && self.live == 0 {
                break;
            }
        }
        self.last = now;
        if self.is_idle() {
            // The CPU went idle at `t` (the last completion), not at `now`;
            // charging the gap as busy would inflate utilization.
            self.busy.set_busy(t, false);
        } else {
            self.busy.set_busy(now, true);
        }
    }

    /// Pop the (live) top of the finish-tag heap, free its slot, and return
    /// its tag. Rebases virtual time when the shared class empties.
    fn complete_top(&mut self) -> T {
        let top = self.pop_heap();
        let slot = self.slots[top.slot as usize].take().expect("live entry");
        debug_assert_eq!(slot.seq, top.seq);
        self.free.push(top.slot);
        self.live -= 1;
        if self.live == 0 {
            // Empty shared class: reset the fluid clock so `v` (and the
            // f64 error of tags derived from it) stays bounded by one busy
            // period rather than growing for the whole run.
            self.v = 0.0;
            self.heap.clear();
        } else {
            self.skip_dead_entries();
        }
        slot.tag
    }

    /// True if a heap entry still refers to a live job (its slot holds the
    /// same sequence number).
    #[inline]
    fn entry_live(&self, e: &PsEntry) -> bool {
        self.slots[e.slot as usize]
            .as_ref()
            .is_some_and(|s| s.seq == e.seq)
    }

    /// Drop stale heap tops so `heap[0]`, when `live > 0`, is always a live
    /// entry (the invariant `next_completion` and `advance` rely on).
    fn skip_dead_entries(&mut self) {
        while let Some(&top) = self.heap.first() {
            if self.entry_live(&top) {
                break;
            }
            self.pop_heap();
        }
    }

    /// Submit an ordinary (processor-shared) job of `instructions`.
    /// Zero-instruction jobs complete immediately and are returned.
    #[must_use = "a zero-cost job completes immediately and must be handled"]
    pub fn submit_shared(&mut self, now: SimTime, tag: T, instructions: f64) -> Option<T> {
        debug_assert!(instructions >= 0.0);
        if instructions <= EPS_INSTR {
            return Some(tag);
        }
        self.sync_clock(now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(SharedSlot { tag, seq });
                s
            }
            None => {
                self.slots.push(Some(SharedSlot { tag, seq }));
                (self.slots.len() - 1) as u32
            }
        };
        self.push_heap(PsEntry {
            finish: self.v + instructions,
            seq,
            slot,
        });
        self.live += 1;
        self.busy.set_busy(now, true);
        None
    }

    /// Submit a message-class job of `instructions` (FIFO, priority).
    /// Zero-instruction jobs complete immediately and are returned.
    #[must_use = "a zero-cost job completes immediately and must be handled"]
    pub fn submit_message(&mut self, now: SimTime, tag: T, instructions: f64) -> Option<T> {
        debug_assert!(instructions >= 0.0);
        if instructions <= EPS_INSTR {
            return Some(tag);
        }
        self.sync_clock(now);
        self.messages.push_back(Job {
            tag,
            remaining: instructions,
        });
        self.busy.set_busy(now, true);
        None
    }

    /// Submissions must not outrun the accounting clock: an idle CPU can
    /// jump forward (nothing is in flight), a busy one must have been
    /// advanced to `now` by the caller first.
    fn sync_clock(&mut self, now: SimTime) {
        if self.is_idle() {
            debug_assert!(now >= self.last);
            self.last = now;
        } else {
            debug_assert!(
                now == self.last,
                "submit to a busy CPU without advancing it first"
            );
        }
    }

    /// Remove all processor-shared jobs matching `pred` (e.g. the work of an
    /// aborted cohort) and return their tags. Message jobs are never
    /// cancelled: protocol processing always runs to completion.
    ///
    /// Removal is O(1) per removed job (slot freed, heap entry tombstoned
    /// and skipped lazily); the fluid share of the survivors adjusts
    /// automatically because `live` shrinks.
    pub fn cancel_shared_where(&mut self, pred: impl Fn(&T) -> bool) -> Vec<T> {
        let mut removed = Vec::new();
        for i in 0..self.slots.len() {
            if self.slots[i].as_ref().is_some_and(|s| pred(&s.tag)) {
                let slot = self.slots[i].take().expect("checked");
                self.free.push(i as u32);
                self.live -= 1;
                removed.push(slot.tag);
            }
        }
        if !removed.is_empty() {
            if self.live == 0 {
                self.v = 0.0;
                self.heap.clear();
            } else {
                self.skip_dead_entries();
            }
            self.busy.set_busy(self.last, !self.is_idle());
        }
        removed
    }

    /// Crash support: destroy every queued and in-flight job, message class
    /// included, and return how many were dropped. Unlike
    /// [`cancel_shared_where`](Self::cancel_shared_where), this models the
    /// processor itself dying mid-instruction — protocol processing does NOT
    /// run to completion. The accounting clock jumps to `now` and the CPU is
    /// idle afterwards.
    pub fn clear(&mut self, now: SimTime) -> usize {
        debug_assert!(now >= self.last, "CPU cleared in the past");
        let dropped = self.messages.len() + self.live;
        self.messages.clear();
        self.slots.clear();
        self.free.clear();
        self.heap.clear();
        self.live = 0;
        self.v = 0.0;
        self.last = now;
        self.busy.set_busy(now, false);
        dropped
    }

    /// The instant the next job will complete if no further state changes
    /// occur, or `None` when idle. Call immediately after `advance`.
    ///
    /// Exact: advancing to the returned instant recomputes the identical
    /// service requirement and completes the predicted job there.
    pub fn next_completion(&self) -> Option<SimTime> {
        if let Some(head) = self.messages.front() {
            return Some(self.last + duration_for(head.remaining, self.ns_per_instr));
        }
        if self.live == 0 {
            return None;
        }
        let top = &self.heap[0];
        debug_assert!(self.entry_live(top), "heap top must be live");
        let n = self.live as f64;
        Some(self.last + duration_for((top.finish - self.v).max(0.0) * n, self.ns_per_instr))
    }

    // --- intra-CPU finish-tag heap (binary, hole-free: entries are 24-byte
    // `Copy`, so plain writes are cheap) ---

    fn push_heap(&mut self, entry: PsEntry) {
        let mut i = self.heap.len();
        self.heap.push(entry);
        while i > 0 {
            let parent = (i - 1) / 2;
            if !entry.before(&self.heap[parent]) {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = entry;
    }

    fn pop_heap(&mut self) -> PsEntry {
        let top = self.heap[0];
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            let len = self.heap.len();
            let mut i = 0;
            loop {
                let l = 2 * i + 1;
                if l >= len {
                    break;
                }
                let r = l + 1;
                let child = if r < len && self.heap[r].before(&self.heap[l]) {
                    r
                } else {
                    l
                };
                if !self.heap[child].before(&last) {
                    break;
                }
                self.heap[i] = self.heap[child];
                i = child;
            }
            self.heap[i] = last;
        }
        top
    }
}

/// Time to execute `instructions` at `ns_per_instr` nanoseconds each,
/// rounded *up* to the next nanosecond so the job is certain to have
/// finished at the returned instant. The caller passes the precomputed
/// reciprocal rate; prediction and advance use the same formula, which is
/// what keeps completions exact.
#[inline]
fn duration_for(instructions: f64, ns_per_instr: f64) -> SimDuration {
    let ns = instructions.max(0.0) * ns_per_instr;
    // Integer ceil: `f64::ceil` is a libm call on baseline x86-64, and this
    // sits on the prediction path of every CPU interaction. Identical
    // results: `floor` truncates, and one is added exactly when truncation
    // actually dropped a fraction (saturating casts make the overflow edge
    // agree too).
    let floor = ns as u64;
    SimDuration(floor + u64::from((floor as f64) < ns))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(cpu: &mut Cpu<u32>, upto: SimTime) -> Vec<u32> {
        // Step through completions exactly as the simulator's event loop does.
        let mut done = Vec::new();
        loop {
            match cpu.next_completion() {
                Some(t) if t <= upto => done.extend(cpu.advance(t)),
                _ => break,
            }
        }
        done.extend(cpu.advance(upto));
        done
    }

    #[test]
    fn single_job_runs_at_full_rate() {
        let mut cpu = Cpu::new(1e6); // 1 MIPS
        assert!(cpu.submit_shared(SimTime::ZERO, 1, 8_000.0).is_none());
        // 8K instructions at 1 MIPS = 8 ms.
        assert_eq!(
            cpu.next_completion(),
            Some(SimTime::ZERO + SimDuration::from_millis(8))
        );
        let done = cpu.advance(SimTime::ZERO + SimDuration::from_millis(8));
        assert_eq!(done, vec![1]);
        assert!(cpu.is_idle());
    }

    #[test]
    fn zero_cost_jobs_complete_inline() {
        let mut cpu = Cpu::new(1e6);
        assert_eq!(cpu.submit_shared(SimTime::ZERO, 7, 0.0), Some(7));
        assert_eq!(cpu.submit_message(SimTime::ZERO, 8, 0.0), Some(8));
        assert!(cpu.is_idle());
    }

    #[test]
    fn processor_sharing_halves_progress() {
        let mut cpu = Cpu::new(1e6);
        assert!(cpu.submit_shared(SimTime::ZERO, 1, 1_000.0).is_none());
        assert!(cpu.submit_shared(SimTime::ZERO, 2, 1_000.0).is_none());
        // Two equal jobs sharing 1 MIPS: both finish at 2 ms.
        let done = drain(&mut cpu, SimTime::ZERO + SimDuration::from_millis(2));
        assert_eq!(done, vec![1, 2]);
    }

    #[test]
    fn unequal_ps_jobs_finish_in_remaining_order() {
        let mut cpu = Cpu::new(1e6);
        assert!(cpu.submit_shared(SimTime::ZERO, 1, 1_000.0).is_none());
        assert!(cpu.submit_shared(SimTime::ZERO, 2, 3_000.0).is_none());
        // Job 1 needs 1K shared two ways: done at 2 ms. Then job 2 has 2K
        // left alone: done at 4 ms.
        let t1 = cpu.next_completion().unwrap();
        assert_eq!(t1, SimTime(2_000_000));
        assert_eq!(cpu.advance(t1), vec![1]);
        let t2 = cpu.next_completion().unwrap();
        assert_eq!(t2, SimTime(4_000_000));
        assert_eq!(cpu.advance(t2), vec![2]);
    }

    #[test]
    fn messages_preempt_shared_work() {
        let mut cpu = Cpu::new(1e6);
        assert!(cpu.submit_shared(SimTime::ZERO, 1, 2_000.0).is_none());
        // At 1 ms, half done; a 1K message arrives and takes the CPU.
        assert_eq!(cpu.advance(SimTime(1_000_000)), Vec::<u32>::new());
        assert!(cpu
            .submit_message(SimTime(1_000_000), 100, 1_000.0)
            .is_none());
        // Message completes at 2 ms; shared job then needs its last 1K → 3 ms.
        let t = cpu.next_completion().unwrap();
        assert_eq!(t, SimTime(2_000_000));
        assert_eq!(cpu.advance(t), vec![100]);
        let t = cpu.next_completion().unwrap();
        assert_eq!(t, SimTime(3_000_000));
        assert_eq!(cpu.advance(t), vec![1]);
    }

    #[test]
    fn messages_serve_fifo() {
        let mut cpu = Cpu::new(1e6);
        assert!(cpu.submit_message(SimTime::ZERO, 1, 500.0).is_none());
        assert!(cpu.submit_message(SimTime::ZERO, 2, 500.0).is_none());
        assert!(cpu.submit_message(SimTime::ZERO, 3, 500.0).is_none());
        let done = drain(&mut cpu, SimTime(1_500_000));
        assert_eq!(done, vec![1, 2, 3]);
    }

    #[test]
    fn equal_finish_tags_complete_fifo() {
        let mut cpu = Cpu::new(1e6);
        // Four identical jobs submitted in order at the same instant: they
        // all carry the same finish tag and must complete in arrival order.
        for i in 1..=4u32 {
            assert!(cpu.submit_shared(SimTime::ZERO, i, 1_000.0).is_none());
        }
        let t = cpu.next_completion().unwrap();
        assert_eq!(t, SimTime(4_000_000));
        assert_eq!(cpu.advance(t), vec![1, 2, 3, 4]);
    }

    #[test]
    fn utilization_counts_busy_time_only() {
        let mut cpu = Cpu::new(1e6);
        assert!(cpu.submit_shared(SimTime::ZERO, 1, 1_000.0).is_none());
        let t = cpu.next_completion().unwrap();
        cpu.advance(t); // busy for 1 ms
        cpu.advance(SimTime(4_000_000)); // idle for 3 ms
        let u = cpu.utilization(SimTime(4_000_000));
        assert!((u - 0.25).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    fn utilization_reset_mid_run() {
        let mut cpu = Cpu::new(1e6);
        assert!(cpu.submit_shared(SimTime::ZERO, 1, 10_000.0).is_none());
        cpu.advance(SimTime(5_000_000));
        cpu.reset_utilization(SimTime(5_000_000));
        let t = cpu.next_completion().unwrap();
        assert_eq!(t, SimTime(10_000_000));
        cpu.advance(t);
        assert!((cpu.utilization(SimTime(10_000_000)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cancel_removes_only_matching_jobs() {
        let mut cpu = Cpu::new(1e6);
        assert!(cpu.submit_shared(SimTime::ZERO, 1, 1_000.0).is_none());
        assert!(cpu.submit_shared(SimTime::ZERO, 2, 1_000.0).is_none());
        assert!(cpu.submit_shared(SimTime::ZERO, 3, 1_000.0).is_none());
        let removed = cpu.cancel_shared_where(|t| *t == 2);
        assert_eq!(removed, vec![2]);
        // Remaining two share the CPU from t=0: both done at 2 ms.
        let done = drain(&mut cpu, SimTime(2_000_000));
        assert_eq!(done, vec![1, 3]);
    }

    #[test]
    fn cancel_of_the_imminent_finisher_reroutes_the_prediction() {
        let mut cpu = Cpu::new(1e6);
        assert!(cpu.submit_shared(SimTime::ZERO, 1, 1_000.0).is_none());
        assert!(cpu.submit_shared(SimTime::ZERO, 2, 5_000.0).is_none());
        // Job 1 would finish first (at 2 ms); cancel it. Job 2 then owns the
        // whole CPU from t=0: done at 5 ms.
        assert_eq!(cpu.cancel_shared_where(|t| *t == 1), vec![1]);
        assert_eq!(cpu.next_completion(), Some(SimTime(5_000_000)));
        assert_eq!(cpu.advance(SimTime(5_000_000)), vec![2]);
        assert!(cpu.is_idle());
    }

    #[test]
    fn slots_are_reused_after_completion_and_cancel() {
        let mut cpu = Cpu::new(1e6);
        for round in 0..100u32 {
            assert!(cpu.submit_shared(cpu.last, round, 1_000.0).is_none());
            if round % 2 == 0 {
                let t = cpu.next_completion().unwrap();
                assert_eq!(cpu.advance(t), vec![round]);
            } else {
                assert_eq!(cpu.cancel_shared_where(|_| true), vec![round]);
            }
        }
        assert!(cpu.is_idle());
        assert!(
            cpu.slots.len() <= 2,
            "slab grew to {} for 1 concurrent job",
            cpu.slots.len()
        );
    }

    #[test]
    fn clear_drops_messages_and_shared_work() {
        let mut cpu = Cpu::new(1e6);
        assert!(cpu.submit_shared(SimTime::ZERO, 1, 5_000.0).is_none());
        assert!(cpu.submit_message(SimTime::ZERO, 2, 1_000.0).is_none());
        assert!(cpu.submit_message(SimTime::ZERO, 3, 1_000.0).is_none());
        cpu.advance(SimTime(500_000));
        assert_eq!(cpu.clear(SimTime(500_000)), 3);
        assert!(cpu.is_idle());
        assert_eq!(cpu.next_completion(), None);
        // The CPU is usable again after the crash.
        assert!(cpu.submit_shared(SimTime(600_000), 4, 1_000.0).is_none());
        assert_eq!(cpu.next_completion(), Some(SimTime(1_600_000)));
        assert_eq!(cpu.advance(SimTime(1_600_000)), vec![4]);
    }

    #[test]
    fn work_is_conserved_under_interleaving() {
        // Total busy time must equal total instructions / rate regardless of
        // how the work is interleaved.
        let mut cpu = Cpu::new(2e6);
        let mut total_instr = 0.0;
        let mut t = SimTime::ZERO;
        let mut done = 0usize;
        for i in 0..20u32 {
            let instr = 500.0 * (i % 5 + 1) as f64;
            total_instr += instr;
            if i % 3 == 0 {
                done += usize::from(cpu.submit_message(t, i, instr).is_some());
            } else {
                done += usize::from(cpu.submit_shared(t, i, instr).is_some());
            }
            t += SimDuration::from_micros(137);
            done += cpu.advance(t).len();
        }
        while let Some(next) = cpu.next_completion() {
            done += cpu.advance(next).len();
        }
        assert_eq!(done, 20);
        let now = cpu.last;
        let busy = cpu.busy.busy_time(now).as_secs_f64();
        let expect = total_instr / 2e6;
        assert!(
            (busy - expect).abs() < 1e-6,
            "busy {busy} vs expected {expect}"
        );
    }
}
