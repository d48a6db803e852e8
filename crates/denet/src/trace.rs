//! A preallocated ring-buffer event recorder for simulation tracing.
//!
//! The recorder is engine-agnostic: the event payload type `E` is supplied
//! by the model (the `ddbm-core` crate defines its own transaction/resource
//! event enum). The ring allocates its full capacity up front so recording
//! on the simulation hot path is a bounds-checked store plus two index
//! updates — no allocation, no branching on capacity growth — and when the
//! ring fills it overwrites the oldest events while counting how many were
//! dropped, so a trace of a long run keeps its most recent window intact.

use crate::time::SimTime;

/// A fixed-capacity ring buffer of timestamped trace events.
#[derive(Debug, Clone)]
pub struct TraceRing<E> {
    /// Event storage; grows only during [`TraceRing::new`].
    slots: Vec<(SimTime, E)>,
    /// Maximum number of retained events.
    capacity: usize,
    /// Index of the oldest retained event once the ring has wrapped.
    head: usize,
    /// Events overwritten because the ring was full.
    dropped: u64,
}

impl<E> TraceRing<E> {
    /// A ring retaining at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> TraceRing<E> {
        let capacity = capacity.max(1);
        TraceRing {
            slots: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Record one event at simulation time `at`. O(1), allocation-free once
    /// the ring has reached capacity.
    #[inline]
    pub fn push(&mut self, at: SimTime, event: E) {
        if self.slots.len() < self.capacity {
            self.slots.push((at, event));
        } else {
            self.slots[self.head] = (at, event);
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no events have been retained.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consume the ring, returning retained events in chronological
    /// (recording) order plus the overwritten-event count.
    pub fn into_ordered(mut self) -> (Vec<(SimTime, E)>, u64) {
        self.slots.rotate_left(self.head);
        (self.slots, self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_wraps_keeping_newest() {
        let mut r = TraceRing::new(4);
        for i in 0..6u64 {
            r.push(SimTime(i), i);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 2);
        let (events, dropped) = r.into_ordered();
        assert_eq!(dropped, 2);
        let times: Vec<u64> = events.iter().map(|&(t, _)| t.0).collect();
        assert_eq!(times, vec![2, 3, 4, 5]);
        let payloads: Vec<u64> = events.iter().map(|&(_, e)| e).collect();
        assert_eq!(payloads, vec![2, 3, 4, 5]);
    }

    #[test]
    fn under_capacity_keeps_everything_in_order() {
        let mut r = TraceRing::new(8);
        for i in 0..5u64 {
            r.push(SimTime(i), i * 10);
        }
        assert_eq!(r.dropped(), 0);
        assert!(!r.is_empty());
        let (events, dropped) = r.into_ordered();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 5);
        assert!(events.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut r = TraceRing::new(0);
        r.push(SimTime(1), "a");
        r.push(SimTime(2), "b");
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.into_ordered().0[0].1, "b");
    }
}
