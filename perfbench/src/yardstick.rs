//! The yardstick: a fixed workload timed between the simulator runs, so
//! host times can be scaled to a steady host speed.
//!
//! On a shared host the same simulation of the same seed ran up to 1.7x
//! slower for minutes at a time, and the fastest of a run's repetitions
//! moved by 40% (quartile spread over the median) between runs. The
//! yardstick slows down with it: simulator time over the yardstick time
//! measured around it moved by 6%. The yardstick is benchmark code, so a
//! change to the simulator cannot change its cost.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Seconds of one yardstick pass on the host the baseline was measured on
/// (2 vCPUs, shared) when its neighbours were quiet. Scaled times read as
/// measured there.
pub const YARDSTICK_SECONDS: f64 = 0.028;

/// Slots of the pointer-chasing ring (64 KiB of `u32`).
const SLOTS: usize = 1 << 14;

/// Steps per pass.
const STEPS: u64 = 600_000;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A fixed mix of heap, hash-map and pointer-chasing work, the kinds of
/// work the simulator's hot path does. Buffers are allocated once, so
/// passes do not touch the allocator.
pub struct Yardstick {
    ring: Vec<u32>,
    heap: BinaryHeap<Reverse<u64>>,
    map: HashMap<u64, f64, BuildHasherDefault<DefaultHasher>>,
}

impl Default for Yardstick {
    fn default() -> Self {
        Self::new()
    }
}

impl Yardstick {
    /// Build the ring (a fixed random cycle) and the empty containers.
    pub fn new() -> Yardstick {
        let mut state = 0x5eed;
        let mut order: Vec<u32> = (0..SLOTS as u32).collect();
        for i in (1..SLOTS).rev() {
            order.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
        }
        let mut ring = vec![0u32; SLOTS];
        for w in order.windows(2) {
            ring[w[0] as usize] = w[1];
        }
        ring[order[SLOTS - 1] as usize] = order[0];
        Yardstick {
            ring,
            heap: BinaryHeap::with_capacity(4096),
            map: HashMap::with_capacity_and_hasher(16_384, Default::default()),
        }
    }

    /// One pass; returns its host seconds. Every pass does the same work.
    pub fn pass(&mut self) -> f64 {
        self.heap.clear();
        self.map.clear();
        let start = Instant::now();
        let mut state = 0x1989;
        let mut acc = 0.0f64;
        let mut p = 0u32;
        for i in 0..STEPS {
            p = self.ring[p as usize];
            let r = splitmix(&mut state) ^ u64::from(p);
            self.heap.push(Reverse(r >> 16));
            if self.heap.len() > 2048 {
                acc += self.heap.pop().map_or(0, |v| v.0 & 0xff) as f64;
            }
            let key = r & 0x3fff;
            if i & 1 == 0 {
                *self.map.entry(key).or_insert(0.0) += (r as f64).sqrt();
            } else if let Some(v) = self.map.remove(&(key ^ 0x155)) {
                acc += v;
            }
        }
        black_box(acc);
        start.elapsed().as_secs_f64()
    }
}
