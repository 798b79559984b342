//! A fixed reference kernel, timed next to the measured work.
//!
//! On a shared host the same run can take half again as long, or more, for
//! spells that last from milliseconds to minutes. The kernel below does the same
//! work every time (sorting, hashing, ordered maps and a heap, none of it
//! kplock code), so its wall time tracks the machine's current speed.
//! Dividing a measured time by the kernel times taken just before and after
//! it gives the time in *reference milliseconds* (`ref_ms`): one `ref_ms`
//! is one run of the kernel. Changes to kplock move `ref_ms` figures like
//! wall-clock ones, while the machine's speed swings move them far less.

use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Wall time of one run of the reference kernel, in ms.
pub fn kernel_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1D_u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut keys: Vec<u64> = (0..20_000).map(|_| next()).collect();
    keys.sort_unstable();
    let index: HashMap<u64, usize> = keys
        .iter()
        .take(5_000)
        .enumerate()
        .map(|(i, &k)| (k, i))
        .collect();
    let hits: usize = keys.iter().step_by(3).filter_map(|k| index.get(k)).sum();
    let mut tree: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    let mut heap = BinaryHeap::new();
    for i in 0..3_000u32 {
        tree.entry(next() % 4_096).or_default().push(i);
        heap.push((next() % 10_000, i));
        if i % 3 == 0 {
            if let Some((_, j)) = heap.pop() {
                tree.remove(&(u64::from(j) % 4_096));
            }
        }
    }
    black_box((hits, tree.len(), heap.len()));
    t0.elapsed().as_secs_f64() * 1e3
}

/// Converts wall time to reference time over consecutive intervals.
pub struct RefClock {
    last_kernel_ms: f64,
}

impl RefClock {
    /// Times the kernel once, opening the first interval.
    pub fn new() -> Self {
        RefClock {
            last_kernel_ms: kernel_ms(),
        }
    }

    /// Closes the current interval by timing the kernel again. Returns the
    /// wall ms that one `ref_ms` lasted in the interval: the mean of the
    /// kernel times at its two ends.
    pub fn tick(&mut self) -> f64 {
        let now = kernel_ms();
        let unit = (self.last_kernel_ms + now) / 2.0;
        self.last_kernel_ms = now;
        unit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_takes_measurable_time_and_the_clock_ticks() {
        assert!(kernel_ms() > 0.0);
        let mut clock = RefClock::new();
        assert!(clock.tick() > 0.0);
    }
}
