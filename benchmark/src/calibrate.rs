//! The calibrated clock.
//!
//! The reference host is a 2-vCPU virtual machine whose speed moves with its
//! neighbours: the same TPC-H pass takes 0.73 s in a quiet minute and 1.3 s
//! in a busy one, for minutes at a time, and ±7% from run to run in a quiet
//! hour. Two runs of the same commit can differ by more than any bound worth
//! gating on, and no estimator inside a run repairs that, because a whole
//! run can sit in one phase.
//!
//! So every run measures a *host factor* next to its wall-clock times: a
//! fixed kernel owned by the harness — a small hash join over memory it
//! allocates once, bound by memory latency like the engine — is sampled
//! between the timed units of the run (passes, cycles, set-ups; before and
//! after the serving window), always while nothing else runs, and the factor
//! is the median sample over [`NOMINAL_KERNEL_SECS`]. Every end-to-end *time* is the median of its
//! wall-clock samples divided by that one factor: seconds as they would read
//! on the reference host in its quiet state. Ratios of two things measured
//! interleaved in one run (`tag_over_row`) need no factor and get none.
//!
//! One factor per run, not one per unit: two 12 ms samples around a 0.8 s
//! pass say little about that pass (measured, per-unit factors moved ±8%
//! within a quiet run and made ratios twice as noisy), while the median of
//! the run's samples tracks the run's wall clock (runs of one seed,
//! `tpch_seq`: wall-clock `stmts_per_s` 13% apart, calibrated 4%; the README
//! has every workload, and the one where it does not help).
//!
//! The kernel lives here, in the benchmark, and not in the program: a change
//! to the engine cannot speed the yardstick up with it. It is never sampled
//! while a client or an engine thread is working, so the program's own
//! memory traffic cannot slow it down either.

use crate::stats::median;
use std::time::Instant;

/// Kernel time on the reference host in its quiet state. A constant, so a
/// factor means the same thing in every run; on another host it only
/// rescales every calibrated time by the same amount.
pub const NOMINAL_KERNEL_SECS: f64 = 0.012;

/// Slots of the open-addressing table: 16 MiB of `(key, row)` pairs, well
/// past the caches, like the engine's working set.
const SLOTS: usize = 1 << 20;
const BUILD_ROWS: usize = 300_000;
const PROBE_ROWS: usize = 600_000;
const KEY_SPACE: u64 = 2_000_000;
const EMPTY: u64 = u64::MAX;

pub struct Host {
    build: Vec<u64>,
    probe: Vec<u64>,
    /// The kernel's memory, allocated once: the timed part never touches the
    /// allocator, whose speed depends on what the engine did to the heap.
    table: Vec<(u64, u32)>,
    matches: Vec<(u32, u32)>,
    /// Kernel seconds, one per [`Host::sample`].
    samples: Vec<f64>,
}

impl Host {
    /// Generate the kernel's fixed inputs (xorshift, constant seed: the
    /// kernel is the same in every run) and warm it up.
    #[allow(clippy::new_without_default)] // construction runs the kernel; never implicit
    pub fn new() -> Host {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % KEY_SPACE
        };
        let build = (0..BUILD_ROWS).map(|_| next()).collect();
        let probe = (0..PROBE_ROWS).map(|_| next()).collect();
        let mut host = Host {
            build,
            probe,
            table: vec![(EMPTY, 0); SLOTS],
            matches: Vec::with_capacity(PROBE_ROWS),
            samples: Vec::new(),
        };
        for _ in 0..3 {
            host.kernel();
        }
        host
    }

    fn slot(key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44) as usize & (SLOTS - 1)
    }

    /// One run of the kernel: build an open-addressing hash table (linear
    /// probing, first row per key), probe it, collect the matches. Returns
    /// its seconds.
    fn kernel(&mut self) -> f64 {
        let start = Instant::now();
        self.table.fill((EMPTY, 0));
        for (row, &key) in self.build.iter().enumerate() {
            let mut at = Host::slot(key);
            while self.table[at].0 != EMPTY && self.table[at].0 != key {
                at = (at + 1) & (SLOTS - 1);
            }
            if self.table[at].0 == EMPTY {
                self.table[at] = (key, row as u32);
            }
        }
        self.matches.clear();
        for (row, &key) in self.probe.iter().enumerate() {
            let mut at = Host::slot(key);
            while self.table[at].0 != EMPTY && self.table[at].0 != key {
                at = (at + 1) & (SLOTS - 1);
            }
            if self.table[at].0 == key {
                self.matches.push((self.table[at].1, row as u32));
            }
        }
        std::hint::black_box(&self.matches);
        start.elapsed().as_secs_f64()
    }

    /// Sample the host's state now: the faster of two kernel runs (a
    /// preemption spike in one of them is not the host's state). Call it
    /// between timed units, never while another thread is working.
    pub fn sample(&mut self) {
        let first = self.kernel();
        let secs = first.min(self.kernel());
        self.samples.push(secs);
    }

    /// The run's host factor: 1 on the reference host in its quiet state,
    /// above 1 when the host is slower. Panics before the first sample:
    /// every run samples around its timed units.
    pub fn factor(&self) -> f64 {
        median(&self.samples) / NOMINAL_KERNEL_SECS
    }

    /// Wall-clock seconds as they would read on the quiet reference host.
    pub fn calibrate(&self, wall_secs: f64) -> f64 {
        wall_secs / self.factor()
    }

    /// Smallest and largest single-sample factor of the run.
    pub fn factor_range(&self) -> (f64, f64) {
        let of = |pick: fn(f64, f64) -> f64, from: f64| {
            self.samples.iter().copied().fold(from, pick) / NOMINAL_KERNEL_SECS
        };
        (of(f64::min, f64::INFINITY), of(f64::max, 0.0))
    }

    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_is_the_median_sample_over_the_nominal_time() {
        let mut host = Host::new();
        for _ in 0..3 {
            host.sample();
        }
        assert_eq!(host.sample_count(), 3);
        let (low, high) = host.factor_range();
        assert!(low > 0.0 && low <= host.factor() && host.factor() <= high && high.is_finite());
        assert_eq!(host.calibrate(host.factor()), 1.0);
    }

    #[test]
    fn the_kernel_is_the_same_in_every_run() {
        let (a, b) = (Host::new(), Host::new());
        assert_eq!(a.build, b.build);
        assert_eq!(a.probe, b.probe);
    }
}
