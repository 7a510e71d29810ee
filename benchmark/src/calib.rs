//! Host speed, measured with a fixed kernel that runs none of the
//! program's code. On a shared host the CPU time one operation takes moves
//! with the neighbours' load — across ten runs of one workload the
//! benchmark saw its CPU time per operation vary by a factor of 1.7, and
//! every latency with it — while the hypervisor reported no steal. Timing
//! this kernel before each replay gives the round's *slowness*: the
//! kernel's time over [`REFERENCE_S`]. The program's times move more than
//! the kernel's: over 60 runs of the three gated workloads (NOTES.md), the
//! slope of each end-to-end time against slowness, both on log scales, was
//! 1.1 to 2.1, median 1.5, at a correlation of 0.75 to 0.96. So the end-to-end
//! times are divided by the run's median slowness raised to
//! [`SENSITIVITY`], and read as on a host where the kernel takes
//! [`REFERENCE_S`]. No change to the program can move the kernel, so a
//! slower or faster program still shows in full.

use std::hint::black_box;
use std::time::Instant;

/// Slots of the pointer-chasing ring: 8 MiB of `u32`, larger than the
/// caches a small VM gets, so the walk waits on memory as graph reads do.
const RING: usize = 1 << 21;
/// Dependent loads per pass.
const STEPS: usize = 1 << 16;
/// Multiply-xorshift rounds per pass: the arithmetic part.
const MIXES: usize = 1 << 21;
/// Passes per measurement; the median is kept.
const PASSES: usize = 3;

/// Seconds one pass takes on the host the bounds were set on, in a quiet
/// period (2-thread shared VM). Only a unit: any constant would do, as
/// long as it never changes.
pub const REFERENCE_S: f64 = 0.015;

/// How much more the program's times move than the kernel's, as the
/// exponent on slowness (the median slope above; one value for every
/// metric and workload).
pub const SENSITIVITY: f64 = 1.5;

/// The kernel's input: one cycle through all [`RING`] slots, in an order
/// fixed by a constant seed (Sattolo's shuffle).
pub struct Kernel {
    next: Vec<u32>,
}

impl Kernel {
    pub fn new() -> Kernel {
        let mut next: Vec<u32> = (0..RING as u32).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..RING).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let j = (state % i as u64) as usize;
            next.swap(i, j);
        }
        Kernel { next }
    }

    /// Seconds one pass takes.
    fn pass(&self) -> f64 {
        let t0 = Instant::now();
        let mut at = 0u32;
        for _ in 0..STEPS {
            at = self.next[at as usize];
        }
        let mut h = u64::from(at) | 1;
        for _ in 0..MIXES {
            h = h.wrapping_mul(0x2545_F491_4F6C_DD1D);
            h ^= h >> 29;
        }
        black_box(h);
        t0.elapsed().as_secs_f64()
    }

    /// The host's slowness now: the median of [`PASSES`] passes over
    /// [`REFERENCE_S`]. Above 1 the host is slower than the reference.
    pub fn slowness(&self) -> f64 {
        let mut t: Vec<f64> = (0..PASSES).map(|_| self.pass()).collect();
        t.sort_by(f64::total_cmp);
        t[PASSES / 2] / REFERENCE_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ring_is_one_cycle_through_every_slot() {
        let k = Kernel::new();
        let mut at = 0u32;
        for step in 1..=RING {
            at = k.next[at as usize];
            assert_eq!(at == 0, step == RING, "back at the start after {step} steps");
        }
        assert!(k.slowness() > 0.0);
    }
}
