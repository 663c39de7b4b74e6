//! Machine-speed calibration.
//!
//! On a shared machine other tenants slow this process down for spells
//! that can outlast a whole run, and then even the fastest repetition is
//! slow. A fixed kernel that belongs to the benchmark, not to the
//! program, is timed between repetitions; its fastest time over the run
//! says how fast the machine was, and the run's times are rescaled to
//! the machine speed at which the kernel takes [`REFERENCE_S`].

use std::hint::black_box;
use std::time::Instant;

/// The kernel's fastest time on an uncontended core of the 2-vCPU
/// virtual machine the benchmark was built on.
pub const REFERENCE_S: f64 = 3.1e-3;

/// Table slots of the kernel: 1 MiB of `u32`, like an agent array.
const SLOTS: usize = 1 << 18;
/// Read-modify-write steps per kernel call, about 3 ms.
const STEPS: usize = 1_000_000;

/// The calibration kernel and the fastest time it has run in.
pub struct Calibration {
    table: Vec<u32>,
    best: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Self {
            table: vec![0; SLOTS],
            best: f64::INFINITY,
        }
    }
}

impl Calibration {
    /// Time the kernel `times` times: xorshift-indexed random
    /// read-modify-writes on the table, the memory pattern of an agent
    /// simulator.
    pub fn sample(&mut self, times: usize) {
        for _ in 0..times {
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
            let start = Instant::now();
            for _ in 0..STEPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let i = x as usize & (SLOTS - 1);
                let j = (x >> 32) as usize & (SLOTS - 1);
                let (a, b) = (self.table[i], self.table[j]);
                self.table[i] = b.wrapping_add(1) ^ (a >> 3);
                self.table[j] = a.wrapping_mul(3);
            }
            black_box(&self.table);
            self.best = self.best.min(start.elapsed().as_secs_f64());
        }
    }

    /// The kernel's fastest time so far.
    pub fn best(&self) -> f64 {
        self.best
    }

    /// What a time measured in this run would have been at the
    /// reference machine speed.
    pub fn to_reference(&self, seconds: f64) -> f64 {
        seconds * REFERENCE_S / self.best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescales_by_the_fastest_kernel_time() {
        let mut calib = Calibration::default();
        calib.sample(2);
        assert!(calib.best() > 0.0 && calib.best().is_finite());
        let scaled = calib.to_reference(1.0);
        assert!((scaled * calib.best() - REFERENCE_S).abs() < 1e-12);
    }
}
