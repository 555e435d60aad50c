//! The host's speed, measured with a fixed reference kernel.
//!
//! The benchmark runs on a few vCPUs of a shared host whose speed drifts
//! by tens of percent for minutes at a time, while CPU time tracks wall
//! time (the process is slowed, not descheduled) and no performance
//! counters are exposed. A workload therefore times this kernel between
//! its ops, outside its timed regions, and converts the CPU-bound times
//! it reports into *reference time*: wall time scaled by
//! [`NOMINAL_KERNEL_MS`] over the run's median kernel time. A run on a
//! slowed host times both its ops and the kernel slower, so the ratio
//! stays put; a faster program still shows in full, because the kernel
//! is the benchmark's own code and calls nothing in the workspace.
//!
//! The kernel does what the workloads do most: hashing, ordered-map
//! inserts and lookups, small allocations and a sort, on a fixed input
//! and a fixed hasher, so one call costs the same work every time.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

use seqwm_explore::mix64;

use crate::report::{median, ms, ratio};

/// The kernel's median time on the host the benchmark was sized on in
/// its usual state (2-vCPU Intel Xeon VM, release build). Reference
/// times equal wall times when the run's kernel median equals this.
pub const NOMINAL_KERNEL_MS: f64 = 2.8;

/// Rounds of the kernel per sample.
const ROUNDS: u64 = 12;

/// One sample of the kernel; returns a value that depends on all of its
/// work, so none of it can be optimized away.
fn kernel() -> u64 {
    let mut acc = 0u64;
    for r in 0..ROUNDS {
        let mut counts: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        let mut groups: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut x = mix64(r);
        for i in 0..2000u64 {
            x = mix64(x ^ i);
            *counts.entry(x % 1500).or_insert(0) += i;
            groups.entry(x % 700).or_default().push(x);
        }
        let mut sums: Vec<u64> = counts.values().copied().collect();
        sums.sort_unstable();
        for (k, vs) in &groups {
            acc = acc.wrapping_add(k ^ vs.len() as u64);
        }
        acc = acc.wrapping_add(sums[sums.len() / 2]);
    }
    acc
}

/// Kernel samples taken over one run.
#[derive(Default)]
pub struct HostSpeed {
    samples_ms: Vec<f64>,
}

impl HostSpeed {
    /// Times one run of the kernel.
    pub fn sample(&mut self) {
        let t = Instant::now();
        black_box(kernel());
        self.samples_ms.push(ms(t.elapsed()));
    }

    /// The median kernel time of the run, in milliseconds.
    pub fn kernel_ms(&self) -> f64 {
        median(&self.samples_ms)
    }

    /// Reference seconds per wall second of this run: how much faster
    /// (above 1) or slower than nominal the host ran.
    pub fn scale(&self) -> f64 {
        ratio(NOMINAL_KERNEL_MS, self.kernel_ms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_samples_scale() {
        assert_eq!(kernel(), kernel());
        let mut speed = HostSpeed::default();
        assert_eq!(speed.scale(), 0.0);
        for _ in 0..3 {
            speed.sample();
        }
        assert!(speed.kernel_ms() > 0.0);
        assert!(speed.scale().is_finite() && speed.scale() > 0.0);
    }
}
