//! Shared pieces of every workload: input derivation, order statistics,
//! resource probes, and the result line.

use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use seqwm_explore::{mix64, SplitMix64};

use crate::speed::HostSpeed;

/// Host-speed samples taken before each set-up chunk.
const SPEED_SAMPLES_PER_CHUNK: usize = 8;

/// The generator seed of op `i` under run seed `seed`.
///
/// Unlike `seed ^ i`, which makes seeds 1 and 2 yield the same inputs in
/// a different order, the outer `mix64` decorrelates neighbouring seeds
/// before the op index is folded in.
pub fn op_seed(seed: u64, i: u64) -> u64 {
    mix64(mix64(seed) ^ i)
}

/// A seeded permutation of `0..n` (Fisher–Yates over `op_seed` draws).
pub fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(op_seed(seed, u64::MAX));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// The `q`-quantile (0..=1) of `xs` by the nearest-rank method; 0 for
/// an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times the workload's set-up.
///
/// One set-up takes well under a millisecond, and the host's speed
/// drifts by ±20% over seconds, so set-ups timed in one burst measure
/// the host at that moment. A workload therefore times its set-up in
/// chunks spread over the run: one before each pass and one after the
/// timed phase. A chunk repeats the set-up a fixed number of times;
/// `setup_s` is the total set-up time over the number of set-ups. (On
/// `litmus-explore` a chunk's set-ups ranged from about 0.24 to 0.41 ms
/// and the chunk medians jumped between 0.26 and 0.44 ms; taking the
/// mean instead cut the five-run spread of `setup_s` from 0.28 to 0.17.)
///
/// Each chunk starts on a flushed filesystem. Creating the memo store or
/// the daemon's state directories took 2 ms instead of 0.1 ms while the
/// writes of an earlier phase (or of an earlier run) were still being
/// written back, so without the flush a chunk timed the write-back.
///
/// The clock also holds the run's host-speed samples: a few before each
/// chunk, and the ones the workload takes between its ops. `setup_s` is
/// reported in reference seconds (see [`crate::speed`]).
pub struct SetupClock {
    reps_per_chunk: usize,
    work: PathBuf,
    reps: usize,
    spent: Duration,
    /// Kernel samples of the whole run.
    pub speed: HostSpeed,
}

impl SetupClock {
    /// A clock whose chunks repeat the set-up `reps_per_chunk` times and
    /// flush the filesystem holding `work` first.
    pub fn new(reps_per_chunk: usize, work: &Path) -> SetupClock {
        SetupClock {
            reps_per_chunk: reps_per_chunk.max(1),
            work: work.to_path_buf(),
            reps: 0,
            spent: Duration::ZERO,
            speed: HostSpeed::default(),
        }
    }

    /// Times one chunk of set-ups, tearing down all but the last, and
    /// returns the last. `setup` gets a repetition number unique over
    /// the run.
    pub fn chunk<T>(
        &mut self,
        mut setup: impl FnMut(usize) -> Result<T, String>,
        mut teardown: impl FnMut(T),
    ) -> Result<T, String> {
        sync_fs(&self.work)?;
        for _ in 0..SPEED_SAMPLES_PER_CHUNK {
            self.speed.sample();
        }
        let mut kept = None;
        for _ in 0..self.reps_per_chunk {
            let t = Instant::now();
            let built = setup(self.reps)?;
            self.spent += t.elapsed();
            self.reps += 1;
            if let Some(old) = kept.replace(built) {
                teardown(old);
            }
        }
        kept.ok_or_else(|| "no set-up ran".to_string())
    }

    /// The mean set-up time in reference seconds.
    pub fn setup_s(&self) -> f64 {
        ratio(self.spent.as_secs_f64(), self.reps as f64) * self.speed.scale()
    }
}

/// Flushes the filesystem that holds `dir` to disk (`syncfs(2)`).
fn sync_fs(dir: &Path) -> Result<(), String> {
    extern "C" {
        fn syncfs(fd: std::os::raw::c_int) -> std::os::raw::c_int;
    }
    let f = std::fs::File::open(dir).map_err(|e| format!("cannot open {}: {e}", dir.display()))?;
    // SAFETY: `f` owns an open descriptor for the whole call, and
    // syncfs only reads its argument.
    if unsafe { syncfs(f.as_raw_fd()) } != 0 {
        let e = std::io::Error::last_os_error();
        return Err(format!(
            "cannot flush the filesystem of {}: {e}",
            dir.display()
        ));
    }
    Ok(())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// A named metric with its unit.
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Ops attempted across every phase of the run.
    pub attempted: u64,
    /// Ops that ended inconclusive, truncated, refused or errored.
    pub failed: u64,
    /// Wrong answers: each one fails the benchmark.
    pub wrong: Vec<String>,
    /// The metrics to print.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Adds a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a wrong answer.
    pub fn wrong(&mut self, what: String) {
        self.wrong.push(what);
    }

    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    seqwm_json::escape(&m.name),
                    json_number(m.value),
                    seqwm_json::escape(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Renders a finite number with all its digits (`{:?}` prints the
/// shortest string that round-trips); non-finite values become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// How a workload's timed phase is bounded, which decides whether its
/// `ops_per_s` is scaled to reference time.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// By the CPU: `ops_per_s` counts ops per reference second.
    Cpu,
    /// By waiting (a timer, the network): `ops_per_s` counts ops per
    /// wall second, since scaling a wait by the CPU's speed would only
    /// add the host's noise to it.
    Wait,
}

/// The end-to-end metrics shared by every workload, from the ops
/// completed in the timed phase and its wall time.
pub fn put_end_to_end(
    out: &mut Outcome,
    ops: usize,
    phase: Duration,
    setup: &SetupClock,
    bound: Bound,
) {
    let scale = match bound {
        Bound::Cpu => setup.speed.scale(),
        Bound::Wait => 1.0,
    };
    out.put(
        "ops_per_s",
        ratio(ops as f64, phase.as_secs_f64() * scale),
        "1/s",
    );
    out.put("setup_s", setup.setup_s(), "s");
}

/// Per-layer metrics of the host's speed over the run: its median kernel
/// time, and the timed phase's ops per wall second before scaling.
pub fn put_host_layer(out: &mut Outcome, ops: usize, phase: Duration, setup: &SetupClock) {
    out.put("run.kernel_ms", setup.speed.kernel_ms(), "ms");
    out.put(
        "run.wall_ops_per_s",
        ratio(ops as f64, phase.as_secs_f64()),
        "1/s",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_seeds_of_neighbouring_seeds_do_not_collide() {
        let a: std::collections::BTreeSet<u64> = (0..1000).map(|i| op_seed(1, i)).collect();
        assert!((0..1000).all(|i| !a.contains(&op_seed(2, i))));
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let p = permutation(7, 24);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..24).collect::<Vec<_>>());
        assert_eq!(p, permutation(7, 24));
        assert_ne!(p, permutation(8, 24));
    }

    #[test]
    fn setup_clock_keeps_the_last_set_up_of_each_chunk() {
        let mut clock = SetupClock::new(3, Path::new("."));
        let mut torn = Vec::new();
        assert_eq!(clock.chunk(Ok, |r| torn.push(r)), Ok(2));
        assert_eq!(clock.chunk(Ok, |r| torn.push(r)), Ok(5));
        assert_eq!(torn, [0, 1, 3, 4]);
        assert_eq!(clock.reps, 6);
        assert!(clock.setup_s().is_finite());
        let failing = clock.chunk(|_| Err::<(), _>("boom".to_string()), drop);
        assert!(failing.is_err());
    }

    #[test]
    fn order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.0);
        assert_eq!(quantile(&xs, 0.9), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut out = Outcome {
            attempted: 3,
            failed: 1,
            ..Outcome::default()
        };
        out.put("ops_per_s", 1.5, "1/s");
        let doc = seqwm_json::Json::parse(&out.to_json()).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_obj("result")
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        out.wrong("x".to_string());
        assert!(out.to_json().starts_with("{\"correct\": false"));
    }
}
