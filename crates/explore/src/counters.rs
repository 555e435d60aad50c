//! Always-compiled global performance counters.
//!
//! A handful of process-wide atomic counters that the hot paths bump
//! unconditionally (relaxed ordering, one `fetch_add` per *run*, not
//! per state, wherever possible) so an external observer — the
//! `seqwm-bench` harness in particular — can attribute work to a
//! region of code without threading a stats struct through every
//! caller. The counters are cumulative for the process lifetime;
//! observers take a [`CounterSnapshot`] before and after the region
//! of interest and subtract.
//!
//! These deliberately overlap with [`crate::ExploreStats`]: the stats
//! struct is the *per-exploration* structured result, while the
//! globals aggregate across explorations (including ones whose stats
//! the caller discards, e.g. inside refinement checks or fuzz
//! campaigns) and across crates (`seqwm-seq` bumps the refinement-fuel
//! counters here so the bench harness has a single place to sample).

use std::sync::atomic::{AtomicU64, Ordering};

/// Distinct states expanded (post-dedup), summed over all explorations.
pub static STATES: AtomicU64 = AtomicU64::new(0);
/// Transitions enumerated, summed over all explorations.
pub static TRANSITIONS: AtomicU64 = AtomicU64::new(0);
/// Frontier entries answered by the visited set.
pub static DEDUP_HITS: AtomicU64 = AtomicU64::new(0);
/// Agent groups skipped by sleep-set reduction.
pub static SLEEP_SKIPS: AtomicU64 = AtomicU64::new(0);
/// States expanded through a single local group (ample-set reduction).
pub static AMPLE_COMMITS: AtomicU64 = AtomicU64::new(0);
/// Sleep bits granted by the non-atomic-write commutation rule.
pub static NA_COMMUTES: AtomicU64 = AtomicU64::new(0);
/// Sleep bits granted by the read/read (and read vs distinct-location
/// write) commutation rule.
pub static READ_COMMUTES: AtomicU64 = AtomicU64::new(0);
/// Sleep bits granted by the atomic-write commutation rule (distinct
/// locations, canonical state quotient).
pub static ATOMIC_COMMUTES: AtomicU64 = AtomicU64::new(0);
/// Bytes of checkpoint data encoded and written to disk.
pub static CHECKPOINT_BYTES: AtomicU64 = AtomicU64::new(0);
/// SEQ refinement fuel spent (states visited by behavior enumeration
/// and by the advanced checker's game search). Bumped by `seqwm-seq`.
pub static REFINE_FUEL_SPENT: AtomicU64 = AtomicU64::new(0);
/// Completed behavior-set enumerations in `seqwm-seq`.
pub static REFINE_ENUMERATIONS: AtomicU64 = AtomicU64::new(0);
/// Serve-daemon result-cache hits (verdict answered without running a
/// job). Bumped by `seqwm-serve`.
pub static SERVE_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
/// Serve-daemon result-cache misses (job actually executed).
pub static SERVE_CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
/// Serve-daemon result-cache evictions (LRU capacity pressure).
pub static SERVE_CACHE_EVICTIONS: AtomicU64 = AtomicU64::new(0);
/// Visited-set shards spilled to disk under memory pressure.
pub static SPILL_SHARDS: AtomicU64 = AtomicU64::new(0);
/// Bytes of spill-segment data written to disk.
pub static SPILL_BYTES: AtomicU64 = AtomicU64::new(0);
/// Membership probes that touched a spilled segment on disk (Bloom
/// summary hits; summary misses cost no I/O and are not counted).
pub static SPILL_PROBES: AtomicU64 = AtomicU64::new(0);
/// Disk probes that found the fingerprint in a spilled segment.
pub static SPILL_HITS: AtomicU64 = AtomicU64::new(0);

/// Optimizer validation obligations answered from the memo cache.
pub static OPT_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
/// Optimizer validation obligations that had to be discharged fresh.
pub static OPT_CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
/// Programs pushed through the validated optimizer pipeline.
pub static OPT_PROGRAMS: AtomicU64 = AtomicU64::new(0);

/// Adds `n` to a counter (relaxed; counters are monotone and only
/// read via before/after snapshots).
pub fn add(counter: &AtomicU64, n: u64) {
    if n != 0 {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// Folds a finished exploration's stats into the global counters.
/// Called once per engine run — cheap enough to be always on.
pub fn record_explore(stats: &crate::ExploreStats) {
    add(&STATES, stats.states as u64);
    add(&TRANSITIONS, stats.transitions as u64);
    add(&DEDUP_HITS, stats.dedup_hits as u64);
    add(&SLEEP_SKIPS, stats.sleep_skips as u64);
    add(&AMPLE_COMMITS, stats.ample_commits as u64);
    add(&NA_COMMUTES, stats.na_commutes as u64);
    add(&READ_COMMUTES, stats.read_commutes as u64);
    add(&ATOMIC_COMMUTES, stats.atomic_commutes as u64);
}

/// A point-in-time copy of every global counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// [`STATES`] at capture time.
    pub states: u64,
    /// [`TRANSITIONS`] at capture time.
    pub transitions: u64,
    /// [`DEDUP_HITS`] at capture time.
    pub dedup_hits: u64,
    /// [`SLEEP_SKIPS`] at capture time.
    pub sleep_skips: u64,
    /// [`AMPLE_COMMITS`] at capture time.
    pub ample_commits: u64,
    /// [`NA_COMMUTES`] at capture time.
    pub na_commutes: u64,
    /// [`READ_COMMUTES`] at capture time.
    pub read_commutes: u64,
    /// [`ATOMIC_COMMUTES`] at capture time.
    pub atomic_commutes: u64,
    /// [`CHECKPOINT_BYTES`] at capture time.
    pub checkpoint_bytes: u64,
    /// [`REFINE_FUEL_SPENT`] at capture time.
    pub refine_fuel_spent: u64,
    /// [`REFINE_ENUMERATIONS`] at capture time.
    pub refine_enumerations: u64,
    /// [`SERVE_CACHE_HITS`] at capture time.
    pub serve_cache_hits: u64,
    /// [`SERVE_CACHE_MISSES`] at capture time.
    pub serve_cache_misses: u64,
    /// [`SERVE_CACHE_EVICTIONS`] at capture time.
    pub serve_cache_evictions: u64,
    /// [`SPILL_SHARDS`] at capture time.
    pub spill_shards: u64,
    /// [`SPILL_BYTES`] at capture time.
    pub spill_bytes: u64,
    /// [`SPILL_PROBES`] at capture time.
    pub spill_probes: u64,
    /// [`SPILL_HITS`] at capture time.
    pub spill_hits: u64,
    /// [`OPT_CACHE_HITS`] at capture time.
    pub opt_cache_hits: u64,
    /// [`OPT_CACHE_MISSES`] at capture time.
    pub opt_cache_misses: u64,
    /// [`OPT_PROGRAMS`] at capture time.
    pub opt_programs: u64,
}

impl CounterSnapshot {
    /// Reads every counter.
    pub fn capture() -> Self {
        CounterSnapshot {
            states: STATES.load(Ordering::Relaxed),
            transitions: TRANSITIONS.load(Ordering::Relaxed),
            dedup_hits: DEDUP_HITS.load(Ordering::Relaxed),
            sleep_skips: SLEEP_SKIPS.load(Ordering::Relaxed),
            ample_commits: AMPLE_COMMITS.load(Ordering::Relaxed),
            na_commutes: NA_COMMUTES.load(Ordering::Relaxed),
            read_commutes: READ_COMMUTES.load(Ordering::Relaxed),
            atomic_commutes: ATOMIC_COMMUTES.load(Ordering::Relaxed),
            checkpoint_bytes: CHECKPOINT_BYTES.load(Ordering::Relaxed),
            refine_fuel_spent: REFINE_FUEL_SPENT.load(Ordering::Relaxed),
            refine_enumerations: REFINE_ENUMERATIONS.load(Ordering::Relaxed),
            serve_cache_hits: SERVE_CACHE_HITS.load(Ordering::Relaxed),
            serve_cache_misses: SERVE_CACHE_MISSES.load(Ordering::Relaxed),
            serve_cache_evictions: SERVE_CACHE_EVICTIONS.load(Ordering::Relaxed),
            spill_shards: SPILL_SHARDS.load(Ordering::Relaxed),
            spill_bytes: SPILL_BYTES.load(Ordering::Relaxed),
            spill_probes: SPILL_PROBES.load(Ordering::Relaxed),
            spill_hits: SPILL_HITS.load(Ordering::Relaxed),
            opt_cache_hits: OPT_CACHE_HITS.load(Ordering::Relaxed),
            opt_cache_misses: OPT_CACHE_MISSES.load(Ordering::Relaxed),
            opt_programs: OPT_PROGRAMS.load(Ordering::Relaxed),
        }
    }

    /// Counter growth since `earlier` (saturating: counters are
    /// monotone, so a negative delta only arises from snapshot misuse).
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            states: self.states.saturating_sub(earlier.states),
            transitions: self.transitions.saturating_sub(earlier.transitions),
            dedup_hits: self.dedup_hits.saturating_sub(earlier.dedup_hits),
            sleep_skips: self.sleep_skips.saturating_sub(earlier.sleep_skips),
            ample_commits: self.ample_commits.saturating_sub(earlier.ample_commits),
            na_commutes: self.na_commutes.saturating_sub(earlier.na_commutes),
            read_commutes: self.read_commutes.saturating_sub(earlier.read_commutes),
            atomic_commutes: self.atomic_commutes.saturating_sub(earlier.atomic_commutes),
            checkpoint_bytes: self
                .checkpoint_bytes
                .saturating_sub(earlier.checkpoint_bytes),
            refine_fuel_spent: self
                .refine_fuel_spent
                .saturating_sub(earlier.refine_fuel_spent),
            refine_enumerations: self
                .refine_enumerations
                .saturating_sub(earlier.refine_enumerations),
            serve_cache_hits: self
                .serve_cache_hits
                .saturating_sub(earlier.serve_cache_hits),
            serve_cache_misses: self
                .serve_cache_misses
                .saturating_sub(earlier.serve_cache_misses),
            serve_cache_evictions: self
                .serve_cache_evictions
                .saturating_sub(earlier.serve_cache_evictions),
            spill_shards: self.spill_shards.saturating_sub(earlier.spill_shards),
            spill_bytes: self.spill_bytes.saturating_sub(earlier.spill_bytes),
            spill_probes: self.spill_probes.saturating_sub(earlier.spill_probes),
            spill_hits: self.spill_hits.saturating_sub(earlier.spill_hits),
            opt_cache_hits: self.opt_cache_hits.saturating_sub(earlier.opt_cache_hits),
            opt_cache_misses: self
                .opt_cache_misses
                .saturating_sub(earlier.opt_cache_misses),
            opt_programs: self.opt_programs.saturating_sub(earlier.opt_programs),
        }
    }

    /// `(name, value)` pairs in a fixed order, for serialization. New
    /// counters are appended, never inserted, so indices are stable.
    pub fn entries(&self) -> [(&'static str, u64); 21] {
        [
            ("states", self.states),
            ("transitions", self.transitions),
            ("dedup_hits", self.dedup_hits),
            ("sleep_skips", self.sleep_skips),
            ("ample_commits", self.ample_commits),
            ("na_commutes", self.na_commutes),
            ("read_commutes", self.read_commutes),
            ("atomic_commutes", self.atomic_commutes),
            ("checkpoint_bytes", self.checkpoint_bytes),
            ("refine_fuel_spent", self.refine_fuel_spent),
            ("refine_enumerations", self.refine_enumerations),
            ("serve_cache_hits", self.serve_cache_hits),
            ("serve_cache_misses", self.serve_cache_misses),
            ("serve_cache_evictions", self.serve_cache_evictions),
            ("spill_shards", self.spill_shards),
            ("spill_bytes", self.spill_bytes),
            ("spill_probes", self.spill_probes),
            ("spill_hits", self.spill_hits),
            ("opt_cache_hits", self.opt_cache_hits),
            ("opt_cache_misses", self.opt_cache_misses),
            ("opt_programs", self.opt_programs),
        ]
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn record_and_delta() {
        let before = CounterSnapshot::capture();
        let stats = crate::ExploreStats {
            states: 7,
            transitions: 11,
            dedup_hits: 3,
            sleep_skips: 2,
            ample_commits: 1,
            na_commutes: 5,
            ..crate::ExploreStats::default()
        };
        record_explore(&stats);
        add(&CHECKPOINT_BYTES, 100);
        add(&REFINE_FUEL_SPENT, 40);
        add(&REFINE_ENUMERATIONS, 1);
        let delta = CounterSnapshot::capture().since(&before);
        // Other tests may run concurrently and also bump the globals,
        // so assert lower bounds only.
        assert!(delta.states >= 7);
        assert!(delta.transitions >= 11);
        assert!(delta.dedup_hits >= 3);
        assert!(delta.na_commutes >= 5);
        assert!(delta.checkpoint_bytes >= 100);
        assert!(delta.refine_fuel_spent >= 40);
        assert!(delta.refine_enumerations >= 1);
    }

    #[test]
    fn entries_order_is_stable() {
        let names: Vec<_> = CounterSnapshot::default()
            .entries()
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(names[0], "states");
        assert_eq!(names[6], "read_commutes");
        assert_eq!(names[7], "atomic_commutes");
        assert_eq!(names[10], "refine_enumerations");
        assert_eq!(names[11], "serve_cache_hits");
        assert_eq!(names[13], "serve_cache_evictions");
        assert_eq!(names[14], "spill_shards");
        assert_eq!(names[17], "spill_hits");
        assert_eq!(names[18], "opt_cache_hits");
        assert_eq!(names[20], "opt_programs");
        assert_eq!(names.len(), 21);
    }
}
