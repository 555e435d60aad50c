//! The exploration engine: a parallel, deduplicated, reduction-aware
//! frontier search over any [`TransitionSystem`].
//!
//! # Architecture
//!
//! Workers (plain `std::thread`s) each own a private frontier deque and
//! share a global overflow queue guarded by a `Mutex` + `Condvar`;
//! after expanding a state a worker offloads half its private frontier
//! whenever the global queue runs low, which gives work-stealing
//! behavior without any external dependency. The visited set is
//! sharded by fingerprint (64- or 128-bit, or exact full states) so
//! workers rarely contend on the same shard.
//!
//! # Interleaving reduction
//!
//! Each visited entry stores the minimal *sleep set* (a bitmask of
//! agents whose groups may be skipped) the state was explored with.
//! After expanding agent `i`, agents explored earlier at the same
//! state go to sleep in `i`'s subtree iff both groups are
//! [`shared_pure`](crate::AgentGroup::shared_pure) — two pure groups
//! commute, and a pure step leaves every other agent's group
//! literally unchanged, so the skipped interleaving is covered by the
//! sibling subtree. A state re-reached with a sleep set not covered by
//! the stored one is re-explored with the intersection. Additionally,
//! a [`local`](crate::AgentGroup::local) group (no shared reads *or*
//! writes) whose successors are all unvisited may be selected as a
//! singleton *ample set*: only that agent is expanded at the state.
//! The unvisited-successor proviso prevents the classic "ignoring"
//! cycle: on any cycle in the reduced graph some state sees an
//! already-visited successor (states are marked visited before their
//! children are generated) and falls back to full expansion. Behavior
//! emissions and statistics tags of non-expanded awake groups are
//! still recorded at the state itself, so reduction can only skip
//! *states*, never observations.
//!
//! # Failure model
//!
//! Transition-system callbacks are user code and may panic. Every
//! callback runs under `catch_unwind`: a panic while *inserting* into
//! the visited set quarantines the state immediately (its dedup
//! status is unknowable), a panic while *expanding* is retried up to
//! [`ExploreConfig::max_retries`] times and then quarantined. Either
//! way the incident is recorded in [`ExploreStats`] and the rest of
//! the frontier keeps draining — one poisoned state never takes down
//! the search. All engine locks are acquired poison-insensitively,
//! and expansion buffers its effects so a retry is idempotent.
//!
//! Long runs can opt into durability with
//! [`ExploreConfig::checkpoint`] / [`ExploreConfig::resume`]: the
//! frontier and behavior set are periodically written to disk as
//! replayable transition paths (see [`crate::CHECKPOINT_VERSION`]),
//! and budget trips *stop* the search (preserving the frontier for
//! resume) instead of draining it. A memory budget
//! ([`ExploreConfig::max_memory`]) degrades the visited set
//! exact → fp128 → fp64 before giving up.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::checkpoint::{
    self, CheckpointData, SavedBehavior, SavedCounters, SavedJob, LEVEL_FP128, LEVEL_FP64,
};
use crate::error::{
    CorruptReason, ExploreError, ExploreIncident, ExploreWarning, IncidentKind, StopReason,
};
use crate::fingerprint::{fp128, fp64};
use crate::rng::{mix64, SplitMix64};
use crate::spill::{FrontierLoad, SpillSeg, SpillSpec, SpillStore};
use crate::stats::ExploreStats;
use crate::system::{groups_independent, Target, TransitionSystem};

/// Search strategy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Exhaustive depth-first search (the default; lowest memory).
    Dfs,
    /// Exhaustive breadth-first search (finds shallow behaviors first).
    Bfs,
    /// Restarting DFS with growing depth bounds: `initial`, then
    /// `initial + step`, … up to the configured `max_depth`. Stops
    /// early once a round completes without hitting its depth bound.
    IterativeDeepening {
        /// First depth bound.
        initial: usize,
        /// Bound increment between rounds.
        step: usize,
    },
    /// `walks` seeded uniformly-random maximal paths (no dedup, no
    /// reduction): a cheap smoke-test strategy for huge spaces. The
    /// result is always marked truncated.
    RandomWalk {
        /// Number of walks.
        walks: usize,
        /// PRNG seed; equal seeds give equal walk sets.
        seed: u64,
    },
}

/// How visited states are remembered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VisitedMode {
    /// 64-bit fingerprints (default; ~10⁻⁹ collision odds at 2·10⁵
    /// states).
    Fp64,
    /// 128-bit fingerprints (two independent passes).
    Fp128,
    /// Full state clones — no collisions, seed-explorer equivalent.
    Exact,
}

/// Where and how often to checkpoint a durable run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Checkpoint file (written through [`crate::durable::write_atomic`]).
    pub path: PathBuf,
    /// Save period. `None` saves only once, when the run stops;
    /// periodic saves additionally require `workers == 1` (a parallel
    /// frontier has no consistent mid-run snapshot).
    pub every: Option<Duration>,
}

impl CheckpointSpec {
    /// A spec that saves once, when the run stops.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointSpec {
            path: path.into(),
            every: None,
        }
    }

    /// Adds a periodic save interval.
    pub fn every(mut self, period: Duration) -> Self {
        self.every = Some(period);
        self
    }
}

/// Engine configuration: strategy, budgets, parallelism, durability.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Worker threads (1 = deterministic sequential search).
    pub workers: usize,
    /// Search strategy.
    pub strategy: Strategy,
    /// Visited-set representation.
    pub visited: VisitedMode,
    /// Enable sleep-set / ample-set interleaving reduction (master
    /// switch; `false` overrides every toggle in [`Self::rules`]).
    pub reduction: bool,
    /// Fine-grained per-rule reduction toggles, consulted only when
    /// [`Self::reduction`] is on. Lets the soundness suite falsify
    /// each independence rule in isolation.
    pub rules: ReductionRules,
    /// Bound on distinct states expanded (approximate under
    /// parallelism: each worker may overshoot by a few states).
    pub max_states: usize,
    /// Bound on path depth.
    pub max_depth: usize,
    /// Wall-clock deadline; on expiry the search stops where it is.
    pub deadline: Option<Duration>,
    /// Visited-set shard count (power of two recommended).
    pub shards: usize,
    /// Approximate visited-set memory budget in bytes. On breach the
    /// representation degrades one rung (exact → fp128 → fp64); out of
    /// rungs, the search stops (durable runs) or drains (others).
    pub max_memory: Option<usize>,
    /// How many times a panicking expansion is retried before its
    /// state is quarantined.
    pub max_retries: u8,
    /// Periodically checkpoint the run to disk (DFS/BFS only).
    pub checkpoint: Option<CheckpointSpec>,
    /// Resume from a previous checkpoint. An unreadable or corrupt
    /// file falls back to a fresh run with a warning.
    pub resume: Option<PathBuf>,
    /// Spill cold visited-set shards (and single-worker DFS frontier
    /// segments) to disk under memory pressure, *before* the lossy
    /// exact → fp128 → fp64 ladder is consulted (DFS/BFS only). Disk
    /// failures fall back to the in-RAM ladder; corrupt segments are
    /// quarantined and read as unvisited.
    pub spill: Option<SpillSpec>,
    /// Deterministic fault schedule for hardening tests.
    #[cfg(feature = "fault-injection")]
    pub fault: Option<crate::fault::FaultPlan>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            workers: 1,
            strategy: Strategy::Dfs,
            visited: VisitedMode::Fp64,
            reduction: true,
            rules: ReductionRules::default(),
            max_states: 1_000_000,
            max_depth: 1 << 16,
            deadline: None,
            shards: 64,
            max_memory: None,
            max_retries: 1,
            checkpoint: None,
            resume: None,
            spill: None,
            #[cfg(feature = "fault-injection")]
            fault: None,
        }
    }
}

/// Per-rule toggles for the interleaving reduction, all on by
/// default. Each flag disables exactly one lever so the soundness
/// battery (`tests/por_soundness.rs`) can assert behavior-set
/// equality with every subset of rules active — an unsound rule is
/// then independently falsifiable instead of being masked by the
/// others.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReductionRules {
    /// Honor sleep sets at all (skipping sleeping agents, propagating
    /// sleep masks to children). Off, no independence rule can fire.
    pub sleep: bool,
    /// Commit singleton ample sets on `local` groups.
    pub ample: bool,
    /// Grant sleep bits via the NA-write rule
    /// ([`crate::IndependenceRule::NaWrite`]).
    pub na_write: bool,
    /// Grant sleep bits via the read/read and read-vs-write rule
    /// ([`crate::IndependenceRule::Read`]).
    pub shared_read: bool,
    /// Grant sleep bits via the atomic-write rule
    /// ([`crate::IndependenceRule::AtomicWrite`]).
    pub atomic_write: bool,
}

impl Default for ReductionRules {
    fn default() -> Self {
        ReductionRules {
            sleep: true,
            ample: true,
            na_write: true,
            shared_read: true,
            atomic_write: true,
        }
    }
}

impl ReductionRules {
    /// Whether sleep bits may be granted through `rule`.
    pub fn allows(&self, rule: crate::IndependenceRule) -> bool {
        use crate::IndependenceRule::*;
        match rule {
            Dependent => false,
            Pure => true,
            Read => self.shared_read,
            NaWrite => self.na_write,
            AtomicWrite => self.atomic_write,
        }
    }
}

/// An exploration outcome: the behavior set plus structured stats.
#[derive(Clone, Debug)]
pub struct ExploreResult<B: Ord> {
    /// All behaviors observed.
    pub behaviors: BTreeSet<B>,
    /// What the engine did and why it stopped.
    pub stats: ExploreStats,
}

/// Locks a mutex, recovering the guard if a previous holder panicked.
/// Workers buffer their effects and apply them only on success, so a
/// poisoned lock's data is still consistent.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    if let Some(s) = p.downcast_ref::<String>() {
        return s.clone();
    }
    #[cfg(feature = "fault-injection")]
    if let Some(f) = p.downcast_ref::<crate::fault::InjectedFault>() {
        return format!(
            "injected fault at state {:016x} (permanent: {})",
            f.state_fp, f.permanent
        );
    }
    "non-string panic payload".to_string()
}

// ---------------------------------------------------------------------------
// Visited set with a degradation ladder
// ---------------------------------------------------------------------------

const LEVEL_EXACT: u8 = 0;

fn level_name(level: u8) -> &'static str {
    match level {
        LEVEL_EXACT => "exact",
        LEVEL_FP128 => "fp128",
        _ => "fp64",
    }
}

fn mode_level(mode: VisitedMode) -> u8 {
    match mode {
        VisitedMode::Exact => LEVEL_EXACT,
        VisitedMode::Fp128 => LEVEL_FP128,
        VisitedMode::Fp64 => LEVEL_FP64,
    }
}

/// One shard of the visited set. The variant *is* the shard's current
/// rung on the degradation ladder; shards migrate lazily toward the
/// global level the next time they are locked for insertion. The low
/// 64 bits of an fp128 fingerprint equal the state's fp64, so each
/// downgrade is a pure key projection.
enum ShardMap<St> {
    Exact(HashMap<St, u64>),
    Fp128(HashMap<u128, u64>),
    Fp64(HashMap<u64, u64>),
}

impl<St: Clone + Eq + std::hash::Hash> ShardMap<St> {
    fn level(&self) -> u8 {
        match self {
            ShardMap::Exact(_) => LEVEL_EXACT,
            ShardMap::Fp128(_) => LEVEL_FP128,
            ShardMap::Fp64(_) => LEVEL_FP64,
        }
    }

    fn len(&self) -> usize {
        match self {
            ShardMap::Exact(m) => m.len(),
            ShardMap::Fp128(m) => m.len(),
            ShardMap::Fp64(m) => m.len(),
        }
    }

    /// Migrates this shard one rung down, merging colliding entries by
    /// sleep-mask intersection (the sound direction: a smaller mask
    /// only re-explores more).
    fn degrade_once(self) -> ShardMap<St> {
        fn merge<K: Eq + std::hash::Hash>(map: &mut HashMap<K, u64>, k: K, mask: u64) {
            map.entry(k).and_modify(|m| *m &= mask).or_insert(mask);
        }
        match self {
            ShardMap::Exact(m) => {
                let mut out = HashMap::with_capacity(m.len());
                for (st, mask) in m {
                    merge(&mut out, fp128(&st), mask);
                }
                ShardMap::Fp128(out)
            }
            ShardMap::Fp128(m) => {
                let mut out = HashMap::with_capacity(m.len());
                for (fp, mask) in m {
                    merge(&mut out, fp as u64, mask);
                }
                ShardMap::Fp64(out)
            }
            same @ ShardMap::Fp64(_) => same,
        }
    }
}

/// Disk-representable visited dump: (level, fp64 pairs, fp128 pairs).
type VisitedSnapshot = (u8, Vec<(u64, u64)>, Vec<(u128, u64)>);

struct Visited<St> {
    shards: Vec<Mutex<ShardMap<St>>>,
    /// Global ladder rung; shards at a lower (more precise) rung
    /// migrate lazily on their next insertion.
    level: AtomicU8,
    /// Approximate entry count (drives the memory estimate; spilled
    /// entries stop counting — they no longer occupy RAM).
    entries: AtomicUsize,
    /// Disk spill store, when configured. Lock order: a shard's mutex
    /// is always taken before the store's per-shard segment list.
    spill: Option<SpillStore>,
}

impl<St: Clone + Eq + std::hash::Hash> Visited<St> {
    fn new(mode: VisitedMode, shards: usize) -> Self {
        let level = mode_level(mode);
        Visited {
            shards: (0..shards.max(1))
                .map(|_| {
                    Mutex::new(match level {
                        LEVEL_EXACT => ShardMap::Exact(HashMap::new()),
                        LEVEL_FP128 => ShardMap::Fp128(HashMap::new()),
                        _ => ShardMap::Fp64(HashMap::new()),
                    })
                })
                .collect(),
            level: AtomicU8::new(level),
            entries: AtomicUsize::new(0),
            spill: None,
        }
    }

    fn shard_of(&self, fp: u64) -> usize {
        (fp % self.shards.len() as u64) as usize
    }

    fn sync_shard(&self, g: &mut ShardMap<St>, target: u8) {
        while g.level() < target {
            let old_len = g.len();
            let taken = std::mem::replace(g, ShardMap::Fp64(HashMap::new()));
            *g = taken.degrade_once();
            // Degrading is a key projection: it can merge colliding
            // pairs (mask intersection) but never invent entries.
            debug_assert!(
                g.len() <= old_len,
                "degrade_once grew a shard: {} -> {}",
                old_len,
                g.len()
            );
            self.entries.fetch_sub(old_len - g.len(), Ordering::Relaxed);
        }
    }

    /// Records a visit of `st` with sleep mask `mask`. Returns the
    /// mask to explore with, or `None` if a previous visit covers it.
    ///
    /// When the entry is RAM-vacant, any spilled segments of its shard
    /// are probed first; a disk hit re-adopts the (tightest) disk mask
    /// into RAM, so the decision is identical to the one an in-RAM run
    /// would have made at that point. The re-adopted RAM mask is always
    /// a subset of every on-disk mask for the same key, which keeps the
    /// covering test sound across repeated spills.
    fn check_insert(&self, st: &St, mask: u64) -> Option<u64> {
        fn upd<K: Eq + std::hash::Hash>(
            map: &mut HashMap<K, u64>,
            k: K,
            mask: u64,
            disk: Option<u64>,
        ) -> (Option<u64>, bool) {
            match map.entry(k) {
                std::collections::hash_map::Entry::Vacant(v) => match disk {
                    Some(old) if old & !mask == 0 => {
                        v.insert(old);
                        (None, true)
                    }
                    Some(old) => {
                        let m = old & mask;
                        v.insert(m);
                        (Some(m), true)
                    }
                    None => {
                        v.insert(mask);
                        (Some(mask), true)
                    }
                },
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    let old = *o.get();
                    if old & !mask == 0 {
                        (None, false)
                    } else {
                        let m = old & mask;
                        o.insert(m);
                        (Some(m), false)
                    }
                }
            }
        }
        let f = fp64(st);
        let target = self.level.load(Ordering::Relaxed);
        let shard = self.shard_of(f);
        let mut g = relock(&self.shards[shard]);
        self.sync_shard(&mut g, target);
        let (result, inserted) = match &mut *g {
            ShardMap::Exact(m) => {
                let disk = if m.contains_key(st) {
                    None
                } else {
                    self.spill_probe(shard, f, || fp128(st))
                };
                upd(m, st.clone(), mask, disk)
            }
            ShardMap::Fp128(m) => {
                let k = fp128(st);
                let disk = if m.contains_key(&k) {
                    None
                } else {
                    self.spill_probe(shard, f, || k)
                };
                upd(m, k, mask, disk)
            }
            ShardMap::Fp64(m) => {
                let disk = if m.contains_key(&f) {
                    None
                } else {
                    self.spill_probe(shard, f, || fp128(st))
                };
                upd(m, f, mask, disk)
            }
        };
        drop(g);
        if inserted {
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Probes spilled segments of `shard` for `fp`. `None` when no
    /// store is attached or the shard has no live segments.
    fn spill_probe<F: FnOnce() -> u128>(&self, shard: usize, fp: u64, fp128_of: F) -> Option<u64> {
        match &self.spill {
            Some(s) if s.has_segments(shard) => s.probe(shard, fp, fp128_of),
            _ => None,
        }
    }

    /// Has `st` been visited (with any sleep mask)? Used by the ample
    /// proviso; a false negative only costs reduction, a false
    /// positive only costs exploration work. Spilled segments are
    /// consulted (the per-segment fingerprint summary is only a
    /// gate — summary hits fall through to a real disk probe, so the
    /// answer never depends on summary false positives).
    fn contains(&self, st: &St) -> bool {
        let f = fp64(st);
        let shard = self.shard_of(f);
        let g = relock(&self.shards[shard]);
        let in_ram = match &*g {
            ShardMap::Exact(m) => m.contains_key(st),
            ShardMap::Fp128(m) => m.contains_key(&fp128(st)),
            ShardMap::Fp64(m) => m.contains_key(&f),
        };
        // Probe while holding the shard lock: the lock order (shard
        // mutex, then segment list) matches the spill path.
        in_ram || self.spill_probe(shard, f, || fp128(st)).is_some()
    }

    /// The spill trigger in bytes, when a store is attached and still
    /// healthy. `None` sends the memory-budget path straight to the
    /// in-RAM lossy ladder.
    fn spill_trigger(&self) -> Option<usize> {
        self.spill
            .as_ref()
            .filter(|s| s.enabled())
            .map(|s| s.trigger())
    }

    /// Writes the largest RAM shard out as one spill segment and
    /// clears it. Returns `false` when nothing worth spilling remains
    /// (callers then fall back to the lossy ladder) or the write
    /// failed (data stays in RAM — the write path never drops entries
    /// it could not durably read back).
    fn spill_coldest_shard(&self) -> bool {
        let Some(store) = &self.spill else {
            return false;
        };
        if !store.enabled() {
            return false;
        }
        let (mut best, mut best_len) = (0usize, 0usize);
        for (i, s) in self.shards.iter().enumerate() {
            let len = relock(s).len();
            if len > best_len {
                (best, best_len) = (i, len);
            }
        }
        if best_len < 8 {
            return false;
        }
        let mut g = relock(&self.shards[best]);
        // Exact entries are fingerprinted on the way out (like the
        // checkpoint codec): the disk image is fp128-precise.
        let (level, v64, v128): VisitedSnapshot = match &*g {
            ShardMap::Exact(m) => (
                LEVEL_FP128,
                Vec::new(),
                m.iter().map(|(st, mask)| (fp128(st), *mask)).collect(),
            ),
            ShardMap::Fp128(m) => (
                LEVEL_FP128,
                Vec::new(),
                m.iter().map(|(k, v)| (*k, *v)).collect(),
            ),
            ShardMap::Fp64(m) => (
                LEVEL_FP64,
                m.iter().map(|(k, v)| (*k, *v)).collect(),
                Vec::new(),
            ),
        };
        if v64.len() + v128.len() < 8 {
            return false;
        }
        if !store.write_shard(best, level, &v64, &v128) {
            return false;
        }
        let n = g.len();
        *g = match &*g {
            ShardMap::Exact(_) => ShardMap::Exact(HashMap::new()),
            ShardMap::Fp128(_) => ShardMap::Fp128(HashMap::new()),
            ShardMap::Fp64(_) => ShardMap::Fp64(HashMap::new()),
        };
        drop(g);
        self.entries.fetch_sub(n, Ordering::Relaxed);
        true
    }

    /// Rough bytes held: entries × per-entry cost at the current rung
    /// (hash-map overhead plus key/value payload).
    fn memory_estimate(&self, state_size: usize) -> usize {
        let per = match self.level.load(Ordering::Relaxed) {
            LEVEL_EXACT => 48 + state_size,
            LEVEL_FP128 => 56,
            _ => 48,
        };
        self.entries.load(Ordering::Relaxed) * per
    }

    /// Steps the global ladder down one rung. Returns the transition
    /// taken, or `None` if already at the last rung. Exactly one
    /// caller wins a given rung, so each downgrade warns once.
    fn request_downgrade(&self) -> Option<(&'static str, &'static str)> {
        loop {
            let cur = self.level.load(Ordering::SeqCst);
            if cur >= LEVEL_FP64 {
                return None;
            }
            if self
                .level
                .compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Some((level_name(cur), level_name(cur + 1)));
            }
        }
    }

    /// Serializes every entry at a disk-representable level:
    /// fp128 while the ladder allows it, else fp64 (exact states are
    /// fingerprinted — the reason resume records a downgrade warning).
    fn snapshot(&self) -> VisitedSnapshot {
        let mut max_level = self.level.load(Ordering::SeqCst);
        for s in &self.shards {
            max_level = max_level.max(relock(s).level());
        }
        let disk = if max_level <= LEVEL_FP128 {
            LEVEL_FP128
        } else {
            LEVEL_FP64
        };
        let mut v64 = Vec::new();
        let mut v128 = Vec::new();
        for s in &self.shards {
            let g = relock(s);
            match &*g {
                ShardMap::Exact(m) => {
                    for (st, mask) in m {
                        if disk == LEVEL_FP128 {
                            v128.push((fp128(st), *mask));
                        } else {
                            v64.push((fp64(st), *mask));
                        }
                    }
                }
                ShardMap::Fp128(m) => {
                    for (fp, mask) in m {
                        if disk == LEVEL_FP128 {
                            v128.push((*fp, *mask));
                        } else {
                            v64.push((*fp as u64, *mask));
                        }
                    }
                }
                ShardMap::Fp64(m) => {
                    for (fp, mask) in m {
                        v64.push((*fp, *mask));
                    }
                }
            }
        }
        (disk, v64, v128)
    }

    /// Rebuilds a visited set from checkpoint data, at the more
    /// degraded of the configured and stored levels.
    fn restore(
        mode: VisitedMode,
        shards: usize,
        data: &CheckpointData,
    ) -> (Self, Option<ExploreWarning>) {
        let cfg_level = mode_level(mode);
        let eff = cfg_level.max(data.level);
        let warn = (cfg_level < data.level).then(|| ExploreWarning::ResumeVisitedDowngrade {
            requested: level_name(cfg_level),
            restored: level_name(eff),
        });
        let mode = if eff <= LEVEL_FP128 {
            VisitedMode::Fp128
        } else {
            VisitedMode::Fp64
        };
        let v = Visited::new(mode, shards);
        let mut n = 0usize;
        // fp128's low 64 bits are the state's fp64, so sharding by the
        // low word matches `check_insert`'s placement.
        for &(fp, mask) in &data.visited64 {
            let mut g = relock(&v.shards[v.shard_of(fp)]);
            if let ShardMap::Fp64(m) = &mut *g {
                m.insert(fp, mask);
                n += 1;
            }
        }
        for &(fp, mask) in &data.visited128 {
            let low = fp as u64;
            let mut g = relock(&v.shards[v.shard_of(low)]);
            match &mut *g {
                ShardMap::Fp128(m) => {
                    m.insert(fp, mask);
                    n += 1;
                }
                ShardMap::Fp64(m) => {
                    m.insert(low, mask);
                    n += 1;
                }
                ShardMap::Exact(_) => {}
            }
        }
        v.entries.store(n, Ordering::Relaxed);
        (v, warn)
    }
}

// ---------------------------------------------------------------------------
// Jobs and replayable paths
// ---------------------------------------------------------------------------

/// One link of a frontier entry's provenance: the flat transition
/// index taken at the parent. Flat indices count *all* transitions of
/// *all* agent groups in enumeration order (sleeping groups included),
/// so replay needs no knowledge of the sleep sets in force when the
/// path was generated.
struct PathNode {
    idx: u32,
    parent: Option<Arc<PathNode>>,
}

fn path_vec(path: &Option<Arc<PathNode>>) -> Vec<u32> {
    let mut v = Vec::new();
    let mut cur = path;
    while let Some(n) = cur {
        v.push(n.idx);
        cur = &n.parent;
    }
    v.reverse();
    v
}

fn arc_path(path: &[u32]) -> Option<Arc<PathNode>> {
    let mut cur = None;
    for &idx in path {
        cur = Some(Arc::new(PathNode { idx, parent: cur }));
    }
    cur
}

struct Job<St> {
    st: St,
    depth: usize,
    sleep: u64,
    /// Expansion attempts already burned (nonzero after a caught
    /// panic).
    attempt: u8,
    /// The state is already in the visited set and must be re-expanded
    /// without a dedup check (it was interrupted mid-expansion).
    revisit: bool,
    /// Provenance for checkpointing; `None` when not tracking (or for
    /// the initial state, whose path is empty).
    path: Option<Arc<PathNode>>,
}

fn replay_step<S: TransitionSystem>(
    sys: &S,
    st: &S::State,
    idx: u32,
) -> Result<S::State, &'static str> {
    let groups = sys.agent_groups(st);
    let mut i = idx as usize;
    for g in &groups {
        if i < g.transitions.len() {
            return match &g.transitions[i].target {
                Target::State(s) => Ok(s.clone()),
                _ => Err("path step is not a state transition"),
            };
        }
        i -= g.transitions.len();
    }
    Err("path index out of range")
}

fn replay_state<S: TransitionSystem>(sys: &S, path: &[u32]) -> Result<S::State, &'static str> {
    let mut st = sys.initial_state();
    for &idx in path {
        st = replay_step(sys, &st, idx)?;
    }
    Ok(st)
}

fn replay_behavior<S: TransitionSystem>(
    sys: &S,
    sb: &SavedBehavior,
) -> Result<S::Behavior, &'static str> {
    let st = replay_state(sys, &sb.path)?;
    match sb.emit {
        None => sys
            .terminal_behavior(&st)
            .ok_or("no terminal behavior at path end"),
        Some(idx) => {
            let groups = sys.agent_groups(&st);
            let mut i = idx as usize;
            for g in &groups {
                if i < g.transitions.len() {
                    return match &g.transitions[i].target {
                        Target::Behavior(b) => Ok(b.clone()),
                        _ => Err("emission index is not a behavior"),
                    };
                }
                i -= g.transitions.len();
            }
            Err("emission index out of range")
        }
    }
}

// ---------------------------------------------------------------------------
// Shared engine state
// ---------------------------------------------------------------------------

struct Shared<'a, S: TransitionSystem> {
    sys: &'a S,
    cfg: &'a ExploreConfig,
    visited: Visited<S::State>,
    queue: Mutex<VecDeque<Job<S::State>>>,
    cv: Condvar,
    /// Jobs created but not yet fully processed.
    pending: AtomicUsize,
    /// Hard stop: abandon (non-durable) or preserve (durable) the
    /// frontier.
    stop: AtomicBool,
    /// First cause of the stop/drain, as [`StopReason::as_u8`].
    stop_reason: AtomicU8,
    /// Soft stop (state budget, non-durable): drain the frontier for
    /// terminal behaviors without expanding further — the seed
    /// explorer's off-by-one dropped these.
    drain: AtomicBool,
    /// The depth bound hit at least once (drives iterative deepening).
    depth_truncated: AtomicBool,
    states_total: AtomicUsize,
    behaviors: Mutex<BTreeSet<S::Behavior>>,
    /// Provenance of every recorded behavior (durable runs only).
    behavior_log: Mutex<Vec<SavedBehavior>>,
    depth_limit: usize,
    start: Instant,
    /// Checkpointing is active: budget trips stop instead of draining,
    /// jobs carry paths, and workers hand their private frontier back
    /// to the global queue on stop.
    durable: bool,
    /// fp64 of the initial state (checkpoint identity check).
    digest: u64,
    /// Counters carried over from the resumed checkpoint.
    base: SavedCounters,
    /// Frontier spilling is active (spill store configured,
    /// single-worker DFS): jobs carry replay paths and cold frontier
    /// halves move to disk when the local deque crosses the threshold.
    frontier_spill: bool,
}

impl<S: TransitionSystem> Shared<'_, S> {
    fn deadline_expired(&self) -> bool {
        match self.cfg.deadline {
            Some(d) => self.start.elapsed() >= d,
            None => false,
        }
    }

    fn note_reason(&self, r: StopReason) {
        let _ = self.stop_reason.compare_exchange(
            StopReason::Completed.as_u8(),
            r.as_u8(),
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    fn request_stop(&self, r: StopReason) {
        self.note_reason(r);
        self.stop.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }

    /// Re-enqueues a job so a resumed run re-expands it (bypassing the
    /// dedup check: its state is already in the visited set).
    fn requeue_for_resume(&self, mut job: Job<S::State>) {
        job.revisit = true;
        self.pending.fetch_add(1, Ordering::SeqCst);
        relock(&self.queue).push_back(job);
    }
}

fn pop_local<St>(local: &mut VecDeque<Job<St>>, strategy: &Strategy) -> Option<Job<St>> {
    match strategy {
        Strategy::Bfs => local.pop_front(),
        _ => local.pop_back(),
    }
}

fn next_job<S: TransitionSystem>(
    sh: &Shared<S>,
    local: &mut VecDeque<Job<S::State>>,
) -> Option<Job<S::State>> {
    if sh.stop.load(Ordering::SeqCst) {
        return None;
    }
    // Check the deadline before every dequeue — including local pops —
    // so expiry is noticed within one expansion, not one frontier
    // refill.
    if sh.deadline_expired() {
        sh.request_stop(StopReason::DeadlineExpired);
        return None;
    }
    if let Some(j) = pop_local(local, &sh.cfg.strategy) {
        return Some(j);
    }
    let mut q = relock(&sh.queue);
    loop {
        if sh.stop.load(Ordering::SeqCst) {
            return None;
        }
        if sh.deadline_expired() {
            drop(q);
            sh.request_stop(StopReason::DeadlineExpired);
            return None;
        }
        if let Some(j) = q.pop_front() {
            return Some(j);
        }
        if sh.pending.load(Ordering::SeqCst) == 0 {
            return None;
        }
        // Timed wait so deadline expiry and missed notifications
        // self-heal.
        q = sh
            .cv
            .wait_timeout(q, Duration::from_millis(5))
            .unwrap_or_else(PoisonError::into_inner)
            .0;
    }
}

// ---------------------------------------------------------------------------
// Expansion
// ---------------------------------------------------------------------------

/// Everything one expansion produces, buffered so that effects are
/// applied only when the user code completed without panicking (which
/// makes a retry idempotent) and discarded wholesale when a deadline
/// aborts the expansion midway.
struct Expanded<St, B> {
    terminal: Option<B>,
    depth_hit: bool,
    /// The deadline fired between successor groups: discard
    /// everything and requeue the job.
    aborted: bool,
    /// Emitted behaviors with their flat transition indices.
    emitted: Vec<(B, u32)>,
    /// Successors: state, flat transition index, child sleep mask.
    children: Vec<(St, u32, u64)>,
    transitions: usize,
    sleep_skips: usize,
    ample_commits: usize,
    na_commutes: usize,
    read_commutes: usize,
    atomic_commutes: usize,
    pruned: usize,
    racy: usize,
    promise: usize,
}

impl<St, B> Expanded<St, B> {
    fn empty() -> Self {
        Expanded {
            terminal: None,
            depth_hit: false,
            aborted: false,
            emitted: Vec::new(),
            children: Vec::new(),
            transitions: 0,
            sleep_skips: 0,
            ample_commits: 0,
            na_commutes: 0,
            read_commutes: 0,
            atomic_commutes: 0,
            pruned: 0,
            racy: 0,
            promise: 0,
        }
    }
}

/// Runs all user code for one state. Called under `catch_unwind`.
#[cfg_attr(not(feature = "fault-injection"), allow(unused_variables))]
fn expand<S: TransitionSystem>(
    sh: &Shared<S>,
    st: &S::State,
    depth: usize,
    sleep: u64,
    fp: u64,
    attempt: u8,
    halt: bool,
) -> Expanded<S::State, S::Behavior> {
    #[cfg(feature = "fault-injection")]
    if let Some(plan) = &sh.cfg.fault {
        if let Some(d) = plan.injects_delay(fp) {
            std::thread::sleep(d);
        }
        if let Some(fault) = plan.injects_panic(fp, attempt) {
            std::panic::panic_any(fault);
        }
    }
    let mut out = Expanded::empty();
    out.terminal = sh.sys.terminal_behavior(st);
    if out.terminal.is_some() || halt {
        return out;
    }
    if depth >= sh.depth_limit {
        out.depth_hit = true;
        return out;
    }

    let groups = sh.sys.agent_groups(st);
    // Flat transition indices span ALL groups, sleeping ones included,
    // so a checkpointed path replays without sleep-set knowledge.
    let mut idx_base = Vec::with_capacity(groups.len());
    let mut acc = 0u32;
    for g in &groups {
        idx_base.push(acc);
        acc += g.transitions.len() as u32;
    }
    let mut awake: Vec<usize> = Vec::with_capacity(groups.len());
    for (gi, g) in groups.iter().enumerate() {
        if sh.cfg.reduction && sh.cfg.rules.sleep && g.agent < 64 && sleep & (1 << g.agent) != 0 {
            out.sleep_skips += 1;
        } else {
            awake.push(gi);
        }
    }

    // Record emissions and statistics tags of every awake group — even
    // ones the ample selection below will not expand.
    for &gi in &awake {
        let g = &groups[gi];
        for (j, t) in g.transitions.iter().enumerate() {
            out.transitions += 1;
            if t.tags.racy {
                out.racy += 1;
            }
            if t.tags.promise {
                out.promise += 1;
            }
            match &t.target {
                Target::Behavior(b) => out.emitted.push((b.clone(), idx_base[gi] + j as u32)),
                Target::Pruned => out.pruned += 1,
                Target::State(_) => {}
            }
        }
    }

    let ample = if sh.cfg.reduction && sh.cfg.rules.ample && awake.len() > 1 {
        awake.iter().copied().find(|&gi| {
            let g = &groups[gi];
            g.local
                && !g.transitions.is_empty()
                && g.transitions
                    .iter()
                    .all(|t| matches!(&t.target, Target::State(s) if !sh.visited.contains(s)))
        })
    } else {
        None
    };
    if let Some(gi) = ample {
        out.ample_commits += 1;
        let g = &groups[gi];
        for (j, t) in g.transitions.iter().enumerate() {
            if let Target::State(s) = &t.target {
                // A local step is pure, so the sleep set survives it.
                out.children
                    .push((s.clone(), idx_base[gi] + j as u32, sleep));
            }
        }
    } else {
        // Pairwise sleep propagation. After executing group `g`, an
        // agent sleeps in `g`'s subtree iff its group here is
        // independent of `g` ([`groups_independent`]): sleeping agents
        // only survive steps that commute with them (an NA write
        // changes memory, so a pure reader must wake), and
        // earlier-expanded awake siblings go to sleep only against
        // groups they commute with. An inherited sleeper whose agent
        // has no group at this state is dropped (conservative:
        // independence preserves enabledness, so this should not
        // arise, and waking it only costs work).
        let mut earlier: Vec<usize> = Vec::with_capacity(awake.len());
        for &gi in &awake {
            // Deadline check between successor batches, not only at
            // dequeue: a state with many wide groups cannot overshoot
            // the deadline by a whole expansion.
            if sh.deadline_expired() {
                out.aborted = true;
                return out;
            }
            let g = &groups[gi];
            let child_sleep = if sh.cfg.reduction && sh.cfg.rules.sleep {
                let mut mask = 0u64;
                let mut grant =
                    |h: &crate::AgentGroup<S::State, S::Behavior>,
                     out: &mut Expanded<S::State, S::Behavior>| {
                        if h.agent >= 64 {
                            return;
                        }
                        #[allow(unused_mut)]
                        let mut rule = groups_independent(g, h);
                        // Planted bug for the soundness battery: treat
                        // same-location atomic-write pairs as
                        // independent. The differential suites must
                        // observe the dropped behaviors.
                        #[cfg(feature = "fault-injection")]
                        if rule == crate::IndependenceRule::Dependent
                            && g.atomic_write.is_some()
                            && g.atomic_write == h.atomic_write
                            && sh
                                .cfg
                                .fault
                                .as_ref()
                                .is_some_and(|p| p.unsound_atomic_independence)
                        {
                            rule = crate::IndependenceRule::AtomicWrite;
                        }
                        if sh.cfg.rules.allows(rule) {
                            mask |= 1 << h.agent;
                            match rule {
                                crate::IndependenceRule::NaWrite => out.na_commutes += 1,
                                crate::IndependenceRule::Read => out.read_commutes += 1,
                                crate::IndependenceRule::AtomicWrite => out.atomic_commutes += 1,
                                _ => {}
                            }
                        }
                    };
                let mut sleepers = sleep;
                while sleepers != 0 {
                    let agent = sleepers.trailing_zeros() as usize;
                    sleepers &= sleepers - 1;
                    if let Some(h) = groups.iter().find(|h| h.agent == agent) {
                        grant(h, &mut out);
                    }
                }
                for &hi in &earlier {
                    grant(&groups[hi], &mut out);
                }
                mask
            } else {
                0
            };
            for (j, t) in g.transitions.iter().enumerate() {
                if let Target::State(s) = &t.target {
                    out.children
                        .push((s.clone(), idx_base[gi] + j as u32, child_sleep));
                }
            }
            earlier.push(gi);
        }
    }
    out
}

fn record_incident(
    stats: &mut ExploreStats,
    kind: IncidentKind,
    state_fp: u64,
    depth: usize,
    attempt: u8,
    message: String,
) {
    if stats.incidents.len() < ExploreStats::MAX_RECORDED_INCIDENTS {
        stats.incidents.push(ExploreIncident {
            kind,
            state_fp,
            depth,
            attempt,
            message,
        });
    }
    stats.incident_count += 1;
}

/// Applies the fault plan's forced downgrades and the memory budget.
/// Returns `true` when the budget is breached with no rung left.
#[cfg_attr(not(feature = "fault-injection"), allow(unused_variables))]
fn enforce_memory_budget<S: TransitionSystem>(
    sh: &Shared<S>,
    stats: &mut ExploreStats,
    n: usize,
) -> bool {
    let downgrade = |stats: &mut ExploreStats| {
        if let Some((from, to)) = sh.visited.request_downgrade() {
            stats.downgrades += 1;
            stats
                .warnings
                .push(ExploreWarning::MemoryDowngrade { from, to });
            true
        } else {
            false
        }
    };
    #[cfg(feature = "fault-injection")]
    if let Some(k) = sh.cfg.fault.as_ref().and_then(|p| p.downgrade_every_states) {
        if k > 0 && n.is_multiple_of(k) {
            downgrade(stats);
        }
    }
    // Spill-first, lossy-last: while the spill store is healthy, push
    // cold shards to disk before consulting the precision ladder. A
    // dead store (ENOSPC, I/O errors) drops straight through.
    if let Some(trigger) = sh.visited.spill_trigger() {
        let size = std::mem::size_of::<S::State>();
        while sh.visited.memory_estimate(size) > trigger && sh.visited.spill_coldest_shard() {}
    }
    let Some(budget) = sh.cfg.max_memory else {
        return false;
    };
    if sh.visited.memory_estimate(std::mem::size_of::<S::State>()) <= budget {
        return false;
    }
    !downgrade(stats)
}

/// Expands one frontier entry with panic isolation: the visited-set
/// insert and the expansion each run under `catch_unwind`, effects are
/// buffered and applied only on success, and a persistently panicking
/// state is quarantined after `max_retries` retries.
fn process<S: TransitionSystem>(
    sh: &Shared<S>,
    job: Job<S::State>,
    local: &mut VecDeque<Job<S::State>>,
    stats: &mut ExploreStats,
) {
    let Job {
        st,
        depth,
        sleep,
        attempt,
        revisit,
        path,
    } = job;
    let sleep_in = if sh.cfg.reduction && sh.cfg.rules.sleep {
        sleep
    } else {
        0
    };

    // Phase 1: fingerprint + dedup (runs the state's Hash/Eq). A panic
    // here quarantines without retry: the dedup status is unknowable.
    let phase1 = catch_unwind(AssertUnwindSafe(|| {
        let fp = fp64(&st);
        let mask = if revisit {
            Some(sleep_in)
        } else {
            sh.visited.check_insert(&st, sleep_in)
        };
        (fp, mask)
    }));
    let (fp, mask) = match phase1 {
        Ok(v) => v,
        Err(p) => {
            record_incident(
                stats,
                IncidentKind::InsertPanic,
                0,
                depth,
                attempt,
                panic_message(p),
            );
            stats.quarantined += 1;
            return;
        }
    };
    let sleep = match mask {
        None => {
            stats.dedup_hits += 1;
            return;
        }
        Some(m) => m,
    };

    let track = sh.durable;
    if sh.drain.load(Ordering::Relaxed) {
        // Budget exhausted (non-durable): collect terminals on the
        // remaining frontier, expand nothing.
        match catch_unwind(AssertUnwindSafe(|| sh.sys.terminal_behavior(&st))) {
            Ok(Some(b)) => {
                relock(&sh.behaviors).insert(b);
            }
            Ok(None) => {}
            Err(p) => {
                record_incident(
                    stats,
                    IncidentKind::ExpansionPanic,
                    fp,
                    depth,
                    attempt,
                    panic_message(p),
                );
                stats.quarantined += 1;
            }
        }
        return;
    }

    stats.states += 1;
    let n = sh.states_total.fetch_add(1, Ordering::Relaxed) + 1;
    let mut halt = false;
    if n >= sh.cfg.max_states {
        if sh.durable {
            // Durable runs stop — preserving the frontier, this state
            // included — so a resumed run picks up exactly here.
            stats.states -= 1;
            sh.states_total.fetch_sub(1, Ordering::Relaxed);
            sh.requeue_for_resume(Job {
                st,
                depth,
                sleep,
                attempt,
                revisit: true,
                path,
            });
            sh.request_stop(StopReason::StateBudget);
            return;
        }
        sh.note_reason(StopReason::StateBudget);
        sh.drain.store(true, Ordering::Relaxed);
        stats.truncated = true;
        halt = true;
    } else if enforce_memory_budget(sh, stats, n) {
        if sh.durable {
            stats.states -= 1;
            sh.states_total.fetch_sub(1, Ordering::Relaxed);
            sh.requeue_for_resume(Job {
                st,
                depth,
                sleep,
                attempt,
                revisit: true,
                path,
            });
            sh.request_stop(StopReason::MemoryBudget);
            return;
        }
        sh.note_reason(StopReason::MemoryBudget);
        sh.drain.store(true, Ordering::Relaxed);
        stats.truncated = true;
        halt = true;
    }

    // Phase 2: expansion, with retries. Effects are buffered in
    // `Expanded` and applied only below, so a retry never
    // double-applies anything.
    let mut att = attempt;
    let expanded = loop {
        match catch_unwind(AssertUnwindSafe(|| {
            expand(sh, &st, depth, sleep, fp, att, halt)
        })) {
            Ok(e) => {
                if att > 0 {
                    stats.retried += 1;
                }
                break e;
            }
            Err(p) => {
                record_incident(
                    stats,
                    IncidentKind::ExpansionPanic,
                    fp,
                    depth,
                    att,
                    panic_message(p),
                );
                if att >= sh.cfg.max_retries {
                    stats.quarantined += 1;
                    return;
                }
                att += 1;
            }
        }
    };

    if expanded.aborted {
        // Deadline fired mid-expansion: apply nothing, requeue the job
        // so a durable resume re-expands it from scratch.
        stats.states -= 1;
        sh.states_total.fetch_sub(1, Ordering::Relaxed);
        sh.requeue_for_resume(Job {
            st,
            depth,
            sleep,
            attempt: att,
            revisit: true,
            path,
        });
        sh.request_stop(StopReason::DeadlineExpired);
        return;
    }

    stats.transitions += expanded.transitions;
    stats.sleep_skips += expanded.sleep_skips;
    stats.ample_commits += expanded.ample_commits;
    stats.na_commutes += expanded.na_commutes;
    stats.read_commutes += expanded.read_commutes;
    stats.atomic_commutes += expanded.atomic_commutes;
    stats.pruned += expanded.pruned;
    stats.racy_steps += expanded.racy;
    stats.promise_steps += expanded.promise;

    if let Some(b) = expanded.terminal {
        relock(&sh.behaviors).insert(b);
        if track {
            relock(&sh.behavior_log).push(SavedBehavior {
                emit: None,
                path: path_vec(&path),
            });
        }
        return;
    }
    if halt {
        return;
    }
    if expanded.depth_hit {
        stats.truncated = true;
        sh.depth_truncated.store(true, Ordering::Relaxed);
        return;
    }

    if !expanded.emitted.is_empty() {
        if track {
            let mut log = relock(&sh.behavior_log);
            for (_, idx) in &expanded.emitted {
                log.push(SavedBehavior {
                    emit: Some(*idx),
                    path: path_vec(&path),
                });
            }
        }
        relock(&sh.behaviors).extend(expanded.emitted.into_iter().map(|(b, _)| b));
    }

    if expanded.children.is_empty() {
        return;
    }
    let jobs: Vec<Job<S::State>> = expanded
        .children
        .into_iter()
        .map(|(s, idx, child_sleep)| Job {
            st: s,
            depth: depth + 1,
            sleep: child_sleep,
            attempt: 0,
            revisit: false,
            path: if track || sh.frontier_spill {
                Some(Arc::new(PathNode {
                    idx,
                    parent: path.clone(),
                }))
            } else {
                None
            },
        })
        .collect();
    push_jobs(sh, local, jobs);
}

fn push_jobs<S: TransitionSystem>(
    sh: &Shared<S>,
    local: &mut VecDeque<Job<S::State>>,
    jobs: Vec<Job<S::State>>,
) {
    sh.pending.fetch_add(jobs.len(), Ordering::SeqCst);
    local.extend(jobs);
    // Offload half the private frontier whenever the shared queue runs
    // low — cheap cooperative work-stealing.
    if sh.cfg.workers > 1 && local.len() > 1 {
        let mut q = relock(&sh.queue);
        if q.len() < sh.cfg.workers * 2 {
            let give = local.len() / 2;
            for _ in 0..give {
                if let Some(j) = local.pop_front() {
                    q.push_back(j);
                }
            }
            drop(q);
            sh.cv.notify_all();
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

fn counters_from(base: &SavedCounters, s: &ExploreStats) -> SavedCounters {
    SavedCounters {
        states: base.states + s.states as u64,
        transitions: base.transitions + s.transitions as u64,
        dedup_hits: base.dedup_hits + s.dedup_hits as u64,
        sleep_skips: base.sleep_skips + s.sleep_skips as u64,
        ample_commits: base.ample_commits + s.ample_commits as u64,
        pruned: base.pruned + s.pruned as u64,
        racy_steps: base.racy_steps + s.racy_steps as u64,
        promise_steps: base.promise_steps + s.promise_steps as u64,
        quarantined: base.quarantined + s.quarantined as u64,
    }
}

fn add_base(stats: &mut ExploreStats, base: &SavedCounters) {
    stats.states += base.states as usize;
    stats.transitions += base.transitions as usize;
    stats.dedup_hits += base.dedup_hits as usize;
    stats.sleep_skips += base.sleep_skips as usize;
    stats.ample_commits += base.ample_commits as usize;
    stats.pruned += base.pruned as usize;
    stats.racy_steps += base.racy_steps as usize;
    stats.promise_steps += base.promise_steps as usize;
    stats.quarantined += base.quarantined as usize;
}

/// Captures the whole run: visited fingerprints, the global queue plus
/// `extra` (the calling worker's private frontier), and the behavior
/// log.
/// `finalize` governs unreadable spilled-frontier segments: the final
/// save quarantines them (their jobs are lost, reported separately),
/// a periodic save leaves them on disk and reports how many jobs it
/// could not fold in (the caller then skips the save). `with_manifest`
/// records the live visited spill segments so a resume can re-adopt
/// them; pass `false` when the segments are about to be deleted.
fn snapshot<S: TransitionSystem>(
    sh: &Shared<S>,
    extra: &VecDeque<Job<S::State>>,
    counters: SavedCounters,
    finalize: bool,
    with_manifest: bool,
) -> (CheckpointData, u64) {
    let (level, visited64, visited128) = sh.visited.snapshot();
    let saved_job = |j: &Job<S::State>| SavedJob {
        revisit: j.revisit,
        sleep: j.sleep,
        path: path_vec(&j.path),
    };
    let q = relock(&sh.queue);
    let mut frontier: Vec<SavedJob> = q.iter().chain(extra.iter()).map(saved_job).collect();
    drop(q);
    let mut unreadable = 0u64;
    let (mut spill_shards, mut spill) = (0u32, Vec::new());
    if let Some(store) = &sh.visited.spill {
        let (jobs, lost) = store.frontier_collect(finalize);
        frontier.extend(jobs);
        unreadable = lost;
        if with_manifest {
            (spill_shards, spill) = store.manifest();
        }
    }
    let behaviors = relock(&sh.behavior_log).clone();
    (
        CheckpointData {
            level,
            digest: sh.digest,
            counters,
            visited64,
            visited128,
            frontier,
            behaviors,
            spill_shards,
            spill,
        },
        unreadable,
    )
}

/// Periodic mid-run save: single-worker durable runs only (a parallel
/// frontier has no consistent snapshot without a global pause).
fn maybe_save<S: TransitionSystem>(
    sh: &Shared<S>,
    local: &VecDeque<Job<S::State>>,
    stats: &mut ExploreStats,
    last: &mut Instant,
) {
    if !sh.durable || sh.cfg.workers > 1 {
        return;
    }
    let Some(spec) = &sh.cfg.checkpoint else {
        return;
    };
    let Some(every) = spec.every else {
        return;
    };
    if last.elapsed() < every {
        return;
    }
    *last = Instant::now();
    let (data, unreadable) = snapshot(sh, local, counters_from(&sh.base, stats), false, true);
    if unreadable > 0 {
        // A spilled frontier segment would not read back: saving now
        // would drop its jobs from the checkpoint. Keep the previous
        // complete checkpoint and try again next period.
        stats.warnings.push(ExploreWarning::CheckpointSaveFailed {
            path: spec.path.clone(),
            message: format!(
                "{unreadable} spilled frontier job(s) unreadable; keeping previous checkpoint"
            ),
        });
        return;
    }
    match checkpoint::save(&spec.path, &data) {
        Ok(()) => stats.checkpoint_saves += 1,
        Err(w) => stats.warnings.push(w),
    }
}

/// Spills the cold (front) half of a single-worker DFS deque once it
/// crosses the store's threshold. Spilled jobs stay counted in
/// `pending`; a failed write pushes them straight back, in order.
fn maybe_spill_frontier<S: TransitionSystem>(sh: &Shared<S>, local: &mut VecDeque<Job<S::State>>) {
    if !sh.frontier_spill {
        return;
    }
    let Some(store) = &sh.visited.spill else {
        return;
    };
    if !store.enabled() || local.len() < store.frontier_threshold() {
        return;
    }
    let take = local.len() / 2;
    // Retry bookkeeping must stay in RAM, and every spilled job needs
    // a replay path (only the depth-0 root legitimately has none).
    if local
        .iter()
        .take(take)
        .any(|j| j.attempt != 0 || (j.depth > 0 && j.path.is_none()))
    {
        return;
    }
    let drained: Vec<Job<S::State>> = local.drain(..take).collect();
    let saved: Vec<SavedJob> = drained
        .iter()
        .map(|j| SavedJob {
            revisit: j.revisit,
            sleep: j.sleep,
            path: path_vec(&j.path),
        })
        .collect();
    if !store.write_frontier(&saved) {
        for j in drained.into_iter().rev() {
            local.push_front(j);
        }
    }
}

/// Refills an empty DFS deque from the newest spilled frontier
/// segment (LIFO, preserving the no-spill pop order). A segment that
/// fails validation or replay loses its jobs — reported and counted
/// out of `pending` so the run still terminates.
fn maybe_reload_frontier<S: TransitionSystem>(
    sh: &Shared<S>,
    local: &mut VecDeque<Job<S::State>>,
    stats: &mut ExploreStats,
) {
    if !sh.frontier_spill {
        return;
    }
    let Some(store) = &sh.visited.spill else {
        return;
    };
    while local.is_empty() {
        match store.pop_frontier() {
            FrontierLoad::Empty => return,
            FrontierLoad::Jobs(saved) => {
                let mut lost = 0u64;
                for sj in saved {
                    match catch_unwind(AssertUnwindSafe(|| replay_state(sh.sys, &sj.path))) {
                        Ok(Ok(st)) => local.push_back(Job {
                            st,
                            depth: sj.path.len(),
                            sleep: sj.sleep,
                            attempt: 0,
                            revisit: sj.revisit,
                            path: arc_path(&sj.path),
                        }),
                        _ => lost += 1,
                    }
                }
                if lost > 0 {
                    sh.pending.fetch_sub(lost as usize, Ordering::SeqCst);
                    stats.truncated = true;
                    stats
                        .warnings
                        .push(ExploreWarning::SpillFrontierLost { jobs: lost });
                    sh.cv.notify_all();
                }
            }
            FrontierLoad::Lost(n) => {
                sh.pending.fetch_sub(n as usize, Ordering::SeqCst);
                stats.truncated = true;
                stats
                    .warnings
                    .push(ExploreWarning::SpillFrontierLost { jobs: n });
                sh.cv.notify_all();
            }
        }
    }
}

fn worker_loop<S: TransitionSystem>(sh: &Shared<S>, stats: &mut ExploreStats) {
    let mut local: VecDeque<Job<S::State>> = VecDeque::new();
    let mut last_save = sh.start;
    loop {
        if local.is_empty() {
            maybe_reload_frontier(sh, &mut local, stats);
        }
        let Some(job) = next_job(sh, &mut local) else {
            break;
        };
        process(sh, job, &mut local, stats);
        if sh.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            sh.cv.notify_all();
        }
        maybe_save(sh, &local, stats, &mut last_save);
        maybe_spill_frontier(sh, &mut local);
    }
    // On a durable stop the private frontier must survive into the
    // final checkpoint.
    if sh.durable && !local.is_empty() {
        relock(&sh.queue).extend(local.drain(..));
    }
}

// ---------------------------------------------------------------------------
// Run setup (fresh or resumed)
// ---------------------------------------------------------------------------

struct RoundInit<S: TransitionSystem> {
    visited: Visited<S::State>,
    jobs: Vec<Job<S::State>>,
    behaviors: BTreeSet<S::Behavior>,
    behavior_log: Vec<SavedBehavior>,
    base: SavedCounters,
    warnings: Vec<ExploreWarning>,
    /// Spill manifest from the resumed checkpoint (shard count at save
    /// time plus the segment list); empty for fresh runs.
    spill_manifest: (u32, Vec<SpillSeg>),
}

fn fresh_init<S: TransitionSystem>(sys: &S, cfg: &ExploreConfig) -> RoundInit<S> {
    RoundInit {
        visited: Visited::new(cfg.visited, cfg.shards),
        jobs: vec![Job {
            st: sys.initial_state(),
            depth: 0,
            sleep: 0,
            attempt: 0,
            revisit: false,
            path: None,
        }],
        behaviors: BTreeSet::new(),
        behavior_log: Vec::new(),
        base: SavedCounters::default(),
        warnings: Vec::new(),
        spill_manifest: (0, Vec::new()),
    }
}

fn restore_init<S: TransitionSystem>(
    sys: &S,
    cfg: &ExploreConfig,
    data: &CheckpointData,
) -> Result<RoundInit<S>, CorruptReason> {
    if fp64(&sys.initial_state()) != data.digest {
        return Err(CorruptReason::SystemMismatch);
    }
    let (visited, warn) = Visited::restore(cfg.visited, cfg.shards, data);
    let mut jobs = Vec::with_capacity(data.frontier.len());
    for sj in &data.frontier {
        let st = replay_state(sys, &sj.path).map_err(CorruptReason::ReplayFailed)?;
        jobs.push(Job {
            st,
            depth: sj.path.len(),
            sleep: sj.sleep,
            attempt: 0,
            revisit: sj.revisit,
            path: arc_path(&sj.path),
        });
    }
    let mut behaviors = BTreeSet::new();
    for sb in &data.behaviors {
        behaviors.insert(replay_behavior(sys, sb).map_err(CorruptReason::ReplayFailed)?);
    }
    Ok(RoundInit {
        visited,
        jobs,
        behaviors,
        behavior_log: data.behaviors.clone(),
        base: data.counters,
        warnings: warn.into_iter().collect(),
        spill_manifest: (data.spill_shards, data.spill.clone()),
    })
}

/// Loads `cfg.resume` if set; any failure (unreadable, corrupt, wrong
/// system, replay mismatch, or a panic during replay) falls back to a
/// fresh run with a warning.
fn build_init<S: TransitionSystem>(
    sys: &S,
    cfg: &ExploreConfig,
    stats: &mut ExploreStats,
) -> RoundInit<S> {
    let Some(path) = &cfg.resume else {
        return fresh_init(sys, cfg);
    };
    let data = match checkpoint::load(path) {
        Err(message) => {
            stats.warnings.push(ExploreWarning::ResumeUnreadable {
                path: path.clone(),
                message,
            });
            return fresh_init(sys, cfg);
        }
        Ok(Err(reason)) => {
            stats.warnings.push(ExploreWarning::ResumeCorrupt {
                path: path.clone(),
                reason,
            });
            return fresh_init(sys, cfg);
        }
        Ok(Ok(d)) => d,
    };
    match catch_unwind(AssertUnwindSafe(|| restore_init(sys, cfg, &data))) {
        Ok(Ok(mut init)) => {
            stats.resumed = true;
            stats.warnings.append(&mut init.warnings);
            init
        }
        Ok(Err(reason)) => {
            stats.warnings.push(ExploreWarning::ResumeCorrupt {
                path: path.clone(),
                reason,
            });
            fresh_init(sys, cfg)
        }
        Err(_) => {
            stats.warnings.push(ExploreWarning::ResumeCorrupt {
                path: path.clone(),
                reason: CorruptReason::ReplayFailed("panic during replay"),
            });
            fresh_init(sys, cfg)
        }
    }
}

// ---------------------------------------------------------------------------
// Round and strategy drivers
// ---------------------------------------------------------------------------

/// One exhaustive round (DFS/BFS/one deepening step) at a fixed depth
/// limit, accumulating into `stats`.
/// Opens the configured spill store and attaches it to the round's
/// visited set. Resumed runs re-adopt the checkpoint's manifest
/// (identity-checked segment by segment); fresh runs clear any stale
/// segments left in the directory. Without a spill config, a non-empty
/// manifest is reported and its segments treated as unvisited (sound:
/// re-exploration only).
fn attach_spill<S: TransitionSystem>(
    sys: &S,
    cfg: &ExploreConfig,
    init: &mut RoundInit<S>,
    stats: &mut ExploreStats,
) {
    let manifest = std::mem::take(&mut init.spill_manifest);
    let Some(spec) = &cfg.spill else {
        if !manifest.1.is_empty() {
            stats.warnings.push(ExploreWarning::SpillIgnored {
                segments: manifest.1.len(),
            });
        }
        return;
    };
    let digest = fp64(&sys.initial_state());
    let trigger = spec.budget.or(cfg.max_memory).unwrap_or(64 << 20);
    let store = SpillStore::open(
        spec,
        cfg.shards.max(1),
        digest,
        trigger,
        #[cfg(feature = "fault-injection")]
        cfg.fault.clone(),
    );
    let store = match store {
        Ok(s) => s,
        Err(message) => {
            stats.warnings.push(ExploreWarning::SpillFailed { message });
            return;
        }
    };
    if stats.resumed {
        store.adopt(manifest.0, &manifest.1, &mut stats.warnings);
    } else {
        store.prune_except(&[]);
    }
    init.visited.spill = Some(store);
}

fn run_round<S: TransitionSystem>(
    sys: &S,
    cfg: &ExploreConfig,
    depth_limit: usize,
    start: Instant,
    init: RoundInit<S>,
    stats: &mut ExploreStats,
) -> (BTreeSet<S::Behavior>, bool) {
    let durable = cfg.checkpoint.is_some();
    let frontier_spill = init.visited.spill.is_some()
        && cfg.workers.max(1) == 1
        && matches!(cfg.strategy, Strategy::Dfs);
    let base = init.base;
    let njobs = init.jobs.len();
    let sh = Shared {
        sys,
        cfg,
        visited: init.visited,
        queue: Mutex::new(init.jobs.into_iter().collect()),
        cv: Condvar::new(),
        pending: AtomicUsize::new(njobs),
        stop: AtomicBool::new(false),
        stop_reason: AtomicU8::new(StopReason::Completed.as_u8()),
        drain: AtomicBool::new(false),
        depth_truncated: AtomicBool::new(false),
        states_total: AtomicUsize::new(0),
        behaviors: Mutex::new(init.behaviors),
        behavior_log: Mutex::new(init.behavior_log),
        depth_limit,
        start,
        durable,
        digest: if durable {
            fp64(&sys.initial_state())
        } else {
            0
        },
        base,
        frontier_spill,
    };

    let workers = cfg.workers.max(1);
    let mut per_worker: Vec<ExploreStats> = (0..workers).map(|_| ExploreStats::default()).collect();
    if workers == 1 {
        if let Some(ws) = per_worker.first_mut() {
            worker_loop(&sh, ws);
        }
    } else {
        std::thread::scope(|scope| {
            for ws in per_worker.iter_mut() {
                scope.spawn(|| worker_loop(&sh, ws));
            }
        });
    }

    for ws in &per_worker {
        // Fold fresh (non-resumed) work into the process-wide counters
        // before checkpoint base counters are re-added below.
        crate::counters::record_explore(ws);
        stats.merge(ws);
        stats.worker_states.push(ws.states);
    }
    let reason = StopReason::from_u8(sh.stop_reason.load(Ordering::SeqCst));
    if reason != StopReason::Completed {
        stats.truncated = true;
        if reason == StopReason::DeadlineExpired {
            stats.deadline_hit = true;
        }
        if stats.stop == StopReason::Completed {
            stats.stop = reason;
        }
    }
    add_base(stats, &base);
    let depth_hit = sh.depth_truncated.load(Ordering::SeqCst);
    // An interrupted durable run keeps its visited spill segments on
    // disk: the final checkpoint's manifest references them and a
    // resume re-adopts them. Completed (or non-durable) runs delete
    // everything live; quarantined files always stay for inspection.
    let keep_spill = durable && reason != StopReason::Completed;
    if let Some(spec) = &cfg.checkpoint {
        let (data, _) = snapshot(
            &sh,
            &VecDeque::new(),
            counters_from(&SavedCounters::default(), stats),
            true,
            keep_spill,
        );
        match checkpoint::save(&spec.path, &data) {
            Ok(()) => stats.checkpoint_saves += 1,
            Err(w) => stats.warnings.push(w),
        }
    }
    if let Some(store) = &sh.visited.spill {
        let c = store.counters();
        stats.spill_shards += c.shards;
        stats.spill_bytes += c.bytes;
        stats.spill_probes += c.probes;
        stats.spill_hits += c.hits;
        stats.spill_quarantined += c.quarantined;
        crate::counters::add(&crate::counters::SPILL_SHARDS, c.shards);
        crate::counters::add(&crate::counters::SPILL_BYTES, c.bytes);
        crate::counters::add(&crate::counters::SPILL_PROBES, c.probes);
        crate::counters::add(&crate::counters::SPILL_HITS, c.hits);
        if c.frontier_lost > 0 {
            stats.truncated = true;
        }
        stats.warnings.extend(store.drain_events());
        if keep_spill {
            store.drop_frontier();
        } else {
            store.cleanup();
        }
    }
    let behaviors = sh
        .behaviors
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    (behaviors, depth_hit)
}

fn run_random_walks<S: TransitionSystem>(
    sys: &S,
    cfg: &ExploreConfig,
    walks: usize,
    seed: u64,
    start: Instant,
) -> ExploreResult<S::Behavior> {
    let mut behaviors: BTreeSet<S::Behavior> = BTreeSet::new();
    let mut stats = ExploreStats {
        workers: cfg.workers.max(1),
        // Walks revisit states freely; exhaustiveness is not the goal.
        truncated: true,
        ..ExploreStats::default()
    };
    'walks: for w in 0..walks {
        let mut rng = SplitMix64::new(seed ^ mix64(w as u64 + 1));
        let mut st = sys.initial_state();
        for _ in 0..cfg.max_depth {
            if cfg.deadline.is_some_and(|d| start.elapsed() >= d) {
                stats.deadline_hit = true;
                stats.stop = StopReason::DeadlineExpired;
                break 'walks;
            }
            if let Some(b) = sys.terminal_behavior(&st) {
                behaviors.insert(b);
                break;
            }
            stats.states += 1;
            let mut succs: Vec<S::State> = Vec::new();
            let groups = sys.agent_groups(&st);
            for g in &groups {
                for t in &g.transitions {
                    stats.transitions += 1;
                    if t.tags.racy {
                        stats.racy_steps += 1;
                    }
                    if t.tags.promise {
                        stats.promise_steps += 1;
                    }
                    match &t.target {
                        Target::Behavior(b) => {
                            behaviors.insert(b.clone());
                        }
                        Target::Pruned => stats.pruned += 1,
                        Target::State(s) => succs.push(s.clone()),
                    }
                }
            }
            if succs.is_empty() {
                break;
            }
            st = succs[rng.below(succs.len())].clone();
        }
    }
    stats.elapsed = start.elapsed();
    crate::counters::record_explore(&stats);
    ExploreResult { behaviors, stats }
}

fn validate(cfg: &ExploreConfig) -> Result<(), ExploreError> {
    if cfg.checkpoint.is_some() || cfg.resume.is_some() || cfg.spill.is_some() {
        match cfg.strategy {
            Strategy::Dfs | Strategy::Bfs => {}
            _ => {
                return Err(ExploreError::UnsupportedStrategy {
                    strategy: format!("{:?}", cfg.strategy),
                })
            }
        }
    }
    if let Some(spec) = &cfg.checkpoint {
        if spec.path.as_os_str().is_empty() {
            return Err(ExploreError::InvalidConfig {
                message: "empty checkpoint path".into(),
            });
        }
    }
    if let Some(spec) = &cfg.spill {
        if spec.dir.as_os_str().is_empty() {
            return Err(ExploreError::InvalidConfig {
                message: "empty spill directory".into(),
            });
        }
    }
    Ok(())
}

/// Runs a validated configuration.
fn run<S: TransitionSystem>(sys: &S, cfg: &ExploreConfig) -> ExploreResult<S::Behavior> {
    let start = Instant::now();
    match cfg.strategy.clone() {
        Strategy::Dfs | Strategy::Bfs => {
            let mut stats = ExploreStats {
                workers: cfg.workers.max(1),
                ..ExploreStats::default()
            };
            let mut init = build_init(sys, cfg, &mut stats);
            attach_spill(sys, cfg, &mut init, &mut stats);
            let (behaviors, _) = run_round(sys, cfg, cfg.max_depth, start, init, &mut stats);
            stats.elapsed = start.elapsed();
            ExploreResult { behaviors, stats }
        }
        Strategy::IterativeDeepening { initial, step } => {
            let mut stats = ExploreStats {
                workers: cfg.workers.max(1),
                ..ExploreStats::default()
            };
            let mut behaviors = BTreeSet::new();
            let mut limit = initial.max(1).min(cfg.max_depth);
            loop {
                stats.truncated = false;
                let mut init = fresh_init(sys, cfg);
                init.behaviors = behaviors;
                let (b, depth_hit) = run_round(sys, cfg, limit, start, init, &mut stats);
                behaviors = b;
                if !depth_hit || limit >= cfg.max_depth || stats.deadline_hit {
                    break;
                }
                limit = limit.saturating_add(step.max(1)).min(cfg.max_depth);
            }
            stats.elapsed = start.elapsed();
            ExploreResult { behaviors, stats }
        }
        Strategy::RandomWalk { walks, seed } => run_random_walks(sys, cfg, walks, seed, start),
    }
}

/// Explores `sys` under `cfg`. Fails only on caller misconfiguration
/// ([`ExploreError`]); every mid-run degradation is reported through
/// [`ExploreStats`] instead.
pub fn try_explore<S: TransitionSystem>(
    sys: &S,
    cfg: &ExploreConfig,
) -> Result<ExploreResult<S::Behavior>, ExploreError> {
    validate(cfg)?;
    Ok(run(sys, cfg))
}

/// Explores `sys` under `cfg`, returning the behavior set and stats.
/// Infallible: an unusable durability request is dropped with a
/// [`DurabilityIgnored`](ExploreWarning::DurabilityIgnored) warning
/// (use [`try_explore`] to make it an error).
pub fn explore<S: TransitionSystem>(sys: &S, cfg: &ExploreConfig) -> ExploreResult<S::Behavior> {
    match validate(cfg) {
        Ok(()) => run(sys, cfg),
        Err(e) => {
            let mut stripped = cfg.clone();
            stripped.checkpoint = None;
            stripped.resume = None;
            stripped.spill = None;
            let mut r = run(sys, &stripped);
            r.stats.warnings.push(ExploreWarning::DurabilityIgnored {
                message: e.to_string(),
            });
            r
        }
    }
}

// Internal marker so the unused helper above never bitrots silently.
#[allow(dead_code)]
fn _assert_send_sync<T: Send + Sync>() {}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::system::{AgentGroup, StepTags, Transition};

    /// Panic payload for intentional test panics; the quiet hook
    /// filters it so fault tests don't spew backtraces.
    struct TestBoom;

    fn quiet_panics() {
        use std::sync::OnceLock;
        static INSTALLED: OnceLock<()> = OnceLock::new();
        INSTALLED.get_or_init(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let quiet = info.payload().is::<TestBoom>();
                #[cfg(feature = "fault-injection")]
                let quiet = quiet || info.payload().is::<crate::fault::InjectedFault>();
                if !quiet {
                    prev(info);
                }
            }));
        });
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("seqwm-engine-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// N agents, each incrementing a private counter to `limit`. All
    /// steps are local, so ample reduction collapses the interleaving
    /// product (limit+1)^N to a single line per agent.
    struct Counters {
        agents: usize,
        limit: u8,
    }

    impl TransitionSystem for Counters {
        type State = Vec<u8>;
        type Behavior = Vec<u8>;

        fn initial_state(&self) -> Vec<u8> {
            vec![0; self.agents]
        }

        fn agent_groups(&self, st: &Vec<u8>) -> Vec<AgentGroup<Vec<u8>, Vec<u8>>> {
            (0..self.agents)
                .filter(|&i| st[i] < self.limit)
                .map(|i| {
                    let mut next = st.clone();
                    next[i] += 1;
                    AgentGroup {
                        agent: i,
                        transitions: vec![Transition::state(next)],
                        shared_pure: true,
                        local: true,
                        na_write: None,
                        shared_read: None,
                        atomic_write: None,
                    }
                })
                .collect()
        }

        fn terminal_behavior(&self, st: &Vec<u8>) -> Option<Vec<u8>> {
            st.iter().all(|&c| c == self.limit).then(|| st.clone())
        }
    }

    /// Two agents racing on one shared cell: agent 0 reads it (pure
    /// but NOT local), agent 1 writes 1 (neither). The behavior set
    /// {(0,·),(1,·)} must survive reduction — this is exactly the
    /// read-vs-write case where treating a pure read as ample-able
    /// would lose a behavior.
    struct ReadVsWrite;

    /// State: (agent0 result or 255, agent1 done, cell).
    impl TransitionSystem for ReadVsWrite {
        type State = (u8, bool, u8);
        type Behavior = (u8, u8);

        fn initial_state(&self) -> Self::State {
            (255, false, 0)
        }

        fn agent_groups(&self, st: &Self::State) -> Vec<AgentGroup<Self::State, Self::Behavior>> {
            let mut out = Vec::new();
            if st.0 == 255 {
                out.push(AgentGroup {
                    agent: 0,
                    transitions: vec![Transition::state((st.2, st.1, st.2))],
                    shared_pure: true,
                    local: false,
                    na_write: None,
                    shared_read: None,
                    atomic_write: None,
                });
            }
            if !st.1 {
                out.push(AgentGroup {
                    agent: 1,
                    transitions: vec![Transition::state((st.0, true, 1))],
                    shared_pure: false,
                    local: false,
                    na_write: None,
                    shared_read: None,
                    atomic_write: None,
                });
            }
            out
        }

        fn terminal_behavior(&self, st: &Self::State) -> Option<Self::Behavior> {
            (st.0 != 255 && st.1).then_some((st.0, st.2))
        }
    }

    /// A chain emitting a tagged behavior halfway: checks emission
    /// collection and tag counting.
    struct EmitChain;

    impl TransitionSystem for EmitChain {
        type State = u8;
        type Behavior = &'static str;

        fn initial_state(&self) -> u8 {
            0
        }

        fn agent_groups(&self, st: &u8) -> Vec<AgentGroup<u8, &'static str>> {
            if *st >= 3 {
                return vec![];
            }
            let mut transitions = vec![Transition::state(st + 1)];
            if *st == 1 {
                transitions.push(Transition {
                    target: Target::Behavior("ub"),
                    tags: StepTags {
                        racy: true,
                        promise: false,
                    },
                });
                transitions.push(Transition {
                    target: Target::Pruned,
                    tags: StepTags {
                        racy: false,
                        promise: true,
                    },
                });
            }
            vec![AgentGroup {
                agent: 0,
                transitions,
                shared_pure: false,
                local: false,
                na_write: None,
                shared_read: None,
                atomic_write: None,
            }]
        }

        fn terminal_behavior(&self, st: &u8) -> Option<&'static str> {
            (*st == 3).then_some("done")
        }
    }

    /// Wraps `Counters` and panics (via `TestBoom`) when expanding the
    /// given state: the first `transient` attempts if finite, every
    /// attempt otherwise.
    struct PanicOn {
        inner: Counters,
        victim: Vec<u8>,
        transient: Option<usize>,
        hits: AtomicUsize,
    }

    impl TransitionSystem for PanicOn {
        type State = Vec<u8>;
        type Behavior = Vec<u8>;

        fn initial_state(&self) -> Vec<u8> {
            self.inner.initial_state()
        }

        fn agent_groups(&self, st: &Vec<u8>) -> Vec<AgentGroup<Vec<u8>, Vec<u8>>> {
            if *st == self.victim {
                let n = self.hits.fetch_add(1, Ordering::SeqCst);
                if self.transient.is_none_or(|k| n < k) {
                    std::panic::panic_any(TestBoom);
                }
            }
            self.inner.agent_groups(st)
        }

        fn terminal_behavior(&self, st: &Vec<u8>) -> Option<Vec<u8>> {
            self.inner.terminal_behavior(st)
        }
    }

    fn cfg(workers: usize, reduction: bool) -> ExploreConfig {
        ExploreConfig {
            workers,
            reduction,
            ..ExploreConfig::default()
        }
    }

    #[test]
    fn counters_single_behavior_all_modes() {
        let sys = Counters {
            agents: 3,
            limit: 3,
        };
        let want: BTreeSet<Vec<u8>> = [vec![3, 3, 3]].into_iter().collect();
        for workers in [1, 2, 4] {
            for reduction in [false, true] {
                let r = explore(&sys, &cfg(workers, reduction));
                assert_eq!(r.behaviors, want, "workers={workers} reduction={reduction}");
                assert!(!r.stats.truncated);
                assert_eq!(r.stats.stop, StopReason::Completed);
                assert!(r.stats.fault_free());
            }
        }
    }

    #[test]
    fn ample_reduction_collapses_independent_agents() {
        let sys = Counters {
            agents: 4,
            limit: 3,
        };
        let full = explore(&sys, &cfg(1, false));
        let reduced = explore(&sys, &cfg(1, true));
        assert_eq!(full.behaviors, reduced.behaviors);
        // Full product: 4^4 = 256 states. Reduced: one agent at a time
        // → 13 states. Any measurable reduction proves the machinery.
        assert_eq!(full.stats.states, 256);
        assert!(
            reduced.stats.states * 4 < full.stats.states,
            "reduced {} vs full {}",
            reduced.stats.states,
            full.stats.states
        );
        assert!(reduced.stats.ample_commits > 0);
    }

    #[test]
    fn reduction_keeps_read_write_race_behaviors() {
        let want: BTreeSet<(u8, u8)> = [(0, 1), (1, 1)].into_iter().collect();
        for workers in [1, 4] {
            for reduction in [false, true] {
                let r = explore(&ReadVsWrite, &cfg(workers, reduction));
                assert_eq!(r.behaviors, want, "workers={workers} reduction={reduction}");
            }
        }
    }

    /// N agents each performing `limit` non-atomic writes to a
    /// location of their own (`conflict: false`) or to one shared
    /// location (`conflict: true`). Groups are neither shared-pure nor
    /// local, so any reduction must come from the `na_write` rule.
    struct NaWriters {
        agents: usize,
        limit: u8,
        conflict: bool,
    }

    impl TransitionSystem for NaWriters {
        type State = Vec<u8>;
        type Behavior = Vec<u8>;

        fn initial_state(&self) -> Vec<u8> {
            vec![0; self.agents]
        }

        fn agent_groups(&self, st: &Vec<u8>) -> Vec<AgentGroup<Vec<u8>, Vec<u8>>> {
            (0..self.agents)
                .filter(|&i| st[i] < self.limit)
                .map(|i| {
                    let mut next = st.clone();
                    next[i] += 1;
                    let loc = if self.conflict { 0 } else { i };
                    AgentGroup {
                        agent: i,
                        transitions: vec![Transition::state(next)],
                        shared_pure: false,
                        local: false,
                        na_write: Some(fp64(&loc)),
                        shared_read: None,
                        atomic_write: None,
                    }
                })
                .collect()
        }

        fn terminal_behavior(&self, st: &Vec<u8>) -> Option<Vec<u8>> {
            st.iter().all(|&c| c == self.limit).then(|| st.clone())
        }
    }

    #[test]
    fn na_write_commutation_prunes_redundant_interleavings() {
        let sys = NaWriters {
            agents: 4,
            limit: 3,
            conflict: false,
        };
        let full = explore(&sys, &cfg(1, false));
        let reduced = explore(&sys, &cfg(1, true));
        assert_eq!(full.behaviors, reduced.behaviors);
        // Distinct-location NA writes form a product grid: every state
        // stays reachable (4^4 = 256), but sleep sets cut the
        // duplicate arrivals and the transitions enumerated.
        assert_eq!(full.stats.states, 256);
        assert_eq!(reduced.stats.states, 256);
        assert!(reduced.stats.na_commutes > 0);
        assert_eq!(reduced.stats.ample_commits, 0, "nothing is local here");
        assert!(reduced.stats.sleep_skips > 0);
        assert!(
            reduced.stats.dedup_hits * 2 < full.stats.dedup_hits,
            "reduced {} vs full {}",
            reduced.stats.dedup_hits,
            full.stats.dedup_hits
        );
        assert!(reduced.stats.transitions < full.stats.transitions);
    }

    #[test]
    fn same_location_na_writes_do_not_commute() {
        let sys = NaWriters {
            agents: 3,
            limit: 2,
            conflict: true,
        };
        let full = explore(&sys, &cfg(1, false));
        let reduced = explore(&sys, &cfg(1, true));
        assert_eq!(full.behaviors, reduced.behaviors);
        assert_eq!(reduced.stats.na_commutes, 0);
        assert_eq!(reduced.stats.sleep_skips, 0);
        assert_eq!(reduced.stats.states, full.stats.states);
        assert_eq!(reduced.stats.transitions, full.stats.transitions);
    }

    #[test]
    fn na_writer_does_not_put_pure_readers_to_sleep() {
        // Agent 0 purely reads the cell; agent 1 writes it
        // non-atomically. If the NA rule unsoundly granted
        // write-vs-read commutation, the read-before-write behavior
        // (0, 1) would be lost under reduction.
        struct NaWriteVsRead;
        impl TransitionSystem for NaWriteVsRead {
            type State = (u8, bool, u8);
            type Behavior = (u8, u8);
            fn initial_state(&self) -> Self::State {
                (255, false, 0)
            }
            fn agent_groups(
                &self,
                st: &Self::State,
            ) -> Vec<AgentGroup<Self::State, Self::Behavior>> {
                let mut out = Vec::new();
                if st.0 == 255 {
                    out.push(AgentGroup {
                        agent: 0,
                        transitions: vec![Transition::state((st.2, st.1, st.2))],
                        shared_pure: true,
                        local: false,
                        na_write: None,
                        shared_read: Some(fp64(&0)),
                        atomic_write: None,
                    });
                }
                if !st.1 {
                    out.push(AgentGroup {
                        agent: 1,
                        transitions: vec![Transition::state((st.0, true, 1))],
                        shared_pure: false,
                        local: false,
                        na_write: Some(fp64(&0)),
                        shared_read: None,
                        atomic_write: None,
                    });
                }
                out
            }
            fn terminal_behavior(&self, st: &Self::State) -> Option<Self::Behavior> {
                (st.0 != 255 && st.1).then_some((st.0, st.2))
            }
        }
        let want: BTreeSet<(u8, u8)> = [(0, 1), (1, 1)].into_iter().collect();
        for reduction in [false, true] {
            let r = explore(&NaWriteVsRead, &cfg(1, reduction));
            assert_eq!(r.behaviors, want, "reduction={reduction}");
        }
    }

    #[test]
    fn pure_reader_does_not_put_na_writer_to_sleep() {
        // The symmetric direction of the test above (the asymmetry
        // noted in the sleep-propagation docs): here the *writer* is
        // agent 0 and is enumerated first, so it is the
        // earlier-expanded sibling when the reader's grants are
        // computed. If the relation unsoundly commuted a same-location
        // read/write pair in this direction, the writer would sleep in
        // the reader's subtree and the write-after-read behavior
        // (0, 1) would be lost.
        struct ReadVsNaWrite;
        impl TransitionSystem for ReadVsNaWrite {
            type State = (u8, bool, u8);
            type Behavior = (u8, u8);
            fn initial_state(&self) -> Self::State {
                (255, false, 0)
            }
            fn agent_groups(
                &self,
                st: &Self::State,
            ) -> Vec<AgentGroup<Self::State, Self::Behavior>> {
                let mut out = Vec::new();
                if !st.1 {
                    out.push(AgentGroup {
                        agent: 0,
                        transitions: vec![Transition::state((st.0, true, 1))],
                        shared_pure: false,
                        local: false,
                        na_write: Some(fp64(&0)),
                        shared_read: None,
                        atomic_write: None,
                    });
                }
                if st.0 == 255 {
                    out.push(AgentGroup {
                        agent: 1,
                        transitions: vec![Transition::state((st.2, st.1, st.2))],
                        shared_pure: true,
                        local: false,
                        na_write: None,
                        shared_read: Some(fp64(&0)),
                        atomic_write: None,
                    });
                }
                out
            }
            fn terminal_behavior(&self, st: &Self::State) -> Option<Self::Behavior> {
                (st.0 != 255 && st.1).then_some((st.0, st.2))
            }
        }
        let want: BTreeSet<(u8, u8)> = [(0, 1), (1, 1)].into_iter().collect();
        for reduction in [false, true] {
            let r = explore(&ReadVsNaWrite, &cfg(1, reduction));
            assert_eq!(r.behaviors, want, "reduction={reduction}");
        }
    }

    #[test]
    fn distinct_location_read_and_write_commute() {
        // Reader on location 1, NA writer on location 0: the pair is
        // independent via the read rule, so reduction must fire
        // (read_commutes > 0) while preserving the single behavior.
        struct DisjointReadWrite;
        impl TransitionSystem for DisjointReadWrite {
            type State = (u8, bool);
            type Behavior = (u8, bool);
            fn initial_state(&self) -> Self::State {
                (255, false)
            }
            fn agent_groups(
                &self,
                st: &Self::State,
            ) -> Vec<AgentGroup<Self::State, Self::Behavior>> {
                let mut out = Vec::new();
                if st.0 == 255 {
                    out.push(AgentGroup {
                        agent: 0,
                        // Reads location 1, which is constantly 7.
                        transitions: vec![Transition::state((7, st.1))],
                        shared_pure: true,
                        local: false,
                        na_write: None,
                        shared_read: Some(fp64(&1)),
                        atomic_write: None,
                    });
                }
                if !st.1 {
                    out.push(AgentGroup {
                        agent: 1,
                        transitions: vec![Transition::state((st.0, true))],
                        shared_pure: false,
                        local: false,
                        na_write: Some(fp64(&0)),
                        shared_read: None,
                        atomic_write: None,
                    });
                }
                out
            }
            fn terminal_behavior(&self, st: &Self::State) -> Option<Self::Behavior> {
                (st.0 != 255 && st.1).then_some(*st)
            }
        }
        let full = explore(&DisjointReadWrite, &cfg(1, false));
        let reduced = explore(&DisjointReadWrite, &cfg(1, true));
        assert_eq!(full.behaviors, reduced.behaviors);
        assert!(reduced.stats.read_commutes > 0);
        assert!(reduced.stats.sleep_skips > 0);
        // With the read rule switched off the pair is treated as
        // dependent again: no read grants, same behaviors.
        let mut no_read = cfg(1, true);
        no_read.rules.shared_read = false;
        let r = explore(&DisjointReadWrite, &no_read);
        assert_eq!(r.behaviors, full.behaviors);
        assert_eq!(r.stats.read_commutes, 0);
    }

    #[test]
    fn atomic_write_rule_commutes_distinct_locations_when_enabled() {
        // Like `NaWriters` but claiming `atomic_write`: the systems
        // that may claim it guarantee canonical state equality, which
        // this toy system satisfies trivially (its state is the
        // counter vector). The rule must prune like the NA rule and
        // switch off independently.
        struct AtomicWriters;
        impl TransitionSystem for AtomicWriters {
            type State = Vec<u8>;
            type Behavior = Vec<u8>;
            fn initial_state(&self) -> Vec<u8> {
                vec![0; 3]
            }
            fn agent_groups(&self, st: &Vec<u8>) -> Vec<AgentGroup<Vec<u8>, Vec<u8>>> {
                (0..3)
                    .filter(|&i| st[i] < 2)
                    .map(|i| {
                        let mut next = st.clone();
                        next[i] += 1;
                        AgentGroup {
                            agent: i,
                            transitions: vec![Transition::state(next)],
                            shared_pure: false,
                            local: false,
                            na_write: None,
                            shared_read: None,
                            atomic_write: Some(fp64(&i)),
                        }
                    })
                    .collect()
            }
            fn terminal_behavior(&self, st: &Vec<u8>) -> Option<Vec<u8>> {
                st.iter().all(|&c| c == 2).then(|| st.clone())
            }
        }
        let full = explore(&AtomicWriters, &cfg(1, false));
        let reduced = explore(&AtomicWriters, &cfg(1, true));
        assert_eq!(full.behaviors, reduced.behaviors);
        assert!(reduced.stats.atomic_commutes > 0);
        assert_eq!(reduced.stats.na_commutes, 0);
        assert!(reduced.stats.transitions < full.stats.transitions);
        let mut no_atomic = cfg(1, true);
        no_atomic.rules.atomic_write = false;
        let r = explore(&AtomicWriters, &no_atomic);
        assert_eq!(r.behaviors, full.behaviors);
        assert_eq!(r.stats.atomic_commutes, 0);
        assert_eq!(r.stats.transitions, full.stats.transitions);
    }

    #[test]
    fn emissions_and_tags_are_counted() {
        let r = explore(&EmitChain, &cfg(1, false));
        let want: BTreeSet<&str> = ["ub", "done"].into_iter().collect();
        assert_eq!(r.behaviors, want);
        assert_eq!(r.stats.racy_steps, 1);
        assert_eq!(r.stats.promise_steps, 1);
        assert_eq!(r.stats.pruned, 1);
        assert_eq!(r.stats.states, 4);
    }

    #[test]
    fn state_budget_drains_frontier_terminals() {
        // A 2-wide diamond: budget of 2 stops after expanding the root
        // and one branch, but the other branch's terminal must still
        // be collected by the drain pass.
        struct Diamond;
        impl TransitionSystem for Diamond {
            type State = u8;
            type Behavior = u8;
            fn initial_state(&self) -> u8 {
                0
            }
            fn agent_groups(&self, st: &u8) -> Vec<AgentGroup<u8, u8>> {
                if *st == 0 {
                    vec![AgentGroup {
                        agent: 0,
                        transitions: vec![Transition::state(1), Transition::state(2)],
                        shared_pure: false,
                        local: false,
                        na_write: None,
                        shared_read: None,
                        atomic_write: None,
                    }]
                } else {
                    vec![]
                }
            }
            fn terminal_behavior(&self, st: &u8) -> Option<u8> {
                (*st > 0).then_some(*st)
            }
        }
        let r = explore(
            &Diamond,
            &ExploreConfig {
                max_states: 2,
                ..ExploreConfig::default()
            },
        );
        assert!(r.stats.truncated);
        assert_eq!(r.stats.stop, StopReason::StateBudget);
        let want: BTreeSet<u8> = [1, 2].into_iter().collect();
        assert_eq!(r.behaviors, want, "frontier terminals were dropped");
    }

    #[test]
    fn bfs_and_iterative_deepening_agree_with_dfs() {
        let sys = Counters {
            agents: 2,
            limit: 4,
        };
        let dfs = explore(&sys, &cfg(1, true));
        for strategy in [
            Strategy::Bfs,
            Strategy::IterativeDeepening {
                initial: 2,
                step: 2,
            },
        ] {
            let r = explore(
                &sys,
                &ExploreConfig {
                    strategy: strategy.clone(),
                    ..cfg(2, true)
                },
            );
            assert_eq!(r.behaviors, dfs.behaviors, "{strategy:?}");
            assert!(!r.stats.truncated, "{strategy:?}");
        }
    }

    #[test]
    fn random_walks_reach_the_terminal() {
        let sys = Counters {
            agents: 2,
            limit: 2,
        };
        let r = explore(
            &sys,
            &ExploreConfig {
                strategy: Strategy::RandomWalk {
                    walks: 8,
                    seed: 0xDECAF,
                },
                ..ExploreConfig::default()
            },
        );
        assert!(r.behaviors.contains(&vec![2, 2]));
        assert!(r.stats.truncated, "walks are never exhaustive");
    }

    #[test]
    fn visited_modes_agree() {
        let sys = Counters {
            agents: 3,
            limit: 2,
        };
        let base = explore(&sys, &cfg(1, true));
        for mode in [VisitedMode::Fp128, VisitedMode::Exact] {
            let r = explore(
                &sys,
                &ExploreConfig {
                    visited: mode,
                    ..cfg(1, true)
                },
            );
            assert_eq!(r.behaviors, base.behaviors, "{mode:?}");
            assert_eq!(r.stats.states, base.stats.states, "{mode:?}");
        }
    }

    #[test]
    fn zero_deadline_stops_immediately() {
        let sys = Counters {
            agents: 3,
            limit: 3,
        };
        let r = explore(
            &sys,
            &ExploreConfig {
                deadline: Some(Duration::ZERO),
                workers: 2,
                ..ExploreConfig::default()
            },
        );
        assert!(r.stats.deadline_hit);
        assert!(r.stats.truncated);
        assert_eq!(r.stats.stop, StopReason::DeadlineExpired);
    }

    #[test]
    fn depth_bound_truncates() {
        let sys = Counters {
            agents: 1,
            limit: 10,
        };
        let r = explore(
            &sys,
            &ExploreConfig {
                max_depth: 3,
                ..ExploreConfig::default()
            },
        );
        assert!(r.stats.truncated);
        assert!(r.behaviors.is_empty());
    }

    #[test]
    fn worker_stats_cover_all_states() {
        let sys = Counters {
            agents: 3,
            limit: 3,
        };
        let r = explore(&sys, &cfg(4, false));
        assert_eq!(r.stats.worker_states.len(), 4);
        assert_eq!(r.stats.worker_states.iter().sum::<usize>(), r.stats.states);
    }

    // -- fault tolerance ---------------------------------------------------

    #[test]
    fn transient_panic_is_retried_and_recovered() {
        quiet_panics();
        let want = explore(
            &Counters {
                agents: 2,
                limit: 2,
            },
            &cfg(1, false),
        )
        .behaviors;
        for workers in [1, 4] {
            let sys = PanicOn {
                inner: Counters {
                    agents: 2,
                    limit: 2,
                },
                victim: vec![1, 0],
                transient: Some(1),
                hits: AtomicUsize::new(0),
            };
            let r = explore(&sys, &cfg(workers, false));
            assert_eq!(r.behaviors, want, "workers={workers}");
            assert_eq!(r.stats.incident_count, 1, "workers={workers}");
            assert_eq!(r.stats.retried, 1, "workers={workers}");
            assert_eq!(r.stats.quarantined, 0, "workers={workers}");
            assert!(!r.stats.fault_free());
            assert!(!r.stats.incidents.is_empty());
            assert_eq!(r.stats.incidents[0].kind, IncidentKind::ExpansionPanic);
        }
    }

    #[test]
    fn permanent_panic_quarantines_without_hanging() {
        quiet_panics();
        // 1-agent chain 0→1→2: a permanent panic at [1] quarantines it,
        // losing the terminal but never hanging or crashing the run.
        for workers in [1, 4] {
            let sys = PanicOn {
                inner: Counters {
                    agents: 1,
                    limit: 2,
                },
                victim: vec![1],
                transient: None,
                hits: AtomicUsize::new(0),
            };
            let r = explore(&sys, &cfg(workers, false));
            assert!(r.behaviors.is_empty(), "workers={workers}");
            assert_eq!(r.stats.quarantined, 1, "workers={workers}");
            assert_eq!(r.stats.incident_count, 2, "attempt 0 + 1 retry");
        }
    }

    #[test]
    fn panic_on_one_branch_keeps_other_branches() {
        quiet_panics();
        // Two independent agents; [1,0] is permanently poisoned. The
        // path through [0,1] must still reach the terminal... it can't
        // (all interleavings pass through a poisoned state's subtree
        // only if reachable solely through it). Use 2 agents where the
        // victim is off the only path to SOME behaviors but not all:
        // here every path to [1,1] goes via [1,0] or [0,1], so the
        // terminal survives via [0,1].
        let sys = PanicOn {
            inner: Counters {
                agents: 2,
                limit: 1,
            },
            victim: vec![1, 0],
            transient: None,
            hits: AtomicUsize::new(0),
        };
        let r = explore(&sys, &cfg(1, false));
        let want: BTreeSet<Vec<u8>> = [vec![1, 1]].into_iter().collect();
        assert_eq!(r.behaviors, want, "behavior reachable around the fault");
        assert_eq!(r.stats.quarantined, 1);
    }

    #[test]
    fn reduction_proviso_respects_quarantined_states() {
        quiet_panics();
        // With reduction on, ample sets must not hide behaviors when a
        // state is quarantined: the surviving interleavings still
        // reach the terminal.
        let sys = PanicOn {
            inner: Counters {
                agents: 3,
                limit: 2,
            },
            victim: vec![1, 0, 0],
            transient: Some(1),
            hits: AtomicUsize::new(0),
        };
        let r = explore(&sys, &cfg(1, true));
        let want: BTreeSet<Vec<u8>> = [vec![2, 2, 2]].into_iter().collect();
        assert_eq!(r.behaviors, want);
        assert_eq!(r.stats.quarantined, 0);
        assert_eq!(r.stats.retried, 1);
    }

    #[test]
    fn memory_budget_downgrades_instead_of_aborting() {
        // 64 exact states of Vec<u8> blow a 3.5 kB budget; fp64 fits.
        // The run must complete exactly, two rungs down.
        let sys = Counters {
            agents: 3,
            limit: 3,
        };
        let want = explore(&sys, &cfg(1, false)).behaviors;
        let r = explore(
            &sys,
            &ExploreConfig {
                visited: VisitedMode::Exact,
                max_memory: Some(3500),
                ..cfg(1, false)
            },
        );
        assert_eq!(r.behaviors, want);
        assert_eq!(r.stats.downgrades, 2, "exact→fp128→fp64");
        assert!(!r.stats.truncated);
        assert_eq!(r.stats.stop, StopReason::Completed);
        assert!(r
            .stats
            .warnings
            .iter()
            .any(|w| matches!(w, ExploreWarning::MemoryDowngrade { from: "exact", .. })));
    }

    #[test]
    fn memory_exhaustion_stops_at_last_rung() {
        let sys = Counters {
            agents: 3,
            limit: 3,
        };
        let r = explore(
            &sys,
            &ExploreConfig {
                max_memory: Some(100),
                ..cfg(1, false)
            },
        );
        assert!(r.stats.truncated);
        assert_eq!(r.stats.stop, StopReason::MemoryBudget);
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_run() {
        let sys = Counters {
            agents: 3,
            limit: 3,
        };
        let full = explore(&sys, &cfg(1, true));
        let path = temp_path("resume-equality.ckpt");
        std::fs::remove_file(&path).ok();

        // First leg: interrupt via a tiny state budget.
        let r1 = explore(
            &sys,
            &ExploreConfig {
                max_states: 5,
                checkpoint: Some(CheckpointSpec::new(&path)),
                ..cfg(1, true)
            },
        );
        assert!(r1.stats.truncated);
        assert_eq!(r1.stats.stop, StopReason::StateBudget);
        assert_eq!(r1.stats.checkpoint_saves, 1);

        // Resume legs until the search completes.
        let mut last = None;
        for leg in 0..64 {
            let r = explore(
                &sys,
                &ExploreConfig {
                    max_states: 5,
                    checkpoint: Some(CheckpointSpec::new(&path)),
                    resume: Some(path.clone()),
                    ..cfg(1, true)
                },
            );
            assert!(r.stats.resumed, "leg {leg} did not resume");
            let done = !r.stats.truncated;
            last = Some(r);
            if done {
                break;
            }
        }
        let last = last.unwrap();
        assert!(!last.stats.truncated, "never completed");
        assert_eq!(last.behaviors, full.behaviors);
        assert_eq!(last.stats.states, full.stats.states, "cumulative counters");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn periodic_checkpoints_are_written() {
        let sys = Counters {
            agents: 4,
            limit: 4,
        };
        let path = temp_path("periodic.ckpt");
        std::fs::remove_file(&path).ok();
        let r = explore(
            &sys,
            &ExploreConfig {
                checkpoint: Some(CheckpointSpec::new(&path).every(Duration::ZERO)),
                ..cfg(1, false)
            },
        );
        assert!(!r.stats.truncated);
        assert!(
            r.stats.checkpoint_saves > 1,
            "periodic saves: {}",
            r.stats.checkpoint_saves
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_resume_falls_back_fresh_with_warning() {
        let sys = Counters {
            agents: 2,
            limit: 2,
        };
        let want = explore(&sys, &cfg(1, true)).behaviors;
        for (name, contents) in [
            ("zero.ckpt", &b""[..]),
            ("garbage.ckpt", &b"SQWMgarbage-not-a-checkpoint"[..]),
        ] {
            let path = temp_path(name);
            std::fs::write(&path, contents).unwrap();
            let r = explore(
                &sys,
                &ExploreConfig {
                    resume: Some(path.clone()),
                    ..cfg(1, true)
                },
            );
            assert!(!r.stats.resumed, "{name}");
            assert_eq!(r.behaviors, want, "{name}");
            assert!(
                r.stats
                    .warnings
                    .iter()
                    .any(|w| matches!(w, ExploreWarning::ResumeCorrupt { .. })),
                "{name}: {:?}",
                r.stats.warnings
            );
            std::fs::remove_file(&path).ok();
        }
        // Missing file → unreadable, also fresh.
        let missing = temp_path("no-such-file.ckpt");
        std::fs::remove_file(&missing).ok();
        let r = explore(
            &sys,
            &ExploreConfig {
                resume: Some(missing),
                ..cfg(1, true)
            },
        );
        assert_eq!(r.behaviors, want);
        assert!(r
            .stats
            .warnings
            .iter()
            .any(|w| matches!(w, ExploreWarning::ResumeUnreadable { .. })));
    }

    #[test]
    fn resume_rejects_checkpoint_of_different_system() {
        let path = temp_path("mismatch.ckpt");
        std::fs::remove_file(&path).ok();
        let a = Counters {
            agents: 2,
            limit: 2,
        };
        explore(
            &a,
            &ExploreConfig {
                checkpoint: Some(CheckpointSpec::new(&path)),
                ..cfg(1, true)
            },
        );
        let b = Counters {
            agents: 3,
            limit: 2,
        };
        let want = explore(&b, &cfg(1, true)).behaviors;
        let r = explore(
            &b,
            &ExploreConfig {
                resume: Some(path.clone()),
                ..cfg(1, true)
            },
        );
        assert!(!r.stats.resumed);
        assert_eq!(r.behaviors, want);
        assert!(r.stats.warnings.iter().any(|w| matches!(
            w,
            ExploreWarning::ResumeCorrupt {
                reason: CorruptReason::SystemMismatch,
                ..
            }
        )));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn durability_requires_a_frontier_strategy() {
        let sys = Counters {
            agents: 2,
            limit: 2,
        };
        let bad = ExploreConfig {
            strategy: Strategy::RandomWalk { walks: 2, seed: 1 },
            checkpoint: Some(CheckpointSpec::new(temp_path("never-written.ckpt"))),
            ..ExploreConfig::default()
        };
        assert!(matches!(
            try_explore(&sys, &bad),
            Err(ExploreError::UnsupportedStrategy { .. })
        ));
        // The infallible entry point degrades with a warning instead.
        let r = explore(&sys, &bad);
        assert_eq!(r.stats.checkpoint_saves, 0);
        assert!(r
            .stats
            .warnings
            .iter()
            .any(|w| matches!(w, ExploreWarning::DurabilityIgnored { .. })));
    }

    #[test]
    fn exact_resume_downgrades_with_warning() {
        let sys = Counters {
            agents: 2,
            limit: 2,
        };
        let path = temp_path("exact-resume.ckpt");
        std::fs::remove_file(&path).ok();
        explore(
            &sys,
            &ExploreConfig {
                visited: VisitedMode::Exact,
                max_states: 3,
                checkpoint: Some(CheckpointSpec::new(&path)),
                ..cfg(1, true)
            },
        );
        let r = explore(
            &sys,
            &ExploreConfig {
                visited: VisitedMode::Exact,
                resume: Some(path.clone()),
                ..cfg(1, true)
            },
        );
        assert!(r.stats.resumed);
        assert!(r.stats.warnings.iter().any(|w| matches!(
            w,
            ExploreWarning::ResumeVisitedDowngrade {
                requested: "exact",
                ..
            }
        )));
        std::fs::remove_file(&path).ok();
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn injected_transient_faults_preserve_behaviors() {
        use crate::fault::FaultPlan;
        quiet_panics();
        let sys = Counters {
            agents: 3,
            limit: 3,
        };
        let want = explore(&sys, &cfg(1, false)).behaviors;
        for seed in [1, 2, 3] {
            let r = explore(
                &sys,
                &ExploreConfig {
                    fault: Some(FaultPlan::transient(seed, 300)),
                    ..cfg(2, false)
                },
            );
            assert_eq!(r.behaviors, want, "seed={seed}");
            assert_eq!(r.stats.quarantined, 0, "seed={seed}");
            assert!(r.stats.incident_count > 0, "seed={seed}: rate 30% hit 0/64");
            assert_eq!(r.stats.retried, r.stats.incident_count, "seed={seed}");
        }
    }

    // -- disk spill ---------------------------------------------------------

    fn temp_spill_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("seqwm-engine-{}", std::process::id()))
            .join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn live_segments(dir: &PathBuf) -> Vec<PathBuf> {
        let mut v: Vec<PathBuf> = std::fs::read_dir(dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|p| p.extension().is_some_and(|e| e == "spill"))
                    .collect()
            })
            .unwrap_or_default();
        v.sort();
        v
    }

    #[test]
    fn spill_spills_before_downgrading() {
        // Same memory pressure as memory_budget_downgrades_...: with a
        // spill dir configured the engine must keep full precision by
        // pushing shards to disk instead of taking lossy rungs.
        let sys = Counters {
            agents: 3,
            limit: 3,
        };
        let want = explore(&sys, &cfg(1, false)).behaviors;
        let dir = temp_spill_dir("spill-first");
        let r = explore(
            &sys,
            &ExploreConfig {
                visited: VisitedMode::Exact,
                max_memory: Some(3500),
                shards: 1,
                spill: Some(SpillSpec::new(&dir)),
                ..cfg(1, false)
            },
        );
        assert_eq!(r.behaviors, want);
        assert_eq!(r.stats.downgrades, 0, "spill-first: no lossy rung taken");
        assert_eq!(r.stats.stop, StopReason::Completed);
        assert!(!r.stats.truncated);
        assert!(r.stats.spill_shards > 0);
        assert!(r.stats.spill_bytes > 0);
        assert!(
            live_segments(&dir).is_empty(),
            "completed runs delete their live segments"
        );
    }

    #[test]
    fn spill_results_match_in_ram() {
        let sys = Counters {
            agents: 4,
            limit: 3,
        };
        let base = explore(&sys, &cfg(1, false));
        let dir = temp_spill_dir("spill-equal");
        let r = explore(
            &sys,
            &ExploreConfig {
                shards: 2,
                spill: Some(SpillSpec::new(&dir).budget_bytes(1)),
                ..cfg(1, false)
            },
        );
        assert_eq!(r.behaviors, base.behaviors);
        assert_eq!(r.stats.states, base.stats.states, "bit-identical counts");
        assert_eq!(r.stats.dedup_hits, base.stats.dedup_hits);
        assert!(r.stats.spill_shards > 0);
        assert!(r.stats.spill_probes > 0, "revisits must probe disk");
        assert!(r.stats.spill_hits > 0);
        assert_eq!(r.stats.spill_quarantined, 0);
    }

    #[test]
    fn frontier_spill_preserves_dfs_results() {
        let sys = Counters {
            agents: 3,
            limit: 3,
        };
        let base = explore(&sys, &cfg(1, false));
        let dir = temp_spill_dir("frontier-spill");
        let r = explore(
            &sys,
            &ExploreConfig {
                shards: 1,
                spill: Some(SpillSpec::new(&dir).frontier_threshold(2)),
                ..cfg(1, false)
            },
        );
        assert_eq!(r.behaviors, base.behaviors);
        assert_eq!(r.stats.states, base.stats.states, "LIFO reload keeps order");
        assert_eq!(r.stats.dedup_hits, base.stats.dedup_hits);
        assert!(!r.stats.truncated);
        assert!(r.stats.spill_bytes > 0, "frontier segments were written");
    }

    #[test]
    fn corrupt_spill_segments_quarantine_on_resume() {
        let sys = Counters {
            agents: 3,
            limit: 3,
        };
        let want = explore(&sys, &cfg(1, false)).behaviors;
        let dir = temp_spill_dir("spill-corrupt");
        let ckpt = temp_path("spill-corrupt.ckpt");
        std::fs::remove_file(&ckpt).ok();
        let r1 = explore(
            &sys,
            &ExploreConfig {
                shards: 1,
                max_states: 40,
                checkpoint: Some(CheckpointSpec::new(&ckpt)),
                spill: Some(SpillSpec::new(&dir).budget_bytes(1)),
                ..cfg(1, false)
            },
        );
        assert_eq!(r1.stats.stop, StopReason::StateBudget);
        let segs = live_segments(&dir);
        assert!(!segs.is_empty(), "interrupted durable run keeps segments");
        let mut bytes = std::fs::read(&segs[0]).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&segs[0], &bytes).unwrap();
        let r2 = explore(
            &sys,
            &ExploreConfig {
                shards: 1,
                resume: Some(ckpt.clone()),
                spill: Some(SpillSpec::new(&dir).budget_bytes(1)),
                ..cfg(1, false)
            },
        );
        assert!(r2.stats.resumed);
        assert_eq!(r2.behaviors, want, "verdict identical despite corruption");
        assert!(r2.stats.spill_quarantined > 0);
        assert!(r2
            .stats
            .warnings
            .iter()
            .any(|w| matches!(w, ExploreWarning::SpillQuarantined { .. })));
        assert!(dir.join("quarantine").exists());
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn resume_without_spill_config_treats_segments_as_unvisited() {
        let sys = Counters {
            agents: 3,
            limit: 3,
        };
        let want = explore(&sys, &cfg(1, false)).behaviors;
        let dir = temp_spill_dir("spill-ignored");
        let ckpt = temp_path("spill-ignored.ckpt");
        std::fs::remove_file(&ckpt).ok();
        explore(
            &sys,
            &ExploreConfig {
                shards: 1,
                max_states: 40,
                checkpoint: Some(CheckpointSpec::new(&ckpt)),
                spill: Some(SpillSpec::new(&dir).budget_bytes(1)),
                ..cfg(1, false)
            },
        );
        let r = explore(
            &sys,
            &ExploreConfig {
                shards: 1,
                resume: Some(ckpt.clone()),
                ..cfg(1, false)
            },
        );
        assert!(r.stats.resumed);
        assert_eq!(r.behaviors, want, "sound: segments re-explored, not lost");
        assert!(r
            .stats
            .warnings
            .iter()
            .any(|w| matches!(w, ExploreWarning::SpillIgnored { .. })));
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn fresh_runs_clear_stale_spill_segments() {
        let dir = temp_spill_dir("spill-stale");
        let stale = dir.join("seg-0-99.spill");
        std::fs::write(&stale, b"junk from a previous run").unwrap();
        let sys = Counters {
            agents: 2,
            limit: 2,
        };
        let r = explore(
            &sys,
            &ExploreConfig {
                spill: Some(SpillSpec::new(&dir)),
                ..cfg(1, false)
            },
        );
        assert_eq!(r.stats.stop, StopReason::Completed);
        assert!(!stale.exists(), "stale segment pruned before the run");
    }

    #[test]
    fn spill_requires_a_frontier_strategy() {
        let sys = Counters {
            agents: 2,
            limit: 2,
        };
        let bad = ExploreConfig {
            strategy: Strategy::RandomWalk { walks: 2, seed: 1 },
            spill: Some(SpillSpec::new(temp_spill_dir("spill-badstrat"))),
            ..ExploreConfig::default()
        };
        assert!(matches!(
            try_explore(&sys, &bad),
            Err(ExploreError::UnsupportedStrategy { .. })
        ));
        let r = explore(&sys, &bad);
        assert_eq!(r.stats.spill_shards, 0);
        assert!(r
            .stats
            .warnings
            .iter()
            .any(|w| matches!(w, ExploreWarning::DurabilityIgnored { .. })));
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn injected_disk_full_falls_back_to_lossy_ladder() {
        use crate::fault::FaultPlan;
        let sys = Counters {
            agents: 3,
            limit: 3,
        };
        let want = explore(&sys, &cfg(1, false)).behaviors;
        let dir = temp_spill_dir("spill-enospc");
        let r = explore(
            &sys,
            &ExploreConfig {
                visited: VisitedMode::Exact,
                max_memory: Some(3500),
                shards: 1,
                spill: Some(SpillSpec::new(&dir)),
                fault: Some(FaultPlan {
                    disk_full_after_writes: Some(0),
                    ..FaultPlan::default()
                }),
                ..cfg(1, false)
            },
        );
        assert_eq!(r.behaviors, want);
        assert_eq!(r.stats.stop, StopReason::Completed);
        assert_eq!(r.stats.downgrades, 2, "fell back to the in-RAM ladder");
        assert_eq!(r.stats.spill_shards, 0);
        assert!(r
            .stats
            .warnings
            .iter()
            .any(|w| matches!(w, ExploreWarning::SpillFailed { .. })));
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn torn_spill_writes_are_lossless() {
        use crate::fault::FaultPlan;
        let sys = Counters {
            agents: 4,
            limit: 3,
        };
        let base = explore(&sys, &cfg(1, false));
        let dir = temp_spill_dir("spill-torn");
        let r = explore(
            &sys,
            &ExploreConfig {
                shards: 2,
                spill: Some(SpillSpec::new(&dir).budget_bytes(1)),
                fault: Some(FaultPlan {
                    seed: 11,
                    disk_torn_write_per_mille: 500,
                    ..FaultPlan::default()
                }),
                ..cfg(1, false)
            },
        );
        assert_eq!(r.behaviors, base.behaviors);
        assert_eq!(
            r.stats.states, base.stats.states,
            "torn writes lose nothing"
        );
        assert_eq!(r.stats.stop, StopReason::Completed);
        assert!(r.stats.spill_quarantined > 0, "some writes were torn");
        assert!(r.stats.spill_shards > 0, "some writes landed");
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn injected_read_errors_only_cost_re_exploration() {
        use crate::fault::FaultPlan;
        let sys = Counters {
            agents: 4,
            limit: 3,
        };
        let base = explore(&sys, &cfg(1, false));
        let dir = temp_spill_dir("spill-read-err");
        let r = explore(
            &sys,
            &ExploreConfig {
                shards: 2,
                spill: Some(SpillSpec::new(&dir).budget_bytes(1)),
                fault: Some(FaultPlan {
                    seed: 7,
                    disk_read_error_per_mille: 400,
                    ..FaultPlan::default()
                }),
                ..cfg(1, false)
            },
        );
        assert_eq!(r.behaviors, base.behaviors, "verdict unchanged");
        assert!(
            r.stats.states >= base.stats.states,
            "lost entries only re-explore: {} < {}",
            r.stats.states,
            base.stats.states
        );
        assert!(r.stats.spill_quarantined > 0);
        assert_eq!(r.stats.stop, StopReason::Completed);
    }

    // -- visited-set ladder accounting --------------------------------------

    #[test]
    fn degrade_preserves_entry_accounting() {
        let v: Visited<Vec<u8>> = Visited::new(VisitedMode::Exact, 4);
        let states: Vec<Vec<u8>> = (0..100u8).map(|i| vec![i, i.wrapping_mul(3)]).collect();
        for (i, st) in states.iter().enumerate() {
            v.check_insert(st, (i as u64) & 0b111);
        }
        assert_eq!(v.entries.load(Ordering::Relaxed), states.len());
        assert!(v.request_downgrade().is_some());
        assert!(v.request_downgrade().is_some());
        assert!(v.request_downgrade().is_none(), "fp64 is the last rung");
        // Touch every state so each shard migrates to the new rung
        // (the sync path carries the debug_assert on pair counts).
        for st in &states {
            assert!(v.contains(st), "entry lost across degradation");
            v.check_insert(st, u64::MAX);
        }
        let total: usize = v.shards.iter().map(|s| relock(s).len()).sum();
        assert_eq!(
            v.entries.load(Ordering::Relaxed),
            total,
            "entry counter matches shard contents after exact→fp64"
        );
        assert_eq!(total, states.len(), "no collisions among 100 states");
    }

    #[test]
    fn visited_snapshot_round_trips_at_every_level() {
        for mode in [VisitedMode::Exact, VisitedMode::Fp128, VisitedMode::Fp64] {
            let v: Visited<Vec<u8>> = Visited::new(mode, 3);
            let states: Vec<Vec<u8>> = (0..50u8).map(|i| vec![i, 7, i ^ 0x55]).collect();
            for st in &states {
                v.check_insert(st, 0b101);
            }
            let (level, visited64, visited128) = v.snapshot();
            assert_eq!(
                visited64.len() + visited128.len(),
                states.len(),
                "{mode:?}: dump kept every pair"
            );
            let data = CheckpointData {
                level,
                visited64,
                visited128,
                ..CheckpointData::default()
            };
            let (r, _warn) = Visited::restore(mode, 3, &data);
            assert_eq!(
                r.entries.load(Ordering::Relaxed),
                states.len(),
                "{mode:?}: restore kept every pair"
            );
            for st in &states {
                assert!(r.contains(st), "{mode:?}: entry lost in round trip");
            }
        }
    }
}
