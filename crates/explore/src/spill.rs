//! Out-of-core spill of visited-set shards and frontier segments.
//!
//! When the visited set (or a single worker's frontier) outgrows its
//! in-RAM budget, whole shards are written to `<spill-dir>/` as
//! CRC-framed *segments* — the same length-prefixed, fp64-checksummed
//! framing the checkpoint codec uses — and replaced in RAM by a small
//! Bloom-style summary, so the degradation ladder becomes
//! **spill-first, lossy-last**: exact data moves to disk before any
//! precision is surrendered to the fp128/fp64 rungs.
//!
//! # Robustness contract
//!
//! * Every segment write is **read back and re-validated** before the
//!   in-RAM data is dropped. A torn, flipped, or truncated write is
//!   detected *at write time*, the bad file is quarantined to
//!   `<spill-dir>/quarantine/`, and the data stays in RAM — spilling
//!   under write faults is lossless.
//! * Disk-full and other I/O errors **disable** the store; the engine
//!   falls back to the in-RAM lossy ladder instead of aborting.
//! * A segment that fails validation when *probed* (corruption after
//!   a successful write) is quarantined and its fingerprints are
//!   conservatively treated as unvisited. This is sound: a missing
//!   visited entry can only cause re-exploration, and every skipped
//!   interleaving is still covered either by the sibling subtree
//!   explored before the loss or by the re-exploration after it. The
//!   cost is time, never behaviors.
//!
//! # Segment format (all integers little-endian)
//!
//! ```text
//! magic    4  b"SQWS"
//! version  1  = 1
//! kind     1  1 = visited shard, 2 = frontier segment
//! level    1  visited: 1 = fp128, 2 = fp64; frontier: 0
//! shard    4  owning visited shard index (0 for frontier)
//! digest   8  fp64 of the initial state (system identity check)
//! count    8  number of records
//! records     visited fp64:  (fp u64, mask u64)
//!             visited fp128: (lo u64, hi u64, mask u64)
//!             frontier:      revisit u8, sleep u64, path len u32, u32×len
//! checksum 8  fp64 of every preceding byte
//! ```
//!
//! Writes go through [`crate::durable::write_atomic_unsynced`]
//! (dot-prefixed temp file, rename, no syncs): a segment lost to a power
//! failure fails its manifest check on resume and only costs
//! re-exploration.
//! Exact shards are fingerprinted to fp128 on spill (states carry no
//! serialization contract), mirroring the checkpoint codec.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::checkpoint::{put_path, put_u32, put_u64, Reader, SavedJob, LEVEL_FP128, LEVEL_FP64};
use crate::durable::{write_atomic_unsynced, Quarantine};
use crate::error::{CorruptReason, ExploreWarning};
use crate::fingerprint::fp64;
use crate::rng::mix64;

const MAGIC: &[u8; 4] = b"SQWS";
/// Current spill-segment format version.
pub const SPILL_VERSION: u8 = 1;
const KIND_VISITED: u8 = 1;
const KIND_FRONTIER: u8 = 2;
/// Cap on structured events buffered per run (counters keep counting).
const MAX_EVENTS: usize = 16;

/// Where (and under what budget) an exploration may spill cold
/// visited-set shards and frontier segments to disk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpillSpec {
    /// Directory segments are written under. Created on demand;
    /// corrupt segments move to `<dir>/quarantine/`.
    pub dir: PathBuf,
    /// Approximate in-RAM visited-set budget in bytes that triggers a
    /// spill. Defaults to [`ExploreConfig::max_memory`]
    /// (crate::ExploreConfig::max_memory), else 64 MiB.
    pub budget: Option<usize>,
    /// Single-worker DFS frontiers longer than this spill their cold
    /// half to disk.
    pub frontier_threshold: usize,
}

impl SpillSpec {
    /// A spec spilling under `dir` with default budgets.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SpillSpec {
            dir: dir.into(),
            budget: None,
            frontier_threshold: 4096,
        }
    }

    /// Sets the in-RAM budget (bytes) that triggers visited spills.
    pub fn budget_bytes(mut self, bytes: usize) -> Self {
        self.budget = Some(bytes);
        self
    }

    /// Sets the frontier length that triggers frontier spills.
    pub fn frontier_threshold(mut self, jobs: usize) -> Self {
        self.frontier_threshold = jobs.max(2);
        self
    }
}

/// One spilled visited segment as recorded in a checkpoint manifest:
/// enough to re-adopt (and re-validate) the file on resume.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct SpillSeg {
    /// Segment file name (validated: no path separators).
    pub name: String,
    /// Owning visited shard index.
    pub shard: u32,
    /// Fingerprint width: `LEVEL_FP128` or `LEVEL_FP64`.
    pub level: u8,
    /// Record count.
    pub entries: u64,
    /// The file's trailing fp64 checksum (identity across runs).
    pub checksum: u64,
}

/// Rejects hostile manifest names before they touch the filesystem:
/// plain file names only — no separators, no leading dot, no `..`.
pub(crate) fn valid_segment_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && !name.starts_with('.')
        && !name.contains("..")
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'.')
}

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Bloom summary
// ---------------------------------------------------------------------------

/// A tiny per-segment Bloom filter over fp64 keys (fp128 entries are
/// summarized by their low word, which *is* the state's fp64). Two
/// hash functions over a power-of-two bit array sized at ~16 bits per
/// entry: ≈1.4% false positives, zero false negatives — membership
/// probes only touch disk on summary hits.
struct Bloom {
    bits: Vec<u64>,
}

impl Bloom {
    fn for_entries(n: usize) -> Self {
        let words = (n / 4).next_power_of_two().clamp(2, 4096);
        Bloom {
            bits: vec![0u64; words],
        }
    }

    fn bit_mask(&self) -> u64 {
        (self.bits.len() as u64 * 64) - 1
    }

    fn set(&mut self, fp: u64) {
        for h in [fp, mix64(fp)] {
            let b = h & self.bit_mask();
            self.bits[(b / 64) as usize] |= 1 << (b % 64);
        }
    }

    fn maybe_contains(&self, fp: u64) -> bool {
        [fp, mix64(fp)].iter().all(|&h| {
            let b = h & self.bit_mask();
            self.bits[(b / 64) as usize] & (1 << (b % 64)) != 0
        })
    }
}

// ---------------------------------------------------------------------------
// Segment codec
// ---------------------------------------------------------------------------

/// A decoded segment payload (exactly one vector is populated).
#[derive(Default)]
struct SegmentData {
    kind: u8,
    level: u8,
    shard: u32,
    digest: u64,
    v64: Vec<(u64, u64)>,
    v128: Vec<(u128, u64)>,
    jobs: Vec<SavedJob>,
}

fn encode_header(out: &mut Vec<u8>, kind: u8, level: u8, shard: u32, digest: u64, count: u64) {
    out.extend_from_slice(MAGIC);
    out.push(SPILL_VERSION);
    out.push(kind);
    out.push(level);
    put_u32(out, shard);
    put_u64(out, digest);
    put_u64(out, count);
}

fn encode_visited(
    shard: u32,
    level: u8,
    digest: u64,
    v64: &[(u64, u64)],
    v128: &[(u128, u64)],
) -> Vec<u8> {
    let count = (v64.len() + v128.len()) as u64;
    let mut out = Vec::with_capacity(40 + v64.len() * 16 + v128.len() * 24);
    encode_header(&mut out, KIND_VISITED, level, shard, digest, count);
    if level == LEVEL_FP64 {
        for &(fp, mask) in v64 {
            put_u64(&mut out, fp);
            put_u64(&mut out, mask);
        }
    } else {
        for &(fp, mask) in v128 {
            put_u64(&mut out, fp as u64);
            put_u64(&mut out, (fp >> 64) as u64);
            put_u64(&mut out, mask);
        }
    }
    let sum = fp64(&out);
    put_u64(&mut out, sum);
    out
}

fn encode_frontier(digest: u64, jobs: &[SavedJob]) -> Vec<u8> {
    let mut out = Vec::with_capacity(40 + jobs.len() * 24);
    encode_header(&mut out, KIND_FRONTIER, 0, 0, digest, jobs.len() as u64);
    for j in jobs {
        out.push(u8::from(j.revisit));
        put_u64(&mut out, j.sleep);
        put_path(&mut out, &j.path);
    }
    let sum = fp64(&out);
    put_u64(&mut out, sum);
    out
}

fn decode_segment(buf: &[u8]) -> Result<SegmentData, CorruptReason> {
    if buf.len() < MAGIC.len() + 3 + 4 + 16 + 8 {
        return Err(CorruptReason::TooShort);
    }
    let (body, sum_bytes) = buf.split_at(buf.len() - 8);
    let mut sum = [0u8; 8];
    sum.copy_from_slice(sum_bytes);
    if u64::from_le_bytes(sum) != fp64(&body) {
        return Err(CorruptReason::ChecksumMismatch);
    }
    let mut r = Reader { buf: body, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(CorruptReason::BadMagic);
    }
    let version = r.u8()?;
    if version != SPILL_VERSION {
        return Err(CorruptReason::UnsupportedVersion(version));
    }
    let mut data = SegmentData {
        kind: r.u8()?,
        level: r.u8()?,
        shard: r.u32()?,
        digest: r.u64()?,
        ..SegmentData::default()
    };
    let count = r.u64()? as usize;
    match (data.kind, data.level) {
        (KIND_VISITED, LEVEL_FP64) => {
            if count.saturating_mul(16) > body.len() - r.pos {
                return Err(CorruptReason::Malformed("visited segment count"));
            }
            data.v64.reserve(count);
            for _ in 0..count {
                let fp = r.u64()?;
                let mask = r.u64()?;
                data.v64.push((fp, mask));
            }
        }
        (KIND_VISITED, LEVEL_FP128) => {
            if count.saturating_mul(24) > body.len() - r.pos {
                return Err(CorruptReason::Malformed("visited segment count"));
            }
            data.v128.reserve(count);
            for _ in 0..count {
                let lo = r.u64()?;
                let hi = r.u64()?;
                let mask = r.u64()?;
                data.v128.push((((hi as u128) << 64) | lo as u128, mask));
            }
        }
        (KIND_FRONTIER, 0) => {
            if count.saturating_mul(13) > body.len() - r.pos {
                return Err(CorruptReason::Malformed("frontier segment count"));
            }
            data.jobs.reserve(count);
            for _ in 0..count {
                let flags = r.u8()?;
                if flags > 1 {
                    return Err(CorruptReason::Malformed("frontier flags"));
                }
                let sleep = r.u64()?;
                let path = r.path()?;
                data.jobs.push(SavedJob {
                    revisit: flags == 1,
                    sleep,
                    path,
                });
            }
        }
        _ => return Err(CorruptReason::Malformed("segment kind/level")),
    }
    if r.pos != body.len() {
        return Err(CorruptReason::Malformed("trailing bytes"));
    }
    Ok(data)
}

/// The trailing checksum of an encoded segment (its manifest identity).
fn trailing_checksum(bytes: &[u8]) -> u64 {
    let mut sum = [0u8; 8];
    sum.copy_from_slice(&bytes[bytes.len() - 8..]);
    u64::from_le_bytes(sum)
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// An adopted or freshly-written visited segment resident on disk.
struct Segment {
    name: String,
    path: PathBuf,
    level: u8,
    entries: u64,
    checksum: u64,
    bloom: Bloom,
}

struct FrontierSeg {
    path: PathBuf,
    jobs: u64,
}

/// Spill counters folded into [`ExploreStats`](crate::ExploreStats)
/// and the global counters when the run ends.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SpillCounters {
    pub shards: u64,
    pub bytes: u64,
    pub probes: u64,
    pub hits: u64,
    pub quarantined: u64,
    pub frontier_lost: u64,
}

/// The per-run spill store: owns the directory, the per-shard segment
/// lists with their Bloom summaries, the frontier segment stack, and
/// the quarantine protocol. Attached to the engine's `Visited` set.
///
/// Lock order (deadlock discipline): a visited shard's mutex is always
/// taken *before* the corresponding segment-list mutex.
pub(crate) struct SpillStore {
    dir: PathBuf,
    quarantine: Quarantine,
    digest: u64,
    trigger: usize,
    frontier_threshold: usize,
    nshards: usize,
    seq: AtomicU64,
    write_idx: AtomicU64,
    read_idx: AtomicU64,
    disabled: AtomicBool,
    segments: Vec<Mutex<Vec<Segment>>>,
    frontier: Mutex<Vec<FrontierSeg>>,
    shards_spilled: AtomicU64,
    bytes_spilled: AtomicU64,
    probes: AtomicU64,
    hits: AtomicU64,
    frontier_lost: AtomicU64,
    events: Mutex<Vec<ExploreWarning>>,
    #[cfg(feature = "fault-injection")]
    fault: Option<crate::fault::FaultPlan>,
}

impl SpillStore {
    /// Opens a store under `spec.dir`, creating the directory.
    pub(crate) fn open(
        spec: &SpillSpec,
        nshards: usize,
        digest: u64,
        trigger: usize,
        #[cfg(feature = "fault-injection")] fault: Option<crate::fault::FaultPlan>,
    ) -> Result<Self, String> {
        fs::create_dir_all(&spec.dir)
            .map_err(|e| format!("cannot create spill dir {}: {e}", spec.dir.display()))?;
        Ok(SpillStore {
            quarantine: Quarantine::new(spec.dir.join("quarantine")),
            dir: spec.dir.clone(),
            digest,
            trigger,
            frontier_threshold: spec.frontier_threshold.max(2),
            nshards: nshards.max(1),
            seq: AtomicU64::new(0),
            write_idx: AtomicU64::new(0),
            read_idx: AtomicU64::new(0),
            disabled: AtomicBool::new(false),
            segments: (0..nshards.max(1))
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            frontier: Mutex::new(Vec::new()),
            shards_spilled: AtomicU64::new(0),
            bytes_spilled: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            frontier_lost: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
            #[cfg(feature = "fault-injection")]
            fault,
        })
    }

    /// Whether writes are still accepted (I/O failures disable them;
    /// existing segments remain probeable either way).
    pub(crate) fn enabled(&self) -> bool {
        !self.disabled.load(Ordering::Relaxed)
    }

    /// The in-RAM byte budget that triggers visited spills.
    pub(crate) fn trigger(&self) -> usize {
        self.trigger
    }

    /// The frontier length that triggers frontier spills.
    pub(crate) fn frontier_threshold(&self) -> usize {
        self.frontier_threshold
    }

    fn disable(&self, message: String) {
        if !self.disabled.swap(true, Ordering::Relaxed) {
            self.push_event(ExploreWarning::SpillFailed { message });
        }
    }

    fn push_event(&self, w: ExploreWarning) {
        let mut ev = relock(&self.events);
        if ev.len() < MAX_EVENTS {
            ev.push(w);
        }
    }

    /// Moves a corrupt segment file into `<dir>/quarantine/` and
    /// records the event. The fingerprints it held are treated as
    /// unvisited — sound, just slower.
    fn quarantine(&self, path: &Path, message: String) {
        self.push_event(ExploreWarning::SpillQuarantined {
            path: path.to_path_buf(),
            message,
        });
        self.quarantine.take(path);
    }

    /// Writes `bytes` to `name` atomically, honoring injected disk
    /// faults, then reads the file back and re-validates it so a torn
    /// write is caught while the data is still in RAM. Returns the
    /// decoded read-back on success.
    fn write_segment(&self, name: &str, bytes: &[u8]) -> Option<SegmentData> {
        let widx = self.write_idx.fetch_add(1, Ordering::Relaxed);
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = &self.fault {
            if plan.injects_disk_full(widx) {
                self.disable("injected disk-full (ENOSPC)".to_string());
                return None;
            }
        }
        let _ = widx;
        let path = self.dir.join(name);
        #[allow(unused_mut)]
        let mut to_write: &[u8] = bytes;
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = &self.fault {
            if plan.injects_torn_write(widx) {
                // A torn write lands half the image; read-back-verify
                // below must catch it and keep the data in RAM.
                to_write = &bytes[..bytes.len() / 2];
            }
        }
        if let Err(e) = write_atomic_unsynced(&path, to_write) {
            self.disable(format!("segment write failed: {e}"));
            return None;
        }
        match fs::read(&path) {
            Err(e) => {
                self.quarantine(&path, format!("read-back failed: {e}"));
                None
            }
            Ok(back) => match decode_segment(&back) {
                Ok(data) if back == bytes => Some(data),
                Ok(_) => {
                    self.quarantine(&path, "read-back differs from written image".to_string());
                    None
                }
                Err(reason) => {
                    self.quarantine(&path, format!("read-back rejected: {reason}"));
                    None
                }
            },
        }
    }

    /// Spills one visited shard's pairs. Returns `true` iff the data
    /// is durably (and verifiably) on disk, i.e. the caller may drop
    /// it from RAM. On `false` the data must stay in RAM: either this
    /// write was torn (retry later) or the store disabled itself.
    pub(crate) fn write_shard(
        &self,
        shard: usize,
        level: u8,
        v64: &[(u64, u64)],
        v128: &[(u128, u64)],
    ) -> bool {
        if !self.enabled() || shard >= self.nshards {
            return false;
        }
        let bytes = encode_visited(shard as u32, level, self.digest, v64, v128);
        let name = format!(
            "seg-{shard}-{}.spill",
            self.seq.fetch_add(1, Ordering::Relaxed)
        );
        let Some(_) = self.write_segment(&name, &bytes) else {
            return false;
        };
        let mut bloom = Bloom::for_entries(v64.len() + v128.len());
        for &(fp, _) in v64 {
            bloom.set(fp);
        }
        for &(fp, _) in v128 {
            bloom.set(fp as u64);
        }
        let seg = Segment {
            path: self.dir.join(&name),
            name,
            level,
            entries: (v64.len() + v128.len()) as u64,
            checksum: trailing_checksum(&bytes),
            bloom,
        };
        relock(&self.segments[shard]).push(seg);
        self.shards_spilled.fetch_add(1, Ordering::Relaxed);
        self.bytes_spilled
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        true
    }

    /// Whether `shard` has any disk-resident segments (cheap pre-check
    /// so unspilled shards never pay probe overhead).
    pub(crate) fn has_segments(&self, shard: usize) -> bool {
        shard < self.nshards && !relock(&self.segments[shard]).is_empty()
    }

    /// Looks `fp` up in the shard's spilled segments, intersecting the
    /// sleep masks of every occurrence. The Bloom summary gates disk
    /// reads; a segment that fails validation (or suffers an injected
    /// read error) is quarantined and skipped — its entries read as
    /// unvisited.
    pub(crate) fn probe<F: FnOnce() -> u128>(
        &self,
        shard: usize,
        fp: u64,
        fp128_of: F,
    ) -> Option<u64> {
        if shard >= self.nshards {
            return None;
        }
        let mut segs = relock(&self.segments[shard]);
        if segs.is_empty() {
            return None;
        }
        let mut fp128_of = Some(fp128_of);
        let mut key128: Option<u128> = None;
        let mut found: Option<u64> = None;
        let mut i = 0;
        while i < segs.len() {
            if !segs[i].bloom.maybe_contains(fp) {
                i += 1;
                continue;
            }
            self.probes.fetch_add(1, Ordering::Relaxed);
            let ridx = self.read_idx.fetch_add(1, Ordering::Relaxed);
            #[cfg(feature = "fault-injection")]
            if let Some(plan) = &self.fault {
                if plan.injects_read_error(ridx) {
                    let seg = segs.remove(i);
                    self.quarantine(&seg.path, "injected read error".to_string());
                    continue;
                }
            }
            let _ = ridx;
            let data = match fs::read(&segs[i].path)
                .map_err(|e| e.to_string())
                .and_then(|bytes| {
                    decode_segment(&bytes)
                        .map_err(|r| r.to_string())
                        .and_then(|d| self.validate_visited(&d, &segs[i]).map(|()| d))
                }) {
                Ok(d) => d,
                Err(message) => {
                    let seg = segs.remove(i);
                    self.quarantine(&seg.path, message);
                    continue;
                }
            };
            let mask = if segs[i].level == LEVEL_FP64 {
                data.v64.iter().find(|&&(k, _)| k == fp).map(|&(_, m)| m)
            } else {
                let k = match key128 {
                    Some(k) => k,
                    None => {
                        let k = fp128_of.take().map(|f| f()).unwrap_or_default();
                        key128 = Some(k);
                        k
                    }
                };
                data.v128.iter().find(|&&(f2, _)| f2 == k).map(|&(_, m)| m)
            };
            if let Some(m) = mask {
                self.hits.fetch_add(1, Ordering::Relaxed);
                found = Some(found.map_or(m, |acc| acc & m));
            }
            i += 1;
        }
        found
    }

    fn validate_visited(&self, data: &SegmentData, seg: &Segment) -> Result<(), String> {
        if data.kind != KIND_VISITED {
            return Err("wrong segment kind".to_string());
        }
        if data.level != seg.level {
            return Err("segment level changed".to_string());
        }
        if data.digest != self.digest {
            return Err("segment belongs to a different system".to_string());
        }
        if (data.v64.len() + data.v128.len()) as u64 != seg.entries {
            return Err("segment entry count changed".to_string());
        }
        Ok(())
    }

    // -- frontier segments -------------------------------------------------

    /// Spills a batch of frontier jobs. `true` iff durably on disk.
    pub(crate) fn write_frontier(&self, jobs: &[SavedJob]) -> bool {
        if !self.enabled() || jobs.is_empty() {
            return false;
        }
        let bytes = encode_frontier(self.digest, jobs);
        let name = format!(
            "frontier-{}.spill",
            self.seq.fetch_add(1, Ordering::Relaxed)
        );
        if self.write_segment(&name, &bytes).is_none() {
            return false;
        }
        relock(&self.frontier).push(FrontierSeg {
            path: self.dir.join(&name),
            jobs: jobs.len() as u64,
        });
        self.bytes_spilled
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        true
    }

    /// Reloads the most recently spilled frontier segment (LIFO, which
    /// preserves DFS pop order exactly).
    pub(crate) fn pop_frontier(&self) -> FrontierLoad {
        let Some(seg) = relock(&self.frontier).pop() else {
            return FrontierLoad::Empty;
        };
        let ridx = self.read_idx.fetch_add(1, Ordering::Relaxed);
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = &self.fault {
            if plan.injects_read_error(ridx) {
                self.quarantine(&seg.path, "injected read error".to_string());
                self.frontier_lost.fetch_add(seg.jobs, Ordering::Relaxed);
                return FrontierLoad::Lost(seg.jobs);
            }
        }
        let _ = ridx;
        match fs::read(&seg.path)
            .map_err(|e| e.to_string())
            .and_then(|b| decode_segment(&b).map_err(|r| r.to_string()))
        {
            Ok(data) if data.kind == KIND_FRONTIER && data.digest == self.digest => {
                let _ = fs::remove_file(&seg.path);
                FrontierLoad::Jobs(data.jobs)
            }
            Ok(_) => {
                self.quarantine(&seg.path, "wrong segment kind or system".to_string());
                self.frontier_lost.fetch_add(seg.jobs, Ordering::Relaxed);
                FrontierLoad::Lost(seg.jobs)
            }
            Err(message) => {
                self.quarantine(&seg.path, message);
                self.frontier_lost.fetch_add(seg.jobs, Ordering::Relaxed);
                FrontierLoad::Lost(seg.jobs)
            }
        }
    }

    /// Collects every disk-resident frontier job for a checkpoint.
    /// Non-finalizing calls (periodic saves) leave failures on disk
    /// untouched and report them, so the caller can skip the save and
    /// keep the previous complete checkpoint. Finalizing calls
    /// (the terminal save) quarantine failures and count them lost.
    pub(crate) fn frontier_collect(&self, finalize: bool) -> (Vec<SavedJob>, u64) {
        let mut segs = relock(&self.frontier);
        let mut jobs = Vec::new();
        let mut lost = 0u64;
        let mut i = 0;
        while i < segs.len() {
            match fs::read(&segs[i].path)
                .map_err(|e| e.to_string())
                .and_then(|b| decode_segment(&b).map_err(|r| r.to_string()))
            {
                Ok(data) if data.kind == KIND_FRONTIER && data.digest == self.digest => {
                    jobs.extend(data.jobs);
                    i += 1;
                }
                Ok(_) | Err(_) if !finalize => {
                    lost += segs[i].jobs;
                    i += 1;
                }
                Ok(_) => {
                    let seg = segs.remove(i);
                    self.quarantine(&seg.path, "wrong segment kind or system".to_string());
                    self.frontier_lost.fetch_add(seg.jobs, Ordering::Relaxed);
                    lost += seg.jobs;
                }
                Err(message) => {
                    let seg = segs.remove(i);
                    self.quarantine(&seg.path, message);
                    self.frontier_lost.fetch_add(seg.jobs, Ordering::Relaxed);
                    lost += seg.jobs;
                }
            }
        }
        (jobs, lost)
    }

    /// Deletes frontier segment files (after they were folded into a
    /// final checkpoint).
    pub(crate) fn drop_frontier(&self) {
        for seg in relock(&self.frontier).drain(..) {
            let _ = fs::remove_file(&seg.path);
        }
    }

    // -- manifest / adoption / cleanup -------------------------------------

    /// The shard count and segment manifest for a checkpoint.
    pub(crate) fn manifest(&self) -> (u32, Vec<SpillSeg>) {
        let mut out = Vec::new();
        for (shard, list) in self.segments.iter().enumerate() {
            for seg in relock(list).iter() {
                out.push(SpillSeg {
                    name: seg.name.clone(),
                    shard: shard as u32,
                    level: seg.level,
                    entries: seg.entries,
                    checksum: seg.checksum,
                });
            }
        }
        (self.nshards as u32, out)
    }

    /// Re-adopts the segments a checkpoint's manifest lists, validating
    /// each file end to end (CRC, digest, kind, level, count, and the
    /// manifest's recorded checksum — so a stale same-named file from
    /// another run can never be trusted). Missing or corrupt segments
    /// quarantine with a warning; their fingerprints are treated as
    /// unvisited, which is sound. Unlisted `*.spill` files (segments
    /// written after the checkpoint, whose children are not in its
    /// frontier) and all frontier segments are pruned — adopting them
    /// would be unsound.
    pub(crate) fn adopt(
        &self,
        shards_at_save: u32,
        manifest: &[SpillSeg],
        warnings: &mut Vec<ExploreWarning>,
    ) {
        let mut keep: Vec<&str> = Vec::new();
        if shards_at_save as usize != self.nshards && !manifest.is_empty() {
            // Shard placement is fp % nshards: a different shard count
            // would misfile every probe. Ignore the manifest (sound —
            // everything reads as unvisited) rather than guess.
            warnings.push(ExploreWarning::SpillIgnored {
                segments: manifest.len(),
            });
        } else {
            for entry in manifest {
                let shard = entry.shard as usize;
                if !valid_segment_name(&entry.name) || shard >= self.nshards {
                    warnings.push(ExploreWarning::SpillQuarantined {
                        path: self.dir.join("invalid-manifest-entry"),
                        message: "manifest entry rejected".to_string(),
                    });
                    self.quarantine.note();
                    continue;
                }
                let path = self.dir.join(&entry.name);
                let validated = fs::read(&path).map_err(|e| e.to_string()).and_then(|b| {
                    let data = decode_segment(&b).map_err(|r| r.to_string())?;
                    if trailing_checksum(&b) != entry.checksum {
                        return Err("checksum differs from manifest".to_string());
                    }
                    if data.kind != KIND_VISITED
                        || data.level != entry.level
                        || data.shard != entry.shard
                        || data.digest != self.digest
                        || (data.v64.len() + data.v128.len()) as u64 != entry.entries
                    {
                        return Err("segment does not match manifest".to_string());
                    }
                    Ok(data)
                });
                match validated {
                    Ok(data) => {
                        let mut bloom = Bloom::for_entries(entry.entries as usize);
                        for &(fp, _) in &data.v64 {
                            bloom.set(fp);
                        }
                        for &(fp, _) in &data.v128 {
                            bloom.set(fp as u64);
                        }
                        relock(&self.segments[shard]).push(Segment {
                            name: entry.name.clone(),
                            path,
                            level: entry.level,
                            entries: entry.entries,
                            checksum: entry.checksum,
                            bloom,
                        });
                        keep.push(&entry.name);
                    }
                    Err(message) => {
                        // Bypass push_event: the warning reaches the
                        // caller directly.
                        self.quarantine.take(&path);
                        warnings.push(ExploreWarning::SpillQuarantined { path, message });
                    }
                }
            }
        }
        self.prune_except(&keep);
    }

    /// Deletes every stale `*.spill` (and temp) file not in `keep`.
    /// Fresh runs call this with an empty list.
    pub(crate) fn prune_except(&self, keep: &[&str]) {
        let Ok(rd) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in rd.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale_seg = name.ends_with(".spill") && !keep.contains(&name);
            let stale_tmp = name.starts_with('.') && name.ends_with(".tmp");
            if stale_seg || stale_tmp {
                let _ = fs::remove_file(entry.path());
            }
        }
    }

    /// Deletes every segment this run wrote or adopted (terminal
    /// cleanup; the quarantine directory is evidence and stays).
    pub(crate) fn cleanup(&self) {
        for list in &self.segments {
            for seg in relock(list).drain(..) {
                let _ = fs::remove_file(&seg.path);
            }
        }
        self.drop_frontier();
    }

    /// Snapshot of the run's spill counters.
    pub(crate) fn counters(&self) -> SpillCounters {
        SpillCounters {
            shards: self.shards_spilled.load(Ordering::Relaxed),
            bytes: self.bytes_spilled.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            quarantined: self.quarantine.count(),
            frontier_lost: self.frontier_lost.load(Ordering::Relaxed),
        }
    }

    /// Drains the buffered structured events (quarantines, failures).
    pub(crate) fn drain_events(&self) -> Vec<ExploreWarning> {
        std::mem::take(&mut *relock(&self.events))
    }
}

/// The result of reloading a spilled frontier segment.
pub(crate) enum FrontierLoad {
    /// The segment validated; these jobs re-enter the frontier.
    Jobs(Vec<SavedJob>),
    /// The segment was corrupt or unreadable: quarantined, this many
    /// jobs lost (the run is marked truncated).
    Lost(u64),
    /// No spilled frontier segments remain.
    Empty,
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn temp_spill_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("seqwm-spill-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn store(dir: &Path) -> SpillStore {
        SpillStore::open(
            &SpillSpec::new(dir),
            4,
            0xD1CE57,
            1 << 20,
            #[cfg(feature = "fault-injection")]
            None,
        )
        .unwrap()
    }

    #[cfg(feature = "fault-injection")]
    fn store_with_fault(dir: &Path, plan: crate::fault::FaultPlan) -> SpillStore {
        SpillStore::open(&SpillSpec::new(dir), 4, 0xD1CE57, 1 << 20, Some(plan)).unwrap()
    }

    fn sample_jobs() -> Vec<SavedJob> {
        vec![
            SavedJob {
                revisit: false,
                sleep: 0,
                path: vec![0, 1, 2],
            },
            SavedJob {
                revisit: true,
                sleep: 5,
                path: vec![],
            },
        ]
    }

    #[test]
    fn visited_codec_round_trips_both_levels() {
        let v64 = vec![(1u64, 0u64), (2, 3), (u64::MAX, u64::MAX)];
        let bytes = encode_visited(7, LEVEL_FP64, 42, &v64, &[]);
        let d = decode_segment(&bytes).unwrap();
        assert_eq!(
            (d.kind, d.level, d.shard, d.digest),
            (KIND_VISITED, LEVEL_FP64, 7, 42)
        );
        assert_eq!(d.v64, v64);

        let v128 = vec![((1u128 << 90) | 7, 0u64), (u128::MAX, 1)];
        let bytes = encode_visited(0, LEVEL_FP128, 42, &[], &v128);
        let d = decode_segment(&bytes).unwrap();
        assert_eq!(d.v128, v128);
    }

    #[test]
    fn frontier_codec_round_trips() {
        let jobs = sample_jobs();
        let bytes = encode_frontier(9, &jobs);
        let d = decode_segment(&bytes).unwrap();
        assert_eq!(d.kind, KIND_FRONTIER);
        assert_eq!(d.digest, 9);
        assert_eq!(d.jobs, jobs);
    }

    #[test]
    fn torn_and_flipped_segments_rejected() {
        let bytes = encode_visited(0, LEVEL_FP64, 1, &[(7, 0), (8, 1)], &[]);
        assert!(decode_segment(&[]).is_err());
        for cut in [1, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_segment(&bytes[..bytes.len() - cut]).is_err(),
                "truncated by {cut}"
            );
        }
        for pos in [0, 5, 20, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(decode_segment(&bad).is_err(), "flip at {pos}");
        }
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let keys: Vec<u64> = (0..500).map(|i| mix64(i * 77 + 13)).collect();
        let mut b = Bloom::for_entries(keys.len());
        for &k in &keys {
            b.set(k);
        }
        for &k in &keys {
            assert!(b.maybe_contains(k));
        }
        // False positives exist but must be rare.
        let fp = (0..10_000)
            .map(|i| mix64(i * 31 + 1_000_000))
            .filter(|k| !keys.contains(k) && b.maybe_contains(*k))
            .count();
        assert!(fp < 800, "false-positive rate wildly off: {fp}/10000");
    }

    #[test]
    fn segment_names_are_validated() {
        assert!(valid_segment_name("seg-3-17.spill"));
        assert!(valid_segment_name("frontier-0.spill"));
        for bad in [
            "",
            ".hidden",
            "../escape.spill",
            "a/b.spill",
            "a\\b.spill",
            "name..spill",
            &"x".repeat(200),
        ] {
            assert!(!valid_segment_name(bad), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn write_probe_round_trip_with_mask_intersection() {
        let dir = temp_spill_dir("probe");
        let s = store(&dir);
        assert!(s.write_shard(1, LEVEL_FP64, &[(100, 0b1110), (200, 0b1)], &[]));
        // Same key spilled again with a tighter mask in a later
        // segment: the probe must intersect.
        assert!(s.write_shard(1, LEVEL_FP64, &[(100, 0b0111)], &[]));
        assert!(s.has_segments(1));
        assert!(!s.has_segments(0));
        assert_eq!(s.probe(1, 100, || 0), Some(0b0110));
        assert_eq!(s.probe(1, 200, || 0), Some(0b1));
        assert_eq!(s.probe(1, 999, || 0), None);
        let c = s.counters();
        assert_eq!(c.shards, 2);
        assert!(c.bytes > 0);
        assert!(c.probes >= c.hits && c.hits >= 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fp128_segments_probe_by_full_key() {
        let dir = temp_spill_dir("probe128");
        let s = store(&dir);
        let key: u128 = (5u128 << 64) | 42;
        assert!(s.write_shard(2, LEVEL_FP128, &[], &[(key, 7)]));
        assert_eq!(s.probe(2, 42, || key), Some(7));
        // Same low word, different high word: a miss.
        assert_eq!(s.probe(2, 42, || (9u128 << 64) | 42), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_segment_quarantines_and_reads_as_unvisited() {
        let dir = temp_spill_dir("quarantine");
        let s = store(&dir);
        assert!(s.write_shard(0, LEVEL_FP64, &[(55, 3)], &[]));
        assert_eq!(s.probe(0, 55, || 0), Some(3));
        // Corrupt the segment in place.
        let seg_path = relock(&s.segments[0])[0].path.clone();
        let mut bytes = fs::read(&seg_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&seg_path, &bytes).unwrap();
        // The probe detects, quarantines, and reads as unvisited.
        assert_eq!(s.probe(0, 55, || 0), None);
        assert!(!s.has_segments(0));
        assert_eq!(s.counters().quarantined, 1);
        assert!(!seg_path.exists(), "corrupt file moved away");
        assert!(dir.join("quarantine").exists());
        let events = s.drain_events();
        assert!(events
            .iter()
            .any(|w| matches!(w, ExploreWarning::SpillQuarantined { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn frontier_segments_reload_lifo() {
        let dir = temp_spill_dir("frontier");
        let s = store(&dir);
        let first = sample_jobs();
        let second = vec![SavedJob {
            revisit: false,
            sleep: 9,
            path: vec![4],
        }];
        assert!(s.write_frontier(&first));
        assert!(s.write_frontier(&second));
        match s.pop_frontier() {
            FrontierLoad::Jobs(j) => assert_eq!(j, second),
            _ => panic!("expected jobs"),
        }
        match s.pop_frontier() {
            FrontierLoad::Jobs(j) => assert_eq!(j, first),
            _ => panic!("expected jobs"),
        }
        assert!(matches!(s.pop_frontier(), FrontierLoad::Empty));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_adoption_validates_end_to_end() {
        let dir = temp_spill_dir("adopt");
        let s = store(&dir);
        assert!(s.write_shard(3, LEVEL_FP64, &[(70, 1), (71, 2)], &[]));
        assert!(s.write_shard(0, LEVEL_FP64, &[(80, 4)], &[]));
        let (nshards, manifest) = s.manifest();
        assert_eq!(manifest.len(), 2);

        // A second store (a resumed run) adopts the manifest.
        let s2 = store(&dir);
        let mut warnings = Vec::new();
        s2.adopt(nshards, &manifest, &mut warnings);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(s2.probe(3, 70, || 0), Some(1));
        assert_eq!(s2.probe(0, 80, || 0), Some(4));

        // A third store with a *tampered* manifest checksum rejects.
        let s3 = store(&dir);
        let mut bad = manifest.clone();
        bad[0].checksum ^= 1;
        let mut warnings = Vec::new();
        s3.adopt(nshards, &bad, &mut warnings);
        assert!(warnings
            .iter()
            .any(|w| matches!(w, ExploreWarning::SpillQuarantined { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn adoption_prunes_unlisted_segments_and_fresh_runs_clear_all() {
        let dir = temp_spill_dir("prune");
        let s = store(&dir);
        assert!(s.write_shard(0, LEVEL_FP64, &[(1, 0)], &[]));
        let (nshards, manifest) = s.manifest();
        // A segment written after the checkpoint (not in the manifest)
        // and a frontier segment must both be pruned on adoption.
        assert!(s.write_shard(1, LEVEL_FP64, &[(2, 0)], &[]));
        assert!(s.write_frontier(&sample_jobs()));

        let s2 = store(&dir);
        let mut warnings = Vec::new();
        s2.adopt(nshards, &manifest, &mut warnings);
        assert!(warnings.is_empty(), "{warnings:?}");
        let remaining: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter_map(|e| e.file_name().to_str().map(str::to_string))
            .filter(|n| n.ends_with(".spill"))
            .collect();
        assert_eq!(remaining.len(), 1, "{remaining:?}");
        assert_eq!(remaining[0], manifest[0].name);

        // A fresh (non-resumed) run clears everything.
        let s3 = store(&dir);
        s3.prune_except(&[]);
        let leftover = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| {
                e.file_name()
                    .to_str()
                    .is_some_and(|n| n.ends_with(".spill"))
            })
            .count();
        assert_eq!(leftover, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_shard_count_ignores_manifest() {
        let dir = temp_spill_dir("shardcount");
        let s = store(&dir);
        assert!(s.write_shard(0, LEVEL_FP64, &[(1, 0)], &[]));
        let (_, manifest) = s.manifest();
        let s2 = store(&dir);
        let mut warnings = Vec::new();
        s2.adopt(99, &manifest, &mut warnings);
        assert!(warnings
            .iter()
            .any(|w| matches!(w, ExploreWarning::SpillIgnored { .. })));
        assert!(!s2.has_segments(0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cleanup_removes_segments_but_keeps_quarantine() {
        let dir = temp_spill_dir("cleanup");
        let s = store(&dir);
        assert!(s.write_shard(0, LEVEL_FP64, &[(1, 0)], &[]));
        assert!(s.write_frontier(&sample_jobs()));
        // Corrupt a second segment so something lands in quarantine.
        assert!(s.write_shard(1, LEVEL_FP64, &[(2, 0)], &[]));
        let victim = relock(&s.segments[1])[0].path.clone();
        fs::write(&victim, b"garbage").unwrap();
        assert_eq!(s.probe(1, 2, || 0), None);
        s.cleanup();
        let spills = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
            .count();
        assert_eq!(spills, 0, "all live segments deleted");
        assert!(dir.join("quarantine").exists(), "evidence kept");
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn injected_torn_write_is_lossless() {
        use crate::fault::FaultPlan;
        let dir = temp_spill_dir("torn");
        let plan = FaultPlan {
            seed: 3,
            disk_torn_write_per_mille: 1000,
            ..FaultPlan::default()
        };
        let s = store_with_fault(&dir, plan);
        // Every write tears: the read-back catches each one, the store
        // stays enabled, and no segment is ever trusted.
        assert!(!s.write_shard(0, LEVEL_FP64, &[(5, 0)], &[]));
        assert!(s.enabled());
        assert!(!s.has_segments(0));
        assert!(s.counters().quarantined >= 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn injected_disk_full_disables_gracefully() {
        use crate::fault::FaultPlan;
        let dir = temp_spill_dir("enospc");
        let plan = FaultPlan {
            seed: 3,
            disk_full_after_writes: Some(1),
            ..FaultPlan::default()
        };
        let s = store_with_fault(&dir, plan);
        assert!(s.write_shard(0, LEVEL_FP64, &[(5, 6)], &[]));
        // Second write hits the injected ENOSPC and disables writes...
        assert!(!s.write_shard(1, LEVEL_FP64, &[(7, 0)], &[]));
        assert!(!s.enabled());
        // ...but the existing segment still probes.
        assert_eq!(s.probe(0, 5, || 0), Some(6));
        let events = s.drain_events();
        assert!(events
            .iter()
            .any(|w| matches!(w, ExploreWarning::SpillFailed { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn injected_read_error_quarantines_and_stays_sound() {
        use crate::fault::FaultPlan;
        let dir = temp_spill_dir("readerr");
        let plan = FaultPlan {
            seed: 3,
            disk_read_error_per_mille: 1000,
            ..FaultPlan::default()
        };
        let s = store_with_fault(&dir, plan);
        assert!(s.write_shard(0, LEVEL_FP64, &[(5, 6)], &[]));
        // The probe's read faults: quarantined, reads as unvisited.
        assert_eq!(s.probe(0, 5, || 0), None);
        assert!(!s.has_segments(0));
        assert_eq!(s.counters().quarantined, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
