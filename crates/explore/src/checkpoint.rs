//! Versioned on-disk checkpoints of an exploration in progress.
//!
//! # Why paths, not states
//!
//! The engine's `State` type is generic and carries no serialization
//! contract, so the checkpoint never stores a state. Instead it stores
//! each frontier entry (and each discovered behavior) as the *path* of
//! flat transition indices that reached it from the initial state.
//! [`TransitionSystem`](crate::TransitionSystem) implementations are
//! required to be deterministic — the same state always enumerates the
//! same agent groups in the same order — so a resume replays each path
//! through `agent_groups` to reconstruct the exact state. A replay
//! that walks off the enumerated transitions proves the checkpoint
//! stale (or the system nondeterministic) and is rejected as corrupt.
//!
//! The visited set is stored as raw fingerprint → sleep-mask pairs.
//! An exact visited set is fingerprinted on save (fp128), which is why
//! resuming an exact-mode run records a
//! [`ResumeVisitedDowngrade`](crate::ExploreWarning::ResumeVisitedDowngrade)
//! warning.
//!
//! # Format (all integers little-endian)
//!
//! ```text
//! magic   4  b"SQWM"
//! version 1  = 2
//! level   1  visited representation: 1 = fp128, 2 = fp64
//! digest  8  fp64 of the initial state (system identity check)
//! states  8  cumulative distinct states expanded
//! counters 8×8  transitions, dedup, sleep-skips, ample, pruned,
//!               racy, promises, quarantined
//! visited  8 + n×(8|16 + 8)   count, then fingerprint + sleep mask
//! frontier 8 + Σ(1 + 8 + 4 + 4·len)  flags, sleep, path len, path
//! behaviors 8 + Σ(1 + [4] + 4 + 4·len)  kind, [emit idx], path
//! spill    4 + 8 + Σ(4 + name + 4 + 1 + 8 + 8)
//!             shard count at save, manifest count, then per segment:
//!             name len + name, shard, level, entries, checksum
//! checksum 8  fp64 of every preceding byte
//! ```
//!
//! Saves go through [`crate::durable::write_atomic`] (synced temp file,
//! rename, synced directory), so a crash or power loss mid-save leaves
//! the previous checkpoint intact.

use std::path::Path;

use crate::error::{CorruptReason, ExploreWarning};
use crate::fingerprint::fp64;
use crate::spill::{valid_segment_name, SpillSeg};

const MAGIC: &[u8; 4] = b"SQWM";
/// Current checkpoint format version. Version 2 added the spill
/// manifest (the shard count at save time plus one record per
/// disk-resident spill segment) after the behaviors section.
pub const CHECKPOINT_VERSION: u8 = 2;

/// Visited representation stored on disk: 128-bit fingerprints.
pub(crate) const LEVEL_FP128: u8 = 1;
/// Visited representation stored on disk: 64-bit fingerprints.
pub(crate) const LEVEL_FP64: u8 = 2;

/// A frontier entry, as stored: the path that reaches its state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct SavedJob {
    /// The state is already in the visited set and must be re-expanded
    /// without a dedup check (it was interrupted mid-expansion or is a
    /// retry of a faulted expansion).
    pub revisit: bool,
    /// Sleep mask to expand with.
    pub sleep: u64,
    /// Flat transition indices from the initial state.
    pub path: Vec<u32>,
}

/// A discovered behavior, as stored: the path to the state where it
/// was observed, plus how it was observed there.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct SavedBehavior {
    /// `None`: the behavior is `terminal_behavior` of the path's end
    /// state. `Some(i)`: it is the `Behavior` target of the end
    /// state's `i`-th flat transition.
    pub emit: Option<u32>,
    /// Flat transition indices from the initial state.
    pub path: Vec<u32>,
}

/// Cumulative counters carried across a resume.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SavedCounters {
    pub states: u64,
    pub transitions: u64,
    pub dedup_hits: u64,
    pub sleep_skips: u64,
    pub ample_commits: u64,
    pub pruned: u64,
    pub racy_steps: u64,
    pub promise_steps: u64,
    pub quarantined: u64,
}

/// Everything a checkpoint stores.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct CheckpointData {
    /// Visited representation: [`LEVEL_FP128`] or [`LEVEL_FP64`].
    pub level: u8,
    /// fp64 of the initial state, for system-identity validation.
    pub digest: u64,
    pub counters: SavedCounters,
    /// Only one of the two visited vectors is populated (per `level`).
    pub visited64: Vec<(u64, u64)>,
    pub visited128: Vec<(u128, u64)>,
    pub frontier: Vec<SavedJob>,
    pub behaviors: Vec<SavedBehavior>,
    /// Visited shard count when the manifest was taken. Spill-segment
    /// placement is `fp % shards`, so a resume with a different shard
    /// count must ignore the manifest.
    pub spill_shards: u32,
    /// Disk-resident spill segments this checkpoint's frontier depends
    /// on; a resume re-adopts (and re-validates) each one.
    pub spill: Vec<SpillSeg>,
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_path(out: &mut Vec<u8>, path: &[u32]) {
    put_u32(out, path.len() as u32);
    for &idx in path {
        put_u32(out, idx);
    }
}

/// Serializes a checkpoint, checksum included.
pub(crate) fn encode(data: &CheckpointData) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        64 + data.visited64.len() * 16
            + data.visited128.len() * 24
            + data.frontier.len() * 16
            + data.behaviors.len() * 16,
    );
    out.extend_from_slice(MAGIC);
    out.push(CHECKPOINT_VERSION);
    out.push(data.level);
    put_u64(&mut out, data.digest);
    let c = &data.counters;
    for v in [
        c.states,
        c.transitions,
        c.dedup_hits,
        c.sleep_skips,
        c.ample_commits,
        c.pruned,
        c.racy_steps,
        c.promise_steps,
        c.quarantined,
    ] {
        put_u64(&mut out, v);
    }
    match data.level {
        LEVEL_FP64 => {
            put_u64(&mut out, data.visited64.len() as u64);
            for &(fp, mask) in &data.visited64 {
                put_u64(&mut out, fp);
                put_u64(&mut out, mask);
            }
        }
        _ => {
            put_u64(&mut out, data.visited128.len() as u64);
            for &(fp, mask) in &data.visited128 {
                put_u64(&mut out, fp as u64);
                put_u64(&mut out, (fp >> 64) as u64);
                put_u64(&mut out, mask);
            }
        }
    }
    put_u64(&mut out, data.frontier.len() as u64);
    for j in &data.frontier {
        out.push(u8::from(j.revisit));
        put_u64(&mut out, j.sleep);
        put_path(&mut out, &j.path);
    }
    put_u64(&mut out, data.behaviors.len() as u64);
    for b in &data.behaviors {
        match b.emit {
            None => out.push(0),
            Some(i) => {
                out.push(1);
                put_u32(&mut out, i);
            }
        }
        put_path(&mut out, &b.path);
    }
    put_u32(&mut out, data.spill_shards);
    put_u64(&mut out, data.spill.len() as u64);
    for seg in &data.spill {
        put_u32(&mut out, seg.name.len() as u32);
        out.extend_from_slice(seg.name.as_bytes());
        put_u32(&mut out, seg.shard);
        out.push(seg.level);
        put_u64(&mut out, seg.entries);
        put_u64(&mut out, seg.checksum);
    }
    let sum = fp64(&out);
    put_u64(&mut out, sum);
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

pub(crate) struct Reader<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CorruptReason> {
        if self.pos + n > self.buf.len() {
            return Err(CorruptReason::TooShort);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CorruptReason> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CorruptReason> {
        let mut w = [0u8; 4];
        w.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(w))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CorruptReason> {
        let mut w = [0u8; 8];
        w.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(w))
    }

    /// A count field, sanity-bounded by the bytes that remain: every
    /// counted item occupies at least `min_item` bytes, so a count
    /// that implies more data than exists is malformed (and protects
    /// the decoder from absurd preallocations).
    pub(crate) fn count(
        &mut self,
        min_item: usize,
        what: &'static str,
    ) -> Result<usize, CorruptReason> {
        let n = self.u64()? as usize;
        if n.saturating_mul(min_item.max(1)) > self.buf.len().saturating_sub(self.pos) {
            return Err(CorruptReason::Malformed(what));
        }
        Ok(n)
    }

    pub(crate) fn path(&mut self) -> Result<Vec<u32>, CorruptReason> {
        let len = self.u32()? as usize;
        if len.saturating_mul(4) > self.buf.len().saturating_sub(self.pos) {
            return Err(CorruptReason::Malformed("path length"));
        }
        let mut path = Vec::with_capacity(len);
        for _ in 0..len {
            path.push(self.u32()?);
        }
        Ok(path)
    }
}

/// Parses and validates a checkpoint image.
pub(crate) fn decode(buf: &[u8]) -> Result<CheckpointData, CorruptReason> {
    if buf.len() < MAGIC.len() + 2 + 8 {
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
    if version != CHECKPOINT_VERSION {
        return Err(CorruptReason::UnsupportedVersion(version));
    }
    let level = r.u8()?;
    if level != LEVEL_FP128 && level != LEVEL_FP64 {
        return Err(CorruptReason::Malformed("visited level"));
    }
    let digest = r.u64()?;
    let counters = SavedCounters {
        states: r.u64()?,
        transitions: r.u64()?,
        dedup_hits: r.u64()?,
        sleep_skips: r.u64()?,
        ample_commits: r.u64()?,
        pruned: r.u64()?,
        racy_steps: r.u64()?,
        promise_steps: r.u64()?,
        quarantined: r.u64()?,
    };
    let mut data = CheckpointData {
        level,
        digest,
        counters,
        ..CheckpointData::default()
    };
    match level {
        LEVEL_FP64 => {
            let n = r.count(16, "visited count")?;
            data.visited64.reserve(n);
            for _ in 0..n {
                let fp = r.u64()?;
                let mask = r.u64()?;
                data.visited64.push((fp, mask));
            }
        }
        _ => {
            let n = r.count(24, "visited count")?;
            data.visited128.reserve(n);
            for _ in 0..n {
                let lo = r.u64()?;
                let hi = r.u64()?;
                let mask = r.u64()?;
                data.visited128
                    .push((((hi as u128) << 64) | lo as u128, mask));
            }
        }
    }
    let n = r.count(13, "frontier count")?;
    data.frontier.reserve(n);
    for _ in 0..n {
        let flags = r.u8()?;
        if flags > 1 {
            return Err(CorruptReason::Malformed("frontier flags"));
        }
        let sleep = r.u64()?;
        let path = r.path()?;
        data.frontier.push(SavedJob {
            revisit: flags == 1,
            sleep,
            path,
        });
    }
    let n = r.count(5, "behavior count")?;
    data.behaviors.reserve(n);
    for _ in 0..n {
        let kind = r.u8()?;
        let emit = match kind {
            0 => None,
            1 => Some(r.u32()?),
            _ => return Err(CorruptReason::Malformed("behavior kind")),
        };
        let path = r.path()?;
        data.behaviors.push(SavedBehavior { emit, path });
    }
    data.spill_shards = r.u32()?;
    let n = r.count(25, "spill manifest count")?;
    data.spill.reserve(n);
    for _ in 0..n {
        let name_len = r.u32()? as usize;
        if name_len > 128 {
            return Err(CorruptReason::Malformed("spill segment name length"));
        }
        let name = match std::str::from_utf8(r.take(name_len)?) {
            Ok(s) => s.to_string(),
            Err(_) => return Err(CorruptReason::Malformed("spill segment name")),
        };
        if !valid_segment_name(&name) {
            return Err(CorruptReason::Malformed("spill segment name"));
        }
        let shard = r.u32()?;
        let level = r.u8()?;
        if level != LEVEL_FP128 && level != LEVEL_FP64 {
            return Err(CorruptReason::Malformed("spill segment level"));
        }
        let entries = r.u64()?;
        let checksum = r.u64()?;
        data.spill.push(SpillSeg {
            name,
            shard,
            level,
            entries,
            checksum,
        });
    }
    if r.pos != body.len() {
        return Err(CorruptReason::Malformed("trailing bytes"));
    }
    Ok(data)
}

// ---------------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------------

/// Writes a checkpoint through [`crate::durable::write_atomic`].
/// Returns the degradation to record on failure; the engine keeps
/// running.
pub(crate) fn save(path: &Path, data: &CheckpointData) -> Result<(), ExploreWarning> {
    let bytes = encode(data);
    crate::durable::write_atomic(path, &bytes).map_err(|e| {
        ExploreWarning::CheckpointSaveFailed {
            path: path.to_path_buf(),
            message: e.to_string(),
        }
    })?;
    crate::counters::add(&crate::counters::CHECKPOINT_BYTES, bytes.len() as u64);
    Ok(())
}

/// Reads and validates a checkpoint. `Ok(Err(_))` is a validation
/// failure (corrupt file), `Err(_)` an I/O failure; both fall back to
/// a fresh run at the engine level.
pub(crate) fn load(path: &Path) -> Result<Result<CheckpointData, CorruptReason>, String> {
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    Ok(decode(&bytes))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn sample() -> CheckpointData {
        CheckpointData {
            level: LEVEL_FP64,
            digest: 0xABCD_EF01,
            counters: SavedCounters {
                states: 42,
                transitions: 99,
                dedup_hits: 7,
                ..SavedCounters::default()
            },
            visited64: vec![(1, 0), (2, 3), (u64::MAX, u64::MAX)],
            visited128: vec![],
            frontier: vec![
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
            ],
            behaviors: vec![
                SavedBehavior {
                    emit: None,
                    path: vec![3],
                },
                SavedBehavior {
                    emit: Some(7),
                    path: vec![0, 0],
                },
            ],
            spill_shards: 16,
            spill: vec![
                SpillSeg {
                    name: "seg-3-0.spill".to_string(),
                    shard: 3,
                    level: LEVEL_FP64,
                    entries: 11,
                    checksum: 0xFEED_BEEF,
                },
                SpillSeg {
                    name: "seg-0-1.spill".to_string(),
                    shard: 0,
                    level: LEVEL_FP128,
                    entries: 2,
                    checksum: 1,
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let data = sample();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
        let mut data128 = sample();
        data128.level = LEVEL_FP128;
        data128.visited64.clear();
        data128.visited128 = vec![(1u128 << 90 | 7, 0), (u128::MAX, 1)];
        assert_eq!(decode(&encode(&data128)).unwrap(), data128);
    }

    #[test]
    fn zero_byte_and_short_files_rejected() {
        assert_eq!(decode(&[]), Err(CorruptReason::TooShort));
        assert_eq!(decode(&[0x53; 10]), Err(CorruptReason::TooShort));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = encode(&sample());
        for cut in [1, 8, bytes.len() / 2, bytes.len() - 1] {
            let r = decode(&bytes[..bytes.len() - cut]);
            assert!(r.is_err(), "truncated by {cut} must be rejected");
        }
    }

    #[test]
    fn bit_flips_rejected_by_checksum() {
        let bytes = encode(&sample());
        for pos in [0, 5, 20, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(decode(&bad).is_err(), "bit flip at {pos} must be rejected");
        }
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = encode(&sample());
        bytes[4] = CHECKPOINT_VERSION + 1;
        // Fix the checksum so only the version check can reject.
        let n = bytes.len();
        let sum = fp64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            decode(&bytes),
            Err(CorruptReason::UnsupportedVersion(CHECKPOINT_VERSION + 1))
        );
    }

    #[test]
    fn absurd_counts_rejected_without_allocation() {
        // A forged count of u64::MAX items must be caught by the
        // remaining-bytes bound, not by an OOM.
        let mut data = sample();
        data.frontier.clear();
        data.behaviors.clear();
        data.visited64.clear();
        let mut bytes = encode(&data);
        // The visited count field sits right after header+counters.
        let count_at = 4 + 1 + 1 + 8 + 9 * 8;
        bytes[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let n = bytes.len();
        let sum = fp64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            decode(&bytes),
            Err(CorruptReason::Malformed("visited count"))
        );
    }

    #[test]
    fn hostile_spill_manifest_names_rejected() {
        // encode() does not validate names (the engine only produces
        // valid ones); decode() must, so a forged checkpoint cannot
        // steer the resume at files outside the spill dir.
        for bad in ["../escape.spill", ".hidden", "a/b.spill", ""] {
            let mut data = sample();
            data.spill = vec![SpillSeg {
                name: bad.to_string(),
                shard: 0,
                level: LEVEL_FP64,
                entries: 0,
                checksum: 0,
            }];
            assert_eq!(
                decode(&encode(&data)),
                Err(CorruptReason::Malformed("spill segment name")),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn save_and_load_files() {
        let dir = std::env::temp_dir().join("seqwm-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ckpt");
        let data = sample();
        save(&path, &data).unwrap();
        assert_eq!(load(&path).unwrap().unwrap(), data);
        // Missing file is an I/O error, not a corruption.
        assert!(load(&dir.join("missing.ckpt")).is_err());
        // Zero-byte file is corrupt.
        let zero = dir.join("zero.ckpt");
        std::fs::write(&zero, b"").unwrap();
        assert_eq!(load(&zero).unwrap(), Err(CorruptReason::TooShort));
        std::fs::remove_dir_all(&dir).ok();
    }
}
