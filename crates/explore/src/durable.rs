//! Durable records: the one atomic-write path, the quarantine protocol,
//! the CRC-checked JSON envelope, and the fingerprint-keyed record cache
//! built from them.
//!
//! Everything the workspace persists and later trusts goes through
//! here: engine checkpoints and spill segments (their own binary
//! framing), fuzz corpus records and campaign checkpoints (text), and
//! the enveloped JSON of `seqwm-opt`'s validation memo and the serve
//! daemon's job journal and result cache.
//!
//! # Writes
//!
//! [`write_atomic`] stages the bytes in a temp file beside the target,
//! named uniquely per call (`.{name}.{pid}.{seq}.tmp`, so concurrent
//! writers of one key never share a temp file), syncs it, renames it
//! into place, and syncs the parent directory. It reports success only
//! after both syncs: a write that returned `Ok` survives power loss,
//! not just a killed process, and a reader sees the old file or the new
//! one, never a mix. [`write_atomic_unsynced`] skips the syncs, for
//! run-local scratch (spill segments) whose loss costs only
//! recomputation.
//!
//! # Envelope
//!
//! ```json
//! {"v":1,"crc":"<fp64 of the payload's canonical rendering>","payload":{…}}
//! ```
//!
//! The checksum is recomputed from the *parsed* payload's rendering,
//! which works because [`seqwm_json`]'s emitter is canonical: member
//! order is preserved and `parse ∘ to_string` is the identity on
//! everything written here.
//!
//! # Quarantine
//!
//! A record that is unreadable, unparseable, missing the envelope,
//! version-mismatched, or checksum-mismatched is moved to a
//! [`Quarantine`] directory (keeping its name, with a numeric suffix on
//! collision) and counted — never trusted and never fatal. A torn
//! write, a flipped bit, or a stray edit costs exactly one record, and
//! the evidence stays on disk for inspection.

use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use seqwm_json::Json;

use crate::fingerprint::fp64;

/// Envelope format version; bumped on incompatible layout changes.
pub const RECORD_VERSION: u64 = 1;

/// Per-process temp-file sequence: with the pid, makes every temp name
/// unique among concurrent writers.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Atomically replaces `path` with `bytes`: temp file in the same
/// directory (so the rename never crosses a filesystem), `sync_all`,
/// rename, then `sync_all` on the directory.
///
/// # Errors
///
/// The first I/O error; the temp file is removed and `path` is left as
/// it was (unless the error came from the final directory sync).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    replace(path, bytes, true)
}

/// [`write_atomic`] without either sync. Running readers still see the
/// old file or the new one, but a power loss may leave the file
/// missing, empty or torn. Only for run-local scratch that is validated
/// before reuse and whose loss costs recomputation, not correctness:
/// spill segments, which a resumed run checks against its checkpoint's
/// manifest before adopting.
///
/// # Errors
///
/// As [`write_atomic`].
pub fn write_atomic_unsynced(path: &Path, bytes: &[u8]) -> io::Result<()> {
    replace(path, bytes, false)
}

fn replace(path: &Path, bytes: &[u8], sync: bool) -> io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("record");
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".{name}.{}.{seq}.tmp", std::process::id()));
    let written = write_temp(&tmp, bytes, sync).and_then(|()| fs::rename(&tmp, path));
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written?;
    if sync {
        sync_dir(dir)?;
    }
    Ok(())
}

fn write_temp(path: &Path, bytes: &[u8], sync: bool) -> io::Result<()> {
    let mut file = File::create(path)?;
    file.write_all(bytes)?;
    if sync {
        file.sync_all()?;
    }
    Ok(())
}

#[cfg(unix)]
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

#[cfg(not(unix))]
fn sync_dir(_dir: &Path) -> io::Result<()> {
    Ok(())
}

/// Why an enveloped record was rejected (and quarantined).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecordError {
    /// The file could not be read at all.
    Unreadable(String),
    /// The bytes were not a valid envelope (bad JSON, missing
    /// fields, wrong version) — torn writes and truncation land here.
    Malformed(String),
    /// The envelope parsed but the payload does not hash to the
    /// recorded checksum — in-place corruption lands here.
    ChecksumMismatch {
        /// The checksum the envelope claims.
        recorded: String,
        /// The checksum the payload actually has.
        actual: String,
    },
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Unreadable(m) => write!(f, "unreadable: {m}"),
            RecordError::Malformed(m) => write!(f, "malformed envelope: {m}"),
            RecordError::ChecksumMismatch { recorded, actual } => {
                write!(f, "checksum mismatch: recorded {recorded}, actual {actual}")
            }
        }
    }
}

fn payload_crc(payload: &Json) -> String {
    format!("{:016x}", fp64(&payload.to_string()))
}

/// Wraps a payload in the versioned, checksummed envelope.
pub fn wrap(payload: &Json) -> Json {
    Json::obj(vec![
        ("v", Json::num(RECORD_VERSION)),
        ("crc", Json::str(payload_crc(payload))),
        ("payload", payload.clone()),
    ])
}

/// Validates an envelope and returns its payload.
///
/// # Errors
///
/// A [`RecordError`] describing how the record failed validation.
pub fn unwrap(text: &str) -> Result<Json, RecordError> {
    let malformed = |m: &str| RecordError::Malformed(m.to_string());
    let doc = Json::parse(text).map_err(RecordError::Malformed)?;
    let v = doc
        .get("v")
        .and_then(|v| v.as_u64("v").ok())
        .ok_or_else(|| malformed("missing version field"))?;
    if v != RECORD_VERSION {
        return Err(RecordError::Malformed(format!(
            "unsupported envelope version {v} (expected {RECORD_VERSION})"
        )));
    }
    let recorded = doc
        .get("crc")
        .and_then(|c| c.as_str("crc").ok())
        .ok_or_else(|| malformed("missing crc field"))?
        .to_string();
    let payload = doc
        .get("payload")
        .ok_or_else(|| malformed("missing payload field"))?;
    let actual = payload_crc(payload);
    if actual != recorded {
        return Err(RecordError::ChecksumMismatch { recorded, actual });
    }
    Ok(payload.clone())
}

/// Writes `payload`, enveloped, through [`write_atomic`].
///
/// # Errors
///
/// The I/O error of the write.
pub fn write_record(path: &Path, payload: &Json) -> io::Result<()> {
    write_atomic(path, wrap(payload).to_string().as_bytes())
}

/// Reads and validates the enveloped record at `path`.
///
/// # Errors
///
/// A [`RecordError`] when the file is missing, unreadable, or fails
/// envelope validation.
pub fn read_record(path: &Path) -> Result<Json, RecordError> {
    let text = fs::read_to_string(path).map_err(|e| RecordError::Unreadable(e.to_string()))?;
    unwrap(&text)
}

/// A quarantine destination: a directory rejected files are moved
/// into, plus a running count of rejected records.
#[derive(Debug)]
pub struct Quarantine {
    dir: PathBuf,
    count: AtomicU64,
}

impl Quarantine {
    /// A quarantine rooted at `dir` (created on first use).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Quarantine {
            dir: dir.into(),
            count: AtomicU64::new(0),
        }
    }

    /// The quarantine directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records rejected so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Counts a rejected record that has no file to keep.
    pub fn note(&self) {
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts the rejected record at `path` and moves the file (if
    /// there is one) into the quarantine directory, keeping its name
    /// and suffixing `.1`, `.2`, … on collision. If every move fails
    /// the file is deleted, so a permanently corrupt record cannot be
    /// re-ingested forever.
    pub fn take(&self, path: &Path) {
        self.note();
        if !path.exists() {
            return;
        }
        if fs::create_dir_all(&self.dir).is_err() {
            let _ = fs::remove_file(path);
            return;
        }
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("corrupt")
            .to_string();
        let mut dest = self.dir.join(&name);
        let mut n = 0u32;
        while dest.exists() && n < 32 {
            n += 1;
            dest = self.dir.join(format!("{name}.{n}"));
        }
        if fs::rename(path, &dest).is_err() {
            let _ = fs::remove_file(path);
        }
    }
}

/// Point-in-time [`RecordCache`] accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently held.
    pub entries: usize,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a fresh computation.
    pub misses: u64,
    /// Entries evicted under capacity pressure.
    pub evictions: u64,
    /// Corrupt entry files quarantined on open.
    pub quarantined: u64,
}

struct Entry {
    /// The full key (fingerprint-collision guard).
    key: String,
    /// The payload's members other than `key`.
    fields: Json,
    /// LRU clock value at last touch.
    last_used: u64,
}

struct Index {
    entries: HashMap<u64, Entry>,
    clock: u64,
}

/// A persistent, LRU-bounded cache of JSON records keyed by a 64-bit
/// fingerprint of their key text.
///
/// Each entry is one file, `{fp:016x}.json`, holding an enveloped
/// payload `{"key": <full key>, …fields}`. The full key makes a
/// fingerprint collision a miss instead of a wrong answer. Files that
/// fail validation on open — torn, truncated, bit-flipped, or with
/// fields the owner rejects — are quarantined. Capacity pressure evicts
/// the least-recently-used entry, file included; entries loaded from
/// disk count as older than any touched since, lowest fingerprint
/// first.
pub struct RecordCache {
    dir: PathBuf,
    capacity: usize,
    index: Mutex<Index>,
    quarantine: Quarantine,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl RecordCache {
    /// Opens (creating if needed) the cache directory and loads every
    /// `{fp:016x}.json` entry whose envelope validates and whose fields
    /// `accept` approves; the rest go to `quarantine`. A directory
    /// holding more than `capacity` entries is shrunk to fit.
    ///
    /// # Errors
    ///
    /// I/O problems creating or scanning the directory. Individual
    /// corrupt entries are quarantined, not fatal.
    pub fn open(
        dir: impl Into<PathBuf>,
        capacity: usize,
        quarantine: Quarantine,
        accept: impl Fn(&Json) -> bool,
    ) -> io::Result<RecordCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut entries = HashMap::new();
        for item in fs::read_dir(&dir)?.flatten() {
            let name = item.file_name();
            let Some(fp) = name
                .to_str()
                .and_then(|n| n.strip_suffix(".json"))
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            else {
                continue;
            };
            let path = item.path();
            match read_record(&path).ok().and_then(split_key) {
                Some((key, fields)) if accept(&fields) => {
                    entries.insert(
                        fp,
                        Entry {
                            key,
                            fields,
                            last_used: 0,
                        },
                    );
                }
                _ => quarantine.take(&path),
            }
        }
        let cache = RecordCache {
            dir,
            capacity: capacity.max(1),
            index: Mutex::new(Index { entries, clock: 0 }),
            quarantine,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        };
        cache.shrink(&mut cache.lock());
        Ok(cache)
    }

    fn lock(&self) -> MutexGuard<'_, Index> {
        // A panic while holding the lock leaves plain data; recover.
        self.index.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn entry_path(&self, fp: u64) -> PathBuf {
        self.dir.join(format!("{fp:016x}.json"))
    }

    /// Looks up the fields stored under `key` (whose fingerprint is
    /// `fp`). Counts a hit or a miss; a hit refreshes recency.
    pub fn get(&self, fp: u64, key: &str) -> Option<Json> {
        let mut index = self.lock();
        index.clock += 1;
        let clock = index.clock;
        let found = match index.entries.get_mut(&fp) {
            Some(e) if e.key == key => {
                e.last_used = clock;
                Some(e.fields.clone())
            }
            // Fingerprint collision or vacant: either way, a miss.
            _ => None,
        };
        drop(index);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Stores (or overwrites) `fields` under `key`, persisting the
    /// record and evicting beyond capacity. Persistence is best-effort:
    /// a lost record only costs a future recomputation. Returns the
    /// number of entries evicted.
    pub fn put(&self, fp: u64, key: &str, fields: Vec<(&str, Json)>) -> u64 {
        let fields = Json::obj(fields);
        let mut payload = vec![("key".to_string(), Json::str(key))];
        if let Json::Obj(members) = &fields {
            payload.extend(members.iter().cloned());
        }
        let _ = write_record(&self.entry_path(fp), &Json::Obj(payload));
        let mut index = self.lock();
        index.clock += 1;
        let clock = index.clock;
        index.entries.insert(
            fp,
            Entry {
                key: key.to_string(),
                fields,
                last_used: clock,
            },
        );
        self.shrink(&mut index)
    }

    /// Evicts least-recently-used entries (index and file) until the
    /// index fits the capacity. Returns how many it evicted.
    fn shrink(&self, index: &mut Index) -> u64 {
        let mut evicted = 0;
        while index.entries.len() > self.capacity {
            let Some(victim) = index
                .entries
                .iter()
                .min_by_key(|(fp, e)| (e.last_used, **fp))
                .map(|(fp, _)| *fp)
            else {
                break;
            };
            index.entries.remove(&victim);
            let _ = fs::remove_file(self.entry_path(victim));
            evicted += 1;
        }
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Current accounting.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.lock().entries.len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            quarantined: self.quarantine.count(),
        }
    }
}

/// Splits a cache payload into its string `key` and the other members.
fn split_key(payload: Json) -> Option<(String, Json)> {
    let Json::Obj(members) = payload else {
        return None;
    };
    let mut key = None;
    let fields = members
        .into_iter()
        .filter_map(|(name, value)| match value {
            Json::Str(k) if name == "key" => {
                key = Some(k);
                None
            }
            value => Some((name, value)),
        })
        .collect();
    Some((key?, Json::Obj(fields)))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("seqwm-durable-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn payload() -> Json {
        Json::obj(vec![
            ("id", Json::num(7)),
            ("nested", Json::obj(vec![("ok", Json::Bool(true))])),
        ])
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut out: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .flatten()
            .filter_map(|f| f.file_name().to_str().map(str::to_string))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn corruption_classes_are_distinguished() {
        let text = wrap(&payload()).to_string();
        assert_eq!(unwrap(&text).unwrap(), payload());
        let torn = &text[..text.len() / 2];
        assert!(matches!(unwrap(torn), Err(RecordError::Malformed(_))));
        assert!(matches!(unwrap(""), Err(RecordError::Malformed(_))));
        let flipped = text.replace("true", "false");
        assert!(matches!(
            unwrap(&flipped),
            Err(RecordError::ChecksumMismatch { .. })
        ));
        // A bare (pre-envelope) document is malformed, not trusted.
        assert!(matches!(
            unwrap(&payload().to_string()),
            Err(RecordError::Malformed(_))
        ));
        let versioned = text.replace("\"v\":1", "\"v\":999");
        assert!(matches!(unwrap(&versioned), Err(RecordError::Malformed(_))));
    }

    #[test]
    fn write_read_round_trips_without_leftovers() {
        let dir = temp_dir("rw");
        let path = dir.join("rec.json");
        write_record(&path, &payload()).unwrap();
        assert_eq!(read_record(&path).unwrap(), payload());
        write_atomic_unsynced(&dir.join("scratch"), b"x").unwrap();
        assert_eq!(fs::read(dir.join("scratch")).unwrap(), b"x");
        fs::remove_file(dir.join("scratch")).unwrap();
        assert_eq!(names(&dir), ["rec.json"]);
        // A rename onto a directory fails and leaves no temp file.
        fs::create_dir(dir.join("blocked")).unwrap();
        assert!(write_atomic(&dir.join("blocked"), b"x").is_err());
        assert_eq!(names(&dir), ["blocked", "rec.json"]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Concurrent writers of one key: every write lands whole. With a
    /// temp name shared per process, one writer's rename steals or
    /// truncates another's temp file and writes fail or tear.
    #[test]
    fn concurrent_writes_to_one_key_all_land() {
        let dir = temp_dir("race");
        let path = dir.join("key.json");
        let payloads: Vec<Json> = (0..4)
            .map(|t| Json::obj(vec![("pad", Json::str("x".repeat(1 + 97 * t)))]))
            .collect();
        let start = std::sync::Barrier::new(payloads.len());
        std::thread::scope(|s| {
            for p in &payloads {
                let (path, start) = (&path, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..500 {
                        write_record(path, p).unwrap_or_else(|e| panic!("write {i}: {e}"));
                    }
                });
            }
        });
        let last = read_record(&path).unwrap();
        assert!(payloads.contains(&last));
        assert_eq!(names(&dir), ["key.json"], "no temp file left behind");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_moves_and_counts() {
        let dir = temp_dir("quarantine");
        let q = Quarantine::new(dir.join("quarantine"));
        for i in 0..2 {
            // Same name both times: the second move must suffix, not
            // clobber the first piece of evidence.
            let victim = dir.join("job-9.json");
            fs::write(&victim, format!("garbage {i}")).unwrap();
            q.take(&victim);
            assert!(!victim.exists(), "victim must be moved away");
        }
        q.take(&dir.join("never-written.json"));
        q.note();
        assert_eq!(q.count(), 4);
        assert_eq!(names(q.dir()), ["job-9.json", "job-9.json.1"]);
        let _ = fs::remove_dir_all(&dir);
    }

    fn open(dir: &Path, capacity: usize) -> RecordCache {
        let accept = |f: &Json| f.get("n").is_some();
        RecordCache::open(
            dir,
            capacity,
            Quarantine::new(dir.join("quarantine")),
            accept,
        )
        .unwrap()
    }

    fn put(cache: &RecordCache, key: &str, n: u64) {
        cache.put(fp64(key), key, vec![("n", Json::num(n))]);
    }

    fn get(cache: &RecordCache, key: &str) -> Option<u64> {
        cache
            .get(fp64(key), key)
            .map(|f| f.get("n").unwrap().as_u64("n").unwrap())
    }

    #[test]
    fn cache_hits_survive_reopen_and_guard_collisions() {
        let dir = temp_dir("cache");
        {
            let cache = open(&dir, 8);
            assert_eq!(get(&cache, "k1"), None);
            put(&cache, "k1", 1);
            assert_eq!(get(&cache, "k1"), Some(1));
            // Same fingerprint, different key: a miss, never a wrong answer.
            assert_eq!(cache.get(fp64("k1"), "impostor"), None);
            let s = cache.stats();
            assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
        }
        let cache = open(&dir, 8);
        assert_eq!(get(&cache, "k1"), Some(1));
        // The on-disk payload is `{"key", …fields}` in the envelope.
        let text = fs::read_to_string(dir.join(format!("{:016x}.json", fp64("k1")))).unwrap();
        assert!(text.ends_with(r#""payload":{"key":"k1","n":1}}"#), "{text}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_removes_files_and_reopen_shrinks() {
        let dir = temp_dir("lru");
        {
            let cache = open(&dir, 2);
            put(&cache, "a", 1);
            put(&cache, "b", 2);
            assert!(get(&cache, "a").is_some()); // a is now fresher than b
            put(&cache, "c", 3); // evicts b
            assert_eq!(get(&cache, "b"), None);
            assert!(get(&cache, "a").is_some() && get(&cache, "c").is_some());
            assert_eq!((cache.stats().evictions, cache.stats().entries), (1, 2));
            assert_eq!(names(&dir).len(), 2);
        }
        let cache = open(&dir, 1);
        assert_eq!((cache.stats().evictions, cache.stats().entries), (1, 1));
        assert_eq!(names(&dir).len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_quarantine_on_open() {
        let dir = temp_dir("corrupt");
        {
            let cache = open(&dir, 8);
            for i in 0..5 {
                put(&cache, &format!("k{i}"), i);
            }
        }
        let files: Vec<PathBuf> = names(&dir).iter().map(|n| dir.join(n)).collect();
        // Truncation, a flipped payload byte, erasure, and a valid
        // envelope whose fields the owner rejects.
        let text = fs::read_to_string(&files[0]).unwrap();
        fs::write(&files[0], &text[..text.len() / 2]).unwrap();
        let text = fs::read_to_string(&files[1]).unwrap();
        fs::write(&files[1], text.replace("\"n\":", "\"N\":")).unwrap();
        fs::write(&files[2], "").unwrap();
        let foreign = Json::obj(vec![("key", Json::str("k9")), ("m", Json::num(0))]);
        write_record(&files[3], &foreign).unwrap();

        let cache = open(&dir, 8);
        let s = cache.stats();
        assert_eq!((s.quarantined, s.entries), (4, 1));
        assert_eq!(names(&dir.join("quarantine")).len(), 4);
        let answered = (0..5).filter(|i| get(&cache, &format!("k{i}")).is_some());
        assert_eq!(answered.count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
