//! The validation memo cache: fingerprint-keyed, CRC-enveloped,
//! disk-backed.
//!
//! Discharging a PS^na obligation costs model-checker explorations;
//! revalidating a source/target pair the validator has already judged
//! should cost a hash lookup. [`ValidationCache`] is a typed wrapper
//! over [`seqwm_explore::durable::RecordCache`], the same store the
//! serve daemon's result cache uses: one file per entry,
//! `{fp:016x}.json`, holding a versioned `{v, crc, payload}` envelope
//! whose payload is `{"key", "ok", "info"}`. The *full* key text makes
//! a fingerprint collision a miss instead of a wrong verdict. Writes
//! report success only after the file and its directory are synced.
//!
//! Corrupt entries are never trusted and never deleted in place: they
//! are moved into `quarantine/` (numbered on name collision) for
//! post-mortem. Capacity pressure evicts the least-recently-used entry,
//! file included. Both *validated* and *refuted* verdicts are cached —
//! the determinism contract is that a cached verdict and a fresh one
//! agree, whichever way they point.

use std::path::PathBuf;

use seqwm_explore::counters::{add, OPT_CACHE_HITS, OPT_CACHE_MISSES};
pub use seqwm_explore::durable::CacheStats;
use seqwm_explore::durable::{Quarantine, RecordCache};
use seqwm_explore::fp64;
use seqwm_json::Json;

/// A memoized validation verdict.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CachedVerdict {
    /// Did the rewrite validate?
    pub ok: bool,
    /// `"simple"`, `"advanced"`, or `"ps-na"` when `ok`; the refutation
    /// detail otherwise.
    pub info: String,
}

impl CachedVerdict {
    fn decode(fields: &Json) -> Option<CachedVerdict> {
        Some(CachedVerdict {
            ok: fields.get("ok")?.as_bool("ok").ok()?,
            info: fields.get("info")?.as_str("info").ok()?.to_string(),
        })
    }
}

/// The disk-backed validation memo cache.
pub struct ValidationCache {
    records: RecordCache,
}

impl ValidationCache {
    /// Opens (or creates) a cache rooted at `dir`, scanning existing
    /// `{fp}.json` records. Corrupt records are quarantined into
    /// `dir/quarantine/`; if the directory holds more valid entries
    /// than `capacity`, the excess is evicted immediately.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failure.
    pub fn open(dir: impl Into<PathBuf>, capacity: usize) -> std::io::Result<ValidationCache> {
        let dir = dir.into();
        let quarantine = Quarantine::new(dir.join("quarantine"));
        let records = RecordCache::open(dir, capacity, quarantine, |f| {
            CachedVerdict::decode(f).is_some()
        })?;
        Ok(ValidationCache { records })
    }

    /// Looks up a verdict by fingerprint, guarding against collisions
    /// with the full key. A hit refreshes recency.
    pub fn get(&self, fp: u64, key: &str) -> Option<CachedVerdict> {
        let hit = self
            .records
            .get(fp, key)
            .and_then(|f| CachedVerdict::decode(&f));
        add(
            if hit.is_some() {
                &OPT_CACHE_HITS
            } else {
                &OPT_CACHE_MISSES
            },
            1,
        );
        hit
    }

    /// Records a verdict, persisting it and evicting under capacity
    /// pressure.
    pub fn put(&self, fp: u64, key: &str, verdict: &CachedVerdict) {
        self.records.put(
            fp,
            key,
            vec![
                ("ok", Json::Bool(verdict.ok)),
                ("info", Json::str(verdict.info.clone())),
            ],
        );
    }

    /// Current accounting.
    pub fn stats(&self) -> CacheStats {
        self.records.stats()
    }
}

/// The stable fingerprint of a full memo key: the envelope files are
/// named by this.
pub fn key_fingerprint(key: &str) -> u64 {
    fp64(key)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("seqwm-opt-memo-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn v(ok: bool, info: &str) -> CachedVerdict {
        CachedVerdict {
            ok,
            info: info.to_string(),
        }
    }

    #[test]
    fn verdicts_hit_survive_reopen_and_guard_collisions() {
        let dir = temp_dir("hit");
        {
            let cache = ValidationCache::open(&dir, 8).unwrap();
            assert_eq!(cache.get(1, "a"), None);
            cache.put(1, "a", &v(true, "advanced"));
            cache.put(2, "b", &v(false, "unmatched behavior"));
            assert_eq!(cache.get(1, "a"), Some(v(true, "advanced")));
            assert_eq!(cache.get(1, "an-impostor"), None);
            let s = cache.stats();
            assert_eq!((s.hits, s.misses, s.entries), (1, 2, 2));
        }
        let cache = ValidationCache::open(&dir, 8).unwrap();
        assert_eq!(cache.get(2, "b"), Some(v(false, "unmatched behavior")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_quarantine_on_open() {
        let dir = temp_dir("quarantine");
        {
            let cache = ValidationCache::open(&dir, 8).unwrap();
            cache.put(1, "good", &v(true, "simple"));
            cache.put(2, "bad", &v(true, "simple"));
        }
        // Flip record 2's payload: the envelope parses but the CRC no
        // longer matches.
        let victim = dir.join(format!("{:016x}.json", 2u64));
        let text = fs::read_to_string(&victim).unwrap();
        fs::write(&victim, text.replace("bad", "b4d")).unwrap();
        let cache = ValidationCache::open(&dir, 8).unwrap();
        assert_eq!(cache.stats().quarantined, 1);
        assert_eq!(cache.stats().entries, 1);
        assert!(!victim.exists());
        assert!(dir
            .join("quarantine")
            .join(victim.file_name().unwrap())
            .exists());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A record exactly as earlier releases wrote it opens with no
    /// quarantine and answers with the same verdict.
    #[test]
    fn records_in_the_existing_format_still_open() {
        let dir = temp_dir("compat");
        fs::create_dir_all(&dir).unwrap();
        let record = r#"{"v":1,"crc":"4e4f8525cf6d35d5","payload":{"key":"v1;ob=seq;refine=RefineConfig { max_steps: 96, written_quant: EmptyAndFull, extra_values: [], max_fuel: None };ps=PsConfig { allow_promises: false, max_promises_per_thread: 1, promise_values: [Int(1)], na_race_markers: true, na_extra_values: [], na_multi_message: true, max_machine_steps: 64, max_cert_steps: 32, max_msgs_per_loc: 6, max_states: 20000, choose_domain: [0, 1] };deadline=Some(2s);probe=true;\n--contexts--\n\n--input--\nstore[na](x, 1);\na := load[na](x);\nreturn a;\n\n--output--\nstore[na](x, 1);\na := 1;\nreturn a;\n","ok":true,"info":"simple"}}"#;
        let name = "26770981b20f0ad8.json";
        fs::write(dir.join(name), record).unwrap();
        let cache = ValidationCache::open(&dir, 8).unwrap();
        assert_eq!((cache.stats().entries, cache.stats().quarantined), (1, 0));
        let key = Json::parse(record).unwrap();
        let key = key.get("payload").unwrap().get("key").unwrap();
        let key = key.as_str("key").unwrap();
        let fp = key_fingerprint(key);
        assert_eq!(format!("{fp:016x}.json"), name);
        assert_eq!(cache.get(fp, key), Some(v(true, "simple")));
        // Rewriting the same verdict reproduces the file byte for byte.
        cache.put(fp, key, &v(true, "simple"));
        assert_eq!(fs::read_to_string(dir.join(name)).unwrap(), record);
        let _ = fs::remove_dir_all(&dir);
    }
}
