//! The persistent result store: verdicts keyed by a canonical-text
//! fingerprint so a repeat submission short-circuits to a cache hit.
//!
//! A typed wrapper over [`seqwm_explore::durable::RecordCache`], the
//! same store the optimizer's validation memo uses: one enveloped file
//! per entry under `<state_dir>/cache/`, named by the 64-bit
//! fingerprint of the canonical key, with payload `{"key", "result"}`.
//! The full key makes a fingerprint collision a miss instead of a wrong
//! verdict. Entries survive daemon restarts; one that fails validation
//! on open — torn, truncated, bit-flipped — is quarantined and counted,
//! never trusted and never fatal. Capacity pressure evicts the
//! least-recently-used entry, file included.
//!
//! Hit/miss/eviction counts are kept both locally (for
//! `server.stats`) and in the global perf counters
//! ([`seqwm_explore::counters`]) so the bench harness sees cache
//! traffic like any other subsystem's work.

use std::path::PathBuf;

use seqwm_explore::counters::{add, SERVE_CACHE_EVICTIONS, SERVE_CACHE_HITS, SERVE_CACHE_MISSES};
pub use seqwm_explore::durable::CacheStats;
use seqwm_explore::durable::{Quarantine, RecordCache};
use seqwm_explore::fp64;
use seqwm_json::Json;

/// A persistent, LRU-bounded result cache.
pub struct ResultCache {
    records: RecordCache,
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory and loads the
    /// persisted index. Entry files that fail CRC-envelope validation
    /// are moved to `quarantine_dir` and counted in
    /// [`CacheStats::quarantined`].
    ///
    /// # Errors
    ///
    /// I/O problems creating or scanning the directory. Individual
    /// corrupt entry files are quarantined, not fatal.
    pub fn open(
        dir: impl Into<PathBuf>,
        capacity: usize,
        quarantine_dir: impl Into<PathBuf>,
    ) -> Result<Self, String> {
        let quarantine = Quarantine::new(quarantine_dir);
        let records = RecordCache::open(dir, capacity, quarantine, |f| f.get("result").is_some())
            .map_err(|e| format!("cannot open cache dir: {e}"))?;
        // A directory persisted by a larger-capacity daemon shrank to
        // fit on open.
        add(&SERVE_CACHE_EVICTIONS, records.stats().evictions);
        Ok(ResultCache { records })
    }

    /// Looks up a canonical key. Counts a hit or a miss either way.
    pub fn get(&self, key: &str) -> Option<Json> {
        let found = self
            .records
            .get(fp64(key), key)
            .and_then(|f| f.get("result").cloned());
        add(
            if found.is_some() {
                &SERVE_CACHE_HITS
            } else {
                &SERVE_CACHE_MISSES
            },
            1,
        );
        found
    }

    /// Inserts (or overwrites) a canonical key's result, persisting
    /// it to disk and evicting LRU entries beyond capacity.
    pub fn put(&self, key: &str, result: &Json) {
        let evicted = self
            .records
            .put(fp64(key), key, vec![("result", result.clone())]);
        add(&SERVE_CACHE_EVICTIONS, evicted);
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        self.records.stats()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("seqwm-serve-cache-{}-{tag}", std::process::id()))
    }

    fn result(v: u64) -> Json {
        Json::obj(vec![("answer", Json::num(v))])
    }

    #[test]
    fn hit_after_put_and_survives_reopen() {
        let dir = temp_dir("basic");
        let _ = fs::remove_dir_all(&dir);
        {
            let cache = ResultCache::open(&dir, 8, dir.join("quarantine")).unwrap();
            assert_eq!(cache.get("k1"), None);
            cache.put("k1", &result(1));
            assert_eq!(cache.get("k1"), Some(result(1)));
            let s = cache.stats();
            assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        }
        let cache = ResultCache::open(&dir, 8, dir.join("quarantine")).unwrap();
        assert_eq!(cache.get("k1"), Some(result(1)));
        let _ = fs::remove_dir_all(&dir);
    }

    /// An entry exactly as earlier releases wrote it opens with no
    /// quarantine and answers with the same result.
    #[test]
    fn entries_in_the_existing_format_still_open() {
        let dir = temp_dir("compat");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let entry = r#"{"v":1,"crc":"e4a43a75859ca5ca","payload":{"key":"refine|max_steps=None|model=None|src=store[na](x, 1);\nstore[na](x, 2);\nreturn 0;\n|tgt=store[na](x, 2);\nreturn 0;\n","result":{"verdict":"holds","method":"simple","configs":20,"behaviors":45}}}"#;
        fs::write(dir.join("35fbedde1b812736.json"), entry).unwrap();
        let cache = ResultCache::open(&dir, 8, dir.join("quarantine")).unwrap();
        assert_eq!((cache.stats().entries, cache.stats().quarantined), (1, 0));
        let key = "refine|max_steps=None|model=None|src=store[na](x, 1);\nstore[na](x, 2);\n\
                   return 0;\n|tgt=store[na](x, 2);\nreturn 0;\n";
        let expected =
            Json::parse(r#"{"verdict":"holds","method":"simple","configs":20,"behaviors":45}"#)
                .unwrap();
        assert_eq!(cache.get(key), Some(expected));
        let _ = fs::remove_dir_all(&dir);
    }
}
