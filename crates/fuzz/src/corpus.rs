//! The persistent failure corpus.
//!
//! Every unique shrunk failure is written to the corpus directory
//! (default `.seqwm-fuzz/`) as a self-contained, replayable text
//! record: a `key: value` header followed by the program (and
//! optional context) in the litmus `.lit`-style concrete syntax the
//! parser reads back. Records are deduplicated by **fingerprint** —
//! the 64-bit hash of (target, oracle, shrunk program text, context
//! text) — so re-runs and parallel workers do not pile up copies of
//! the same minimized failure, while the same program failing under
//! two targets (or two oracles) files as two distinct records.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use seqwm_explore::durable::write_atomic;
use seqwm_explore::fp64;
use seqwm_lang::parser::parse_program;
use seqwm_lang::Program;

use crate::oracle::OracleKind;
use crate::target::FuzzTarget;

/// Magic first line of a corpus record.
const MAGIC: &str = "seqwm-fuzz failure v1";

/// One minimized failure, as persisted to the corpus.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailureRecord {
    /// The transformation that failed.
    pub target: FuzzTarget,
    /// The oracle that refuted it (on the shrunk case).
    pub oracle: OracleKind,
    /// The campaign-level seed of the generating run.
    pub campaign_seed: u64,
    /// Index of the failing case within the campaign.
    pub case_index: usize,
    /// Statement count before shrinking.
    pub original_stmts: usize,
    /// Statement count after shrinking.
    pub shrunk_stmts: usize,
    /// Refutation detail (unmatched behavior etc.).
    pub detail: String,
    /// The minimized source program.
    pub src: Program,
    /// The minimized concurrent context, if needed to fail.
    pub ctx: Option<Program>,
}

impl FailureRecord {
    /// The dedup fingerprint: target, oracle and the *shrunk* case
    /// text (the campaign metadata does not participate, so the same
    /// minimized failure found from two seeds files once).
    pub fn fingerprint(&self) -> u64 {
        let ctx_text = self.ctx.as_ref().map(ToString::to_string);
        fp64(&(
            self.target.to_string(),
            self.oracle.to_string(),
            self.src.to_string(),
            ctx_text,
        ))
    }

    /// The corpus file name for this record.
    pub fn file_name(&self) -> String {
        format!(
            "fail-{}-{}-{:016x}.lit",
            self.target,
            self.oracle,
            self.fingerprint()
        )
    }

    /// Serializes to the corpus text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(MAGIC);
        out.push('\n');
        out.push_str(&format!("target: {}\n", self.target));
        out.push_str(&format!("oracle: {}\n", self.oracle));
        out.push_str(&format!("fingerprint: {:016x}\n", self.fingerprint()));
        out.push_str(&format!("campaign-seed: {}\n", self.campaign_seed));
        out.push_str(&format!("case-index: {}\n", self.case_index));
        out.push_str(&format!("original-stmts: {}\n", self.original_stmts));
        out.push_str(&format!("shrunk-stmts: {}\n", self.shrunk_stmts));
        out.push_str(&format!(
            "detail: {}\n",
            self.detail.replace('\\', "\\\\").replace('\n', "\\n")
        ));
        out.push_str("== program\n");
        out.push_str(&self.src.to_string());
        if !out.ends_with('\n') {
            out.push('\n');
        }
        if let Some(c) = &self.ctx {
            out.push_str("== context\n");
            out.push_str(&c.to_string());
            if !out.ends_with('\n') {
                out.push('\n');
            }
        }
        out
    }

    /// Parses a corpus record back from its text form.
    pub fn parse(text: &str) -> Result<FailureRecord, String> {
        let mut lines = text.lines();
        if lines.next() != Some(MAGIC) {
            return Err(format!("not a corpus record (expected `{MAGIC}`)"));
        }
        let mut target = None;
        let mut oracle = None;
        let mut campaign_seed = 0u64;
        let mut case_index = 0usize;
        let mut original_stmts = 0usize;
        let mut shrunk_stmts = 0usize;
        let mut detail = String::new();
        let mut stored_fp = None;
        loop {
            let Some(line) = lines.next() else {
                return Err("missing `== program` section".to_string());
            };
            if line == "== program" {
                break;
            }
            let Some((key, value)) = line.split_once(": ") else {
                return Err(format!("malformed header line `{line}`"));
            };
            match key {
                "target" => {
                    target = Some(
                        FuzzTarget::parse(value)
                            .ok_or_else(|| format!("unknown target {value}"))?,
                    )
                }
                "oracle" => {
                    oracle = Some(
                        OracleKind::parse(value)
                            .ok_or_else(|| format!("unknown oracle {value}"))?,
                    )
                }
                "fingerprint" => {
                    stored_fp = Some(
                        u64::from_str_radix(value, 16)
                            .map_err(|e| format!("bad fingerprint: {e}"))?,
                    )
                }
                "campaign-seed" => {
                    campaign_seed = value
                        .parse()
                        .map_err(|e| format!("bad campaign-seed: {e}"))?
                }
                "case-index" => {
                    case_index = value.parse().map_err(|e| format!("bad case-index: {e}"))?
                }
                "original-stmts" => {
                    original_stmts = value
                        .parse()
                        .map_err(|e| format!("bad original-stmts: {e}"))?
                }
                "shrunk-stmts" => {
                    shrunk_stmts = value
                        .parse()
                        .map_err(|e| format!("bad shrunk-stmts: {e}"))?
                }
                "detail" => {
                    detail = unescape(value);
                }
                other => return Err(format!("unknown header key `{other}`")),
            }
        }
        let rest: Vec<&str> = lines.collect();
        let (src_text, ctx_text) = match rest.iter().position(|l| *l == "== context") {
            Some(i) => (rest[..i].join("\n"), Some(rest[i + 1..].join("\n"))),
            None => (rest.join("\n"), None),
        };
        let src = parse_program(&src_text).map_err(|e| format!("bad program section: {e}"))?;
        let ctx = match ctx_text {
            Some(t) => Some(parse_program(&t).map_err(|e| format!("bad context section: {e}"))?),
            None => None,
        };
        let record = FailureRecord {
            target: target.ok_or("missing target header")?,
            oracle: oracle.ok_or("missing oracle header")?,
            campaign_seed,
            case_index,
            original_stmts,
            shrunk_stmts,
            detail,
            src,
            ctx,
        };
        if let Some(fp) = stored_fp {
            let actual = record.fingerprint();
            if fp != actual {
                return Err(format!(
                    "fingerprint mismatch: header {fp:016x}, computed {actual:016x} \
                     (record edited by hand?)"
                ));
            }
        }
        Ok(record)
    }
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// The on-disk corpus directory.
#[derive(Clone, Debug)]
pub struct Corpus {
    dir: PathBuf,
}

impl Corpus {
    /// Opens (creating if needed) the corpus at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Corpus> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Corpus { dir })
    }

    /// The corpus directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Persists a record through [`write_atomic`]. Returns the
    /// record's path; saving an already-present fingerprint is a
    /// rewrite of identical content.
    pub fn save(&self, record: &FailureRecord) -> io::Result<PathBuf> {
        let path = self.dir.join(record.file_name());
        write_atomic(&path, record.to_text().as_bytes())?;
        Ok(path)
    }

    /// Loads one record from a path.
    pub fn load(path: &Path) -> Result<FailureRecord, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        FailureRecord::parse(&text)
    }

    /// The fingerprints already present on disk (resume-time dedup
    /// seed), plus the record paths.
    pub fn existing(&self) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !name.starts_with("fail-") || !name.ends_with(".lit") {
                continue;
            }
            if let Ok(rec) = Corpus::load(&path) {
                out.push((rec.fingerprint(), path));
            }
        }
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::target::BuggyPass;

    fn sample() -> FailureRecord {
        FailureRecord {
            target: FuzzTarget::Buggy(BuggyPass::ReorderAcquireDown),
            oracle: OracleKind::Seq,
            campaign_seed: 0xFEED,
            case_index: 17,
            original_stmts: 9,
            shrunk_stmts: 3,
            detail: "neither simple nor advanced refinement holds\n(line two)".to_string(),
            src: parse_program("a := load[acq](y); store[na](x, 1); return a;").unwrap(),
            ctx: Some(parse_program("store[rel](y, 1); return 0;").unwrap()),
        }
    }

    #[test]
    fn records_round_trip_through_text() {
        let rec = sample();
        let parsed = FailureRecord::parse(&rec.to_text()).unwrap();
        assert_eq!(parsed, rec);
        // Without a context, too.
        let mut solo = rec;
        solo.ctx = None;
        assert_eq!(FailureRecord::parse(&solo.to_text()).unwrap(), solo);
    }

    #[test]
    fn fingerprint_ignores_campaign_metadata() {
        let a = sample();
        let mut b = sample();
        b.campaign_seed = 1;
        b.case_index = 999;
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = sample();
        c.oracle = OracleKind::PsCtx;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn tampered_records_are_rejected() {
        let text = sample()
            .to_text()
            .replace("store[na](x, 1)", "store[na](x, 2)");
        let err = FailureRecord::parse(&text).unwrap_err();
        assert!(err.contains("fingerprint mismatch"), "{err}");
    }

    #[test]
    fn corpus_saves_and_lists() {
        let dir = std::env::temp_dir().join(format!("seqwm-fuzz-corpus-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let corpus = Corpus::open(&dir).unwrap();
        let rec = sample();
        let path = corpus.save(&rec).unwrap();
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with("fail-"));
        // Idempotent save, one file.
        corpus.save(&rec).unwrap();
        let existing = corpus.existing().unwrap();
        assert_eq!(existing.len(), 1);
        assert_eq!(existing[0].0, rec.fingerprint());
        assert_eq!(Corpus::load(&existing[0].1).unwrap(), rec);
        let _ = fs::remove_dir_all(&dir);
    }
}
