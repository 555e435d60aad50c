//! The campaign driver: generate, transform, judge, shrink, persist —
//! in parallel, without letting any single case take the run down.
//!
//! Determinism: case `i` of a campaign with seed `s` derives its own
//! PRNG from `mix64(s ^ i)`, so the generated (program, context) pair
//! is independent of worker count and scheduling. Workers drain a
//! shared atomic case counter; each (case, target) check runs under
//! `catch_unwind`, so a panicking checker quarantines one case as an
//! incident instead of killing the campaign (the engine additionally
//! retries/quarantines *internal* faults per PR 2's fault model).
//!
//! Durability: campaign progress is checkpointed to a small text file
//! (magic `SQFZ1`, trailing fingerprint checksum, written through
//! [`write_atomic`] like the exploration engine's checkpoints) so
//! `--resume` continues an interrupted run without re-judging
//! completed cases; the failure corpus on disk re-seeds fingerprint
//! deduplication across runs.

use std::collections::BTreeSet;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use seqwm_explore::durable::write_atomic;
use seqwm_explore::{fp64, mix64, SplitMix64};
use seqwm_json::escape as json_string;
use seqwm_litmus::gen::{random_context, random_program, GenConfig};

use crate::corpus::{Corpus, FailureRecord};
use crate::oracle::{check_target, CheckVerdict, IncidentCause, OracleBudgets, OracleKind};
use crate::shrink::{case_stmts, shrink};
use crate::target::FuzzTarget;

/// Checkpoint magic line (campaign-level; the engine's state-space
/// checkpoints use their own `SQWM` magic).
const CHECKPOINT_MAGIC: &str = "SQFZ1";

/// A full campaign configuration.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Number of cases to generate and judge.
    pub cases: usize,
    /// Campaign seed (case `i` uses `mix64(seed ^ i)`).
    pub seed: u64,
    /// Worker threads draining the case queue.
    pub workers: usize,
    /// Program/context generator configuration.
    pub gen: GenConfig,
    /// The transformations under test.
    pub targets: Vec<FuzzTarget>,
    /// Per-case oracle budgets.
    pub budgets: OracleBudgets,
    /// Failure corpus directory.
    pub corpus_dir: PathBuf,
    /// Cases between checkpoint saves (0 disables checkpointing).
    pub checkpoint_every: usize,
    /// Resume from the checkpoint in the corpus directory, if any.
    pub resume: bool,
    /// Stop early after this many *unique* failures (0 = run all).
    pub max_failures: usize,
    /// Oracle evaluation budget per shrink.
    pub shrink_evals: usize,
    /// Percent of cases judged under a generated concurrent context.
    pub ctx_percent: u32,
    /// External stop flag: when set (by another thread — e.g. the
    /// serve daemon canceling a job), workers stop draining cases at
    /// the next boundary and the campaign returns the partial summary.
    /// `None` means the campaign only stops on completion or
    /// `max_failures`.
    pub stop: Option<Arc<AtomicBool>>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            cases: 200,
            seed: 0x5EED_F022,
            workers: 1,
            gen: GenConfig {
                max_stmts: 6,
                ..GenConfig::fuzzing()
            },
            targets: FuzzTarget::default_targets(),
            budgets: OracleBudgets::default(),
            corpus_dir: PathBuf::from(".seqwm-fuzz"),
            checkpoint_every: 25,
            resume: false,
            max_failures: 0,
            shrink_evals: 300,
            ctx_percent: 80,
            stop: None,
        }
    }
}

/// One quarantined case in the summary.
#[derive(Clone, Debug)]
pub struct CaseIncident {
    /// Case index within the campaign.
    pub case_index: usize,
    /// The transformation being checked when the incident occurred.
    pub target: FuzzTarget,
    /// The oracle that was running.
    pub oracle: OracleKind,
    /// What tripped.
    pub cause: IncidentCause,
    /// Diagnostic message.
    pub message: String,
}

/// One unique, persisted failure in the summary.
#[derive(Clone, Debug)]
pub struct FailureSummary {
    /// Dedup fingerprint.
    pub fingerprint: u64,
    /// The failing transformation.
    pub target: FuzzTarget,
    /// The refuting oracle (post-shrink).
    pub oracle: OracleKind,
    /// Corpus file the reproducer was written to.
    pub path: PathBuf,
    /// Statement counts before/after shrinking.
    pub original_stmts: usize,
    /// Statement count of the minimized case.
    pub shrunk_stmts: usize,
}

/// Machine-readable campaign outcome.
#[derive(Clone, Debug, Default)]
pub struct CampaignSummary {
    /// Campaign seed.
    pub seed: u64,
    /// Cases judged in this run (excludes resumed-over cases).
    pub cases_run: usize,
    /// Cases skipped because a checkpoint said they were done.
    pub resumed_from: usize,
    /// (case, target) checks where the target changed the program.
    pub optimized: usize,
    /// Checks where all oracles passed.
    pub checks_passed: usize,
    /// Checks where the target left the program unchanged.
    pub unoptimized: usize,
    /// Raw violations observed (before fingerprint dedup).
    pub violations: usize,
    /// New unique failures persisted to the corpus this run.
    pub unique_failures: Vec<FailureSummary>,
    /// Quarantined cases (capped recording; `incident_count` is the
    /// true total).
    pub incidents: Vec<CaseIncident>,
    /// Total incidents including beyond the recording cap.
    pub incident_count: usize,
    /// Engine states explored across all passing checks.
    pub states: usize,
    /// Oracle evaluations spent shrinking.
    pub shrink_evals: usize,
    /// Mean shrunk/original statement ratio over shrunk failures.
    pub mean_shrink_ratio: f64,
    /// Wall-clock duration of this run.
    pub elapsed: Duration,
}

impl CampaignSummary {
    /// Cap on individually recorded incidents.
    pub const MAX_RECORDED_INCIDENTS: usize = 64;

    /// True iff no oracle violation was found (incidents permitted:
    /// they are quarantined unknowns, not failures).
    pub fn clean(&self) -> bool {
        self.violations == 0 && self.unique_failures.is_empty()
    }

    /// Renders the summary as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"seed\":{},", self.seed));
        out.push_str(&format!("\"cases_run\":{},", self.cases_run));
        out.push_str(&format!("\"resumed_from\":{},", self.resumed_from));
        out.push_str(&format!("\"optimized\":{},", self.optimized));
        out.push_str(&format!("\"checks_passed\":{},", self.checks_passed));
        out.push_str(&format!("\"unoptimized\":{},", self.unoptimized));
        out.push_str(&format!("\"violations\":{},", self.violations));
        out.push_str(&format!("\"incident_count\":{},", self.incident_count));
        out.push_str(&format!("\"states\":{},", self.states));
        out.push_str(&format!("\"shrink_evals\":{},", self.shrink_evals));
        out.push_str(&format!(
            "\"mean_shrink_ratio\":{:.4},",
            self.mean_shrink_ratio
        ));
        out.push_str(&format!("\"elapsed_ms\":{},", self.elapsed.as_millis()));
        out.push_str("\"unique_failures\":[");
        for (i, f) in self.unique_failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"fingerprint\":\"{:016x}\",\"target\":\"{}\",\"oracle\":\"{}\",\
                 \"path\":{},\"original_stmts\":{},\"shrunk_stmts\":{}}}",
                f.fingerprint,
                f.target,
                f.oracle,
                json_string(&f.path.display().to_string()),
                f.original_stmts,
                f.shrunk_stmts
            ));
        }
        out.push_str("],\"incidents\":[");
        for (i, inc) in self.incidents.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"case\":{},\"target\":\"{}\",\"oracle\":\"{}\",\"cause\":\"{}\",\
                 \"message\":{}}}",
                inc.case_index,
                inc.target,
                inc.oracle,
                inc.cause,
                json_string(&inc.message)
            ));
        }
        out.push_str("]}");
        out
    }
}

/// A batched progress/failure event emitted by
/// [`run_campaign_with`]'s sink. Progress is batched at checkpoint
/// granularity ([`FuzzConfig::checkpoint_every`]) plus once at the
/// end, so a sink that forwards events over a socket is never in the
/// per-case hot path.
#[derive(Clone, Debug)]
pub enum CampaignEvent {
    /// A batch of cases finished.
    Progress {
        /// Cases completed so far (including resumed-over ones).
        completed: usize,
        /// Total cases in the campaign.
        cases: usize,
        /// Raw oracle violations observed so far.
        violations: usize,
        /// Incidents quarantined so far.
        incidents: usize,
        /// Engine states explored across passing checks so far.
        states: usize,
    },
    /// A new *unique* failure was shrunk and persisted.
    Failure(FailureSummary),
}

/// Shared mutable campaign state behind one mutex.
struct Shared {
    summary: CampaignSummary,
    seen: BTreeSet<u64>,
    completed: usize,
    since_checkpoint: usize,
}

/// Runs a campaign to completion (or early stop). Errors are I/O
/// problems with the corpus/checkpoint; judging problems never error,
/// they quarantine.
pub fn run_campaign(cfg: &FuzzConfig) -> Result<CampaignSummary, String> {
    run_campaign_with(cfg, &|_| {})
}

/// [`run_campaign`] with a progress sink: `sink` receives batched
/// [`CampaignEvent`]s (progress at checkpoint granularity, one event
/// per unique failure). The sink is called outside the campaign's
/// internal lock and may be slow without stalling workers beyond the
/// calling thread's own batch boundary.
///
/// # Errors
///
/// I/O problems with the corpus/checkpoint; judging problems never
/// error, they quarantine.
pub fn run_campaign_with(
    cfg: &FuzzConfig,
    sink: &(dyn Fn(&CampaignEvent) + Sync),
) -> Result<CampaignSummary, String> {
    let start = Instant::now();
    let corpus = Corpus::open(&cfg.corpus_dir).map_err(|e| format!("cannot open corpus: {e}"))?;
    let mut summary = CampaignSummary {
        seed: cfg.seed,
        ..CampaignSummary::default()
    };

    // Seed dedup from what previous runs already persisted.
    let mut seen: BTreeSet<u64> = corpus
        .existing()
        .map_err(|e| format!("cannot scan corpus: {e}"))?
        .into_iter()
        .map(|(fp, _)| fp)
        .collect();
    // Fingerprints recorded by the checkpoint (covers failures found
    // by an interrupted run even if its corpus files were cleaned).
    let mut start_case = 0usize;
    if cfg.resume {
        match load_checkpoint(cfg) {
            Ok(Some((next_case, fps))) => {
                start_case = next_case.min(cfg.cases);
                summary.resumed_from = start_case;
                seen.extend(fps);
            }
            Ok(None) => {}
            Err(e) => eprintln!("warning: ignoring corrupt fuzz checkpoint: {e}"),
        }
    }

    let next = AtomicUsize::new(start_case);
    let stop = AtomicBool::new(false);
    let shared = Mutex::new(Shared {
        summary,
        seen,
        completed: start_case,
        since_checkpoint: 0,
    });
    let workers = cfg.workers.max(1);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // An external cancel latches the shared stop so every
                // worker (and run_case's per-target check) sees it.
                if let Some(ext) = &cfg.stop {
                    if ext.load(Ordering::Relaxed) {
                        stop.store(true, Ordering::Relaxed);
                    }
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let case = next.fetch_add(1, Ordering::Relaxed);
                if case >= cfg.cases {
                    break;
                }
                run_case(cfg, case, &corpus, &shared, &stop, sink);
                let mut sh = lock(&shared);
                sh.completed += 1;
                sh.since_checkpoint += 1;
                if cfg.checkpoint_every > 0 && sh.since_checkpoint >= cfg.checkpoint_every {
                    sh.since_checkpoint = 0;
                    let done = resumable_floor(&next, cfg);
                    let fps = sh.seen.clone();
                    let progress = progress_event(&sh, cfg);
                    drop(sh);
                    sink(&progress);
                    if let Err(e) = save_checkpoint(cfg, done, &fps) {
                        eprintln!("warning: fuzz checkpoint save failed: {e}");
                    }
                }
            });
        }
    });

    let mut sh = lock(&shared);
    sh.summary.cases_run = sh.completed - start_case;
    sh.summary.elapsed = start.elapsed();
    let shrunk: Vec<&FailureSummary> = sh.summary.unique_failures.iter().collect();
    sh.summary.mean_shrink_ratio = if shrunk.is_empty() {
        1.0
    } else {
        shrunk
            .iter()
            .map(|f| {
                if f.original_stmts == 0 {
                    1.0
                } else {
                    f.shrunk_stmts as f64 / f.original_stmts as f64
                }
            })
            .sum::<f64>()
            / shrunk.len() as f64
    };
    let out = sh.summary.clone();
    let fps = sh.seen.clone();
    let final_progress = progress_event(&sh, cfg);
    drop(sh);
    sink(&final_progress);
    if cfg.checkpoint_every > 0 {
        let done = if stop.load(Ordering::Relaxed) {
            // Early stop: cases beyond the floor may be unjudged.
            resumable_floor(&next, cfg)
        } else {
            cfg.cases
        };
        if let Err(e) = save_checkpoint(cfg, done, &fps) {
            eprintln!("warning: fuzz checkpoint save failed: {e}");
        }
    }
    Ok(out)
}

/// Snapshots the shared state into a [`CampaignEvent::Progress`].
fn progress_event(sh: &Shared, cfg: &FuzzConfig) -> CampaignEvent {
    CampaignEvent::Progress {
        completed: sh.completed,
        cases: cfg.cases,
        violations: sh.summary.violations,
        incidents: sh.summary.incident_count,
        states: sh.summary.states,
    }
}

/// A conservative "every case below this is done" floor for resume:
/// with in-flight workers we cannot know the exact completion set, so
/// back off by the worker count from the queue head.
fn resumable_floor(next: &AtomicUsize, cfg: &FuzzConfig) -> usize {
    next.load(Ordering::Relaxed)
        .min(cfg.cases)
        .saturating_sub(cfg.workers.max(1))
}

fn lock<'a>(shared: &'a Mutex<Shared>) -> std::sync::MutexGuard<'a, Shared> {
    match shared.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Generates and judges one case against every target.
fn run_case(
    cfg: &FuzzConfig,
    case: usize,
    corpus: &Corpus,
    shared: &Mutex<Shared>,
    stop: &AtomicBool,
    sink: &(dyn Fn(&CampaignEvent) + Sync),
) {
    let case_seed = mix64(cfg.seed ^ case as u64);
    let mut rng = SplitMix64::new(case_seed);
    let src = random_program(&mut rng, &cfg.gen);
    let with_ctx = cfg.ctx_percent > 0 && rng.chance(cfg.ctx_percent);
    let ctx = with_ctx.then(|| random_context(&mut rng, &cfg.gen));

    for &target in &cfg.targets {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let verdict = catch_unwind(AssertUnwindSafe(|| {
            check_target(target, &src, ctx.as_ref(), &cfg.budgets)
        }))
        .unwrap_or_else(|payload| CheckVerdict::Incident {
            oracle: OracleKind::Seq,
            cause: IncidentCause::CheckerPanic,
            message: panic_message(&payload),
        });
        match verdict {
            CheckVerdict::Unoptimized => {
                lock(shared).summary.unoptimized += 1;
            }
            CheckVerdict::Passed { states } => {
                let mut sh = lock(shared);
                sh.summary.optimized += 1;
                sh.summary.checks_passed += 1;
                sh.summary.states += states;
            }
            CheckVerdict::Incident {
                oracle,
                cause,
                message,
            } => {
                let mut sh = lock(shared);
                sh.summary.incident_count += 1;
                if sh.summary.incidents.len() < CampaignSummary::MAX_RECORDED_INCIDENTS {
                    sh.summary.incidents.push(CaseIncident {
                        case_index: case,
                        target,
                        oracle,
                        cause,
                        message,
                    });
                }
            }
            CheckVerdict::Violation { oracle, detail } => {
                {
                    let mut sh = lock(shared);
                    sh.summary.optimized += 1;
                    sh.summary.violations += 1;
                }
                let original_stmts = case_stmts(&src, ctx.as_ref());
                let out = shrink(
                    target,
                    &src,
                    ctx.as_ref(),
                    oracle,
                    &detail,
                    &cfg.budgets,
                    cfg.shrink_evals,
                );
                let record = FailureRecord {
                    target,
                    oracle: out.oracle,
                    campaign_seed: cfg.seed,
                    case_index: case,
                    original_stmts,
                    shrunk_stmts: out.shrunk_stmts,
                    detail: out.detail.clone(),
                    src: out.src.clone(),
                    ctx: out.ctx.clone(),
                };
                let fp = record.fingerprint();
                let mut new_failure = None;
                let mut sh = lock(shared);
                sh.summary.shrink_evals += out.evals;
                if sh.seen.insert(fp) {
                    match corpus.save(&record) {
                        Ok(path) => {
                            let failure = FailureSummary {
                                fingerprint: fp,
                                target,
                                oracle: out.oracle,
                                path,
                                original_stmts,
                                shrunk_stmts: out.shrunk_stmts,
                            };
                            sh.summary.unique_failures.push(failure.clone());
                            new_failure = Some(failure);
                            if cfg.max_failures > 0
                                && sh.summary.unique_failures.len() >= cfg.max_failures
                            {
                                stop.store(true, Ordering::Relaxed);
                            }
                        }
                        Err(e) => {
                            eprintln!("warning: corpus save failed: {e}");
                            sh.seen.remove(&fp);
                        }
                    }
                }
                drop(sh);
                if let Some(failure) = new_failure {
                    sink(&CampaignEvent::Failure(failure));
                }
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "checker panicked (non-string payload)".to_string()
    }
}

/// Checkpoint path inside the corpus directory.
fn checkpoint_path(cfg: &FuzzConfig) -> PathBuf {
    cfg.corpus_dir.join("checkpoint.sqfz")
}

/// Serializes the resumable campaign state through [`write_atomic`],
/// with a trailing content checksum like the engine's checkpoints.
fn save_checkpoint(cfg: &FuzzConfig, next_case: usize, fps: &BTreeSet<u64>) -> Result<(), String> {
    fs::create_dir_all(&cfg.corpus_dir).map_err(|e| e.to_string())?;
    let mut body = String::new();
    body.push_str(CHECKPOINT_MAGIC);
    body.push('\n');
    body.push_str(&format!("seed: {}\n", cfg.seed));
    body.push_str(&format!("cases: {}\n", cfg.cases));
    body.push_str(&format!("next-case: {next_case}\n"));
    let fp_list: Vec<String> = fps.iter().map(|fp| format!("{fp:016x}")).collect();
    body.push_str(&format!("fingerprints: {}\n", fp_list.join(",")));
    body.push_str(&format!("checksum: {:016x}\n", fp64(&body)));
    write_atomic(&checkpoint_path(cfg), body.as_bytes()).map_err(|e| e.to_string())
}

/// Loads the checkpoint. `Ok(None)` means "no checkpoint" (fresh
/// start); `Err` means a checkpoint exists but is unusable.
fn load_checkpoint(cfg: &FuzzConfig) -> Result<Option<(usize, Vec<u64>)>, String> {
    let path = checkpoint_path(cfg);
    let text = match fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.to_string()),
    };
    let Some((body, checksum_line)) = text.trim_end().rsplit_once('\n') else {
        return Err("truncated checkpoint".to_string());
    };
    let mut body = body.to_string();
    body.push('\n');
    let expected = checksum_line
        .strip_prefix("checksum: ")
        .ok_or("missing checksum line")?;
    let expected = u64::from_str_radix(expected, 16).map_err(|e| format!("bad checksum: {e}"))?;
    let actual = fp64(&body);
    if expected != actual {
        return Err(format!(
            "checksum mismatch ({expected:016x} recorded, {actual:016x} computed)"
        ));
    }
    let mut lines = body.lines();
    if lines.next() != Some(CHECKPOINT_MAGIC) {
        return Err(format!("bad magic (expected {CHECKPOINT_MAGIC})"));
    }
    let mut seed = None;
    let mut cases = None;
    let mut next_case = None;
    let mut fps = Vec::new();
    for line in lines {
        let Some((key, value)) = line.split_once(": ") else {
            continue;
        };
        match key {
            "seed" => seed = value.parse().ok(),
            "cases" => cases = value.parse().ok(),
            "next-case" => next_case = value.parse().ok(),
            "fingerprints" => {
                for part in value.split(',').filter(|p| !p.is_empty()) {
                    fps.push(
                        u64::from_str_radix(part, 16)
                            .map_err(|e| format!("bad fingerprint {part}: {e}"))?,
                    );
                }
            }
            _ => {}
        }
    }
    if seed != Some(cfg.seed) || cases != Some(cfg.cases) {
        return Err(format!(
            "checkpoint is for a different campaign (seed {:?} cases {:?}, this run: seed {} \
             cases {})",
            seed, cases, cfg.seed, cfg.cases
        ));
    }
    let next_case = next_case.ok_or("missing next-case")?;
    Ok(Some((next_case, fps)))
}

/// Replays a persisted failure record: re-runs the oracles on the
/// stored minimized case and reports the verdict.
pub fn replay(record: &FailureRecord, budgets: &OracleBudgets) -> CheckVerdict {
    catch_unwind(AssertUnwindSafe(|| {
        check_target(record.target, &record.src, record.ctx.as_ref(), budgets)
    }))
    .unwrap_or_else(|payload| CheckVerdict::Incident {
        oracle: record.oracle,
        cause: IncidentCause::CheckerPanic,
        message: panic_message(&payload),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::target::BuggyPass;

    fn temp_corpus(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("seqwm-fuzz-campaign-{}-{tag}", std::process::id()))
    }

    fn small_cfg(tag: &str) -> FuzzConfig {
        FuzzConfig {
            cases: 12,
            seed: 0xC0FFEE,
            gen: GenConfig {
                max_stmts: 4,
                ..GenConfig::fuzzing()
            },
            corpus_dir: temp_corpus(tag),
            checkpoint_every: 4,
            ..FuzzConfig::default()
        }
    }

    #[test]
    fn campaign_is_deterministic_across_worker_counts() {
        let dir1 = temp_corpus("det1");
        let dir2 = temp_corpus("det2");
        let _ = fs::remove_dir_all(&dir1);
        let _ = fs::remove_dir_all(&dir2);
        let cfg1 = FuzzConfig {
            corpus_dir: dir1.clone(),
            workers: 1,
            targets: vec![FuzzTarget::Buggy(BuggyPass::ReorderAcquireDown)],
            ..small_cfg("det1")
        };
        let cfg2 = FuzzConfig {
            corpus_dir: dir2.clone(),
            workers: 3,
            targets: vec![FuzzTarget::Buggy(BuggyPass::ReorderAcquireDown)],
            ..small_cfg("det2")
        };
        let s1 = run_campaign(&cfg1).unwrap();
        let s2 = run_campaign(&cfg2).unwrap();
        assert_eq!(s1.violations, s2.violations);
        let fps1: BTreeSet<u64> = s1.unique_failures.iter().map(|f| f.fingerprint).collect();
        let fps2: BTreeSet<u64> = s2.unique_failures.iter().map(|f| f.fingerprint).collect();
        assert_eq!(fps1, fps2);
        let _ = fs::remove_dir_all(&dir1);
        let _ = fs::remove_dir_all(&dir2);
    }

    #[test]
    fn checkpoints_round_trip_and_reject_tampering() {
        let cfg = FuzzConfig {
            corpus_dir: temp_corpus("ckpt"),
            ..small_cfg("ckpt")
        };
        let _ = fs::remove_dir_all(&cfg.corpus_dir);
        fs::create_dir_all(&cfg.corpus_dir).unwrap();
        let fps: BTreeSet<u64> = [1u64, 0xdead_beef].into_iter().collect();
        save_checkpoint(&cfg, 7, &fps).unwrap();
        let (next, loaded) = load_checkpoint(&cfg).unwrap().unwrap();
        assert_eq!(next, 7);
        assert_eq!(loaded, vec![1, 0xdead_beef]);
        // Flip a byte: the checksum must catch it.
        let path = checkpoint_path(&cfg);
        let tampered = fs::read_to_string(&path)
            .unwrap()
            .replace("next-case: 7", "next-case: 9");
        fs::write(&path, tampered).unwrap();
        assert!(load_checkpoint(&cfg).unwrap_err().contains("checksum"));
        // A different campaign's checkpoint is refused.
        save_checkpoint(&cfg, 7, &fps).unwrap();
        let other = FuzzConfig {
            seed: 1,
            ..cfg.clone()
        };
        assert!(load_checkpoint(&other)
            .unwrap_err()
            .contains("different campaign"));
        let _ = fs::remove_dir_all(&cfg.corpus_dir);
    }

    #[test]
    fn resume_skips_completed_cases() {
        let cfg = FuzzConfig {
            corpus_dir: temp_corpus("resume"),
            targets: vec![FuzzTarget::Pipeline],
            ..small_cfg("resume")
        };
        let _ = fs::remove_dir_all(&cfg.corpus_dir);
        let full = run_campaign(&cfg).unwrap();
        assert_eq!(full.cases_run, cfg.cases);
        // The finished checkpoint says everything is done.
        let resumed = run_campaign(&FuzzConfig {
            resume: true,
            ..cfg.clone()
        })
        .unwrap();
        assert_eq!(resumed.resumed_from, cfg.cases);
        assert_eq!(resumed.cases_run, 0);
        let _ = fs::remove_dir_all(&cfg.corpus_dir);
    }

    #[test]
    fn sink_sees_progress_batches_and_every_unique_failure() {
        let cfg = FuzzConfig {
            corpus_dir: temp_corpus("sink"),
            // Enough cases for the planted bug to surface at this seed.
            cases: 80,
            targets: vec![FuzzTarget::Buggy(BuggyPass::ReorderAcquireDown)],
            ..small_cfg("sink")
        };
        let _ = fs::remove_dir_all(&cfg.corpus_dir);
        let events = Mutex::new(Vec::new());
        let summary = run_campaign_with(&cfg, &|e| {
            events.lock().unwrap().push(e.clone());
        })
        .unwrap();
        let events = events.into_inner().unwrap();
        let progresses: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                CampaignEvent::Progress { completed, .. } => Some(*completed),
                _ => None,
            })
            .collect();
        // checkpoint_every = 4 over 12 cases plus the final event.
        assert!(progresses.len() >= 3, "too few progress events");
        assert_eq!(*progresses.last().unwrap(), cfg.cases);
        let failure_fps: BTreeSet<u64> = events
            .iter()
            .filter_map(|e| match e {
                CampaignEvent::Failure(f) => Some(f.fingerprint),
                _ => None,
            })
            .collect();
        let summary_fps: BTreeSet<u64> = summary
            .unique_failures
            .iter()
            .map(|f| f.fingerprint)
            .collect();
        assert_eq!(failure_fps, summary_fps);
        assert!(!summary_fps.is_empty(), "buggy pass produced no failures");
        let _ = fs::remove_dir_all(&cfg.corpus_dir);
    }

    #[test]
    fn external_stop_flag_halts_the_campaign_early() {
        let stop = Arc::new(AtomicBool::new(true)); // pre-set: stop at once
        let cfg = FuzzConfig {
            corpus_dir: temp_corpus("stop"),
            cases: 10_000,
            targets: vec![FuzzTarget::Pipeline],
            stop: Some(stop),
            ..small_cfg("stop")
        };
        let _ = fs::remove_dir_all(&cfg.corpus_dir);
        let s = run_campaign(&cfg).unwrap();
        assert!(
            s.cases_run < cfg.cases,
            "external stop ignored ({} cases ran)",
            s.cases_run
        );
        let _ = fs::remove_dir_all(&cfg.corpus_dir);
    }

    #[test]
    fn summary_json_is_well_formed_enough() {
        let cfg = FuzzConfig {
            corpus_dir: temp_corpus("json"),
            cases: 4,
            targets: vec![FuzzTarget::Buggy(BuggyPass::ReorderAcquireDown)],
            ..small_cfg("json")
        };
        let _ = fs::remove_dir_all(&cfg.corpus_dir);
        let s = run_campaign(&cfg).unwrap();
        let json = s.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"cases_run\":",
            "\"violations\":",
            "\"incident_count\":",
            "\"unique_failures\":[",
            "\"incidents\":[",
            "\"mean_shrink_ratio\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let _ = fs::remove_dir_all(&cfg.corpus_dir);
    }
}
