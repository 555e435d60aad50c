//! Job records: what was submitted, what budgets it carries, where it
//! is in its lifecycle, and how it round-trips through the on-disk
//! journal that survives a daemon restart.
//!
//! Every submitted job is persisted to `<state_dir>/jobs/job-<id>.json`
//! the moment it is accepted, updated on each state transition, and
//! kept after completion so `job.result` keeps answering across
//! restarts. A restarted daemon re-enqueues every journaled job that
//! was still queued or running; explore jobs additionally pick up the
//! engine's periodic checkpoint (`job-<id>.ckpt`) and resume the
//! interrupted frontier instead of starting over.
//!
//! Journal entries are written through [`seqwm_explore::durable`]'s
//! CRC-checked envelope; a torn or corrupted entry is quarantined on
//! load instead of crashing the daemon or silently resurrecting a
//! mangled job.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use seqwm_explore::durable::{self, Quarantine};
use seqwm_json::Json;
use seqwm_lang::parser::parse_program;
use seqwm_lang::Program;
use seqwm_models::ModelChoice;
use seqwm_opt::PassKind;

use crate::proto::{codes, opt_bool, opt_str, opt_u64, req_str, RpcError};

/// What kind of work a job performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// A SEQ refinement check of a program pair.
    Refine,
    /// A promising-semantics state-space exploration.
    Explore,
    /// A differential fuzzing campaign.
    Fuzz,
    /// A validated optimizer run over one program.
    Optimize,
}

impl JobKind {
    /// Stable wire/journal name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobKind::Refine => "refine",
            JobKind::Explore => "explore",
            JobKind::Fuzz => "fuzz",
            JobKind::Optimize => "optimize",
        }
    }

    /// Parses a wire/journal name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "refine" => Some(JobKind::Refine),
            "explore" => Some(JobKind::Explore),
            "fuzz" => Some(JobKind::Fuzz),
            "optimize" => Some(JobKind::Optimize),
            _ => None,
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished with a result.
    Done,
    /// Finished with a structured error (budget trip, panic, …).
    Failed,
    /// Canceled before or during execution.
    Canceled,
}

impl JobState {
    /// Stable wire/journal name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Canceled => "canceled",
        }
    }

    /// Parses a wire/journal name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "done" => Some(JobState::Done),
            "failed" => Some(JobState::Failed),
            "canceled" => Some(JobState::Canceled),
            _ => None,
        }
    }

    /// True for states no worker will touch again.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Canceled)
    }
}

/// Per-job resource budgets, parsed from the request params. All are
/// optional; absent means the engine/oracle default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobBudgets {
    /// Wall-clock deadline (explore jobs).
    pub deadline_ms: Option<u64>,
    /// Memory ceiling in MiB (explore jobs).
    pub max_memory_mb: Option<u64>,
    /// Simulation fuel (refine jobs): total expansion steps across all
    /// initial configurations before the check gives up.
    pub fuel: Option<u64>,
    /// State-count ceiling (explore jobs).
    pub max_states: Option<u64>,
    /// In-RAM visited/frontier budget in MiB before the engine spills
    /// cold shards to disk (explore jobs). Defaults to the memory
    /// ceiling when absent.
    pub spill_budget_mb: Option<u64>,
}

impl JobBudgets {
    /// Reads the budget fields out of a params object.
    ///
    /// # Errors
    ///
    /// `INVALID_PARAMS` when a budget field has the wrong type.
    pub fn from_params(params: &Json) -> Result<Self, RpcError> {
        Ok(JobBudgets {
            deadline_ms: opt_u64(params, "deadline_ms")?,
            max_memory_mb: opt_u64(params, "max_memory_mb")?,
            fuel: opt_u64(params, "fuel")?,
            max_states: opt_u64(params, "max_states")?,
            spill_budget_mb: opt_u64(params, "spill_budget_mb")?,
        })
    }
}

/// A terminal error attached to a failed/canceled job.
#[derive(Clone, Debug)]
pub struct JobError {
    /// JSON-RPC error code (one of [`codes`]).
    pub code: i64,
    /// Human-readable message.
    pub message: String,
    /// Optional structured detail.
    pub data: Option<Json>,
}

impl JobError {
    /// Lifts a protocol-level error (e.g. a params problem discovered
    /// only at execution time) into a job outcome.
    pub fn from_rpc(e: RpcError) -> Self {
        JobError {
            code: e.code,
            message: e.message,
            data: e.data,
        }
    }
}

/// One job: submitted params, lifecycle state, and outcome.
pub struct JobRecord {
    /// Server-assigned id, unique across restarts of one state dir.
    pub id: u64,
    /// What kind of work this is.
    pub kind: JobKind,
    /// The submitted params object, kept verbatim so the journal can
    /// rebuild the job after a restart.
    pub params: Json,
    /// Lifecycle state.
    pub state: JobState,
    /// The result object once `Done`.
    pub result: Option<Json>,
    /// The structured error once `Failed`/`Canceled`.
    pub error: Option<JobError>,
    /// True when the result came straight from the result cache.
    pub cached: bool,
    /// True when this job was re-enqueued by a restarted daemon.
    pub recovered: bool,
    /// Streamed events (fuzz progress batches and unique failures),
    /// in emission order; `job.events` replays then follows these.
    pub events: Vec<Json>,
    /// Cooperative cancel flag, checked by long-running work.
    pub cancel: Arc<AtomicBool>,
}

impl JobRecord {
    /// A fresh record in the `Queued` state.
    pub fn new(id: u64, kind: JobKind, params: Json) -> Self {
        JobRecord {
            id,
            kind,
            params,
            state: JobState::Queued,
            result: None,
            error: None,
            cached: false,
            recovered: false,
            events: Vec::new(),
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The `job.status` view of this record.
    pub fn status_json(&self) -> Json {
        let mut fields = vec![
            ("job".to_string(), Json::num(self.id)),
            ("kind".to_string(), Json::str(self.kind.as_str())),
            ("state".to_string(), Json::str(self.state.as_str())),
            ("cached".to_string(), Json::Bool(self.cached)),
            ("recovered".to_string(), Json::Bool(self.recovered)),
            ("events".to_string(), Json::num(self.events.len() as u64)),
        ];
        if let Some(e) = &self.error {
            fields.push((
                "error".to_string(),
                Json::Obj(vec![
                    ("code".to_string(), Json::Num(e.code as f64)),
                    ("message".to_string(), Json::str(e.message.clone())),
                ]),
            ));
        }
        Json::Obj(fields)
    }

    /// The journal document persisted to `job-<id>.json`.
    pub fn journal_json(&self) -> Json {
        let mut fields = vec![
            ("id".to_string(), Json::num(self.id)),
            ("kind".to_string(), Json::str(self.kind.as_str())),
            ("params".to_string(), self.params.clone()),
            ("state".to_string(), Json::str(self.state.as_str())),
            ("cached".to_string(), Json::Bool(self.cached)),
            ("recovered".to_string(), Json::Bool(self.recovered)),
            ("events".to_string(), Json::Arr(self.events.clone())),
        ];
        if let Some(r) = &self.result {
            fields.push(("result".to_string(), r.clone()));
        }
        if let Some(e) = &self.error {
            let mut err = vec![
                ("code".to_string(), Json::Num(e.code as f64)),
                ("message".to_string(), Json::str(e.message.clone())),
            ];
            if let Some(d) = &e.data {
                err.push(("data".to_string(), d.clone()));
            }
            fields.push(("error".to_string(), Json::Obj(err)));
        }
        Json::Obj(fields)
    }

    /// Rebuilds a record from a journal document. Jobs journaled as
    /// queued or running come back `Queued` with `recovered` set — the
    /// daemon died before they finished, so they must run (or resume)
    /// again.
    pub fn from_journal(doc: &Json) -> Option<Self> {
        let id = doc.get("id")?.as_u64("id").ok()?;
        let kind = JobKind::parse(doc.get("kind")?.as_str("kind").ok()?)?;
        let params = doc.get("params")?.clone();
        let state = JobState::parse(doc.get("state")?.as_str("state").ok()?)?;
        let mut rec = JobRecord::new(id, kind, params);
        rec.cached = matches!(doc.get("cached"), Some(Json::Bool(true)));
        if let Some(Json::Arr(events)) = doc.get("events") {
            rec.events = events.clone();
        }
        if state.is_terminal() {
            rec.state = state;
            rec.result = doc.get("result").cloned();
            rec.error = doc.get("error").and_then(|e| {
                // Error codes are negative (JSON-RPC reserved range),
                // so read the raw number instead of the u64 accessor.
                let code = match e.get("code")? {
                    Json::Num(n) => *n as i64,
                    _ => return None,
                };
                Some(JobError {
                    code,
                    message: e.get("message")?.as_str("message").ok()?.to_string(),
                    data: e.get("data").cloned(),
                })
            });
        } else {
            rec.recovered = true;
            // A half-streamed event log from the dead run would be
            // replayed *and* re-emitted by the re-run; start clean.
            rec.events.clear();
        }
        Some(rec)
    }
}

/// Journal file path for a job id.
pub fn journal_path(jobs_dir: &Path, id: u64) -> PathBuf {
    jobs_dir.join(format!("job-{id}.json"))
}

/// Engine checkpoint path for a job id (explore jobs only).
pub fn checkpoint_path(jobs_dir: &Path, id: u64) -> PathBuf {
    jobs_dir.join(format!("job-{id}.ckpt"))
}

/// Atomically writes a job's journal document (CRC-enveloped).
/// Journal persistence is best-effort: a lost journal entry only
/// costs restart recovery for that one job.
pub fn persist(jobs_dir: &Path, rec: &JobRecord) {
    let _ = durable::write_record(&journal_path(jobs_dir, rec.id), &rec.journal_json());
}

/// Loads every journaled job from a jobs directory, oldest id first.
/// Entries that fail envelope validation — torn writes, flipped
/// bytes, empty files — or that validate but no longer decode as a
/// job record are moved to `quarantine` and counted there.
pub fn load_journal(jobs_dir: &Path, quarantine: &Quarantine) -> Vec<JobRecord> {
    let mut out = Vec::new();
    let Ok(listing) = fs::read_dir(jobs_dir) else {
        return out;
    };
    for item in listing.flatten() {
        let name = item.file_name();
        let Some(n) = name.to_str() else { continue };
        if !n.starts_with("job-") || !n.ends_with(".json") {
            continue;
        }
        let payload = match durable::read_record(&item.path()) {
            Ok(p) => p,
            Err(_) => {
                quarantine.take(&item.path());
                continue;
            }
        };
        let Some(rec) = JobRecord::from_journal(&payload) else {
            quarantine.take(&item.path());
            continue;
        };
        out.push(rec);
    }
    out.sort_by_key(|r| r.id);
    out
}

// ---------------------------------------------------------------------
// Param validation and canonical cache keys
// ---------------------------------------------------------------------

fn parse_named_program(params: &Json, key: &str) -> Result<Program, RpcError> {
    let text = req_str(params, key)?;
    parse_program(&text).map_err(|e| RpcError::invalid_params(format!("{key}: parse error: {e}")))
}

/// Validates the optional `model` param (refine and explore jobs):
/// `"auto"` or a registered backend name.
pub fn model_choice(params: &Json) -> Result<Option<ModelChoice>, RpcError> {
    match opt_str(params, "model")? {
        None => Ok(None),
        Some(s) => ModelChoice::parse(&s).map(Some).ok_or_else(|| {
            RpcError::invalid_params(format!(
                "model: unknown model {s:?} (expected auto|psna|pf|ra|scf|sc)"
            ))
        }),
    }
}

/// Validates refine params and returns `(src, tgt)` parsed.
pub fn refine_programs(params: &Json) -> Result<(Program, Program), RpcError> {
    Ok((
        parse_named_program(params, "src")?,
        parse_named_program(params, "tgt")?,
    ))
}

/// Validates explore params and returns the parsed thread programs.
pub fn explore_programs(params: &Json) -> Result<Vec<Program>, RpcError> {
    let Some(Json::Arr(items)) = params.get("programs") else {
        return Err(RpcError::invalid_params(
            "programs: required array of program texts",
        ));
    };
    if items.is_empty() {
        return Err(RpcError::invalid_params("programs: must be non-empty"));
    }
    items
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let text = p
                .as_str(&format!("programs[{i}]"))
                .map_err(RpcError::invalid_params)?;
            parse_program(text)
                .map_err(|e| RpcError::invalid_params(format!("programs[{i}]: parse error: {e}")))
        })
        .collect()
}

/// Validated optimize params: the program, resolved pass list, round
/// count, whether stages are validated, and any declared contexts.
pub struct OptimizeParams {
    /// The program to optimize.
    pub program: Program,
    /// The passes to run, in order.
    pub passes: Vec<PassKind>,
    /// Pipeline repetitions.
    pub rounds: u64,
    /// Discharge each stage's translation-validation obligation?
    pub validate: bool,
    /// Declared context threads for the PS^na obligations.
    pub contexts: Vec<Program>,
}

/// Parses and validates `optimize.run` params.
pub fn optimize_params(params: &Json) -> Result<OptimizeParams, RpcError> {
    let program = parse_named_program(params, "program")?;
    let passes = match opt_str(params, "passes")? {
        None => PassKind::all().to_vec(),
        Some(s) if s == "all" => PassKind::extended(),
        Some(s) => s
            .split(',')
            .map(|name| {
                PassKind::parse(name.trim()).ok_or_else(|| {
                    RpcError::invalid_params(format!("passes: unknown pass {name:?}"))
                })
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    if passes.is_empty() {
        return Err(RpcError::invalid_params("passes: must name at least one"));
    }
    let rounds = opt_u64(params, "rounds")?.unwrap_or(1).max(1);
    let validate = opt_bool(params, "validate")?.unwrap_or(true);
    let contexts = match params.get("contexts") {
        None => Vec::new(),
        Some(Json::Arr(items)) => items
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let text = p
                    .as_str(&format!("contexts[{i}]"))
                    .map_err(RpcError::invalid_params)?;
                parse_program(text).map_err(|e| {
                    RpcError::invalid_params(format!("contexts[{i}]: parse error: {e}"))
                })
            })
            .collect::<Result<Vec<_>, _>>()?,
        Some(_) => {
            return Err(RpcError::invalid_params(
                "contexts: expected array of program texts",
            ))
        }
    };
    Ok(OptimizeParams {
        program,
        passes,
        rounds,
        validate,
        contexts,
    })
}

/// Canonical cache key for a job, or `None` for uncacheable kinds.
///
/// The key is built from the *canonical* (re-rendered) program texts
/// plus every option that can change the verdict, so textually
/// different but structurally identical submissions share an entry.
/// Budgets are deliberately excluded: only definitive results (no
/// truncation, no budget trip) are ever stored, and those are
/// budget-independent. Fuzz campaigns are randomized long-running
/// work and are never cached.
pub fn cache_key(kind: JobKind, params: &Json) -> Result<Option<String>, RpcError> {
    match kind {
        JobKind::Refine => {
            let (src, tgt) = refine_programs(params)?;
            let max_steps = opt_u64(params, "max_steps")?;
            let model = model_choice(params)?.map(ModelChoice::name);
            Ok(Some(format!(
                "refine|max_steps={:?}|model={:?}|src={src}|tgt={tgt}",
                max_steps, model
            )))
        }
        JobKind::Explore => {
            let progs = explore_programs(params)?;
            let promises = opt_bool(params, "promises")?.unwrap_or(false);
            let reduction = opt_bool(params, "reduction")?.unwrap_or(true);
            let model = model_choice(params)?.map(ModelChoice::name);
            let texts: Vec<String> = progs.iter().map(|p| p.to_string()).collect();
            Ok(Some(format!(
                "explore|promises={promises}|reduction={reduction}|model={:?}|{}",
                model,
                texts.join("|")
            )))
        }
        JobKind::Fuzz => {
            // Validate the numeric fields even though there is no key.
            opt_u64(params, "cases")?;
            opt_u64(params, "seed")?;
            opt_u64(params, "max_failures")?;
            Ok(None)
        }
        JobKind::Optimize => {
            let p = optimize_params(params)?;
            let passes: Vec<String> = p.passes.iter().map(|k| k.to_string()).collect();
            let ctxs: Vec<String> = p.contexts.iter().map(|c| c.to_string()).collect();
            Ok(Some(format!(
                "optimize|passes={}|rounds={}|validate={}|program={}|contexts={}",
                passes.join(","),
                p.rounds,
                p.validate,
                p.program,
                ctxs.join("|")
            )))
        }
    }
}

/// The terminal error every canceled job carries.
pub fn canceled_error() -> JobError {
    JobError {
        code: codes::CANCELED,
        message: "job canceled".to_string(),
        data: None,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn refine_params() -> Json {
        Json::obj(vec![
            ("src", Json::str("return 1;")),
            ("tgt", Json::str("return 1;")),
        ])
    }

    #[test]
    fn journal_round_trips_terminal_jobs_verbatim() {
        let mut rec = JobRecord::new(7, JobKind::Refine, refine_params());
        rec.state = JobState::Done;
        rec.result = Some(Json::obj(vec![("verdict", Json::str("holds"))]));
        rec.cached = true;
        rec.events.push(Json::obj(vec![("type", Json::str("x"))]));
        let back = JobRecord::from_journal(&rec.journal_json()).unwrap();
        assert_eq!(back.id, 7);
        assert_eq!(back.kind, JobKind::Refine);
        assert_eq!(back.state, JobState::Done);
        assert_eq!(back.result, rec.result);
        assert!(back.cached);
        assert!(!back.recovered);
        assert_eq!(back.events.len(), 1);
    }

    #[test]
    fn journal_requeues_interrupted_jobs_as_recovered() {
        for state in [JobState::Queued, JobState::Running] {
            let mut rec = JobRecord::new(3, JobKind::Explore, Json::obj(vec![]));
            rec.state = state;
            rec.events.push(Json::Bool(true));
            let back = JobRecord::from_journal(&rec.journal_json()).unwrap();
            assert_eq!(back.state, JobState::Queued);
            assert!(back.recovered);
            assert!(back.events.is_empty(), "stale events must not replay");
        }
    }

    #[test]
    fn journal_round_trips_failed_jobs_with_error() {
        let mut rec = JobRecord::new(9, JobKind::Refine, refine_params());
        rec.state = JobState::Failed;
        rec.error = Some(JobError {
            code: codes::BUDGET_EXHAUSTED,
            message: "fuel exhausted".to_string(),
            data: Some(Json::obj(vec![("budget", Json::str("fuel"))])),
        });
        let back = JobRecord::from_journal(&rec.journal_json()).unwrap();
        assert_eq!(back.state, JobState::Failed);
        let err = back.error.unwrap();
        assert_eq!(err.code, codes::BUDGET_EXHAUSTED);
        assert_eq!(err.message, "fuel exhausted");
        assert!(err.data.is_some());
    }

    #[test]
    fn cache_key_ignores_whitespace_and_budgets() {
        let a = cache_key(
            JobKind::Refine,
            &Json::obj(vec![
                ("src", Json::str("return   1;")),
                ("tgt", Json::str("return 1 ;")),
                ("fuel", Json::num(10)),
            ]),
        )
        .unwrap()
        .unwrap();
        let b = cache_key(JobKind::Refine, &refine_params())
            .unwrap()
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cache_key_separates_kinds_and_options() {
        let refine = cache_key(JobKind::Refine, &refine_params())
            .unwrap()
            .unwrap();
        let explore = cache_key(
            JobKind::Explore,
            &Json::obj(vec![("programs", Json::Arr(vec![Json::str("return 1;")]))]),
        )
        .unwrap()
        .unwrap();
        assert_ne!(refine, explore);
        let explore_promises = cache_key(
            JobKind::Explore,
            &Json::obj(vec![
                ("programs", Json::Arr(vec![Json::str("return 1;")])),
                ("promises", Json::Bool(true)),
            ]),
        )
        .unwrap()
        .unwrap();
        assert_ne!(explore, explore_promises);
    }

    #[test]
    fn model_param_validates_and_keys_separately() {
        let base = Json::obj(vec![("programs", Json::Arr(vec![Json::str("return 1;")]))]);
        let with_model = Json::obj(vec![
            ("programs", Json::Arr(vec![Json::str("return 1;")])),
            ("model", Json::str("auto")),
        ]);
        let a = cache_key(JobKind::Explore, &base).unwrap().unwrap();
        let b = cache_key(JobKind::Explore, &with_model).unwrap().unwrap();
        assert_ne!(a, b, "model choice must key its own cache entries");
        let bad = Json::obj(vec![
            ("programs", Json::Arr(vec![Json::str("return 1;")])),
            ("model", Json::str("tso")),
        ]);
        let err = cache_key(JobKind::Explore, &bad).unwrap_err();
        assert_eq!(err.code, codes::INVALID_PARAMS);
    }

    #[test]
    fn fuzz_jobs_are_never_cached() {
        let key = cache_key(JobKind::Fuzz, &Json::obj(vec![("cases", Json::num(5))])).unwrap();
        assert!(key.is_none());
    }

    #[test]
    fn load_journal_quarantines_corrupt_entries() {
        let dir = std::env::temp_dir().join(format!("seqwm-serve-job-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // One good record…
        persist(&dir, &JobRecord::new(1, JobKind::Refine, refine_params()));
        // …one truncated, one empty, one with a flipped byte, and one
        // whose envelope is valid but whose payload is not a job.
        let good = fs::read_to_string(journal_path(&dir, 1)).unwrap();
        fs::write(journal_path(&dir, 2), &good[..good.len() / 2]).unwrap();
        fs::write(journal_path(&dir, 3), "").unwrap();
        fs::write(journal_path(&dir, 4), good.replace("refine", "rEfine")).unwrap();
        fs::write(
            journal_path(&dir, 5),
            durable::wrap(&Json::obj(vec![("not", Json::str("a job"))])).to_string(),
        )
        .unwrap();
        let q = Quarantine::new(dir.join("quarantine"));
        let recs = load_journal(&dir, &q);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].id, 1);
        assert_eq!(q.count(), 4);
        let kept = fs::read_dir(q.dir()).unwrap().flatten().count();
        assert_eq!(kept, 4, "corrupt files preserved for inspection");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A journal entry exactly as earlier releases wrote it loads with
    /// no quarantine and the same result.
    #[test]
    fn journal_entries_in_the_existing_format_still_load() {
        let dir = std::env::temp_dir().join(format!("seqwm-serve-compat-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let entry = r#"{"v":1,"crc":"6a9cf824767595ee","payload":{"id":1,"kind":"refine","params":{"src":"store[na](x, 1); store[na](x, 2); return 0;","tgt":"store[na](x, 2); return 0;","wait":true},"state":"done","cached":false,"recovered":false,"events":[{"type":"lifecycle","state":"queued"},{"type":"lifecycle","state":"running"},{"type":"lifecycle","state":"done"}],"result":{"verdict":"holds","method":"simple","configs":20,"behaviors":45}}}"#;
        fs::write(journal_path(&dir, 1), entry).unwrap();
        let q = Quarantine::new(dir.join("quarantine"));
        let recs = load_journal(&dir, &q);
        assert_eq!((recs.len(), q.count()), (1, 0));
        assert_eq!(
            (recs[0].id, recs[0].kind, recs[0].state),
            (1, JobKind::Refine, JobState::Done)
        );
        let expected =
            Json::parse(r#"{"verdict":"holds","method":"simple","configs":20,"behaviors":45}"#)
                .unwrap();
        assert_eq!(recs[0].result, Some(expected));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_programs_are_rejected_at_validation() {
        let bad = Json::obj(vec![
            ("src", Json::str("store[")),
            ("tgt", Json::str("return 1;")),
        ]);
        let err = cache_key(JobKind::Refine, &bad).unwrap_err();
        assert_eq!(err.code, codes::INVALID_PARAMS);
    }
}
