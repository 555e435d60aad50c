//! Translation validation via SEQ and PS^na (the Rust substitute for the
//! paper's Coq certification).
//!
//! The paper *proves* each pass sound against SEQ once and for all; this
//! crate instead *checks* each optimizer run — a translation validation
//! discipline in the spirit the paper suggests for Alive2-style tools
//! (§7). Each pass carries one of two [`Obligation`]s:
//!
//! * [`Obligation::Seq`] — the paper's four passes plus constant
//!   propagation leave the atomic event trace intact, so SEQ refinement
//!   alone validates them: simple refinement (Def. 2.4) first, the
//!   advanced one (Def. 3.3) on demand (DSE across a release, Example
//!   3.5). The adequacy theorem then transfers soundness to arbitrary
//!   concurrent contexts — no reference to PS^na is ever needed, which
//!   is exactly the paper's point.
//! * [`Obligation::PsNa`] — the atomics pass families
//!   ([`crate::modes`], [`crate::fence`], [`crate::rmw`]) and register
//!   promotion ([`crate::promote`]) *change* the trace (SEQ refinement
//!   compares traces pointwise and refutes them by construction), so
//!   they are validated differentially against the PS^na model itself:
//!   target behaviors must refine source behaviors for the closed
//!   program **and** under every declared context, plus a family of
//!   synthesized *prober* contexts ([`probe_contexts`]) exercising the
//!   program's atomic locations with message-passing shapes. This is a
//!   bounded check, not a proof — but it is exactly the differential
//!   discipline the fuzz oracles use, and the planted-bug battery
//!   demonstrates it refutes every known-unsound variant.
//!
//! Either way, an inconclusive check (truncated exploration, mixed
//! atomicity) **fails** validation: the optimizer only ships rewrites it
//! could actually justify.
//!
//! Verdicts — validated *and* refuted — are memoizable in a
//! [`ValidationCache`]; the memo key fingerprints the obligation, both
//! program texts, the declared contexts, and every budget knob, so a
//! cache hit is exactly a rerun of the same check.

use std::collections::BTreeSet;
use std::fmt;
use std::time::Duration;

use seqwm_explore::ExploreConfig;
use seqwm_lang::expr::Expr;
use seqwm_lang::{FenceMode, Loc, Program, ReadMode, Reg, Stmt, WriteMode};
use seqwm_promising::machine::{ps_behaviors_refine, PsBehavior};
use seqwm_promising::search::{engine_config, try_explore_engine};
use seqwm_promising::PsConfig;
use seqwm_seq::refine::{refines_advanced_or_simple_config, RefineConfig};

use crate::memo::{key_fingerprint, CachedVerdict, ValidationCache};
use crate::pipeline::{OptResult, PassKind, Pipeline, PipelineConfig};

/// The translation-validation obligation a pass emits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Obligation {
    /// SEQ refinement (simple, then advanced) suffices.
    Seq,
    /// PS^na differential check under declared + synthesized contexts.
    PsNa,
}

impl fmt::Display for Obligation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Obligation::Seq => write!(f, "seq"),
            Obligation::PsNa => write!(f, "ps-na"),
        }
    }
}

impl PassKind {
    /// The obligation this pass's rewrites carry.
    pub fn obligation(self) -> Obligation {
        match self {
            PassKind::Slf
            | PassKind::Llf
            | PassKind::Dse
            | PassKind::Licm
            | PassKind::ConstProp => Obligation::Seq,
            PassKind::Modes | PassKind::Fence | PassKind::Rmw | PassKind::Promote => {
                Obligation::PsNa
            }
        }
    }
}

/// Which check validated a stage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ValidatedBy {
    /// Simple behavioral refinement (Def. 2.4) sufficed.
    Simple,
    /// Advanced behavioral refinement (Def. 3.3) was needed.
    Advanced,
    /// The PS^na differential check discharged the obligation.
    PsNa,
    /// The stage was a no-op (program unchanged).
    Unchanged,
}

impl ValidatedBy {
    /// Stable lower-case name (`simple`, `advanced`, `ps-na`,
    /// `unchanged`) — used in cached verdicts and wire results.
    pub fn name(self) -> &'static str {
        self.info()
    }

    fn info(self) -> &'static str {
        match self {
            ValidatedBy::Simple => "simple",
            ValidatedBy::Advanced => "advanced",
            ValidatedBy::PsNa => "ps-na",
            ValidatedBy::Unchanged => "unchanged",
        }
    }

    fn from_info(info: &str) -> Option<ValidatedBy> {
        match info {
            "simple" => Some(ValidatedBy::Simple),
            "advanced" => Some(ValidatedBy::Advanced),
            "ps-na" => Some(ValidatedBy::PsNa),
            _ => None,
        }
    }
}

/// A per-stage validation record.
#[derive(Clone, Debug)]
pub struct StageValidation {
    /// The pass that produced this stage.
    pub pass: PassKind,
    /// How the stage was validated.
    pub by: ValidatedBy,
    /// Whether the verdict came out of the memo cache.
    pub cached: bool,
}

/// Validation failure: a pass produced a program whose obligation could
/// not be discharged (refuted, or inconclusive within budget).
#[derive(Clone, Debug)]
pub struct ValidationFailure {
    /// The offending pass.
    pub pass: PassKind,
    /// The pass input.
    pub input: Program,
    /// The pass output.
    pub output: Program,
    /// Diagnostic detail.
    pub detail: String,
}

impl fmt::Display for ValidationFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pass {:?} failed {} validation: {}\n--- input ---\n{}--- output ---\n{}",
            self.pass,
            self.pass.obligation(),
            self.detail,
            self.input,
            self.output
        )
    }
}

impl std::error::Error for ValidationFailure {}

/// The outcome of a validated optimization run.
#[derive(Clone, Debug)]
pub struct ValidatedResult {
    /// The optimization result.
    pub result: OptResult,
    /// Per-stage validation records.
    pub validations: Vec<StageValidation>,
}

impl ValidatedResult {
    /// Stages answered from the memo cache.
    pub fn cached_stages(&self) -> usize {
        self.validations.iter().filter(|v| v.cached).count()
    }
}

/// Budgets and context declarations for validation.
#[derive(Clone, Debug)]
pub struct ValidationConfig {
    /// SEQ refinement checker configuration.
    pub refine: RefineConfig,
    /// PS^na machine bounds for the differential obligation.
    pub ps: PsConfig,
    /// Wall-clock deadline per engine exploration.
    pub deadline: Option<Duration>,
    /// Declared context threads composed with source and target for
    /// PS^na obligations (promotion's declared environment, a litmus
    /// partner thread, ...).
    pub contexts: Vec<Program>,
    /// Additionally synthesize message-passing prober contexts from the
    /// programs' atomic locations ([`probe_contexts`]).
    pub probe: bool,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        ValidationConfig {
            refine: RefineConfig::default(),
            // Optimizer inputs are small thread bodies; the tight bound
            // keeps a refuted or inconclusive check from stalling the
            // pipeline (matching the fuzz-oracle budgets).
            ps: PsConfig {
                max_states: 20_000,
                ..PsConfig::default()
            },
            deadline: Some(Duration::from_millis(2_000)),
            contexts: Vec::new(),
            probe: true,
        }
    }
}

/// Synthesizes message-passing prober contexts over the atomic
/// locations of `input` ∪ `output` (at most two, smallest first).
///
/// For a pair `(l_i, l_j)` the writer prober publishes `l_j` then `l_i`
/// through a release fence and the reader prober polls `l_i` then `l_j`
/// through an acquire fence, printing both reads. Any rewrite that
/// weakens acquire-side synchronization lets the target print the
/// `(1, 0)` outcome the source forbids, which is exactly what the
/// differential check refutes. With one atomic location the probers
/// degenerate to a plain writer and a printing reader; with none, no
/// probers are produced (the closed check still runs).
pub fn probe_contexts(input: &Program, output: &Program) -> Vec<Program> {
    let mut locs: BTreeSet<Loc> = input.body.atomic_locs();
    locs.extend(output.body.atomic_locs());
    let locs: Vec<Loc> = locs.into_iter().take(2).collect();
    let ra = Reg::new("prb_a");
    let rb = Reg::new("prb_b");
    let ret0 = Stmt::Return(Expr::int(0));
    let mut out = Vec::new();
    match locs[..] {
        [] => {}
        [l] => {
            out.push(Program::new(Stmt::block([
                Stmt::Store(l, WriteMode::Rlx, Expr::int(1)),
                ret0.clone(),
            ])));
            out.push(Program::new(Stmt::block([
                Stmt::Load(ra, l, ReadMode::Rlx),
                Stmt::Print(Expr::Reg(ra)),
                ret0,
            ])));
        }
        _ => {
            for (i, j) in [(0, 1), (1, 0)] {
                let (li, lj) = (locs[i], locs[j]);
                out.push(Program::new(Stmt::block([
                    Stmt::Store(lj, WriteMode::Rlx, Expr::int(1)),
                    Stmt::Fence(FenceMode::Rel),
                    Stmt::Store(li, WriteMode::Rlx, Expr::int(1)),
                    ret0.clone(),
                ])));
                out.push(Program::new(Stmt::block([
                    Stmt::Load(ra, li, ReadMode::Rlx),
                    Stmt::Fence(FenceMode::Acq),
                    Stmt::Load(rb, lj, ReadMode::Rlx),
                    Stmt::Print(Expr::Reg(ra)),
                    Stmt::Print(Expr::Reg(rb)),
                    ret0.clone(),
                ])));
            }
        }
    }
    out
}

/// The canonical memo-key text for one obligation instance. Everything
/// that can change the verdict is folded in: the obligation, both
/// program texts, the declared contexts, the probe switch, and every
/// budget knob.
pub fn memo_key(
    obligation: Obligation,
    input: &Program,
    output: &Program,
    vcfg: &ValidationConfig,
) -> String {
    let ctxs: Vec<String> = vcfg.contexts.iter().map(|c| c.to_string()).collect();
    format!(
        "v1;ob={obligation};refine={:?};ps={:?};deadline={:?};probe={};\n\
         --contexts--\n{}\n--input--\n{input}\n--output--\n{output}",
        vcfg.refine,
        vcfg.ps,
        vcfg.deadline,
        vcfg.probe,
        ctxs.join("\n~\n"),
    )
}

fn explore_behaviors(
    threads: &[Program],
    vcfg: &ValidationConfig,
    ecfg: &ExploreConfig,
) -> Result<BTreeSet<PsBehavior>, String> {
    match try_explore_engine(threads, &vcfg.ps, ecfg) {
        Ok(e) if e.stats.quarantined > 0 => Err(format!(
            "inconclusive: {} engine state(s) quarantined",
            e.stats.quarantined
        )),
        Ok(e) if e.stats.truncated => Err(format!(
            "inconclusive: exploration truncated ({})",
            e.stats.stop
        )),
        Ok(e) => Ok(e.behaviors),
        Err(err) => Err(format!("inconclusive: {err}")),
    }
}

/// Discharges a PS^na obligation: the closed program and every
/// (declared + synthesized) context composition must satisfy
/// target ⊑ source on behavior sets.
fn discharge_ps_na(
    input: &Program,
    output: &Program,
    vcfg: &ValidationConfig,
) -> Result<(), String> {
    let mut contexts: Vec<Option<Program>> = vec![None];
    contexts.extend(vcfg.contexts.iter().cloned().map(Some));
    if vcfg.probe {
        contexts.extend(probe_contexts(input, output).into_iter().map(Some));
    }
    let ecfg = ExploreConfig {
        deadline: vcfg.deadline,
        ..engine_config(&vcfg.ps)
    };
    for ctx in &contexts {
        let mut srcs = vec![input.clone()];
        let mut tgts = vec![output.clone()];
        if let Some(c) = ctx {
            srcs.push(c.clone());
            tgts.push(c.clone());
        }
        let src = explore_behaviors(&srcs, vcfg, &ecfg)?;
        let tgt = explore_behaviors(&tgts, vcfg, &ecfg)?;
        if let Err(unmatched) = ps_behaviors_refine(&tgt, &src) {
            let where_ = match ctx {
                None => "closed program".to_string(),
                Some(c) => format!("context {{ {} }}", c.to_string().replace('\n', " ")),
            };
            return Err(format!("unmatched PS^na behavior {unmatched} ({where_})"));
        }
    }
    Ok(())
}

/// Validates a single rewrite, consulting (and feeding) the memo cache
/// when one is supplied.
///
/// # Errors
///
/// The refutation (or inconclusiveness) detail when the obligation
/// could not be discharged.
pub fn validate_rewrite(
    pass: PassKind,
    input: &Program,
    output: &Program,
    vcfg: &ValidationConfig,
    cache: Option<&ValidationCache>,
) -> Result<StageValidation, String> {
    // Structural equality misses no-op rewrites that only reassociate
    // the `Seq` spine; the rendered text is the canonical form.
    if input == output || input.to_string() == output.to_string() {
        return Ok(StageValidation {
            pass,
            by: ValidatedBy::Unchanged,
            cached: false,
        });
    }
    let obligation = pass.obligation();
    let key = memo_key(obligation, input, output, vcfg);
    let fp = key_fingerprint(&key);

    if let Some(cache) = cache {
        if let Some(v) = cache.get(fp, &key) {
            if !v.ok {
                return Err(v.info);
            }
            if let Some(by) = ValidatedBy::from_info(&v.info) {
                return Ok(StageValidation {
                    pass,
                    by,
                    cached: true,
                });
            }
            // Unknown verdict shape (future version): fall through to a
            // fresh check, which will overwrite it.
        }
    }

    let fresh = match obligation {
        Obligation::Seq => match refines_advanced_or_simple_config(input, output, &vcfg.refine) {
            Ok(true) => Ok(ValidatedBy::Simple),
            Ok(false) => Ok(ValidatedBy::Advanced),
            Err(detail) => Err(detail),
        },
        Obligation::PsNa => discharge_ps_na(input, output, vcfg).map(|()| ValidatedBy::PsNa),
    };

    if let Some(cache) = cache {
        let verdict = match &fresh {
            Ok(by) => CachedVerdict {
                ok: true,
                info: by.info().to_string(),
            },
            Err(detail) => CachedVerdict {
                ok: false,
                info: detail.clone(),
            },
        };
        cache.put(fp, &key, &verdict);
    }

    fresh.map(|by| StageValidation {
        pass,
        by,
        cached: false,
    })
}

/// Runs the pipeline and validates every stage against its obligation.
///
/// # Errors
///
/// Returns a [`ValidationFailure`] (boxed — it carries both programs) if
/// any stage's obligation cannot be discharged.
pub fn optimize_validated_with(
    prog: &Program,
    cfg: PipelineConfig,
    vcfg: &ValidationConfig,
    cache: Option<&ValidationCache>,
) -> Result<ValidatedResult, Box<ValidationFailure>> {
    let passes = cfg.passes.clone();
    let rounds = cfg.rounds.max(1);
    let result = Pipeline::new(cfg).optimize(prog);
    let mut validations = Vec::new();
    for (i, window) in result.stages.windows(2).enumerate() {
        let (input, output) = (&window[0], &window[1]);
        let pass = passes[i % passes.len().max(1)];
        debug_assert!(i < passes.len() * rounds);
        match validate_rewrite(pass, input, output, vcfg, cache) {
            Ok(v) => validations.push(v),
            Err(detail) => {
                return Err(Box::new(ValidationFailure {
                    pass,
                    input: input.clone(),
                    output: output.clone(),
                    detail,
                }))
            }
        }
    }
    Ok(ValidatedResult {
        result,
        validations,
    })
}

/// Runs the pipeline and validates every stage, with default PS^na
/// budgets, no declared contexts, and no memo cache.
///
/// # Errors
///
/// Returns a [`ValidationFailure`] (boxed — it carries both programs) if
/// any stage fails its obligation (which for the paper's passes would
/// indicate an optimizer bug — none is known).
pub fn optimize_validated(
    prog: &Program,
    cfg: PipelineConfig,
    refine_cfg: &RefineConfig,
) -> Result<ValidatedResult, Box<ValidationFailure>> {
    let vcfg = ValidationConfig {
        refine: refine_cfg.clone(),
        ..ValidationConfig::default()
    };
    optimize_validated_with(prog, cfg, &vcfg, None)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use seqwm_lang::parser::parse_program;

    fn validate(src: &str) -> ValidatedResult {
        let p = parse_program(src).unwrap();
        optimize_validated(&p, PipelineConfig::default(), &RefineConfig::default())
            .expect("optimizer output must refine its input in SEQ")
    }

    #[test]
    fn slf_validates_simply() {
        let v = validate("store[na](v1x, 1); b := load[na](v1x); return b;");
        assert!(v.result.total_rewrites() >= 1);
        let slf = v
            .validations
            .iter()
            .find(|s| s.pass == PassKind::Slf)
            .unwrap();
        assert_eq!(slf.by, ValidatedBy::Simple);
        assert!(!slf.cached);
        // Not across an acquire-release fence (a release–acquire pair).
        let v = validate("store[na](x, 1); fence[acqrel]; a := load[na](x); return a;");
        assert!(v.result.program.to_string().contains("a := load[na](x);"));
    }

    #[test]
    fn dse_across_release_needs_advanced() {
        let v = validate("store[na](v2x, 1); store[rel](v2y, 5); store[na](v2x, 2);");
        let dse = v
            .validations
            .iter()
            .find(|s| s.pass == PassKind::Dse)
            .unwrap();
        assert_eq!(
            dse.by,
            ValidatedBy::Advanced,
            "Example 3.5: DSE across a release is invalidated by the simple \
             notion but validated by the advanced one"
        );
        // An acquire-release fence completes a release–acquire pair:
        // the first store stays and the stage validates.
        let v = validate("store[na](x, 1); fence[acqrel]; store[na](x, 2); return 0;");
        assert!(v.result.program.to_string().contains("store[na](x, 1);"));
    }

    #[test]
    fn licm_validates() {
        let v = validate("while (i < 2) { a := load[na](v3x); i := i + 1; } return a;");
        assert!(v
            .validations
            .iter()
            .any(|s| s.pass == PassKind::Licm && s.by != ValidatedBy::Unchanged));
    }

    #[test]
    fn figure_4_validates_end_to_end() {
        let v = validate(
            "store[na](v4x, 42);
             l := load[acq](v4y);
             if (l == 0) { a := load[na](v4x); }
             store[rel](v4y, 1);
             b := load[na](v4x);
             return b;",
        );
        assert!(v.result.total_rewrites() >= 2);
    }

    #[test]
    fn obligations_partition_the_passes() {
        for p in PassKind::extended() {
            let expected = matches!(
                p,
                PassKind::Modes | PassKind::Fence | PassKind::Rmw | PassKind::Promote
            );
            assert_eq!(p.obligation() == Obligation::PsNa, expected, "{p}");
        }
    }

    #[test]
    fn fence_elimination_discharges_ps_na() {
        let p = parse_program("fence[acq]; a := load[rlx](v5x); return a;").unwrap();
        let cfg = PipelineConfig {
            passes: vec![PassKind::Fence],
            rounds: 1,
        };
        let v = optimize_validated_with(&p, cfg, &ValidationConfig::default(), None).unwrap();
        assert_eq!(v.validations[0].by, ValidatedBy::PsNa);
        assert!(v.result.total_rewrites() >= 1);
    }

    #[test]
    fn probe_contexts_cover_the_pair_shapes() {
        let p = parse_program("a := load[rlx](v6f); fence[acq]; b := load[rlx](v6g); return 0;")
            .unwrap();
        let probes = probe_contexts(&p, &p);
        assert_eq!(probes.len(), 4, "two ordered pairs × writer/reader");
        let text: Vec<String> = probes.iter().map(|c| c.to_string()).collect();
        assert!(text.iter().any(|t| t.contains("fence[rel]")), "{text:?}");
        assert!(text.iter().any(|t| t.contains("fence[acq]")), "{text:?}");
        let closed = parse_program("a := 1; return a;").unwrap();
        assert!(probe_contexts(&closed, &closed).is_empty());
    }

    #[test]
    fn unsound_rewrite_is_refuted_by_probers() {
        // Hand-rolled "fence elimination across an acquire": the reader
        // side of MP with its acquire fence deleted. The writer prober
        // publishes g before f, so the target's (1, 0) print is
        // unmatched.
        let src = parse_program(
            "a := load[rlx](v7f); fence[acq]; b := load[rlx](v7g); print(a); print(b); return 0;",
        )
        .unwrap();
        let tgt = parse_program(
            "a := load[rlx](v7f); b := load[rlx](v7g); print(a); print(b); return 0;",
        )
        .unwrap();
        let err = validate_rewrite(
            PassKind::Fence,
            &src,
            &tgt,
            &ValidationConfig::default(),
            None,
        )
        .expect_err("deleting a live acquire fence must be refuted");
        assert!(err.contains("unmatched"), "{err}");
    }

    #[test]
    fn memoized_and_fresh_verdicts_agree() {
        let dir = std::env::temp_dir().join(format!("seqwm-opt-validate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ValidationCache::open(&dir, 16).unwrap();
        let p = parse_program("fence[acq]; a := load[rlx](v8x); return a;").unwrap();
        let cfg = PipelineConfig {
            passes: vec![PassKind::Fence],
            rounds: 1,
        };
        let vcfg = ValidationConfig::default();
        let cold = optimize_validated_with(&p, cfg.clone(), &vcfg, Some(&cache)).unwrap();
        assert_eq!(cold.cached_stages(), 0);
        let warm = optimize_validated_with(&p, cfg, &vcfg, Some(&cache)).unwrap();
        assert_eq!(warm.cached_stages(), 1);
        assert_eq!(
            cold.validations[0].by, warm.validations[0].by,
            "cached verdict must agree with the fresh one"
        );
        assert_eq!(cold.result.program, warm.result.program);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
