//! `optimize-validate`: generated programs through the nine-pass
//! extended pipeline with every stage validated.
//!
//! One op is one program. A pass runs the whole corpus, in an order the
//! run seed permutes, against one fresh memo store on this thread; the
//! run repeats passes until `--seconds` have elapsed. The corpus itself
//! is fixed (see README.md: the cost per program is so heavy-tailed that
//! corpora drawn per seed cannot give steady figures).

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use seqwm_explore::counters::{REFINE_ENUMERATIONS, REFINE_FUEL_SPENT};
use seqwm_explore::SplitMix64;
use seqwm_lang::Program;
use seqwm_litmus::gen::{random_program, GenConfig};
use seqwm_opt::{
    optimize_validated_with, validate_rewrite, Obligation, PassKind, Pipeline, PipelineConfig,
    ValidatedBy, ValidationCache, ValidationConfig,
};
use seqwm_seq::refine::{refines_advanced_or_simple_outcome, RefineCheckError};

use crate::report::{
    ms, op_seed, permutation, put_end_to_end, put_host_layer, ratio, Bound, Outcome, SetupClock,
};
use crate::speed::HostSpeed;
use crate::trace::{total_ms, Tracer};
use crate::RunArgs;

/// Corpus seed: the seed the workload was sized with.
const CORPUS_SEED: u64 = 1;
/// Programs in the corpus.
const CORPUS_SIZE: usize = 60;
/// Memo store capacity (entries): larger than any pass can fill.
const MEMO_CAPACITY: usize = 4096;
/// Set-ups per timed chunk (one set-up takes 0.1–0.2 ms).
const SETUP_REPS: usize = 2000;

fn pipeline() -> PipelineConfig {
    PipelineConfig {
        passes: PassKind::extended(),
        rounds: 1,
    }
}

/// The corpus for `corpus_seed`: program `i` comes from generator seed
/// `op_seed(corpus_seed, i)`.
fn corpus(corpus_seed: u64, n: usize) -> Vec<Program> {
    let gen = GenConfig::fuzzing();
    (0..n as u64)
        .map(|i| random_program(&mut SplitMix64::new(op_seed(corpus_seed, i)), &gen))
        .collect()
}

fn fresh_memo(work: &Path, tag: &str) -> Result<(ValidationCache, PathBuf), String> {
    let dir = work.join(format!("opt-memo-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let memo = ValidationCache::open(&dir, MEMO_CAPACITY)
        .map_err(|e| format!("cannot open memo store {}: {e}", dir.display()))?;
    Ok((memo, dir))
}

/// How one program's validated optimization ended.
enum Verdict {
    /// Every stage validated.
    Validated,
    /// A stage's obligation could not be decided (a failed op).
    Inconclusive(String),
    /// A stage was refuted: a wrong answer, since every pass claims to
    /// be sound.
    Refuted(String),
}

/// Classifies a failed stage outside the timed region. PS^na failures
/// say `inconclusive` in their detail; SEQ failures are re-checked for
/// their typed outcome.
fn classify(
    pass: PassKind,
    input: &Program,
    output: &Program,
    detail: &str,
    vcfg: &ValidationConfig,
) -> Verdict {
    let what = format!("pass {pass} on\n{input}--- gave ---\n{output}: {detail}");
    match pass.obligation() {
        Obligation::PsNa if detail.starts_with("inconclusive") => Verdict::Inconclusive(what),
        Obligation::PsNa => Verdict::Refuted(what),
        Obligation::Seq => match refines_advanced_or_simple_outcome(input, output, &vcfg.refine) {
            Err(RefineCheckError::Inconclusive(_)) => Verdict::Inconclusive(what),
            _ => Verdict::Refuted(what),
        },
    }
}

/// One untraced pass: per-op times, their sum, and verdicts (checked
/// later). The host's speed is sampled before each op, untimed.
fn run_pass(
    corpus: &[Program],
    order: &[usize],
    memo: &ValidationCache,
    vcfg: &ValidationConfig,
    speed: &mut HostSpeed,
) -> (Vec<f64>, Duration, Vec<Verdict>) {
    let mut op_ms = Vec::with_capacity(order.len());
    let mut results = Vec::with_capacity(order.len());
    let mut wall = Duration::ZERO;
    for &i in order {
        speed.sample();
        let t = Instant::now();
        let r = optimize_validated_with(&corpus[i], pipeline(), vcfg, Some(memo));
        let took = t.elapsed();
        wall += took;
        op_ms.push(ms(took));
        results.push(r);
    }
    let verdicts = results
        .into_iter()
        .map(|r| match r {
            Ok(_) => Verdict::Validated,
            Err(f) => classify(f.pass, &f.input, &f.output, &f.detail, vcfg),
        })
        .collect();
    (op_ms, wall, verdicts)
}

/// Per-layer tallies of the traced pass.
#[derive(Default)]
struct Tally {
    stages: u64,
    changed: u64,
    rewrites: u64,
    seq_simple: u64,
    seq_advanced: u64,
}

/// One traced pass: the same work as [`optimize_validated_with`], with
/// a span around `Pipeline::optimize` and each `validate_rewrite`,
/// named by the stage's obligation.
fn run_traced_pass(
    corpus: &[Program],
    order: &[usize],
    memo: &ValidationCache,
    vcfg: &ValidationConfig,
    tr: &mut Tracer,
) -> (Duration, Vec<Verdict>, Tally) {
    let passes = PassKind::extended();
    let mut tally = Tally::default();
    let mut verdicts = Vec::with_capacity(order.len());
    let start = Instant::now();
    for &i in order {
        let op = tr.enter("op", i as u64);
        let result = tr.span("opt.pipeline", i as u64, || {
            Pipeline::new(pipeline()).optimize(&corpus[i])
        });
        tally.rewrites += result.total_rewrites() as u64;
        let mut verdict = Verdict::Validated;
        for (k, w) in result.stages.windows(2).enumerate() {
            let pass = passes[k % passes.len()];
            let unchanged = w[0] == w[1] || w[0].to_string() == w[1].to_string();
            let name = match (unchanged, pass.obligation()) {
                (true, _) => "opt.validate.unchanged",
                (false, Obligation::Seq) => "opt.validate.seq",
                (false, Obligation::PsNa) => "opt.validate.psna",
            };
            let id = tr.enter(name, i as u64);
            let v = validate_rewrite(pass, &w[0], &w[1], vcfg, Some(memo));
            tr.exit(id, v.as_ref().map_or("failed", |s| s.by.name()));
            tally.stages += 1;
            tally.changed += u64::from(!unchanged);
            match v {
                Ok(s) if s.by == ValidatedBy::Simple => tally.seq_simple += 1,
                Ok(s) if s.by == ValidatedBy::Advanced => tally.seq_advanced += 1,
                Ok(_) => {}
                Err(detail) => {
                    verdict = classify(pass, &w[0], &w[1], &detail, vcfg);
                    break;
                }
            }
        }
        tr.exit(op, "");
        verdicts.push(verdict);
    }
    (start.elapsed(), verdicts, tally)
}

fn check(verdicts: Vec<Verdict>, out: &mut Outcome) {
    for v in verdicts {
        out.attempted += 1;
        match v {
            Verdict::Validated => {}
            Verdict::Inconclusive(what) => {
                out.failed += 1;
                eprintln!("optimize-validate: inconclusive stage: {what}");
            }
            Verdict::Refuted(what) => out.wrong(format!("refuted stage: {what}")),
        }
    }
}

/// Runs the workload.
pub fn run(args: &RunArgs, out: &mut Outcome, tracer: &mut Tracer) -> Result<(), String> {
    let vcfg = ValidationConfig::default();

    // Set-up: generate the corpus and create the memo store. Every pass
    // gets its own, from a chunk of timed set-ups just before it; a last
    // chunk after the timed phase serves the traced pass.
    let mut clock = SetupClock::new(SETUP_REPS, &args.work);
    let mut setup = |rep: usize| {
        let corpus = corpus(CORPUS_SEED, CORPUS_SIZE);
        let (memo, dir) = fresh_memo(&args.work, &format!("setup{rep}"))?;
        Ok((corpus, memo, dir))
    };
    let teardown = |(_, memo, dir): (Vec<Program>, ValidationCache, PathBuf)| {
        drop(memo);
        let _ = std::fs::remove_dir_all(dir);
    };
    let order = permutation(args.seed, CORPUS_SIZE);

    // Timed phase: whole passes until the time is up.
    let mut op_ms = Vec::new();
    let mut phase = Duration::ZERO;
    let mut passes = 0u32;
    while phase < args.seconds {
        let (corpus, memo, dir) = clock.chunk(&mut setup, teardown)?;
        let (times, wall, verdicts) = run_pass(&corpus, &order, &memo, &vcfg, &mut clock.speed);
        teardown((corpus, memo, dir));
        op_ms.extend(times);
        phase += wall;
        passes += 1;
        check(verdicts, out);
    }
    let (corpus, memo, memo_dir) = clock.chunk(&mut setup, teardown)?;

    if !args.trace {
        teardown((corpus, memo, memo_dir));
        put_end_to_end(out, op_ms.len(), phase, &clock, Bound::Cpu);
        return Ok(());
    }
    put_host_layer(out, op_ms.len(), phase, &clock);

    let fuel0 = REFINE_FUEL_SPENT.load(Ordering::Relaxed);
    let enum0 = REFINE_ENUMERATIONS.load(Ordering::Relaxed);
    let (wall, verdicts, tally) = run_traced_pass(&corpus, &order, &memo, &vcfg, tracer);
    let fuel = (REFINE_FUEL_SPENT.load(Ordering::Relaxed) - fuel0) as f64;
    let enumerations = (REFINE_ENUMERATIONS.load(Ordering::Relaxed) - enum0) as f64;
    check(verdicts, out);
    let stats = memo.stats();
    let memo_bytes = crate::report::dir_bytes(&memo_dir);
    drop(memo);
    let _ = std::fs::remove_dir_all(&memo_dir);

    let spans = tracer.spans();
    let seq_ms = total_ms(spans, "opt.validate.seq");
    out.put("opt.pipeline_ms", total_ms(spans, "opt.pipeline"), "ms");
    out.put(
        "opt.unchanged_ms",
        total_ms(spans, "opt.validate.unchanged"),
        "ms",
    );
    out.put("opt.validate_seq_ms", seq_ms, "ms");
    out.put(
        "opt.validate_psna_ms",
        total_ms(spans, "opt.validate.psna"),
        "ms",
    );
    out.put("opt.stages", tally.stages as f64, "count");
    out.put("opt.stages_changed", tally.changed as f64, "count");
    out.put("opt.rewrites", tally.rewrites as f64, "count");
    out.put(
        "opt.seq_simple_share",
        ratio(
            tally.seq_simple as f64,
            (tally.seq_simple + tally.seq_advanced) as f64,
        ),
        "share",
    );
    out.put("opt.memo_hits", stats.hits as f64, "count");
    out.put("opt.memo_misses", stats.misses as f64, "count");
    out.put("opt.memo_bytes", memo_bytes as f64, "bytes");
    out.put("core.refine_fuel", fuel, "count");
    out.put("core.refine_enumerations", enumerations, "count");
    out.put("core.fuel_per_s", ratio(fuel, seq_ms / 1e3), "1/s");
    crate::put_run_layer(out, &op_ms, phase.as_secs_f64() / f64::from(passes), wall);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Two corpus seeds draw disjoint corpora: under `seed ^ i` seeds 1
    /// and 2 share every program, while independent draws share only the
    /// generator's few tiny programs (at most 4 of 60 over 300
    /// neighbouring seed pairs). That the generator seeds themselves
    /// differ is `report`'s `op_seeds_of_neighbouring_seeds_do_not_collide`.
    #[test]
    fn neighbouring_corpus_seeds_share_few_programs() {
        for a in [CORPUS_SEED, 7] {
            let texts: BTreeSet<String> = corpus(a, CORPUS_SIZE)
                .iter()
                .map(|p| p.to_string())
                .collect();
            let shared = corpus(a + 1, CORPUS_SIZE)
                .iter()
                .filter(|p| texts.contains(&p.to_string()))
                .count();
            assert!(
                shared <= CORPUS_SIZE / 10,
                "corpus seeds {a} and {} share {shared} of {CORPUS_SIZE} programs",
                a + 1
            );
        }
    }
}
