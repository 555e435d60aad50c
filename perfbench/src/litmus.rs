//! `litmus-explore`: litmus cases explored to complete behavior sets
//! with two engine workers.
//!
//! One op is one case: the 19 concurrent-corpus cases under their own
//! `PsConfig`, three scaling instances through `ScalingCase::explore`,
//! and two race-free scaling instances through the DRF-gated planner.
//! The case set is fixed because every case has a hand-written expected
//! outcome; the run seed only permutes the order. A pass runs every case
//! once; the run repeats passes until `--seconds` have elapsed.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use seqwm_explore::{ExploreConfig, ExploreStats};
use seqwm_lang::{Program, Value};
use seqwm_litmus::concurrent::{concurrent_corpus, ConcurrentCase};
use seqwm_litmus::scaling::{mp_chain, na_disjoint, sb_ring, ScalingCase};
use seqwm_models::{plan_explore, ModelChoice, ModelOpts};
use seqwm_promising::machine::PsBehavior;
use seqwm_promising::search::{engine_config, explore_engine};
use seqwm_promising::PsConfig;

use crate::report::{
    ms, permutation, put_end_to_end, put_host_layer, ratio, Bound, Outcome, SetupClock,
};
use crate::speed::HostSpeed;
use crate::trace::{total_ms, Tracer};
use crate::RunArgs;

/// Engine workers for the timed passes.
const WORKERS: usize = 2;
/// Set-ups per timed chunk (one set-up takes 0.2–0.4 ms).
const SETUP_REPS: usize = 1000;

/// One litmus op.
enum Case {
    /// A concurrent-corpus case, parsed, with its own configuration.
    Corpus(ConcurrentCase, Vec<Program>, PsConfig),
    /// A scaling instance explored through `ScalingCase::explore`.
    Scaling(ScalingCase),
    /// A race-free scaling instance sent through the planner.
    Planned(ScalingCase, Vec<Program>),
}

impl Case {
    /// Unique case name; planner cases are prefixed `auto-` because
    /// the corpus has a `mp-chain-4` of its own.
    fn name(&self) -> String {
        match self {
            Case::Corpus(c, ..) => c.name.to_string(),
            Case::Scaling(s) => s.name.clone(),
            Case::Planned(s, _) => format!("auto-{}", s.name),
        }
    }
}

/// What one exploration produced, kept for checking after the pass.
struct Explored {
    behaviors: BTreeSet<PsBehavior>,
    truncated: bool,
    /// Engine statistics of a direct exploration (`None` for the planner).
    stats: Option<ExploreStats>,
    /// States the planner spent in race checkers and in the final run.
    planner_states: Option<(usize, usize)>,
}

impl Explored {
    fn states(&self) -> usize {
        match (&self.stats, self.planner_states) {
            (Some(s), _) => s.states,
            (None, Some((checker, fin))) => checker + fin,
            (None, None) => 0,
        }
    }
}

fn all_cases() -> Vec<Case> {
    let mut out: Vec<Case> = concurrent_corpus()
        .into_iter()
        .map(|c| {
            let progs = c.programs();
            let cfg = c.config();
            Case::Corpus(c, progs, cfg)
        })
        .collect();
    out.extend([mp_chain(5), sb_ring(4), na_disjoint(3)].map(Case::Scaling));
    out.extend([na_disjoint(4), mp_chain(4)].map(|s| {
        let progs = s.programs();
        Case::Planned(s, progs)
    }));
    out
}

/// The per-case metric names, in set-up order. A character a metric
/// name may not hold (the `+` of `2+2w-rlx`) becomes `_`.
pub fn case_metrics() -> Vec<String> {
    all_cases().iter().map(|c| case_metric(&c.name())).collect()
}

fn case_metric(case: &str) -> String {
    let safe: String = case
        .chars()
        .map(|c| match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' | '.' | '-' => c,
            _ => '_',
        })
        .collect();
    format!("explore.case_ms.{safe}")
}

fn explore(case: &Case, workers: usize) -> Explored {
    match case {
        Case::Corpus(_, progs, cfg) => {
            let ecfg = ExploreConfig {
                workers,
                ..engine_config(cfg)
            };
            let e = explore_engine(progs, cfg, &ecfg);
            Explored {
                behaviors: e.behaviors,
                truncated: e.stats.truncated,
                stats: Some(e.stats),
                planner_states: None,
            }
        }
        Case::Scaling(s) => {
            let ecfg = ExploreConfig {
                workers,
                ..engine_config(&s.config())
            };
            let e = s.explore(&ecfg);
            Explored {
                behaviors: e.behaviors,
                truncated: e.stats.truncated,
                stats: Some(e.stats),
                planner_states: None,
            }
        }
        Case::Planned(_, progs) => {
            let opts = ModelOpts {
                workers,
                ..ModelOpts::default()
            };
            let plan = plan_explore(progs, ModelChoice::Auto, &opts);
            Explored {
                truncated: !plan.complete(),
                planner_states: Some((plan.checker_states, plan.exploration.states)),
                behaviors: plan.exploration.behaviors,
                stats: None,
            }
        }
    }
}

fn ints(vs: &[i64]) -> Vec<Value> {
    vs.iter().map(|&v| Value::Int(v)).collect()
}

fn returns(behaviors: &BTreeSet<PsBehavior>) -> BTreeSet<Vec<Value>> {
    behaviors
        .iter()
        .filter_map(|b| match b {
            PsBehavior::Returns { returns, .. } => Some(returns.clone()),
            PsBehavior::Ub => None,
        })
        .collect()
}

fn printed(behaviors: &BTreeSet<PsBehavior>, tid: usize, vals: &Vec<Value>) -> bool {
    behaviors.iter().any(|b| match b {
        PsBehavior::Returns { prints, .. } => prints.get(tid) == Some(vals),
        PsBehavior::Ub => false,
    })
}

/// A corpus case's hand-written expectations (the checks
/// `ConcurrentCase::check_with_engine` makes).
fn check_corpus(c: &ConcurrentCase, e: &Explored) -> Result<(), String> {
    let rets = returns(&e.behaviors);
    if let Some(want) = c.returns_present.iter().find(|w| !rets.contains(*w)) {
        return Err(format!("expected outcome {want:?} not observed"));
    }
    if let Some(banned) = c.returns_absent.iter().find(|b| rets.contains(*b)) {
        return Err(format!("forbidden outcome {banned:?} observed"));
    }
    if let Some(want_ub) = c.ub {
        let has_ub = e.behaviors.contains(&PsBehavior::Ub);
        if has_ub != want_ub {
            return Err(format!("UB reachable = {has_ub}, expected {want_ub}"));
        }
    }
    if let Some((tid, vals)) = c
        .prints_present
        .iter()
        .find(|(t, v)| !printed(&e.behaviors, *t, v))
    {
        return Err(format!("thread {tid} cannot print {vals:?}"));
    }
    if let Some((tid, vals)) = c
        .prints_absent
        .iter()
        .find(|(t, v)| printed(&e.behaviors, *t, v))
    {
        return Err(format!("thread {tid} can print forbidden {vals:?}"));
    }
    Ok(())
}

/// The outcome facts the scaling-family tests assert.
fn check_scaling(s: &ScalingCase, e: &Explored) -> Result<(), String> {
    if e.behaviors.contains(&PsBehavior::Ub) {
        return Err("UB reachable".to_string());
    }
    let rets = returns(&e.behaviors);
    let n = s.n;
    let (present, absent): (Vec<Vec<i64>>, Vec<Vec<i64>>) = match s.family {
        "mp-chain" => {
            // Every relay saw its flag and the reader saw the data; the
            // reader never sees the last flag with stale data.
            let ok: Vec<i64> = std::iter::once(0)
                .chain(std::iter::repeat_n(1, n - 1))
                .collect();
            let mut stale = ok.clone();
            stale[n - 1] = 0;
            (vec![ok], vec![stale])
        }
        "sb-ring" => (vec![vec![0; n], vec![1; n]], vec![]),
        "na-disjoint" => {
            // Private locations only: every thread returns 0, always.
            if rets.len() != 1 {
                return Err(format!(
                    "expected the single outcome all-zero, got {rets:?}"
                ));
            }
            (vec![vec![0; n]], vec![])
        }
        other => return Err(format!("unknown family {other}")),
    };
    if let Some(want) = present.iter().find(|w| !rets.contains(&ints(w))) {
        return Err(format!("expected outcome {want:?} not observed"));
    }
    if let Some(banned) = absent.iter().find(|b| rets.contains(&ints(b))) {
        return Err(format!("forbidden outcome {banned:?} observed"));
    }
    Ok(())
}

fn check(case: &Case, e: &Explored, out: &mut Outcome) {
    out.attempted += 1;
    if e.truncated {
        out.failed += 1;
        eprintln!("litmus-explore: {} truncated or inconclusive", case.name());
        return;
    }
    let verdict = match case {
        Case::Corpus(c, ..) => check_corpus(c, e),
        Case::Scaling(s) | Case::Planned(s, _) => check_scaling(s, e),
    };
    if let Err(why) = verdict {
        out.wrong(format!("{}: {why}", case.name()));
    }
}

/// One pass over every case in `order`; per-op times, their sum, and
/// explorations. With `speed`, the host's speed is sampled before each
/// case, untimed.
fn run_pass(
    cases: &[Case],
    order: &[usize],
    workers: usize,
    tr: &mut Tracer,
    mut speed: Option<&mut HostSpeed>,
) -> (Vec<f64>, Duration, Vec<Explored>) {
    let mut op_ms = Vec::with_capacity(order.len());
    let mut results = Vec::with_capacity(order.len());
    let mut wall = Duration::ZERO;
    for &i in order {
        if let Some(speed) = speed.as_deref_mut() {
            speed.sample();
        }
        let name = match cases[i] {
            Case::Planned(..) => "models.plan",
            _ => "explore.run",
        };
        let t = Instant::now();
        let id = tr.enter(name, i as u64);
        let e = explore(&cases[i], workers);
        tr.exit(id, &cases[i].name());
        let took = t.elapsed();
        wall += took;
        op_ms.push(ms(took));
        results.push(e);
    }
    (op_ms, wall, results)
}

/// Runs the workload.
pub fn run(args: &RunArgs, out: &mut Outcome, tracer: &mut Tracer) -> Result<(), String> {
    // Set-up: build, parse and configure every case, in a chunk of timed
    // set-ups before each pass and another after the timed phase.
    let mut clock = SetupClock::new(SETUP_REPS, &args.work);
    let order = permutation(args.seed, all_cases().len());

    let mut untraced = Tracer::new(false, tracer.epoch());
    let mut op_ms = Vec::new();
    let mut phase = Duration::ZERO;
    let mut passes = 0u32;
    while phase < args.seconds {
        let cases = clock.chunk(|_| Ok(all_cases()), drop)?;
        let (times, wall, results) = run_pass(
            &cases,
            &order,
            WORKERS,
            &mut untraced,
            Some(&mut clock.speed),
        );
        for (&i, e) in order.iter().zip(&results) {
            check(&cases[i], e, out);
        }
        op_ms.extend(times);
        phase += wall;
        passes += 1;
    }
    let cases = clock.chunk(|_| Ok(all_cases()), drop)?;

    if !args.trace {
        put_end_to_end(out, op_ms.len(), phase, &clock, Bound::Cpu);
        return Ok(());
    }
    put_host_layer(out, op_ms.len(), phase, &clock);

    // Each case traced at 2 workers, then at 1 worker right after it, so
    // that the speed-up compares runs minutes of host drift cannot
    // separate.
    let (mut traced_ms, mut traced, mut single_ms, mut single) = (vec![], vec![], vec![], vec![]);
    for &i in &order {
        let (t2, _, e2) = run_pass(&cases, &[i], WORKERS, tracer, None);
        let (t1, _, e1) = run_pass(&cases, &[i], 1, &mut untraced, None);
        traced_ms.extend(t2);
        traced.extend(e2);
        single_ms.extend(t1);
        single.extend(e1);
    }
    for results in [&traced, &single] {
        for (&i, e) in order.iter().zip(results) {
            check(&cases[i], e, out);
        }
    }

    let spans = tracer.spans();
    let engine_ms = total_ms(spans, "explore.run");
    let sum = |f: fn(&ExploreStats) -> usize| -> f64 {
        traced
            .iter()
            .filter_map(|e| e.stats.as_ref())
            .map(|s| f(s) as f64)
            .sum()
    };
    let states = sum(|s| s.states);
    let dedup = sum(|s| s.dedup_hits);
    out.put("explore.engine_ms", engine_ms, "ms");
    out.put("explore.states", states, "count");
    out.put("explore.transitions", sum(|s| s.transitions), "count");
    out.put("explore.dedup_hits", dedup, "count");
    out.put("explore.sleep_skips", sum(|s| s.sleep_skips), "count");
    out.put("explore.ample_commits", sum(|s| s.ample_commits), "count");
    out.put(
        "explore.states_per_s",
        ratio(states, engine_ms / 1e3),
        "1/s",
    );
    out.put("explore.dedup_share", ratio(dedup, states + dedup), "share");
    for s in spans {
        out.put(case_metric(&s.tag), s.ms(), "ms");
    }
    let total = |xs: &[f64]| xs.iter().sum::<f64>();
    let all_states = |rs: &[Explored]| rs.iter().map(Explored::states).sum::<usize>() as f64;
    out.put(
        "explore.speedup_w2",
        ratio(total(&single_ms), total(&traced_ms)),
        "ratio",
    );
    out.put(
        "explore.state_inflation_w2",
        ratio(all_states(&traced), all_states(&single)),
        "ratio",
    );
    let planned = traced.iter().filter_map(|e| e.planner_states);
    let (checker, fin) = planned.fold((0, 0), |(c, f), (pc, pf)| (c + pc, f + pf));
    out.put("models.planner_ms", total_ms(spans, "models.plan"), "ms");
    out.put("models.checker_states", checker as f64, "count");
    out.put("models.final_states", fin as f64, "count");
    crate::put_run_layer(
        out,
        &op_ms,
        phase.as_secs_f64() / f64::from(passes),
        Duration::from_secs_f64(total(&traced_ms) / 1e3),
    );
    Ok(())
}
