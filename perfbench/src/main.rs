//! The repository benchmark: validated optimization, litmus exploration
//! and serve round trips, each driven in one process through the public
//! entry points of the workspace crates.
//!
//! ```text
//! seqwm-perfbench --workload <optimize-validate|litmus-explore|serve-refine>
//!                 --seed <n> --seconds <s> --trace <0|1>
//!                 [--work-dir <dir>] [--spans-out <file>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod litmus;
mod optimize;
mod report;
mod serve;
mod speed;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{quantile, ratio, Outcome};
use trace::Tracer;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["optimize-validate", "litmus-explore", "serve-refine"];

/// Parsed command line.
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Scratch directory for memo stores and daemon state; removed at
    /// exit.
    pub work: PathBuf,
    /// Where a traced run writes its spans.
    pub spans_out: Option<PathBuf>,
}

const USAGE: &str =
    "usage: seqwm-perfbench --workload <optimize-validate|litmus-explore|serve-refine> \
--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>] [--spans-out <file>]";

fn parse_args(argv: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work = PathBuf::from(".bench_build/perfbench-work");
    let mut spans_out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(number(value()?)?),
            "--seconds" => seconds = Some(number(value()?)?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got {v}")),
                })
            }
            "--work-dir" => work = PathBuf::from(value()?),
            "--spans-out" => spans_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs(seconds),
        trace: trace.ok_or("--trace is required")?,
        work: work.join(format!("run-{}", std::process::id())),
        spans_out,
    })
}

/// End-to-end metrics and their units, in output order.
const END_TO_END: [(&str, &str); 3] = [
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units, in output order. A traced run of
/// any workload reports all of them; a layer the workload never calls
/// reads 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let fixed = |names: &[(&str, &'static str)]| -> Vec<(String, &'static str)> {
        names.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let mut out = fixed(&[
        ("opt.pipeline_ms", "ms"),
        ("opt.unchanged_ms", "ms"),
        ("opt.validate_seq_ms", "ms"),
        ("opt.validate_psna_ms", "ms"),
        ("opt.stages", "count"),
        ("opt.stages_changed", "count"),
        ("opt.rewrites", "count"),
        ("opt.seq_simple_share", "share"),
        ("opt.memo_hits", "count"),
        ("opt.memo_misses", "count"),
        ("opt.memo_bytes", "bytes"),
        ("core.refine_fuel", "count"),
        ("core.refine_enumerations", "count"),
        ("core.fuel_per_s", "1/s"),
        ("explore.engine_ms", "ms"),
        ("explore.states", "count"),
        ("explore.transitions", "count"),
        ("explore.dedup_hits", "count"),
        ("explore.sleep_skips", "count"),
        ("explore.ample_commits", "count"),
        ("explore.states_per_s", "1/s"),
        ("explore.dedup_share", "share"),
    ]);
    out.extend(litmus::case_metrics().into_iter().map(|m| (m, "ms")));
    out.extend(fixed(&[
        ("explore.speedup_w2", "ratio"),
        ("explore.state_inflation_w2", "ratio"),
        ("models.planner_ms", "ms"),
        ("models.checker_states", "count"),
        ("models.final_states", "count"),
        ("serve.hit_p50_ms", "ms"),
        ("serve.miss_p50_ms", "ms"),
        ("serve.check_ms", "ms"),
        ("serve.overhead_ms", "ms"),
        ("serve.hit_share", "share"),
        ("serve.state_bytes", "bytes"),
        ("serve.jobs_failed", "count"),
        ("run.op_count", "count"),
        ("run.op_p50_ms", "ms"),
        ("run.op_p90_ms", "ms"),
        ("run.failed_share", "share"),
        ("run.kernel_ms", "ms"),
        ("run.wall_ops_per_s", "1/s"),
        ("trace.overhead_share", "ratio"),
    ]));
    out
}

/// The workload-independent per-layer metrics of a traced run: the
/// untraced phase's op count, p50 and p90, and the traced wall time over
/// the untraced wall time of the same work.
pub fn put_run_layer(out: &mut Outcome, op_ms: &[f64], untraced_s: f64, traced: Duration) {
    out.put("run.op_count", op_ms.len() as f64, "count");
    out.put("run.op_p50_ms", report::median(op_ms), "ms");
    out.put("run.op_p90_ms", quantile(op_ms, 0.9), "ms");
    out.put(
        "trace.overhead_share",
        ratio(traced.as_secs_f64(), untraced_s),
        "ratio",
    );
}

/// Puts the metrics in the listed order, filling unmeasured ones with 0;
/// a metric not in the list, or listed twice, is a bug in this benchmark.
fn order_metrics(out: &mut Outcome, listed: &[(String, &'static str)]) -> Result<(), String> {
    let mut seen = std::collections::HashSet::new();
    if let Some((name, _)) = listed.iter().find(|(n, _)| !seen.insert(n)) {
        return Err(format!("metric {name} is listed twice"));
    }
    let mut have = std::mem::take(&mut out.metrics);
    if let Some(m) = have
        .iter()
        .find(|m| !listed.iter().any(|(n, _)| *n == m.name))
    {
        return Err(format!("metric {} is not listed", m.name));
    }
    for (name, unit) in listed {
        let value = match have.iter().position(|m| m.name == *name) {
            Some(i) => have.swap_remove(i).value,
            None => 0.0,
        };
        out.put(name.clone(), value, unit);
    }
    Ok(())
}

fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "optimize-validate" => optimize::run(args, &mut out, &mut tracer)?,
        "litmus-explore" => litmus::run(args, &mut out, &mut tracer)?,
        _ => serve::run(args, &mut out, &mut tracer)?,
    }
    if args.trace {
        let attempted = out.attempted as f64;
        out.put(
            "run.failed_share",
            ratio(out.failed as f64, attempted),
            "share",
        );
        order_metrics(&mut out, &per_layer())?;
        if let Some(path) = &args.spans_out {
            trace::write_jsonl(path, tracer.spans())
                .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
        }
    } else {
        out.put("peak_rss_mb", report::peak_rss_mb()?, "MB");
        let listed: Vec<(String, &'static str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        order_metrics(&mut out, &listed)?;
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("error: cannot create {}: {e}", args.work.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args);
    let _ = std::fs::remove_dir_all(&args.work);
    match result {
        Ok(out) => {
            for w in &out.wrong {
                eprintln!("WRONG: {w}");
            }
            println!("{}", out.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqwm_json::Json;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        let field = |m: &Json, k: &str| m.get(k).and_then(|v| v.as_str(k).ok()).map(str::to_string);
        doc.get(key)
            .and_then(|v| v.as_arr(key).ok())
            .expect("array")
            .iter()
            .map(|m| {
                (
                    field(m, "name").expect("name"),
                    field(m, "unit").unwrap_or_default(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("valid JSON");
        let strings = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), strings(&END_TO_END));
        let per_layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "per_layer"), per_layer);
        let valid = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for (name, _) in per_layer.iter().chain(&strings(&END_TO_END)) {
            assert!(valid(name), "{name} is not a valid metric name");
        }
        let workloads: Vec<String> = listed(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload serve-refine --seed 3 --seconds 2 --trace 1",
        ));
        let ok = ok.expect("valid arguments");
        assert_eq!(
            (ok.seed, ok.seconds, ok.trace),
            (3, Duration::from_secs(2), true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve-refine --seed x --seconds 1 --trace 0",
            "--workload serve-refine --seed 1 --seconds 0 --trace 0",
            "--workload serve-refine --seed 1 --seconds 1 --trace 2",
            "--workload serve-refine --seed 1 --seconds 1",
            "--workload serve-refine --seed 1 --seconds 1 --trace 0 --extra",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
