//! Host-time benchmark of the multipod simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-paper --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload's fixed simulated work repeatedly for `--seconds`
//! (at least twice), on one thread, and checks every repeat's outputs.
//! With `--trace 0` it reports the end-to-end metrics; with `--trace 1`
//! it alternates untraced and traced repeats and reports the per-layer
//! metrics, each layer named by its crate. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! A fuller record (provenance, every metric's quartiles, and the spans
//! of traced repeats) goes to `.perfbench/` in the working directory.

mod cluster;
mod json;
mod spans;
mod stats;
mod train;
mod workload;

use std::collections::BTreeMap;
use std::error::Error;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde_json::{json, Value};
use spans::Tracer;
use stats::{median, Summary};
use workload::Repeat;

type BoxError = Box<dyn Error>;

/// Set-ups timed, each in a fresh process of its own: a first batch
/// before the reference run, then a few after each round of repeats, so
/// that they sample the host over the whole run, up to a total.
const SETUP_SAMPLES_FIRST: usize = 11;
const SETUP_SAMPLES_PER_ROUND: usize = 5;
const SETUP_SAMPLES: usize = 61;
/// The internal flag that makes a process time one set-up and exit.
const SETUP_SAMPLE_FLAG: &str = "setup-sample";
/// Repeats always run, whatever `--seconds` says.
const MIN_REPEATS: usize = 2;
/// Where the fuller record goes, relative to the working directory.
const OUT_DIR: &str = ".perfbench";

/// Layers that self time is charged to, named by crate.
const LAYERS: [&str; 10] = [
    "simnet",
    "collectives",
    "tensor",
    "core",
    "faults",
    "ckpt",
    "sched",
    "serve",
    "trace",
    "telemetry",
];

/// Per-layer metrics every traced run reports, with units. A layer a
/// workload does not exercise reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("simnet.transfers", "count"),
    ("simnet.replay_s", "s"),
    ("simnet.ns_per_transfer", "ns"),
    ("collectives.allreduce_s", "s"),
    ("collectives.survivor_s", "s"),
    ("tensor.sum_all_s", "s"),
    ("tensor.bytes", "B"),
    ("core.step_s", "s"),
    ("core.step_s.degraded", "s"),
    ("core.retries", "count"),
    ("faults.advance_s", "s"),
    ("faults.events", "count"),
    ("ckpt.save_s", "s"),
    ("ckpt.restore_s", "s"),
    ("ckpt.bytes", "B"),
    ("ckpt.saves", "count"),
    ("ckpt.restores", "count"),
    ("sched.run_s", "s"),
    ("sched.jobs", "count"),
    ("sched.preemptions", "count"),
    ("sched.us_per_job", "us"),
    ("serve.stream_s", "s"),
    ("serve.assemble_s", "s"),
    ("serve.dlrm_s", "s"),
    ("serve.rl_s", "s"),
    ("serve.queries", "count"),
    ("serve.batches", "count"),
    ("embedding.hit_ratio", "ratio"),
    ("trace.events", "count"),
    ("trace.bytes", "B"),
    ("trace.export_s", "s"),
    ("telemetry.profile_s", "s"),
    ("simnet.self_s", "s"),
    ("collectives.self_s", "s"),
    ("tensor.self_s", "s"),
    ("core.self_s", "s"),
    ("faults.self_s", "s"),
    ("ckpt.self_s", "s"),
    ("sched.self_s", "s"),
    ("serve.self_s", "s"),
    ("trace.self_s", "s"),
    ("telemetry.self_s", "s"),
    ("bench.wall_s", "s"),
    ("bench.unattributed_s", "s"),
    ("bench.trace_overhead_s", "s"),
    ("model.step_sim_s.healthy", "s"),
    ("model.step_sim_s.degraded", "s"),
    ("model.comm_sim_s", "s"),
    ("model.analytic_comm_s", "s"),
    ("model.sim_vs_analytic_err", "ratio"),
    ("model.final_loss", "loss"),
    ("model.ckpt_save_sim_s", "s"),
    ("model.sched_utilization", "ratio"),
    ("model.makespan_sim_s", "s"),
    ("model.dlrm_p99_sim_s", "s"),
];

/// End-to-end metrics of the result line, with units. Each has a bound.
const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB")];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Workload {
    TrainPaper,
    TrainWide,
    Cluster,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, BoxError> {
        match name {
            "train-paper" => Ok(Workload::TrainPaper),
            "train-wide" => Ok(Workload::TrainWide),
            "cluster" => Ok(Workload::Cluster),
            _ => {
                Err(format!("unknown workload {name:?} (train-paper, train-wide, cluster)").into())
            }
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::TrainPaper => "train-paper",
            Workload::TrainWide => "train-wide",
            Workload::Cluster => "cluster",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Time one set-up, print it and exit (see [`setup_samples`]).
    setup_sample: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, BoxError> {
        let mut named: BTreeMap<String, String> = BTreeMap::new();
        while let Some(flag) = args.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or(format!("unexpected argument {flag:?}"))?;
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            named.insert(key.to_string(), value);
        }
        let mut take = |key: &str| named.remove(key).ok_or(format!("missing --{key}"));
        let args = Args {
            workload: Workload::parse(&take("workload")?)?,
            seed: take("seed")?.parse()?,
            seconds: take("seconds")?.parse()?,
            trace: match take("trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace takes 0 or 1, not {other:?}").into()),
            },
            setup_sample: named.remove(SETUP_SAMPLE_FLAG).is_some(),
        };
        if let Some(key) = named.keys().next() {
            return Err(format!("unknown flag --{key}").into());
        }
        Ok(args)
    }
}

/// A workload's per-process inputs and reference results.
enum Ctx {
    Train(train::TrainCtx),
    Cluster(cluster::ClusterCtx),
}

/// One judged repeat, with the traced run's layer metrics and spans.
struct Outcome {
    repeat: Repeat,
    layers: BTreeMap<String, f64>,
    tracer: Tracer,
}

impl Ctx {
    fn new(workload: Workload, seed: u64) -> Ctx {
        match workload {
            Workload::TrainPaper => Ctx::Train(train::TrainCtx::new(train::TrainSpec::paper(seed))),
            Workload::TrainWide => Ctx::Train(train::TrainCtx::new(train::TrainSpec::wide(seed))),
            Workload::Cluster => Ctx::Cluster(cluster::ClusterCtx::new(seed)),
        }
    }

    /// Computes the reference results the output checks compare with.
    fn calibrate(&mut self) -> Result<(), BoxError> {
        match self {
            Ctx::Train(ctx) => ctx.calibrate(),
            Ctx::Cluster(_) => Ok(()),
        }
    }

    /// Times one set-up and drops what it built.
    fn setup_once(&self) -> Result<f64, BoxError> {
        let t = Instant::now();
        match self {
            Ctx::Train(ctx) => drop(std::hint::black_box(train::setup(ctx))),
            Ctx::Cluster(ctx) => drop(std::hint::black_box(cluster::setup(ctx)?)),
        }
        Ok(t.elapsed().as_secs_f64())
    }

    /// Sets up, runs and judges one repeat; with `traced`, records spans,
    /// probes the opaque calls and derives the per-layer metrics.
    fn repeat(&self, traced: bool) -> Result<Outcome, BoxError> {
        let mut tracer = Tracer::new(traced);
        match self {
            Ctx::Train(ctx) => {
                let st = train::setup(ctx);
                let run = train::run(ctx, st, &mut tracer);
                let repeat = train::judge(ctx, &run);
                let layers = match &run {
                    Ok(run) if traced => Some((train::layers(ctx, run, &mut tracer)?, run.wall)),
                    _ => None,
                };
                with_self_times(repeat, layers, tracer)
            }
            Ctx::Cluster(ctx) => {
                let st = cluster::setup(ctx)?;
                let attempted = st.ops();
                let run = cluster::run(ctx, st, &mut tracer);
                let repeat = cluster::judge(&run, attempted);
                let layers = match &run {
                    Ok(run) if traced => Some((cluster::layers(ctx, run, &mut tracer)?, run.wall)),
                    _ => None,
                };
                with_self_times(repeat, layers, tracer)
            }
        }
    }
}

/// Completes a traced repeat's layer metrics: self time per layer, the
/// unattributed rest, and the check that they add up to the traced wall.
fn with_self_times(
    mut repeat: Repeat,
    traced: Option<(BTreeMap<String, f64>, (f64, f64))>,
    tracer: Tracer,
) -> Result<Outcome, BoxError> {
    let mut layers = BTreeMap::new();
    if let Some((mut derived, (start, end))) = traced {
        let selfs = spans::window_self_times(tracer.spans(), start, end);
        let gap = spans::unattributed(tracer.spans(), start, end);
        let mut sum = gap;
        for layer in LAYERS {
            let t = selfs.get(layer).copied().unwrap_or(0.0);
            derived.insert(format!("{layer}.self_s"), t);
            sum += t;
        }
        derived.insert("bench.unattributed_s".into(), gap);
        if (sum - (end - start)).abs() > 1e-9 * (end - start).max(1.0) {
            repeat.fail_all(format!(
                "layer self times plus unattributed ({sum}) differ from the traced wall ({})",
                end - start
            ));
        }
        layers = derived;
    }
    Ok(Outcome {
        repeat,
        layers,
        tracer,
    })
}

/// Times `count` set-ups, each in a fresh process: a set-up's cost
/// depends on how much memory the allocator must fault in, and in a
/// process that has already run set-ups that flips between two modes from
/// run to run. A fresh process pays it the way a campaign launch does.
fn setup_samples(args: &Args, count: usize) -> Result<Vec<f64>, BoxError> {
    let exe = std::env::current_exe()?;
    (0..count)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["--workload", args.workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", "0", "--trace", "0"])
                .args([format!("--{SETUP_SAMPLE_FLAG}"), "1".into()])
                .output()?;
            if !out.status.success() {
                return Err(format!(
                    "set-up sample failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                )
                .into());
            }
            Ok(String::from_utf8(out.stdout)?.trim().parse()?)
        })
        .collect()
}

/// Resets this process's peak resident memory (`VmHWM`) to its current
/// resident memory, so that the next reading is the peak of what ran since.
fn reset_peak_rss() -> Result<(), BoxError> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident memory: {e}").into())
}

fn peak_rss_mib() -> Result<f64, BoxError> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The git revision of the working directory, when it is the root of a
/// git checkout. Git is not asked otherwise, so that it never looks at the
/// directories above.
fn git_revision() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn summary_json(s: Option<Summary>) -> Value {
    s.map_or(Value::Null, |s| {
        json!({"n": s.n, "min": s.min, "q1": s.q1, "median": s.median, "q3": s.q3, "max": s.max})
    })
}

/// A reported metric: its value, unit and the samples behind it.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
}

fn metric(name: &str, unit: &'static str, samples: Vec<f64>) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value: median(&samples),
        samples,
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), BoxError> {
    if cfg!(debug_assertions) {
        return Err("refusing to report from a debug build; build with --release".into());
    }
    // Set, this variable makes chunk moves spawn a thread each, and the
    // numbers would time the OS scheduler. Nothing has read it yet.
    let parallel_was_set = std::env::var_os("MULTIPOD_PARALLEL").is_some();
    std::env::remove_var("MULTIPOD_PARALLEL");
    let args = Args::parse(std::env::args().skip(1))?;
    let budget = Duration::from_secs(args.seconds);

    let mut ctx = Ctx::new(args.workload, args.seed);
    if args.setup_sample {
        println!("{:?}", ctx.setup_once()?);
        return Ok(());
    }
    let mut setups = setup_samples(&args, SETUP_SAMPLES_FIRST)?;
    ctx.calibrate()?;
    let began = Instant::now();
    let mut plain: Vec<Outcome> = Vec::new();
    let mut traced: Vec<Outcome> = Vec::new();
    let mut peaks: Vec<f64> = Vec::new();
    loop {
        let round = Instant::now();
        reset_peak_rss()?;
        plain.push(ctx.repeat(false)?);
        peaks.push(peak_rss_mib()?);
        if args.trace {
            traced.push(ctx.repeat(true)?);
        }
        let more = SETUP_SAMPLES_PER_ROUND.min(SETUP_SAMPLES - setups.len());
        setups.extend(setup_samples(&args, more)?);
        let per_round = round.elapsed();
        if plain.len() >= MIN_REPEATS && began.elapsed() + per_round > budget {
            break;
        }
    }

    // Simulated outputs must repeat bit for bit across every repeat.
    let mut repeats: Vec<&mut Repeat> = plain
        .iter_mut()
        .chain(traced.iter_mut())
        .map(|o| &mut o.repeat)
        .collect();
    let first = repeats[0].clone();
    for r in repeats.iter_mut().skip(1) {
        if !r.same_model(&first) {
            r.fail_all("simulated outputs differ from the first repeat's".into());
        }
    }
    let attempted: u64 = repeats.iter().map(|r| r.attempted).sum();
    let failed: u64 = repeats.iter().map(|r| r.failed).sum();
    let mut failures: Vec<String> = repeats.iter().flat_map(|r| r.failures.clone()).collect();
    failures.dedup();

    let plain_walls: Vec<f64> = plain.iter().map(|o| o.repeat.wall_s).collect();
    let pooled = |f: fn(&Repeat) -> &Vec<f64>| -> Vec<f64> {
        plain.iter().flat_map(|o| f(&o.repeat).clone()).collect()
    };
    let model = &first.model;
    let e2e: Vec<Metric> = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let samples = match name {
                "setup_s" => setups.clone(),
                "wall_s" => plain_walls.clone(),
                _ => peaks.clone(),
            };
            metric(name, unit, samples)
        })
        .collect();
    // Shown and recorded beside the bounded metrics; not every workload
    // has steps, so they stay out of the result line.
    let mut extra = vec![
        metric("step_s.healthy", "s", pooled(|r| &r.healthy_step_s)),
        metric("step_s.degraded", "s", pooled(|r| &r.degraded_step_s)),
        metric(
            "error_rate",
            "ratio",
            vec![failed as f64 / attempted.max(1) as f64],
        ),
    ];
    if let Ctx::Train(_) = ctx {
        extra.push(metric(
            "sim_vs_analytic_err",
            "ratio",
            vec![model["model.sim_vs_analytic_err"]],
        ));
    }

    let mut layer_metrics = Vec::new();
    if args.trace {
        for &(name, unit) in PER_LAYER {
            let samples: Vec<f64> = if name == "bench.trace_overhead_s" {
                // Paired within a round, so that host drift cancels.
                traced
                    .iter()
                    .zip(&plain)
                    .map(|(t, p)| t.repeat.wall_s - p.repeat.wall_s)
                    .collect()
            } else if let Some(v) = model.get(name) {
                vec![*v]
            } else {
                traced
                    .iter()
                    .map(|o| o.layers.get(name).copied().unwrap_or(0.0))
                    .collect()
            };
            layer_metrics.push(metric(name, unit, samples));
        }
    }

    let reported: &Vec<Metric> = if args.trace { &layer_metrics } else { &e2e };
    let correct = failed == 0 && reported.iter().all(|m| m.value.is_finite());

    // Human-readable report.
    println!(
        "# perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let revision = git_revision();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# revision={revision} profile=release nproc={nproc} threads=1 MULTIPOD_PARALLEL=unset{} repeats={} traced_repeats={} setups={}",
        if parallel_was_set { " (cleared from the environment)" } else { "" },
        plain.len(),
        traced.len(),
        setups.len()
    );
    println!(
        "# {:<28} {:>14} {:<6} {:>4} {:>12} {:>12} {:>12}",
        "metric", "median", "unit", "n", "min", "q3-q1", "max"
    );
    let shown: Vec<&Metric> = e2e.iter().chain(&extra).chain(&layer_metrics).collect();
    for m in &shown {
        let s = Summary::of(&m.samples);
        println!(
            "{:<30} {:>14.6e} {:<6} {:>4} {:>12.4e} {:>12.4e} {:>12.4e}",
            m.name,
            m.value,
            m.unit,
            m.samples.len(),
            s.map_or(0.0, |s| s.min),
            s.map_or(0.0, |s| s.q3 - s.q1),
            s.map_or(0.0, |s| s.max)
        );
    }
    for f in &failures {
        println!("# FAILED: {f}");
    }

    // The fuller record, and the spans of every traced repeat.
    std::fs::create_dir_all(OUT_DIR)?;
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let metrics_json = Value::Map(
        shown
            .iter()
            .map(|m| {
                let summary = summary_json(Summary::of(&m.samples));
                let entry = json!({"value": m.value, "unit": m.unit, "summary": summary});
                (m.name.clone(), entry)
            })
            .collect(),
    );
    let record = json!({
        "workload": args.workload.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "revision": revision,
        "profile": "release",
        "nproc": nproc,
        "threads": 1,
        "multipod_parallel": "unset",
        "multipod_parallel_was_set": parallel_was_set,
        "repeats": plain.len(),
        "traced_repeats": traced.len(),
        "setup_samples": setups.len(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics_json,
    });
    let record = serde_json::to_string(&record)? + "\n";
    std::fs::write(format!("{stem}.json"), record)?;
    if args.trace {
        let mut lines = String::new();
        for o in &traced {
            lines.push_str(&spans::to_json_lines(o.tracer.spans()));
        }
        std::fs::write(format!("{stem}.spans.jsonl"), lines)?;
    }

    // The result line.
    let result_metrics = Value::Map(
        reported
            .iter()
            .map(|m| (m.name.clone(), json!({"value": m.value, "unit": m.unit})))
            .collect(),
    );
    let result = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    });
    println!("{}", serde_json::to_string(&result)?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(name, _)| name)
            .chain([
                "step_s.healthy",
                "step_s.degraded",
                "error_rate",
                "sim_vs_analytic_err",
            ])
            .collect();
        for name in &names {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
                    && name.as_bytes()[0].is_ascii_alphanumeric(),
                "{name}"
            );
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn every_layer_has_a_self_time_metric() {
        for layer in LAYERS {
            let name = format!("{layer}.self_s");
            assert!(PER_LAYER.iter().any(|&(n, _)| n == name), "{name}");
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let args = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = args("--workload cluster --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Cluster, 7, 3, true)
        );
        assert!(!a.setup_sample);
        assert!(
            args("--workload cluster --seed 7 --seconds 0 --trace 0 --setup-sample 1")
                .unwrap()
                .setup_sample
        );
        assert!(args("--workload nope --seed 7 --seconds 3 --trace 1").is_err());
        assert!(args("--workload cluster --seed 7 --seconds 3 --trace 2").is_err());
        assert!(args("--workload cluster --seed 7 --seconds 3").is_err());
        assert!(args("--workload cluster --seed 7 --seconds 3 --trace 0 --x 1").is_err());
    }
}
