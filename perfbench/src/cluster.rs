//! The `cluster` workload: training-job stream, DLRM serving and RL
//! actor–learner group co-scheduled on 128×32, with the Chrome trace and
//! the flight report exported.
//!
//! The loop below makes the same public calls in the same order as
//! `serve::ServeCampaign::run`, then the exports its users read; a test
//! pins its report to `ServeCampaign::run` for the same config.

use std::collections::BTreeMap;
use std::error::Error;
use std::sync::Arc;

use multipod_sched::{arrival_stream, PodScheduler, SchedReport};
use multipod_serve::{
    assemble, query_stream, DlrmServeReport, DlrmServer, RlServeReport, RlServer,
    ServeCampaignConfig,
};
use multipod_telemetry::{profile, FlightReport, Telemetry};
use multipod_topology::MultipodConfig;
use multipod_trace::{Recorder, TraceSink};

use crate::json;
use crate::spans::{self, Tracer};
use crate::workload::{fnv, Checks, Repeat};

type BoxError = Box<dyn Error>;

/// Training jobs in the arrival stream.
const JOBS: u32 = 2000;
/// DLRM queries in the open-loop stream.
const QUERIES: u32 = 2000;

pub struct ClusterCtx {
    pub config: ServeCampaignConfig,
}

impl ClusterCtx {
    pub fn new(seed: u64) -> ClusterCtx {
        let mut config = ServeCampaignConfig::demo(MultipodConfig::multipod(4), JOBS, seed);
        config.dlrm.stream.queries = QUERIES;
        ClusterCtx { config }
    }
}

/// Everything a run starts from: the set-up the benchmark times.
pub struct ClusterState {
    scheduler: PodScheduler,
    recorder: Arc<Recorder>,
    telemetry: Arc<Telemetry>,
    /// Jobs and queries the seed generates; the run must finish them all.
    jobs: u64,
    queries: u64,
}

impl ClusterState {
    /// Operations a run attempts: every job and every query.
    pub fn ops(&self) -> u64 {
        self.jobs + self.queries
    }
}

pub fn setup(ctx: &ClusterCtx) -> Result<ClusterState, BoxError> {
    let jobs = arrival_stream(&ctx.config.sched.arrivals).len() as u64;
    let queries = query_stream(&ctx.config.dlrm.stream)?.len() as u64;
    let recorder = Recorder::shared();
    let telemetry = Telemetry::shared();
    let mut scheduler = PodScheduler::new(ctx.config.sched.clone());
    scheduler.set_telemetry(telemetry.clone());
    scheduler.set_trace_sink(recorder.clone() as Arc<dyn TraceSink>);
    Ok(ClusterState {
        scheduler,
        recorder,
        telemetry,
        jobs,
        queries,
    })
}

/// What one run did.
pub struct ClusterRun {
    pub wall: (f64, f64),
    pub sched: SchedReport,
    pub dlrm: DlrmServeReport,
    pub rl: RlServeReport,
    pub trace_events: usize,
    pub trace_json: String,
    pub flight_json: String,
    pub jobs: u64,
    pub queries: u64,
    /// Index of the `serve.dlrm` span when traced.
    dlrm_span: usize,
}

pub fn run(
    ctx: &ClusterCtx,
    st: ClusterState,
    tracer: &mut Tracer,
) -> Result<ClusterRun, BoxError> {
    let ClusterState {
        mut scheduler,
        recorder,
        telemetry,
        jobs,
        queries,
    } = st;
    let start = tracer.now();
    let sched = tracer.span("sched.run", |_| scheduler.run())?;
    let granted = |i: usize| -> Result<MultipodConfig, BoxError> {
        let (w, h) = sched.services.get(i).ok_or("missing service grant")?.shape;
        if w == 0 || h == 0 {
            return Err("empty service grant".into());
        }
        Ok(MultipodConfig::mesh(w, h, false))
    };
    let mut dlrm_config = ctx.config.dlrm.clone();
    dlrm_config.slice = granted(0)?;
    let mut rl_config = ctx.config.rl.clone();
    rl_config.slice = granted(1)?;
    let dlrm_span = tracer.next_id();
    let dlrm = tracer.span("serve.dlrm", |_| {
        let mut server = DlrmServer::new(dlrm_config);
        server.set_telemetry(telemetry.clone());
        server.set_trace_sink(recorder.clone() as Arc<dyn TraceSink>);
        server.run()
    })?;
    let rl = tracer.span("serve.rl", |_| {
        let mut server = RlServer::new(rl_config);
        server.set_telemetry(telemetry.clone());
        server.set_trace_sink(recorder.clone() as Arc<dyn TraceSink>);
        server.run()
    })?;
    let events = tracer.span("trace.events", |_| recorder.events());
    let trace_json = tracer.span("trace.export", |_| -> Result<String, BoxError> {
        Ok(serde_json::to_string(&recorder.chrome_trace()?)?)
    })?;
    let profile = tracer.span("telemetry.profile", |_| profile(&events));
    let flight_json = tracer.span("telemetry.report", |_| {
        FlightReport {
            registry: telemetry.snapshot(),
            profile,
            drift: Vec::new(),
        }
        .to_json()
    });
    Ok(ClusterRun {
        wall: (start, tracer.now()),
        sched,
        dlrm,
        rl,
        trace_events: events.len(),
        trace_json,
        flight_json,
        jobs,
        queries,
        dlrm_span,
    })
}

/// Output checks and model values of one run.
pub fn judge(run: &Result<ClusterRun, BoxError>, attempted: u64) -> Repeat {
    let mut rep = Repeat::new(attempted);
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            rep.fail_all(format!("typed error: {e}"));
            return rep;
        }
    };
    rep.wall_s = run.wall.1 - run.wall.0;
    let mut checks = Checks::default();
    checks.count(
        "jobs completed",
        run.jobs.saturating_sub(run.sched.completed),
    );
    checks.count("queries served", run.queries.abs_diff(run.dlrm.requests));
    checks.check("restores bit-identical", run.sched.restores_bit_identical);
    checks.check(
        "chrome trace parses back as JSON",
        json::is_valid(&run.trace_json),
    );
    checks.check(
        "flight report parses back as JSON",
        json::is_valid(&run.flight_json),
    );
    rep.apply(&checks);
    rep.model = BTreeMap::from([
        ("model.step_sim_s.healthy".into(), 0.0),
        ("model.step_sim_s.degraded".into(), 0.0),
        ("model.comm_sim_s".into(), 0.0),
        ("model.analytic_comm_s".into(), 0.0),
        ("model.final_loss".into(), 0.0),
        ("model.ckpt_save_sim_s".into(), run.sched.save_seconds),
        ("model.makespan_sim_s".into(), run.sched.makespan_seconds),
        ("model.sched_utilization".into(), run.sched.mean_utilization),
        ("model.dlrm_p99_sim_s".into(), run.dlrm.latency.p99),
        ("model.sim_vs_analytic_err".into(), 0.0),
    ]);
    // The exports are deterministic too: hash them with the reports.
    let reports = format!("{:?}{:?}{:?}", run.sched, run.dlrm, run.rl);
    rep.digest = [
        reports.as_bytes(),
        run.trace_json.as_bytes(),
        run.flight_json.as_bytes(),
    ]
    .iter()
    .flat_map(|b| b.iter())
    .fold(0xcbf2_9ce4_8422_2325, |h, &b| fnv(h, u64::from(b)));
    rep
}

/// Probes the query-stream generation and batching that `DlrmServer::run`
/// does inside itself, lays them into its span, and derives the per-layer
/// metrics.
pub fn layers(
    ctx: &ClusterCtx,
    run: &ClusterRun,
    tracer: &mut Tracer,
) -> Result<BTreeMap<String, f64>, BoxError> {
    let stream = &ctx.config.dlrm.stream;
    let id = tracer.next_id();
    let requests = tracer.span("serve.stream", |_| query_stream(stream))?;
    let stream_s = tracer.spans()[id].duration();
    let id = tracer.next_id();
    tracer.span("serve.assemble", |_| {
        assemble(&requests, &ctx.config.dlrm.batching)
    })?;
    let assemble_s = tracer.spans()[id].duration();
    tracer.attribute(run.dlrm_span, "serve.stream", 0.0, stream_s);
    tracer.attribute(run.dlrm_span, "serve.assemble", stream_s, assemble_s);

    let sp = tracer.spans();
    let sched_s = spans::total(sp, "sched.run");
    let jobs = run.sched.jobs as f64;
    Ok(BTreeMap::from([
        ("sched.run_s".to_string(), sched_s),
        ("sched.jobs".into(), jobs),
        ("sched.preemptions".into(), run.sched.preemptions as f64),
        (
            "sched.us_per_job".into(),
            if jobs > 0.0 {
                1e6 * sched_s / jobs
            } else {
                0.0
            },
        ),
        ("serve.stream_s".into(), stream_s),
        ("serve.assemble_s".into(), assemble_s),
        ("serve.dlrm_s".into(), spans::total(sp, "serve.dlrm")),
        ("serve.rl_s".into(), spans::total(sp, "serve.rl")),
        ("serve.queries".into(), run.dlrm.requests as f64),
        ("serve.batches".into(), run.dlrm.batches as f64),
        ("embedding.hit_ratio".into(), run.dlrm.cache_hit_rate),
        ("trace.events".into(), run.trace_events as f64),
        ("trace.bytes".into(), run.trace_json.len() as f64),
        ("trace.export_s".into(), spans::total(sp, "trace.export")),
        (
            "telemetry.profile_s".into(),
            spans::total(sp, "telemetry.profile"),
        ),
        ("bench.wall_s".into(), run.wall.1 - run.wall.0),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipod_serve::ServeCampaign;

    fn small() -> ClusterCtx {
        let mut config = ServeCampaignConfig::demo(MultipodConfig::mesh(32, 32, false), 40, 3);
        config.dlrm.stream.queries = 200;
        config.dlrm.stream.tables = 8;
        config.dlrm.stream.rows_per_table = 8192;
        config.rl.learner_chips = 64;
        config.rl.learner_steps = 20;
        config.rl.actor_rounds = 10;
        ClusterCtx { config }
    }

    #[test]
    fn loop_matches_serve_campaign() {
        let ctx = small();
        let ours = run(&ctx, setup(&ctx).unwrap(), &mut Tracer::new(false)).unwrap();
        let lib = ServeCampaign::new(ctx.config.clone()).run().unwrap();
        assert_eq!(ours.sched, lib.sched);
        assert_eq!(ours.dlrm, lib.dlrm);
        assert_eq!(ours.rl, lib.rl);
    }

    #[test]
    fn checks_pass_and_a_short_count_fails() {
        let ctx = small();
        let st = setup(&ctx).unwrap();
        let attempted = st.ops();
        let ours = run(&ctx, st, &mut Tracer::new(false));
        assert_eq!(judge(&ours, attempted).failed, 0);
        let mut bad = ours.unwrap();
        bad.queries += 5;
        bad.trace_json.truncate(10);
        let rep = judge(&Ok(bad), attempted);
        assert_eq!(rep.failed, attempted);
        assert!(rep.failures.iter().any(|f| f.contains("trace")));
    }

    #[test]
    fn traced_self_times_sum_to_wall() {
        let ctx = small();
        let mut tracer = Tracer::new(true);
        let ours = run(&ctx, setup(&ctx).unwrap(), &mut tracer).unwrap();
        let m = layers(&ctx, &ours, &mut tracer).unwrap();
        assert!(m["trace.events"] > 0.0);
        let (start, end) = ours.wall;
        let selfs: f64 = spans::window_self_times(tracer.spans(), start, end)
            .values()
            .sum();
        let gap = spans::unattributed(tracer.spans(), start, end);
        assert!((selfs + gap - (end - start)).abs() <= 1e-9);
    }
}
