//! The numeric training workloads, `train-paper` and `train-wide`.
//!
//! Both train the synthetic quadratic of `multipod-faults` with
//! `DataParallelTrainer`. The loop below makes the same public calls in
//! the same order as `faults::run_campaign` (drop-and-renormalize) and
//! `ckpt::run_rollback_campaign` (rollback), so it can time each step and
//! put spans around each call; a test pins its outputs to those two
//! functions bit for bit.

use std::collections::BTreeMap;
use std::error::Error;
use std::time::Instant;

use multipod_ckpt::{
    restore_checkpoint, save_checkpoint, Checkpoint, PcieCost, ShardPlacement, StateBundle,
};
use multipod_collectives::twod::{two_dim_all_reduce, two_dim_all_reduce_time};
use multipod_collectives::{ring, CollectiveError, Precision};
use multipod_core::trainer::{DataParallelTrainer, FaultPolicy, RecoveryMode};
use multipod_faults::{run_campaign, CampaignConfig, FaultDriver, FaultPlan};
use multipod_optim::{LrSchedule, SgdMomentum};
use multipod_simnet::{Network, NetworkConfig, NetworkError, SimTime};
use multipod_tensor::{Shape, Tensor, TensorRng};
use multipod_topology::{ChipId, Coord, Multipod, MultipodConfig, Ring};

use crate::spans::{self, Tracer};
use crate::stats::median;
use crate::workload::{Checks, Repeat};

type BoxError = Box<dyn Error>;

/// Relative loss tolerance against the fault-free run, the one the
/// checkpoint campaign bench applies for bf16-scale numerics.
const LOSS_TOLERANCE: f64 = 1e-3;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Recovery {
    /// Drop lost replicas and renormalize (`faults::run_campaign`).
    Drop,
    /// Checkpoint every `interval` steps; restore and replay on chip loss
    /// (`ckpt::run_rollback_campaign`).
    Rollback { interval: u64 },
}

/// One training workload: the machine, the payload and the fault story.
#[derive(Clone, Debug)]
pub struct TrainSpec {
    pub mesh: MultipodConfig,
    pub elems: usize,
    pub steps: u64,
    pub recovery: Recovery,
    pub seed: u64,
}

impl TrainSpec {
    /// 128×32, one gradient element per replica: message-bound. Healthy
    /// steps, the wrap-link outage with a 2× straggler host, then one chip
    /// lost off row 0, absorbed by drop-and-renormalize.
    pub fn paper(seed: u64) -> TrainSpec {
        TrainSpec {
            mesh: MultipodConfig::multipod(4),
            elems: 4096,
            steps: 7,
            recovery: Recovery::Drop,
            seed,
        }
    }

    /// A 16×16 slice with a 2^20-element gradient: byte-bound. Checkpoint
    /// every 2 steps, lose a chip during step 4, restore the step-2
    /// checkpoint onto the survivors and replay step 3.
    pub fn wide(seed: u64) -> TrainSpec {
        TrainSpec {
            mesh: MultipodConfig::slice(256),
            elems: 1 << 20,
            steps: 4,
            recovery: Recovery::Rollback { interval: 2 },
            seed,
        }
    }

    pub fn campaign_config(&self) -> CampaignConfig {
        CampaignConfig {
            steps: self.steps,
            elems: self.elems,
            seed: self.seed,
            ..CampaignConfig::demo(self.mesh.clone())
        }
    }

    fn fault_policy(&self) -> FaultPolicy {
        let base = self.campaign_config().fault_policy;
        match self.recovery {
            Recovery::Drop => base,
            Recovery::Rollback { .. } => FaultPolicy {
                recovery: RecoveryMode::Rollback,
                ..base
            },
        }
    }

    fn mesh_chips(&self) -> usize {
        Multipod::new(self.mesh.clone()).num_chips()
    }

    /// The chip the plan kills: mid-mesh, so off row 0 and off the
    /// outage's column.
    pub fn lost_chip(&self) -> ChipId {
        let mesh = Multipod::new(self.mesh.clone());
        mesh.chip_at(Coord::new(mesh.x_len() / 2 + 1, mesh.y_len() / 2 + 1))
    }

    /// The fault plan, timed from the fault-free run's step starts.
    pub fn plan(&self, starts: &[SimTime]) -> FaultPlan {
        let at = |k: usize| starts[k];
        match self.recovery {
            Recovery::Drop => {
                let mesh = Multipod::new(self.mesh.clone());
                FaultPlan::wrap_outage_with_straggler(&mesh, 0, at(2), at(3), 1, 2.0)
                    .chip_down(at(3), self.lost_chip())
            }
            // One step after the step-2 save: the rollback loses a step.
            Recovery::Rollback { .. } => FaultPlan::new().chip_down(at(3), self.lost_chip()),
        }
    }
}

/// Per-process inputs and reference results: computed once, untimed.
pub struct TrainCtx {
    pub spec: TrainSpec,
    pub plan: FaultPlan,
    /// Final loss of the fault-free run of the same seed.
    pub clean_loss: f64,
    pub analytic_comm_s: f64,
}

impl TrainCtx {
    /// The inputs, with the fault plan's times still unset: set-up does
    /// the same work whatever the times, so it can be timed first.
    pub fn new(spec: TrainSpec) -> TrainCtx {
        TrainCtx {
            plan: spec.plan(&vec![SimTime::ZERO; spec.steps as usize]),
            spec,
            clean_loss: f64::NAN,
            analytic_comm_s: f64::NAN,
        }
    }

    /// Runs the fault-free campaign of the same seed: its final loss is
    /// the target of the loss check, its step starts time the faults.
    /// Also prices the healthy all-reduce with the α–β model.
    pub fn calibrate(&mut self) -> Result<(), BoxError> {
        let net = Network::new(
            Multipod::new(self.spec.mesh.clone()),
            NetworkConfig::tpu_v3(),
        );
        self.analytic_comm_s =
            two_dim_all_reduce_time(&net, self.spec.elems, Precision::F32, 1)?.total();
        let clean = run_campaign(&self.spec.campaign_config(), &FaultPlan::new(), None)?;
        let starts: Vec<SimTime> = clean
            .steps
            .iter()
            .map(|s| SimTime::from_seconds(s.start_seconds))
            .collect();
        self.plan = self.spec.plan(&starts);
        self.clean_loss = clean.final_loss;
        Ok(())
    }
}

/// Everything a run starts from: the set-up the benchmark times.
pub struct TrainState {
    trainer: DataParallelTrainer<SgdMomentum>,
    driver: FaultDriver,
    target: Tensor,
    w: Tensor,
}

pub fn setup(ctx: &TrainCtx) -> TrainState {
    let config = ctx.spec.campaign_config();
    let trainer = DataParallelTrainer::new(
        config.mesh.clone(),
        SgdMomentum::new(1.0, 0.0),
        LrSchedule::Constant { lr: config.lr },
    )
    .with_fault_policy(ctx.spec.fault_policy());
    let mut rng = TensorRng::seed(config.seed);
    let target = rng.uniform(Shape::vector(config.elems), -1.0, 1.0);
    TrainState {
        trainer,
        driver: FaultDriver::new(ctx.plan.clone()),
        target,
        w: Tensor::zeros(Shape::vector(config.elems)),
    }
}

/// The mesh a step ran on, which decides what its trainer call did.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MeshState {
    Healthy,
    /// 2-D schedule routed around these failed links.
    Detour(Vec<(u32, u32)>),
    /// Survivor ring after these replicas were dropped.
    Survivor(Vec<usize>),
}

#[derive(Clone, Debug)]
pub struct StepRecord {
    pub host_s: f64,
    pub sim_s: f64,
    pub comm_s: f64,
    pub loss: f64,
    pub retries: u32,
    pub degraded: bool,
    pub state: MeshState,
    /// Index of the step's `core.step` span when traced.
    pub span: usize,
}

/// What one run of the loop did.
#[derive(Default)]
pub struct TrainRun {
    pub wall: (f64, f64),
    pub steps: Vec<StepRecord>,
    pub total_sim_s: f64,
    pub final_loss: f64,
    pub saves: u64,
    pub restores: u64,
    pub restores_verified: u64,
    pub replayed: u64,
    pub ckpt_bytes: u64,
    pub save_sim_s: f64,
    pub fault_events: usize,
    /// First step's gradient per mesh state, kept for the probes. Every
    /// replica gets the same one, so one copy stands for all of them.
    pub grads: BTreeMap<MeshState, Tensor>,
}

fn mesh_state(trainer: &DataParallelTrainer<SgdMomentum>, degraded: bool) -> MeshState {
    let dead = trainer.dead_replicas();
    if !dead.is_empty() {
        MeshState::Survivor(dead)
    } else if degraded {
        let links = trainer.network().mesh().failed_links();
        MeshState::Detour(links.iter().map(|(a, b)| (a.0, b.0)).collect())
    } else {
        MeshState::Healthy
    }
}

/// Runs the campaign loop on `st`, recording spans on `tracer` when on.
pub fn run(ctx: &TrainCtx, st: TrainState, tracer: &mut Tracer) -> Result<TrainRun, BoxError> {
    let mut out = TrainRun::default();
    let start = tracer.now();
    let result = drive(ctx, st, tracer, &mut out);
    out.wall = (start, tracer.now());
    result.map(|()| out)
}

fn drive(
    ctx: &TrainCtx,
    st: TrainState,
    tracer: &mut Tracer,
    out: &mut TrainRun,
) -> Result<(), BoxError> {
    let TrainState {
        mut trainer,
        mut driver,
        target,
        mut w,
    } = st;
    let spec = &ctx.spec;
    let config = spec.campaign_config();
    let pcie = PcieCost::criteo();
    let n = trainer.replicas();
    let mut now = SimTime::ZERO;
    let mut last: Option<(Checkpoint, Tensor)> = None;
    let mut replay_until = 0u64;
    let mut rollbacks = 0usize;
    let max_rollbacks = ctx.plan.events().len() + 4;

    let save = |trainer: &mut DataParallelTrainer<SgdMomentum>,
                tracer: &mut Tracer,
                w: &Tensor,
                step: u64,
                now: &mut SimTime,
                out: &mut TrainRun|
     -> Result<(Checkpoint, Tensor), BoxError> {
        let dead = trainer.dead_replicas();
        let placement = tracer.span("ckpt.plan", |_| {
            ShardPlacement::plan(trainer.network().mesh(), &dead, spec.elems)
        })?;
        let bundle = tracer.span("ckpt.bundle", |_| {
            StateBundle::from_optimizer(step, w, trainer.optimizer(), n)
        })?;
        let saved = tracer.span("ckpt.save", |_| {
            save_checkpoint(trainer.network_mut(), &placement, &bundle, &pcie, *now)
        })?;
        out.save_sim_s += saved.finish - *now;
        out.saves += 1;
        out.ckpt_bytes += saved.bytes;
        *now = saved.finish;
        Ok((saved.checkpoint, bundle.weights))
    };

    if let Recovery::Rollback { .. } = spec.recovery {
        last = Some(save(&mut trainer, tracer, &w, 0, &mut now, out)?);
    }
    while trainer.current_step() < spec.steps {
        out.fault_events += tracer.span("faults.advance", |_| {
            driver.advance(trainer.network_mut(), now)
        });
        let grads = tracer.span("tensor.grad", |_| -> Result<Vec<Tensor>, BoxError> {
            let grad = w.sub(&target)?.scale(1.0 / n as f32);
            Ok(vec![grad; n])
        })?;
        let span = tracer.next_id();
        let host = Instant::now();
        let result = tracer.span("core.step", |_| trainer.step(&mut w, &grads));
        let host_s = host.elapsed().as_secs_f64();
        match result {
            Ok(stats) => {
                let slowdown = driver.max_slowdown();
                let compute_seconds = config.host_seconds_per_step * slowdown;
                let sim_s = stats.comm_seconds.max(compute_seconds);
                let replayed = stats.step <= replay_until;
                out.replayed += u64::from(replayed);
                let loss = tracer.span("tensor.loss", |_| -> Result<f64, BoxError> {
                    let norm = f64::from(w.sub(&target)?.norm2());
                    Ok(norm * norm / spec.elems as f64)
                })?;
                let state = mesh_state(&trainer, stats.degraded);
                if tracer.is_on() {
                    out.grads
                        .entry(state.clone())
                        .or_insert_with(|| grads[0].clone());
                }
                out.steps.push(StepRecord {
                    host_s,
                    sim_s,
                    comm_s: stats.comm_seconds,
                    loss,
                    retries: stats.retries,
                    degraded: stats.degraded || replayed,
                    state,
                    span,
                });
                now += sim_s;
                if let Recovery::Rollback { interval } = spec.recovery {
                    if stats.step % interval == 0 && stats.step < spec.steps {
                        last = Some(save(&mut trainer, tracer, &w, stats.step, &mut now, out)?);
                    }
                }
            }
            Err(CollectiveError::Network(err)) if spec.recovery != Recovery::Drop => {
                rollbacks += 1;
                if rollbacks > max_rollbacks {
                    return Err(err.into());
                }
                let (ckpt, saved_weights) = last.as_ref().ok_or("rollback before any save")?;
                let failed_at = trainer.current_step();
                let dead = trainer.dead_replicas();
                let survivor = tracer.span("ckpt.plan", |_| {
                    ShardPlacement::plan(trainer.network().mesh(), &dead, spec.elems)
                })?;
                let restored = tracer.span("ckpt.restore", |_| {
                    restore_checkpoint(trainer.network_mut(), &survivor, ckpt, &pcie, now)
                })?;
                out.restores += 1;
                out.ckpt_bytes += restored.bytes;
                if bits_equal(&restored.bundle.weights, saved_weights) {
                    out.restores_verified += 1;
                }
                w = restored.bundle.weights.clone();
                tracer.span("ckpt.restore_optimizer", |_| {
                    restored
                        .bundle
                        .restore_optimizer(trainer.optimizer_mut(), n)
                })?;
                tracer.span("core.rollback", |_| {
                    trainer.rollback_to(restored.bundle.step)
                });
                replay_until = failed_at;
                now = restored.finish;
            }
            Err(e) => return Err(e.into()),
        }
    }
    out.total_sim_s = now.seconds();
    out.final_loss = out.steps.last().map_or(f64::INFINITY, |s| s.loss);
    Ok(())
}

fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.len() == b.len()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Replays the healthy 2-D schedule's transfers on `net`: reduce-scatter
/// along every Y ring, then every X line, then all-gather back along X and
/// Y, each ring stepping in lockstep with chunks of the numeric path's
/// size. Returns the number of transfers.
pub fn replay_schedule(net: &mut Network, elems: usize) -> Result<u64, NetworkError> {
    let mesh = net.mesh().clone();
    let y_rings: Vec<Ring> = (0..mesh.x_len()).map(|x| mesh.y_ring(x)).collect();
    let x_rings: Vec<Ring> = (0..mesh.y_len()).map(|y| mesh.x_line(y)).collect();
    let y_chunk = (elems / mesh.y_len() as usize).max(1);
    let x_chunk = (y_chunk / mesh.x_len() as usize).max(1);
    let bytes = |chunk: usize| Precision::F32.wire_bytes(chunk);
    let phases = [
        (&y_rings, bytes(y_chunk)),
        (&x_rings, bytes(x_chunk)),
        (&x_rings, bytes(x_chunk)),
        (&y_rings, bytes(y_chunk)),
    ];
    let mut transfers = 0u64;
    let mut t = SimTime::ZERO;
    for (rings, bytes) in phases {
        let mut phase_end = t;
        for ring in rings.iter() {
            let members = ring.members();
            let n = members.len();
            let mut step_start = t;
            for _ in 1..n {
                let mut step_end = step_start;
                for m in 0..n {
                    let sent = net.transfer(members[m], members[(m + 1) % n], bytes, step_start)?;
                    step_end = step_end.max(sent.finish);
                    transfers += 1;
                }
                step_start = step_end;
            }
            phase_end = phase_end.max(step_start);
        }
        t = phase_end;
    }
    Ok(transfers)
}

/// The trainer's survivor-ring all-reduce on `net`, whose lost chips are
/// already failed: the routed ring over the live chips in column-major
/// order when the payload divides across them, else the gather and
/// broadcast through the first survivor.
fn survivor_all_reduce(net: &mut Network, grads: &[Tensor]) -> Result<(), BoxError> {
    let mesh = net.mesh();
    let mut survivors: Vec<ChipId> = mesh.chips().filter(|&c| !mesh.is_isolated(c)).collect();
    survivors.sort_by_key(|&c| {
        let coord = mesh.coord_of(c);
        (coord.x, coord.y)
    });
    let inputs: Vec<Tensor> = survivors.iter().map(|c| grads[c.index()].clone()).collect();
    let ring = Ring::new(survivors.clone(), false, 1);
    match ring::all_reduce(net, &ring, &inputs, Precision::F32, SimTime::ZERO) {
        Ok(_) => Ok(()),
        Err(CollectiveError::IndivisiblePayload { .. }) => {
            let root = survivors[0];
            let bytes = Precision::F32.wire_bytes(inputs[0].len());
            let gather: Vec<_> = survivors[1..].iter().map(|&c| (c, root, bytes)).collect();
            let gathered = net.parallel_transfers(&gather, SimTime::ZERO)?;
            let scatter: Vec<_> = survivors[1..].iter().map(|&c| (root, c, bytes)).collect();
            net.parallel_transfers(&scatter, gathered)?;
            Ok(())
        }
        Err(e) => Err(e.into()),
    }
}

fn network_in(spec: &TrainSpec, state: &MeshState) -> Network {
    let mut net = Network::new(Multipod::new(spec.mesh.clone()), NetworkConfig::tpu_v3());
    match state {
        MeshState::Healthy => {}
        MeshState::Detour(links) => {
            for &(a, b) in links {
                net.fail_link(ChipId(a), ChipId(b), SimTime::ZERO);
            }
        }
        MeshState::Survivor(dead) => {
            for &c in dead {
                net.fail_chip(ChipId(c as u32), SimTime::ZERO);
            }
        }
    }
    net
}

/// Probe durations for one mesh state.
struct Probe {
    sum_all_s: f64,
    collective: &'static str,
    collective_s: f64,
    replay_s: f64,
    transfers: u64,
}

/// Times, on fresh networks in `state`, the calls a trainer step makes
/// inside itself.
fn probe(
    spec: &TrainSpec,
    state: &MeshState,
    grads: &[Tensor],
    tracer: &mut Tracer,
) -> Result<Probe, BoxError> {
    let survivors: Vec<Tensor>;
    let sum_inputs = match state {
        MeshState::Survivor(dead) => {
            survivors = grads
                .iter()
                .enumerate()
                .filter(|(i, _)| !dead.contains(i))
                .map(|(_, g)| g.clone())
                .collect();
            &survivors[..]
        }
        _ => grads,
    };
    let id = tracer.next_id();
    tracer.span("tensor.sum_all", |_| Tensor::sum_all(sum_inputs))?;
    let sum_all_s = tracer.spans()[id].duration();
    let mut net = network_in(spec, state);
    let id = tracer.next_id();
    let (collective, transfers, replay_s) = if let MeshState::Survivor(_) = state {
        tracer.span("collectives.survivor", |_| {
            survivor_all_reduce(&mut net, grads)
        })?;
        ("collectives.survivor", 0, 0.0)
    } else {
        tracer.span("collectives.allreduce", |_| {
            two_dim_all_reduce(&mut net, grads, Precision::F32, 1, None)
        })?;
        let mut fresh = network_in(spec, state);
        let rid = tracer.next_id();
        let transfers =
            tracer.span("simnet.replay", |_| replay_schedule(&mut fresh, spec.elems))?;
        (
            "collectives.allreduce",
            transfers,
            tracer.spans()[rid].duration(),
        )
    };
    Ok(Probe {
        sum_all_s,
        collective,
        collective_s: tracer.spans()[id].duration(),
        replay_s,
        transfers,
    })
}

/// Output checks and model values of one run.
pub fn judge(ctx: &TrainCtx, run: &Result<TrainRun, BoxError>) -> Repeat {
    let attempted = ctx.spec.steps;
    let mut rep = Repeat::new(attempted);
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            rep.fail_all(format!("typed error: {e}"));
            return rep;
        }
    };
    rep.wall_s = run.wall.1 - run.wall.0;
    for s in &run.steps {
        let samples = if s.degraded {
            &mut rep.degraded_step_s
        } else {
            &mut rep.healthy_step_s
        };
        samples.push(s.host_s);
    }
    let tolerance = LOSS_TOLERANCE * (1.0 + ctx.clean_loss.abs());
    let mut checks = Checks::default();
    checks.check(
        "final loss matches the fault-free run",
        (run.final_loss - ctx.clean_loss).abs() <= tolerance,
    );
    checks.check(
        "campaign has healthy and degraded steps",
        run.steps.iter().any(|s| s.degraded) && run.steps.iter().any(|s| !s.degraded),
    );
    if let Recovery::Rollback { .. } = ctx.spec.recovery {
        checks.check(
            "a rollback restored a checkpoint and replayed lost steps",
            run.restores > 0 && run.replayed > 0,
        );
        checks.check(
            "every restore is bit-identical to its save",
            run.restores_verified == run.restores,
        );
    }
    rep.apply(&checks);

    let pick = |degraded: bool, f: fn(&StepRecord) -> f64| {
        let v: Vec<f64> = run
            .steps
            .iter()
            .filter(|s| s.degraded == degraded)
            .map(f)
            .collect();
        median(&v)
    };
    let healthy_comm = pick(false, |s| s.comm_s);
    rep.model = BTreeMap::from([
        ("model.step_sim_s.healthy".into(), pick(false, |s| s.sim_s)),
        ("model.step_sim_s.degraded".into(), pick(true, |s| s.sim_s)),
        ("model.comm_sim_s".into(), healthy_comm),
        ("model.analytic_comm_s".into(), ctx.analytic_comm_s),
        ("model.final_loss".into(), run.final_loss),
        ("model.ckpt_save_sim_s".into(), run.save_sim_s),
        ("model.makespan_sim_s".into(), run.total_sim_s),
        ("model.sched_utilization".into(), 0.0),
        ("model.dlrm_p99_sim_s".into(), 0.0),
        (
            "model.sim_vs_analytic_err".into(),
            (healthy_comm / ctx.analytic_comm_s - 1.0).abs(),
        ),
    ]);
    // Every step's simulated outputs take part in the repeat comparison.
    rep.digest = run.steps.iter().fold(0xcbf2_9ce4_8422_2325, |h, s| {
        [s.sim_s, s.comm_s, s.loss]
            .iter()
            .fold(h, |h, v| crate::workload::fnv(h, v.to_bits()))
    });
    rep
}

/// Probes the traced run's opaque step calls, lays the probes into the
/// step spans, and derives the per-layer metrics.
pub fn layers(
    ctx: &TrainCtx,
    run: &TrainRun,
    tracer: &mut Tracer,
) -> Result<BTreeMap<String, f64>, BoxError> {
    let spec = &ctx.spec;
    let mut probes = BTreeMap::new();
    for (state, grad) in &run.grads {
        let grads = vec![grad.clone(); spec.mesh_chips()];
        probes.insert(state.clone(), probe(spec, state, &grads, tracer)?);
    }
    for step in &run.steps {
        let p = &probes[&step.state];
        tracer.attribute(step.span, "tensor.sum_all", 0.0, p.sum_all_s);
        let c = tracer.attribute(step.span, p.collective, p.sum_all_s, p.collective_s);
        if p.replay_s > 0.0 {
            tracer.attribute(c, "simnet.replay", 0.0, p.replay_s);
        }
    }
    let sp = tracer.spans();
    let healthy = probes.get(&MeshState::Healthy);
    let survivor = probes
        .iter()
        .find(|(s, _)| matches!(s, MeshState::Survivor(_)));
    let step_s = |degraded: bool| {
        let v: Vec<f64> = run
            .steps
            .iter()
            .filter(|s| s.degraded == degraded)
            .map(|s| sp[s.span].duration())
            .collect();
        median(&v)
    };
    let transfers = healthy.map_or(0, |p| p.transfers);
    let replay_s = healthy.map_or(0.0, |p| p.replay_s);
    let mut m = BTreeMap::from([
        ("simnet.transfers".to_string(), transfers as f64),
        ("simnet.replay_s".into(), replay_s),
        (
            "simnet.ns_per_transfer".into(),
            if transfers > 0 {
                1e9 * replay_s / transfers as f64
            } else {
                0.0
            },
        ),
        (
            "collectives.allreduce_s".into(),
            healthy.map_or(0.0, |p| p.collective_s),
        ),
        (
            "collectives.survivor_s".into(),
            survivor.map_or(0.0, |(_, p)| p.collective_s),
        ),
        (
            "tensor.sum_all_s".into(),
            healthy.map_or(0.0, |p| p.sum_all_s),
        ),
        (
            "tensor.bytes".into(),
            Precision::F32.wire_bytes(spec.elems) as f64 * spec.mesh_chips() as f64,
        ),
        ("core.step_s".into(), step_s(false)),
        ("core.step_s.degraded".into(), step_s(true)),
        (
            "core.retries".into(),
            run.steps.iter().map(|s| f64::from(s.retries)).sum(),
        ),
        (
            "faults.advance_s".into(),
            spans::total(sp, "faults.advance"),
        ),
        ("faults.events".into(), run.fault_events as f64),
        ("ckpt.save_s".into(), spans::total(sp, "ckpt.save")),
        ("ckpt.restore_s".into(), spans::total(sp, "ckpt.restore")),
        ("ckpt.bytes".into(), run.ckpt_bytes as f64),
        ("ckpt.saves".into(), run.saves as f64),
        ("ckpt.restores".into(), run.restores as f64),
    ]);
    m.insert("bench.wall_s".into(), run.wall.1 - run.wall.0);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipod_ckpt::{run_rollback_campaign, RollbackConfig};

    impl TrainSpec {
        fn rollback_config(&self, interval: u64) -> RollbackConfig {
            RollbackConfig {
                steps: self.steps,
                elems: self.elems,
                seed: self.seed,
                ckpt_interval: interval,
                ..RollbackConfig::demo(self.mesh.clone())
            }
        }
    }

    fn calibrated(spec: TrainSpec) -> TrainCtx {
        let mut ctx = TrainCtx::new(spec);
        ctx.calibrate().unwrap();
        ctx
    }

    fn small(recovery: Recovery) -> TrainSpec {
        TrainSpec {
            mesh: MultipodConfig::mesh(4, 4, true),
            elems: 64,
            steps: 8,
            recovery,
            seed: 5,
        }
    }

    #[test]
    fn drop_loop_matches_run_campaign_bit_for_bit() {
        let ctx = calibrated(small(Recovery::Drop));
        let ours = run(&ctx, setup(&ctx), &mut Tracer::new(false)).unwrap();
        let lib = run_campaign(&ctx.spec.campaign_config(), &ctx.plan, None).unwrap();
        assert_eq!(ours.steps.len(), lib.steps.len());
        for (a, b) in ours.steps.iter().zip(&lib.steps) {
            assert_eq!(a.sim_s.to_bits(), b.step_seconds.to_bits());
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
            assert_eq!(a.retries, b.retries);
        }
        assert_eq!(ours.total_sim_s.to_bits(), lib.total_seconds.to_bits());
        assert!(ours
            .steps
            .iter()
            .any(|s| matches!(s.state, MeshState::Detour(_))));
        assert!(ours
            .steps
            .iter()
            .any(|s| matches!(s.state, MeshState::Survivor(_))));
    }

    #[test]
    fn rollback_loop_matches_run_rollback_campaign_bit_for_bit() {
        let spec = small(Recovery::Rollback { interval: 2 });
        let ctx = calibrated(spec.clone());
        let ours = run(&ctx, setup(&ctx), &mut Tracer::new(false)).unwrap();
        let lib = run_rollback_campaign(&spec.rollback_config(2), &ctx.plan, None).unwrap();
        assert_eq!(ours.steps.len(), lib.steps.len());
        for (a, b) in ours.steps.iter().zip(&lib.steps) {
            assert_eq!(a.sim_s.to_bits(), b.step_seconds.to_bits());
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
        }
        assert_eq!(ours.total_sim_s.to_bits(), lib.total_seconds.to_bits());
        assert_eq!(ours.saves as usize, lib.checkpoints_saved);
        assert_eq!(ours.restores as usize, lib.rollbacks);
        assert_eq!(ours.restores_verified, ours.restores);
        assert_eq!(ours.replayed, lib.replayed_steps);
        assert!(ours.replayed > 0);
    }

    #[test]
    fn healthy_replay_counts_every_ring_step() {
        let spec = small(Recovery::Drop);
        let mut net = network_in(&spec, &MeshState::Healthy);
        // 4 Y rings and 4 X lines of 4 members, 3 steps each, both halves.
        assert_eq!(
            replay_schedule(&mut net, spec.elems).unwrap(),
            2 * (4 * 3 * 4 + 4 * 3 * 4)
        );
    }

    #[test]
    fn failed_output_check_raises_failed_count() {
        let ctx = calibrated(small(Recovery::Drop));
        let mut ours = run(&ctx, setup(&ctx), &mut Tracer::new(false)).unwrap();
        assert_eq!(judge(&ctx, &Ok(std::mem::take(&mut ours))).failed, 0);
        let mut bad = run(&ctx, setup(&ctx), &mut Tracer::new(false)).unwrap();
        bad.final_loss += 1.0;
        let rep = judge(&ctx, &Ok(bad));
        assert_eq!(rep.failed, rep.attempted);
        assert!(rep.error_rate() > 0.0);
    }

    #[test]
    fn traced_self_times_sum_to_wall() {
        let ctx = calibrated(small(Recovery::Drop));
        let mut tracer = Tracer::new(true);
        let ours = run(&ctx, setup(&ctx), &mut tracer).unwrap();
        layers(&ctx, &ours, &mut tracer).unwrap();
        let (start, end) = ours.wall;
        assert!(tracer
            .spans()
            .iter()
            .any(|s| s.attributed && s.start >= start));
        let selfs: f64 = spans::window_self_times(tracer.spans(), start, end)
            .values()
            .sum();
        let gap = spans::unattributed(tracer.spans(), start, end);
        let wall = ours.wall.1 - ours.wall.0;
        assert!((selfs + gap - wall).abs() <= 1e-9 * wall.max(1.0));
    }
}
