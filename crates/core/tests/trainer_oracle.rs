//! Differential oracle for `DataParallelTrainer`'s fault-free step.
//!
//! The trainer times the 2-D gradient summation without payloads and
//! builds the updated weights on the host. The oracle below is the
//! numeric dataflow it replaces: the full `two_dim_all_reduce` with the
//! sharded optimizer update applied at each shard owner between the
//! reduce and broadcast halves, and chip 0's output taken as the new
//! weights. Both must agree bit for bit — weights, simulated step time,
//! the Chrome-trace export and the telemetry registry — across
//! precisions, optimizers and mesh shapes, including sub-2-member rings,
//! a detoured step and weights that span several blocks of the gradient
//! sum. The survivor step after a chip loss is held to a host-side
//! oracle of its own, also bit for bit.

use std::sync::Arc;

use multipod_collectives::twod::{shard_index, two_dim_all_reduce};
use multipod_collectives::{CollectiveError, Precision};
use multipod_core::trainer::DataParallelTrainer;
use multipod_optim::{Lamb, Lars, LayerStats, LrSchedule, Optimizer, SgdMomentum, StateKey};
use multipod_simnet::{Network, NetworkConfig, SimTime};
use multipod_telemetry::Telemetry;
use multipod_tensor::kernels::BLOCK;
use multipod_tensor::{Shape, Tensor, TensorRng};
use multipod_topology::{Multipod, MultipodConfig};
use multipod_trace::{Recorder, SpanCategory, SpanEvent, Track};

const STEPS: usize = 5;

/// The numeric reference trainer: the fault-free step as a full numeric
/// 2-D all-reduce with the optimizer update in its shard hook.
struct Oracle<O: Optimizer> {
    net: Network,
    optimizer: O,
    schedule: LrSchedule,
    precision: Precision,
    step: u64,
}

impl<O: Optimizer> Oracle<O> {
    /// One step; returns the simulated communication seconds.
    fn step(&mut self, weights: &mut Tensor, local_grads: &[Tensor]) -> f64 {
        let lr = self.schedule.at(self.step);
        self.optimizer.set_learning_rate(lr);
        self.net.reset();
        let n = self.net.mesh().num_chips();
        let grad_sum = Tensor::sum_all(local_grads).unwrap();
        let w_shards = weights.split(0, n).unwrap();
        let g_shards = grad_sum.split(0, n).unwrap();
        let mut global = LayerStats::default();
        let mut updates = Vec::with_capacity(n);
        for s in 0..n {
            let (u, stats) = self
                .optimizer
                .prepare(StateKey { layer: 0, shard: s }, &w_shards[s], &g_shards[s])
                .unwrap();
            global = global.merge(stats);
            updates.push(u);
        }
        let optimizer = &self.optimizer;
        let mesh = self.net.mesh().clone();
        let mut apply = |chip, shard: &mut Tensor| {
            let s = shard_index(&mesh, chip, 1);
            let mut w_shard = w_shards[s].clone();
            optimizer.apply(&mut w_shard, &updates[s], global).unwrap();
            *shard = w_shard;
        };
        let out = two_dim_all_reduce(
            &mut self.net,
            local_grads,
            self.precision,
            1,
            Some(&mut apply),
        )
        .unwrap();
        *weights = out.outputs[0]
            .clone()
            .reshape(weights.shape().clone())
            .unwrap();
        let time = SimTime::ZERO + out.time.seconds();
        if let Some(sink) = self.net.trace_sink() {
            let update_at = SimTime::from_seconds(
                out.breakdown.y_reduce_scatter + out.breakdown.x_reduce_scatter,
            );
            sink.record_span(
                SpanEvent::new(
                    Track::Sim,
                    SpanCategory::Optimizer,
                    "sharded-weight-update",
                    update_at,
                    update_at,
                )
                .with_arg("shards", n as f64)
                .with_arg("lr", lr as f64),
            );
            sink.record_span(
                SpanEvent::new(
                    Track::Sim,
                    SpanCategory::Step,
                    "train-step",
                    SimTime::ZERO,
                    time,
                )
                .with_arg("step", (self.step + 1) as f64)
                .with_arg("lr", lr as f64),
            );
        }
        self.step += 1;
        time.seconds()
    }
}

/// A mesh under test: its weight shape for `n` replicas, and whether the
/// Y wrap link of column 0 is down (every step then runs detoured).
struct Case {
    name: &'static str,
    mesh: MultipodConfig,
    failed_wrap: bool,
    weight_shape: fn(usize) -> Shape,
}

/// At least three [`BLOCK`]s of the gradient sum plus a ragged tail, in
/// `n` equal shards.
fn multi_block(n: usize) -> Shape {
    Shape::vector(n * ((3 * BLOCK).div_ceil(n) + 5))
}

fn cases() -> Vec<Case> {
    let vector = |n: usize| Shape::vector(4 * n);
    let matrix = |n: usize| Shape::of(&[2 * n, 3]);
    vec![
        Case {
            name: "2x2 torus, multi-block weights",
            mesh: MultipodConfig::mesh(2, 2, true),
            failed_wrap: false,
            weight_shape: multi_block,
        },
        Case {
            name: "4x4 torus",
            mesh: MultipodConfig::mesh(4, 4, true),
            failed_wrap: false,
            weight_shape: vector,
        },
        Case {
            name: "8x2 open X",
            mesh: MultipodConfig::mesh(8, 2, true),
            failed_wrap: false,
            weight_shape: matrix,
        },
        Case {
            name: "2x1",
            mesh: MultipodConfig::mesh(2, 1, false),
            failed_wrap: false,
            weight_shape: vector,
        },
        Case {
            name: "1x4",
            mesh: MultipodConfig::mesh(1, 4, true),
            failed_wrap: false,
            weight_shape: matrix,
        },
        Case {
            name: "4x4 torus, failed wrap link",
            mesh: MultipodConfig::mesh(4, 4, true),
            failed_wrap: true,
            weight_shape: vector,
        },
    ]
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Attaches a fresh recorder and telemetry registry to `net`, then fails
/// the Y wrap link of column 0 when `failed_wrap` is set.
fn instrument(net: &mut Network, failed_wrap: bool) -> (Arc<Recorder>, Arc<Telemetry>) {
    let recorder = Recorder::shared();
    let telemetry = Telemetry::shared();
    net.set_trace_sink(recorder.clone());
    net.set_telemetry(telemetry.clone());
    if failed_wrap {
        let ring = net.mesh().y_ring(0);
        let (a, b) = (*ring.members().last().unwrap(), ring.members()[0]);
        net.fail_link(a, b, SimTime::ZERO);
    }
    (recorder, telemetry)
}

fn chrome(recorder: &Recorder) -> String {
    serde_json::to_string(&recorder.chrome_trace().unwrap()).unwrap()
}

fn check<O: Optimizer>(label: &str, make: fn() -> O, schedule: LrSchedule) {
    for case in cases() {
        for precision in [Precision::F32, Precision::Bf16] {
            let what = format!("{label} on {} at {precision:?}", case.name);
            let mut trainer = DataParallelTrainer::new(case.mesh.clone(), make(), schedule);
            if precision == Precision::Bf16 {
                trainer = trainer.with_bf16_gradients();
            }
            let mut oracle = Oracle {
                net: Network::new(Multipod::new(case.mesh.clone()), NetworkConfig::tpu_v3()),
                optimizer: make(),
                schedule,
                precision,
                step: 0,
            };
            let (rec_t, tel_t) = instrument(trainer.network_mut(), case.failed_wrap);
            let (rec_o, tel_o) = instrument(&mut oracle.net, case.failed_wrap);

            let n = trainer.replicas();
            let shape = (case.weight_shape)(n);
            let mut rng = TensorRng::seed(41);
            let mut w_t = rng.uniform(shape.clone(), -1.0, 1.0);
            let mut w_o = w_t.clone();
            for step in 0..STEPS {
                let grads: Vec<Tensor> = (0..n)
                    .map(|_| rng.uniform(shape.clone(), -0.3, 0.3))
                    .collect();
                let stats = trainer.step(&mut w_t, &grads).unwrap();
                let comm = oracle.step(&mut w_o, &grads);
                assert_eq!(stats.degraded, case.failed_wrap, "{what}");
                assert_eq!(
                    stats.comm_seconds.to_bits(),
                    comm.to_bits(),
                    "{what}, step {step}: comm {} vs {comm}",
                    stats.comm_seconds
                );
                assert_eq!(w_t.shape(), w_o.shape(), "{what}, step {step}");
                assert_eq!(bits(&w_t), bits(&w_o), "{what}, step {step}: weights");
            }
            assert!(!rec_t.is_empty(), "{what}: trace recorded");
            assert_eq!(chrome(&rec_t), chrome(&rec_o), "{what}: Chrome trace");
            let (reg_t, reg_o) = (tel_t.snapshot(), tel_o.snapshot());
            assert_eq!(
                format!("{reg_t:?}"),
                format!("{reg_o:?}"),
                "{what}: registry"
            );
        }
    }
}

#[test]
fn sgd_momentum_step_matches_the_numeric_oracle() {
    check(
        "SGD-momentum",
        || SgdMomentum::new(0.1, 0.9),
        LrSchedule::Constant { lr: 0.1 },
    );
}

#[test]
fn lamb_step_matches_the_numeric_oracle() {
    check(
        "LAMB",
        || Lamb::new(0.1, 0.01),
        LrSchedule::lamb_bert(0.2, 2, STEPS as u64),
    );
}

#[test]
fn lars_step_matches_the_numeric_oracle() {
    check(
        "LARS",
        || Lars::new(0.1, 0.9, 1e-4),
        LrSchedule::lars_resnet(2.0, 2, STEPS as u64),
    );
}

/// The survivor step's numeric reference on the host: the survivors'
/// gradients summed in the trainer's ring order, scaled by `n / s`, then
/// every shard prepared and applied by `optimizer`, and the shards
/// concatenated.
fn survivor_oracle<O: Optimizer>(
    optimizer: &mut O,
    weights: &mut Tensor,
    grads: &[Tensor],
    ring_order: &[usize],
) {
    let n = grads.len();
    let mut grad_sum = grads[ring_order[0]].clone();
    for &i in &ring_order[1..] {
        grad_sum.axpy(1.0, &grads[i]).unwrap();
    }
    let grad_sum = grad_sum.scale(n as f32 / ring_order.len() as f32);
    let w_shards = weights.split(0, n).unwrap();
    let g_shards = grad_sum.split(0, n).unwrap();
    let mut global = LayerStats::default();
    let mut updates = Vec::with_capacity(n);
    for s in 0..n {
        let (u, stats) = optimizer
            .prepare(StateKey { layer: 0, shard: s }, &w_shards[s], &g_shards[s])
            .unwrap();
        global = global.merge(stats);
        updates.push(u);
    }
    let updated: Vec<Tensor> = w_shards
        .into_iter()
        .zip(&updates)
        .map(|(mut w, u)| {
            optimizer.apply(&mut w, u, global).unwrap();
            w
        })
        .collect();
    *weights = Tensor::concat(&updated, 0).unwrap();
}

/// One chip of a 4×4 torus fails before the first step; every step then
/// runs on the survivors, with multi-block weights, and must match
/// [`survivor_oracle`] bit for bit.
fn check_survivors<O: Optimizer>(label: &str, make: fn() -> O, schedule: LrSchedule) {
    const LOST: usize = 5;
    let mut trainer = DataParallelTrainer::new(MultipodConfig::mesh(4, 4, true), make(), schedule);
    let mesh = trainer.network().mesh().clone();
    trainer
        .network_mut()
        .fail_chip(mesh.chips().nth(LOST).unwrap(), SimTime::ZERO);
    // The trainer's survivor ring runs column-major (see `survivors`).
    let mut ring: Vec<_> = mesh.chips().filter(|c| c.index() != LOST).collect();
    ring.sort_by_key(|&c| (mesh.coord_of(c).x, mesh.coord_of(c).y));
    let ring_order: Vec<usize> = ring.iter().map(|c| c.index()).collect();

    let mut optimizer = make();
    let n = trainer.replicas();
    let shape = multi_block(n);
    let mut rng = TensorRng::seed(43);
    let mut w_t = rng.uniform(shape.clone(), -1.0, 1.0);
    let mut w_o = w_t.clone();
    for step in 0..STEPS {
        let grads: Vec<Tensor> = (0..n)
            .map(|_| rng.uniform(shape.clone(), -0.3, 0.3))
            .collect();
        let stats = trainer.step(&mut w_t, &grads).unwrap();
        assert_eq!(trainer.dead_replicas(), vec![LOST], "{label}");
        assert!(stats.degraded, "{label}");
        optimizer.set_learning_rate(schedule.at(step as u64));
        survivor_oracle(&mut optimizer, &mut w_o, &grads, &ring_order);
        assert_eq!(bits(&w_t), bits(&w_o), "{label}, step {step}: weights");
    }
}

#[test]
fn survivor_steps_match_the_host_oracle() {
    check_survivors(
        "SGD-momentum",
        || SgdMomentum::new(0.1, 0.9),
        LrSchedule::Constant { lr: 0.1 },
    );
    check_survivors(
        "LAMB",
        || Lamb::new(0.1, 0.01),
        LrSchedule::lamb_bert(0.2, 2, STEPS as u64),
    );
    check_survivors(
        "LARS",
        || Lars::new(0.1, 0.9, 1e-4),
        LrSchedule::lars_resnet(2.0, 2, STEPS as u64),
    );
}

/// Gradients that disagree in shape — with each other or with the
/// weights — are rejected before optimizer state advances: the next valid
/// step reproduces a fresh trainer's first step bit for bit.
fn rejects_before_advancing(bad: impl Fn(&mut Vec<Tensor>, &mut Tensor)) {
    let make = || {
        DataParallelTrainer::new(
            MultipodConfig::mesh(2, 2, true),
            SgdMomentum::new(0.1, 0.9),
            LrSchedule::lars_resnet(1.0, 2, 8),
        )
    };
    let mut rng = TensorRng::seed(5);
    let w0 = rng.uniform(Shape::vector(16), -1.0, 1.0);
    let grads: Vec<Tensor> = (0..4)
        .map(|_| rng.uniform(Shape::vector(16), -0.3, 0.3))
        .collect();

    let mut trainer = make();
    let mut bad_grads = grads.clone();
    let mut bad_w = w0.clone();
    bad(&mut bad_grads, &mut bad_w);
    let before = bad_w.clone();
    assert!(matches!(
        trainer.step(&mut bad_w, &bad_grads),
        Err(CollectiveError::ShapeDisagreement)
    ));
    assert_eq!(bits(&bad_w), bits(&before), "weights untouched");
    assert_eq!(trainer.current_step(), 0);

    let mut w = w0.clone();
    trainer.step(&mut w, &grads).unwrap();
    let mut w_fresh = w0;
    make().step(&mut w_fresh, &grads).unwrap();
    assert_eq!(bits(&w), bits(&w_fresh), "optimizer state did not advance");
}

#[test]
fn gradients_disagreeing_with_each_other_are_a_typed_error() {
    rejects_before_advancing(|grads, _| grads[2] = Tensor::zeros(Shape::vector(32)));
}

#[test]
fn gradients_disagreeing_with_the_weights_are_a_typed_error() {
    rejects_before_advancing(|grads, _| {
        for g in grads.iter_mut() {
            *g = Tensor::zeros(Shape::vector(32));
        }
    });
    // Same element count, different shape.
    rejects_before_advancing(|_, w| *w = w.clone().reshape(Shape::of(&[4, 4])).unwrap());
}
