//! Distributed embedding lookup over the simulated mesh.

use std::collections::BTreeMap;

use multipod_simnet::{Network, SimTime};
use multipod_tensor::{Shape, Tensor, TensorRng};
use multipod_topology::ChipId;

use crate::{EmbeddingCache, EmbeddingError, Placement};

/// The result of one distributed lookup step.
#[derive(Clone, Debug)]
pub struct LookupOutcome {
    /// Per-sample concatenated embeddings, `[batch × (tables · dim)]`.
    pub embeddings: Tensor,
    /// Completion time of the all-to-all exchange.
    pub time: SimTime,
    /// Remote rows fetched (crossed the mesh).
    pub remote_rows: usize,
    /// Local rows (replicated tables or locally owned rows).
    pub local_rows: usize,
    /// Remote rows served from the home chip's cache (no mesh traffic).
    pub cache_hits: usize,
}

/// Embedding tables distributed across the chips of a mesh.
///
/// Each partitioned table's rows live on their owning chip; a batch lookup
/// routes each remote request to the owner and the responses back — the
/// all-to-all the paper's DLRM step pays on both the forward lookup and
/// the backward scatter-update.
#[derive(Debug)]
pub struct ShardedEmbedding {
    placement: Placement,
    /// `tables[t]` holds the *full* table (storage is simulated by the
    /// placement; numerics use the logical values).
    tables: Vec<Tensor>,
    dim: usize,
}

impl ShardedEmbedding {
    /// Initializes tables deterministically from a seed.
    ///
    /// # Errors
    ///
    /// [`EmbeddingError::DimMismatch`] when tables disagree on dimension
    /// (the DLRM layout requires one uniform embedding dim).
    pub fn init(placement: Placement, seed: u64) -> Result<ShardedEmbedding, EmbeddingError> {
        let dim = placement.spec(0).dim;
        let mut rng = TensorRng::seed(seed);
        let mut tables = Vec::with_capacity(placement.num_tables());
        for t in 0..placement.num_tables() {
            let spec = placement.spec(t);
            if spec.dim != dim {
                return Err(EmbeddingError::DimMismatch {
                    table: t,
                    dim: spec.dim,
                    expected: dim,
                });
            }
            tables.push(rng.uniform(Shape::of(&[spec.rows, spec.dim]), -0.1, 0.1));
        }
        Ok(ShardedEmbedding {
            placement,
            tables,
            dim,
        })
    }

    /// The placement in force.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// One row of one table (test/inspection helper).
    ///
    /// # Errors
    ///
    /// [`EmbeddingError::TableOutOfRange`] / [`EmbeddingError::RowOutOfRange`]
    /// when the request falls outside the placement.
    pub fn row(&self, table: usize, row: usize) -> Result<Tensor, EmbeddingError> {
        if table >= self.tables.len() {
            return Err(EmbeddingError::TableOutOfRange {
                table,
                tables: self.tables.len(),
            });
        }
        let rows = self.placement.spec(table).rows;
        if row >= rows {
            return Err(EmbeddingError::RowOutOfRange { table, row, rows });
        }
        let dim = self.dim;
        let data = self.tables[table].data()[row * dim..(row + 1) * dim].to_vec();
        Ok(Tensor::new(Shape::vector(dim), data))
    }

    /// Executes a batch lookup: `indices[sample][table]` selects one row
    /// per table per sample. Samples are owned by chips round-robin
    /// (`sample % chips`); remote rows generate request/response traffic
    /// timed on the network.
    ///
    /// # Errors
    ///
    /// [`EmbeddingError::ArityMismatch`] when a sample does not carry one
    /// index per table, [`EmbeddingError::RowOutOfRange`] when an index
    /// falls outside its table, and [`EmbeddingError::Network`] when a
    /// response message cannot be routed.
    pub fn lookup(
        &self,
        net: &mut Network,
        indices: &[Vec<usize>],
        start: SimTime,
    ) -> Result<LookupOutcome, EmbeddingError> {
        self.lookup_impl(net, indices, start, None)
    }

    /// Like [`ShardedEmbedding::lookup`], but consults a per-home-chip
    /// [`EmbeddingCache`] first: a remote row found in its sample's home
    /// cache is served locally (counted in
    /// [`LookupOutcome::cache_hits`]) and generates no mesh traffic; a
    /// miss pays the all-to-all and installs the row. This is the serving
    /// path — training lookups bypass the cache because scatter-updates
    /// would invalidate it every step.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ShardedEmbedding::lookup`].
    pub fn lookup_cached(
        &self,
        net: &mut Network,
        indices: &[Vec<usize>],
        start: SimTime,
        cache: &mut EmbeddingCache,
    ) -> Result<LookupOutcome, EmbeddingError> {
        self.lookup_impl(net, indices, start, Some(cache))
    }

    fn lookup_impl(
        &self,
        net: &mut Network,
        indices: &[Vec<usize>],
        start: SimTime,
        cache: Option<&mut EmbeddingCache>,
    ) -> Result<LookupOutcome, EmbeddingError> {
        let dim = self.dim;
        let mut out = Vec::with_capacity(indices.len() * self.placement.num_tables() * dim);
        let timing = walk_lookup(&self.placement, net, indices, start, cache, |t, row| {
            out.extend_from_slice(&self.tables[t].data()[row * dim..(row + 1) * dim]);
        })?;
        Ok(LookupOutcome {
            embeddings: Tensor::new(
                Shape::of(&[indices.len(), self.placement.num_tables() * dim]),
                out,
            ),
            time: timing.time,
            remote_rows: timing.remote_rows,
            local_rows: timing.local_rows,
            cache_hits: timing.cache_hits,
        })
    }

    /// Applies a sparse gradient update: each looked-up row receives
    /// `-lr · g` for its sample's gradient slice. The backward all-to-all
    /// mirrors the forward traffic (timed by the caller via
    /// [`ShardedEmbedding::lookup`]'s outcome, as the paper's step does).
    ///
    /// # Errors
    ///
    /// [`EmbeddingError::GradShapeMismatch`] when the gradient tensor's
    /// shape disagrees with the lookup layout.
    pub fn scatter_update(
        &mut self,
        indices: &[Vec<usize>],
        grads: &Tensor,
        lr: f32,
    ) -> Result<(), EmbeddingError> {
        let tables = self.placement.num_tables();
        let dim = self.dim;
        if grads.shape().dims() != [indices.len(), tables * dim] {
            return Err(EmbeddingError::GradShapeMismatch {
                got: grads.shape().dims().to_vec(),
                expected: vec![indices.len(), tables * dim],
            });
        }
        for (sample, row_ids) in indices.iter().enumerate() {
            for (t, &row) in row_ids.iter().enumerate() {
                let g = &grads.data()
                    [sample * tables * dim + t * dim..sample * tables * dim + (t + 1) * dim];
                let table = &mut self.tables[t];
                let base = row * dim;
                for (i, &gv) in g.iter().enumerate() {
                    table.data_mut()[base + i] -= lr * gv;
                }
            }
        }
        Ok(())
    }
}

/// The time and row counts of one batch lookup, without the gathered
/// values: what a caller that only prices the all-to-all needs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LookupTiming {
    /// Completion time of the all-to-all exchange.
    pub time: SimTime,
    /// Remote rows fetched (crossed the mesh).
    pub remote_rows: usize,
    /// Local rows (replicated tables or locally owned rows).
    pub local_rows: usize,
    /// Remote rows served from the home chip's cache (no mesh traffic).
    pub cache_hits: usize,
}

/// Times a batch lookup from the placement alone: the same walk as
/// [`ShardedEmbedding::lookup`] / [`ShardedEmbedding::lookup_cached`]
/// (pass `cache` for the latter), but no table is ever materialized —
/// the serving path only reads the time and the row counts.
///
/// # Errors
///
/// As [`ShardedEmbedding::lookup`].
pub fn time_lookup(
    placement: &Placement,
    net: &mut Network,
    indices: &[Vec<usize>],
    start: SimTime,
    cache: Option<&mut EmbeddingCache>,
) -> Result<LookupTiming, EmbeddingError> {
    walk_lookup(placement, net, indices, start, cache, |_, _| {})
}

/// The one lookup walk: checks every request, probes the home caches,
/// accumulates the `(owner, home)` traffic and times it on `net`.
/// `gather(table, row)` runs once per valid request, in sample-major
/// order, before that row's traffic is accounted.
fn walk_lookup(
    placement: &Placement,
    net: &mut Network,
    indices: &[Vec<usize>],
    start: SimTime,
    mut cache: Option<&mut EmbeddingCache>,
    mut gather: impl FnMut(usize, usize),
) -> Result<LookupTiming, EmbeddingError> {
    let chips: Vec<ChipId> = net.mesh().chips().collect();
    let n_chips = chips.len();
    let tables = placement.num_tables();

    // BTreeMap so the all-to-all issues in a deterministic order —
    // contention resolution, and thus timing, depends on it.
    let mut traffic: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    let mut remote_rows = 0usize;
    let mut local_rows = 0usize;
    let mut cache_hits = 0usize;
    for (sample, row_ids) in indices.iter().enumerate() {
        if row_ids.len() != tables {
            return Err(EmbeddingError::ArityMismatch {
                sample,
                got: row_ids.len(),
                tables,
            });
        }
        let home = sample % n_chips;
        for (t, &row) in row_ids.iter().enumerate() {
            let spec = placement.spec(t);
            if row >= spec.rows {
                return Err(EmbeddingError::RowOutOfRange {
                    table: t,
                    row,
                    rows: spec.rows,
                });
            }
            gather(t, row);
            if placement.is_replicated(t) {
                local_rows += 1;
                continue;
            }
            let owner = placement.owner_of(t, row);
            if owner == home {
                local_rows += 1;
            } else if cache.as_deref_mut().is_some_and(|c| c.access(home, t, row)) {
                cache_hits += 1;
            } else {
                remote_rows += 1;
                *traffic.entry((owner, home)).or_insert(0) += (spec.dim * 4) as u64;
            }
        }
    }

    // Time the response traffic as one bulk message per (owner, home)
    // pair — the batched all-to-all of the optimized input path.
    let messages: Vec<(ChipId, ChipId, u64)> = traffic
        .into_iter()
        .map(|((src, dst), bytes)| (chips[src], chips[dst], bytes))
        .collect();
    let time = if messages.is_empty() {
        start
    } else {
        net.parallel_transfers(&messages, start)?
    };
    Ok(LookupTiming {
        time,
        remote_rows,
        local_rows,
        cache_hits,
    })
}

/// On-device evaluation accumulator (§4.6: "we perform multiple inference
/// steps on device and accumulate them" instead of paying a host
/// round-trip per step).
#[derive(Clone, Debug, Default)]
pub struct EvalAccumulator {
    predictions: Vec<f32>,
    labels: Vec<bool>,
    host_transfers: usize,
}

impl EvalAccumulator {
    /// An empty accumulator.
    pub fn new() -> EvalAccumulator {
        EvalAccumulator::default()
    }

    /// Accumulates one on-device inference step (no host traffic).
    pub fn accumulate(&mut self, predictions: &[f32], labels: &[bool]) {
        assert_eq!(predictions.len(), labels.len());
        self.predictions.extend_from_slice(predictions);
        self.labels.extend_from_slice(labels);
    }

    /// Drains the accumulated results to the host (one transfer for many
    /// steps).
    pub fn drain_to_host(&mut self) -> (Vec<f32>, Vec<bool>) {
        self.host_transfers += 1;
        (
            std::mem::take(&mut self.predictions),
            std::mem::take(&mut self.labels),
        )
    }

    /// Host round-trips paid so far.
    pub fn host_transfers(&self) -> usize {
        self.host_transfers
    }

    /// Samples currently buffered on device.
    pub fn buffered(&self) -> usize {
        self.labels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EmbeddingSpec;
    use multipod_simnet::NetworkConfig;
    use multipod_topology::{Multipod, MultipodConfig};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (Network, ShardedEmbedding) {
        let mesh = Multipod::new(MultipodConfig::mesh(4, 1, false));
        let net = Network::new(mesh, NetworkConfig::tpu_v3());
        let specs = vec![
            EmbeddingSpec { rows: 16, dim: 4 },   // replicated
            EmbeddingSpec { rows: 4096, dim: 4 }, // partitioned
        ];
        let placement = Placement::plan(&specs, 4, 1024);
        (net, ShardedEmbedding::init(placement, 99).unwrap())
    }

    #[test]
    fn lookup_returns_the_right_rows() {
        let (mut net, emb) = setup();
        let indices = vec![vec![3, 100], vec![5, 2000]];
        let out = emb.lookup(&mut net, &indices, SimTime::ZERO).unwrap();
        assert_eq!(out.embeddings.shape().dims(), &[2, 8]);
        assert_eq!(&out.embeddings.data()[0..4], emb.row(0, 3).unwrap().data());
        assert_eq!(
            &out.embeddings.data()[4..8],
            emb.row(1, 100).unwrap().data()
        );
        assert_eq!(
            &out.embeddings.data()[12..16],
            emb.row(1, 2000).unwrap().data()
        );
    }

    #[test]
    fn replicated_tables_never_cross_the_mesh() {
        let (mut net, emb) = setup();
        let indices = vec![vec![0, 0]; 8]; // table-1 row 0 lives on chip 0
        let out = emb.lookup(&mut net, &indices, SimTime::ZERO).unwrap();
        // Table 0 is replicated (8 local); table-1 row 0 is local only for
        // samples homed on chip 0 (2 of 8 under round-robin).
        assert_eq!(out.local_rows, 8 + 2);
        assert_eq!(out.remote_rows, 6);
        assert!(out.time > SimTime::ZERO);
    }

    #[test]
    fn remote_traffic_takes_time_and_scales_with_batch() {
        let (mut net, emb) = setup();
        let mut rng = SmallRng::seed_from_u64(5);
        let small: Vec<Vec<usize>> = (0..8)
            .map(|_| vec![rng.gen_range(0..16), rng.gen_range(0..4096)])
            .collect();
        let large: Vec<Vec<usize>> = (0..512)
            .map(|_| vec![rng.gen_range(0..16), rng.gen_range(0..4096)])
            .collect();
        let t_small = emb.lookup(&mut net, &small, SimTime::ZERO).unwrap();
        net.reset();
        let t_large = emb.lookup(&mut net, &large, SimTime::ZERO).unwrap();
        assert!(t_large.remote_rows > 10 * t_small.remote_rows);
        assert!(t_large.time >= t_small.time);
    }

    #[test]
    fn cached_lookup_skips_the_mesh_on_repeat() {
        let (mut net, emb) = setup();
        let mut cache = EmbeddingCache::new(4, 64);
        let indices = vec![vec![0, 0]; 8]; // table-1 row 0: remote for 6/8 homes
        let cold = emb
            .lookup_cached(&mut net, &indices, SimTime::ZERO, &mut cache)
            .unwrap();
        // Homes 1..3 each carry two samples: the first misses and installs
        // the row, the second hits within the same batch.
        assert_eq!(cold.cache_hits, 3);
        assert_eq!(cold.remote_rows, 3);
        assert!(cold.time > SimTime::ZERO);
        net.reset();
        let warm = emb
            .lookup_cached(&mut net, &indices, SimTime::ZERO, &mut cache)
            .unwrap();
        // Every previously remote row now hits its home cache: no traffic.
        assert_eq!(warm.cache_hits, 6);
        assert_eq!(warm.remote_rows, 0);
        assert_eq!(warm.time, SimTime::ZERO);
        // Numerics are unchanged by caching.
        assert_eq!(warm.embeddings, cold.embeddings);
        assert!(cache.hit_rate() > 0.0);
    }

    #[test]
    fn uncached_lookup_reports_zero_hits() {
        let (mut net, emb) = setup();
        let out = emb.lookup(&mut net, &[vec![0, 0]], SimTime::ZERO).unwrap();
        assert_eq!(out.cache_hits, 0);
    }

    #[test]
    fn scatter_update_moves_only_touched_rows() {
        let (mut net, mut emb) = setup();
        let indices = vec![vec![3usize, 100]];
        let before_touched = emb.row(1, 100).unwrap();
        let before_untouched = emb.row(1, 101).unwrap();
        let out = emb.lookup(&mut net, &indices, SimTime::ZERO).unwrap();
        let grads = Tensor::fill(out.embeddings.shape().clone(), 1.0);
        emb.scatter_update(&indices, &grads, 0.5).unwrap();
        let after = emb.row(1, 100).unwrap();
        let expect = before_touched.map(|v| v - 0.5);
        assert!(after.max_abs_diff(&expect) < 1e-6);
        assert_eq!(emb.row(1, 101).unwrap(), before_untouched);
    }

    #[test]
    fn training_reduces_loss_on_a_toy_task() {
        // One-table logistic-ish regression: row embeddings should move
        // toward their target labels.
        let mesh = Multipod::new(MultipodConfig::mesh(2, 1, false));
        let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
        let placement = Placement::plan(&[EmbeddingSpec { rows: 32, dim: 1 }], 2, 0);
        let mut emb = ShardedEmbedding::init(placement, 1).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        let targets: Vec<f32> = (0..32).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let loss = |emb: &ShardedEmbedding| -> f32 {
            (0..32)
                .map(|r| (emb.row(0, r).unwrap().data()[0] - targets[r]).powi(2))
                .sum()
        };
        let initial = loss(&emb);
        for _ in 0..200 {
            let indices: Vec<Vec<usize>> = (0..32).map(|r| vec![r]).collect();
            let out = emb.lookup(&mut net, &indices, SimTime::ZERO).unwrap();
            let grads: Vec<f32> = out
                .embeddings
                .data()
                .iter()
                .enumerate()
                .map(|(r, &v)| 2.0 * (v - targets[r]))
                .collect();
            let g = Tensor::new(out.embeddings.shape().clone(), grads);
            emb.scatter_update(&indices, &g, 0.05).unwrap();
            net.reset();
        }
        assert!(loss(&emb) < 0.01 * initial, "loss did not drop");
    }

    #[test]
    fn bad_requests_are_typed_errors() {
        let (mut net, mut emb) = setup();
        let err = emb.lookup(&mut net, &[vec![0usize]], SimTime::ZERO);
        assert!(matches!(
            err,
            Err(EmbeddingError::ArityMismatch {
                sample: 0,
                got: 1,
                tables: 2
            })
        ));
        let err = emb.lookup(&mut net, &[vec![0usize, 5000]], SimTime::ZERO);
        assert!(matches!(
            err,
            Err(EmbeddingError::RowOutOfRange {
                table: 1,
                row: 5000,
                rows: 4096
            })
        ));
        assert!(matches!(
            emb.row(7, 0),
            Err(EmbeddingError::TableOutOfRange { table: 7, .. })
        ));
        let grads = Tensor::zeros(Shape::of(&[2, 3]));
        let err = emb.scatter_update(&[vec![0, 0], vec![0, 0]], &grads, 0.1);
        assert!(matches!(err, Err(EmbeddingError::GradShapeMismatch { .. })));
    }

    #[test]
    fn eval_accumulator_amortizes_host_transfers() {
        let mut acc = EvalAccumulator::new();
        for step in 0..64 {
            let preds = vec![step as f32; 128];
            let labels = vec![step % 2 == 0; 128];
            acc.accumulate(&preds, &labels);
        }
        assert_eq!(acc.buffered(), 64 * 128);
        assert_eq!(acc.host_transfers(), 0);
        let (p, l) = acc.drain_to_host();
        assert_eq!(p.len(), 64 * 128);
        assert_eq!(l.len(), 64 * 128);
        assert_eq!(acc.host_transfers(), 1);
        assert_eq!(acc.buffered(), 0);
    }
}
