//! Property tests for the embedding substrate.

use multipod_embedding::{
    masked_self_interaction, time_lookup, EmbeddingCache, EmbeddingError, EmbeddingSpec, Placement,
    ShardedEmbedding,
};
use multipod_simnet::{Network, NetworkConfig, SimTime};
use multipod_topology::{Multipod, MultipodConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Row ranges of a partitioned table tile it exactly, and the owner
    /// function is consistent with the ranges, for arbitrary table sizes
    /// and chip counts (including non-dividing ones).
    #[test]
    fn placement_tiles_rows(rows in 1usize..10_000, chips in 1usize..40) {
        let placement = Placement::plan(&[EmbeddingSpec { rows, dim: 4 }], chips, 0);
        let mut covered = 0usize;
        for chip in 0..chips {
            let r = placement.rows_on_chip(0, chip);
            prop_assert_eq!(r.start, covered);
            prop_assert!(r.end >= r.start);
            covered = r.end;
        }
        prop_assert_eq!(covered, rows);
        for probe in [0, rows / 2, rows - 1] {
            let owner = placement.owner_of(0, probe);
            prop_assert!(placement.rows_on_chip(0, owner).contains(&probe));
        }
    }

    /// The replication budget is honoured: replicated table bytes never
    /// exceed it, and everything else is partitioned.
    #[test]
    fn replication_budget_is_respected(
        tables in prop::collection::vec(1usize..100_000, 1..12),
        budget_kb in 0u64..512,
    ) {
        let specs: Vec<EmbeddingSpec> =
            tables.iter().map(|&rows| EmbeddingSpec { rows, dim: 8 }).collect();
        let budget = budget_kb * 1024;
        let placement = Placement::plan(&specs, 8, budget);
        let replicated_bytes: u64 = specs
            .iter()
            .enumerate()
            .filter(|&(t, _)| placement.is_replicated(t))
            .map(|(_, s)| s.bytes())
            .sum();
        prop_assert!(replicated_bytes <= budget);
        prop_assert!(placement.bytes_per_chip() <= placement.bytes_fully_replicated());
    }

    /// Lookups return exactly the requested rows, regardless of
    /// placement, batch, or index pattern.
    #[test]
    fn lookup_returns_requested_rows(
        batch in 1usize..24,
        seed in 0u64..10_000,
        budget in prop::sample::select(vec![0u64, 1 << 12, 1 << 30]),
    ) {
        let specs = vec![
            EmbeddingSpec { rows: 32, dim: 3 },
            EmbeddingSpec { rows: 500, dim: 3 },
        ];
        let placement = Placement::plan(&specs, 4, budget);
        let emb = ShardedEmbedding::init(placement, seed).unwrap();
        let mesh = Multipod::new(MultipodConfig::mesh(2, 2, true));
        let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
        let mut r = seed;
        let mut next = |m: usize| {
            r = r.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (r >> 33) as usize % m
        };
        let indices: Vec<Vec<usize>> =
            (0..batch).map(|_| vec![next(32), next(500)]).collect();
        let out = emb.lookup(&mut net, &indices, SimTime::ZERO).unwrap();
        prop_assert_eq!(out.embeddings.shape().dims(), &[batch, 6]);
        for (s, row_ids) in indices.iter().enumerate() {
            for (t, &row) in row_ids.iter().enumerate() {
                let expect = emb.row(t, row).unwrap();
                let got = &out.embeddings.data()[s * 6 + t * 3..s * 6 + (t + 1) * 3];
                prop_assert_eq!(got, expect.data());
            }
        }
        prop_assert_eq!(
            out.remote_rows + out.local_rows,
            batch * 2,
            "every lookup is accounted local or remote"
        );
    }

    /// The placement-only walk and the numeric cached lookup are one
    /// walk: on twin networks and twin caches they report bit-identical
    /// times and row counts batch after batch, leave the caches equal,
    /// and fail with the same typed errors.
    #[test]
    fn timing_walk_matches_the_numeric_lookup(
        batches in prop::collection::vec(
            prop::collection::vec((0usize..32, 0usize..500), 1..24),
            1..5,
        ),
        budget in prop::sample::select(vec![0u64, 1 << 9, 1 << 30]),
        cache_rows in 0usize..16,
        fault in 0usize..3,
    ) {
        let specs = vec![
            EmbeddingSpec { rows: 32, dim: 3 },
            EmbeddingSpec { rows: 500, dim: 3 },
        ];
        let placement = Placement::plan(&specs, 4, budget);
        let emb = ShardedEmbedding::init(placement.clone(), 7).unwrap();
        let twin = || {
            let mesh = Multipod::new(MultipodConfig::mesh(2, 2, true));
            (Network::new(mesh, NetworkConfig::tpu_v3()), EmbeddingCache::new(4, cache_rows))
        };
        let (mut net_a, mut cache_a) = twin();
        let (mut net_b, mut cache_b) = twin();
        let mut batches: Vec<Vec<Vec<usize>>> = batches
            .into_iter()
            .map(|b| b.into_iter().map(|(r0, r1)| vec![r0, r1]).collect())
            .collect();
        // Optionally break the last batch: a row past its table's end, or
        // a sample missing an index.
        let last = batches.last_mut().unwrap();
        match fault {
            1 => last.push(vec![0, 500]),
            2 => last.push(vec![0]),
            _ => {}
        }
        let (mut start_a, mut start_b) = (SimTime::ZERO, SimTime::ZERO);
        let mut failure = None;
        for indices in &batches {
            let numeric = emb.lookup_cached(&mut net_a, indices, start_a, &mut cache_a);
            let timed = time_lookup(&placement, &mut net_b, indices, start_b, Some(&mut cache_b));
            match (numeric, timed) {
                (Ok(n), Ok(t)) => {
                    prop_assert_eq!(n.time.seconds().to_bits(), t.time.seconds().to_bits());
                    prop_assert_eq!(
                        (n.remote_rows, n.local_rows, n.cache_hits),
                        (t.remote_rows, t.local_rows, t.cache_hits)
                    );
                    start_a = n.time;
                    start_b = t.time;
                }
                (Err(n), Err(t)) => {
                    prop_assert_eq!(&n, &t);
                    failure = Some(n);
                }
                (n, t) => prop_assert!(false, "outcomes differ: {:?} vs {:?}", n.err(), t.err()),
            }
            prop_assert_eq!(&cache_a, &cache_b);
        }
        match fault {
            1 => prop_assert!(matches!(
                failure,
                Some(EmbeddingError::RowOutOfRange { table: 1, row: 500, rows: 500 })
            )),
            2 => prop_assert!(matches!(
                failure,
                Some(EmbeddingError::ArityMismatch { got: 1, tables: 2, .. })
            )),
            _ => prop_assert_eq!(failure, None),
        }
    }

    /// The masked interaction layout always carries exactly the
    /// lower-triangle values and zeros elsewhere.
    #[test]
    fn masked_interaction_layout(batch in 1usize..6, tables in 2usize..7, seed in 0u64..1000) {
        use multipod_tensor::{Shape, TensorRng};
        let dim = 2usize;
        let mut rng = TensorRng::seed(seed);
        let feats = rng.uniform(Shape::of(&[batch, tables * dim]), -1.0, 1.0);
        let out = masked_self_interaction(&feats, dim).unwrap();
        let f = tables;
        prop_assert_eq!(out.gathered.shape().dims(), &[batch, f * (f - 1) / 2]);
        prop_assert_eq!(out.masked.shape().dims(), &[batch, f * f]);
        for b in 0..batch {
            let mut g = out.gathered.data()[b * f * (f - 1) / 2..(b + 1) * f * (f - 1) / 2]
                .iter();
            for i in 0..f {
                for j in 0..f {
                    let m = out.masked.data()[b * f * f + i * f + j];
                    if j < i {
                        prop_assert_eq!(m, *g.next().unwrap());
                    } else {
                        prop_assert_eq!(m, 0.0);
                    }
                }
            }
        }
    }
}
