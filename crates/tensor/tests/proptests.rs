//! Property tests for the tensor substrate.

use multipod_tensor::{kernels, Bf16, Shape, Tensor};
use proptest::prelude::*;

fn small_dims() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..6, 1..4)
}

proptest! {
    /// bf16 round-trip never increases relative error beyond epsilon/2.
    #[test]
    fn bf16_relative_error_bounded(x in -1e30f32..1e30f32) {
        prop_assume!(x.is_finite() && x != 0.0);
        let r = Bf16::round_trip(x);
        prop_assert!(((r - x) / x).abs() <= Bf16::EPSILON / 2.0 + 1e-9);
    }

    /// bf16 round-trip is idempotent: quantizing twice equals once.
    #[test]
    fn bf16_idempotent(x in proptest::num::f32::NORMAL) {
        let once = Bf16::round_trip(x);
        prop_assert_eq!(once, Bf16::round_trip(once));
    }

    /// bf16 conversion is monotone.
    #[test]
    fn bf16_monotone(a in -1e20f32..1e20f32, b in -1e20f32..1e20f32) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(Bf16::round_trip(lo) <= Bf16::round_trip(hi));
    }

    /// split followed by concat is the identity, for every axis and any
    /// divisor of the axis extent.
    #[test]
    fn split_concat_roundtrip(dims in small_dims(), axis_sel in 0usize..4, parts_sel in 1usize..5) {
        let axis = axis_sel % dims.len();
        // Force divisibility by scaling the chosen axis.
        let mut dims = dims;
        dims[axis] *= parts_sel;
        let shape = Shape::of(&dims);
        let data: Vec<f32> = (0..shape.len()).map(|i| i as f32).collect();
        let t = Tensor::new(shape, data);
        let parts = t.split(axis, parts_sel).unwrap();
        prop_assert_eq!(parts.len(), parts_sel);
        let back = Tensor::concat(&parts, axis).unwrap();
        prop_assert_eq!(back, t);
    }

    /// sum_all equals the sequential `axpy` fold bit for bit, at lengths
    /// that cross output blocks and leave ragged lane and block tails.
    #[test]
    fn sum_all_matches_reference(
        n in 1usize..6,
        len in 1usize..3 * kernels::BLOCK + kernels::LANES + 2,
        seedv in 0u64..1000,
    ) {
        use multipod_tensor::TensorRng;
        let mut rng = TensorRng::seed(seedv);
        let ts: Vec<Tensor> = (0..n)
            .map(|k| rng.uniform(Shape::of(&[len]), -10.0, 10.0).scale(10f32.powi(k as i32 * 3 - 6)))
            .collect();
        let s = Tensor::sum_all(&ts).unwrap();
        let mut fold = ts[0].clone();
        for t in &ts[1..] {
            fold.axpy(1.0, t).unwrap();
        }
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&s), bits(&fold));
    }

    /// matmul distributes over a split of the contracting dimension:
    /// A·B == Σ_k A_k·B_k — the identity that model-parallel partial
    /// matmul + all-reduce relies on (§3.1).
    #[test]
    fn matmul_partial_sums(
        m in 1usize..5, k2 in 1usize..4, n in 1usize..5, parts in 1usize..4, seedv in 0u64..100
    ) {
        use multipod_tensor::TensorRng;
        let k = k2 * parts;
        let mut rng = TensorRng::seed(seedv);
        let a = rng.uniform(Shape::of(&[m, k]), -1.0, 1.0);
        let b = rng.uniform(Shape::of(&[k, n]), -1.0, 1.0);
        let full = a.matmul(&b).unwrap();
        let a_parts = a.split(1, parts).unwrap();
        let b_parts = b.split(0, parts).unwrap();
        let partials: Vec<Tensor> = a_parts
            .iter()
            .zip(&b_parts)
            .map(|(ap, bp)| ap.matmul(bp).unwrap())
            .collect();
        let summed = Tensor::sum_all(&partials).unwrap();
        prop_assert!(full.max_abs_diff(&summed) < 1e-4);
    }
}
