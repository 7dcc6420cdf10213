//! Chunked, autovectorizer-friendly slice kernels.
//!
//! The simulator's numerically real work — collective reductions, optimizer
//! trust ratios, partial matmuls — bottoms out in the loops here. Each
//! kernel processes fixed-width lanes ([`LANES`] elements) through
//! `chunks_exact`, which gives the compiler provably uniform trip counts to
//! vectorize, then handles the remainder scalar.
//!
//! Two determinism classes, chosen per kernel:
//!
//! * **Bit-exact under chunking** — elementwise kernels ([`axpy`],
//!   [`scale_into`], [`zip_into`], [`accumulate`]): every output element
//!   depends only on the input elements at its own index, so lane width
//!   cannot change results. Where an element takes several inputs
//!   ([`accumulate`]), they are added in input order, so blocking cannot
//!   change results either. Collective golden tests pin these bits.
//! * **Fixed reassociation** — reductions ([`sum`], [`sum_squares`],
//!   [`dot`]): the sequential fold is reassociated into [`LANES`] partial
//!   accumulators combined in a fixed tree. Results can differ from the
//!   sequential fold by rounding ulps but are identical run to run and
//!   across platforms.

/// Lane width of every chunked kernel: 8 × f32 is one AVX2 register, two
/// NEON registers, and divides every tensor extent in the model catalog.
pub const LANES: usize = 8;

/// In-place `dst[i] += alpha * src[i]` (BLAS axpy). Bit-exact under
/// chunking.
///
/// # Panics
///
/// Panics when the slices differ in length (caller validates shapes).
pub fn axpy(dst: &mut [f32], alpha: f32, src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "axpy length mismatch");
    let mut d = dst.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    for (dc, sc) in d.by_ref().zip(s.by_ref()) {
        for i in 0..LANES {
            dc[i] += alpha * sc[i];
        }
    }
    for (dv, &sv) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *dv += alpha * sv;
    }
}

/// Output block of [`accumulate`]: 4096 f32 (16 KiB) fits in L1 beside
/// the input block streaming through it.
pub const BLOCK: usize = 4096;

/// In-place `dst += srcs[0] + srcs[1] + …`, one [`BLOCK`] of `dst` at a
/// time: each block takes every input, in input order, before the next
/// block starts. Every element therefore sees exactly the sequential fold
/// `((dst + srcs[0]) + srcs[1]) + …` of one [`axpy`]`(dst, 1.0, src)` per
/// input — bit for bit — while the block stays in L1 instead of the whole
/// of `dst` being swept through the cache once per input.
///
/// Kept out of line (no `#[inline]`): forced inline into
/// `Tensor::sum_all`, the same loop ran about half as fast.
///
/// # Panics
///
/// Panics when an input's length differs from `dst`'s (caller validates
/// shapes).
pub fn accumulate(dst: &mut [f32], srcs: &[&[f32]]) {
    for src in srcs {
        assert_eq!(dst.len(), src.len(), "accumulate length mismatch");
    }
    for (b, block) in dst.chunks_mut(BLOCK).enumerate() {
        let range = b * BLOCK..b * BLOCK + block.len();
        for src in srcs {
            axpy(block, 1.0, &src[range.clone()]);
        }
    }
}

/// Appends `a[i] * alpha` to `out`. Bit-exact under chunking.
pub fn scale_into(out: &mut Vec<f32>, a: &[f32], alpha: f32) {
    out.reserve(a.len());
    let mut c = a.chunks_exact(LANES);
    for ac in c.by_ref() {
        for &v in ac {
            out.push(v * alpha);
        }
    }
    for &v in c.remainder() {
        out.push(v * alpha);
    }
}

/// Appends `f(a[i], b[i])` to `out` for every element pair. Bit-exact
/// under chunking for any pure elementwise `f`.
///
/// # Panics
///
/// Panics when the slices differ in length (caller validates shapes).
#[inline]
pub fn zip_into(out: &mut Vec<f32>, a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32 + Copy) {
    assert_eq!(a.len(), b.len(), "zip length mismatch");
    out.reserve(a.len());
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (ac, bc) in ca.by_ref().zip(cb.by_ref()) {
        for i in 0..LANES {
            out.push(f(ac[i], bc[i]));
        }
    }
    for (&av, &bv) in ca.remainder().iter().zip(cb.remainder()) {
        out.push(f(av, bv));
    }
}

/// Combines [`LANES`] partial accumulators in a fixed pairwise tree, so
/// reduction results do not depend on how the optimizer schedules the
/// lane sums.
#[inline]
fn fold_lanes_f32(acc: [f32; LANES]) -> f32 {
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))
}

#[inline]
fn fold_lanes_f64(acc: [f64; LANES]) -> f64 {
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))
}

/// Sum of all elements, in [`LANES`] f32 partial accumulators.
pub fn sum(values: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut c = values.chunks_exact(LANES);
    for vc in c.by_ref() {
        for i in 0..LANES {
            acc[i] += vc[i];
        }
    }
    let mut tail = 0.0f32;
    for &v in c.remainder() {
        tail += v;
    }
    fold_lanes_f32(acc) + tail
}

/// Sum of squares in f64, in [`LANES`] partial accumulators — the inner
/// loop of the L2 norms behind LARS/LAMB trust ratios.
pub fn sum_squares(values: &[f32]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut c = values.chunks_exact(LANES);
    for vc in c.by_ref() {
        for i in 0..LANES {
            let v = vc[i] as f64;
            acc[i] += v * v;
        }
    }
    let mut tail = 0.0f64;
    for &v in c.remainder() {
        tail += (v as f64) * (v as f64);
    }
    fold_lanes_f64(acc) + tail
}

/// Dot product accumulated in f64, in [`LANES`] partial accumulators.
///
/// # Panics
///
/// Panics when the slices differ in length (caller validates shapes).
pub fn dot(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut acc = [0.0f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (ac, bc) in ca.by_ref().zip(cb.by_ref()) {
        for i in 0..LANES {
            acc[i] += (ac[i] as f64) * (bc[i] as f64);
        }
    }
    let mut tail = 0.0f64;
    for (&av, &bv) in ca.remainder().iter().zip(cb.remainder()) {
        tail += (av as f64) * (bv as f64);
    }
    fold_lanes_f64(acc) + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_matches_scalar_loop_bit_for_bit() {
        for n in [0, 1, 7, 8, 9, 31, 64, 100] {
            let src: Vec<f32> = (0..n).map(|i| (i as f32).sin() * 1e3).collect();
            let mut dst: Vec<f32> = (0..n).map(|i| (i as f32).cos()).collect();
            let mut reference = dst.clone();
            for (d, s) in reference.iter_mut().zip(&src) {
                *d += 0.37 * s;
            }
            axpy(&mut dst, 0.37, &src);
            assert_eq!(
                dst.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "n={n}"
            );
        }
    }

    /// A value whose sums depend on the order they are added in: mixed
    /// magnitudes (1e-8 … 1e8) of either sign, with rare ±0.0, ±inf and
    /// subnormals. `(i, k)` picks element `i` of input `k`.
    fn order_sensitive(i: usize, k: usize) -> f32 {
        // splitmix64 of the index pair.
        let mut z = (((i as u64) << 20) ^ k as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let sign = if z & 1 == 0 { 1.0 } else { -1.0 };
        match (z >> 1) % 1000 {
            0 => sign * f32::INFINITY,
            1 => sign * 0.0,
            2..=4 => f32::from_bits((z >> 32) as u32 & 0x807f_ffff), // subnormal
            _ => {
                let exp = ((z >> 12) % 17) as i32 - 8;
                let mantissa = 1.0 + ((z >> 20) % 1_000_000) as f32 / 1e6;
                sign * mantissa * 10f32.powi(exp)
            }
        }
    }

    #[test]
    fn accumulate_equals_the_sequential_axpy_fold_bit_for_bit() {
        for len in [0, 1, 7, 8, 9, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5] {
            let inputs: Vec<Vec<f32>> = (0..257)
                .map(|k| (0..len).map(|i| order_sensitive(i, k + 1)).collect())
                .collect();
            let start: Vec<f32> = (0..len).map(|i| order_sensitive(i, 0)).collect();
            for count in [0, 1, 2, 3, 9, 257] {
                let srcs: Vec<&[f32]> = inputs[..count].iter().map(Vec::as_slice).collect();
                let mut reference = start.clone();
                for src in &srcs {
                    axpy(&mut reference, 1.0, src);
                }
                let mut dst = start.clone();
                accumulate(&mut dst, &srcs);
                assert_eq!(
                    dst.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "len={len} inputs={count}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "accumulate length mismatch")]
    fn accumulate_rejects_a_short_input() {
        accumulate(&mut [0.0; 9], &[&[1.0; 9], &[1.0; 8]]);
    }

    #[test]
    fn elementwise_kernels_are_bit_exact() {
        for n in [3, 8, 17] {
            let a: Vec<f32> = (0..n).map(|i| i as f32 * 0.1).collect();
            let b: Vec<f32> = (0..n).map(|i| 1.0 - i as f32).collect();
            let mut out = Vec::new();
            zip_into(&mut out, &a, &b, |x, y| x * y);
            let expect: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x * y).collect();
            assert_eq!(out, expect);
            let mut scaled = Vec::new();
            scale_into(&mut scaled, &a, 2.5);
            let expect: Vec<f32> = a.iter().map(|x| x * 2.5).collect();
            assert_eq!(scaled, expect);
        }
    }

    #[test]
    fn reductions_stay_close_to_sequential_fold() {
        let values: Vec<f32> = (0..1000).map(|i| ((i * 37) % 101) as f32 - 50.0).collect();
        let seq: f32 = values.iter().sum();
        assert!((sum(&values) - seq).abs() <= 1e-3 * seq.abs().max(1.0));
        let seq_sq: f64 = values.iter().map(|&v| (v as f64) * (v as f64)).sum();
        assert!((sum_squares(&values) - seq_sq).abs() <= 1e-9 * seq_sq);
        let seq_dot: f64 = values.iter().map(|&v| (v as f64) * (v as f64)).sum();
        assert!((dot(&values, &values) - seq_dot).abs() <= 1e-9 * seq_dot.abs());
    }

    #[test]
    fn reductions_are_deterministic_across_calls() {
        let values: Vec<f32> = (0..997).map(|i| (i as f32).sin() * 1e6).collect();
        assert_eq!(sum(&values).to_bits(), sum(&values).to_bits());
        assert_eq!(
            sum_squares(&values).to_bits(),
            sum_squares(&values).to_bits()
        );
    }
}
