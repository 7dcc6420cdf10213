//! Order statistics for repeated measurements.

/// Min, quartiles, median and max of a sample, plus its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `values`; `None` when empty.
    ///
    /// Quartiles follow Python's `statistics.quantiles(values, n=4)`
    /// ("exclusive" method), so they match what an outside reader
    /// recomputes from the same values; a single value is its own
    /// quartiles.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (&min, &max) = (v.first()?, v.last()?);
        let [q1, median, q3] = quartiles(&v);
        Some(Summary {
            n: v.len(),
            min,
            q1,
            median,
            q3,
            max,
        })
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// The three cut points of `statistics.quantiles(sorted, n=4)`.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let ld = sorted.len();
    if ld == 1 {
        return [sorted[0]; 3];
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_has_no_summary() {
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn one_value_is_its_own_quartiles() {
        let s = Summary::of(&[2.5]).unwrap();
        assert_eq!(
            (s.n, s.min, s.q1, s.median, s.q3, s.max),
            (1, 2.5, 2.5, 2.5, 2.5, 2.5)
        );
    }

    #[test]
    fn two_values_match_python() {
        // statistics.quantiles([1.0, 3.0], n=4) == [0.5, 2.0, 3.5]
        let s = Summary::of(&[3.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
        assert_eq!((s.min, s.max), (1.0, 3.0));
    }

    #[test]
    fn three_values_match_python() {
        // statistics.quantiles([1.0, 2.0, 4.0], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[4.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
    }

    #[test]
    fn ten_values_match_python() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
    }
}
