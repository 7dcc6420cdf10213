//! What one repeat of a workload reports, and how its checks count.

use std::collections::BTreeMap;

/// One run of a workload's fixed simulated work, judged.
#[derive(Clone, Debug, Default)]
pub struct Repeat {
    /// Operations attempted: simulated steps, or jobs plus queries.
    pub attempted: u64,
    /// Operations that failed: a typed error, a failed output check, or
    /// (set by the caller) simulated outputs that differ between repeats.
    pub failed: u64,
    /// Why operations failed, one line each.
    pub failures: Vec<String>,
    /// Host seconds of the fixed simulated work, set-up excluded.
    pub wall_s: f64,
    /// Host seconds of each step on the healthy mesh.
    pub healthy_step_s: Vec<f64>,
    /// Host seconds of each step after the first fault.
    pub degraded_step_s: Vec<f64>,
    /// Simulated outputs (`model.*`); they must repeat bit for bit.
    pub model: BTreeMap<String, f64>,
    /// Hash of every further simulated output the repeat comparison covers.
    pub digest: u64,
}

impl Repeat {
    pub fn new(attempted: u64) -> Repeat {
        Repeat {
            attempted,
            ..Repeat::default()
        }
    }

    /// Marks every operation failed.
    pub fn fail_all(&mut self, why: String) {
        self.failed = self.attempted;
        self.failures.push(why);
    }

    /// Folds output checks in: a failed whole-run check fails every
    /// operation, a counted check fails the operations it names.
    pub fn apply(&mut self, checks: &Checks) {
        for (name, failed) in &checks.failed {
            self.failed += failed.unwrap_or(self.attempted);
            self.failures.push(name.clone());
        }
        self.failed = self.failed.min(self.attempted);
    }

    /// Whether the model values and digest equal `other`'s bit for bit.
    pub fn same_model(&self, other: &Repeat) -> bool {
        self.digest == other.digest
            && self.model.len() == other.model.len()
            && self
                .model
                .iter()
                .zip(&other.model)
                .all(|((ka, a), (kb, b))| ka == kb && a.to_bits() == b.to_bits())
    }

    #[cfg(test)]
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Output checks of one repeat.
#[derive(Debug, Default)]
pub struct Checks {
    /// Failed checks and how many operations each failed (`None`: all).
    failed: Vec<(String, Option<u64>)>,
}

impl Checks {
    /// A whole-run check: failing it fails every operation of the run.
    pub fn check(&mut self, name: &str, ok: bool) {
        if !ok {
            self.failed.push((name.to_string(), None));
        }
    }

    /// A counted check: `failed` operations did not meet it.
    pub fn count(&mut self, name: &str, failed: u64) {
        if failed > 0 {
            self.failed
                .push((format!("{name}: {failed} failed"), Some(failed)));
        }
    }
}

/// One FNV-1a step over the bytes of `x`.
pub fn fnv(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_checks_raise_the_error_rate() {
        let mut ok = Repeat::new(10);
        let mut checks = Checks::default();
        checks.check("passes", true);
        checks.count("none failed", 0);
        ok.apply(&checks);
        assert_eq!(ok.error_rate(), 0.0);

        let mut counted = Repeat::new(10);
        let mut checks = Checks::default();
        checks.count("queries served", 3);
        counted.apply(&checks);
        assert_eq!(counted.error_rate(), 0.3);

        let mut whole = Repeat::new(10);
        let mut checks = Checks::default();
        checks.check("trace parses", false);
        checks.count("queries served", 3);
        whole.apply(&checks);
        assert_eq!(whole.failed, 10);
        assert_eq!(whole.failures.len(), 2);
    }

    #[test]
    fn model_comparison_is_bitwise() {
        let mut a = Repeat::new(1);
        a.model.insert("model.x".into(), 0.1 + 0.2);
        let mut b = a.clone();
        assert!(a.same_model(&b));
        b.model.insert("model.x".into(), 0.3);
        assert!(!a.same_model(&b));
        let mut c = a.clone();
        c.digest ^= 1;
        assert!(!a.same_model(&c));
    }
}
