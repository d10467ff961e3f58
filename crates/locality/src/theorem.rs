//! Theorem 1: the softmax-stability bound.
//!
//! The paper proves that one SGD step with learning rate `μ` on an
//! `L`-Lipschitz gate changes any expert's softmax score by at most
//!
//! ```text
//! ΔP_t(e) ≤ μ·E·L²·P_{t-1}(e)·(1 − P_{t-1}(e))
//! ```
//!
//! The right-hand side vanishes as `P → 0` or `P → 1`: confident routing
//! decisions are stable, which is the theoretical foundation for exploiting
//! expert locality during fine-tuning. This module implements the bound and
//! utilities to verify it empirically against a fine-tuning run.

/// The Theorem 1 bound `μ·E·L²·p·(1−p)`.
///
/// # Panics
/// Panics if `p` is outside `[0, 1]` or the constants are negative.
pub fn drift_bound(p: f64, experts: usize, mu: f64, lipschitz: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
    assert!(
        mu >= 0.0 && lipschitz >= 0.0,
        "constants must be nonnegative"
    );
    mu * experts as f64 * lipschitz * lipschitz * p * (1.0 - p)
}

/// The intermediate inequality of the proof, usable with *measured* logit
/// drift instead of the Lipschitz constant: `ΔP(e) ≤ E·p·(1−p)·max_k|Δy_k|`.
///
/// This is the form the empirical harness checks, because on a real run the
/// per-step logit drift `max_k |y_t[k] − y_{t-1}[k]|` is directly
/// observable while `L` is not.
pub fn drift_bound_from_logits(p: f64, experts: usize, max_logit_drift: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
    experts as f64 * p * (1.0 - p) * max_logit_drift
}

/// Result of checking the bound over a set of (before, after) softmax rows.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundCheck {
    /// Largest observed `ΔP` across all experts and tokens.
    pub max_observed: f64,
    /// Largest bound value across the same set.
    pub max_bound: f64,
    /// Observations violating the (first-order) bound beyond `slack`.
    pub violations: usize,
    /// Total observations checked.
    pub checked: usize,
}

/// Checks `ΔP(e) ≤ E·p·(1−p)·max|Δy| · (1 + slack)` for every expert of
/// every row.
///
/// `probs_prev`/`probs_next` are per-token softmax rows before/after one
/// optimizer step for the *same inputs*; `logits_prev`/`logits_next`
/// likewise. The `slack` term absorbs the second-order error of the Taylor
/// expansion used in the proof.
///
/// # Panics
/// Panics if the shapes disagree.
pub fn check_bound(
    probs_prev: &[Vec<f64>],
    probs_next: &[Vec<f64>],
    logits_prev: &[Vec<f64>],
    logits_next: &[Vec<f64>],
    slack: f64,
) -> BoundCheck {
    assert_eq!(probs_prev.len(), probs_next.len(), "row count mismatch");
    assert_eq!(probs_prev.len(), logits_prev.len(), "row count mismatch");
    assert_eq!(probs_prev.len(), logits_next.len(), "row count mismatch");

    let mut max_observed = 0.0f64;
    let mut max_bound = 0.0f64;
    let mut violations = 0;
    let mut checked = 0;
    for t in 0..probs_prev.len() {
        let experts = probs_prev[t].len();
        assert_eq!(probs_next[t].len(), experts, "expert count mismatch");
        let drift = logits_prev[t]
            .iter()
            .zip(&logits_next[t])
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        for e in 0..experts {
            let observed = (probs_prev[t][e] - probs_next[t][e]).abs();
            let bound = drift_bound_from_logits(probs_prev[t][e], experts, drift);
            max_observed = max_observed.max(observed);
            max_bound = max_bound.max(bound);
            if observed > bound * (1.0 + slack) + 1e-9 {
                violations += 1;
            }
            checked += 1;
        }
    }
    BoundCheck {
        max_observed,
        max_bound,
        violations,
        checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_vanishes_at_extremes() {
        assert_eq!(drift_bound(0.0, 8, 0.1, 1.0), 0.0);
        assert_eq!(drift_bound(1.0, 8, 0.1, 1.0), 0.0);
        assert!(drift_bound(0.5, 8, 0.1, 1.0) > drift_bound(0.9, 8, 0.1, 1.0));
    }

    #[test]
    fn bound_is_maximal_at_half() {
        let values: Vec<f64> = (1..100)
            .map(|i| drift_bound(i as f64 / 100.0, 4, 0.01, 2.0))
            .collect();
        let max_idx = values
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(max_idx + 1, 50);
    }

    #[test]
    fn bound_scales_linearly_in_mu_and_e() {
        let b1 = drift_bound(0.3, 4, 0.01, 1.5);
        assert!((drift_bound(0.3, 4, 0.02, 1.5) - 2.0 * b1).abs() < 1e-12);
        assert!((drift_bound(0.3, 8, 0.01, 1.5) - 2.0 * b1).abs() < 1e-12);
    }

    fn softmax(v: &[f64]) -> Vec<f64> {
        let m = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = v.iter().map(|x| (x - m).exp()).collect();
        let s: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / s).collect()
    }

    #[test]
    fn check_bound_holds_for_small_perturbations() {
        // Random logits, tiny perturbation: the first-order bound must hold.
        let mut rows_prev = Vec::new();
        let mut rows_next = Vec::new();
        let mut lp = Vec::new();
        let mut ln = Vec::new();
        let mut state = 12345u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / u32::MAX as f64) * 4.0 - 2.0
        };
        for _ in 0..50 {
            let logits: Vec<f64> = (0..6).map(|_| next()).collect();
            let perturbed: Vec<f64> = logits.iter().map(|&x| x + 1e-4 * next()).collect();
            rows_prev.push(softmax(&logits));
            rows_next.push(softmax(&perturbed));
            lp.push(logits);
            ln.push(perturbed);
        }
        let check = check_bound(&rows_prev, &rows_next, &lp, &ln, 0.05);
        assert_eq!(check.violations, 0, "{check:?}");
        assert_eq!(check.checked, 300);
        assert!(check.max_observed <= check.max_bound * 1.05 + 1e-9);
    }

    #[test]
    fn check_bound_detects_fabricated_violation() {
        // Probabilities jump massively while logits "claim" zero drift.
        let probs_prev = vec![vec![0.9, 0.1]];
        let probs_next = vec![vec![0.1, 0.9]];
        let logits = vec![vec![0.0, 0.0]];
        let check = check_bound(&probs_prev, &probs_next, &logits, &logits, 0.0);
        assert_eq!(check.violations, 2);
    }

    #[test]
    #[should_panic(expected = "must be a probability")]
    fn invalid_probability_panics() {
        drift_bound(1.5, 4, 0.1, 1.0);
    }
}
