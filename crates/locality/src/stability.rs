//! Stability of expert selection across fine-tuning steps (Fig. 3(c)).

/// Total-variation distance between two discrete distributions.
///
/// # Panics
/// Panics if the lengths differ.
pub fn total_variation(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution lengths differ");
    0.5 * p.iter().zip(q).map(|(&a, &b)| (a - b).abs()).sum::<f64>()
}

/// Drift analysis over a sequence of per-step access-frequency
/// distributions for one block.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilityReport {
    /// One frequency vector per recorded step.
    steps: Vec<Vec<f64>>,
}

impl StabilityReport {
    /// Builds a report from per-step frequency vectors.
    ///
    /// # Panics
    /// Panics if fewer than two steps are given or the vectors have unequal
    /// lengths.
    pub fn new(steps: Vec<Vec<f64>>) -> Self {
        assert!(steps.len() >= 2, "need at least two steps");
        let n = steps[0].len();
        assert!(
            steps.iter().all(|s| s.len() == n),
            "all steps must cover the same experts"
        );
        StabilityReport { steps }
    }

    /// Maximum total-variation distance between consecutive steps.
    pub fn max_consecutive_tv(&self) -> f64 {
        self.steps
            .windows(2)
            .map(|w| total_variation(&w[0], &w[1]))
            .fold(0.0, f64::max)
    }

    /// Total-variation distance between the first and last step — the
    /// end-to-end drift of the routing distribution.
    pub fn end_to_end_tv(&self) -> f64 {
        total_variation(self.steps.first().unwrap(), self.steps.last().unwrap())
    }

    /// Whether the experts ranked above/below the median by initial
    /// frequency keep their side at the end (popularity ordering is
    /// preserved — the paper's "popular experts stay popular").
    pub fn popularity_rank_preserved(&self) -> bool {
        let first = &self.steps[0];
        let last = self.steps.last().unwrap();
        let rank = |v: &[f64]| {
            let mut idx: Vec<usize> = (0..v.len()).collect();
            idx.sort_by(|&a, &b| v[b].partial_cmp(&v[a]).unwrap());
            idx
        };
        let top_half = v_top_half(&rank(first));
        let top_half_last = v_top_half(&rank(last));
        top_half == top_half_last
    }
}

fn v_top_half(ranked: &[usize]) -> std::collections::BTreeSet<usize> {
    ranked[..ranked.len() / 2].iter().copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tv_basic_properties() {
        assert_eq!(total_variation(&[0.5, 0.5], &[0.5, 0.5]), 0.0);
        assert!((total_variation(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((total_variation(&[0.7, 0.3], &[0.5, 0.5]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn stable_series_has_tiny_drift() {
        let steps = vec![vec![0.6, 0.3, 0.1]; 10];
        let r = StabilityReport::new(steps);
        assert_eq!(r.max_consecutive_tv(), 0.0);
        assert_eq!(r.end_to_end_tv(), 0.0);
        assert!(r.popularity_rank_preserved());
    }

    #[test]
    fn popularity_flip_detected() {
        let r = StabilityReport::new(vec![vec![0.9, 0.1], vec![0.1, 0.9]]);
        assert!(!r.popularity_rank_preserved());
        assert!((r.end_to_end_tv() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn gentle_concentration_preserves_rank() {
        // Popular experts become slightly MORE popular — the paper's
        // empirical observation — rank must be preserved.
        let r = StabilityReport::new(vec![vec![0.4, 0.3, 0.2, 0.1], vec![0.45, 0.32, 0.15, 0.08]]);
        assert!(r.popularity_rank_preserved());
        assert!(r.end_to_end_tv() < 0.1);
    }

    #[test]
    #[should_panic(expected = "at least two steps")]
    fn single_step_panics() {
        StabilityReport::new(vec![vec![1.0]]);
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn tv_length_mismatch_panics() {
        total_variation(&[1.0], &[0.5, 0.5]);
    }
}
