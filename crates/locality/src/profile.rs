//! Locality profiles: the access-probability matrix `P ∈ R^{L×E}`.
//!
//! The paper measures `P` by passing the fine-tuning dataset through the
//! pre-trained model once (§IV-B) and feeds it to the placement LP. Here a
//! [`LocalityProfile`] is either *measured* from a micro-model run or
//! generated *synthetically* (Zipf-skewed) for ablations; the scale-virtual
//! evaluation replays a measured micro profile at Mixtral dimensions via
//! [`LocalityProfile::upscale`].

use vela_tensor::rng::DetRng;

/// A per-block expert access-probability matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalityProfile {
    name: String,
    /// `blocks × experts`, each row sums to 1.
    probs: Vec<Vec<f64>>,
}

impl LocalityProfile {
    /// Builds a profile from measured frequencies, smoothing zeros with a
    /// small floor and renormalizing.
    ///
    /// # Panics
    /// Panics if `rows` is empty, ragged, or a row sums to zero.
    pub fn from_frequencies(name: impl Into<String>, rows: Vec<Vec<f64>>) -> Self {
        assert!(!rows.is_empty(), "profile needs at least one block");
        let experts = rows[0].len();
        assert!(experts > 0, "profile needs at least one expert");
        let floor = 1e-4;
        let probs = rows
            .into_iter()
            .map(|row| {
                assert_eq!(row.len(), experts, "ragged frequency rows");
                let sum: f64 = row.iter().sum();
                assert!(sum > 0.0, "frequency row sums to zero");
                let smoothed: Vec<f64> = row.iter().map(|&p| p / sum + floor).collect();
                let total: f64 = smoothed.iter().sum();
                smoothed.into_iter().map(|p| p / total).collect()
            })
            .collect();
        LocalityProfile {
            name: name.into(),
            probs,
        }
    }

    /// A synthetic Zipf-skewed profile: within each block, expert ranks are
    /// randomly permuted and given probability `∝ 1/rank^s`.
    ///
    /// `s = 0` is uniform; larger `s` concentrates access — the knob used
    /// by the skew ablation.
    pub fn synthetic(
        name: impl Into<String>,
        blocks: usize,
        experts: usize,
        zipf_s: f64,
        seed: u64,
    ) -> Self {
        assert!(blocks > 0 && experts > 0, "shape must be positive");
        let mut rng = DetRng::new(seed);
        let mut probs = Vec::with_capacity(blocks);
        for _ in 0..blocks {
            let perm = rng.permutation(experts);
            let mut row = vec![0.0f64; experts];
            let mut total = 0.0;
            for (rank, &e) in perm.iter().enumerate() {
                let w = 1.0 / ((rank + 1) as f64).powf(zipf_s);
                row[e] = w;
                total += w;
            }
            for v in &mut row {
                *v /= total;
            }
            probs.push(row);
        }
        LocalityProfile {
            name: name.into(),
            probs,
        }
    }

    /// The profile's name (dataset/model tag used in harness output).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of blocks.
    pub fn blocks(&self) -> usize {
        self.probs.len()
    }

    /// Experts per block.
    pub fn experts(&self) -> usize {
        self.probs[0].len()
    }

    /// The probability row for one block.
    ///
    /// # Panics
    /// Panics if `block` is out of range.
    pub fn row(&self, block: usize) -> &[f64] {
        &self.probs[block]
    }

    /// The probability of expert `e` in block `l`.
    pub fn prob(&self, block: usize, expert: usize) -> f64 {
        self.probs[block][expert]
    }

    /// The full matrix, cloned.
    pub fn to_matrix(&self) -> Vec<Vec<f64>> {
        self.probs.clone()
    }

    /// Replays this profile at a larger model shape: target blocks cycle
    /// through source blocks with a fresh expert permutation per target
    /// block (so hot experts land at different indices per layer, like
    /// Fig. 7).
    ///
    /// # Panics
    /// Panics if the expert counts differ.
    pub fn upscale(&self, blocks: usize, experts: usize, seed: u64) -> LocalityProfile {
        assert_eq!(
            experts,
            self.experts(),
            "upscale keeps the expert count ({} != {})",
            experts,
            self.experts()
        );
        let mut rng = DetRng::new(seed);
        let mut probs = Vec::with_capacity(blocks);
        for l in 0..blocks {
            let src = &self.probs[l % self.blocks()];
            let perm = rng.permutation(experts);
            let mut row = vec![0.0f64; experts];
            for (i, &p) in perm.iter().enumerate() {
                row[p] = src[i];
            }
            probs.push(row);
        }
        LocalityProfile {
            name: format!("{}-upscaled", self.name),
            probs,
        }
    }

    /// Samples `k` distinct experts for one token of `block`, proportional
    /// to the profile probabilities (weighted sampling without
    /// replacement).
    ///
    /// This is the reference implementation of routing sampling. The
    /// scale-virtual engines draw through a table-driven sampler
    /// (`vela_runtime::routing`) whose tests hold it to the same picks,
    /// from the same `rng` stream, as this function.
    ///
    /// # Panics
    /// Panics if `k > experts`.
    pub fn sample_topk(&self, block: usize, k: usize, rng: &mut DetRng) -> Vec<usize> {
        let experts = self.experts();
        assert!(k <= experts, "k {k} > experts {experts}");
        let mut weights: Vec<f32> = self.probs[block].iter().map(|&p| p as f32).collect();
        let mut out = Vec::with_capacity(k);
        for _ in 0..k {
            let e = rng.categorical(&weights);
            out.push(e);
            weights[e] = 0.0;
        }
        out
    }

    /// Concentration of one block's distribution: `1 − H(p)/log(E)`
    /// (0 = uniform, → 1 = single expert).
    pub fn concentration(&self, block: usize) -> f64 {
        let row = &self.probs[block];
        let e = row.len() as f64;
        if row.len() < 2 {
            return 1.0;
        }
        let h: f64 = row.iter().filter(|&&p| p > 0.0).map(|&p| -p * p.ln()).sum();
        1.0 - h / e.ln()
    }

    /// Mean concentration across blocks.
    pub fn mean_concentration(&self) -> f64 {
        (0..self.blocks())
            .map(|l| self.concentration(l))
            .sum::<f64>()
            / self.blocks() as f64
    }

    /// Sharpens the profile in place: popular experts become slightly more
    /// popular (`p ← p^{1+rate}`, renormalized). Models the drift the paper
    /// observes in Fig. 3(c)/Fig. 5(a).
    ///
    /// # Panics
    /// Panics if `rate` is negative.
    pub fn sharpen(&mut self, rate: f64) {
        assert!(rate >= 0.0, "sharpen rate must be nonnegative");
        for row in &mut self.probs {
            for p in row.iter_mut() {
                *p = p.powf(1.0 + rate);
            }
            let total: f64 = row.iter().sum();
            for p in row.iter_mut() {
                *p /= total;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sum_to_one() {
        let p = LocalityProfile::synthetic("s", 4, 6, 1.2, 7);
        for l in 0..4 {
            let s: f64 = p.row(l).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
        assert_eq!(p.blocks(), 4);
        assert_eq!(p.experts(), 6);
    }

    #[test]
    fn zipf_zero_is_uniform() {
        let p = LocalityProfile::synthetic("u", 2, 5, 0.0, 1);
        for l in 0..2 {
            for e in 0..5 {
                assert!((p.prob(l, e) - 0.2).abs() < 1e-9);
            }
        }
        assert!(p.mean_concentration() < 1e-9);
    }

    #[test]
    fn higher_skew_means_higher_concentration() {
        let flat = LocalityProfile::synthetic("a", 8, 8, 0.3, 2);
        let sharp = LocalityProfile::synthetic("b", 8, 8, 2.0, 2);
        assert!(sharp.mean_concentration() > flat.mean_concentration() + 0.1);
    }

    #[test]
    fn from_frequencies_smooths_and_normalizes() {
        let p = LocalityProfile::from_frequencies("m", vec![vec![2.0, 0.0, 2.0]]);
        let row = p.row(0);
        assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(row[1] > 0.0, "zero entries get a floor");
        assert!(row[0] > 0.4 && row[0] < 0.51);
    }

    #[test]
    fn upscale_cycles_blocks_and_permutes() {
        let p = LocalityProfile::synthetic("s", 3, 4, 1.0, 5);
        let up = p.upscale(12, 4, 9);
        assert_eq!(up.blocks(), 12);
        assert_eq!(up.experts(), 4);
        for l in 0..12 {
            let mut sorted_up: Vec<f64> = up.row(l).to_vec();
            let mut sorted_src: Vec<f64> = p.row(l % 3).to_vec();
            sorted_up.sort_by(|a, b| a.partial_cmp(b).unwrap());
            sorted_src.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for (a, b) in sorted_up.iter().zip(&sorted_src) {
                assert!(
                    (a - b).abs() < 1e-12,
                    "upscale preserves each row's multiset"
                );
            }
        }
    }

    #[test]
    fn sample_topk_returns_distinct_and_respects_skew() {
        let p = LocalityProfile::synthetic("s", 1, 6, 2.0, 3);
        let mut rng = DetRng::new(1);
        let mut counts = [0usize; 6];
        for _ in 0..5_000 {
            let picks = p.sample_topk(0, 2, &mut rng);
            assert_eq!(picks.len(), 2);
            assert_ne!(picks[0], picks[1]);
            for e in picks {
                counts[e] += 1;
            }
        }
        // The most probable expert should dominate counts.
        let best = (0..6).max_by(|&a, &b| p.prob(0, a).partial_cmp(&p.prob(0, b)).unwrap());
        let max_count = counts.iter().max().unwrap();
        assert_eq!(counts.iter().position(|c| c == max_count), best);
    }

    #[test]
    fn sharpen_increases_concentration() {
        let mut p = LocalityProfile::synthetic("s", 4, 6, 1.0, 4);
        let before = p.mean_concentration();
        p.sharpen(0.2);
        assert!(p.mean_concentration() > before);
        for l in 0..4 {
            assert!((p.row(l).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "keeps the expert count")]
    fn upscale_rejects_expert_change() {
        LocalityProfile::synthetic("s", 2, 4, 1.0, 1).upscale(8, 6, 2);
    }

    #[test]
    #[should_panic(expected = "row sums to zero")]
    fn zero_row_panics() {
        LocalityProfile::from_frequencies("m", vec![vec![0.0, 0.0]]);
    }
}
