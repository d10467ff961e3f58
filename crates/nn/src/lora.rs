//! Low-Rank Adaptation (LoRA) adapters.
//!
//! LoRA (Hu et al., 2021) injects a trainable low-rank update `ΔW = A·B`
//! into a frozen linear layer, so the layer computes `y = x·W + s·(x·A)·B`
//! with `s = α / r`. Only `A` and `B` are optimized during fine-tuning,
//! which is the parameter-efficient regime the VELA paper targets
//! (LoRA `r = 8`, `α = 16` in the evaluation).

use vela_tensor::rng::DetRng;
use vela_tensor::Tensor;

use crate::param::Param;

/// A LoRA adapter attached to a linear layer of shape `in_dim → out_dim`.
///
/// Follows the reference initialization: `A ~ N(0, 1/in_dim)` and `B = 0`,
/// so the adapted layer is exactly the base layer at step 0.
#[derive(Debug, Clone)]
pub struct LoraAdapter {
    /// Down-projection `A`, shape `(in_dim, rank)`.
    pub a: Param,
    /// Up-projection `B`, shape `(rank, out_dim)`.
    pub b: Param,
    scale: f32,
    rank: usize,
    /// Cached `x·A` from the last forward pass, needed by backward.
    cached_xa: Option<Tensor>,
}

impl LoraAdapter {
    /// Creates an adapter for a `in_dim → out_dim` layer.
    ///
    /// # Panics
    /// Panics if `rank` is zero.
    pub fn new(
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rank: usize,
        alpha: f32,
        rng: &mut DetRng,
    ) -> Self {
        assert!(rank > 0, "LoRA rank must be positive");
        let std = 1.0 / (in_dim as f32).sqrt();
        LoraAdapter {
            a: Param::new(
                format!("{name}.lora_a"),
                Tensor::normal((in_dim, rank), 0.0, std, rng),
            ),
            b: Param::new(format!("{name}.lora_b"), Tensor::zeros((rank, out_dim))),
            scale: alpha / rank as f32,
            rank,
            cached_xa: None,
        }
    }

    /// The adapter rank `r`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The scaling factor `α / r`.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The low-rank contribution `s·(x·A)·B`, caching `x·A` for backward.
    /// The input itself is not kept: the owning layer already caches it and
    /// hands it back to [`backward`](Self::backward).
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let xa = x.matmul(&self.a.value);
        let mut out = xa.matmul(&self.b.value);
        out.scale_inplace(self.scale);
        self.cached_xa = Some(xa);
        out
    }

    /// Accumulates gradients for `A` and `B` and returns the adapter's
    /// contribution to the input gradient. `x` is the input the last
    /// [`forward`](Self::forward) saw.
    ///
    /// # Panics
    /// Panics if called before [`forward`](Self::forward).
    pub fn backward(&mut self, x: &Tensor, grad_out: &Tensor) -> Tensor {
        let xa = self
            .cached_xa
            .as_ref()
            .expect("LoraAdapter::backward called before forward");
        // dB = s * (xA)^T g
        let mut db = xa.matmul_tn(grad_out);
        db.scale_inplace(self.scale);
        self.b.accumulate(&db);
        // g_xa = s * g B^T
        let mut g_xa = grad_out.matmul_nt(&self.b.value);
        g_xa.scale_inplace(self.scale);
        // dA = x^T g_xa
        let da = x.matmul_tn(&g_xa);
        self.a.accumulate(&da);
        // grad_in = g_xa A^T
        g_xa.matmul_nt(&self.a.value)
    }

    /// Materializes the dense update `s·A·B` (e.g. for merging into the base
    /// weight after fine-tuning).
    pub fn to_dense_delta(&self) -> Tensor {
        self.a.value.matmul(&self.b.value).scale(self.scale)
    }

    /// Visits the adapter parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.a);
        f(&mut self.b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_b_means_zero_output() {
        let mut rng = DetRng::new(1);
        let mut lora = LoraAdapter::new("l", 6, 4, 2, 16.0, &mut rng);
        let x = Tensor::uniform((3, 6), -1.0, 1.0, &mut rng);
        let y = lora.forward(&x);
        assert_eq!(y.sum(), 0.0, "fresh adapter must be a no-op");
    }

    #[test]
    fn scale_is_alpha_over_rank() {
        let mut rng = DetRng::new(2);
        let lora = LoraAdapter::new("l", 4, 4, 8, 16.0, &mut rng);
        assert_eq!(lora.scale(), 2.0);
        assert_eq!(lora.rank(), 8);
    }

    #[test]
    fn dense_delta_matches_forward() {
        let mut rng = DetRng::new(3);
        let mut lora = LoraAdapter::new("l", 5, 3, 2, 8.0, &mut rng);
        // Give B nonzero values.
        lora.b.value = Tensor::uniform((2, 3), -1.0, 1.0, &mut rng);
        let x = Tensor::uniform((4, 5), -1.0, 1.0, &mut rng);
        let via_forward = lora.forward(&x);
        let via_delta = x.matmul(&lora.to_dense_delta());
        assert!(vela_tensor::approx_eq(
            via_forward.as_slice(),
            via_delta.as_slice(),
            1e-4
        ));
    }

    #[test]
    fn backward_gradients_match_finite_difference() {
        let mut rng = DetRng::new(4);
        let mut lora = LoraAdapter::new("l", 4, 3, 2, 4.0, &mut rng);
        lora.b.value = Tensor::uniform((2, 3), -0.5, 0.5, &mut rng);
        let x = Tensor::uniform((5, 4), -1.0, 1.0, &mut rng);
        let gout = Tensor::uniform((5, 3), -1.0, 1.0, &mut rng);

        lora.forward(&x);
        let gin = lora.backward(&x, &gout);

        let eps = 1e-2f32;
        // Check dA.
        for idx in 0..lora.a.len() {
            let orig = lora.a.value.at(idx);
            lora.a.value.as_mut_slice()[idx] = orig + eps;
            let fp = loss_of(&mut lora, &x, &gout);
            lora.a.value.as_mut_slice()[idx] = orig - eps;
            let fm = loss_of(&mut lora, &x, &gout);
            lora.a.value.as_mut_slice()[idx] = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - lora.a.grad.at(idx)).abs() < 1e-2,
                "dA[{idx}]: {numeric} vs {}",
                lora.a.grad.at(idx)
            );
        }
        // Check dB.
        for idx in 0..lora.b.len() {
            let orig = lora.b.value.at(idx);
            lora.b.value.as_mut_slice()[idx] = orig + eps;
            let fp = loss_of(&mut lora, &x, &gout);
            lora.b.value.as_mut_slice()[idx] = orig - eps;
            let fm = loss_of(&mut lora, &x, &gout);
            lora.b.value.as_mut_slice()[idx] = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - lora.b.grad.at(idx)).abs() < 1e-2,
                "dB[{idx}]: {numeric} vs {}",
                lora.b.grad.at(idx)
            );
        }
        // Check grad_in.
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let fp = loss_of(&mut lora, &xp, &gout);
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fm = loss_of(&mut lora, &xm, &gout);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - gin.at(idx)).abs() < 1e-2,
                "dx[{idx}]: {numeric} vs {}",
                gin.at(idx)
            );
        }
    }

    /// Scalar probe loss `<forward(x), gout>`.
    fn loss_of(lora: &mut LoraAdapter, x: &Tensor, gout: &Tensor) -> f32 {
        lora.forward(x)
            .as_slice()
            .iter()
            .zip(gout.as_slice())
            .map(|(&y, &g)| y * g)
            .sum()
    }

    #[test]
    fn visit_params_exposes_a_and_b() {
        let mut rng = DetRng::new(5);
        let mut lora = LoraAdapter::new("l", 2, 2, 1, 2.0, &mut rng);
        let mut names = Vec::new();
        lora.visit_params(&mut |p| names.push(p.name().to_string()));
        assert_eq!(names, vec!["l.lora_a", "l.lora_b"]);
    }

    #[test]
    #[should_panic(expected = "rank must be positive")]
    fn zero_rank_panics() {
        LoraAdapter::new("l", 2, 2, 0, 1.0, &mut DetRng::new(0));
    }
}
