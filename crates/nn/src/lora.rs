//! Low-Rank Adaptation (LoRA) adapters.
//!
//! LoRA (Hu et al., 2021) injects a trainable low-rank update `ΔW = A·B`
//! into a frozen linear layer, so the layer computes `y = x·W + s·(x·A)·B`
//! with `s = α / r`. Only `A` and `B` are optimized during fine-tuning,
//! which is the parameter-efficient regime the VELA paper targets
//! (LoRA `r = 8`, `α = 16` in the evaluation).

use vela_tensor::gemm::{Epilogue, Layout};
use vela_tensor::rng::DetRng;
use vela_tensor::{workspace, Tensor};

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

    /// Adds the low-rank contribution `s·(x·A)·B` to `y`, the base layer's
    /// output, caching `x·A` for backward. The input itself is not kept: the
    /// owning layer already caches it and hands it back to
    /// [`backward_into`](Self::backward_into).
    ///
    /// The scale and the sum are the product's epilogue: `y + (acc·s)`,
    /// rounded as a separate scale and add would round it.
    pub fn forward_into(&mut self, x: &Tensor, y: &mut Tensor) {
        let xa = x.matmul(&self.a.value);
        y.gemm_into(
            Layout::Nn,
            &xa,
            &self.b.value,
            Epilogue::AddScaled(self.scale),
        );
        self.cached_xa = Some(xa);
    }

    /// Accumulates gradients for `A` and `B` and adds the adapter's
    /// contribution to the input gradient to `grad_in`. `x` is the input the
    /// last [`forward_into`](Self::forward_into) saw.
    ///
    /// # Panics
    /// Panics if called before [`forward_into`](Self::forward_into).
    pub fn backward_into(&mut self, x: &Tensor, grad_out: &Tensor, grad_in: &mut Tensor) {
        let xa = self
            .cached_xa
            .as_ref()
            .expect("LoraAdapter::backward_into called before forward_into");
        // dB = s * (xA)^T g
        self.b
            .accumulate_product(Layout::Tn, xa, grad_out, Some(self.scale));
        // g_xa = s * g B^T
        let mut g_xa = workspace::take_uninit((grad_out.rows(), self.rank));
        g_xa.gemm_into(
            Layout::Nt,
            grad_out,
            &self.b.value,
            Epilogue::Scale(self.scale),
        );
        // dA = x^T g_xa
        self.a.accumulate_product(Layout::Tn, x, &g_xa, None);
        // grad_in += g_xa A^T
        grad_in.gemm_into(Layout::Nt, &g_xa, &self.a.value, Epilogue::Add);
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
        let y = contribution(&mut lora, &x);
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
        let via_forward = contribution(&mut lora, &x);
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

        contribution(&mut lora, &x);
        let mut gin = Tensor::zeros(*x.shape());
        lora.backward_into(&x, &gout, &mut gin);

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

    /// The adapter's output `s·(x·A)·B` alone: its contribution added to
    /// zeros.
    fn contribution(lora: &mut LoraAdapter, x: &Tensor) -> Tensor {
        let mut y = Tensor::zeros((x.rows(), lora.b.value.cols()));
        lora.forward_into(x, &mut y);
        y
    }

    /// Scalar probe loss `<forward(x), gout>`.
    fn loss_of(lora: &mut LoraAdapter, x: &Tensor, gout: &Tensor) -> f32 {
        contribution(lora, x)
            .as_slice()
            .iter()
            .zip(gout.as_slice())
            .map(|(&y, &g)| y * g)
            .sum()
    }

    /// One forward and backward of a frozen base `w` with an adapter
    /// (`a`, `b`, `scale`), as the adapter computed it before its products
    /// wrote through an epilogue: every product, scale and sum a pass of its
    /// own (`matmul`, `scale_inplace`, `add_assign`, `accumulate`). Kept as
    /// the reference the fused adapter is pinned against, bit for bit.
    /// Returns the output and the input gradient.
    fn unfused_step(
        w: &Tensor,
        (a, b, scale): (&mut Param, &mut Param, f32),
        x: &Tensor,
        g: &Tensor,
    ) -> (Tensor, Tensor) {
        let mut y = x.matmul(w);
        let xa = x.matmul(&a.value);
        let mut delta = xa.matmul(&b.value);
        delta.scale_inplace(scale);
        y.add_assign(&delta);

        let mut db = xa.matmul_tn(g);
        db.scale_inplace(scale);
        b.accumulate(&db);
        let mut g_xa = g.matmul_nt(&b.value);
        g_xa.scale_inplace(scale);
        let da = x.matmul_tn(&g_xa);
        a.accumulate(&da);
        let mut grad_in = g.matmul_nt(w);
        grad_in.add_assign(&g_xa.matmul_nt(&a.value));
        (y, grad_in)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn fused_adapter_is_bitwise_the_unfused_formula() {
        use crate::linear::Linear;
        use crate::param::Module;

        // Ranks around the short-side tiles' bound of 16 and the paper's 8;
        // widths that are ragged, the model's and the expert's hidden one;
        // rows below, at and past a row tile, and the `ffn-heavy` expert's.
        for rank in [1, 8, 16, 17] {
            for in_dim in [9, 64, 1024] {
                for out_dim in [9, 64, 1024] {
                    let seed = (rank * 10_000 + in_dim * 10 + out_dim) as u64;
                    let mut rng = DetRng::new(seed);
                    let mut layer = Linear::new("l", in_dim, out_dim, &mut rng);
                    layer.freeze_base();
                    layer.attach_lora(rank, 16.0, &mut rng);
                    layer.visit_params(&mut |p| {
                        if p.name().ends_with("lora_b") {
                            p.value = Tensor::uniform(*p.value.shape(), -0.5, 0.5, &mut rng);
                        }
                    });
                    let w = layer.weight().value.clone();
                    let lora = layer.lora().expect("attached");
                    let (mut a, mut b, scale) = (lora.a.clone(), lora.b.clone(), lora.scale());
                    for rows in [1, 7, 16, 64] {
                        // Two steps with no `zero_grad` between: the second
                        // accumulates into a non-zero gradient.
                        for step in 0..2 {
                            let x = Tensor::uniform((rows, in_dim), -1.0, 1.0, &mut rng);
                            let g = Tensor::uniform((rows, out_dim), -1.0, 1.0, &mut rng);
                            let y = layer.forward(&x);
                            let gin = layer.backward(&g);
                            let (ref_y, ref_gin) =
                                unfused_step(&w, (&mut a, &mut b, scale), &x, &g);
                            let case = format!(
                                "r = {rank}, {in_dim} -> {out_dim}, {rows} rows, step {step}"
                            );
                            let lora = layer.lora().expect("attached");
                            assert_eq!(bits(&y), bits(&ref_y), "output, {case}");
                            assert_eq!(bits(&gin), bits(&ref_gin), "input grad, {case}");
                            assert_eq!(bits(&lora.a.grad), bits(&a.grad), "A grad, {case}");
                            assert_eq!(bits(&lora.b.grad), bits(&b.grad), "B grad, {case}");
                        }
                    }
                }
            }
        }
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
