//! The SwiGLU feed-forward network used as the expert sub-network.
//!
//! Each expert in a Mixtral-style MoE block is a SwiGLU FFN:
//! `y = down( silu(gate(x)) ⊙ up(x) )`, with three linear projections that
//! can all carry LoRA adapters during fine-tuning.

use vela_tensor::rng::DetRng;
use vela_tensor::{ops, workspace, Tensor};

use crate::linear::Linear;
use crate::param::{Module, Param};

/// A SwiGLU feed-forward network (one "expert").
#[derive(Debug, Clone)]
pub struct SwiGlu {
    gate: Linear,
    up: Linear,
    down: Linear,
    dim: usize,
    hidden: usize,
    cached_gate_pre: Option<Tensor>,
    cached_up_out: Option<Tensor>,
    /// `sigmoid(gate_pre)`: both `silu` and its derivative are products of
    /// this and `gate_pre`, so backward needs no second `exp`.
    cached_gate_sig: Option<Tensor>,
}

impl SwiGlu {
    /// Creates an expert FFN with model width `dim` and inner width
    /// `hidden`.
    pub fn new(name: impl Into<String>, dim: usize, hidden: usize, rng: &mut DetRng) -> Self {
        let name = name.into();
        SwiGlu {
            gate: Linear::new(format!("{name}.gate"), dim, hidden, rng),
            up: Linear::new(format!("{name}.up"), dim, hidden, rng),
            down: Linear::new(format!("{name}.down"), hidden, dim, rng),
            dim,
            hidden,
            cached_gate_pre: None,
            cached_up_out: None,
            cached_gate_sig: None,
        }
    }

    /// Model width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Inner (FFN) width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Freezes the three base projections (pre-trained weights).
    pub fn freeze_base(&mut self) {
        self.gate.freeze_base();
        self.up.freeze_base();
        self.down.freeze_base();
    }

    /// Attaches LoRA adapters of the given rank/α to all three projections.
    pub fn attach_lora(&mut self, rank: usize, alpha: f32, rng: &mut DetRng) {
        self.gate.attach_lora(rank, alpha, rng);
        self.up.attach_lora(rank, alpha, rng);
        self.down.attach_lora(rank, alpha, rng);
    }

    /// The `(rank, α)` of the attached LoRA adapters, if any — used to
    /// rebuild an architecturally identical expert when one migrates
    /// between workers.
    pub fn lora_spec(&self) -> Option<(usize, f32)> {
        self.gate
            .lora()
            .map(|l| (l.rank(), l.scale() * l.rank() as f32))
    }

    /// Whether the base projections are frozen (fine-tuning regime).
    pub fn base_frozen(&self) -> bool {
        !self.gate.weight().is_trainable()
    }

    /// Rows of the input the last [`forward`](Self::forward) saw — the row
    /// count a [`backward`](Self::backward) must match — or `None` if this
    /// expert has not run forward.
    pub fn cached_rows(&self) -> Option<usize> {
        self.cached_gate_pre.as_ref().map(Tensor::rows)
    }

    /// Forward pass over `[tokens, dim]`.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let gate_pre = self.gate.forward(x);
        let up_out = self.up.forward(x);
        // Reuse last step's buffer when the token count has not changed.
        let mut gate_sig = match self.cached_gate_sig.take() {
            Some(t) if t.shape() == gate_pre.shape() => t,
            _ => workspace::take_uninit(*gate_pre.shape()),
        };
        // The sigmoid (vectorized, bit for bit `ops::sigmoid`), then
        // `inner = silu(gate_pre) ⊙ up_out` with silu(x) = x · sigmoid(x).
        ops::sigmoid_into(gate_pre.as_slice(), gate_sig.as_mut_slice());
        let mut inner = workspace::take_uninit(*gate_pre.shape());
        let ins = gate_pre.as_slice().iter().zip(gate_sig.as_slice());
        for (y, ((&g, &s), &u)) in inner
            .as_mut_slice()
            .iter_mut()
            .zip(ins.zip(up_out.as_slice()))
        {
            *y = (g * s) * u;
        }
        let out = self.down.forward(&inner);
        self.cached_gate_pre = Some(gate_pre);
        self.cached_up_out = Some(up_out);
        self.cached_gate_sig = Some(gate_sig);
        out
    }

    /// Backward pass: accumulates all projection gradients and returns the
    /// input gradient.
    ///
    /// # Panics
    /// Panics if called before [`forward`](Self::forward), or with a row
    /// count other than [`cached_rows`](Self::cached_rows).
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let gate_pre = self
            .cached_gate_pre
            .as_ref()
            .expect("SwiGlu::backward called before forward");
        let up_out = self.cached_up_out.as_ref().expect("cache missing");
        let gate_sig = self.cached_gate_sig.as_ref().expect("cache missing");

        let g_inner = self.down.backward(grad_out);
        // inner = silu(gate_pre) ⊙ up_out, so
        //   g_up       = g_inner ⊙ silu(gate_pre)
        //   g_gate_pre = (g_inner ⊙ up_out) ⊙ silu'(gate_pre)
        // in one pass, with silu and silu' rebuilt from the cached sigmoid —
        // the same products, in the same order, as evaluating it again.
        let mut g_up = workspace::take_uninit(*g_inner.shape());
        let mut g_gate_pre = workspace::take_uninit(*g_inner.shape());
        let outs = g_up
            .as_mut_slice()
            .iter_mut()
            .zip(g_gate_pre.as_mut_slice());
        let acts = gate_pre.as_slice().iter().zip(gate_sig.as_slice());
        let ins = g_inner.as_slice().iter().zip(up_out.as_slice()).zip(acts);
        for ((gu, gg), ((&g, &u), (&x, &s))) in outs.zip(ins) {
            *gu = g * (x * s);
            let d = s * (1.0 + x * (1.0 - s));
            *gg = (g * u) * d;
        }

        let mut gin = self.up.backward(&g_up);
        gin.add_assign(&self.gate.backward(&g_gate_pre));
        gin
    }
}

impl Module for SwiGlu {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.gate.visit_params(f);
        self.up.visit_params(f);
        self.down.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_input_grad, check_param_grads};

    /// Forward and backward as they were before the sigmoid was cached: two
    /// passes forward (`silu`, then `⊙ up`), and in backward a fresh
    /// `ops::sigmoid` per element. Kept as the reference the fused passes
    /// are pinned against, bit for bit.
    fn reference_forward_backward(
        ffn: &mut SwiGlu,
        x: &Tensor,
        grad_out: &Tensor,
    ) -> (Tensor, Tensor) {
        let gate_pre = ffn.gate.forward(x);
        let up_out = ffn.up.forward(x);
        let gate_act = ops::silu(&gate_pre);
        let out = ffn.down.forward(&gate_act.mul(&up_out));

        let g_inner = ffn.down.backward(grad_out);
        let g_up = g_inner.mul(&gate_act);
        let g_gate_act = g_inner.mul(&up_out);
        let g_gate_pre = g_gate_act.zip(&gate_pre, |g, x| {
            let s = ops::sigmoid(x);
            let d = s * (1.0 + x * (1.0 - s));
            g * d
        });
        let gin_up = ffn.up.backward(&g_up);
        let gin_gate = ffn.gate.backward(&g_gate_pre);
        (out, gin_up.add(&gin_gate))
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Runs two steps (the second reuses the cached buffers, at a different
    /// token count) through the fused passes and through the reference on a
    /// clone, and compares output, input gradient and every parameter
    /// gradient bitwise.
    fn assert_matches_reference(mut ffn: SwiGlu, dim: usize, seed: u64) {
        let mut reference = ffn.clone();
        let mut rng = DetRng::new(seed);
        for tokens in [13, 5] {
            // Wide enough to reach both branches of `sigmoid` and its tails.
            let x = Tensor::uniform((tokens, dim), -6.0, 6.0, &mut rng);
            let gout = Tensor::uniform((tokens, dim), -1.0, 1.0, &mut rng);
            let out = ffn.forward(&x);
            let gin = ffn.backward(&gout);
            let (ref_out, ref_gin) = reference_forward_backward(&mut reference, &x, &gout);
            assert_eq!(bits(&out), bits(&ref_out), "output, {tokens} tokens");
            assert_eq!(bits(&gin), bits(&ref_gin), "input grad, {tokens} tokens");
        }
        let mut grads = Vec::new();
        ffn.visit_params(&mut |p| grads.push((p.name().to_string(), bits(&p.grad))));
        let mut seen = 0;
        reference.visit_params(&mut |p| {
            assert_eq!(grads[seen].0, p.name());
            assert_eq!(grads[seen].1, bits(&p.grad), "grad of {}", p.name());
            seen += 1;
        });
        assert_eq!(seen, grads.len());
    }

    #[test]
    fn cached_sigmoid_backward_is_bitwise_the_old_formula_frozen_lora() {
        let mut rng = DetRng::new(41);
        let mut ffn = SwiGlu::new("e", 9, 17, &mut rng);
        ffn.freeze_base();
        ffn.attach_lora(2, 4.0, &mut rng);
        // Non-zero B so every adapter path carries signal.
        let mut r = DetRng::new(42);
        ffn.visit_params(&mut |p| {
            if p.name().ends_with("lora_b") {
                p.value = Tensor::uniform(*p.value.shape(), -0.3, 0.3, &mut r);
            }
        });
        assert_matches_reference(ffn, 9, 43);
    }

    #[test]
    fn cached_sigmoid_backward_is_bitwise_the_old_formula_trainable_base() {
        let mut rng = DetRng::new(44);
        let ffn = SwiGlu::new("e", 8, 24, &mut rng);
        assert!(!ffn.base_frozen());
        assert_matches_reference(ffn, 8, 45);
    }

    #[test]
    fn output_shape_matches_input() {
        let mut rng = DetRng::new(1);
        let mut ffn = SwiGlu::new("e", 6, 12, &mut rng);
        let x = Tensor::uniform((4, 6), -1.0, 1.0, &mut rng);
        let y = ffn.forward(&x);
        assert_eq!(y.shape().as_2d(), (4, 6));
        assert_eq!(ffn.dim(), 6);
        assert_eq!(ffn.hidden(), 12);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = DetRng::new(2);
        let mut ffn = SwiGlu::new("e", 4, 6, &mut rng);
        let x = Tensor::uniform((3, 4), -1.0, 1.0, &mut rng);
        let gout = Tensor::uniform((3, 4), -1.0, 1.0, &mut rng);
        check_param_grads(
            &mut ffn,
            |m, x| m.forward(x),
            |m, g| m.backward(g),
            &x,
            &gout,
            1e-2,
            3e-2,
        );
        check_input_grad(
            &mut ffn,
            |m, x| m.forward(x),
            |m, g| m.backward(g),
            &x,
            &gout,
            1e-2,
            3e-2,
        );
    }

    #[test]
    fn gradients_match_at_non_tile_multiple_dims() {
        // dim 9, hidden 17: remainder tiles in all three projections.
        let mut rng = DetRng::new(23);
        let mut ffn = SwiGlu::new("e", 9, 17, &mut rng);
        let x = Tensor::uniform((11, 9), -1.0, 1.0, &mut rng);
        let gout = Tensor::uniform((11, 9), -1.0, 1.0, &mut rng);
        check_input_grad(
            &mut ffn,
            |m, x| m.forward(x),
            |m, g| m.backward(g),
            &x,
            &gout,
            1e-2,
            3e-2,
        );
    }

    #[test]
    fn lora_fine_tune_gradients_only_on_adapters() {
        let mut rng = DetRng::new(3);
        let mut ffn = SwiGlu::new("e", 4, 6, &mut rng);
        ffn.freeze_base();
        ffn.attach_lora(2, 4.0, &mut rng);
        let x = Tensor::uniform((3, 4), -1.0, 1.0, &mut rng);
        ffn.forward(&x);
        ffn.backward(&Tensor::ones((3, 4)));
        ffn.visit_params(&mut |p| {
            if p.name().contains("lora_a") {
                // lora_b starts at zero, so only dB is nonzero at step 0 for
                // gate/up; down's lora_a gets gradient through inner path.
                return;
            }
            if !p.is_trainable() {
                assert_eq!(p.grad.sum(), 0.0, "frozen {} has gradient", p.name());
            }
        });
        let mut trainable = 0;
        ffn.visit_params(&mut |p| {
            if p.is_trainable() {
                trainable += 1;
            }
        });
        assert_eq!(trainable, 6, "three adapters, two matrices each");
    }

    #[test]
    fn lora_gradients_match_finite_difference() {
        let mut rng = DetRng::new(4);
        let mut ffn = SwiGlu::new("e", 4, 5, &mut rng);
        ffn.freeze_base();
        ffn.attach_lora(2, 4.0, &mut rng);
        // Randomize lora_b so every adapter path carries signal.
        let mut r = DetRng::new(55);
        ffn.visit_params(&mut |p| {
            if p.name().ends_with("lora_b") {
                p.value = Tensor::uniform(*p.value.shape(), -0.3, 0.3, &mut r);
            }
        });
        let x = Tensor::uniform((2, 4), -1.0, 1.0, &mut rng);
        let gout = Tensor::uniform((2, 4), -1.0, 1.0, &mut rng);
        check_param_grads(
            &mut ffn,
            |m, x| m.forward(x),
            |m, g| m.backward(g),
            &x,
            &gout,
            1e-2,
            3e-2,
        );
    }
}
