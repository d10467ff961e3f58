//! Linear projection with an optional LoRA adapter.

use vela_tensor::gemm::Layout;
use vela_tensor::rng::DetRng;
use vela_tensor::Tensor;

use crate::lora::LoraAdapter;
use crate::param::{Module, Param};

/// A dense, bias-free linear layer `y = x·W (+ s·(x·A)·B)`.
///
/// The same struct serves both training regimes of the paper:
///
/// * **pre-training** — the base weight is trainable and there is no adapter;
/// * **LoRA fine-tuning** — [`freeze_base`](Self::freeze_base) freezes `W`
///   and [`attach_lora`](Self::attach_lora) adds a trainable low-rank update,
///   so only the adapter receives gradients.
///
/// Weights are stored `(in_dim, out_dim)` so the forward pass is a plain
/// row-major mat-mul over a `[tokens, features]` batch.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    lora: Option<LoraAdapter>,
    in_dim: usize,
    out_dim: usize,
    name: String,
    cached_x: Option<Tensor>,
}

impl Linear {
    /// Creates a trainable layer, Xavier-initialized.
    pub fn new(name: impl Into<String>, in_dim: usize, out_dim: usize, rng: &mut DetRng) -> Self {
        let name = name.into();
        let std = (2.0 / (in_dim + out_dim) as f32).sqrt();
        Linear {
            weight: Param::new(
                format!("{name}.weight"),
                Tensor::normal((in_dim, out_dim), 0.0, std, rng),
            ),
            lora: None,
            in_dim,
            out_dim,
            name,
            cached_x: None,
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The layer's name prefix.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Immutable view of the base weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// The attached LoRA adapter, if any.
    pub fn lora(&self) -> Option<&LoraAdapter> {
        self.lora.as_ref()
    }

    /// Freezes the base weight so the optimizer skips it.
    pub fn freeze_base(&mut self) {
        self.weight.set_trainable(false);
    }

    /// Attaches a LoRA adapter with the given rank and `α`.
    ///
    /// # Panics
    /// Panics if an adapter is already attached or `rank` is zero.
    pub fn attach_lora(&mut self, rank: usize, alpha: f32, rng: &mut DetRng) {
        assert!(self.lora.is_none(), "{}: LoRA already attached", self.name);
        self.lora = Some(LoraAdapter::new(
            &self.name,
            self.in_dim,
            self.out_dim,
            rank,
            alpha,
            rng,
        ));
    }

    /// Merges the LoRA update into the base weight and removes the adapter.
    ///
    /// After merging, the layer computes the same function with a plain
    /// dense weight.
    pub fn merge_lora(&mut self) {
        if let Some(lora) = self.lora.take() {
            self.weight.value.add_assign(&lora.to_dense_delta());
        }
    }

    /// Forward pass over a `[tokens, in_dim]` batch.
    ///
    /// # Panics
    /// Panics if the input's column count is not `in_dim`.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(
            x.cols(),
            self.in_dim,
            "{}: input cols {} != in_dim {}",
            self.name,
            x.cols(),
            self.in_dim
        );
        let mut y = x.matmul(&self.weight.value);
        if let Some(lora) = &mut self.lora {
            lora.forward_into(x, &mut y);
        }
        // Reuse the cache buffer across steps instead of reallocating.
        match &mut self.cached_x {
            Some(t) => t.copy_from(x),
            None => self.cached_x = Some(x.clone()),
        }
        y
    }

    /// Backward pass: accumulates parameter gradients and returns the input
    /// gradient.
    ///
    /// # Panics
    /// Panics if called before [`forward`](Self::forward).
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_x
            .as_ref()
            .expect("Linear::backward called before forward");
        self.weight
            .accumulate_product(Layout::Tn, x, grad_out, None);
        let mut grad_in = grad_out.matmul_nt(&self.weight.value);
        if let Some(lora) = &mut self.lora {
            lora.backward_into(x, grad_out, &mut grad_in);
        }
        grad_in
    }
}

impl Module for Linear {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(lora) = &mut self.lora {
            lora.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_param_grads;

    #[test]
    fn forward_matches_manual_matmul() {
        let mut rng = DetRng::new(1);
        let mut layer = Linear::new("l", 3, 2, &mut rng);
        let x = Tensor::uniform((4, 3), -1.0, 1.0, &mut rng);
        let y = layer.forward(&x);
        let manual = x.matmul(&layer.weight().value);
        assert!(vela_tensor::approx_eq(
            y.as_slice(),
            manual.as_slice(),
            1e-6
        ));
    }

    #[test]
    fn backward_gradients_match_finite_difference() {
        let mut rng = DetRng::new(3);
        let mut layer = Linear::new("l", 4, 3, &mut rng);
        let x = Tensor::uniform((5, 4), -1.0, 1.0, &mut rng);
        let gout = Tensor::uniform((5, 3), -1.0, 1.0, &mut rng);
        check_param_grads(
            &mut layer,
            |l, x| l.forward(x),
            |l, g| l.backward(g),
            &x,
            &gout,
            1e-2,
            1e-2,
        );
    }

    #[test]
    fn gradients_match_at_non_tile_multiple_dims() {
        // 13×17 → 9 straddles the 8×8 microkernel tiles on every axis, so
        // this exercises the padded remainder lanes end to end.
        let mut rng = DetRng::new(31);
        let mut layer = Linear::new("l", 17, 9, &mut rng);
        let x = Tensor::uniform((13, 17), -1.0, 1.0, &mut rng);
        let gout = Tensor::uniform((13, 9), -1.0, 1.0, &mut rng);
        check_param_grads(
            &mut layer,
            |l, x| l.forward(x),
            |l, g| l.backward(g),
            &x,
            &gout,
            1e-2,
            2e-2,
        );
    }

    #[test]
    fn lora_layer_gradients_match_finite_difference() {
        let mut rng = DetRng::new(4);
        let mut layer = Linear::new("l", 4, 3, &mut rng);
        layer.freeze_base();
        layer.attach_lora(2, 4.0, &mut rng);
        // Non-trivial B so gradients flow everywhere.
        layer.visit_params(&mut |p| {
            if p.name().ends_with("lora_b") {
                let mut r = DetRng::new(99);
                p.value = Tensor::uniform(*p.value.shape(), -0.5, 0.5, &mut r);
            }
        });
        let x = Tensor::uniform((5, 4), -1.0, 1.0, &mut rng);
        let gout = Tensor::uniform((5, 3), -1.0, 1.0, &mut rng);
        check_param_grads(
            &mut layer,
            |l, x| l.forward(x),
            |l, g| l.backward(g),
            &x,
            &gout,
            1e-2,
            1e-2,
        );
    }

    #[test]
    fn frozen_base_receives_no_gradient() {
        let mut rng = DetRng::new(5);
        let mut layer = Linear::new("l", 3, 3, &mut rng);
        layer.freeze_base();
        layer.attach_lora(2, 4.0, &mut rng);
        let x = Tensor::uniform((2, 3), -1.0, 1.0, &mut rng);
        layer.forward(&x);
        layer.backward(&Tensor::ones((2, 3)));
        assert_eq!(layer.weight().grad.sum(), 0.0);
    }

    #[test]
    fn merge_lora_preserves_function() {
        let mut rng = DetRng::new(6);
        let mut layer = Linear::new("l", 4, 4, &mut rng);
        layer.attach_lora(2, 8.0, &mut rng);
        layer.visit_params(&mut |p| {
            if p.name().ends_with("lora_b") {
                let mut r = DetRng::new(7);
                p.value = Tensor::uniform(*p.value.shape(), -0.5, 0.5, &mut r);
            }
        });
        let x = Tensor::uniform((3, 4), -1.0, 1.0, &mut rng);
        let before = layer.forward(&x);
        layer.merge_lora();
        assert!(layer.lora().is_none());
        let after = layer.forward(&x);
        assert!(vela_tensor::approx_eq(
            before.as_slice(),
            after.as_slice(),
            1e-4
        ));
    }

    #[test]
    fn visit_params_order_is_deterministic() {
        let mut rng = DetRng::new(9);
        let mut layer = Linear::new("l", 2, 2, &mut rng);
        layer.attach_lora(1, 1.0, &mut rng);
        let mut names = Vec::new();
        layer.visit_params(&mut |p| names.push(p.name().to_string()));
        assert_eq!(names, vec!["l.weight", "l.lora_a", "l.lora_b"]);
    }

    #[test]
    #[should_panic(expected = "LoRA already attached")]
    fn double_attach_panics() {
        let mut rng = DetRng::new(10);
        let mut layer = Linear::new("l", 2, 2, &mut rng);
        layer.attach_lora(1, 1.0, &mut rng);
        layer.attach_lora(1, 1.0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "input cols")]
    fn wrong_input_width_panics() {
        let mut rng = DetRng::new(11);
        let mut layer = Linear::new("l", 3, 2, &mut rng);
        layer.forward(&Tensor::zeros((1, 4)));
    }
}
