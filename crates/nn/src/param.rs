//! Trainable parameters and the module-visitor abstraction.

use vela_tensor::gemm::{Epilogue, Layout};
use vela_tensor::Tensor;

/// A named parameter: a value tensor, its accumulated gradient, and a
/// trainable flag.
///
/// During pre-training all parameters are trainable; during LoRA fine-tuning
/// only the adapter matrices are, and the optimizer skips frozen parameters.
/// Names are hierarchical (e.g. `"block3.expert2.gate.lora_a"`) and must be
/// unique within a model, because optimizers key their per-parameter state by
/// name.
///
/// A frozen parameter holds no gradient buffer, and its value keeps its GEMM
/// panels ([`Tensor::set_keep_panels`]): the base weights of a LoRA
/// fine-tune take part in a product every step and never change, so their
/// packed copy is made once, and the gradient buffer they have no use for
/// pays for it.
#[derive(Debug, Clone)]
pub struct Param {
    name: String,
    /// The parameter tensor.
    pub value: Tensor,
    /// Accumulated gradient, same shape as `value`; empty while frozen.
    pub grad: Tensor,
    trainable: bool,
}

/// The gradient of a frozen parameter: no elements, no buffer.
fn no_grad() -> Tensor {
    Tensor::from_vec(0usize, Vec::new())
}

impl Param {
    /// Creates a trainable parameter initialized to `value`.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(*value.shape());
        Param {
            name: name.into(),
            value,
            grad,
            trainable: true,
        }
    }

    /// Creates a frozen (non-trainable) parameter.
    pub fn frozen(name: impl Into<String>, mut value: Tensor) -> Self {
        value.set_keep_panels(true);
        Param {
            name: name.into(),
            value,
            grad: no_grad(),
            trainable: false,
        }
    }

    /// The parameter's unique name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the optimizer should update this parameter.
    pub fn is_trainable(&self) -> bool {
        self.trainable
    }

    /// Freezes or unfreezes the parameter. Freezing marks the value to keep
    /// its GEMM panels and frees the gradient buffer to the allocator (not
    /// to the workspace pool, which would hold on to it); thawing clears the
    /// mark and starts from a zeroed gradient of the value's shape.
    pub fn set_trainable(&mut self, trainable: bool) {
        if trainable == self.trainable {
            return;
        }
        self.value.set_keep_panels(!trainable);
        if trainable {
            self.grad = Tensor::zeros(*self.value.shape());
        } else {
            drop(std::mem::replace(&mut self.grad, no_grad()).into_vec());
        }
        self.trainable = trainable;
    }

    /// Number of elements in the parameter tensor.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Returns `true` if the parameter tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Resets the accumulated gradient to zero. A frozen parameter has no
    /// gradient buffer to clear.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }

    /// Accumulates `g` into the gradient; a frozen parameter ignores it, as
    /// the optimizer would.
    ///
    /// # Panics
    /// Panics if the parameter is trainable and `g`'s shape differs from
    /// its own.
    pub fn accumulate(&mut self, g: &Tensor) {
        if self.trainable {
            self.grad.add_assign(g);
        }
    }

    /// Accumulates the product of `a` and `b` in `layout`, scaled by
    /// `scale` if given, into the gradient as the product is computed —
    /// the bits of [`accumulate`](Self::accumulate) on the product (scaled
    /// by [`Tensor::scale_inplace`]), with no temporary. A frozen parameter
    /// ignores it, and nothing is computed.
    ///
    /// # Panics
    /// Panics if the parameter is trainable and the product's shape differs
    /// from its own.
    pub fn accumulate_product(
        &mut self,
        layout: Layout,
        a: &Tensor,
        b: &Tensor,
        scale: Option<f32>,
    ) {
        if self.trainable {
            let ep = scale.map_or(Epilogue::Add, Epilogue::AddScaled);
            self.grad.gemm_into(layout, a, b, ep);
        }
    }
}

/// Anything that owns parameters and can expose them to a visitor.
///
/// Models, layers and expert shards implement this; optimizers and
/// serialization walk parameters exclusively through it, so ownership stays
/// with the layers.
pub trait Module {
    /// Calls `f` once for every parameter, in a deterministic order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Zeroes every trainable parameter's gradient.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total number of parameters (trainable and frozen).
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// Number of trainable parameters.
    fn trainable_param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| {
            if p.is_trainable() {
                n += p.len();
            }
        });
        n
    }
}

impl Module for Vec<Param> {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for p in self {
            f(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad() {
        let p = Param::new("w", Tensor::ones((2, 2)));
        assert_eq!(p.grad.sum(), 0.0);
        assert!(p.is_trainable());
        assert_eq!(p.name(), "w");
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn frozen_param_is_not_trainable() {
        let mut p = Param::frozen("w", Tensor::ones(3usize));
        assert!(!p.is_trainable());
        p.set_trainable(true);
        assert!(p.is_trainable());
    }

    #[test]
    fn accumulate_and_zero() {
        let mut p = Param::new("w", Tensor::zeros(2usize));
        p.accumulate(&Tensor::from_vec(2usize, vec![1.0, 2.0]));
        p.accumulate(&Tensor::from_vec(2usize, vec![1.0, 2.0]));
        assert_eq!(p.grad.as_slice(), &[2.0, 4.0]);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }

    #[test]
    fn freeze_step_unfreeze_leaves_a_zeroed_gradient() {
        use crate::optim::Sgd;

        let mut m = vec![
            Param::new("w", Tensor::ones(2usize)),
            Param::new("lora", Tensor::ones(2usize)),
        ];
        let g = Tensor::from_vec(2usize, vec![1.0, 2.0]);
        m[0].accumulate(&g);
        m[0].set_trainable(false);
        assert!(m[0].grad.is_empty(), "freezing frees the gradient");
        assert!(m[0].value.keeps_panels(), "a frozen value keeps its panels");

        // One fine-tuning step: a gradient handed to the frozen parameter
        // is dropped, and the optimizer leaves its value alone.
        m.zero_grad();
        m[0].accumulate(&g);
        m[1].accumulate(&g);
        Sgd::new(0.5).step(&mut m);
        m.zero_grad();
        assert_eq!(m[0].value.as_slice(), &[1.0, 1.0]);
        assert!(m[0].grad.is_empty());
        assert_eq!(m[1].value.as_slice(), &[0.5, 0.0]);
        assert_eq!(m[1].grad.sum(), 0.0);

        m[0].set_trainable(true);
        assert_eq!(m[0].grad.as_slice(), &[0.0, 0.0], "thawing yields zeros");
        assert!(!m[0].value.keeps_panels());
        m[0].accumulate(&g);
        assert_eq!(m[0].grad.as_slice(), &[1.0, 2.0]);
        m[0].set_trainable(true);
        assert_eq!(m[0].grad.as_slice(), &[1.0, 2.0], "no change of state");
    }

    #[test]
    fn a_param_born_frozen_matches_one_frozen_later() {
        let born = Param::frozen("w", Tensor::ones((2, 3)));
        let mut later = Param::new("w", Tensor::ones((2, 3)));
        later.set_trainable(false);
        for p in [&born, &later] {
            assert!(!p.is_trainable() && p.grad.is_empty() && p.value.keeps_panels());
        }
    }

    #[test]
    fn module_counts_params() {
        let mut m = vec![
            Param::new("a", Tensor::zeros((2, 3))),
            Param::frozen("b", Tensor::zeros(4usize)),
        ];
        assert_eq!(m.param_count(), 10);
        assert_eq!(m.trainable_param_count(), 6);
    }

    #[test]
    fn module_zero_grad_clears_all() {
        let mut m = vec![Param::new("a", Tensor::zeros(2usize))];
        m[0].accumulate(&Tensor::ones(2usize));
        m.zero_grad();
        assert_eq!(m[0].grad.sum(), 0.0);
    }
}
