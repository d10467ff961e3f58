//! Randomized property tests for the layer zoo.
//!
//! Each property is checked over many [`DetRng`]-seeded random cases, so
//! the suite is fully deterministic and needs no external test framework.

use vela_nn::attention::Attention;
use vela_nn::linear::Linear;
use vela_nn::loss::cross_entropy;
use vela_nn::optim::{AdamW, AdamWConfig, Sgd};
use vela_nn::param::{Module, Param};
use vela_nn::rmsnorm::RmsNorm;
use vela_nn::swiglu::SwiGlu;
use vela_tensor::rng::DetRng;
use vela_tensor::Tensor;

const CASES: u64 = 24;

fn tensor(rows: usize, cols: usize, seed: u64, scale: f32) -> Tensor {
    let mut rng = DetRng::new(seed);
    Tensor::uniform((rows, cols), -scale, scale, &mut rng)
}

/// A linear layer without bias is, well, linear.
#[test]
fn linear_is_linear() {
    for seed in 0..CASES {
        let mut case = DetRng::new(seed ^ 0xA11CE);
        let (a, b) = (case.uniform(-2.0, 2.0), case.uniform(-2.0, 2.0));
        let mut layer = Linear::new("l", 5, 3, &mut DetRng::new(seed));
        let x = tensor(4, 5, seed ^ 1, 1.0);
        let y = tensor(4, 5, seed ^ 2, 1.0);
        let lhs = layer.forward(&x.scale(a).add(&y.scale(b)));
        let rhs = layer.forward(&x).scale(a).add(&layer.forward(&y).scale(b));
        assert!(
            vela_tensor::approx_eq(lhs.as_slice(), rhs.as_slice(), 1e-3),
            "seed {seed}"
        );
    }
}

/// RMSNorm output never depends on the input's overall scale.
#[test]
fn rmsnorm_scale_invariant() {
    for seed in 0..CASES {
        let scale = DetRng::new(seed ^ 0xBEEF).uniform(0.1, 50.0);
        let mut norm = RmsNorm::new("n", 6, &mut DetRng::new(seed));
        let x = tensor(3, 6, seed, 2.0);
        let y1 = norm.forward(&x);
        let y2 = norm.forward(&x.scale(scale));
        assert!(
            vela_tensor::approx_eq(y1.as_slice(), y2.as_slice(), 1e-2),
            "seed {seed} scale {scale}"
        );
    }
}

/// Attention is causal for arbitrary inputs: earlier outputs ignore
/// later-token perturbations.
#[test]
fn attention_is_causal() {
    for seed in 0..CASES {
        let bump = DetRng::new(seed ^ 0xCAFE).uniform(0.5, 3.0);
        let mut attn = Attention::new("a", 8, 2, &mut DetRng::new(seed));
        let x1 = tensor(4, 8, seed ^ 9, 1.0);
        let mut x2 = x1.clone();
        for v in x2.row_mut(3) {
            *v += bump;
        }
        let y1 = attn.forward(&x1, 1, 4);
        let y2 = attn.forward(&x2, 1, 4);
        for t in 0..3 {
            assert_eq!(
                y1.row(t),
                y2.row(t),
                "seed {seed}: token {t} leaked the future"
            );
        }
    }
}

/// Expert FFN gradients accumulate additively across backward calls.
#[test]
fn swiglu_grads_accumulate() {
    for seed in 0..CASES {
        let mut ffn = SwiGlu::new("e", 4, 6, &mut DetRng::new(seed));
        let x = tensor(3, 4, seed ^ 5, 1.0);
        let g = tensor(3, 4, seed ^ 6, 1.0);
        ffn.forward(&x);
        ffn.backward(&g);
        let mut once = Vec::new();
        ffn.visit_params(&mut |p| once.push(p.grad.clone()));
        ffn.forward(&x);
        ffn.backward(&g);
        let mut idx = 0;
        ffn.visit_params(&mut |p| {
            assert!(
                vela_tensor::approx_eq(p.grad.as_slice(), once[idx].scale(2.0).as_slice(), 1e-3),
                "seed {seed}: second backward must double the gradient of {}",
                p.name()
            );
            idx += 1;
        });
    }
}

/// Cross-entropy is non-negative and its gradient rows sum to zero.
#[test]
fn cross_entropy_invariants() {
    for seed in 0..CASES {
        let logits = tensor(5, 7, seed, 4.0);
        let mut rng = DetRng::new(seed ^ 77);
        let targets: Vec<usize> = (0..5).map(|_| rng.below(7)).collect();
        let (loss, grad) = cross_entropy(&logits, &targets);
        assert!(loss >= 0.0, "seed {seed}");
        for i in 0..5 {
            let s: f32 = grad.row(i).iter().sum();
            assert!(s.abs() < 1e-5, "seed {seed} row {i}: grad sum {s}");
        }
    }
}

/// Both optimizers shrink a random convex quadratic.
#[test]
fn optimizers_descend() {
    for seed in 0..CASES {
        let init = tensor(1, 6, seed, 3.0).into_vec();
        for sgd in [true, false] {
            let mut params = vec![Param::new("w", Tensor::from_vec(6usize, init.clone()))];
            let mut sgd_opt = Sgd::new(0.1);
            let mut adam_opt = AdamW::new(AdamWConfig {
                lr: 0.1,
                ..AdamWConfig::default()
            });
            let start = params[0].value.norm();
            for _ in 0..60 {
                let g = params[0].value.clone();
                params[0].zero_grad();
                params[0].accumulate(&g);
                if sgd {
                    sgd_opt.step(&mut params);
                } else {
                    adam_opt.step(&mut params);
                }
            }
            assert!(
                params[0].value.norm() < start * 0.5 + 1e-3,
                "seed {seed}: {} failed to descend",
                if sgd { "sgd" } else { "adamw" }
            );
        }
    }
}

/// LoRA merging is exact for any adapter contents.
#[test]
fn lora_merge_exact() {
    for seed in 0..CASES {
        let mut rng = DetRng::new(seed);
        let mut layer = Linear::new("l", 5, 4, &mut rng);
        layer.attach_lora(2, 6.0, &mut rng);
        layer.visit_params(&mut |p| {
            if p.name().contains("lora") {
                let mut r = DetRng::new(seed ^ 0xAB);
                p.value = Tensor::uniform(*p.value.shape(), -0.5, 0.5, &mut r);
            }
        });
        let x = tensor(3, 5, seed ^ 0xCD, 1.0);
        let before = layer.forward(&x);
        layer.merge_lora();
        let after = layer.forward(&x);
        assert!(
            vela_tensor::approx_eq(before.as_slice(), after.as_slice(), 1e-3),
            "seed {seed}"
        );
    }
}
