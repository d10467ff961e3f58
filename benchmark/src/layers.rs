//! Layer numbers taken from outside the program: the plain single-worker
//! run with a timing decorator on the `ExpertProvider` seam, and probes
//! that call one public function at the workload's own shapes.

use std::hint::black_box;

use vela::model::provider::ExpertBatch;
use vela::model::Router;
use vela::nn::attention::Attention;
use vela::nn::loss::cross_entropy;
use vela::nn::param::Module;
use vela::nn::rmsnorm::RmsNorm;
use vela::nn::swiglu::SwiGlu;
use vela::prelude::*;

use crate::stats::median;
use crate::trace::{self, ROUND_LOCAL, ROUND_PROBE};
use crate::workloads::{RealInputs, RealSpec, EXPERTS};

/// Times every call that crosses the `ExpertProvider` seam and changes
/// nothing else: outputs are bitwise those of the store it wraps.
pub struct TimedProvider {
    pub inner: LocalExpertStore,
}

impl ExpertProvider for TimedProvider {
    fn replica_degree(&self, block: usize, expert: usize) -> usize {
        self.inner.replica_degree(block, expert)
    }

    fn forward_block(&mut self, block: usize, batches: &[ExpertBatch]) -> Vec<Tensor> {
        trace::timed("model.expert_fwd", || {
            self.inner.forward_block(block, batches)
        })
        .0
    }

    fn backward_block(&mut self, block: usize, grads: &[ExpertBatch]) -> Vec<Tensor> {
        trace::timed("model.expert_bwd", || {
            self.inner.backward_block(block, grads)
        })
        .0
    }
}

/// The single-worker baseline: `MoeModel::train_step` plus both optimizer
/// steps on the batches the distributed rounds see. Returns the loss and
/// the wall seconds of each step, warm-up included.
pub fn local_run(
    spec: &RealSpec,
    inputs: &RealInputs,
    steps: i64,
    warm: i64,
) -> (Vec<f32>, Vec<f64>) {
    let (mut model, experts) = inputs.fresh_model();
    let mut provider = TimedProvider { inner: experts };
    let mut opt_model = AdamW::new(AdamWConfig::default());
    let mut opt_experts = AdamW::new(AdamWConfig::default());
    let mut rng = inputs.batch_rng();
    let mut losses = Vec::new();
    let mut walls = Vec::new();
    for i in -warm..steps {
        trace::at(ROUND_LOCAL, Some(i));
        let (loss, secs) = trace::timed("bench.local_step", || {
            let (batch, _) = trace::timed("data.batch", || {
                inputs.dataset.sample_batch(spec.batch, spec.seq, &mut rng)
            });
            trace::timed("nn.optim.experts", || provider.inner.zero_grad());
            let (stats, _) = trace::timed("model.train_step", || {
                model.train_step(
                    &batch.inputs,
                    &batch.targets,
                    batch.batch_size,
                    batch.seq_len,
                    &mut provider,
                )
            });
            trace::timed("nn.optim.backbone", || opt_model.step(&mut model));
            trace::timed("nn.optim.experts", || opt_experts.step(&mut provider.inner));
            stats.loss
        });
        losses.push(loss);
        walls.push(secs);
    }
    trace::at(ROUND_LOCAL, None);
    (losses, walls)
}

/// Median seconds of `f` over `ITERS` calls after `WARM` discarded ones.
fn probe(name: &'static str, mut f: impl FnMut()) -> f64 {
    const WARM: usize = 3;
    const ITERS: usize = 30;
    for _ in 0..WARM {
        f();
    }
    let secs: Vec<f64> = (0..ITERS).map(|_| trace::timed(name, &mut f).1).collect();
    median(&secs)
}

/// Probes of `tensor`, `nn` and the router at the workload's shapes, single
/// thread. Returns `(metric, value)` pairs; times are seconds per step.
pub fn probes(spec: &RealSpec, vocab: usize) -> Vec<(&'static str, f64)> {
    trace::at(ROUND_PROBE, None);
    let mut rng = DetRng::new(17);
    let (rows, dim, ffn) = (spec.rows_per_expert(), spec.dim, spec.ffn_hidden);
    let tokens = spec.tokens_per_step();
    let mut out = Vec::new();

    let x = Tensor::uniform((rows, dim), -1.0, 1.0, &mut rng);
    let w = Tensor::uniform((dim, ffn), -1.0, 1.0, &mut rng);
    let h = Tensor::uniform((rows, ffn), -1.0, 1.0, &mut rng);
    let gflops = |secs: f64| 2.0 * (rows * dim * ffn) as f64 / secs * 1e-9;
    // [rows×dim]·[dim×ffn], [rows×ffn]·[dim×ffn]ᵀ, [rows×dim]ᵀ·[rows×ffn]:
    // the forward, input-gradient and weight-gradient products of one
    // expert projection, all 2·rows·dim·ffn flops.
    out.push((
        "tensor.gemm_gflops",
        gflops(probe("probe.tensor.gemm_gflops", || {
            black_box(black_box(&x).matmul(black_box(&w)));
        })),
    ));
    out.push((
        "tensor.gemm_nt_gflops",
        gflops(probe("probe.tensor.gemm_nt_gflops", || {
            black_box(black_box(&h).matmul_nt(black_box(&w)));
        })),
    ));
    out.push((
        "tensor.gemm_tn_gflops",
        gflops(probe("probe.tensor.gemm_tn_gflops", || {
            black_box(black_box(&x).matmul_tn(black_box(&h)));
        })),
    ));

    let lora = LoraConfig::default();
    let acts = Tensor::uniform((tokens, dim), -1.0, 1.0, &mut rng);

    let mut attn = Attention::new("probe.attn", dim, spec.heads, &mut rng);
    attn.freeze_base();
    attn.attach_lora(lora.rank, lora.alpha, &mut rng);
    let per_call = probe("probe.nn.attention_s", || {
        black_box(attn.forward(black_box(&acts), spec.batch, spec.seq));
        black_box(attn.backward(black_box(&acts)));
    });
    out.push(("nn.attention_s", per_call * spec.blocks as f64));

    let mut expert = SwiGlu::new("probe.expert", dim, ffn, &mut rng);
    expert.freeze_base();
    expert.attach_lora(lora.rank, lora.alpha, &mut rng);
    let per_call = probe("probe.nn.swiglu_s", || {
        black_box(expert.forward(black_box(&x)));
        black_box(expert.backward(black_box(&x)));
    });
    out.push(("nn.swiglu_s", per_call * (spec.blocks * EXPERTS) as f64));

    // Two norms per block and the final one.
    let mut norm = RmsNorm::new("probe.norm", dim, &mut rng);
    let per_call = probe("probe.nn.rmsnorm_s", || {
        black_box(norm.forward(black_box(&acts)));
        black_box(norm.backward(black_box(&acts)));
    });
    out.push(("nn.rmsnorm_s", per_call * (2 * spec.blocks + 1) as f64));

    let logits = Tensor::uniform((tokens, vocab), -1.0, 1.0, &mut rng);
    let targets: Vec<usize> = (0..tokens).map(|_| rng.below(vocab)).collect();
    let per_call = probe("probe.nn.loss_s", || {
        black_box(cross_entropy(black_box(&logits), black_box(&targets)));
    });
    out.push(("nn.loss_s", per_call));

    let mut router = Router::new("probe.router", dim, EXPERTS, spec.top_k, 0.0, &mut rng);
    router.freeze();
    let grad_weights = vec![0.01f32; tokens * spec.top_k];
    let per_call = probe("probe.model.router_s", || {
        black_box(router.forward(black_box(&acts)));
        black_box(router.backward(black_box(&grad_weights)));
    });
    out.push(("model.router_s", per_call * spec.blocks as f64));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{by_name, Workload};

    /// A small shape so the test runs in a debug build.
    fn small() -> RealSpec {
        let Some(Workload::Real(mut spec)) = by_name("drift-replace") else {
            panic!("drift-replace is a real-tensor workload");
        };
        spec.dim = 16;
        spec.ffn_hidden = 32;
        spec.seq = 8;
        spec
    }

    #[test]
    fn timed_provider_is_transparent() {
        let spec = small();
        let cfg = spec.model_config();
        let batch: Vec<usize> = (0..spec.tokens_per_step()).map(|i| i % cfg.vocab).collect();
        let run = |wrap: bool| {
            let (mut model, experts) = MoeModel::new(&cfg, &mut DetRng::new(5));
            let mut timed = TimedProvider { inner: experts };
            let mut losses = Vec::new();
            for _ in 0..3 {
                let provider: &mut dyn ExpertProvider =
                    if wrap { &mut timed } else { &mut timed.inner };
                let stats = model.train_step(&batch, &batch, spec.batch, spec.seq, provider);
                losses.push(stats.loss.to_bits());
                AdamW::new(AdamWConfig::default()).step(&mut timed.inner);
            }
            let mut params = Vec::new();
            timed.inner.visit_params(&mut |p| {
                params.extend(p.value.as_slice().iter().map(|v| v.to_bits()));
            });
            (losses, params)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn fresh_models_are_bitwise_copies() {
        let spec = small();
        let inputs = RealInputs::generate(&spec, 3);
        let (a, _) = local_run(&spec, &inputs, 2, 0);
        let (b, _) = local_run(&spec, &inputs, 2, 0);
        assert_eq!(
            a.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|l| l.to_bits()).collect::<Vec<_>>()
        );
    }
}
