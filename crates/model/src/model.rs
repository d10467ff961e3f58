//! The full decoder-only MoE transformer (backbone side).
//!
//! The model owns every *non-expert* parameter — embedding, attention,
//! norms, gates, LM head — and delegates expert FFN evaluation to an
//! [`ExpertProvider`]. This matches VELA's master-process view: the model
//! backbone of Mixtral-8x7B is ~3 GB while the experts are the remaining
//! ~84 GB, so the backbone lives on the master and the experts wherever the
//! placement puts them.

use vela_nn::attention::Attention;
use vela_nn::embedding::Embedding;
use vela_nn::linear::Linear;
use vela_nn::loss::cross_entropy;
use vela_nn::param::{Module, Param};
use vela_nn::rmsnorm::RmsNorm;
use vela_tensor::rng::DetRng;
use vela_tensor::Tensor;

use crate::moe_block::{MoeBlock, RoutingInfo};
use crate::provider::{ExpertProvider, LocalExpertStore};
use crate::ModelConfig;

/// One transformer block of the backbone: pre-norm attention plus a
/// pre-norm MoE block (Fig. 1 of the paper).
#[derive(Debug)]
struct Block {
    attn_norm: RmsNorm,
    attn: Attention,
    ffn_norm: RmsNorm,
    moe: MoeBlock,
}

/// Statistics from one training step.
#[derive(Debug, Clone)]
pub struct StepStats {
    /// Mean cross-entropy loss.
    pub loss: f32,
    /// Sum of auxiliary (load-balancing) losses across blocks.
    pub aux_loss: f32,
    /// Routing decisions per block.
    pub routing: Vec<RoutingInfo>,
}

/// The MoE transformer backbone.
#[derive(Debug)]
pub struct MoeModel {
    cfg: ModelConfig,
    embedding: Embedding,
    blocks: Vec<Block>,
    final_norm: RmsNorm,
    lm_head: Linear,
    /// `(batch, seq)` of the in-flight forward pass.
    shape: Option<(usize, usize)>,
}

impl MoeModel {
    /// Creates a freshly initialized model *and* its full expert population.
    ///
    /// Returned separately because in VELA the two halves have different
    /// owners (master vs. workers).
    pub fn new(cfg: &ModelConfig, rng: &mut DetRng) -> (Self, LocalExpertStore) {
        cfg.validate();
        let mut model_rng = rng.fork(1);
        let mut expert_rng = rng.fork(2);
        let embedding = Embedding::new("embed", cfg.vocab, cfg.dim, &mut model_rng);
        let mut blocks = Vec::with_capacity(cfg.blocks);
        for l in 0..cfg.blocks {
            blocks.push(Block {
                attn_norm: RmsNorm::new(format!("block{l}.attn_norm"), cfg.dim, &mut model_rng),
                attn: Attention::with_kv_heads(
                    format!("block{l}.attn"),
                    cfg.dim,
                    cfg.heads,
                    cfg.kv_heads,
                    &mut model_rng,
                ),
                ffn_norm: RmsNorm::new(format!("block{l}.ffn_norm"), cfg.dim, &mut model_rng),
                moe: MoeBlock::new(
                    l,
                    cfg.dim,
                    cfg.experts,
                    cfg.top_k,
                    cfg.aux_loss_weight,
                    &mut model_rng,
                ),
            });
        }
        let final_norm = RmsNorm::new("final_norm", cfg.dim, &mut model_rng);
        let lm_head = Linear::new("lm_head", cfg.dim, cfg.vocab, &mut model_rng);
        let store = LocalExpertStore::new(cfg, &mut expert_rng);
        (
            MoeModel {
                cfg: cfg.clone(),
                embedding,
                blocks,
                final_norm,
                lm_head,
                shape: None,
            },
            store,
        )
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Forward pass: token ids (grouped by batch row) to logits
    /// `[batch·seq, vocab]`.
    ///
    /// # Panics
    /// Panics if `tokens.len() != batch * seq`.
    pub fn forward(
        &mut self,
        tokens: &[usize],
        batch: usize,
        seq: usize,
        provider: &mut dyn ExpertProvider,
    ) -> Tensor {
        assert_eq!(tokens.len(), batch * seq, "tokens != batch*seq");
        self.shape = Some((batch, seq));
        let mut x = self.embedding.forward(tokens);
        for block in &mut self.blocks {
            let h = block.attn_norm.forward(&x);
            let h = block.attn.forward(&h, batch, seq);
            x.add_assign(&h);
            let m = block.ffn_norm.forward(&x);
            let m = block.moe.forward(&m, provider);
            x.add_assign(&m);
        }
        let x = self.final_norm.forward(&x);
        self.lm_head.forward(&x)
    }

    /// Backward pass from the logits gradient; accumulates gradients in the
    /// backbone and (through `provider`) in the experts.
    ///
    /// # Panics
    /// Panics if called before [`forward`](Self::forward).
    pub fn backward(&mut self, grad_logits: &Tensor, provider: &mut dyn ExpertProvider) {
        self.shape.expect("MoeModel::backward before forward");
        let g = self.lm_head.backward(grad_logits);
        let mut g = self.final_norm.backward(&g);
        for block in self.blocks.iter_mut().rev() {
            // x = x + moe(ffn_norm(x)): gradient flows through both paths.
            let gm = block.moe.backward(&g, provider);
            let gm = block.ffn_norm.backward(&gm);
            g.add_assign(&gm);
            let ga = block.attn.backward(&g);
            let ga = block.attn_norm.backward(&ga);
            g.add_assign(&ga);
        }
        self.embedding.backward(&g);
    }

    /// One full forward + loss + backward pass (no optimizer step).
    ///
    /// Gradients are zeroed at entry, so callers only need to run their
    /// optimizers afterwards.
    pub fn train_step(
        &mut self,
        inputs: &[usize],
        targets: &[usize],
        batch: usize,
        seq: usize,
        provider: &mut dyn ExpertProvider,
    ) -> StepStats {
        self.zero_grad();
        let logits = self.forward(inputs, batch, seq, provider);
        let (loss, grad_logits) = cross_entropy(&logits, targets);
        self.backward(&grad_logits, provider);
        StepStats {
            loss,
            aux_loss: self
                .blocks
                .iter()
                .map(|b| b.moe.router().last_aux_loss())
                .sum(),
            routing: self.routing_snapshot(),
        }
    }

    /// Inference pass returning the loss without touching gradients.
    pub fn evaluate(
        &mut self,
        inputs: &[usize],
        targets: &[usize],
        batch: usize,
        seq: usize,
        provider: &mut dyn ExpertProvider,
    ) -> f32 {
        let logits = self.forward(inputs, batch, seq, provider);
        cross_entropy(&logits, targets).0
    }

    /// Autoregressively samples `max_new` tokens after `prompt` (greedy
    /// when `temperature == 0`, softmax sampling otherwise). The context is
    /// truncated to the configured sequence length.
    ///
    /// # Panics
    /// Panics if `prompt` is empty or `temperature` is negative.
    pub fn generate(
        &mut self,
        prompt: &[usize],
        max_new: usize,
        temperature: f32,
        rng: &mut DetRng,
        provider: &mut dyn ExpertProvider,
    ) -> Vec<usize> {
        assert!(!prompt.is_empty(), "generation needs a prompt");
        assert!(temperature >= 0.0, "temperature must be nonnegative");
        let mut tokens = prompt.to_vec();
        for _ in 0..max_new {
            let start = tokens.len().saturating_sub(self.cfg.seq_len);
            let context = &tokens[start..];
            let logits = self.forward(context, 1, context.len(), provider);
            let last = logits.row(logits.rows() - 1);
            let next = if temperature == 0.0 {
                last.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                    .expect("nonempty vocab")
                    .0
            } else {
                let weights: Vec<f32> = {
                    let max = last.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    last.iter()
                        .map(|&l| ((l - max) / temperature).exp())
                        .collect()
                };
                rng.categorical(&weights)
            };
            tokens.push(next);
        }
        tokens
    }

    /// Routing decisions of every block from the most recent forward pass.
    ///
    /// # Panics
    /// Panics if no forward pass has run yet.
    pub fn routing_snapshot(&self) -> Vec<RoutingInfo> {
        self.blocks
            .iter()
            .map(|b| {
                b.moe
                    .last_routing()
                    .expect("routing_snapshot before forward")
                    .clone()
            })
            .collect()
    }

    /// Freezes every backbone parameter and disables the auxiliary loss —
    /// the state of a *pre-trained* backbone entering fine-tuning.
    pub fn freeze_all(&mut self) {
        self.visit_params(&mut |p| p.set_trainable(false));
        for block in &mut self.blocks {
            block.moe.router_mut().set_aux_weight(0.0);
        }
    }

    /// Attaches LoRA adapters to all backbone linear layers except the gate
    /// (paper §V-A: "all the linear layers except for the gating
    /// mechanism").
    pub fn attach_lora(&mut self, rank: usize, alpha: f32, rng: &mut DetRng) {
        for block in &mut self.blocks {
            block.attn.attach_lora(rank, alpha, rng);
        }
        self.lm_head.attach_lora(rank, alpha, rng);
    }
}

impl Module for MoeModel {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.embedding.visit_params(f);
        for block in &mut self.blocks {
            block.attn_norm.visit_params(f);
            block.attn.visit_params(f);
            block.ffn_norm.visit_params(f);
            block.moe.visit_params(f);
        }
        self.final_norm.visit_params(f);
        self.lm_head.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vela_nn::optim::{AdamW, AdamWConfig, Sgd};

    fn setup() -> (MoeModel, LocalExpertStore, ModelConfig) {
        let cfg = ModelConfig::test_small();
        let mut rng = DetRng::new(42);
        let (model, store) = MoeModel::new(&cfg, &mut rng);
        (model, store, cfg)
    }

    fn toy_batch(cfg: &ModelConfig, batch: usize, seed: u64) -> (Vec<usize>, Vec<usize>) {
        let mut rng = DetRng::new(seed);
        let n = batch * cfg.seq_len;
        let inputs: Vec<usize> = (0..n).map(|_| rng.below(cfg.vocab)).collect();
        let targets: Vec<usize> = (0..n).map(|_| rng.below(cfg.vocab)).collect();
        (inputs, targets)
    }

    #[test]
    fn forward_produces_logits() {
        let (mut model, mut store, cfg) = setup();
        let (inputs, _) = toy_batch(&cfg, 2, 1);
        let logits = model.forward(&inputs, 2, cfg.seq_len, &mut store);
        assert_eq!(logits.shape().as_2d(), (2 * cfg.seq_len, cfg.vocab));
        assert!(logits.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn train_step_reduces_loss_on_fixed_batch() {
        let (mut model, mut store, cfg) = setup();
        let (inputs, targets) = toy_batch(&cfg, 2, 2);
        let mut opt_m = AdamW::new(AdamWConfig {
            lr: 3e-3,
            ..AdamWConfig::default()
        });
        let mut opt_e = AdamW::new(AdamWConfig {
            lr: 3e-3,
            ..AdamWConfig::default()
        });
        let first = model
            .train_step(&inputs, &targets, 2, cfg.seq_len, &mut store)
            .loss;
        for _ in 0..30 {
            store.zero_grad();
            let _ = model.train_step(&inputs, &targets, 2, cfg.seq_len, &mut store);
            opt_m.step(&mut model);
            opt_e.step(&mut store);
        }
        let last = model
            .train_step(&inputs, &targets, 2, cfg.seq_len, &mut store)
            .loss;
        assert!(
            last < first * 0.9,
            "loss should drop on a memorized batch: {first} -> {last}"
        );
    }

    #[test]
    fn deterministic_construction_and_forward() {
        let cfg = ModelConfig::test_small();
        let (mut m1, mut s1) = MoeModel::new(&cfg, &mut DetRng::new(7));
        let (mut m2, mut s2) = MoeModel::new(&cfg, &mut DetRng::new(7));
        let (inputs, _) = toy_batch(&cfg, 1, 3);
        let l1 = m1.forward(&inputs, 1, cfg.seq_len, &mut s1);
        let l2 = m2.forward(&inputs, 1, cfg.seq_len, &mut s2);
        assert_eq!(l1, l2);
    }

    #[test]
    fn routing_snapshot_covers_all_blocks() {
        let (mut model, mut store, cfg) = setup();
        let (inputs, _) = toy_batch(&cfg, 1, 4);
        model.forward(&inputs, 1, cfg.seq_len, &mut store);
        let snap = model.routing_snapshot();
        assert_eq!(snap.len(), cfg.blocks);
        for info in &snap {
            assert_eq!(info.tokens, cfg.seq_len);
            assert_eq!(info.counts.len(), cfg.experts);
        }
    }

    #[test]
    fn freeze_all_leaves_nothing_trainable() {
        let (mut model, _, _) = setup();
        model.freeze_all();
        assert_eq!(model.trainable_param_count(), 0);
    }

    #[test]
    fn attach_lora_creates_trainable_adapters_only() {
        let (mut model, _, cfg) = setup();
        model.freeze_all();
        model.attach_lora(2, 4.0, &mut DetRng::new(9));
        let trainable = model.trainable_param_count();
        assert!(trainable > 0);
        // 4 attention projections per block + lm_head, 2 matrices each.
        let mut adapters = 0;
        model.visit_params(&mut |p| {
            if p.is_trainable() {
                assert!(p.name().contains("lora"), "{} trainable", p.name());
                adapters += 1;
            }
        });
        assert_eq!(adapters, (cfg.blocks * 4 + 1) * 2);
    }

    #[test]
    fn gate_never_gets_lora() {
        let (mut model, _, _) = setup();
        model.freeze_all();
        model.attach_lora(2, 4.0, &mut DetRng::new(9));
        model.visit_params(&mut |p| {
            assert!(
                !(p.name().contains("gate") && p.name().contains("lora")),
                "gate must not be adapted: {}",
                p.name()
            );
        });
    }

    #[test]
    fn sgd_also_trains_the_model() {
        let (mut model, mut store, cfg) = setup();
        let (inputs, targets) = toy_batch(&cfg, 1, 5);
        let mut opt = Sgd::new(1e-2);
        let first = model
            .train_step(&inputs, &targets, 1, cfg.seq_len, &mut store)
            .loss;
        for _ in 0..20 {
            store.zero_grad();
            model.train_step(&inputs, &targets, 1, cfg.seq_len, &mut store);
            opt.step(&mut model);
            opt.step(&mut store);
        }
        let last = model
            .train_step(&inputs, &targets, 1, cfg.seq_len, &mut store)
            .loss;
        assert!(last < first, "{first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "tokens != batch*seq")]
    fn wrong_token_count_panics() {
        let (mut model, mut store, _) = setup();
        model.forward(&[0, 1, 2], 2, 2, &mut store);
    }

    #[test]
    fn generate_extends_the_prompt() {
        let (mut model, mut store, cfg) = setup();
        let mut rng = DetRng::new(1);
        let out = model.generate(&[1, 2, 3], 5, 0.8, &mut rng, &mut store);
        assert_eq!(out.len(), 8);
        assert_eq!(&out[..3], &[1, 2, 3]);
        assert!(out.iter().all(|&t| t < cfg.vocab));
    }

    #[test]
    fn greedy_generation_is_deterministic() {
        let (mut m1, mut s1, _) = setup();
        let (mut m2, mut s2, _) = setup();
        let a = m1.generate(&[5, 6], 6, 0.0, &mut DetRng::new(1), &mut s1);
        let b = m2.generate(&[5, 6], 6, 0.0, &mut DetRng::new(2), &mut s2);
        assert_eq!(a, b, "greedy decoding ignores the rng");
    }

    #[test]
    fn generation_respects_context_window() {
        let (mut model, mut store, cfg) = setup();
        // Prompt longer than seq_len: must truncate, not panic.
        let prompt: Vec<usize> = (0..cfg.seq_len + 5).map(|i| i % cfg.vocab).collect();
        let out = model.generate(&prompt, 2, 0.0, &mut DetRng::new(3), &mut store);
        assert_eq!(out.len(), prompt.len() + 2);
    }
}
