//! Balanced pre-training of MoE models.
//!
//! Expert locality in the paper is an *emergent* property of fully trained
//! MoE models: balanced pre-training (driven by the auxiliary loss) gives
//! every expert enough gradient signal to specialise, and the specialisation
//! is what later skews routing on narrow fine-tuning datasets. This module
//! reproduces that pipeline on the mixed-domain corpus, so the rest of the
//! evaluation works with genuinely pre-trained models instead of hard-coded
//! routing tables.

use vela_data::{CharTokenizer, Corpus, TokenDataset};
use vela_nn::optim::{AdamW, AdamWConfig};
use vela_nn::param::Module;
use vela_tensor::rng::DetRng;

use crate::model::MoeModel;
use crate::provider::LocalExpertStore;
use crate::ModelConfig;

/// Hyper-parameters for a pre-training run.
#[derive(Debug, Clone, PartialEq)]
pub struct PretrainConfig {
    /// Optimizer steps.
    pub steps: usize,
    /// Sequences per batch.
    pub batch_size: usize,
    /// Learning rate (pre-training trains from scratch, so much larger than
    /// the fine-tuning rate).
    pub lr: f32,
    /// Characters of mixed-domain corpus to generate.
    pub corpus_chars: usize,
    /// Master seed for corpus, init and batch sampling.
    pub seed: u64,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        PretrainConfig {
            steps: 300,
            batch_size: 8,
            lr: 3e-3,
            corpus_chars: 200_000,
            seed: 2025,
        }
    }
}

/// Result of a pre-training run.
#[derive(Debug)]
pub struct Pretrained {
    /// The trained backbone.
    pub model: MoeModel,
    /// The trained expert population.
    pub experts: LocalExpertStore,
    /// Loss trajectory (one entry per step).
    pub losses: Vec<f32>,
}

/// Pre-trains a model on the mixed-domain corpus with the load-balancing
/// auxiliary loss active.
///
/// Deterministic: equal `(cfg, pcfg)` always produce the same model.
pub fn pretrain(cfg: &ModelConfig, pcfg: &PretrainConfig) -> Pretrained {
    let mut rng = DetRng::new(pcfg.seed);
    let (mut model, mut experts) = MoeModel::new(cfg, &mut rng);

    let tokenizer = CharTokenizer::new();
    assert_eq!(
        tokenizer.vocab_size(),
        cfg.vocab,
        "model vocab must match the workspace tokenizer"
    );
    let text = Corpus::Mixed.generate(pcfg.corpus_chars, pcfg.seed);
    let dataset = TokenDataset::from_text(&tokenizer, &text);

    let opt_cfg = AdamWConfig {
        lr: pcfg.lr,
        beta1: 0.9,
        beta2: 0.999,
        eps: 1e-8,
        weight_decay: 1e-4,
    };
    let mut opt_model = AdamW::new(opt_cfg);
    let mut opt_experts = AdamW::new(opt_cfg);

    let mut batch_rng = rng.fork(77);
    let mut losses = Vec::with_capacity(pcfg.steps);
    for _ in 0..pcfg.steps {
        let batch = dataset.sample_batch(pcfg.batch_size, cfg.seq_len, &mut batch_rng);
        experts.zero_grad();
        let stats = model.train_step(
            &batch.inputs,
            &batch.targets,
            batch.batch_size,
            batch.seq_len,
            &mut experts,
        );
        opt_model.step(&mut model);
        opt_experts.step(&mut experts);
        losses.push(stats.loss);
    }
    Pretrained {
        model,
        experts,
        losses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> (ModelConfig, PretrainConfig) {
        let mut cfg = ModelConfig::test_small();
        cfg.vocab = CharTokenizer::new().vocab_size();
        let pcfg = PretrainConfig {
            steps: 40,
            batch_size: 4,
            corpus_chars: 20_000,
            ..PretrainConfig::default()
        };
        (cfg, pcfg)
    }

    #[test]
    fn pretraining_reduces_loss() {
        let (cfg, pcfg) = quick_cfg();
        let result = pretrain(&cfg, &pcfg);
        let head: f32 = result.losses[..5].iter().sum::<f32>() / 5.0;
        let tail: f32 = result.losses[result.losses.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(
            tail < head * 0.9,
            "pre-training should learn: {head} -> {tail}"
        );
    }

    #[test]
    fn pretraining_is_deterministic() {
        let (cfg, pcfg) = quick_cfg();
        let a = pretrain(&cfg, &pcfg);
        let b = pretrain(&cfg, &pcfg);
        assert_eq!(a.losses, b.losses);
    }

    #[test]
    #[should_panic(expected = "vocab must match")]
    fn wrong_vocab_panics() {
        let (mut cfg, pcfg) = quick_cfg();
        cfg.vocab = 10;
        pretrain(&cfg, &pcfg);
    }
}
