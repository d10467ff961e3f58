//! The high-level session API: pre-train → measure → place → fine-tune,
//! in one builder.

use vela_cluster::{DeviceId, Topology};
use vela_data::{CharTokenizer, Corpus, TokenDataset};
use vela_model::finetune::{prepare_for_finetune, LoraConfig};
use vela_model::pretrain::{pretrain, PretrainConfig};
use vela_model::ModelConfig;
use vela_nn::optim::AdamWConfig;
use vela_placement::{Placement, PlacementProblem, Strategy};
use vela_runtime::{RealRuntime, StepMetrics};
use vela_tensor::rng::DetRng;

use crate::measure::measure_locality;

/// Builder for a [`VelaSession`]; see the crate-level quickstart.
#[derive(Debug, Clone)]
pub struct VelaSessionBuilder {
    model: ModelConfig,
    pretrain_steps: usize,
    finetune_batch: usize,
    corpus: Corpus,
    corpus_chars: usize,
    strategy: Strategy,
    seed: u64,
}

impl VelaSessionBuilder {
    fn new() -> Self {
        let mut model = ModelConfig::test_small();
        model.vocab = CharTokenizer::new().vocab_size();
        VelaSessionBuilder {
            model,
            pretrain_steps: 100,
            finetune_batch: 8,
            corpus: Corpus::TinyShakespeare,
            corpus_chars: 50_000,
            strategy: Strategy::Vela,
            seed: 2025,
        }
    }

    /// Sets the model configuration (vocabulary must match the workspace
    /// tokenizer).
    pub fn model(&mut self, cfg: ModelConfig) -> &mut Self {
        self.model = cfg;
        self
    }

    /// Number of balanced pre-training steps before fine-tuning.
    pub fn pretrain_steps(&mut self, steps: usize) -> &mut Self {
        self.pretrain_steps = steps;
        self
    }

    /// Fine-tuning batch size (sequences per step).
    pub fn finetune_batch(&mut self, batch: usize) -> &mut Self {
        self.finetune_batch = batch;
        self
    }

    /// The fine-tuning corpus.
    pub fn corpus(&mut self, corpus: Corpus) -> &mut Self {
        self.corpus = corpus;
        self
    }

    /// Characters of corpus to generate.
    pub fn corpus_chars(&mut self, chars: usize) -> &mut Self {
        self.corpus_chars = chars;
        self
    }

    /// The expert-placement strategy (defaults to [`Strategy::Vela`]).
    pub fn strategy(&mut self, strategy: Strategy) -> &mut Self {
        self.strategy = strategy;
        self
    }

    /// Master seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Runs the full pipeline: balanced pre-training on the mixed corpus,
    /// LoRA preparation ([`LoraConfig::default`]), locality measurement on
    /// the target corpus, placement on the paper's 3 × 2-GPU testbed, and
    /// distributed launch with [`AdamWConfig::default`] over the transport
    /// `VELA_TRANSPORT` selects.
    ///
    /// # Panics
    /// Panics if the configuration is inconsistent (e.g. vocabulary
    /// mismatch with the tokenizer).
    pub fn build(&self) -> VelaSession {
        let pre = pretrain(
            &self.model,
            &PretrainConfig {
                steps: self.pretrain_steps,
                batch_size: self.finetune_batch.min(8),
                corpus_chars: self.corpus_chars.max(20_000),
                seed: self.seed,
                ..PretrainConfig::default()
            },
        );
        let (mut model, mut experts) = (pre.model, pre.experts);
        prepare_for_finetune(
            &mut model,
            &mut experts,
            LoraConfig::default(),
            &mut DetRng::new(self.seed ^ 0xA5A5),
        );

        let tokenizer = CharTokenizer::new();
        let dataset = TokenDataset::from_text(
            &tokenizer,
            &self.corpus.generate(self.corpus_chars, self.seed ^ 0xC0),
        );
        let profile = measure_locality(&mut model, &mut experts, &dataset, self.finetune_batch, 16);

        let topology = Topology::paper_testbed();
        let master = DeviceId(0);
        let workers: Vec<DeviceId> = topology.devices().iter().map(|d| d.id).collect();
        let cfg = model.config().clone();
        let problem = PlacementProblem::new(
            topology.clone(),
            master,
            workers.clone(),
            profile.to_matrix(),
            (self.finetune_batch * cfg.seq_len * cfg.top_k) as f64,
            (cfg.dim * 4) as u64,
            PlacementProblem::even_capacities(cfg.blocks, cfg.experts, workers.len(), 2),
        );
        let placement = self.strategy.place(&problem);

        let runtime = RealRuntime::launch(
            model,
            experts,
            placement.clone(),
            topology,
            master,
            workers,
            AdamWConfig::default(),
        );
        VelaSession {
            runtime,
            dataset,
            placement,
            batch: self.finetune_batch,
            seq_len: cfg.seq_len,
            rng: DetRng::new(self.seed ^ 0xF00D),
        }
    }
}

/// A live end-to-end VELA session over the distributed runtime.
#[derive(Debug)]
pub struct VelaSession {
    runtime: RealRuntime,
    dataset: TokenDataset,
    placement: Placement,
    batch: usize,
    seq_len: usize,
    rng: DetRng,
}

impl VelaSession {
    /// Starts a builder with sensible defaults.
    pub fn builder() -> VelaSessionBuilder {
        VelaSessionBuilder::new()
    }

    /// The placement the session runs with.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Label of the transport backend carrying the session's traffic.
    pub fn transport(&self) -> &'static str {
        self.runtime.transport_label()
    }

    /// Runs `steps` distributed fine-tuning steps.
    ///
    /// # Panics
    /// Panics if the transport fails mid-run — a session has no way to
    /// resume a half-finished step.
    pub fn finetune(&mut self, steps: usize) -> Vec<StepMetrics> {
        (0..steps)
            .map(|_| {
                let batch = self
                    .dataset
                    .sample_batch(self.batch, self.seq_len, &mut self.rng);
                self.runtime
                    .train_step(
                        &batch.inputs,
                        &batch.targets,
                        batch.batch_size,
                        batch.seq_len,
                    )
                    .unwrap_or_else(|e| panic!("transport failed mid-session: {e}"))
            })
            .collect()
    }

    /// Shuts down the worker threads and returns nothing (the trained
    /// model can be recovered with [`into_parts`](Self::into_parts)
    /// instead when needed).
    pub fn shutdown(self) {
        self.runtime.shutdown();
    }

    /// Shuts down and returns the trained backbone and reassembled expert
    /// population.
    pub fn into_parts(self) -> (vela_model::MoeModel, vela_model::LocalExpertStore) {
        self.runtime.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_builder() -> VelaSessionBuilder {
        let mut b = VelaSessionBuilder::new();
        b.pretrain_steps(10).finetune_batch(2).corpus_chars(20_000);
        b
    }

    #[test]
    fn end_to_end_session_runs() {
        let mut session = quick_builder().build();
        assert!(!session.transport().is_empty());
        let metrics = session.finetune(2);
        assert_eq!(metrics.len(), 2);
        assert!(metrics[0].loss.unwrap().is_finite());
        assert!(metrics[0].traffic.total_bytes > 0);
        let (mut model, mut experts) = session.into_parts();
        use vela_nn::param::Module;
        assert!(model.trainable_param_count() > 0);
        assert!(experts.trainable_param_count() > 0);
    }

    #[test]
    fn strategies_yield_different_placements() {
        let vela = quick_builder().strategy(Strategy::Vela).build();
        let seq = quick_builder().strategy(Strategy::Sequential).build();
        assert_ne!(vela.placement(), seq.placement());
        vela.shutdown();
        seq.shutdown();
    }
}
