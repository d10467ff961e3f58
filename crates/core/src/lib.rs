//! # VELA: communication-efficient MoE fine-tuning with locality-aware
//! # expert placement
//!
//! A from-scratch Rust reproduction of the VELA system (Hu, Kang & Li,
//! ICDCS 2025). VELA fine-tunes Mixture-of-Experts language models in a
//! distributed master–worker architecture, exploiting the *expert
//! locality* of pre-trained MoE models — some experts are accessed far
//! more often than others, and the bias is stable during fine-tuning — to
//! place experts so that hot ones sit on cheap links, cutting cross-node
//! communication by up to ~25 % and step time by up to ~28 %.
//!
//! This crate is the public face of the workspace; the heavy lifting lives
//! in the re-exported sub-crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`tensor`] | `vela-tensor` | dense tensors, kernels, seeded RNG |
//! | [`nn`] | `vela-nn` | layers with explicit backward, LoRA, AdamW |
//! | [`data`] | `vela-data` | synthetic corpora, tokenizer, batching |
//! | [`model`] | `vela-model` | MoE transformer, pre-training, fine-tuning |
//! | [`locality`] | `vela-locality` | access counters, Theorem 1, profiles |
//! | [`cluster`] | `vela-cluster` | topology, cost model, traffic ledger |
//! | [`placement`] | `vela-placement` | the LP placement + baselines |
//! | [`runtime`] | `vela-runtime` | master–worker runtime + EP baseline |
//!
//! # Quickstart
//!
//! ```
//! use vela::prelude::*;
//!
//! // Pre-train a small MoE model, measure its expert locality, solve the
//! // placement LP and fine-tune it distributed — in a few lines.
//! let mut session = VelaSession::builder()
//!     .model(ModelConfig::test_small_with_tokenizer_vocab())
//!     .pretrain_steps(20)
//!     .corpus(Corpus::TinyShakespeare)
//!     .strategy(Strategy::Vela)
//!     .build();
//! let metrics = session.finetune(3);
//! assert_eq!(metrics.len(), 3);
//! session.shutdown();
//! ```

pub use vela_cluster as cluster;
pub use vela_data as data;
pub use vela_locality as locality;
pub use vela_model as model;
pub use vela_nn as nn;
pub use vela_obs as obs;
pub use vela_placement as placement;
pub use vela_runtime as runtime;
pub use vela_tensor as tensor;

pub mod api;
pub mod measure;

/// The most common imports, for examples and quick experiments.
pub mod prelude {
    pub use crate::api::{VelaSession, VelaSessionBuilder};
    pub use crate::measure::measure_locality;
    pub use crate::ModelConfigExt;
    pub use vela_cluster::{Bandwidth, CostModel, DeviceId, NodeId, Topology};
    pub use vela_data::{Batch, CharTokenizer, Corpus, TokenDataset};
    pub use vela_locality::{AccessTracker, Cdf, LocalityProfile, StabilityReport};
    pub use vela_model::finetune::{FinetuneConfig, LoraConfig};
    pub use vela_model::pretrain::{pretrain, PretrainConfig};
    pub use vela_model::{ExpertProvider, LocalExpertStore, ModelConfig, MoeModel, MoeSpec};
    pub use vela_nn::optim::{AdamW, AdamWConfig, Sgd};
    pub use vela_placement::{Placement, PlacementProblem, ReplicatedPlacement, Strategy};
    pub use vela_runtime::{
        EpEngine, MigrationHandle, RealRuntime, RunSummary, ScaleConfig, StepMetrics,
        TransportConfig, VirtualEngine,
    };
    pub use vela_tensor::rng::DetRng;
    pub use vela_tensor::Tensor;
}

/// Extension trait hosting small conveniences on re-exported types.
pub trait ModelConfigExt {
    /// [`ModelConfig::test_small`](vela_model::ModelConfig::test_small)
    /// with the vocabulary set from the workspace tokenizer.
    fn test_small_with_tokenizer_vocab() -> vela_model::ModelConfig;
}

impl ModelConfigExt for vela_model::ModelConfig {
    fn test_small_with_tokenizer_vocab() -> vela_model::ModelConfig {
        let mut cfg = vela_model::ModelConfig::test_small();
        cfg.vocab = vela_data::CharTokenizer::new().vocab_size();
        cfg
    }
}
