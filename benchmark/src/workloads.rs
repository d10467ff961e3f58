//! The four workloads and the inputs each one derives from `--seed`.
//!
//! The program under test receives only generated inputs: the seed fixes
//! the corpus, LoRA initialisation, batch order and virtual routing.

use vela::model::checkpoint;
use vela::model::finetune::prepare_for_finetune;
use vela::prelude::*;
use vela::runtime::virtual_engine::capacity_from_memory;

use crate::trace;

/// The master device of every workload (paper testbed, node 0).
pub const MASTER: DeviceId = DeviceId(0);

/// Batches the locality measurement passes through the model at set-up.
pub const PROFILE_BATCHES: usize = 16;

/// Balanced pre-training steps that produce the model to fine-tune.
const PRETRAIN_STEPS: usize = 40;

/// The pre-trained model is part of the workload, like its shape: which
/// experts are hot decides the placement, and with it the external bytes
/// and the load on each worker. Two blocks of eight experts are too few
/// to average that out (across pre-training seeds external bytes per step
/// spread by 30%), so every run fine-tunes the same checkpoint and
/// `--seed` draws what a user varies: corpus, LoRA initialisation and
/// batch order.
const PRETRAIN_SEED: u64 = 2025;

/// A master↔worker transport, by the constructor that selects it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    Channel,
    TcpThreads,
    Tcp,
}

impl Transport {
    pub const ALL: [Transport; 3] = [Transport::Channel, Transport::TcpThreads, Transport::Tcp];

    pub fn config(self) -> TransportConfig {
        match self {
            Transport::Channel => TransportConfig::channel(),
            Transport::TcpThreads => TransportConfig::tcp_threads(),
            Transport::Tcp => TransportConfig::tcp_processes(),
        }
    }

    /// The per-layer metric that reports this transport's step time.
    pub fn metric(self) -> &'static str {
        match self {
            Transport::Channel => "runtime.transport.step_s.channel",
            Transport::TcpThreads => "runtime.transport.step_s.tcp-threads",
            Transport::Tcp => "runtime.transport.step_s.tcp",
        }
    }
}

/// A real-tensor fine-tuning workload. Shapes are the workload; only step
/// counts may be scaled to fit a time cap.
#[derive(Debug, Clone)]
pub struct RealSpec {
    pub dim: usize,
    pub heads: usize,
    pub ffn_hidden: usize,
    pub blocks: usize,
    pub top_k: usize,
    pub seq: usize,
    pub batch: usize,
    pub transport: Transport,
    /// Timed steps per round; a further tenth runs first and is discarded.
    pub steps: usize,
    /// Re-place experts every this many timed steps.
    pub replace_every: Option<usize>,
}

/// Experts per block of every workload (Mixtral's 8).
pub const EXPERTS: usize = 8;

impl RealSpec {
    /// Workers: one on the master's node, one on another node.
    pub fn workers(&self) -> Vec<DeviceId> {
        vec![DeviceId(1), DeviceId(2)]
    }

    pub fn tokens_per_step(&self) -> usize {
        self.batch * self.seq
    }

    /// Rows one expert sees per step when routing is even.
    pub fn rows_per_expert(&self) -> usize {
        (self.tokens_per_step() * self.top_k / EXPERTS).max(1)
    }

    pub fn model_config(&self) -> ModelConfig {
        ModelConfig {
            vocab: CharTokenizer::new().vocab_size(),
            dim: self.dim,
            heads: self.heads,
            kv_heads: self.heads,
            ffn_hidden: self.ffn_hidden,
            blocks: self.blocks,
            experts: EXPERTS,
            top_k: self.top_k,
            seq_len: self.seq,
            aux_loss_weight: 2e-3,
        }
    }
}

/// The paper's evaluation scale with virtual payloads.
#[derive(Debug, Clone)]
pub struct VirtualSpec {
    pub steps: usize,
}

#[derive(Debug, Clone)]
pub enum Workload {
    Real(RealSpec),
    Virtual(VirtualSpec),
}

pub const NAMES: [&str; 4] = [
    "ffn-heavy",
    "wire-heavy",
    "drift-replace",
    "mixtral-virtual",
];

/// Looks a workload up by its `BENCHMARK.json` name.
pub fn by_name(name: &str) -> Option<Workload> {
    Some(match name {
        // Compute-bound: wide experts, two blocks, in-process channels.
        "ffn-heavy" => Workload::Real(RealSpec {
            dim: 64,
            heads: 4,
            ffn_hidden: 1024,
            blocks: 2,
            top_k: 4,
            seq: 64,
            batch: 2,
            transport: Transport::Channel,
            steps: 50,
            replace_every: None,
        }),
        // Frame-bound: Mixtral depth at micro width over worker processes.
        "wire-heavy" => Workload::Real(RealSpec {
            dim: 32,
            heads: 2,
            ffn_hidden: 16,
            blocks: 32,
            top_k: 4,
            seq: 16,
            batch: 2,
            transport: Transport::Tcp,
            steps: 80,
            replace_every: None,
        }),
        // Parameter writes beside dispatch reads: a replica to keep in
        // sync and an owner swap every 20 steps.
        "drift-replace" => Workload::Real(RealSpec {
            dim: 64,
            heads: 2,
            ffn_hidden: 1024,
            blocks: 2,
            top_k: 2,
            seq: 32,
            batch: 2,
            transport: Transport::TcpThreads,
            steps: 80,
            replace_every: Some(20),
        }),
        "mixtral-virtual" => Workload::Virtual(VirtualSpec { steps: 150 }),
        _ => return None,
    })
}

/// Warm-up steps run before (and excluded from) `steps` timed ones.
pub fn warm_up(steps: usize) -> usize {
    steps.div_ceil(10)
}

/// Everything a real-tensor round needs, generated once per run.
pub struct RealInputs {
    pub cfg: ModelConfig,
    pub dataset: TokenDataset,
    model_ckpt: Vec<u8>,
    experts_ckpt: Vec<u8>,
    seed: u64,
}

impl RealInputs {
    /// Balanced pre-training, then seeded LoRA preparation and corpus.
    pub fn generate(spec: &RealSpec, seed: u64) -> Self {
        let cfg = spec.model_config();
        let pre = pretrain(
            &cfg,
            &PretrainConfig {
                steps: PRETRAIN_STEPS,
                batch_size: spec.batch,
                corpus_chars: 40_000,
                seed: PRETRAIN_SEED,
                ..PretrainConfig::default()
            },
        );
        let (mut model, mut experts) = (pre.model, pre.experts);
        prepare_for_finetune(
            &mut model,
            &mut experts,
            LoraConfig::default(),
            &mut DetRng::new(seed ^ 0xA5A5),
        );
        let mut model_ckpt = Vec::new();
        let mut experts_ckpt = Vec::new();
        checkpoint::save(&mut model, &mut model_ckpt).expect("in-memory save");
        checkpoint::save(&mut experts, &mut experts_ckpt).expect("in-memory save");
        let text = Corpus::WikiText.generate(60_000, seed ^ 0xC0);
        RealInputs {
            cfg,
            dataset: TokenDataset::from_text(&CharTokenizer::new(), &text),
            model_ckpt,
            experts_ckpt,
            seed,
        }
    }

    /// A bit-identical copy of the prepared model, through an in-memory
    /// checkpoint (the model types are not `Clone`).
    pub fn fresh_model(&self) -> (MoeModel, LocalExpertStore) {
        let mut rng = DetRng::new(0);
        let (mut model, mut experts) = MoeModel::new(&self.cfg, &mut rng);
        prepare_for_finetune(&mut model, &mut experts, LoraConfig::default(), &mut rng);
        checkpoint::load(&mut model, &mut self.model_ckpt.as_slice()).expect("in-memory load");
        checkpoint::load(&mut experts, &mut self.experts_ckpt.as_slice()).expect("in-memory load");
        (model, experts)
    }

    /// The batch order: the same in every round and in the local run.
    pub fn batch_rng(&self) -> DetRng {
        DetRng::new(self.seed ^ 0xF00D)
    }
}

/// Everything a virtual round needs.
pub struct VirtualInputs {
    pub topology: Topology,
    pub workers: Vec<DeviceId>,
    pub profile: LocalityProfile,
    /// Wall seconds `LocalityProfile::synthetic` took.
    pub profile_s: f64,
    pub scale: ScaleConfig,
}

impl VirtualInputs {
    /// Mixtral-8x7B on all six devices of the paper testbed, routing drawn
    /// from a Zipf(1.2) profile.
    pub fn generate(seed: u64) -> Self {
        let spec = MoeSpec::mixtral_8x7b();
        let topology = Topology::paper_testbed();
        let workers = topology.devices().iter().map(|d| d.id).collect();
        let mut scale = ScaleConfig::paper_default(spec);
        scale.seed = seed ^ 0x5CA1E;
        let (profile, profile_s) = trace::timed("locality.profile", || {
            LocalityProfile::synthetic("mixtral-virtual", spec.blocks, spec.experts, 1.2, seed)
        });
        VirtualInputs {
            topology,
            workers,
            profile,
            profile_s,
            scale,
        }
    }

    /// The placement problem: capacities from half of device memory.
    pub fn problem(&self) -> PlacementProblem {
        let spec = self.scale.spec;
        PlacementProblem::new(
            self.topology.clone(),
            MASTER,
            self.workers.clone(),
            self.profile.to_matrix(),
            (self.scale.tokens() * spec.top_k) as f64,
            spec.token_bytes(),
            capacity_from_memory(&self.topology, &self.workers, &spec, 0.5),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_warm_up_is_a_tenth() {
        for name in NAMES {
            assert!(by_name(name).is_some(), "{name}");
        }
        assert!(by_name("nope").is_none());
        assert_eq!(warm_up(100), 10);
        assert_eq!(warm_up(55), 6);
    }
}
