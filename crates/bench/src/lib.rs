//! Shared harness code for the figure-reproduction binaries.
//!
//! Every figure of the paper's evaluation has a binary in `src/bin`:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig3` | Fig. 3(a–c): expert locality measurement study |
//! | `theorem1` | Theorem 1: empirical softmax-stability bound check |
//! | `fig5` | Fig. 5(a–d): cross-node traffic per step, 4 settings × 4 strategies |
//! | `fig6` | Fig. 6(a–d): average fine-tuning step time |
//! | `fig7` | Fig. 7(a,b): expert access heatmaps |
//! | `ablation_solver` | LP vs greedy vs exact optimality gap (DESIGN.md ablation) |
//! | `ablation_bandwidth` | benefit vs inter/intra bandwidth ratio |
//! | `ablation_skew` | benefit vs access-distribution concentration |
//! | `ablation_drift` | stale-profile robustness |
//! | `ablation_capacity` | benefit vs per-worker capacity pressure |
//! | `ablation_heterogeneous` | placement on heterogeneous inter-node links |
//!
//! Run with e.g. `cargo run --release -p vela-bench --bin fig5`.

pub mod alloc;

use vela::prelude::*;

/// The two evaluation models (§V-A). Both share the Mixtral-8x7B shape;
/// GritLM is a Mixtral derivative, modelled here as a different
/// pre-training seed (different expert specialisation, same architecture).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalModel {
    /// Mixtral-8x7B analogue.
    Mixtral,
    /// GritLM-8x7B analogue.
    GritLm,
}

impl EvalModel {
    /// All evaluation models.
    pub const ALL: [EvalModel; 2] = [EvalModel::Mixtral, EvalModel::GritLm];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EvalModel::Mixtral => "Mixtral",
            EvalModel::GritLm => "GritLM",
        }
    }

    /// The simulated full-scale shape.
    pub fn spec(self) -> MoeSpec {
        match self {
            EvalModel::Mixtral => MoeSpec::mixtral_8x7b(),
            EvalModel::GritLm => MoeSpec::gritlm_8x7b(),
        }
    }

    /// Pre-training seed of the micro proxy.
    pub fn seed(self) -> u64 {
        match self {
            EvalModel::Mixtral => 1001,
            EvalModel::GritLm => 2002,
        }
    }
}

/// The two fine-tuning datasets of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalDataset {
    /// WikiText analogue (narrow domain, concentrated access).
    WikiText,
    /// Alpaca analogue (broad instruction mix, more uniform access).
    Alpaca,
}

impl EvalDataset {
    /// All evaluation datasets.
    pub const ALL: [EvalDataset; 2] = [EvalDataset::WikiText, EvalDataset::Alpaca];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EvalDataset::WikiText => "WikiText",
            EvalDataset::Alpaca => "Alpaca",
        }
    }

    /// The synthetic corpus backing this dataset.
    pub fn corpus(self) -> Corpus {
        match self {
            EvalDataset::WikiText => Corpus::WikiText,
            EvalDataset::Alpaca => Corpus::Alpaca,
        }
    }
}

/// How many pre-training steps the micro proxies get in the harnesses
/// (calibrated: beyond ~600 steps the measured locality concentration
/// saturates; see EXPERIMENTS.md).
pub const MICRO_PRETRAIN_STEPS: usize = 600;

/// Pre-trains the micro proxy of `model`, caching the result under
/// `target/vela-cache/` so the fig5/fig6/fig7 harnesses share one
/// pre-training run per model (delete the cache to force a re-train).
pub fn pretrain_micro(model: EvalModel) -> (MoeModel, LocalExpertStore) {
    use vela::model::checkpoint;
    let cfg = ModelConfig::mixtral_micro(CharTokenizer::new().vocab_size());
    let dir = std::path::PathBuf::from("target/vela-cache");
    let tag = format!("micro-{}-{}", model.seed(), MICRO_PRETRAIN_STEPS);
    let model_path = dir.join(format!("{tag}-model.ckpt"));
    let experts_path = dir.join(format!("{tag}-experts.ckpt"));

    let pcfg = PretrainConfig {
        steps: MICRO_PRETRAIN_STEPS,
        batch_size: 8,
        corpus_chars: 120_000,
        seed: model.seed(),
        ..PretrainConfig::default()
    };
    if model_path.exists() && experts_path.exists() {
        // Rebuild the architecture exactly as pretrain() does, then load.
        let mut rng = DetRng::new(pcfg.seed);
        let (mut m, mut e) = MoeModel::new(&cfg, &mut rng);
        let ok = checkpoint::load_from_path(&mut m, &model_path).is_ok()
            && checkpoint::load_from_path(&mut e, &experts_path).is_ok();
        if ok {
            vela_obs::info!("using cached pre-trained micro model {tag}");
            return (m, e);
        }
        vela_obs::warn!("cache for {tag} unreadable; re-training");
    }
    let pre = pretrain(&cfg, &pcfg);
    let (mut m, mut e) = (pre.model, pre.experts);
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = checkpoint::save_to_path(&mut m, &model_path);
        let _ = checkpoint::save_to_path(&mut e, &experts_path);
    }
    (m, e)
}

/// Measures the locality profile of a (pre-trained, LoRA-prepared) micro
/// model on `dataset`, then upscales it to the full evaluation shape.
pub fn measured_profile(
    model: &mut MoeModel,
    experts: &mut LocalExpertStore,
    dataset: EvalDataset,
    spec: &MoeSpec,
    seed: u64,
) -> LocalityProfile {
    let tok = CharTokenizer::new();
    let text = dataset.corpus().generate(60_000, seed);
    let data = TokenDataset::from_text(&tok, &text);
    let micro = measure_locality(model, experts, &data, 8, 24);
    micro.upscale(spec.blocks, spec.experts, seed ^ 0xBEEF)
}

/// The strategies compared in Figs. 5–6, in the paper's legend order.
pub fn eval_strategies() -> Vec<Strategy> {
    vec![
        Strategy::ExpertParallel,
        Strategy::Sequential,
        Strategy::Random { seed: 77 },
        Strategy::Vela,
    ]
}

/// Builds the placement problem for a full-scale setting on the paper
/// testbed.
pub fn scale_problem(
    profile: &LocalityProfile,
    spec: &MoeSpec,
    topology: &Topology,
    scale: &ScaleConfig,
) -> PlacementProblem {
    let workers: Vec<DeviceId> = topology.devices().iter().map(|d| d.id).collect();
    let caps = vela::runtime::virtual_engine::capacity_from_memory(topology, &workers, spec, 0.5);
    PlacementProblem::new(
        topology.clone(),
        DeviceId(0),
        workers,
        profile.to_matrix(),
        (scale.tokens() * spec.top_k) as f64,
        spec.token_bytes(),
        caps,
    )
}

/// Runs one strategy of one setting for `steps` steps on the paper's
/// single-owner placement and returns the per-step metrics with the label
/// of the transport the engine that ran reports: EP runs its own engine,
/// which simulates its all-to-all locally (`local`); everything else runs
/// the master–worker virtual engine.
pub fn run_strategy(
    strategy: Strategy,
    profile: &LocalityProfile,
    spec: &MoeSpec,
    scale: &ScaleConfig,
    steps: usize,
) -> (Vec<StepMetrics>, &'static str) {
    let topology = Topology::paper_testbed();
    let workers: Vec<DeviceId> = topology.devices().iter().map(|d| d.id).collect();
    match strategy {
        Strategy::ExpertParallel => {
            let mut ep = EpEngine::new(topology, workers, profile.clone(), scale.clone());
            (ep.run(steps), ep.transport_label())
        }
        _ => {
            let problem = scale_problem(profile, spec, &topology, scale);
            let mut engine = VirtualEngine::launch_with(
                TransportConfig::from_env(),
                topology,
                DeviceId(0),
                workers,
                strategy.place(&problem),
                profile.clone(),
                scale.clone(),
            );
            let metrics = engine.run(steps);
            let transport = engine.transport_label();
            engine.shutdown();
            (metrics, transport)
        }
    }
}

/// The placement problem of the solver micro-bench: the paper's six
/// workers, Mixtral's 8 experts per block, a Zipf(1.2) profile and 5 spare
/// slots per worker. `blocks = 32` is the paper-size instance whose pivot
/// path `vela-placement` pins.
pub fn solver_bench_problem(blocks: usize) -> PlacementProblem {
    let spec = MoeSpec::mixtral_8x7b();
    let profile = LocalityProfile::synthetic("b", blocks, spec.experts, 1.2, 3);
    PlacementProblem::new(
        Topology::paper_testbed(),
        DeviceId(0),
        (0..6).map(DeviceId).collect(),
        profile.to_matrix(),
        8192.0,
        spec.token_bytes(),
        PlacementProblem::even_capacities(blocks, spec.experts, 6, 5),
    )
}

/// Formats bytes as mebibytes with one decimal.
pub fn mb(bytes: f64) -> String {
    format!("{:.1}", bytes / (1024.0 * 1024.0))
}

/// Dependency-free micro-benchmark timing: warmup, auto-calibrated batch
/// sizes, best-of-samples reporting. Replaces the former Criterion
/// harness (the build environment has no crates.io access).
pub mod microbench {
    use std::hint::black_box;
    use std::time::Instant;

    /// Best (minimum) seconds per iteration of `f`, measured over
    /// `samples` batches after one warmup batch. The minimum estimates the
    /// noise floor — scheduler preemption and allocator hiccups only ever
    /// inflate a sample, so the smallest one is the most repeatable,
    /// which keeps ratios between measurements stable on busy hosts. The
    /// batch size is calibrated so one batch takes roughly
    /// `target_batch_secs`.
    pub fn secs_per_iter<R>(
        samples: usize,
        target_batch_secs: f64,
        mut f: impl FnMut() -> R,
    ) -> f64 {
        // Calibrate: grow the batch until it is long enough to time.
        let mut batch = 1usize;
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed >= target_batch_secs || batch >= 1 << 20 {
                break;
            }
            let growth = if elapsed > 1e-6 {
                ((target_batch_secs / elapsed) * 1.2).ceil() as usize
            } else {
                16
            };
            batch = (batch * growth.max(2)).min(1 << 20);
        }
        (0..samples.max(1))
            .map(|_| {
                let start = Instant::now();
                for _ in 0..batch {
                    black_box(f());
                }
                start.elapsed().as_secs_f64() / batch as f64
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// One named measurement, for the report/JSON emitters.
    #[derive(Debug, Clone)]
    pub struct Measurement {
        /// Benchmark id, e.g. `matmul_256`.
        pub name: String,
        /// Best seconds per iteration.
        pub secs: f64,
    }

    /// Measures `f` and prints a one-line report.
    pub fn bench<R>(name: &str, f: impl FnMut() -> R) -> Measurement {
        let secs = secs_per_iter(5, 0.05, f);
        let m = Measurement {
            name: name.to_string(),
            secs,
        };
        println!("{:<36} {}", m.name, format_secs(m.secs));
        m
    }

    /// Human-friendly duration formatting.
    pub fn format_secs(secs: f64) -> String {
        if secs >= 1.0 {
            format!("{secs:.3} s")
        } else if secs >= 1e-3 {
            format!("{:.3} ms", secs * 1e3)
        } else if secs >= 1e-6 {
            format!("{:.3} µs", secs * 1e6)
        } else {
            format!("{:.1} ns", secs * 1e9)
        }
    }
}

/// Renders a probability as a heatmap cell (darker = hotter), used by the
/// fig7 ASCII heatmaps.
pub fn heat_cell(p: f64) -> char {
    const RAMP: [char; 8] = [' ', '.', ':', '-', '=', '+', '#', '@'];
    let idx = ((p * 2.5).min(0.999) * RAMP.len() as f64) as usize;
    RAMP[idx.min(RAMP.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_enums_cover_the_grid() {
        assert_eq!(EvalModel::ALL.len() * EvalDataset::ALL.len(), 4);
        assert_eq!(EvalModel::Mixtral.spec().blocks, 32);
        assert_eq!(EvalDataset::WikiText.corpus(), Corpus::WikiText);
        assert_ne!(EvalModel::Mixtral.seed(), EvalModel::GritLm.seed());
    }

    #[test]
    fn heat_cells_are_monotone() {
        let cells: Vec<char> = [0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.9]
            .iter()
            .map(|&p| heat_cell(p))
            .collect();
        const RAMP: [char; 8] = [' ', '.', ':', '-', '=', '+', '#', '@'];
        let ranks: Vec<usize> = cells
            .iter()
            .map(|c| RAMP.iter().position(|r| r == c).unwrap())
            .collect();
        for w in ranks.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn mb_formats() {
        assert_eq!(mb(1048576.0), "1.0");
        assert_eq!(mb(866.0 * 1048576.0), "866.0");
    }

    #[test]
    fn strategies_list_matches_paper_order() {
        let labels: Vec<&str> = eval_strategies().iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["EP", "Sequential", "Random", "Vela"]);
    }
}
