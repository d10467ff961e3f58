//! Ablation: traffic reduction as a function of access-distribution
//! concentration.
//!
//! Sweeps the Zipf skew of a synthetic locality profile from uniform to
//! heavily concentrated and measures VELA's external-traffic reduction vs
//! sequential placement on live virtual runs — quantifying the paper's
//! qualitative WikiText-vs-Alpaca observation.
//!
//! Run: `cargo run --release -p vela-bench --bin ablation_skew`

use vela::prelude::*;
use vela_bench::run_strategy;

fn main() {
    println!("== Ablation: benefit vs routing concentration (Zipf sweep) ==");
    let spec = MoeSpec::mixtral_8x7b();
    let scale = ScaleConfig {
        drift: 0.0,
        ..ScaleConfig::paper_default(spec)
    };
    let steps = 20;
    println!(
        "{:>6} | {:>13} | {:>12} | {:>12} | {:>9}",
        "zipf", "concentration", "seq (MB)", "vela (MB)", "reduction"
    );
    for zipf in [0.0, 0.4, 0.8, 1.2, 1.6, 2.0] {
        let profile = LocalityProfile::synthetic("s", spec.blocks, spec.experts, zipf, 21);
        let seq = RunSummary::from_steps(
            &run_strategy(Strategy::Sequential, &profile, &spec, &scale, steps).0,
        );
        let vela =
            RunSummary::from_steps(&run_strategy(Strategy::Vela, &profile, &spec, &scale, steps).0);
        println!(
            "{zipf:>6.1} | {:>13.3} | {:>12} | {:>12} | {:>8.1}%",
            profile.mean_concentration(),
            vela_bench::mb(seq.avg_external_per_node),
            vela_bench::mb(vela.avg_external_per_node),
            RunSummary::reduction_vs(vela.avg_external_per_node, seq.avg_external_per_node) * 100.0
        );
    }
    println!("\n(uniform routing -> no placement can win; concentration -> growing reduction)");
}
