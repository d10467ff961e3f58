//! Fig. 5 — cross-node traffic per node per fine-tuning step (§V-B).
//!
//! For each of the four settings (Mixtral / GritLM × WikiText / Alpaca) and
//! each strategy (EP, Sequential, Random, VELA), runs 500 scale-virtual
//! fine-tuning steps on the paper's 3-node × 2-GPU testbed and prints the
//! per-step average external traffic series plus the headline reductions.
//!
//! Run: `cargo run --release -p vela-bench --bin fig5 [-- --steps N]`

use vela::prelude::*;
use vela_bench::{eval_strategies, mb, measured_profile, pretrain_micro, EvalDataset, EvalModel};

fn main() {
    let steps: usize = std::env::args()
        .skip_while(|a| a != "--steps")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(500);
    println!("== Fig. 5: average cross-node traffic per node per step ({steps} steps) ==");

    for model in EvalModel::ALL {
        let spec = model.spec();
        let scale = ScaleConfig::paper_default(spec);
        vela_obs::info!(
            "pre-training {} micro proxy and measuring locality",
            model.name()
        );
        let (mut m, mut e) = pretrain_micro(model);
        for dataset in EvalDataset::ALL {
            let profile = measured_profile(&mut m, &mut e, dataset, &spec, model.seed());
            println!(
                "\n-- {} with {} (profile concentration {:.3}) --",
                model.name(),
                dataset.name(),
                profile.mean_concentration()
            );
            let mut ep_avg = None;
            let mut rows: Vec<(String, Vec<f64>, f64)> = Vec::new();
            for strategy in eval_strategies() {
                let (metrics, _) =
                    vela_bench::run_strategy(strategy, &profile, &spec, &scale, steps);
                let series: Vec<f64> = metrics
                    .iter()
                    .map(|s| s.traffic.external_avg_per_node())
                    .collect();
                let summary = RunSummary::from_steps(&metrics);
                if strategy.label() == "EP" {
                    ep_avg = Some(summary.avg_external_per_node);
                }
                rows.push((
                    strategy.label().to_string(),
                    series,
                    summary.avg_external_per_node,
                ));
            }

            println!(
                "{:>10} | traffic per node (MB) at steps 1,100,...,{steps} | avg | vs EP",
                "strategy"
            );
            let ep = ep_avg.expect("EP runs first");
            for (label, series, avg) in &rows {
                let samples: Vec<String> = series
                    .iter()
                    .step_by((steps / 5).max(1))
                    .map(|&b| mb(b))
                    .collect();
                let reduction = RunSummary::reduction_vs(*avg, ep) * 100.0;
                println!(
                    "{label:>10} | {} | {} MB | {reduction:+.1}%",
                    samples.join("  "),
                    mb(*avg),
                );
            }
            println!(
                "(paper: baselines ≈ equal with EP slightly higher; VELA lowest, -17..-25% vs EP)"
            );
        }
    }
}
