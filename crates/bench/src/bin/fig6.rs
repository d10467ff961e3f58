//! Fig. 6 — average time to complete one fine-tuning step (§V-B).
//!
//! Same grid as Fig. 5; reports mean ± std of the simulated step time per
//! strategy, with the communication/compute/sync breakdown that explains
//! *why* VELA beats EP by more than the traffic reduction alone (EP pays a
//! status-synchronization round before every all-to-all).
//!
//! Run: `cargo run --release -p vela-bench --bin fig6 [-- --steps N]`

use vela::prelude::*;
use vela_bench::{eval_strategies, measured_profile, pretrain_micro, EvalDataset, EvalModel};

fn main() {
    let steps: usize = std::env::args()
        .skip_while(|a| a != "--steps")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    println!("== Fig. 6: average time per fine-tuning step ({steps} steps) ==");

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
            println!("\n-- {} with {} --", model.name(), dataset.name());
            println!(
                "{:>10} | {:>11} | {:>9} | {:>8} | {:>8} | {:>8} | {:>8} | {:>9} | {:>9} | {:>8}",
                "strategy",
                "transport",
                "step (s)",
                "± std",
                "p50",
                "p95",
                "p99",
                "comm (s)",
                "sync (s)",
                "vs EP"
            );
            let mut ep_time = None;
            for strategy in eval_strategies() {
                let (metrics, transport) =
                    vela_bench::run_strategy(strategy, &profile, &spec, &scale, steps);
                let summary = RunSummary::from_steps(&metrics);
                if strategy.label() == "EP" {
                    ep_time = Some(summary.avg_step_time);
                }
                let speedup =
                    RunSummary::reduction_vs(summary.avg_step_time, ep_time.expect("EP first"))
                        * 100.0;
                let (p50, p95, p99) = summary.step_time_percentiles();
                println!(
                    "{:>10} | {transport:>11} | {:>9.4} | {:>8.4} | {:>8.4} | {:>8.4} | {:>8.4} | {:>9.4} | {:>9.4} | {speedup:+7.1}%",
                    strategy.label(),
                    summary.avg_step_time,
                    summary.std_step_time,
                    p50,
                    p95,
                    p99,
                    summary.avg_comm_time,
                    summary.avg_sync_time,
                );
            }
            println!("(paper: VELA accelerates steps by 20.6%..28.2% vs EP)");
        }
    }
}
