//! Ablation: LP + rounding vs greedy vs exhaustive-exact placement.
//!
//! On small instances (where the exact optimum is computable), measures the
//! optimality gap of VELA's LP + rounding pipeline and the greedy
//! heuristic; on paper-size instances, compares LP vs greedy quality and
//! solve time. Costs, node counts and iteration counts go to stdout, which
//! `results/ablation_solver.txt` pins; wall-clock times go to stderr.
//!
//! Run: `cargo run --release -p vela-bench --bin ablation_solver`

use std::time::Instant;

use vela::placement::exact::{branch_and_bound, optimal_placement};
use vela::placement::lp::build::build_lp;
use vela::prelude::*;

fn main() {
    println!("== Ablation: placement solver quality ==");

    // --- small instances with exact reference ------------------------------
    println!("\n-- tiny instances (2 blocks x 4 experts, 4 workers on 2 nodes) --");
    println!(
        "{:>5} | {:>10} | {:>10} | {:>10} | {:>10} | {:>9} | {:>9}",
        "seed", "exact", "vela", "greedy", "seq", "vela gap", "greedy gap"
    );
    let topology = Topology::builder(2, 2).build();
    for seed in 0..8u64 {
        let profile = LocalityProfile::synthetic("t", 2, 4, 1.3, seed);
        let problem = PlacementProblem::new(
            topology.clone(),
            DeviceId(0),
            (0..4).map(DeviceId).collect(),
            profile.to_matrix(),
            1000.0,
            8192,
            PlacementProblem::even_capacities(2, 4, 4, 1),
        );
        let (_, exact) = optimal_placement(&problem);
        let vela = problem.expected_comm_time(&Strategy::Vela.place(&problem));
        let greedy = problem.expected_comm_time(&Strategy::Greedy.place(&problem));
        let seq = problem.expected_comm_time(&Strategy::Sequential.place(&problem));
        println!(
            "{seed:>5} | {exact:>10.6} | {vela:>10.6} | {greedy:>10.6} | {seq:>10.6} | {:>8.1}% | {:>8.1}%",
            gap(vela, exact),
            gap(greedy, exact)
        );
    }

    // --- mid-size instances: branch-and-bound reference ---------------------
    println!("\n-- mid-size instances (4 blocks x 6 experts, 6 workers): LP-bounded B&B --");
    let topology6 = Topology::paper_testbed();
    for seed in [11u64, 12, 13] {
        let profile = LocalityProfile::synthetic("m", 4, 6, 1.2, seed);
        let problem = PlacementProblem::new(
            topology6.clone(),
            DeviceId(0),
            (0..6).map(DeviceId).collect(),
            profile.to_matrix(),
            1000.0,
            8192,
            PlacementProblem::even_capacities(4, 6, 6, 1),
        );
        let t0 = Instant::now();
        let bb = branch_and_bound(&problem, 2_000);
        let vela = problem.expected_comm_time(&Strategy::Vela.place(&problem));
        eprintln!("seed {seed}: B&B {:.2?}", t0.elapsed());
        println!(
            "seed {seed}: B&B {:.6} ({} nodes, optimal proven: {}), vela {:.6} (gap {:+.1}%)",
            bb.cost,
            bb.nodes,
            bb.proven_optimal,
            vela,
            gap(vela, bb.cost)
        );
    }

    // --- paper-size instance ------------------------------------------------
    println!("\n-- paper-size instance (32 blocks x 8 experts, 6 workers) --");
    let spec = MoeSpec::mixtral_8x7b();
    let topology = Topology::paper_testbed();
    let workers: Vec<DeviceId> = (0..6).map(DeviceId).collect();
    for zipf in [0.5, 1.0, 1.5] {
        let profile = LocalityProfile::synthetic("p", spec.blocks, spec.experts, zipf, 9);
        let caps =
            vela::runtime::virtual_engine::capacity_from_memory(&topology, &workers, &spec, 0.5);
        let problem = PlacementProblem::new(
            topology.clone(),
            DeviceId(0),
            workers.clone(),
            profile.to_matrix(),
            8192.0,
            spec.token_bytes(),
            caps,
        );
        let t0 = Instant::now();
        let vela_placement = Strategy::Vela.place(&problem);
        let lp_time = t0.elapsed();
        let t1 = Instant::now();
        let greedy_placement = Strategy::Greedy.place(&problem);
        let greedy_time = t1.elapsed();
        let vela = problem.expected_comm_time(&vela_placement);
        let greedy = problem.expected_comm_time(&greedy_placement);
        let seq = problem.expected_comm_time(&Strategy::Sequential.place(&problem));
        eprintln!("zipf {zipf:.1}: vela {lp_time:.2?}, greedy {greedy_time:.2?}");
        println!(
            "zipf {zipf:.1}: vela {vela:.4}s/step, greedy {greedy:.4}s/step, \
             sequential {seq:.4}s/step; vela vs greedy {:+.1}%",
            gap(vela, greedy)
        );
        // Where the LP's share of that time goes: iterations, not seconds,
        // are what a solver change may not move.
        let lp = build_lp(&problem);
        let t2 = Instant::now();
        let sol = lp.solve();
        let solve_time = t2.elapsed();
        println!(
            "          simplex: {} + {} iterations (phase 1 + 2)",
            sol.phase1_iterations,
            sol.iterations - sol.phase1_iterations,
        );
        eprintln!(
            "          simplex: {solve_time:.2?} per solve, {:.1} µs each",
            solve_time.as_secs_f64() * 1e6 / sol.iterations as f64
        );
    }
    println!("\n(LP solves the global capacity trade-off; greedy is per-block and myopic)");
}

fn gap(value: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        0.0
    } else {
        (value - reference) / reference * 100.0
    }
}
