//! Micro-bench: the placement LP at paper scale.
//!
//! The paper claims the LP "can be efficiently solved by off-the-shelf
//! solvers"; this bench demonstrates the from-scratch bounded simplex
//! handles the 6-worker × 32-block × 8-expert instance comfortably.
//!
//! Per size it prints the `Strategy::Vela` row (LP build + solve +
//! rounding), the solver's own row — Phase-1 and Phase-2 iteration counts,
//! seconds per solve, µs per iteration — and the greedy row, so "the LP got
//! faster" has a denominator that is not wall time. The iteration counts
//! are part of the solver's contract (`lp/simplex/pivot_path.rs` pins
//! them); the seconds are this host's.
//!
//! Run with `cargo bench -p vela-bench --bench simplex`.

use vela::placement::lp::build::build_lp;
use vela::prelude::*;
use vela_bench::microbench::{bench, format_secs, secs_per_iter};
use vela_bench::solver_bench_problem;

fn main() {
    for blocks in [8usize, 16, 32] {
        let p = solver_bench_problem(blocks);
        bench(&format!("placement_lp/vela_solve/{blocks}"), || {
            Strategy::Vela.place(&p)
        });
        let lp = build_lp(&p);
        let sol = lp.solve();
        let secs = secs_per_iter(5, 0.05, || lp.solve());
        println!(
            "{:<36} {} ({} + {} iterations, {:.1} µs each)",
            format!("placement_lp/simplex/{blocks}"),
            format_secs(secs),
            sol.phase1_iterations,
            sol.iterations - sol.phase1_iterations,
            secs * 1e6 / sol.iterations as f64
        );
        bench(&format!("placement_lp/greedy_solve/{blocks}"), || {
            Strategy::Greedy.place(&p)
        });
    }
}
