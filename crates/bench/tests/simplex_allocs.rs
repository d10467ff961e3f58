//! The simplex allocates while it builds its tableau and when it returns
//! the solution — never per iteration. Process-wide counting, so this file
//! holds one test.

use vela::placement::lp::build::build_lp;
use vela_bench::alloc::{count_allocations, CountingAllocator};
use vela_bench::solver_bench_problem;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn a_solve_allocates_the_same_whatever_its_iteration_count() {
    let small = build_lp(&solver_bench_problem(8));
    let paper = build_lp(&solver_bench_problem(32));
    let (small_allocs, small_sol) = count_allocations(|| small.solve());
    let (paper_allocs, paper_sol) = count_allocations(|| paper.solve());
    assert!(paper_sol.iterations > 4 * small_sol.iterations);
    assert_eq!(paper_allocs, small_allocs);
    assert!(
        paper_allocs <= 16,
        "{paper_allocs} allocations in one solve"
    );
}
