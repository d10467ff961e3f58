//! The paper's three-step rounding of the relaxed LP solution (§IV-B):
//!
//! 1. threshold at 0.5 (values above become 1);
//! 2. for overloaded workers, drop the assignments with the lowest relaxed
//!    values until capacity holds;
//! 3. assign every still-unplaced expert to the worker with spare capacity
//!    showing the strongest affinity (highest relaxed value).
//!
//! The result is always a feasible binary placement (property-tested in
//! `tests/`): every expert is assigned exactly once and no capacity is
//! exceeded.

use crate::problem::{Placement, PlacementProblem};

/// Rounds a relaxed assignment tensor `x[w][l][e] ∈ [0,1]` to a feasible
/// binary [`Placement`].
///
/// # Panics
/// Panics if the tensor shape disagrees with the problem, or if total
/// capacity cannot hold all experts (excluded by
/// [`PlacementProblem::new`]).
pub fn round_relaxed(problem: &PlacementProblem, x: &[Vec<Vec<f64>>]) -> Placement {
    let (n, l, e) = (problem.workers(), problem.blocks(), problem.experts());
    assert_eq!(x.len(), n, "worker dimension mismatch");

    // Step 1: threshold at 0.5. Rows sum to 1, so at most one worker
    // can exceed the threshold per expert.
    let mut assign: Vec<Vec<Option<usize>>> = vec![vec![None; e]; l];
    for (w, per_worker) in x.iter().enumerate() {
        assert_eq!(per_worker.len(), l, "block dimension mismatch");
        for (block, row) in per_worker.iter().enumerate() {
            assert_eq!(row.len(), e, "expert dimension mismatch");
            for (expert, &v) in row.iter().enumerate() {
                if v > 0.5 {
                    assign[block][expert] = Some(w);
                }
            }
        }
    }

    // Step 2: repair overloaded workers by dropping weakest assignments.
    let caps = problem.capacities();
    let mut load = vec![0usize; n];
    for row in &assign {
        for w in row.iter().flatten() {
            load[*w] += 1;
        }
    }
    for w in 0..n {
        while load[w] > caps[w] {
            // Find this worker's weakest assignment.
            let mut weakest: Option<(usize, usize, f64)> = None;
            for (block, row) in assign.iter().enumerate() {
                for (expert, a) in row.iter().enumerate() {
                    if *a == Some(w) {
                        let v = x[w][block][expert];
                        if weakest.is_none_or(|(_, _, best)| v < best) {
                            weakest = Some((block, expert, v));
                        }
                    }
                }
            }
            let (block, expert, _) = weakest.expect("overloaded worker has assignments");
            assign[block][expert] = None;
            load[w] -= 1;
        }
    }

    // Step 3: place unassigned experts by affinity among workers with
    // room. LP optima routinely split an expert's mass evenly across
    // equally-attractive workers, so affinity ties are broken by the
    // cheaper link (Eq. (6) coefficient), then by index for determinism.
    for block in 0..l {
        for expert in 0..e {
            if assign[block][expert].is_some() {
                continue;
            }
            let w = (0..n)
                .filter(|&w| load[w] < caps[w])
                .max_by(|&a, &b| {
                    let affinity = x[a][block][expert]
                        .partial_cmp(&x[b][block][expert])
                        .expect("no NaN affinities");
                    affinity.then_with(|| {
                        // Higher "max" preference = LOWER cost, then lower
                        // index (max_by keeps the last maximum).
                        problem
                            .coeff(b, block, expert)
                            .partial_cmp(&problem.coeff(a, block, expert))
                            .expect("no NaN costs")
                            .then(b.cmp(&a))
                    })
                })
                .expect("total capacity covers all experts");
            assign[block][expert] = Some(w);
            load[w] += 1;
        }
    }

    Placement::new(
        assign
            .into_iter()
            .map(|row| row.into_iter().map(|a| a.expect("assigned")).collect())
            .collect(),
        n,
    )
}

/// Monotone local-search polish of a feasible placement: repeatedly move
/// single experts (capacity permitting) or swap two experts of one block
/// whenever that lowers the Eq. (8) objective, until a fixed point (or
/// `max_passes`).
///
/// The LP relaxation often has many optimal vertices, and the paper's
/// threshold rounding can land a worse binary point from one vertex than
/// from another. Polishing removes that sensitivity: the result is never
/// worse than the raw rounding and empirically sits within a few percent
/// of the branch-and-bound optimum (see the `ablation_solver` harness).
pub fn polish_placement(
    problem: &PlacementProblem,
    mut placement: Placement,
    max_passes: usize,
) -> Placement {
    let (n, l, e) = (problem.workers(), problem.blocks(), problem.experts());
    let caps = problem.capacities();
    let mut load = placement.load();

    // Per-block per-worker expected times.
    let mut times: Vec<Vec<f64>> = (0..l)
        .map(|block| {
            let mut t = vec![0.0f64; n];
            for expert in 0..e {
                let w = placement.worker_of(block, expert);
                t[w] += problem.coeff(w, block, expert);
            }
            t
        })
        .collect();
    let block_max = |t: &[f64]| t.iter().cloned().fold(0.0f64, f64::max);

    for _ in 0..max_passes {
        let mut improved = false;
        for (block, block_times) in times.iter_mut().enumerate() {
            for expert in 0..e {
                let from = placement.worker_of(block, expert);
                let current = block_max(block_times);

                // Single moves.
                let mut best: Option<(usize, f64)> = None;
                for to in 0..n {
                    if to == from || load[to] >= caps[to] {
                        continue;
                    }
                    let mut t = block_times.clone();
                    t[from] -= problem.coeff(from, block, expert);
                    t[to] += problem.coeff(to, block, expert);
                    let cand = block_max(&t);
                    if cand < current - 1e-15 && best.as_ref().is_none_or(|&(_, b)| cand < b) {
                        best = Some((to, cand));
                    }
                }
                if let Some((to, _)) = best {
                    block_times[from] -= problem.coeff(from, block, expert);
                    block_times[to] += problem.coeff(to, block, expert);
                    load[from] -= 1;
                    load[to] += 1;
                    placement.set_worker(block, expert, to);
                    improved = true;
                    continue;
                }

                // Same-block swaps (capacity-neutral).
                for other in expert + 1..e {
                    let ow = placement.worker_of(block, other);
                    if ow == from {
                        continue;
                    }
                    let mut t = block_times.clone();
                    t[from] -= problem.coeff(from, block, expert);
                    t[from] += problem.coeff(from, block, other);
                    t[ow] -= problem.coeff(ow, block, other);
                    t[ow] += problem.coeff(ow, block, expert);
                    if block_max(&t) < block_max(block_times) - 1e-15 {
                        *block_times = t;
                        placement.set_worker(block, expert, ow);
                        placement.set_worker(block, other, from);
                        improved = true;
                        break;
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }
    placement
}

#[cfg(test)]
mod tests {
    use super::*;
    use vela_cluster::{DeviceId, Topology};

    fn problem(capacities: Vec<usize>) -> PlacementProblem {
        let workers = capacities.len();
        PlacementProblem::new(
            Topology::paper_testbed(),
            DeviceId(0),
            (0..workers).map(DeviceId).collect(),
            vec![vec![0.5, 0.3, 0.2], vec![0.6, 0.2, 0.2]],
            100.0,
            1024,
            capacities,
        )
    }

    #[test]
    fn clean_integral_solution_passes_through() {
        let p = problem(vec![3, 3]);
        let mut x = vec![vec![vec![0.0; 3]; 2]; 2];
        x[0][0][0] = 1.0;
        x[1][0][1] = 1.0;
        x[0][0][2] = 1.0;
        x[1][1][0] = 1.0;
        x[0][1][1] = 1.0;
        x[1][1][2] = 1.0;
        let placement = round_relaxed(&p, &x);
        assert_eq!(placement.worker_of(0, 0), 0);
        assert_eq!(placement.worker_of(0, 1), 1);
        assert_eq!(placement.worker_of(1, 2), 1);
        assert!(placement.respects_capacities(p.capacities()));
    }

    #[test]
    fn split_mass_gets_assigned_by_affinity() {
        let p = problem(vec![3, 3]);
        // Expert (0,0) split 0.5/0.5: unassigned at step 1, affinity tie
        // broken deterministically; expert (0,1) leaning 0.6 to worker 1.
        let mut x = vec![vec![vec![0.0; 3]; 2]; 2];
        x[0][0][0] = 0.5;
        x[1][0][0] = 0.5;
        x[0][0][1] = 0.4;
        x[1][0][1] = 0.6;
        x[0][0][2] = 1.0;
        x[0][1][0] = 1.0;
        x[1][1][1] = 1.0;
        x[1][1][2] = 1.0;
        let placement = round_relaxed(&p, &x);
        assert_eq!(placement.worker_of(0, 1), 1, "affinity 0.6 wins");
        assert!(placement.respects_capacities(p.capacities()));
    }

    #[test]
    fn overload_is_repaired_by_dropping_weakest() {
        let p = problem(vec![2, 4]);
        // Worker 0 gets 3 strong assignments but capacity 2; the weakest
        // (0.55) must move.
        let mut x = vec![vec![vec![0.0; 3]; 2]; 2];
        x[0][0][0] = 0.9;
        x[0][0][1] = 0.8;
        x[0][0][2] = 0.55;
        x[1][0][2] = 0.45;
        x[1][1][0] = 1.0;
        x[1][1][1] = 1.0;
        x[1][1][2] = 1.0;
        let placement = round_relaxed(&p, &x);
        assert_eq!(placement.worker_of(0, 0), 0);
        assert_eq!(placement.worker_of(0, 1), 0);
        assert_eq!(placement.worker_of(0, 2), 1, "weakest evicted to worker 1");
        assert!(placement.respects_capacities(p.capacities()));
    }

    #[test]
    fn tight_capacities_still_feasible() {
        let p = problem(vec![3, 3]);
        // All mass wants worker 0 (capacity 3), 6 experts total.
        let mut x = vec![vec![vec![0.0; 3]; 2]; 2];
        #[allow(clippy::needless_range_loop)]
        for l in 0..2 {
            for e in 0..3 {
                x[0][l][e] = 0.9;
                x[1][l][e] = 0.1;
            }
        }
        let placement = round_relaxed(&p, &x);
        assert!(placement.respects_capacities(p.capacities()));
        let load = placement.load();
        assert_eq!(load.iter().sum::<usize>(), 6);
        assert_eq!(load[0], 3);
        assert_eq!(load[1], 3);
    }

    #[test]
    fn polish_never_worsens_and_respects_capacity() {
        let p = problem(vec![3, 3]);
        let raw = Placement::new(vec![vec![1, 1, 1], vec![0, 0, 0]], 2);
        let before = p.expected_comm_time(&raw);
        let polished = polish_placement(&p, raw, 10);
        let after = p.expected_comm_time(&polished);
        assert!(after <= before + 1e-12, "{before} -> {after}");
        assert!(polished.respects_capacities(p.capacities()));
        assert_eq!(polished.load().iter().sum::<usize>(), 6);
    }

    #[test]
    fn polish_fixes_an_obviously_bad_assignment() {
        // Hot expert far from the master with a free slot available.
        let p = problem(vec![2, 4]);
        let bad = Placement::new(vec![vec![1, 1, 1], vec![1, 0, 0]], 2);
        let polished = polish_placement(&p, bad.clone(), 10);
        assert!(p.expected_comm_time(&polished) < p.expected_comm_time(&bad));
    }

    #[test]
    fn end_to_end_lp_plus_rounding_is_feasible() {
        let p = problem(vec![4, 4]);
        let sol = crate::lp::build::build_lp(&p).solve();
        let x = crate::lp::build::extract_relaxed(&p, &sol);
        let placement = round_relaxed(&p, &x);
        assert!(placement.respects_capacities(p.capacities()));
        assert_eq!(placement.load().iter().sum::<usize>(), 6);
    }
}
