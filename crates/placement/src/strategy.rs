//! Placement strategies: VELA's locality-aware LP plus every baseline the
//! evaluation compares against.

use vela_tensor::rng::DetRng;

use crate::lp::{build, rounding};
use crate::problem::{Placement, PlacementProblem};
use crate::LpStatus;

/// A named expert-placement strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Conventional expert parallelism's mapping: expert `e` of every block
    /// goes to worker `e mod N` (the paper's EP baseline, Fig. 2).
    ExpertParallel,
    /// Sequential placement inside VELA's framework (baseline 1, §V-A).
    Sequential,
    /// Random shuffle of all experts across workers (baseline 2, §V-A).
    Random {
        /// Shuffle seed.
        seed: u64,
    },
    /// VELA's locality-aware placement: LP relaxation + rounding.
    Vela,
    /// Greedy per-block balancing by descending access probability — an
    /// ablation, not in the paper.
    Greedy,
}

impl Strategy {
    /// The label used in harness output (matches the paper's legends).
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::ExpertParallel => "EP",
            Strategy::Sequential => "Sequential",
            Strategy::Random { .. } => "Random",
            Strategy::Vela => "Vela",
            Strategy::Greedy => "Greedy",
        }
    }

    /// Computes the placement for `problem`.
    ///
    /// # Panics
    /// Panics if the LP relaxation fails to solve (cannot happen for
    /// problems validated by [`PlacementProblem::new`], whose relaxations
    /// are always feasible and bounded).
    pub fn place(&self, problem: &PlacementProblem) -> Placement {
        match self {
            Strategy::ExpertParallel => sequential(problem),
            Strategy::Sequential => sequential(problem),
            Strategy::Random { seed } => random(problem, *seed),
            Strategy::Vela => vela(problem),
            Strategy::Greedy => greedy(problem),
        }
    }
}

/// Expert `e` of block `l` → worker `e mod N` (capacity-aware spillover to
/// the next worker if a slot is full).
fn sequential(problem: &PlacementProblem) -> Placement {
    let (n, l, e) = (problem.workers(), problem.blocks(), problem.experts());
    let caps = problem.capacities();
    let mut load = vec![0usize; n];
    let mut assign = vec![vec![0usize; e]; l];
    for (block, row) in assign.iter_mut().enumerate() {
        for (expert, slot) in row.iter_mut().enumerate() {
            let mut w = expert % n;
            let mut hops = 0;
            while load[w] >= caps[w] {
                w = (w + 1) % n;
                hops += 1;
                assert!(hops <= n, "no capacity left anywhere");
            }
            let _ = block;
            load[w] += 1;
            *slot = w;
        }
    }
    Placement::new(assign, n)
}

/// Random shuffle of all `(block, expert)` pairs over worker slots.
fn random(problem: &PlacementProblem, seed: u64) -> Placement {
    let (n, l, e) = (problem.workers(), problem.blocks(), problem.experts());
    let caps = problem.capacities();
    let mut rng = DetRng::new(seed);
    // Build the multiset of available slots, shuffle, deal them out.
    let mut slots = Vec::new();
    for (w, &c) in caps.iter().enumerate() {
        slots.extend(std::iter::repeat_n(w, c));
    }
    rng.shuffle(&mut slots);
    let mut assign = vec![vec![0usize; e]; l];
    let mut cursor = 0;
    for row in assign.iter_mut() {
        for slot in row.iter_mut() {
            *slot = slots[cursor];
            cursor += 1;
        }
    }
    Placement::new(assign, n)
}

/// VELA: LP relaxation + the paper's rounding.
///
/// A solve that stops at the iteration limit still yields a usable relaxed
/// tensor — the rounding procedure repairs any residual infeasibility — so
/// only genuinely infeasible/unbounded formulations (excluded by
/// [`PlacementProblem::new`]) abort.
fn vela(problem: &PlacementProblem) -> Placement {
    let sol = build::build_lp(problem).solve();
    assert!(
        matches!(sol.status, LpStatus::Optimal | LpStatus::IterationLimit),
        "placement LP must solve (status {})",
        sol.status
    );
    if sol.status == LpStatus::IterationLimit {
        vela_obs::warn!(
            "placement LP stopped at the iteration limit after {} iterations; rounding a \
             non-optimal relaxation",
            sol.iterations
        );
    }
    let x = build::extract_relaxed(problem, &sol);
    let rounded = rounding::round_relaxed(problem, &x);
    rounding::polish_placement(problem, rounded, 8)
}

/// Greedy ablation: within each block, assign experts in descending
/// probability order to the worker that minimizes the block's resulting
/// max-time (ties by the worker's own new time), subject to capacity.
/// Greedy is *local* per block, so unlike the LP it can burn cheap-link
/// capacity on early blocks — the solver ablation quantifies this.
fn greedy(problem: &PlacementProblem) -> Placement {
    let (n, l, e) = (problem.workers(), problem.blocks(), problem.experts());
    let caps = problem.capacities();
    let mut load = vec![0usize; n];
    let mut assign = vec![vec![0usize; e]; l];
    #[allow(clippy::needless_range_loop)] // block indexes probs and assign together
    for block in 0..l {
        let mut order: Vec<usize> = (0..e).collect();
        order.sort_by(|&a, &b| {
            problem.probs()[block][b]
                .partial_cmp(&problem.probs()[block][a])
                .expect("no NaN probabilities")
        });
        let mut worker_time = vec![0.0f64; n];
        for &expert in &order {
            let block_max = worker_time.iter().cloned().fold(0.0, f64::max);
            let w = (0..n)
                .filter(|&w| load[w] < caps[w])
                .min_by(|&a, &b| {
                    let va = worker_time[a] + problem.coeff(a, block, expert);
                    let vb = worker_time[b] + problem.coeff(b, block, expert);
                    let ma = block_max.max(va);
                    let mb = block_max.max(vb);
                    (ma, va).partial_cmp(&(mb, vb)).expect("no NaN times")
                })
                .expect("capacity exhausted");
            worker_time[w] += problem.coeff(w, block, expert);
            load[w] += 1;
            assign[block][expert] = w;
        }
    }
    Placement::new(assign, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vela_cluster::{DeviceId, Topology};

    fn skewed_problem() -> PlacementProblem {
        // 4 blocks × 6 experts on the paper's 6 workers; expert 0 of every
        // block is hot.
        let probs: Vec<Vec<f64>> = (0..4)
            .map(|_| vec![0.55, 0.15, 0.1, 0.1, 0.05, 0.05])
            .collect();
        PlacementProblem::new(
            Topology::paper_testbed(),
            DeviceId(0),
            (0..6).map(DeviceId).collect(),
            probs,
            768.0,
            8192,
            PlacementProblem::even_capacities(4, 6, 6, 2),
        )
    }

    #[test]
    fn all_strategies_produce_feasible_placements() {
        let p = skewed_problem();
        for s in [
            Strategy::ExpertParallel,
            Strategy::Sequential,
            Strategy::Random { seed: 1 },
            Strategy::Vela,
            Strategy::Greedy,
        ] {
            let placement = s.place(&p);
            assert!(
                placement.respects_capacities(p.capacities()),
                "{} violates capacity",
                s.label()
            );
            assert_eq!(placement.load().iter().sum::<usize>(), 24, "{}", s.label());
        }
    }

    #[test]
    fn sequential_distributes_round_robin() {
        let p = skewed_problem();
        let placement = Strategy::Sequential.place(&p);
        for block in 0..4 {
            for expert in 0..6 {
                assert_eq!(placement.worker_of(block, expert), expert % 6);
            }
        }
    }

    #[test]
    fn random_is_seed_deterministic() {
        let p = skewed_problem();
        let a = Strategy::Random { seed: 9 }.place(&p);
        let b = Strategy::Random { seed: 9 }.place(&p);
        let c = Strategy::Random { seed: 10 }.place(&p);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn vela_beats_baselines_on_skewed_profile() {
        let p = skewed_problem();
        let vela_time = p.expected_comm_time(&Strategy::Vela.place(&p));
        let seq_time = p.expected_comm_time(&Strategy::Sequential.place(&p));
        let rand_time = p.expected_comm_time(&Strategy::Random { seed: 3 }.place(&p));
        assert!(
            vela_time < seq_time,
            "vela {vela_time} vs sequential {seq_time}"
        );
        assert!(
            vela_time < rand_time,
            "vela {vela_time} vs random {rand_time}"
        );
    }

    #[test]
    fn vela_puts_hot_experts_near_the_master() {
        let p = skewed_problem();
        let placement = Strategy::Vela.place(&p);
        // The hot expert (index 0) of each block should land on the
        // master's node (workers 0/1 in the paper testbed) — a zero- or
        // cheap-transfer location.
        let master_node_workers = [0usize, 1];
        let mut hot_near = 0;
        for block in 0..4 {
            if master_node_workers.contains(&placement.worker_of(block, 0)) {
                hot_near += 1;
            }
        }
        assert!(
            hot_near >= 3,
            "expected hot experts near master, got {hot_near}/4"
        );
    }

    #[test]
    fn vela_matches_lp_bound_reasonably() {
        let p = skewed_problem();
        let sol = build::build_lp(&p).solve();
        let placement = Strategy::Vela.place(&p);
        let rounded = p.expected_comm_time(&placement);
        assert!(
            rounded <= sol.objective * 2.0 + 1e-9,
            "rounding gap too large: LP {} vs rounded {rounded}",
            sol.objective
        );
    }

    #[test]
    fn greedy_with_generous_capacity_beats_sequential() {
        // With room to spare, per-block greedy can always use the free
        // master-colocated worker.
        let probs: Vec<Vec<f64>> = (0..4)
            .map(|_| vec![0.55, 0.15, 0.1, 0.1, 0.05, 0.05])
            .collect();
        let p = PlacementProblem::new(
            Topology::paper_testbed(),
            DeviceId(0),
            (0..6).map(DeviceId).collect(),
            probs,
            768.0,
            8192,
            vec![24; 6],
        );
        let greedy_time = p.expected_comm_time(&Strategy::Greedy.place(&p));
        let seq_time = p.expected_comm_time(&Strategy::Sequential.place(&p));
        assert!(
            greedy_time <= seq_time,
            "greedy {greedy_time} vs seq {seq_time}"
        );
    }

    #[test]
    fn vela_global_view_beats_local_greedy_under_tight_capacity() {
        let p = skewed_problem();
        let greedy_time = p.expected_comm_time(&Strategy::Greedy.place(&p));
        let vela_time = p.expected_comm_time(&Strategy::Vela.place(&p));
        assert!(
            vela_time <= greedy_time + 1e-9,
            "vela {vela_time} vs greedy {greedy_time}"
        );
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Strategy::ExpertParallel.label(), "EP");
        assert_eq!(Strategy::Vela.label(), "Vela");
        assert_eq!(Strategy::Random { seed: 0 }.label(), "Random");
    }

    #[test]
    fn uniform_profile_gives_vela_no_edge() {
        // With perfectly uniform access, every placement has the same
        // expected external traffic; Vela must not be *worse*.
        let probs: Vec<Vec<f64>> = (0..3).map(|_| vec![1.0 / 6.0; 6]).collect();
        let p = PlacementProblem::new(
            Topology::paper_testbed(),
            DeviceId(0),
            (0..6).map(DeviceId).collect(),
            probs,
            768.0,
            8192,
            PlacementProblem::even_capacities(3, 6, 6, 1),
        );
        // Under a uniform profile no placement can beat another on
        // *expected traffic shape*; VELA must at least not ship more bytes
        // off-node than the baseline (it packs the master node first).
        let vela_bytes = p.expected_external_bytes(&Strategy::Vela.place(&p));
        let seq_bytes = p.expected_external_bytes(&Strategy::Sequential.place(&p));
        assert!(
            vela_bytes <= seq_bytes + 1e-9,
            "vela {vela_bytes} vs seq {seq_bytes}"
        );
    }
}
