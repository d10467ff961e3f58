//! The expert-placement problem and placement representation.

use vela_cluster::{DeviceId, Topology};

/// An expert-to-worker assignment: `assign[l][e]` is the index (into the
/// problem's worker list) hosting expert `e` of block `l`.
///
/// This is the binary tensor `X` of the paper, stored densely by its
/// one-hot position.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Placement {
    assign: Vec<Vec<usize>>,
    workers: usize,
}

impl Placement {
    /// Creates a placement from an explicit assignment matrix.
    ///
    /// # Panics
    /// Panics if `assign` is empty/ragged or references a worker index
    /// `≥ workers`.
    pub fn new(assign: Vec<Vec<usize>>, workers: usize) -> Self {
        assert!(!assign.is_empty(), "placement needs at least one block");
        let experts = assign[0].len();
        assert!(experts > 0, "placement needs at least one expert");
        for row in &assign {
            assert_eq!(row.len(), experts, "ragged placement rows");
            for &w in row {
                assert!(w < workers, "worker index {w} out of {workers}");
            }
        }
        Placement { assign, workers }
    }

    /// Number of MoE blocks.
    pub fn blocks(&self) -> usize {
        self.assign.len()
    }

    /// Experts per block.
    pub fn experts(&self) -> usize {
        self.assign[0].len()
    }

    /// Number of workers this placement targets.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The worker hosting expert `e` of block `l`.
    ///
    /// # Panics
    /// Panics if indices are out of range.
    pub fn worker_of(&self, block: usize, expert: usize) -> usize {
        self.assign[block][expert]
    }

    /// Number of experts per worker.
    pub fn load(&self) -> Vec<usize> {
        let mut load = vec![0usize; self.workers];
        for row in &self.assign {
            for &w in row {
                load[w] += 1;
            }
        }
        load
    }

    /// Reassigns one expert to a different worker (live migration).
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn set_worker(&mut self, block: usize, expert: usize, worker: usize) {
        assert!(worker < self.workers, "worker index {worker} out of range");
        self.assign[block][expert] = worker;
    }

    /// Checks per-worker capacity limits.
    pub fn respects_capacities(&self, capacities: &[usize]) -> bool {
        self.load()
            .iter()
            .zip(capacities)
            .all(|(&used, &cap)| used <= cap)
    }
}

/// The optimization problem of §IV-B: place `L × E` experts on `N` workers
/// to minimize expected per-step communication time.
#[derive(Debug, Clone)]
pub struct PlacementProblem {
    topology: Topology,
    master: DeviceId,
    workers: Vec<DeviceId>,
    /// `P ∈ R^{L×E}` — access probabilities, rows sum to 1.
    probs: Vec<Vec<f64>>,
    /// Expected token-assignments per block per step (`K · top_k`).
    assignments_per_step: f64,
    /// Bytes per routed token (`b·H/8`).
    token_bytes: u64,
    /// Max experts per worker (`C_n`).
    capacities: Vec<usize>,
}

impl PlacementProblem {
    /// Builds a problem instance.
    ///
    /// `assignments_per_step` is the expected number of (token, expert)
    /// assignments entering each MoE block per step, i.e.
    /// `batch·seq·top_k`.
    ///
    /// # Panics
    /// Panics on inconsistent shapes, non-distribution probability rows, or
    /// total capacity below the expert count.
    pub fn new(
        topology: Topology,
        master: DeviceId,
        workers: Vec<DeviceId>,
        probs: Vec<Vec<f64>>,
        assignments_per_step: f64,
        token_bytes: u64,
        capacities: Vec<usize>,
    ) -> Self {
        assert!(!workers.is_empty(), "need at least one worker");
        assert_eq!(workers.len(), capacities.len(), "one capacity per worker");
        assert!(!probs.is_empty(), "need at least one block");
        let experts = probs[0].len();
        for row in &probs {
            assert_eq!(row.len(), experts, "ragged probability rows");
            let sum: f64 = row.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-3 && row.iter().all(|&p| p >= 0.0),
                "probability rows must be distributions (sum {sum})"
            );
        }
        let total_cap: usize = capacities.iter().sum();
        assert!(
            total_cap >= probs.len() * experts,
            "total capacity {total_cap} below expert count {}",
            probs.len() * experts
        );
        assert!(assignments_per_step > 0.0, "need positive token load");
        PlacementProblem {
            topology,
            master,
            workers,
            probs,
            assignments_per_step,
            token_bytes,
            capacities,
        }
    }

    /// Number of MoE blocks `L`.
    pub fn blocks(&self) -> usize {
        self.probs.len()
    }

    /// Experts per block `E`.
    pub fn experts(&self) -> usize {
        self.probs[0].len()
    }

    /// Number of workers `N`.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The worker device list.
    pub fn worker_devices(&self) -> &[DeviceId] {
        &self.workers
    }

    /// The master device.
    pub fn master(&self) -> DeviceId {
        self.master
    }

    /// Per-worker capacities `C_n`.
    pub fn capacities(&self) -> &[usize] {
        &self.capacities
    }

    /// The probability matrix `P`.
    pub fn probs(&self) -> &[Vec<f64>] {
        &self.probs
    }

    /// The cluster topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Expected token-assignments per block per step.
    pub fn assignments_per_step(&self) -> f64 {
        self.assignments_per_step
    }

    /// Bytes per routed token.
    pub fn token_bytes(&self) -> u64 {
        self.token_bytes
    }

    /// Effective master↔worker bandwidth `B_n` in bytes/s; infinite when
    /// the worker shares the master's device (no transfer needed).
    pub fn worker_bandwidth(&self, worker: usize) -> f64 {
        let dev = self.workers[worker];
        if dev == self.master {
            f64::INFINITY
        } else {
            self.topology.bandwidth(self.master, dev).bytes_per_sec()
        }
    }

    /// The per-unit cost coefficient of Eq. (6) for `(worker, block,
    /// expert)`: expected seconds contributed per step if that expert lands
    /// on that worker (`2 · token_bytes · K · P_{l,e} / B_n`, forward
    /// dispatch + gather).
    pub fn coeff(&self, worker: usize, block: usize, expert: usize) -> f64 {
        let bw = self.worker_bandwidth(worker);
        if bw.is_infinite() {
            0.0
        } else {
            2.0 * self.token_bytes as f64 * self.assignments_per_step * self.probs[block][expert]
                / bw
        }
    }

    /// The objective of Eq. (8): `Σ_l max_n E[T_{n,l}]` for a concrete
    /// placement.
    ///
    /// # Panics
    /// Panics if the placement shape disagrees with the problem.
    pub fn expected_comm_time(&self, placement: &Placement) -> f64 {
        assert_eq!(placement.blocks(), self.blocks(), "block count mismatch");
        assert_eq!(placement.experts(), self.experts(), "expert count mismatch");
        assert_eq!(placement.workers(), self.workers(), "worker count mismatch");
        let mut total = 0.0;
        for l in 0..self.blocks() {
            let mut per_worker = vec![0.0f64; self.workers()];
            for e in 0..self.experts() {
                let w = placement.worker_of(l, e);
                per_worker[w] += self.coeff(w, l, e);
            }
            total += per_worker.iter().cloned().fold(0.0, f64::max);
        }
        total
    }

    /// Expected cross-node bytes per step for a placement (sent +
    /// received across node boundaries, totalled) — the Fig. 5 quantity
    /// in expectation.
    pub fn expected_external_bytes(&self, placement: &Placement) -> f64 {
        let mut bytes = 0.0;
        let master_node = self.topology.node_of(self.master);
        for l in 0..self.blocks() {
            for e in 0..self.experts() {
                let w = placement.worker_of(l, e);
                let dev = self.workers[w];
                if self.topology.node_of(dev) != master_node {
                    // dispatch + gather
                    bytes += 2.0
                        * self.token_bytes as f64
                        * self.assignments_per_step
                        * self.probs[l][e];
                }
            }
        }
        bytes
    }

    /// Uniform capacities that fit all experts with `slack` spare slots per
    /// worker.
    pub fn even_capacities(
        blocks: usize,
        experts: usize,
        workers: usize,
        slack: usize,
    ) -> Vec<usize> {
        let per = (blocks * experts).div_ceil(workers) + slack;
        vec![per; workers]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_problem() -> PlacementProblem {
        let topology = Topology::paper_testbed();
        let workers: Vec<DeviceId> = (0..6).map(DeviceId).collect();
        // 2 blocks × 3 experts; block 0 skewed to expert 0.
        let probs = vec![vec![0.8, 0.1, 0.1], vec![0.2, 0.3, 0.5]];
        PlacementProblem::new(
            topology,
            DeviceId(0),
            workers,
            probs,
            1000.0,
            8192,
            PlacementProblem::even_capacities(2, 3, 6, 1),
        )
    }

    #[test]
    fn placement_accessors() {
        let p = Placement::new(vec![vec![0, 1, 2], vec![2, 1, 0]], 3);
        assert_eq!(p.blocks(), 2);
        assert_eq!(p.experts(), 3);
        assert_eq!(p.worker_of(1, 0), 2);
        assert_eq!(p.load(), vec![2, 2, 2]);
        assert!(p.respects_capacities(&[2, 2, 2]));
        assert!(!p.respects_capacities(&[1, 2, 2]));
    }

    #[test]
    fn set_worker() {
        let mut a = Placement::new(vec![vec![0, 1], vec![2, 0]], 3);
        a.set_worker(1, 0, 1);
        assert_eq!(a.worker_of(1, 0), 1);
    }

    #[test]
    fn master_colocated_worker_is_free() {
        let p = toy_problem();
        assert!(p.worker_bandwidth(0).is_infinite());
        assert_eq!(p.coeff(0, 0, 0), 0.0);
        assert!(p.coeff(2, 0, 0) > 0.0);
    }

    #[test]
    fn coeff_scales_with_probability_and_bandwidth() {
        let p = toy_problem();
        // Same worker: coeff proportional to probability.
        assert!(p.coeff(2, 0, 0) > 7.9 * p.coeff(2, 0, 1));
        // Hot expert: remote (cross-node) worker costs more than same-node.
        assert!(p.coeff(2, 0, 0) > 10.0 * p.coeff(1, 0, 0));
    }

    #[test]
    fn hot_expert_near_master_beats_remote() {
        let p = toy_problem();
        // Hot expert 0 of block 0 on master's device vs on a remote node.
        let near = Placement::new(vec![vec![0, 2, 3], vec![4, 5, 1]], 6);
        let far = Placement::new(vec![vec![4, 2, 3], vec![0, 5, 1]], 6);
        assert!(p.expected_comm_time(&near) < p.expected_comm_time(&far));
        assert!(p.expected_external_bytes(&near) < p.expected_external_bytes(&far));
    }

    #[test]
    fn objective_is_sum_of_block_maxima() {
        let p = toy_problem();
        // All experts of both blocks on a single remote worker: time is the
        // whole block's traffic over one link.
        let all_on_2 = Placement::new(vec![vec![2, 2, 2], vec![2, 2, 2]], 6);
        // Need capacity 6 on worker 2 for validity of comparison only.
        let t = p.expected_comm_time(&all_on_2);
        // 2 blocks × 2·8192·1000 bytes / 1.17e9 B/s.
        let expected = 2.0 * 2.0 * 8192.0 * 1000.0 / 1.17e9;
        assert!((t - expected).abs() < 1e-6, "{t} vs {expected}");
    }

    #[test]
    fn even_capacities_cover_all_experts() {
        let caps = PlacementProblem::even_capacities(32, 8, 6, 0);
        assert!(caps.iter().sum::<usize>() >= 256);
        assert_eq!(caps.len(), 6);
    }

    #[test]
    #[should_panic(expected = "must be distributions")]
    fn invalid_probs_panic() {
        let topology = Topology::paper_testbed();
        PlacementProblem::new(
            topology,
            DeviceId(0),
            vec![DeviceId(1)],
            vec![vec![0.5, 0.2]],
            10.0,
            8,
            vec![10],
        );
    }

    #[test]
    #[should_panic(expected = "total capacity")]
    fn insufficient_capacity_panics() {
        let topology = Topology::paper_testbed();
        PlacementProblem::new(
            topology,
            DeviceId(0),
            vec![DeviceId(1)],
            vec![vec![0.5, 0.5]],
            10.0,
            8,
            vec![1],
        );
    }

    #[test]
    #[should_panic(expected = "worker index")]
    fn placement_bad_worker_panics() {
        Placement::new(vec![vec![0, 3]], 3);
    }
}
