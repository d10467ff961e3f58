//! Step metrics and the Eq. (5)–(7) time model shared by all engines.

use vela_cluster::{CostModel, DeviceId, StepTraffic, TimeBreakdown};
use vela_model::MoeSpec;

use crate::broker::{Pass, PhaseLog};

/// Everything measured about one fine-tuning step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepMetrics {
    /// Step index (1-based).
    pub step: usize,
    /// Training loss, when the engine computes real tensors.
    pub loss: Option<f32>,
    /// Byte-accurate traffic for the step.
    pub traffic: StepTraffic,
    /// Simulated time for the step.
    pub time: TimeBreakdown,
}

/// Aggregates of a run, used by the figure harnesses.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Mean cross-node traffic per node per step, bytes (the Fig. 5 line).
    pub avg_external_per_node: f64,
    /// Mean simulated step time, seconds (the Fig. 6 bar).
    pub avg_step_time: f64,
    /// Standard deviation of the step time.
    pub std_step_time: f64,
    /// Median step time, seconds (nearest-rank percentile).
    pub p50_step_time: f64,
    /// 95th-percentile step time, seconds (nearest-rank).
    pub p95_step_time: f64,
    /// 99th-percentile step time, seconds (nearest-rank).
    pub p99_step_time: f64,
    /// Mean communication seconds per step.
    pub avg_comm_time: f64,
    /// Mean synchronization seconds per step.
    pub avg_sync_time: f64,
    /// Total bytes moved over the run.
    pub total_bytes: u64,
    /// Number of steps.
    pub steps: usize,
}

impl RunSummary {
    /// Summarizes a run.
    ///
    /// # Panics
    /// Panics if `steps` is empty.
    pub fn from_steps(steps: &[StepMetrics]) -> Self {
        assert!(!steps.is_empty(), "summary needs at least one step");
        let n = steps.len() as f64;
        let avg_external_per_node = steps
            .iter()
            .map(|s| s.traffic.external_avg_per_node())
            .sum::<f64>()
            / n;
        let times: Vec<f64> = steps.iter().map(|s| s.time.total()).collect();
        let avg_step_time = times.iter().sum::<f64>() / n;
        let var = times
            .iter()
            .map(|t| (t - avg_step_time).powi(2))
            .sum::<f64>()
            / n;
        let mut sorted = times.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("step times are finite"));
        RunSummary {
            avg_external_per_node,
            avg_step_time,
            std_step_time: var.sqrt(),
            p50_step_time: percentile(&sorted, 0.50),
            p95_step_time: percentile(&sorted, 0.95),
            p99_step_time: percentile(&sorted, 0.99),
            avg_comm_time: steps.iter().map(|s| s.time.comm_s).sum::<f64>() / n,
            avg_sync_time: steps.iter().map(|s| s.time.sync_s).sum::<f64>() / n,
            total_bytes: steps.iter().map(|s| s.traffic.total_bytes).sum(),
            steps: steps.len(),
        }
    }

    /// The step-time spread the percentiles describe, as a compact
    /// `(p50, p95, p99)` tuple for table printing.
    pub fn step_time_percentiles(&self) -> (f64, f64, f64) {
        (self.p50_step_time, self.p95_step_time, self.p99_step_time)
    }

    /// Relative reduction of this run's metric vs a baseline value
    /// (`(base − ours) / base`), e.g. traffic or time reduction vs EP.
    pub fn reduction_vs(ours: f64, base: f64) -> f64 {
        if base == 0.0 {
            0.0
        } else {
            (base - ours) / base
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted, non-empty sample:
/// the smallest value such that at least `q·n` samples are `<=` it.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The modelled time of one master–worker step, evaluated over the step's
/// phase logs and replica gradient-sync flows.
///
/// Each phase contributes a one-to-all dispatch (max leg, Eq. (7)), the
/// workers' parallel expert compute (max worker), and a one-to-all gather.
/// Because the master streams blocks without any synchronization barrier,
/// transfers overlap with expert compute — each phase costs
/// `max(comm, compute)` on the critical path (conventional EP cannot do
/// this: its status-sync round serializes every exchange, §V-B).
/// The overlapped compute remainder is *not* double counted: the phase's
/// `comm_s`/`compute_s` split attributes the bound to whichever resource
/// binds.
///
/// `master_flops` accounts for the backbone computation the master runs
/// serially (attention, norms, LM head, gate). `sync_flows` are
/// `(worker, accounted bytes)` in protocol order, from
/// [`BrokerClient::sync_replica_grads`](crate::BrokerClient::sync_replica_grads):
/// every sync flow crosses the master's one link to its worker, so the
/// sync term is the sum of the per-flow transfer times.
pub fn step_time(
    cost: &CostModel,
    master: DeviceId,
    worker_devices: &[DeviceId],
    logs: &[PhaseLog],
    sync_flows: &[(usize, u64)],
    spec: &MoeSpec,
    master_flops: f64,
) -> TimeBreakdown {
    let mut time = TimeBreakdown::default();
    for log in logs {
        let dispatch: Vec<(DeviceId, u64)> = worker_devices
            .iter()
            .zip(&log.bytes_out)
            .map(|(&d, &b)| (d, b))
            .collect();
        let gather: Vec<(DeviceId, u64)> = worker_devices
            .iter()
            .zip(&log.bytes_back)
            .map(|(&d, &b)| (d, b))
            .collect();
        let comm = cost.one_to_all_time(master, &dispatch) + cost.one_to_all_time(master, &gather);

        let mult = match log.pass {
            Pass::Forward => 1.0,
            Pass::Backward => 2.0,
        };
        let worker_compute = worker_devices
            .iter()
            .zip(&log.rows)
            .map(|(&d, &rows)| {
                cost.compute_time(d, rows as f64 * spec.expert_flops_per_token() * mult)
            })
            .fold(0.0, f64::max);
        // Pipelined overlap: the phase costs whichever resource binds.
        if comm >= worker_compute {
            time.comm_s += comm;
        } else {
            time.compute_s += worker_compute;
        }
    }
    time.compute_s += cost.compute_time(master, master_flops);
    time.sync_s += sync_flows
        .iter()
        .map(|&(w, bytes)| cost.transfer_time(master, worker_devices[w], bytes))
        .sum::<f64>();
    time
}

/// Approximate backbone FLOPs per token (forward): the four attention
/// projections plus score/context mat-muls at sequence length `seq`.
pub fn backbone_flops_per_token(spec: &MoeSpec, seq: usize) -> f64 {
    let h = spec.hidden as f64;
    8.0 * h * h + 4.0 * h * seq as f64
}

/// Bytes of backbone LoRA gradients that conventional expert parallelism
/// must all-reduce at each step (adapters on the four attention
/// projections per block, fp32 gradients).
pub fn backbone_lora_grad_bytes(spec: &MoeSpec, rank: usize) -> u64 {
    let per_proj = 2 * spec.hidden * rank; // A and B matrices
    (spec.blocks * 4 * per_proj * 4) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use vela_cluster::Topology;

    fn dummy_step(external: u64, time: f64) -> StepMetrics {
        StepMetrics {
            step: 1,
            loss: None,
            traffic: StepTraffic {
                external_sent_per_node: vec![external, 0, 0],
                external_recv_per_node: vec![0, external, 0],
                internal_bytes: 0,
                total_bytes: external,
                sync_bytes: 0,
                migration_bytes: 0,
            },
            time: TimeBreakdown {
                comm_s: time,
                compute_s: 0.0,
                sync_s: 0.0,
            },
        }
    }

    #[test]
    fn summary_averages() {
        let steps = vec![dummy_step(300, 1.0), dummy_step(600, 3.0)];
        let s = RunSummary::from_steps(&steps);
        // Step 1: 300 sent / 3 nodes = 100; step 2: 200 → avg 150.
        assert!((s.avg_external_per_node - 150.0).abs() < 1e-9);
        assert!((s.avg_step_time - 2.0).abs() < 1e-9);
        assert!((s.std_step_time - 1.0).abs() < 1e-9);
        assert_eq!(s.total_bytes, 900);
        assert_eq!(s.steps, 2);
    }

    #[test]
    fn summary_percentiles_are_nearest_rank() {
        // 1..=100 seconds: p50 = 50, p95 = 95, p99 = 99 by nearest rank.
        let steps: Vec<StepMetrics> = (1..=100).map(|t| dummy_step(0, t as f64)).collect();
        let s = RunSummary::from_steps(&steps);
        assert_eq!(s.p50_step_time, 50.0);
        assert_eq!(s.p95_step_time, 95.0);
        assert_eq!(s.p99_step_time, 99.0);
        assert_eq!(s.step_time_percentiles(), (50.0, 95.0, 99.0));
        // A single step: every percentile is that step's time.
        let one = RunSummary::from_steps(&[dummy_step(0, 2.5)]);
        assert_eq!(one.p50_step_time, 2.5);
        assert_eq!(one.p99_step_time, 2.5);
        // Order independence: percentiles come from the sorted times.
        let shuffled = vec![dummy_step(0, 3.0), dummy_step(0, 1.0), dummy_step(0, 2.0)];
        let s = RunSummary::from_steps(&shuffled);
        assert_eq!(s.p50_step_time, 2.0);
        assert_eq!(s.p99_step_time, 3.0);
    }

    #[test]
    fn reduction_formula() {
        assert!((RunSummary::reduction_vs(75.0, 100.0) - 0.25).abs() < 1e-12);
        assert_eq!(RunSummary::reduction_vs(1.0, 0.0), 0.0);
    }

    #[test]
    fn step_time_prefers_local_bytes() {
        let topology = Topology::paper_testbed();
        let cost = CostModel::new(topology);
        let spec = MoeSpec::mixtral_8x7b();
        let workers: Vec<DeviceId> = (0..6).map(DeviceId).collect();
        let mb = 1 << 20;
        // Hot bytes on a remote worker...
        let remote_log = PhaseLog {
            block: 0,
            pass: Pass::Forward,
            bytes_out: vec![0, 0, 10 * mb, 0, 0, 0],
            bytes_back: vec![0, 0, 10 * mb, 0, 0, 0],
            rows: vec![0, 0, 100, 0, 0, 0],
        };
        // ...vs the same bytes on the master-colocated worker.
        let local_log = PhaseLog {
            bytes_out: vec![10 * mb, 0, 0, 0, 0, 0],
            bytes_back: vec![10 * mb, 0, 0, 0, 0, 0],
            rows: vec![100, 0, 0, 0, 0, 0],
            ..remote_log.clone()
        };
        let t_remote = step_time(&cost, DeviceId(0), &workers, &[remote_log], &[], &spec, 0.0);
        let t_local = step_time(&cost, DeviceId(0), &workers, &[local_log], &[], &spec, 0.0);
        // Remote placement: the slow Ethernet leg binds. Local placement:
        // the free link means compute binds instead — and the total drops.
        assert!(t_remote.comm_s > 0.0);
        assert!(t_local.total() < t_remote.total() / 2.0);
    }

    #[test]
    fn backward_costs_twice_the_compute() {
        let cost = CostModel::new(Topology::paper_testbed());
        let spec = MoeSpec::mixtral_8x7b();
        let workers: Vec<DeviceId> = (0..2).map(DeviceId).collect();
        let fwd = PhaseLog {
            block: 0,
            pass: Pass::Forward,
            bytes_out: vec![0, 0],
            bytes_back: vec![0, 0],
            rows: vec![50, 0],
        };
        let bwd = PhaseLog {
            pass: Pass::Backward,
            ..fwd.clone()
        };
        let tf = step_time(&cost, DeviceId(0), &workers, &[fwd], &[], &spec, 0.0);
        let tb = step_time(&cost, DeviceId(0), &workers, &[bwd], &[], &spec, 0.0);
        // No bytes move, so compute binds in both phases; backward is 2x.
        assert!((tb.compute_s - 2.0 * tf.compute_s).abs() < 1e-12);
    }

    #[test]
    fn lora_grad_bytes_are_small_relative_to_token_traffic() {
        let spec = MoeSpec::mixtral_8x7b();
        let grads = backbone_lora_grad_bytes(&spec, 8);
        // ~33.5 MB — the paper notes EP's gradient sync is a *slight* add-on
        // to the ~866 MB/step token traffic.
        assert!(grads > 30 << 20 && grads < 40 << 20, "{grads}");
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn empty_summary_panics() {
        RunSummary::from_steps(&[]);
    }
}
