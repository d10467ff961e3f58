//! Conventional expert parallelism — the paper's primary baseline (Fig. 2).
//!
//! Every device replicates the backbone and hosts expert `e` of every
//! block at device `e mod N`. Inputs are sharded data-parallel; tokens are
//! exchanged through all-to-all collectives, each preceded by the *status
//! synchronization* round in which devices agree on receive counts — the
//! overhead the paper identifies as EP's structural disadvantage (§V-B).
//! At step end, the replicated non-expert (LoRA) gradients are all-reduced.
//!
//! The engine is driven by the same sampled routing as the master–worker
//! engines and records its transfers in the same [`TrafficLedger`], so
//! Fig. 5/6 comparisons are apples-to-apples.

use vela_cluster::{CostModel, DeviceId, StepTraffic, TimeBreakdown, Topology, TrafficLedger};
use vela_locality::LocalityProfile;
use vela_obs::LazyCounter;
use vela_tensor::rng::DetRng;

/// Status-synchronization rounds paid by the EP baseline (two per block
/// per step: one before each all-to-all pair).
static EP_SYNC_ROUNDS: LazyCounter = LazyCounter::new("runtime.ep.sync_rounds");

use crate::metrics::{backbone_flops_per_token, backbone_lora_grad_bytes, StepMetrics};
use crate::routing::{sample_sharded_counts, shard_tokens};
use crate::virtual_engine::ScaleConfig;

/// A conventional expert-parallelism session at evaluation scale.
#[derive(Debug)]
pub struct EpEngine {
    cost: CostModel,
    ledger: TrafficLedger,
    devices: Vec<DeviceId>,
    profile: LocalityProfile,
    scale: ScaleConfig,
    rng: DetRng,
    step: usize,
}

impl EpEngine {
    /// Creates an EP session over `devices` (all of them replicate the
    /// backbone and host `1/N` of the experts).
    ///
    /// # Panics
    /// Panics if fewer than two devices are given or the profile shape
    /// disagrees with the spec.
    pub fn new(
        topology: Topology,
        devices: Vec<DeviceId>,
        profile: LocalityProfile,
        scale: ScaleConfig,
    ) -> Self {
        assert!(devices.len() >= 2, "EP needs at least two devices");
        assert_eq!(
            profile.blocks(),
            scale.spec.blocks,
            "profile block mismatch"
        );
        assert_eq!(
            profile.experts(),
            scale.spec.experts,
            "profile expert mismatch"
        );
        let rng = DetRng::new(scale.seed);
        EpEngine {
            cost: CostModel::new(topology.clone()),
            ledger: TrafficLedger::new(topology),
            devices,
            profile,
            scale,
            rng,
            step: 0,
        }
    }

    /// The (drifting) locality profile.
    pub fn profile(&self) -> &LocalityProfile {
        &self.profile
    }

    /// Label for the EP baseline's "transport": the engine simulates
    /// all-to-all exchanges arithmetically, so no pluggable backend ever
    /// carries its bytes.
    pub fn transport_label(&self) -> &'static str {
        "local"
    }

    /// Runs one EP fine-tuning step.
    pub fn step(&mut self) -> StepMetrics {
        self.step += 1;
        // A process-unique trace step, as the master-worker engines take:
        // `self.step` restarts at 1 for every engine in the process.
        vela_obs::next_trace_step();
        let _span = vela_obs::span("runtime.ep.step");
        self.ledger.take_step();
        let spec = self.scale.spec;
        let n = self.devices.len();
        let shards = shard_tokens(self.scale.tokens(), n);
        let token_bytes = spec.token_bytes();
        let mut time = TimeBreakdown::default();

        for block in 0..spec.blocks {
            let counts = {
                let _route = vela_obs::span("runtime.ep.route");
                sample_sharded_counts(&self.profile, block, &shards, spec.top_k, &mut self.rng)
            };

            // Per ordered (src, host) pair: bytes of tokens moving for this
            // block (forward dispatch direction).
            let mut pair_bytes: Vec<Vec<u64>> = vec![vec![0; n]; n];
            let mut host_rows = vec![0u64; n];
            for (src, per_expert) in counts.iter().enumerate() {
                for (expert, &c) in per_expert.iter().enumerate() {
                    let host = expert % n;
                    host_rows[host] += c as u64;
                    if src != host {
                        pair_bytes[src][host] += c as u64 * token_bytes;
                    }
                }
            }

            // Four exchanges per block: features out/back (forward pass),
            // gradients out/back (backward pass). Dispatch-direction pairs
            // and their transposes carry the same byte counts.
            let dispatch: Vec<(DeviceId, DeviceId, u64)> = iter_pairs(&self.devices, &pair_bytes);
            let gather: Vec<(DeviceId, DeviceId, u64)> = dispatch
                .iter()
                .map(|&(a, b, bytes)| (b, a, bytes))
                .collect();
            for phase in [&dispatch, &gather, &dispatch, &gather] {
                for &(src, dst, bytes) in phase.iter() {
                    self.ledger.record(src, dst, bytes);
                }
                time.comm_s += self.cost.all_to_all_time(phase);
            }
            // One status-sync round per all-to-all pair (forward, backward).
            time.sync_s += 2.0 * self.cost.all_to_all_sync_time(&self.devices);
            EP_SYNC_ROUNDS.add(2);
            if vela_obs::tracing() {
                let mut per_expert = vec![0usize; spec.experts];
                for per_shard in &counts {
                    for (expert, &c) in per_shard.iter().enumerate() {
                        per_expert[expert] += c;
                    }
                }
                let rows: Vec<(usize, usize)> = per_expert
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(e, &c)| (e, c))
                    .collect();
                vela_obs::expert_rows("runtime", "fwd", block, &rows);
            }

            // Expert compute: hosts process their tokens in parallel
            // (forward + double-cost backward).
            let expert_compute = self
                .devices
                .iter()
                .zip(&host_rows)
                .map(|(&d, &rows)| {
                    self.cost
                        .compute_time(d, rows as f64 * spec.expert_flops_per_token() * 3.0)
                })
                .fold(0.0, f64::max);
            time.compute_s += expert_compute;
        }

        // Replicated backbone computes its shard in parallel.
        let max_shard = *shards.iter().max().expect("devices nonempty") as f64;
        let backbone = max_shard * backbone_flops_per_token(&spec, self.scale.seq) * 3.0;
        time.compute_s += self.cost.compute_time(self.devices[0], backbone);

        // Gradient all-reduce of the replicated (LoRA) parameters.
        let grad_bytes = backbone_lora_grad_bytes(&spec, self.scale.lora_rank);
        time.comm_s += self.cost.allreduce_time(&self.devices, grad_bytes);
        let per_hop = 2 * (n as u64 - 1) * grad_bytes / n as u64;
        for i in 0..n {
            self.ledger
                .record(self.devices[i], self.devices[(i + 1) % n], per_hop);
        }

        self.profile.sharpen(self.scale.drift);
        let traffic: StepTraffic = self.ledger.take_step();
        StepMetrics {
            step: self.step,
            loss: None,
            traffic,
            time,
        }
    }

    /// Runs `steps` steps.
    pub fn run(&mut self, steps: usize) -> Vec<StepMetrics> {
        (0..steps).map(|_| self.step()).collect()
    }
}

fn iter_pairs(devices: &[DeviceId], pair_bytes: &[Vec<u64>]) -> Vec<(DeviceId, DeviceId, u64)> {
    let mut out = Vec::new();
    for (src, row) in pair_bytes.iter().enumerate() {
        for (dst, &bytes) in row.iter().enumerate() {
            if bytes > 0 {
                out.push((devices[src], devices[dst], bytes));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RunSummary;
    use vela_model::MoeSpec;

    fn small_spec() -> MoeSpec {
        MoeSpec {
            blocks: 4,
            experts: 8,
            top_k: 2,
            hidden: 4096,
            ffn: 14336,
            bits: 16,
        }
    }

    fn engine(zipf: f64) -> EpEngine {
        let spec = small_spec();
        engine_on(LocalityProfile::synthetic(
            "p",
            spec.blocks,
            spec.experts,
            zipf,
            5,
        ))
    }

    fn engine_on(profile: LocalityProfile) -> EpEngine {
        let scale = ScaleConfig {
            batch: 8,
            seq: 128,
            ..ScaleConfig::paper_default(small_spec())
        };
        EpEngine::new(
            Topology::paper_testbed(),
            (0..6).map(DeviceId).collect(),
            profile,
            scale,
        )
    }

    #[test]
    fn ep_step_produces_traffic_and_time() {
        let mut ep = engine(1.0);
        let m = ep.step();
        assert!(m.traffic.external_total() > 0);
        assert!(m.traffic.internal_bytes > 0, "same-node exchanges exist");
        assert!(m.time.comm_s > 0.0);
        assert!(m.time.sync_s > 0.0, "EP pays the status-sync rounds");
        assert!(m.time.compute_s > 0.0);
    }

    #[test]
    fn ep_traffic_magnitude_matches_structure() {
        // With near-uniform routing, ~(N-1)/N of assignments leave their
        // source device and 4 phases move them, so total ≈
        // 4 · assignments · (5/6) · 8 KiB + all-reduce ring.
        let mut ep = engine(0.05);
        let m = ep.step();
        let spec = small_spec();
        let assignments = (8 * 128 * spec.top_k) as u64;
        let expected_tokens = spec.blocks as u64 * 4 * assignments * 5 / 6 * spec.token_bytes();
        let total = m.traffic.total_bytes;
        assert!(
            total > expected_tokens / 2 && total < expected_tokens * 2,
            "total {total} vs expected ≈ {expected_tokens}"
        );
    }

    #[test]
    fn host_mapping_is_mod_n() {
        // Expert `e` lives on device `e mod 6`: routing every row to
        // experts 1 and 7 loads one device with all of them, while 1 and
        // 2 split them over two, so the slowest host computes longer.
        let compute = |hot: [usize; 2]| {
            let spec = small_spec();
            let row = (0..spec.experts)
                .map(|e| if hot.contains(&e) { 1.0 } else { 0.0 })
                .collect();
            let profile = LocalityProfile::from_frequencies("hot", vec![row; spec.blocks]);
            engine_on(profile).step().time.compute_s
        };
        assert!(compute([1, 7]) > compute([1, 2]));
    }

    #[test]
    fn sync_overhead_scales_with_blocks() {
        let mut ep = engine(1.0);
        let m = ep.step();
        let per_block_sync = 2.0 * ep.cost.all_to_all_sync_time(&ep.devices);
        assert!((m.time.sync_s - 4.0 * per_block_sync).abs() < 1e-9);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = RunSummary::from_steps(&engine(1.2).run(3));
        let b = RunSummary::from_steps(&engine(1.2).run(3));
        assert_eq!(a, b);
    }

    #[test]
    fn allreduce_traffic_is_a_small_fraction() {
        // The paper: EP's gradient sync makes it only *slightly* higher
        // than sequential/random in traffic.
        let mut ep = engine(1.0);
        let m = ep.step();
        let spec = small_spec();
        let grad = backbone_lora_grad_bytes(&spec, 8);
        let n = 6u64;
        let ring_total = n * (2 * (n - 1) * grad / n);
        assert!(
            (ring_total as f64) < 0.25 * m.traffic.total_bytes as f64,
            "ring {ring_total} vs total {}",
            m.traffic.total_bytes
        );
    }

    #[test]
    #[should_panic(expected = "at least two devices")]
    fn single_device_panics() {
        let spec = small_spec();
        EpEngine::new(
            Topology::paper_testbed(),
            vec![DeviceId(0)],
            LocalityProfile::synthetic("p", spec.blocks, spec.experts, 1.0, 1),
            ScaleConfig::paper_default(spec),
        );
    }
}
