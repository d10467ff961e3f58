//! The master–worker engine at evaluation scale with virtual payloads.
//!
//! Runs the *same* transport, message protocol and Expert Manager loop as
//! the real runtime, but the payloads are size descriptors at the
//! evaluation model's true dimensions (Mixtral-8x7B: `H = 4096`, 16-bit
//! features, 32 blocks × 8 experts). Routing is sampled from a measured
//! [`LocalityProfile`], which [sharpens](LocalityProfile::sharpen) slightly
//! every step — the drift the paper observes in Fig. 3(c)/Fig. 5(a).
//!
//! This engine produces the VELA / Sequential / Random series of
//! Figs. 5–6; pick the series by the
//! [`Placement`](vela_placement::Placement) you launch it with. It is the
//! same [`Session`] as [`RealRuntime`](crate::RealRuntime) over another
//! step body, so its transport is the same pluggable one
//! ([`TransportConfig`]) — the ledger windows it reports are
//! byte-identical across channel, TCP-thread and TCP-process backends
//! (pinned by the `contract` integration test).

use vela_cluster::{DeviceId, Topology};
use vela_locality::LocalityProfile;
use vela_model::{LocalExpertStore, MoeSpec};
use vela_nn::optim::AdamWConfig;
use vela_placement::ReplicatedPlacement;
use vela_tensor::rng::DetRng;

use crate::broker::{BrokerClient, Pass};
use crate::message::{PackedData, PackedGroup};
use crate::metrics::StepMetrics;
use crate::pipeline::Rows;
use crate::routing::sample_expert_counts;
use crate::session::Session;
use crate::transport::{TransportConfig, TransportError};

/// Scale parameters of a virtual evaluation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleConfig {
    /// The simulated model's shape.
    pub spec: MoeSpec,
    /// Sequences per batch (the paper uses 8).
    pub batch: usize,
    /// Tokens per sequence.
    pub seq: usize,
    /// LoRA rank (sizes EP's gradient all-reduce).
    pub lora_rank: usize,
    /// Per-step profile sharpening rate (routing drift).
    pub drift: f64,
    /// Routing-sampling seed.
    pub seed: u64,
}

impl ScaleConfig {
    /// The paper's fine-tuning workload on the given model shape:
    /// batch 8 sequences of 256 tokens (which reproduces the paper's
    /// ">2600 tokens sent externally per block" and ~866 MB/node/step
    /// derivation), LoRA r = 8, gentle routing drift.
    pub fn paper_default(spec: MoeSpec) -> Self {
        ScaleConfig {
            spec,
            batch: 8,
            seq: 256,
            lora_rank: 8,
            drift: 2e-4,
            seed: 7,
        }
    }

    /// Tokens entering each MoE block per step.
    pub fn tokens(&self) -> usize {
        self.batch * self.seq
    }
}

/// Bytes of parameters of a single expert at the spec's precision (three
/// `H × ffn` projection matrices).
pub fn expert_param_bytes(spec: &MoeSpec) -> u64 {
    3 * spec.hidden as u64 * spec.ffn as u64 * (spec.bits as u64 / 8)
}

/// Bytes of one expert's trainable LoRA gradients at rank `rank`: an
/// `H × r` A and `r × ffn` B adapter on each of the three projections,
/// fp32 gradients. This is what a replica gradient-sync frame carries at
/// evaluation scale (~1.8 MB for Mixtral-8x7B at r = 8 — far below the
/// ~352 MB full expert, which is why replication syncs are cheap).
pub fn expert_lora_grad_bytes(spec: &MoeSpec, rank: usize) -> u64 {
    (3 * rank * (spec.hidden + spec.ffn) * 4) as u64
}

/// Per-worker expert capacities derived from device memory (constraint
/// (11)): `C_n = reserve_frac · mem / expert_bytes`.
///
/// # Panics
/// Panics if any device is too small to host a single expert.
pub fn capacity_from_memory(
    topology: &Topology,
    workers: &[DeviceId],
    spec: &MoeSpec,
    reserve_frac: f64,
) -> Vec<usize> {
    workers
        .iter()
        .map(|&w| {
            let mem = topology.device(w).mem_bytes as f64 * reserve_frac;
            let cap = (mem / expert_param_bytes(spec) as f64) as usize;
            assert!(cap >= 1, "device {w} cannot host any expert");
            cap
        })
        .collect()
}

/// The scale-virtual step body: routing sampled from a drifting locality
/// profile, size-only rows at the evaluation model's dimensions.
#[derive(Debug)]
pub struct VirtualBody {
    profile: LocalityProfile,
    scale: ScaleConfig,
    rng: DetRng,
}

/// A live scale-virtual master–worker session.
pub type VirtualEngine = Session<VirtualBody>;

impl VirtualEngine {
    /// Launches echo workers over `transport` and prepares a session.
    /// Virtual workers carry no expert state, so process mode ships a
    /// template-free bootstrap and there is nothing to move in or out.
    ///
    /// # Panics
    /// Panics if the profile or placement shapes disagree with the spec,
    /// or if the transport cannot be brought up.
    pub fn launch_with(
        transport: TransportConfig,
        topology: Topology,
        master: DeviceId,
        worker_devices: Vec<DeviceId>,
        placement: impl Into<ReplicatedPlacement>,
        profile: LocalityProfile,
        scale: ScaleConfig,
    ) -> Self {
        let spec = scale.spec;
        assert_eq!(profile.blocks(), spec.blocks, "profile block mismatch");
        assert_eq!(profile.experts(), spec.experts, "profile expert mismatch");
        // Echo workers: no template, empty shards, an optimizer with
        // nothing to step.
        Session::bring_up(
            transport,
            topology,
            master,
            worker_devices,
            placement.into(),
            spec,
            expert_lora_grad_bytes(&spec, scale.lora_rank) as u32,
            AdamWConfig::default(),
            None,
            |p| {
                (0..p.workers())
                    .map(|_| LocalExpertStore::empty(p.blocks(), p.experts()))
                    .collect()
            },
            VirtualBody {
                rng: DetRng::new(scale.seed),
                profile,
                scale,
            },
        )
    }

    /// The (drifting) locality profile.
    pub fn profile(&self) -> &LocalityProfile {
        &self.body.profile
    }

    /// Runs one virtual fine-tuning step: for every block, forward token
    /// dispatch + gather and backward gradient dispatch + gather through
    /// the real message path, with routing sampled from the profile.
    /// Replica sync payloads are sized to one expert's LoRA gradients.
    ///
    /// # Panics
    /// Panics if the transport fails mid-step.
    pub fn step(&mut self) -> StepMetrics {
        let (tokens, seq) = (self.body.scale.tokens(), self.body.scale.seq);
        self.run_step(tokens, seq, VirtualBody::passes, |_| {})
            .unwrap_or_else(|e| panic!("transport failed mid-step: {e}"))
    }

    /// Runs `steps` steps.
    pub fn run(&mut self, steps: usize) -> Vec<StepMetrics> {
        (0..steps).map(|_| self.step()).collect()
    }

    /// Shuts the workers down (threads joined, processes reaped).
    pub fn shutdown(self) {
        self.close();
    }
}

impl VirtualBody {
    /// Every block's forward and backward exchange of virtual rows, then
    /// one step of profile drift.
    fn passes(&mut self, broker: &mut BrokerClient) -> Result<Option<f32>, TransportError> {
        let (spec, tokens) = (self.scale.spec, self.scale.tokens());
        for block in 0..spec.blocks {
            let counts = {
                let _route = vela_obs::span("runtime.virtual.route");
                sample_expert_counts(&self.profile, block, tokens, spec.top_k, &mut self.rng)
            };
            // Virtual token (or gradient) rows to each expert's worker,
            // echoed back.
            let mut rows = VirtualRows {
                sends: counts
                    .iter()
                    .enumerate()
                    .filter(|&(_, &rows)| rows > 0)
                    .map(|(expert, &rows)| (expert, rows as u32))
                    .collect(),
                bytes_per_token: spec.token_bytes() as u32,
            };
            broker.exchange(block, Pass::Forward, &mut rows)?;
            broker.exchange(block, Pass::Backward, &mut rows)?;
        }
        self.profile.sharpen(self.scale.drift);
        Ok(None)
    }
}

/// Size-only rows: `(expert, rows)` per dispatched expert, nothing to
/// pack and nothing to deliver — the echo only has to be an echo.
struct VirtualRows {
    sends: Vec<(usize, u32)>,
    bytes_per_token: u32,
}

impl Rows for VirtualRows {
    fn loads(&self) -> Vec<(usize, u64)> {
        self.sends
            .iter()
            .map(|&(e, rows)| (e, u64::from(rows)))
            .collect()
    }

    fn width(&self) -> u32 {
        self.bytes_per_token
    }

    fn pack(&self, block: u32, pass: Pass, items: &[usize]) -> PackedGroup {
        PackedGroup::pack_virtual(
            block,
            pass,
            self.bytes_per_token,
            items
                .iter()
                .map(|&i| (self.sends[i].0 as u32, self.sends[i].1)),
        )
    }

    fn deliver(
        &mut self,
        _layout: impl Iterator<Item = (usize, usize, usize)>,
        data: PackedData,
    ) -> Result<(), TransportError> {
        if !matches!(data, PackedData::Virtual) {
            return Err(TransportError::Protocol(
                "real packed reply in a virtual exchange".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vela_placement::Placement;
    use vela_placement::PlacementProblem;
    use vela_placement::Strategy;

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

    fn launched(
        placement: impl Into<ReplicatedPlacement>,
        profile: LocalityProfile,
        scale: ScaleConfig,
    ) -> VirtualEngine {
        VirtualEngine::launch_with(
            TransportConfig::from_env(),
            Topology::paper_testbed(),
            DeviceId(0),
            (0..6).map(DeviceId).collect(),
            placement,
            profile,
            scale,
        )
    }

    fn seq_placement(spec: &MoeSpec, workers: usize) -> Placement {
        Placement::new(
            (0..spec.blocks)
                .map(|_| (0..spec.experts).map(|e| e % workers).collect())
                .collect(),
            workers,
        )
    }

    #[test]
    fn virtual_step_accounts_mixtral_scale_traffic() {
        let spec = small_spec();
        let scale = ScaleConfig {
            batch: 8,
            seq: 128,
            ..ScaleConfig::paper_default(spec)
        };
        let profile = LocalityProfile::synthetic("p", spec.blocks, spec.experts, 1.0, 1);
        let mut engine = launched(seq_placement(&spec, 6), profile, scale.clone());
        let m = engine.step();
        // 1024 tokens × 2 experts × 8 KiB × 2 directions × 2 passes × 4 blocks.
        let expected_total = (scale.tokens() * spec.top_k) as u64 * spec.token_bytes() * 4 * 4;
        // Worker 0 shares the master device, so its share is unaccounted;
        // headers add a little. Total must be in the right ballpark.
        assert!(
            m.traffic.total_bytes > expected_total / 2
                && m.traffic.total_bytes < expected_total + (1 << 20),
            "total {} vs expected ≈ {}",
            m.traffic.total_bytes,
            expected_total
        );
        assert!(m.traffic.external_total() > 0);
        assert!(m.time.comm_s > 0.0 && m.time.compute_s > 0.0);
        assert!(m.loss.is_none());
        engine.shutdown();
    }

    #[test]
    fn vela_placement_beats_sequential_on_skewed_profile() {
        let spec = small_spec();
        let scale = ScaleConfig {
            batch: 4,
            seq: 64,
            ..ScaleConfig::paper_default(spec)
        };
        let profile = LocalityProfile::synthetic("skew", spec.blocks, spec.experts, 1.5, 3);

        let problem = PlacementProblem::new(
            Topology::paper_testbed(),
            DeviceId(0),
            (0..6).map(DeviceId).collect(),
            profile.to_matrix(),
            (scale.tokens() * spec.top_k) as f64,
            spec.token_bytes(),
            vec![8; 6],
        );
        let run = |placement: Placement| {
            let mut engine = launched(placement, profile.clone(), scale.clone());
            let steps = engine.run(5);
            engine.shutdown();
            crate::metrics::RunSummary::from_steps(&steps).avg_external_per_node
        };
        let vela = run(Strategy::Vela.place(&problem));
        let seq = run(Strategy::Sequential.place(&problem));
        assert!(vela < seq, "vela {vela} vs sequential {seq}");
    }

    #[test]
    fn packed_virtual_ledger_matches_legacy() {
        let spec = small_spec();
        let scale = ScaleConfig {
            batch: 2,
            seq: 32,
            ..ScaleConfig::paper_default(spec)
        };
        let profile = LocalityProfile::synthetic("p", spec.blocks, spec.experts, 1.2, 2);
        let mut engine = launched(seq_placement(&spec, 6), profile, scale);
        let bytes: Vec<u64> = engine
            .run(3)
            .iter()
            .map(|m| m.traffic.total_bytes)
            .collect();
        engine.shutdown();
        // What the per-item legacy frames accounted for these three steps
        // at the commit that retired them (8456ee6): the ledger must not
        // learn that framing changed.
        assert_eq!(bytes, [11_436_951, 11_142_039, 11_142_039]);
    }

    #[test]
    fn replication_balances_routing_and_accounts_sync_traffic() {
        use vela_placement::replicate_by_cost;
        let spec = small_spec();
        let scale = ScaleConfig {
            batch: 4,
            seq: 64,
            ..ScaleConfig::paper_default(spec)
        };
        let profile = LocalityProfile::synthetic("skew", spec.blocks, spec.experts, 1.5, 3);
        let problem = PlacementProblem::new(
            Topology::paper_testbed(),
            DeviceId(0),
            (0..6).map(DeviceId).collect(),
            profile.to_matrix(),
            (scale.tokens() * spec.top_k) as f64,
            spec.token_bytes(),
            vec![8; 6],
        );
        let base = Strategy::Vela.place(&problem);

        let mut single = launched(base.clone(), profile.clone(), scale.clone());
        let single_steps = single.run(4);
        let single_straggler = single.straggler_index();
        single.shutdown();
        assert!(single_steps.iter().all(|m| m.traffic.sync_bytes == 0));
        assert!(single_steps.iter().all(|m| m.time.sync_s == 0.0));

        let replicated = replicate_by_cost(&base, &problem, 1.0);
        assert!(replicated.total_replicas() > base.blocks() * base.experts());
        let mut engine = launched(replicated, profile, scale);
        let steps = engine.run(4);
        let straggler = engine.straggler_index();
        engine.shutdown();
        // The sync frames are real, accounted traffic...
        assert!(steps.iter().all(|m| m.traffic.sync_bytes > 0));
        assert!(steps.iter().any(|m| m.time.sync_s > 0.0));
        assert!(steps
            .iter()
            .all(|m| m.traffic.sync_bytes < m.traffic.total_bytes));
        // ...and least-loaded routing flattens the skewed row distribution.
        assert!(
            straggler < single_straggler,
            "replicated {straggler} vs single {single_straggler}"
        );

        // The pinned cut: four workers owning `e % 4`, a Zipf-1.5 profile,
        // every spare slot spent on replicas. Replicas change where rows go,
        // never how many there are, so the routed-row total is the
        // equal-correctness witness (ledger bytes are not: traffic to the
        // worker sharing the master's device is unaccounted).
        let spec = MoeSpec {
            blocks: 2,
            experts: 8,
            top_k: 2,
            hidden: 1024,
            ffn: 4096,
            bits: 16,
        };
        let scale = ScaleConfig {
            batch: 4,
            seq: 64,
            drift: 1e-3,
            ..ScaleConfig::paper_default(spec)
        };
        let profile = LocalityProfile::synthetic("skew", spec.blocks, spec.experts, 1.5, 3);
        let workers: Vec<DeviceId> = (0..4).map(DeviceId).collect();
        let base = seq_placement(&spec, 4);
        let problem = PlacementProblem::new(
            Topology::paper_testbed(),
            DeviceId(0),
            workers.clone(),
            profile.to_matrix(),
            (scale.tokens() * spec.top_k) as f64,
            spec.token_bytes(),
            vec![spec.blocks * spec.experts / 4 + 4; 4],
        );
        let run = |placement: ReplicatedPlacement| {
            let mut engine = VirtualEngine::launch_with(
                TransportConfig::channel(),
                Topology::paper_testbed(),
                DeviceId(0),
                workers.clone(),
                placement,
                profile.clone(),
                scale.clone(),
            );
            let sync: u64 = engine.run(6).iter().map(|m| m.traffic.sync_bytes).sum();
            let rows = engine.row_totals.clone();
            let straggler = engine.straggler_index();
            engine.shutdown();
            (rows, straggler, sync)
        };
        let (single_rows, single, single_sync) = run(ReplicatedPlacement::from(&base));
        let (multi_rows, multi, multi_sync) = run(replicate_by_cost(&base, &problem, 1.0));
        assert_eq!(single_rows.iter().sum::<u64>(), 12_288);
        assert_eq!(multi_rows.iter().sum::<u64>(), 12_288);
        assert_eq!(single_sync, 0);
        assert!(multi_sync > 0);
        // 5 914 and 4 258 rows on the busiest worker, against a mean of 3 072.
        assert!(
            (single - 1.925).abs() < 1e-3,
            "single-copy straggler {single}"
        );
        assert!((multi - 1.386).abs() < 1e-3, "replicated straggler {multi}");
        assert!(1.0 - multi / single >= 0.20, "{single} -> {multi}");
    }

    #[test]
    fn drift_sharpens_profile_over_steps() {
        let spec = small_spec();
        let scale = ScaleConfig {
            batch: 1,
            seq: 16,
            drift: 0.01,
            ..ScaleConfig::paper_default(spec)
        };
        let profile = LocalityProfile::synthetic("p", spec.blocks, spec.experts, 1.0, 4);
        let before = profile.mean_concentration();
        let mut engine = launched(seq_placement(&spec, 6), profile, scale);
        engine.run(10);
        let after = engine.profile().mean_concentration();
        assert!(after > before, "{before} -> {after}");
        engine.shutdown();
    }

    #[test]
    fn capacity_helpers() {
        let spec = MoeSpec::mixtral_8x7b();
        // 3 × 4096 × 14336 × 2 bytes ≈ 352 MB per expert.
        let b = expert_param_bytes(&spec);
        assert!(b > 330 << 20 && b < 360 << 20, "{b}");
        let topology = Topology::paper_testbed();
        let workers: Vec<DeviceId> = (0..6).map(DeviceId).collect();
        let caps = capacity_from_memory(&topology, &workers, &spec, 0.5);
        // 16 GB usable / 352 MB ≈ 46 experts.
        assert!(caps.iter().all(|&c| c > 40 && c < 50), "{caps:?}");
        assert!(caps.iter().sum::<usize>() >= spec.total_experts());
    }

    #[test]
    fn paper_default_matches_evaluation_setup() {
        let scale = ScaleConfig::paper_default(MoeSpec::mixtral_8x7b());
        assert_eq!(scale.batch, 8);
        assert_eq!(scale.lora_rank, 8);
        assert_eq!(scale.tokens(), 2048);
        // Paper §V-B: ~2/3 of the 4096 top-2 assignments leave the node in
        // a balanced placement — "more than 2600 tokens" sent externally.
        assert!((scale.tokens() * scale.spec.top_k) as f64 * 2.0 / 3.0 > 2600.0);
    }
}
