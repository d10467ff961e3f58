//! Randomized property tests spanning crates: the LP + rounding pipeline,
//! the wire format, the traffic ledger, and the Theorem 1 bound.
//!
//! Each property is checked over many [`DetRng`]-seeded random cases, so
//! the suite is fully deterministic and needs no external test framework.

use vela::locality::theorem::drift_bound_from_logits;
use vela::placement::Strategy as Plan;
use vela::prelude::{DetRng, DeviceId, LocalityProfile, PlacementProblem, Tensor, Topology};
use vela::runtime::message::{GroupPass, Message, PackedData, PackedGroup, PackedRow};

const CASES: u64 = 32;

fn random_profile(blocks: usize, experts: usize, rng: &mut DetRng) -> Vec<Vec<f64>> {
    (0..blocks)
        .map(|_| {
            let row: Vec<f64> = (0..experts)
                .map(|_| 0.01 + 0.99 * f64::from(rng.unit()))
                .collect();
            let sum: f64 = row.iter().sum();
            row.into_iter().map(|p| p / sum).collect()
        })
        .collect()
}

/// Rounding any LP relaxation yields a feasible placement, and no
/// heuristic ever beats the LP lower bound.
#[test]
fn lp_rounding_always_feasible() {
    for seed in 0..CASES {
        let mut rng = DetRng::new(seed);
        let probs = random_profile(3, 4, &mut rng);
        let cap_slack = rng.below(3);
        let topology = Topology::paper_testbed();
        let workers: Vec<DeviceId> = (0..6).map(DeviceId).collect();
        let problem = PlacementProblem::new(
            topology,
            DeviceId(0),
            workers,
            probs,
            512.0,
            8192,
            PlacementProblem::even_capacities(3, 4, 6, cap_slack),
        );
        for strategy in [
            Plan::Vela,
            Plan::Sequential,
            Plan::Random { seed: 1 },
            Plan::Greedy,
        ] {
            let placement = strategy.place(&problem);
            assert!(
                placement.respects_capacities(problem.capacities()),
                "seed {seed}: {strategy:?} violates capacities"
            );
            assert_eq!(placement.load().iter().sum::<usize>(), 12, "seed {seed}");
            assert!(problem.expected_comm_time(&placement).is_finite());
        }
        // LP relaxation lower-bounds every binary placement (the LP works
        // in cost-scaled units; convert back to seconds).
        let lp = vela::placement::lp::build::build_lp(&problem).solve();
        let scale = vela::placement::lp::build::cost_scale(&problem);
        let vela_cost = problem.expected_comm_time(&Plan::Vela.place(&problem));
        assert!(lp.objective * scale <= vela_cost + 1e-9, "seed {seed}");
    }
}

/// Messages survive encode/decode for arbitrary real tensor shapes.
#[test]
fn message_roundtrip() {
    for seed in 0..CASES {
        let mut rng = DetRng::new(seed);
        let rows = 1 + rng.below(19);
        let cols = 1 + rng.below(19);
        let block = rng.below(64) as u32;
        let expert = rng.below(8) as u32;
        let t = Tensor::uniform((rows, cols), -10.0, 10.0, &mut rng);
        let msg = Message::GradState {
            block,
            expert,
            row: PackedRow {
                width: t.len() as u32,
                data: PackedData::F32(t.as_slice().to_vec()),
            },
        };
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg, "seed {seed}");
    }
}

/// Virtual rows account exactly rows × bytes_per_token, plus the 9-byte
/// routing header of their one batch.
#[test]
fn virtual_accounting() {
    for seed in 0..CASES {
        let mut rng = DetRng::new(seed);
        let rows = 1 + rng.below(100_000) as u32;
        let bpt = 1 + rng.below(16_384) as u32;
        let msg = Message::PackedDispatch(PackedGroup::pack_virtual(
            0,
            GroupPass::Forward,
            bpt,
            [(0, rows)].into_iter(),
        ));
        assert_eq!(
            msg.accounted_bytes(),
            9 + u64::from(rows) * u64::from(bpt),
            "seed {seed}"
        );
    }
}

/// The ledger conserves bytes: sum of sent externals equals sum of
/// received externals, and internal + external equals total.
#[test]
fn ledger_conservation() {
    for seed in 0..CASES {
        let mut rng = DetRng::new(seed);
        let transfers: Vec<(usize, usize, u64)> = (0..(1 + rng.below(49)))
            .map(|_| (rng.below(6), rng.below(6), 1 + rng.below(9_999) as u64))
            .collect();
        let ledger = vela::cluster::TrafficLedger::new(Topology::paper_testbed());
        let mut expected_total = 0u64;
        for &(s, d, b) in &transfers {
            ledger.record(DeviceId(s), DeviceId(d), b);
            if s != d {
                expected_total += b;
            }
        }
        let t = ledger.peek();
        assert_eq!(t.total_bytes, expected_total, "seed {seed}");
        assert_eq!(
            t.external_sent_per_node.iter().sum::<u64>(),
            t.external_recv_per_node.iter().sum::<u64>()
        );
        assert_eq!(t.internal_bytes + t.external_total(), t.total_bytes);
    }
}

/// Theorem 1's first-order bound holds for exact softmax pairs under
/// small logit perturbations.
#[test]
fn softmax_drift_bound_holds() {
    for seed in 0..CASES {
        let mut rng = DetRng::new(seed);
        let logits: Vec<f64> = (0..6).map(|_| f64::from(rng.uniform(-4.0, 4.0))).collect();
        let delta: Vec<f64> = (0..6)
            .map(|_| f64::from(rng.uniform(-1e-3, 1e-3)))
            .collect();
        let softmax = |v: &[f64]| {
            let m = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let e: Vec<f64> = v.iter().map(|x| (x - m).exp()).collect();
            let s: f64 = e.iter().sum();
            e.into_iter().map(|x| x / s).collect::<Vec<f64>>()
        };
        let p0 = softmax(&logits);
        let shifted: Vec<f64> = logits.iter().zip(&delta).map(|(&l, &d)| l + d).collect();
        let p1 = softmax(&shifted);
        let max_drift = delta.iter().cloned().fold(0.0f64, |a, b| a.max(b.abs()));
        for e in 0..6 {
            let observed = (p0[e] - p1[e]).abs();
            let bound = drift_bound_from_logits(p0[e], 6, max_drift);
            assert!(
                observed <= bound * 1.05 + 1e-12,
                "seed {seed} expert {e}: observed {observed} bound {bound}"
            );
        }
    }
}

/// Locality profiles sample valid distinct top-k sets.
#[test]
fn profile_sampling_valid() {
    for seed in 0..CASES {
        let zipf = f64::from(DetRng::new(seed ^ 0x21F).uniform(0.0, 2.5));
        let profile = LocalityProfile::synthetic("p", 2, 8, zipf, seed);
        let mut rng = DetRng::new(seed);
        let picks = profile.sample_topk(0, 2, &mut rng);
        assert_eq!(picks.len(), 2, "seed {seed}");
        assert_ne!(picks[0], picks[1], "seed {seed}");
        assert!(picks.iter().all(|&e| e < 8));
    }
}
