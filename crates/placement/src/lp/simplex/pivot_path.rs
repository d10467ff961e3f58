//! The solver's contract is the pivot path, not just the optimum: the
//! rounded placement — and with it the external bytes of a fine-tuning
//! step — is a function of the vertex the simplex stops at.
//!
//! Two pins. The column-wise reduced cost the solver used before it priced
//! row-major survives here as a reference, compared `to_bits()` with every
//! pricing pass of three problem families. And `iterations`,
//! `phase1_iterations` and an FNV-1a hash of the solution's bits must equal
//! constants recorded from that older solver (commit cf3d9d8, x86-64
//! glibc; the two placement profiles go through `powf`, so another libm
//! may legitimately move them — the random family uses no libm call).
//!
//! `scripts/verify.sh` runs these in release as well as through `cargo
//! test`: the arithmetic under test is the release build's.

use super::*;
use crate::lp::build::build_lp;
use crate::problem::PlacementProblem;
use vela_cluster::{DeviceId, Topology};
use vela_locality::LocalityProfile;
use vela_model::MoeSpec;
use vela_tensor::rng::DetRng;

impl Tableau {
    /// Panics unless `z` holds, for every column pricing may pick, the bits
    /// of `c_j − Σ_r c_B[r]·a[r][j]` accumulated down the column.
    pub(super) fn assert_prices_match_reference(&self, cost: &[f64], width: usize) {
        for j in 0..width {
            let fixed_at_zero = self.upper[j] <= 0.0 && self.rest[j] == Rest::Lower;
            if self.rest[j] == Rest::Basic || fixed_at_zero {
                continue;
            }
            let mut z = cost[j];
            for (r, &b) in self.basis.iter().enumerate() {
                let c = cost[b];
                if c != 0.0 {
                    z -= c * self.a[r * self.stride + j];
                }
            }
            assert_eq!(
                self.z[j].to_bits(),
                z.to_bits(),
                "iteration {}, column {j}: row-major {} vs column-wise {z}",
                self.iterations,
                self.z[j]
            );
        }
    }
}

/// Solves `lp`, checking every pricing pass against the reference.
fn solve_checked(lp: &LpBuilder) -> LpSolution {
    let mut tableau = Tableau::from_builder(lp);
    tableau.check_pricing = true;
    tableau.solve()
}

/// `benches/simplex.rs::problem(32)`: the paper's 6 × 32 × 8 instance.
fn paper_size_lp() -> LpBuilder {
    let spec = MoeSpec::mixtral_8x7b();
    let profile = LocalityProfile::synthetic("b", 32, spec.experts, 1.2, 3);
    build_lp(&PlacementProblem::new(
        Topology::paper_testbed(),
        DeviceId(0),
        (0..6).map(DeviceId).collect(),
        profile.to_matrix(),
        8192.0,
        spec.token_bytes(),
        PlacementProblem::even_capacities(32, spec.experts, 6, 5),
    ))
}

/// The shape of the benchmark's `wire-heavy` LP: 32 blocks × 8 experts on
/// two workers with no spare slot, 128 assignments of 128 bytes a step.
fn wire_heavy_lp() -> LpBuilder {
    let profile = LocalityProfile::synthetic("w", 32, 8, 1.2, 7);
    build_lp(&PlacementProblem::new(
        Topology::paper_testbed(),
        DeviceId(0),
        vec![DeviceId(1), DeviceId(2)],
        profile.to_matrix(),
        128.0,
        128,
        PlacementProblem::even_capacities(32, 8, 2, 0),
    ))
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash = (*hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn x_hash(sol: &LpSolution) -> u64 {
    let mut hash = FNV_OFFSET;
    for v in &sol.x {
        fnv(&mut hash, v.to_bits());
    }
    hash
}

/// What the parent solver returned for one of the two placement LPs.
struct Recorded {
    iterations: usize,
    phase1_iterations: usize,
    x_hash: u64,
    objective_bits: u64,
}

fn assert_walks_recorded_path(lp: &LpBuilder, recorded: &Recorded) {
    let sol = solve_checked(lp);
    assert_eq!(sol.status, LpStatus::Optimal);
    assert_eq!(sol.iterations, recorded.iterations);
    assert_eq!(sol.phase1_iterations, recorded.phase1_iterations);
    assert_eq!(x_hash(&sol), recorded.x_hash, "a different vertex");
    assert_eq!(sol.objective.to_bits(), recorded.objective_bits);
    // The check itself must not steer the solve.
    assert_eq!(lp.solve(), sol);
}

#[test]
fn paper_size_lp_walks_the_parents_pivots() {
    let recorded = Recorded {
        iterations: 2108,
        phase1_iterations: 1014,
        x_hash: 0x455e_2bc5_3caa_4526,
        objective_bits: 0x4014_2a4a_8896_d120,
    };
    assert_walks_recorded_path(&paper_size_lp(), &recorded);
}

#[test]
fn wire_heavy_shaped_lp_walks_the_parents_pivots() {
    let recorded = Recorded {
        iterations: 686,
        phase1_iterations: 533,
        x_hash: 0xab1f_d237_71d8_8243,
        objective_bits: 0x402c_3465_0f54_4b36,
    };
    assert_walks_recorded_path(&wire_heavy_lp(), &recorded);
}

/// An LP over `n` variables and `m` rows mixing `≤`, `≥` and `=`, finite
/// and infinite upper bounds. Right-hand sides are taken at a point inside
/// the box, so they come out negative about as often as positive, and a
/// row is feasible unless it is one of the `wild` share that ignores the
/// point.
fn random_lp(rng: &mut DetRng, n: usize, m: usize, density: f32, wild: f32) -> LpBuilder {
    let mut lp = LpBuilder::new(n);
    let mut x0 = Vec::with_capacity(n);
    for j in 0..n {
        lp.set_objective(j, rng.uniform(-2.0, 2.0) as f64);
        if rng.chance(0.6) {
            let ub = rng.uniform(0.5, 4.0) as f64;
            lp.set_upper_bound(j, ub);
            x0.push(ub * rng.unit() as f64);
        } else {
            x0.push(rng.uniform(0.0, 3.0) as f64);
        }
    }
    for _ in 0..m {
        let mut terms = Vec::new();
        for j in 0..n {
            if rng.chance(density) {
                terms.push((j, rng.uniform(-3.0, 3.0) as f64));
            }
        }
        if terms.is_empty() {
            terms.push((rng.below(n), 1.0));
        }
        let at_x0: f64 = terms.iter().map(|&(j, c)| c * x0[j]).sum();
        let slack = rng.uniform(0.0, 2.0) as f64;
        let at_x0 = if rng.chance(wild) {
            rng.uniform(-6.0, 6.0) as f64
        } else {
            at_x0
        };
        match rng.below(3) {
            0 => lp.add_constraint(&terms, Cmp::Le, at_x0 + slack),
            1 => lp.add_constraint(&terms, Cmp::Ge, at_x0 - slack),
            _ => lp.add_constraint(&terms, Cmp::Eq, at_x0),
        };
    }
    lp
}

#[test]
fn random_lps_walk_the_parents_pivots() {
    let mut rng = DetRng::new(0x51AB1E);
    let mut hash = FNV_OFFSET;
    let mut by_status = [0usize; 4];
    let mut negative_rhs = 0;
    for i in 0..64 {
        let lp = match i {
            // Large enough that Phase 2 outlasts `bland_after`: the
            // placement LPs never reach Bland's rule.
            0 => random_lp(&mut rng, 300, 200, 0.3, 0.0),
            // Every row twice: the second copy of an equality keeps its
            // artificial basic at zero all through Phase 2.
            1 => {
                let mut lp = random_lp(&mut rng, 12, 8, 0.6, 0.0);
                for (terms, cmp, rhs) in lp.rows.clone() {
                    lp.add_constraint(&terms, cmp, rhs);
                }
                lp
            }
            _ => {
                let (n, m) = (2 + rng.below(14), 1 + rng.below(12));
                random_lp(&mut rng, n, m, 0.6, 0.1)
            }
        };
        negative_rhs += lp.rows.iter().filter(|row| row.2 < 0.0).count();
        let sol = solve_checked(&lp);
        if i == 0 {
            assert_eq!((sol.iterations, sol.phase1_iterations), (2863, 509));
            assert!(sol.iterations - sol.phase1_iterations > 2_000, "Bland");
        }
        by_status[sol.status as usize] += 1;
        fnv(&mut hash, sol.status as u64);
        fnv(&mut hash, sol.iterations as u64);
        fnv(&mut hash, sol.phase1_iterations as u64);
        fnv(&mut hash, sol.objective.to_bits());
        fnv(&mut hash, x_hash(&sol));
    }
    // Optimal, infeasible, unbounded, iteration limit.
    assert_eq!(by_status, [43, 8, 13, 0]);
    assert!(
        negative_rhs > 100,
        "{negative_rhs} negative right-hand sides"
    );
    assert_eq!(
        hash, 0xe950_91ba_8392_8d56,
        "a solution differs from the parent's"
    );
}
