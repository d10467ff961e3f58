//! A from-scratch two-phase simplex solver with bounded variables.
//!
//! Solves `min cᵀx` subject to sparse linear constraints and box bounds
//! `0 ≤ x_j ≤ u_j` (with `u_j = ∞` allowed). Implemented as a dense-tableau
//! bounded-variable simplex:
//!
//! * every constraint is converted to an equality with a slack variable;
//! * rows without a natural slack basis receive an artificial variable and
//!   Phase 1 minimizes the artificial sum;
//! * nonbasic variables rest at either bound, so the `0 ≤ X ≤ 1` box of the
//!   placement relaxation is handled implicitly instead of through
//!   thousands of explicit constraint rows;
//! * Dantzig pricing with a fallback to Bland's rule guards against
//!   cycling.
//!
//! The pivot path is part of the contract: the rounded placement depends on
//! the vertex reached, so a change here must walk the same pivots, which
//! `simplex/pivot_path.rs` pins bit for bit. The placement LP for the
//! paper's testbed (6 workers × 32 blocks × 8 experts → 1 568 structural
//! variables, 454 rows) takes 2 108 iterations and 0.13 s in a release
//! build (`cargo bench -p vela-bench --bench simplex`).

use std::fmt;

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `≤ rhs`
    Le,
    /// `= rhs`
    Eq,
    /// `≥ rhs`
    Ge,
}

/// Outcome category of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// The iteration limit was reached (should not happen in practice).
    IterationLimit,
}

impl fmt::Display for LpStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LpStatus::Optimal => "optimal",
            LpStatus::Infeasible => "infeasible",
            LpStatus::Unbounded => "unbounded",
            LpStatus::IterationLimit => "iteration limit",
        };
        f.write_str(s)
    }
}

/// Result of solving an LP.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Outcome category.
    pub status: LpStatus,
    /// Variable values (meaningful when `status == Optimal`).
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
    /// Simplex iterations performed (both phases).
    pub iterations: usize,
    /// The share of `iterations` spent in Phase 1 (0 when no row needed an
    /// artificial variable).
    pub phase1_iterations: usize,
}

/// A sparse constraint row: terms, comparison, right-hand side.
type ConstraintRow = (Vec<(usize, f64)>, Cmp, f64);

/// Incrementally builds a bounded LP: `min cᵀx` s.t. constraints,
/// `0 ≤ x ≤ u`.
///
/// # Example
/// ```
/// use vela_placement::{LpBuilder, LpStatus};
///
/// // min -x - y  s.t.  x + y <= 1.5, x,y in [0,1]
/// let mut lp = LpBuilder::new(2);
/// lp.set_objective(0, -1.0);
/// lp.set_objective(1, -1.0);
/// lp.add_constraint(&[(0, 1.0), (1, 1.0)], vela_placement::lp::simplex::Cmp::Le, 1.5);
/// lp.set_upper_bound(0, 1.0);
/// lp.set_upper_bound(1, 1.0);
/// let sol = lp.solve();
/// assert_eq!(sol.status, LpStatus::Optimal);
/// assert!((sol.objective + 1.5).abs() < 1e-7);
/// ```
#[derive(Debug, Clone)]
pub struct LpBuilder {
    n: usize,
    objective: Vec<f64>,
    upper: Vec<f64>,
    rows: Vec<ConstraintRow>,
}

impl LpBuilder {
    /// An LP over `n` variables, all with objective 0 and bounds `[0, ∞)`.
    pub fn new(n: usize) -> Self {
        LpBuilder {
            n,
            objective: vec![0.0; n],
            upper: vec![f64::INFINITY; n],
            rows: Vec::new(),
        }
    }

    /// Number of structural variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Sets the objective coefficient of variable `var`.
    ///
    /// # Panics
    /// Panics if `var` is out of range.
    pub fn set_objective(&mut self, var: usize, coeff: f64) -> &mut Self {
        self.objective[var] = coeff;
        self
    }

    /// Sets the upper bound of variable `var` (lower bound is always 0).
    ///
    /// # Panics
    /// Panics if `var` is out of range or `ub` is negative/NaN.
    pub fn set_upper_bound(&mut self, var: usize, ub: f64) -> &mut Self {
        assert!(ub >= 0.0, "upper bound must be nonnegative, got {ub}");
        self.upper[var] = ub;
        self
    }

    /// Adds a sparse constraint `Σ coeff·x_var  cmp  rhs`.
    ///
    /// # Panics
    /// Panics if any referenced variable is out of range.
    pub fn add_constraint(&mut self, terms: &[(usize, f64)], cmp: Cmp, rhs: f64) -> &mut Self {
        for &(v, _) in terms {
            assert!(v < self.n, "constraint references unknown variable {v}");
        }
        self.rows.push((terms.to_vec(), cmp, rhs));
        self
    }

    /// Solves the LP.
    pub fn solve(&self) -> LpSolution {
        Tableau::from_builder(self).solve()
    }
}

const EPS: f64 = 1e-9;
/// Minimum reduced-cost improvement to keep pivoting (coarser than `EPS`
/// so accumulated tableau round-off cannot sustain endless tiny pivots).
const PRICE_EPS: f64 = 1e-7;

/// Where a nonbasic variable currently rests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rest {
    Lower,
    Upper,
    Basic,
}

struct Tableau {
    /// Dense tableau, `m` rows of `stride` columns in one allocation.
    a: Vec<f64>,
    /// Columns per row: `[structural | slacks | artificials]`.
    stride: usize,
    /// Basic-variable values per row.
    beta: Vec<f64>,
    /// Basis column per row.
    basis: Vec<usize>,
    /// Rest state per column.
    rest: Vec<Rest>,
    /// Upper bound per column.
    upper: Vec<f64>,
    /// Phase-2 objective per column.
    cost: Vec<f64>,
    /// Index of the first artificial column.
    art_start: usize,
    n_structural: usize,
    iterations: usize,
    phase1_iterations: usize,
    /// Scratch: reduced cost per column, refilled by every pricing pass.
    z: Vec<f64>,
    /// Scratch: the rows whose basic variable has a non-zero cost.
    priced_rows: Vec<(usize, f64)>,
    /// Scratch: the entering column.
    col: Vec<f64>,
    /// Compare every pricing pass with the column-wise reference.
    #[cfg(test)]
    check_pricing: bool,
}

impl Tableau {
    fn from_builder(lp: &LpBuilder) -> Self {
        let m = lp.rows.len();
        // Rows are normalized to rhs >= 0 so slack/artificial bases are
        // valid; a negated row swaps `≤` and `≥`.
        let effective = |(_, cmp, rhs): &ConstraintRow| match (cmp, *rhs < 0.0) {
            (Cmp::Le, false) | (Cmp::Ge, true) => Cmp::Le,
            (Cmp::Ge, false) | (Cmp::Le, true) => Cmp::Ge,
            (Cmp::Eq, _) => Cmp::Eq,
        };
        let cmps: Vec<Cmp> = lp.rows.iter().map(effective).collect();
        let art_start = lp.n + cmps.iter().filter(|&&c| c != Cmp::Eq).count();
        let stride = art_start + cmps.iter().filter(|&&c| c != Cmp::Le).count();

        let mut a = vec![0.0; m * stride];
        let mut beta = Vec::with_capacity(m);
        let mut basis = Vec::with_capacity(m);
        let (mut next_slack, mut next_art) = (lp.n, art_start);
        let rows = a.chunks_exact_mut(stride.max(1));
        for (((terms, _, rhs), cmp), row) in lp.rows.iter().zip(cmps).zip(rows) {
            let sign = if *rhs < 0.0 { -1.0 } else { 1.0 };
            for &(v, c) in terms {
                row[v] += sign * c;
            }
            if cmp != Cmp::Eq {
                // Slack (`≤`) or surplus (`≥`).
                row[next_slack] = if cmp == Cmp::Le { 1.0 } else { -1.0 };
                next_slack += 1;
            }
            if cmp == Cmp::Le {
                basis.push(next_slack - 1); // slack is a valid basic var
            } else {
                row[next_art] = 1.0;
                basis.push(next_art);
                next_art += 1;
            }
            beta.push(sign * rhs);
        }

        let mut upper = lp.upper.clone();
        upper.resize(stride, f64::INFINITY);
        let mut cost = lp.objective.clone();
        cost.resize(stride, 0.0);
        let mut rest = vec![Rest::Lower; stride];
        for &b in &basis {
            rest[b] = Rest::Basic;
        }

        Tableau {
            a,
            stride,
            beta,
            basis,
            rest,
            upper,
            cost,
            art_start,
            n_structural: lp.n,
            iterations: 0,
            phase1_iterations: 0,
            z: vec![0.0; stride],
            priced_rows: Vec::with_capacity(m),
            col: vec![0.0; m],
            #[cfg(test)]
            check_pricing: false,
        }
    }

    fn solve(mut self) -> LpSolution {
        // Phase 1: minimize the sum of artificials.
        if self.art_start < self.stride {
            let mut phase1_cost = vec![0.0; self.stride];
            phase1_cost[self.art_start..].fill(1.0);
            let outcome = self.optimize(&phase1_cost, self.stride);
            self.phase1_iterations = self.iterations;
            if let Err(status) = outcome {
                return self.finish(status);
            }
            let basic_values = self.basis.iter().zip(&self.beta);
            let art_sum: f64 = basic_values
                .filter_map(|(&b, &v)| (b >= self.art_start).then_some(v))
                .sum();
            if art_sum > 1e-6 {
                return self.finish(LpStatus::Infeasible);
            }
            // Pin artificials at zero so Phase 2 cannot revive them.
            self.upper[self.art_start..].fill(0.0);
        }

        // Phase 2: the real objective, with the artificial columns retired.
        // None may enter, and ratio test and pivot read the entering column
        // only, so nothing looks at them again; one still basic (at 0)
        // keeps its `basis`, `upper` and `rest` entries, which is all the
        // ratio test asks of it.
        let cost = std::mem::take(&mut self.cost);
        let outcome = self.optimize(&cost, self.art_start);
        self.cost = cost;
        self.finish(outcome.err().unwrap_or(LpStatus::Optimal))
    }

    /// Fills `z[..width]` with the reduced costs `z_j = c_j − c_B · col_j`,
    /// one tableau row at a time: per column this is the same sequence of
    /// `z -= c_B[r] · a[r][j]` over ascending `r` as walking the column,
    /// hence the same bits (Rust does not contract to FMA) — but it reads
    /// memory in order and skips the rows with `c_B[r] = 0` once, not once
    /// per column.
    fn price(&mut self, cost: &[f64], width: usize) {
        self.priced_rows.clear();
        for (r, &b) in self.basis.iter().enumerate() {
            if cost[b] != 0.0 {
                self.priced_rows.push((r, cost[b]));
            }
        }
        let z = &mut self.z[..width];
        z.copy_from_slice(&cost[..width]);
        for &(r, c) in &self.priced_rows {
            for (z, &a) in z.iter_mut().zip(&self.a[r * self.stride..][..width]) {
                *z -= c * a;
            }
        }
    }

    /// Runs simplex iterations for the given cost vector. Columns at or
    /// beyond `width` may not enter the basis and are no longer maintained.
    /// Allocation-free.
    fn optimize(&mut self, cost: &[f64], width: usize) -> Result<(), LpStatus> {
        let stride = self.stride;
        let max_iters = 500_000;
        let bland_after = 2_000;
        let mut local_iters = 0usize;

        loop {
            self.iterations += 1;
            local_iters += 1;
            if local_iters > max_iters {
                return Err(LpStatus::IterationLimit);
            }
            let use_bland = local_iters > bland_after;

            self.price(cost, width);
            #[cfg(test)]
            if self.check_pricing {
                self.assert_prices_match_reference(cost, width);
            }

            let mut entering: Option<(usize, bool)> = None; // (col, from_lower)
            let mut best_score = PRICE_EPS;
            for j in 0..width {
                let from_lower = match self.rest[j] {
                    Rest::Basic => continue,
                    Rest::Lower if self.upper[j] <= 0.0 => continue, // fixed at zero
                    Rest::Lower => true,
                    Rest::Upper => false,
                };
                // At the lower bound a negative z improves, at the upper a
                // positive one.
                let improving = if from_lower { -self.z[j] } else { self.z[j] };
                if improving > best_score {
                    entering = Some((j, from_lower));
                    if use_bland {
                        break;
                    }
                    best_score = improving;
                }
            }
            let Some((j, from_lower)) = entering else {
                return Ok(()); // optimal for this phase
            };
            for (d, row) in self.col.iter_mut().zip(self.a.chunks_exact(stride)) {
                *d = row[j];
            }

            // Direction of basic-variable change per unit step t:
            // from_lower: x_B -= d t; from_upper: x_B += d t, d = col_j.
            let mut t_max = self.upper[j]; // bound flip distance
            let mut leave: Option<(usize, bool)> = None; // (row, leaves_at_upper)
            for (r, &d) in self.col.iter().enumerate() {
                if d.abs() <= EPS {
                    continue;
                }
                let bi = self.basis[r];
                let (down_room, up_room) = (self.beta[r], self.upper[bi] - self.beta[r]);
                // Effective coefficient: from_lower → x_B moves by −d·t;
                // from_upper → +d·t.
                let delta = if from_lower { -d } else { d };
                let (room, at_upper) = if delta < 0.0 {
                    (down_room.max(0.0) / (-delta), false)
                } else {
                    (up_room.max(0.0) / delta, true)
                };
                if room < t_max - EPS {
                    t_max = room;
                    leave = Some((r, at_upper));
                } else if (room - t_max).abs() <= EPS && room.is_finite() {
                    // Tie: under Bland's rule pick the smallest basis index
                    // (required for termination on degenerate problems);
                    // otherwise keep the first row found.
                    match leave {
                        None => leave = Some((r, at_upper)),
                        Some((prev, _)) if use_bland && self.basis[r] < self.basis[prev] => {
                            leave = Some((r, at_upper));
                        }
                        _ => {}
                    }
                }
            }

            if !t_max.is_finite() {
                return Err(LpStatus::Unbounded);
            }
            let t = t_max.max(0.0);

            // Update basic values (a bound flip stops here).
            for (b, &d) in self.beta.iter_mut().zip(&self.col) {
                if d != 0.0 {
                    *b += if from_lower { -d * t } else { d * t };
                }
            }
            let Some((r, leaves_at_upper)) = leave else {
                self.rest[j] = if from_lower { Rest::Upper } else { Rest::Lower };
                continue;
            };
            let old_basic = self.basis[r];
            self.rest[old_basic] = if leaves_at_upper {
                Rest::Upper
            } else {
                Rest::Lower
            };
            self.rest[j] = Rest::Basic;
            self.basis[r] = j;
            // Entering variable's new value.
            self.beta[r] = if from_lower { t } else { self.upper[j] - t };

            // Pivot: normalize row r on column j, eliminate others.
            debug_assert!(self.col[r].abs() > EPS, "zero pivot");
            let inv = 1.0 / self.col[r];
            let (above, rest) = self.a.split_at_mut(r * stride);
            let (pivot_row, below) = rest.split_at_mut(stride);
            let pivot_row = &mut pivot_row[..width];
            for v in pivot_row.iter_mut() {
                *v *= inv;
            }
            let others = above
                .chunks_exact_mut(stride)
                .chain(below.chunks_exact_mut(stride));
            let factors = self.col[..r].iter().chain(&self.col[r + 1..]);
            for (row, &factor) in others.zip(factors) {
                if factor.abs() > EPS {
                    for (v, &p) in row[..width].iter_mut().zip(pivot_row.iter()) {
                        *v -= factor * p;
                    }
                }
                row[j] = 0.0;
            }
        }
    }

    fn finish(self, status: LpStatus) -> LpSolution {
        let mut x: Vec<f64> = (0..self.n_structural)
            .map(|j| match self.rest[j] {
                Rest::Upper => self.upper[j],
                Rest::Lower | Rest::Basic => 0.0,
            })
            .collect();
        for (&b, &value) in self.basis.iter().zip(&self.beta) {
            if b < self.n_structural {
                x[b] = value;
            }
        }
        let objective = x.iter().zip(&self.cost).map(|(&v, &c)| v * c).sum::<f64>();
        LpSolution {
            status,
            x,
            objective,
            iterations: self.iterations,
            phase1_iterations: self.phase1_iterations,
        }
    }
}

#[cfg(test)]
mod pivot_path;

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn trivial_bounded_maximization() {
        // min -x st x <= 10, x unbounded above by box.
        let mut lp = LpBuilder::new(1);
        lp.set_objective(0, -1.0);
        lp.add_constraint(&[(0, 1.0)], Cmp::Le, 10.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.x[0], 10.0);
        assert_close(sol.objective, -10.0);
    }

    #[test]
    fn box_bound_without_constraints() {
        // min -x with x ∈ [0, 3]: pure bound flip, no pivots needed.
        let mut lp = LpBuilder::new(1);
        lp.set_objective(0, -1.0);
        lp.set_upper_bound(0, 3.0);
        lp.add_constraint(&[(0, 1.0)], Cmp::Le, 100.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.x[0], 3.0);
    }

    #[test]
    fn classic_two_variable_lp() {
        // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18  (Dantzig's example)
        // optimum (2, 6), value 36.
        let mut lp = LpBuilder::new(2);
        lp.set_objective(0, -3.0);
        lp.set_objective(1, -5.0);
        lp.add_constraint(&[(0, 1.0)], Cmp::Le, 4.0);
        lp.add_constraint(&[(1, 2.0)], Cmp::Le, 12.0);
        lp.add_constraint(&[(0, 3.0), (1, 2.0)], Cmp::Le, 18.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, -36.0);
        assert_close(sol.x[0], 2.0);
        assert_close(sol.x[1], 6.0);
    }

    #[test]
    fn equality_constraints_need_phase_one() {
        // min x + y st x + y = 5, x - y = 1 → x=3, y=2.
        let mut lp = LpBuilder::new(2);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 1.0);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Cmp::Eq, 5.0);
        lp.add_constraint(&[(0, 1.0), (1, -1.0)], Cmp::Eq, 1.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.x[0], 3.0);
        assert_close(sol.x[1], 2.0);
    }

    #[test]
    fn ge_constraints() {
        // min 2x + 3y st x + y >= 4, x >= 1 → (4, 0)? y can be 0: x>=4 via
        // first constraint → x=4,y=0 cost 8.
        let mut lp = LpBuilder::new(2);
        lp.set_objective(0, 2.0);
        lp.set_objective(1, 3.0);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Cmp::Ge, 4.0);
        lp.add_constraint(&[(0, 1.0)], Cmp::Ge, 1.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 8.0);
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // x - y <= -2  ⇔  y - x >= 2; min y → y=2 at x=0.
        let mut lp = LpBuilder::new(2);
        lp.set_objective(1, 1.0);
        lp.add_constraint(&[(0, 1.0), (1, -1.0)], Cmp::Le, -2.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 2.0);
    }

    #[test]
    fn infeasible_detected() {
        // x <= 1 and x >= 2.
        let mut lp = LpBuilder::new(1);
        lp.add_constraint(&[(0, 1.0)], Cmp::Le, 1.0);
        lp.add_constraint(&[(0, 1.0)], Cmp::Ge, 2.0);
        assert_eq!(lp.solve().status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LpBuilder::new(1);
        lp.set_objective(0, -1.0);
        lp.add_constraint(&[(0, -1.0)], Cmp::Le, 0.0); // x >= 0, no cap
        assert_eq!(lp.solve().status, LpStatus::Unbounded);
    }

    #[test]
    fn upper_bounds_make_it_bounded() {
        let mut lp = LpBuilder::new(3);
        for j in 0..3 {
            lp.set_objective(j, -(j as f64 + 1.0));
            lp.set_upper_bound(j, 1.0);
        }
        lp.add_constraint(&[(0, 1.0), (1, 1.0), (2, 1.0)], Cmp::Le, 2.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        // Take the two most valuable: x2 = x1 = 1.
        assert_close(sol.objective, -5.0);
        assert_close(sol.x[2], 1.0);
        assert_close(sol.x[1], 1.0);
        assert_close(sol.x[0], 0.0);
    }

    #[test]
    fn min_max_linearization_pattern() {
        // The placement pattern: min λ st a_n·x ≤ λ, Σ x = 1, x ∈ [0,1].
        // Two "workers" with costs 1 and 3: optimum splits x = (0.75, 0.25),
        // λ = 0.75.
        let mut lp = LpBuilder::new(3); // x0, x1, λ
        lp.set_objective(2, 1.0);
        lp.set_upper_bound(0, 1.0);
        lp.set_upper_bound(1, 1.0);
        lp.add_constraint(&[(0, 1.0), (2, -1.0)], Cmp::Le, 0.0);
        lp.add_constraint(&[(1, 3.0), (2, -1.0)], Cmp::Le, 0.0);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Cmp::Eq, 1.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 0.75);
        assert_close(sol.x[0], 0.75);
        assert_close(sol.x[1], 0.25);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Multiple redundant constraints at the same vertex.
        let mut lp = LpBuilder::new(2);
        lp.set_objective(0, -1.0);
        lp.set_objective(1, -1.0);
        for _ in 0..5 {
            lp.add_constraint(&[(0, 1.0), (1, 1.0)], Cmp::Le, 1.0);
        }
        lp.add_constraint(&[(0, 1.0)], Cmp::Le, 1.0);
        lp.add_constraint(&[(1, 1.0)], Cmp::Le, 1.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, -1.0);
    }

    #[test]
    fn medium_random_lp_agrees_with_greedy_knapsack_relaxation() {
        // min -Σ v_j x_j st Σ w_j x_j <= W, 0 <= x <= 1: fractional knapsack,
        // solvable greedily by value density.
        let n = 40;
        let mut state = 99u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
            ((state >> 33) as f64 / u32::MAX as f64) + 0.1
        };
        let values: Vec<f64> = (0..n).map(|_| next()).collect();
        let weights: Vec<f64> = (0..n).map(|_| next()).collect();
        let cap: f64 = weights.iter().sum::<f64>() * 0.4;

        let mut lp = LpBuilder::new(n);
        let mut terms = Vec::new();
        for j in 0..n {
            lp.set_objective(j, -values[j]);
            lp.set_upper_bound(j, 1.0);
            terms.push((j, weights[j]));
        }
        lp.add_constraint(&terms, Cmp::Le, cap);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);

        // Greedy fractional knapsack.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            (values[b] / weights[b])
                .partial_cmp(&(values[a] / weights[a]))
                .unwrap()
        });
        let mut room = cap;
        let mut best = 0.0;
        for &j in &order {
            let take = (room / weights[j]).min(1.0);
            best += take * values[j];
            room -= take * weights[j];
            if room <= 0.0 {
                break;
            }
        }
        assert!(
            (sol.objective + best).abs() < 1e-5,
            "{} vs {}",
            sol.objective,
            -best
        );
    }

    #[test]
    fn solution_reports_iterations() {
        let mut lp = LpBuilder::new(2);
        lp.set_objective(0, -1.0);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Cmp::Le, 1.0);
        let sol = lp.solve();
        assert!(sol.iterations >= 1);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn bad_variable_index_panics() {
        LpBuilder::new(1).add_constraint(&[(3, 1.0)], Cmp::Le, 1.0);
    }
}
