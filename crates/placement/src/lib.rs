//! Locality-aware expert placement — the core contribution of the VELA
//! paper (§IV-B).
//!
//! Given a cluster [`Topology`](vela_cluster::Topology), a measured expert
//! access-probability matrix `P ∈ R^{L×E}` and per-worker capacities, this
//! crate finds the expert-to-device assignment that minimizes the expected
//! per-step communication time
//!
//! ```text
//! min Σ_l max_n E[T_{n,l}],   E[T_{n,l}] ∝ (1/B_n) Σ_e X_{n,l,e} P_{l,e}
//! ```
//!
//! exactly as formulated in the paper: the max is linearized with per-block
//! auxiliary variables, the binary assignment tensor is relaxed to `[0, 1]`,
//! the LP is solved with a from-scratch [two-phase bounded-variable simplex
//! solver](lp::simplex), and the fractional solution is rounded back to a
//! feasible binary placement with the paper's three-step procedure
//! ([`lp::rounding`]).
//!
//! Baselines (sequential, random, conventional expert parallelism) and an
//! exact branch-and-bound reference live in [`strategy`] and [`exact`].

pub mod exact;
pub mod lp;
pub mod problem;
pub mod replicated;
pub mod strategy;

pub use lp::simplex::{LpBuilder, LpSolution, LpStatus};
pub use problem::{Placement, PlacementProblem};
pub use replicated::ReplicatedPlacement;
pub use strategy::Strategy;
