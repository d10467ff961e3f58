//! Expert-locality measurement toolkit.
//!
//! This crate implements the measurement side of the paper's §III:
//!
//! * [`AccessTracker`] — per-block, per-expert access counters fed from the
//!   model's routing snapshots (Fig. 3(a), Fig. 7 heatmaps);
//! * [`Cdf`] — empirical CDFs of selected-expert softmax scores
//!   (Fig. 3(b));
//! * [`stability`] — drift metrics across fine-tuning steps (Fig. 3(c));
//! * [`theorem`] — the Theorem 1 softmax-stability bound and its empirical
//!   verification;
//! * [`LocalityProfile`] — measured (or synthetic) access-probability
//!   matrices, the `P ∈ R^{L×E}` that drives VELA's placement LP and the
//!   scale-virtual routing in the evaluation.
//!
//! It only measures: nothing here triggers a re-placement.

pub mod cdf;
pub mod counter;
pub mod profile;
pub mod stability;
pub mod theorem;

pub use cdf::Cdf;
pub use counter::AccessTracker;
pub use profile::LocalityProfile;
pub use stability::StabilityReport;
