//! Cluster topology, bandwidth, communication cost model, simulated time
//! and traffic ledger.
//!
//! This crate is the testbed substitute: the paper evaluates on 3 nodes ×
//! 2 NVIDIA V100s with 18.3 GB/s intra-node and 1.17 GB/s inter-node links;
//! [`Topology::paper_testbed`] encodes exactly that. On top of the topology
//! sit:
//!
//! * [`CostModel`] — the communication-time expressions of the paper
//!   (Eqs. (5)–(7)): one-to-all master/worker transfers, the all-to-all
//!   exchange of conventional expert parallelism (including its
//!   status-synchronization round), ring all-reduce, and compute time;
//! * [`TrafficLedger`] — byte-accurate accounting of every transfer,
//!   aggregated per node into the *external traffic* metric of Fig. 5;
//! * [`TimeBreakdown`] — simulated seconds per category, so Fig. 6's
//!   step-time numbers are deterministic and hardware-independent.

pub mod bandwidth;
pub mod clock;
pub mod cost;
pub mod ledger;
pub mod topology;

pub use bandwidth::Bandwidth;
pub use clock::TimeBreakdown;
pub use cost::CostModel;
pub use ledger::{StepTraffic, TrafficLedger};
pub use topology::{DeviceId, NodeId, Topology};
