//! The VELA distributed fine-tuning runtime (§IV-A of the paper).
//!
//! Implements the master–worker architecture with Expert Brokers:
//!
//! * the **master** process owns the model backbone and drives training;
//! * **Expert Manager workers** own disjoint expert shards, run expert
//!   forward/backward passes on request, and step their own optimizers;
//! * the **[`BrokerClient`]** implements the backbone's
//!   [`ExpertProvider`](vela_model::ExpertProvider) seam by shipping token
//!   groups to workers as serialized [`Message`]s over
//!   [`transport`] links that record every byte in a
//!   [`TrafficLedger`](vela_cluster::TrafficLedger).
//!
//! One [`Session`] brings that star up, steps it and shuts it down, over
//! one of two step bodies:
//!
//! * [`RealRuntime`] — real tensors at micro scale; bit-identical to
//!   single-process fine-tuning (the paper's §V-A parity claim, verified in
//!   `tests/contract.rs`);
//! * [`VirtualEngine`] — the same session carrying *virtual* payloads at
//!   Mixtral-8x7B scale, driven by measured locality profiles (generates
//!   Figs. 5–6's VELA/Sequential/Random series).
//!
//! [`EpEngine`], conventional expert parallelism (sharded inputs,
//! all-to-all with its status-synchronization round, gradient all-reduce:
//! the EP baseline series), shares the ledger and cost model.

pub mod broker;
pub mod ep_engine;
pub mod launch;
pub mod message;
pub mod metrics;
pub(crate) mod pipeline;
pub mod routing;
pub mod runtime;
pub mod session;
pub mod transport;
pub mod virtual_engine;
pub mod wire;
pub mod worker;

pub use broker::BrokerClient;
pub use ep_engine::EpEngine;
pub use message::{
    chunk_expert_state, Bucket, ChunkAssembler, Direction, FrameInfo, FrameKind, FrameSpec,
    GroupPass, Message, PackedData, PackedGroup, PackedReply, PackedRow, RowSpan,
    EXPERT_CHUNK_BYTES, FRAMES,
};
pub use metrics::{RunSummary, StepMetrics};
pub use runtime::{MigrationHandle, RealRuntime};
pub use session::Session;
pub use transport::{TransportConfig, TransportError, TransportMode, WireStats};
pub use virtual_engine::{ScaleConfig, VirtualEngine};
pub use wire::WireError;
