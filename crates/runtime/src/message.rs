//! The binary wire format exchanged between the master and the Expert
//! Manager workers.
//!
//! Messages are hand-serialized into plain byte vectors (via the in-tree
//! [`crate::wire`] primitives) so the traffic ledger
//! can account the exact on-wire size. Every data frame carries its rows
//! as one packed region ([`PackedData`]) in one of two encodings:
//!
//! * [`PackedData::F32`] — actual `f32` values (micro-scale runs);
//! * [`PackedData::Virtual`] — a size descriptor standing in for rows of
//!   the evaluation model's true dimensions (scale-virtual runs). The
//!   declared byte count is what the ledger records, so Fig. 5's traffic is
//!   computed at genuine Mixtral proportions without materializing 8 KiB
//!   per token.

use crate::wire::{ByteReader, ByteWriter, WireError};
use crate::worker::{ExpertTemplate, WorkerBootstrap};
use vela_nn::optim::AdamWConfig;

/// Which half of a block-pass a dispatch frame belongs to. The reply
/// mirrors the pass so the master can check it is draining the exchange it
/// started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupPass {
    /// Token activations out, expert outputs back.
    Forward,
    /// Output gradients out, input gradients back.
    Backward,
}

/// One expert's contiguous row region inside a packed frame.
///
/// `offset`/`rows` index token rows (not bytes) into the frame's single
/// data region. Spans are dense and ascending by construction — each
/// span's `offset` equals the sum of all previous spans' `rows` — and the
/// decoder rejects any frame violating that, so overlapping or
/// out-of-range regions can never be installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowSpan {
    /// Expert index within the block.
    pub expert: u32,
    /// First row of this expert's region.
    pub offset: u32,
    /// Number of rows in the region.
    pub rows: u32,
}

/// The data region of a packed frame.
#[derive(Debug, Clone, PartialEq)]
pub enum PackedData {
    /// Bit-exact row-major `f32` rows (`total_rows · width` values).
    F32(Vec<f32>),
    /// Size-only virtual rows; the region carries no bytes at all.
    Virtual,
}

impl PackedData {
    /// Accounted bytes per row for a region of this encoding: actual data
    /// bytes for real rows, the declared token size for virtual rows.
    /// `width` is features per row for real data, bytes per token for
    /// virtual.
    pub fn row_cost(&self, width: u32) -> u64 {
        match self {
            PackedData::F32(_) => u64::from(width) * 4,
            PackedData::Virtual => u64::from(width),
        }
    }

    /// Bytes the region actually puts on the wire (none for virtual rows).
    pub fn wire_bytes(&self) -> u64 {
        match self {
            PackedData::F32(values) => (values.len() * 4) as u64,
            PackedData::Virtual => 0,
        }
    }

    /// Borrows the contiguous f32 region of an exact frame.
    pub fn as_f32(&self) -> Option<&[f32]> {
        match self {
            PackedData::F32(data) => Some(data),
            PackedData::Virtual => None,
        }
    }
}

/// A column-packed dispatch frame (master → worker): every row bound for
/// one worker in one block-pass as a single contiguous region, prefixed by
/// a compact span table — no per-item payload headers.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedGroup {
    /// MoE block index.
    pub block: u32,
    /// Forward (token activations) or backward (gradients).
    pub pass: GroupPass,
    /// Features per row for real data; declared bytes per token for
    /// virtual rows.
    pub width: u32,
    /// Dense ascending per-expert row regions.
    pub spans: Vec<RowSpan>,
    /// The single contiguous data region.
    pub data: PackedData,
}

impl PackedGroup {
    /// Packs per-expert row slices into one contiguous frame. `parts`
    /// yields `(expert, rows)` where each slice is `rows · width` long.
    ///
    /// # Panics
    /// Panics on ragged slices or more than 65535 rows/expert index per
    /// span (the packed span format is deliberately compact).
    pub fn pack<'a>(
        block: u32,
        pass: GroupPass,
        width: u32,
        parts: impl Iterator<Item = (u32, &'a [f32])>,
    ) -> PackedGroup {
        let mut spans = Vec::new();
        let mut region: Vec<f32> = Vec::new();
        let mut offset = 0u32;
        for (expert, rows) in parts {
            assert!(
                width > 0 && rows.len() % width as usize == 0,
                "ragged packed rows"
            );
            let n = (rows.len() / width as usize) as u32;
            spans.push(RowSpan {
                expert,
                offset,
                rows: n,
            });
            offset += n;
            region.extend_from_slice(rows);
        }
        PackedGroup {
            block,
            pass,
            width,
            spans,
            data: PackedData::F32(region),
        }
    }

    /// Packs size-only virtual rows: `parts` yields `(expert, rows)`.
    pub fn pack_virtual(
        block: u32,
        pass: GroupPass,
        bytes_per_token: u32,
        parts: impl Iterator<Item = (u32, u32)>,
    ) -> PackedGroup {
        let mut spans = Vec::new();
        let mut offset = 0u32;
        for (expert, rows) in parts {
            spans.push(RowSpan {
                expert,
                offset,
                rows,
            });
            offset += rows;
        }
        PackedGroup {
            block,
            pass,
            width: bytes_per_token,
            spans,
            data: PackedData::Virtual,
        }
    }

    /// Total rows across all spans.
    pub fn total_rows(&self) -> u32 {
        self.spans.iter().map(|s| s.rows).sum()
    }
}

/// The reply to a [`PackedGroup`] (worker → master). Carries no span
/// table at all: results come back in dispatch order, so the master
/// re-slices the region against the layout it just sent — per-item wire
/// overhead on the result path is zero.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedReply {
    /// MoE block index.
    pub block: u32,
    /// Pass of the dispatch this answers.
    pub pass: GroupPass,
    /// Features per row (bytes per token for virtual rows).
    pub width: u32,
    /// Item count echoed from the dispatch (accounting parity with
    /// per-batch framing needs it; it is 2 bytes, not a span table).
    pub items: u32,
    /// Total rows in the region.
    pub rows: u32,
    /// The single contiguous data region.
    pub data: PackedData,
}

/// A single packed row: one expert's flattened gradients in
/// [`Message::GradState`]. No span table and no row count — the region is
/// exactly one row.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedRow {
    /// Values in the row for real data; declared bytes for a virtual row.
    pub width: u32,
    /// The row itself.
    pub data: PackedData,
}

/// Frame classification for per-kind wire byte counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Master → worker activation/gradient traffic.
    Dispatch,
    /// Worker → master result traffic.
    Result,
    /// Expert parameter chunks (every re-placement, process-mode launch
    /// and teardown included) and replica gradient rows.
    ExpertState,
    /// Everything else (step markers, acks, shutdown).
    Control,
}

/// Which of the ledger's byte columns a frame's accounted bytes land in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bucket {
    /// Bypasses every accounting layer — ledger, frame counters and wire
    /// stats: clock probes (a traced run must stay byte- and
    /// frame-identical to an untraced one), the frames that drop a copy or
    /// its moments, which move no parameters, and the worker bootstrap.
    Unaccounted,
    /// The ordinary per-link totals only.
    Plain,
    /// The per-link totals and `sync_bytes` (replica gradient sync).
    Sync,
    /// The per-link totals and `migration_bytes` (frames that move expert
    /// parameters between workers, and the fetch/ack frames around them).
    Migration,
}

/// Which end of a link sends a frame. Descriptive: the codec itself is
/// symmetric, and every frame decodes on either end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Master → worker.
    ToWorker,
    /// Worker → master.
    ToMaster,
    /// Worker → master and master → worker: state the master fetches from
    /// one worker and installs on another.
    Both,
}

/// One row of the frame table: what is fixed about a [`Message`] variant
/// whatever values it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSpec {
    /// The frame's first byte on the wire.
    pub tag: u8,
    /// The [`Message`] variant's name.
    pub name: &'static str,
    /// Who sends it.
    pub direction: Direction,
    /// Where its accounted bytes go.
    pub bucket: Bucket,
    /// Its accounted-bytes rule, as written in the table.
    pub accounts: &'static str,
}

/// What [`MasterHub`](crate::transport::MasterHub) needs to account one
/// frame, read once per frame through [`Message::info`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// The ledger bucket of the frame's variant.
    pub bucket: Bucket,
    /// The byte count the ledger records: payload bytes (accounted, so
    /// virtual sizes are honoured) plus the routing header.
    pub accounted: u64,
    /// The `wire.*` counter lane of the frame's variant.
    pub kind: FrameKind,
    /// Data bytes actually on the wire (f32 values, expert-state blobs —
    /// virtual rows carry none); the rest of the encoded frame is header.
    pub payload: u64,
}

/// How one field type crosses the wire: the codec of every field in the
/// frame table is its type's. Any codec that sizes an allocation from a
/// declared length checks it against the bytes actually present first;
/// `what` labels the error that earns, for the one codec (the blob) whose
/// meaning only its row knows.
trait Field: Sized {
    fn put(&self, buf: &mut ByteWriter);
    fn get(bytes: &mut ByteReader<'_>, what: &'static str) -> Result<Self, WireError>;
}

impl Field for u32 {
    fn put(&self, buf: &mut ByteWriter) {
        buf.put_u32(*self)
    }
    fn get(bytes: &mut ByteReader<'_>, _: &'static str) -> Result<Self, WireError> {
        bytes.get_u32()
    }
}

impl Field for u64 {
    fn put(&self, buf: &mut ByteWriter) {
        buf.put_u64(*self)
    }
    fn get(bytes: &mut ByteReader<'_>, _: &'static str) -> Result<Self, WireError> {
        bytes.get_u64()
    }
}

/// A byte blob: a `u64` length, then the bytes.
impl Field for Vec<u8> {
    fn put(&self, buf: &mut ByteWriter) {
        buf.put_u64(self.len() as u64);
        buf.put_slice(self);
    }
    fn get(bytes: &mut ByteReader<'_>, what: &'static str) -> Result<Self, WireError> {
        let len = bytes.get_u64()?;
        if len > bytes.remaining() as u64 {
            return Err(WireError::BadLength {
                what,
                declared: len,
                available: bytes.remaining(),
            });
        }
        let mut data = vec![0u8; len as usize];
        bytes.copy_to_slice(&mut data)?;
        Ok(data)
    }
}

/// The error label a table field declares, if it declares one.
macro_rules! label {
    () => {
        ""
    };
    ($what:literal) => {
        $what
    };
}

/// Stamps the protocol out of one table. A row reads
///
/// ```text
/// tag Variant { field: Type, .. } => direction, bucket,
///     accounts <bytes the ledger records>, wire <kind>(<payload bytes>)
///     [, check <validation run after the fields decode>];
/// ```
///
/// and is the only place its frame's tag, fields, ledger bucket,
/// accounted-bytes rule and wire kind are written down: the [`Message`]
/// enum, [`FRAMES`], [`Message::encode`], [`Message::decode`] and
/// [`Message::info`] are all generated from it. A field's codec is its
/// type's [`Field`] impl — `u32`, `u64`, `Vec<u8>` (length-checked, `as`
/// the label its length error carries) and the three packed bodies. The
/// `accounts`, `wire` and `check` expressions see the row's fields by name.
macro_rules! frames {
    ($(
        $(#[$doc:meta])*
        $tag:literal $name:ident
        $({ $( $(#[$fdoc:meta])* $field:ident : $ty:ty $(as $what:literal)? ),* $(,)? })?
        $(( $body:ident : $bty:ty ))?
        => $dir:ident, $bucket:ident, accounts $acc:expr, wire $kind:ident $(($payload:expr))?
        $(, check $check:expr)? ;
    )*) => {
        /// A master↔worker protocol message.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Message {
            $(
                $(#[$doc])*
                $name
                $({ $( $(#[$fdoc])* $field: $ty ),* })?
                $(( $bty ))?,
            )*
        }

        /// The frame table, one [`FrameSpec`] per [`Message`] variant in
        /// tag order. Any first byte that is not a tag listed here decodes
        /// to [`WireError::BadTag`].
        pub const FRAMES: &[FrameSpec] = &[
            $(FrameSpec {
                tag: $tag,
                name: stringify!($name),
                direction: Direction::$dir,
                bucket: Bucket::$bucket,
                accounts: stringify!($acc),
            },)*
        ];

        impl Message {
            /// Serializes the message.
            pub fn encode(&self) -> Vec<u8> {
                let mut buf = ByteWriter::with_capacity(16);
                match self {
                    $(
                        Message::$name $({ $($field),* })? $(($body))? => {
                            buf.put_u8($tag);
                            $($( $field.put(&mut buf); )*)?
                            $( $body.put(&mut buf); )?
                        }
                    )*
                }
                buf.into_vec()
            }

            /// Deserializes a message produced by [`encode`](Self::encode).
            ///
            /// Frames may arrive over a real socket, so truncated or
            /// corrupted input returns a [`WireError`] rather than
            /// panicking. Declared lengths are validated against the bytes
            /// actually present before any allocation, so an adversarial
            /// header cannot trigger a huge `Vec::with_capacity`.
            pub fn decode(frame: &[u8]) -> Result<Message, WireError> {
                let mut bytes = ByteReader::new(frame);
                let msg = match bytes.get_u8()? {
                    $(
                        $tag => {
                            $($( let $field = <$ty>::get(&mut bytes, label!($($what)?))?; )*)?
                            $( let $body = <$bty>::get(&mut bytes, "")?; )?
                            $( $check?; )?
                            Message::$name $({ $($field),* })? $(($body))?
                        }
                    )*
                    other => {
                        return Err(WireError::BadTag {
                            what: "message",
                            tag: other,
                        })
                    }
                };
                bytes.finish()?;
                Ok(msg)
            }

            /// How the accounting layers treat this frame: its ledger
            /// bucket and accounted bytes, and its wire-counter lane and
            /// payload bytes.
            // A row's rules name only the fields they price.
            #[allow(unused_variables)]
            pub fn info(&self) -> FrameInfo {
                match self {
                    $(
                        Message::$name $({ $($field),* })? $(($body))? => FrameInfo {
                            bucket: Bucket::$bucket,
                            accounted: $acc,
                            kind: FrameKind::$kind,
                            payload: 0 $(+ $payload)?,
                        },
                    )*
                }
            }
        }
    };
}

// Tags 2–5 (per-batch frames), 9–10 (the whole-expert fetch and blob),
// 12–13 (per-item group frames), 20 (the replica-sync ack) and 23, 24, 26
// (the lockstep shadow's moment snapshot, announce and commit) belonged to
// retired designs and are never reused: a stale peer that still sends one
// gets `WireError::BadTag`, not a misparse.
frames! {
    /// Marks the start of a step; workers zero their gradients.
    1 StepBegin {
        /// Step counter (for assertions/debugging).
        step: u64,
    } => ToWorker, Plain, accounts 9, wire Control;

    /// Marks the end of a step; workers run their optimizer.
    6 StepEnd => ToWorker, Plain, accounts 1, wire Control;

    /// Worker acknowledgement that its optimizer step finished.
    7 StepDone => ToMaster, Plain, accounts 1, wire Control;

    /// Terminates the worker loop.
    8 Shutdown => ToWorker, Plain, accounts 1, wire Control;

    /// Worker acknowledgement that an [`Message::ExpertChunk`] stream
    /// completed: it built a shadow of the expert, or completed the copy
    /// on one, which then serves.
    11 InstallDone {
        /// MoE block index.
        block: u32,
        /// Expert index within the block.
        expert: u32,
    } => ToMaster, Migration, accounts 9, wire Control;

    /// Every token (forward) or gradient (backward) row bound for one
    /// worker in one block-pass (master → worker).
    // A dispatch accounts a 9-byte routing header per item plus the actual
    // data bytes per row — what one frame per expert batch would cost — so
    // the ledger counts tokens moved, not how they were framed (the span
    // table is local framing, never accounted).
    14 PackedDispatch(group: PackedGroup) => ToWorker, Plain,
        accounts 9 * group.spans.len() as u64
            + u64::from(group.total_rows()) * group.data.row_cost(group.width),
        wire Dispatch(group.data.wire_bytes());

    /// The worker's reply to a [`Message::PackedDispatch`], rows in
    /// dispatch order (worker → master).
    15 PackedResult(reply: PackedReply) => ToMaster, Plain,
        accounts 9 * u64::from(reply.items)
            + u64::from(reply.rows) * reply.data.row_cost(reply.width),
        wire Result(reply.data.wire_bytes());

    /// NTP-style clock probe (master → worker): `t1` is the master's
    /// send timestamp, echoed back so the reply is self-contained.
    /// Clock traffic is pure observability — the transport keeps it out
    /// of the ledger, frame counts and wire stats entirely.
    16 ClockProbe {
        /// Master clock at probe send (µs since its trace epoch).
        t1: u64,
    } => ToWorker, Unaccounted, accounts 0, wire Control;

    /// The worker's answer to a [`Message::ClockProbe`].
    17 ClockReply {
        /// The probe's `t1`, echoed.
        t1: u64,
        /// Worker clock at probe receipt.
        t2: u64,
        /// Worker clock at reply send.
        t3: u64,
    } => ToMaster, Unaccounted, accounts 0, wire Control;

    /// Asks the serving replica to serialize one expert's accumulated
    /// trainable-parameter gradients (master → worker, replica sync after
    /// backward). `grad_bytes` is the real gradient size, carried so an
    /// echo (virtual) worker can size its reply honestly.
    // Replica gradient sync is real traffic the ledger must see: the state
    // frame accounts like any payload frame, and the request accounts its
    // routing header.
    18 FetchGrads {
        /// MoE block index.
        block: u32,
        /// Expert index within the block.
        expert: u32,
        /// Byte size of the expert's flattened trainable gradients.
        grad_bytes: u32,
    } => ToWorker, Sync, accounts 13, wire Control;

    /// Flattened trainable-parameter gradients in transit (serving
    /// replica → master, then master → each peer replica, which installs
    /// them before its optimizer step). Exactly one replica serves an
    /// expert per step, so sync is copy-and-install — no summation — and
    /// replicas stay bitwise identical. Unacknowledged: the peer's link is
    /// FIFO, so the install lands before the `StepEnd` behind it, and that
    /// step's `StepDone` is the ack.
    // Gradient state rides the expert-state lane of the wire counters:
    // like migration, it moves per-parameter tensors, not token batches.
    19 GradState {
        /// MoE block index.
        block: u32,
        /// Expert index within the block.
        expert: u32,
        /// The gradients in parameter-visit order (a virtual row in the
        /// simulated engine).
        row: PackedRow,
    } => Both, Sync, accounts 9 + row.data.row_cost(row.width),
        wire ExpertState(row.data.wire_bytes());

    /// Asks the worker to stream the *frozen* tensors of one expert as
    /// [`Message::ExpertChunk`]s and keep the copy (master → primary: the
    /// background phase of a migration lane, process-mode launch and
    /// teardown included). No step changes those tensors, so the
    /// worker keeps serving and training the expert meanwhile; what trains
    /// follows on [`Message::FetchTrained`].
    21 FetchShadow {
        /// MoE block index.
        block: u32,
        /// Expert index within the block.
        expert: u32,
    } => ToWorker, Migration, accounts 9, wire Control;

    /// One bounded chunk of an expert's serialized frozen or trainable
    /// tensors in transit on a migration lane (primary → master → every
    /// gained worker): the only frame that carries expert parameters. Chunks are emitted in offset order on one link, so the
    /// receiver enforces contiguity (`offset` must equal the bytes
    /// received so far) instead of allocating `total` up front. The chunk
    /// at offset 0 opens a stream, never over a copy the destination
    /// holds; the one that completes the blob makes it build a shadow, or
    /// complete the copy on the shadow it has, and answer
    /// [`Message::InstallDone`].
    // A stream accounts what the retired single whole-blob frame did for
    // the same blob (17 + blob bytes): the first chunk carries the 17-byte
    // header charge, later chunks account data only.
    22 ExpertChunk {
        /// MoE block index.
        block: u32,
        /// Expert index within the block.
        expert: u32,
        /// Byte offset of this chunk within the serialized expert.
        offset: u64,
        /// Total serialized size, repeated in every chunk.
        total: u64,
        /// The chunk's bytes (at most [`EXPERT_CHUNK_BYTES`]).
        data: Vec<u8> as "expert chunk",
    } => Both, Migration,
        accounts data.len() as u64 + if *offset == 0 { 17 } else { 0 },
        wire ExpertState(data.len() as u64),
        check chunk_span(offset, total, data.len() as u64);

    /// Drops a worker's copy of an expert together with its optimizer
    /// moments, with no reply (master → worker): how a re-placement
    /// retires a copy its target leaves out, inside the apply call or, for
    /// an expert that also gains a worker, after its cutover fetch —
    /// process-mode teardown taking a copy off a worker process included.
    // Moves no parameters, so it stays off the books; `accounts` is its
    // header size, for completeness.
    25 Evict {
        /// MoE block index.
        block: u32,
        /// Expert index within the block.
        expert: u32,
    } => ToWorker, Unaccounted, accounts 9, wire Control;

    /// The cutover request (master → primary): stream the expert's
    /// *trainable* tensors as [`Message::ExpertChunk`]s and keep the copy
    /// (an `Evict` drops it if the target does). The master relays the
    /// stream to every gained worker, which completes the copy on the
    /// shadow the frozen stream built and starts serving.
    27 FetchTrained {
        /// MoE block index.
        block: u32,
        /// Expert index within the block.
        expert: u32,
    } => ToWorker, Migration, accounts 9, wire Control;

    /// Drops a copy's optimizer moments for one expert and keeps the copy,
    /// with no reply (master → worker): sent at a cutover to every copy
    /// that survives it, because the gained copies start from fresh
    /// moments, so all copies step alike from then on.
    // Moves no parameters, so it stays off the books, like `Evict`.
    28 DropMoments {
        /// MoE block index.
        block: u32,
        /// Expert index within the block.
        expert: u32,
    } => ToWorker, Unaccounted, accounts 9, wire Control;

    /// Configures a freshly launched worker (master → worker): the first
    /// frame on every link, on every transport. Its body opens with the
    /// codec version, checked before any later field is read.
    // Launch plumbing, not training traffic: off the books, so ledger
    // bytes, frame counts and wire stats do not see it.
    29 Bootstrap(boot: WorkerBootstrap) => ToWorker, Unaccounted, accounts 0, wire Control;
}

impl Message {
    /// The byte count the ledger should record for this message: payload
    /// bytes (accounted, so virtual sizes are honoured) plus the header.
    pub fn accounted_bytes(&self) -> u64 {
        self.info().accounted
    }
}

/// Bumped whenever the [`Message`] codec changes shape, so a stale
/// `vela_worker` binary is turned away at its [`Message::Bootstrap`]
/// instead of misparsing frames (2: the packed frames lost their chunk id;
/// 3: the lockstep shadow's three frames left and `FetchTrained` came; 4:
/// packed encoding 1, int8 rows, was retired and seeding blobs are exact
/// "VELA" checkpoints only; 5: `DropMoments` came; 6: `GradSyncDone` left
/// and `GradState` carries a packed row; 7: the bootstrap became frame 29
/// instead of a raw frame ahead of the protocol; 8: `FetchTrained` keeps
/// the copy it fetches; 9: `FetchExpert` and `ExpertState` left, and every
/// expert copy crosses as `ExpertChunk` streams).
const BOOTSTRAP_VERSION: u8 = 9;

/// Upper bound on the payload of one [`Message::ExpertChunk`] frame.
/// Bounded chunks keep the per-link writer queues responsive: a multi-MB
/// expert transfer interleaves with dispatch frames instead of
/// head-of-line blocking them.
pub const EXPERT_CHUNK_BYTES: usize = 64 * 1024;

const PASS_FORWARD: u8 = 0;
const PASS_BACKWARD: u8 = 1;

// Encoding 1 (int8 rows) is retired and never reused: a stale peer's
// int8 region is a clean `BadTag`.
const ENC_F32: u8 = 0;
const ENC_VIRTUAL: u8 = 2;

/// Encoded bytes of one packed span table entry
/// (`u16 expert | u32 offset | u16 rows`).
const SPAN_BYTES: u64 = 8;

/// A chunk that would run past the declared blob size is corrupt. (Runs
/// once the chunk's bytes are decoded; their allocation is bounded by the
/// frame's own length either way.)
fn chunk_span(offset: u64, total: u64, len: u64) -> Result<(), WireError> {
    if offset.checked_add(len).is_none_or(|end| end > total) {
        return Err(WireError::BadLength {
            what: "expert chunk span",
            declared: offset.saturating_add(len),
            available: total as usize,
        });
    }
    Ok(())
}

/// Splits a serialized expert into bounded [`Message::ExpertChunk`]
/// frames in offset order. Always yields at least one frame (an empty
/// chunk for an empty blob) so the receiver learns `total` even when it
/// is zero.
pub fn chunk_expert_state(block: u32, expert: u32, data: &[u8]) -> Vec<Message> {
    let total = data.len() as u64;
    if data.is_empty() {
        return vec![Message::ExpertChunk {
            block,
            expert,
            offset: 0,
            total,
            data: Vec::new(),
        }];
    }
    let mut frames = Vec::with_capacity(data.len().div_ceil(EXPERT_CHUNK_BYTES));
    let mut offset = 0u64;
    for chunk in data.chunks(EXPERT_CHUNK_BYTES) {
        frames.push(Message::ExpertChunk {
            block,
            expert,
            offset,
            total,
            data: chunk.to_vec(),
        });
        offset += chunk.len() as u64;
    }
    frames
}

/// Reassembles [`Message::ExpertChunk`] frames back into the serialized
/// expert. The buffer grows chunk by chunk — never allocated from the
/// declared `total` — and every frame must continue exactly where the
/// previous one ended: overlaps, gaps, inconsistent totals and overruns
/// are all rejected before any bytes are copied.
#[derive(Debug)]
pub struct ChunkAssembler {
    block: u32,
    expert: u32,
    total: Option<u64>,
    buf: Vec<u8>,
}

impl ChunkAssembler {
    /// An empty assembler for one expert's transfer.
    pub fn new(block: u32, expert: u32) -> Self {
        ChunkAssembler {
            block,
            expert,
            total: None,
            buf: Vec::new(),
        }
    }

    /// The expert this assembler collects, as `(block, expert)`.
    pub fn key(&self) -> (u32, u32) {
        (self.block, self.expert)
    }

    /// Bytes received so far.
    pub fn received(&self) -> u64 {
        self.buf.len() as u64
    }

    /// Accepts one chunk. `offset` must equal the bytes received so far
    /// (frames arrive in order on one link, so anything else is a gap,
    /// an overlap or a reordering bug) and every frame must agree on
    /// `total`.
    pub fn accept(&mut self, offset: u64, total: u64, data: &[u8]) -> Result<(), WireError> {
        let clamp = |v: u64| v.min(u32::MAX as u64) as u32;
        if let Some(t) = self.total {
            if t != total {
                return Err(WireError::BadSpan {
                    what: "expert chunk total",
                    expert: self.expert,
                    declared: clamp(total),
                    expected: clamp(t),
                });
            }
        } else {
            self.total = Some(total);
        }
        if offset != self.received() {
            return Err(WireError::BadSpan {
                what: "expert chunk offset",
                expert: self.expert,
                declared: clamp(offset),
                expected: clamp(self.received()),
            });
        }
        let end = offset
            .checked_add(data.len() as u64)
            .filter(|&end| end <= total);
        if end.is_none() {
            return Err(WireError::BadLength {
                what: "expert chunk span",
                declared: offset.saturating_add(data.len() as u64),
                available: total as usize,
            });
        }
        self.buf.extend_from_slice(data);
        Ok(())
    }

    /// Whether every byte of the transfer has arrived.
    pub fn is_complete(&self) -> bool {
        self.total == Some(self.received())
    }

    /// The reassembled blob. Call once [`ChunkAssembler::is_complete`].
    pub fn into_bytes(self) -> Vec<u8> {
        debug_assert!(self.total == Some(self.buf.len() as u64));
        self.buf
    }
}

fn put_pass(buf: &mut ByteWriter, pass: GroupPass) {
    buf.put_u8(match pass {
        GroupPass::Forward => PASS_FORWARD,
        GroupPass::Backward => PASS_BACKWARD,
    });
}

fn get_pass(bytes: &mut ByteReader<'_>) -> Result<GroupPass, WireError> {
    match bytes.get_u8()? {
        PASS_FORWARD => Ok(GroupPass::Forward),
        PASS_BACKWARD => Ok(GroupPass::Backward),
        other => Err(WireError::BadTag {
            what: "group pass",
            tag: other,
        }),
    }
}

fn encoding_tag(data: &PackedData) -> u8 {
    match data {
        PackedData::F32(_) => ENC_F32,
        PackedData::Virtual => ENC_VIRTUAL,
    }
}

fn encode_packed_region(buf: &mut ByteWriter, data: &PackedData) {
    match data {
        PackedData::F32(values) => buf.put_f32s(values),
        PackedData::Virtual => {}
    }
}

/// Validates a packed region's declared size against the bytes actually
/// present, then decodes it. Nothing is allocated before validation.
fn decode_packed_region(
    bytes: &mut ByteReader<'_>,
    enc: u8,
    width: u32,
    total_rows: u64,
) -> Result<PackedData, WireError> {
    match enc {
        ENC_F32 => {
            let declared = total_rows
                .checked_mul(u64::from(width))
                .and_then(|n| n.checked_mul(4))
                .unwrap_or(u64::MAX);
            if declared > bytes.remaining() as u64 {
                return Err(WireError::BadLength {
                    what: "packed f32 region",
                    declared,
                    available: bytes.remaining(),
                });
            }
            let n = total_rows as usize * width as usize;
            Ok(PackedData::F32(bytes.get_f32s(n)?))
        }
        ENC_VIRTUAL => Ok(PackedData::Virtual),
        other => Err(WireError::BadTag {
            what: "packed encoding",
            tag: other,
        }),
    }
}

/// `enc · width · one row`.
impl Field for PackedRow {
    fn put(&self, buf: &mut ByteWriter) {
        buf.put_u8(encoding_tag(&self.data));
        buf.put_u32(self.width);
        encode_packed_region(buf, &self.data);
    }
    fn get(bytes: &mut ByteReader<'_>, _: &'static str) -> Result<Self, WireError> {
        let enc = bytes.get_u8()?;
        let width = bytes.get_u32()?;
        let data = decode_packed_region(bytes, enc, width, 1)?;
        Ok(PackedRow { width, data })
    }
}

/// A presence flag: 0 or 1, any other byte a `BadTag` labelled `what`.
fn get_flag(bytes: &mut ByteReader<'_>, what: &'static str) -> Result<bool, WireError> {
    match bytes.get_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(WireError::BadTag { what, tag }),
    }
}

/// `version · blocks · experts · lr · β1 · β2 · ε · weight decay ·
/// template?` where a template is `dim · ffn_hidden · lora? (rank · α) ·
/// base_frozen`. The version comes first and is checked before anything
/// else is read: a peer built against another codec gets a `BadTag`, not
/// a misparse.
impl Field for WorkerBootstrap {
    fn put(&self, buf: &mut ByteWriter) {
        buf.put_u8(BOOTSTRAP_VERSION);
        buf.put_u32(self.blocks as u32);
        buf.put_u32(self.experts as u32);
        let o = &self.optim;
        for v in [o.lr, o.beta1, o.beta2, o.eps, o.weight_decay] {
            buf.put_f32(v);
        }
        buf.put_u8(u8::from(self.template.is_some()));
        if let Some(t) = &self.template {
            buf.put_u32(t.dim as u32);
            buf.put_u32(t.ffn_hidden as u32);
            buf.put_u8(u8::from(t.lora.is_some()));
            if let Some((rank, alpha)) = t.lora {
                buf.put_u32(rank as u32);
                buf.put_f32(alpha);
            }
            buf.put_u8(u8::from(t.base_frozen));
        }
    }
    fn get(bytes: &mut ByteReader<'_>, _: &'static str) -> Result<Self, WireError> {
        let version = bytes.get_u8()?;
        if version != BOOTSTRAP_VERSION {
            return Err(WireError::BadTag {
                what: "bootstrap version",
                tag: version,
            });
        }
        let blocks = bytes.get_u32()? as usize;
        let experts = bytes.get_u32()? as usize;
        let optim = AdamWConfig {
            lr: bytes.get_f32()?,
            beta1: bytes.get_f32()?,
            beta2: bytes.get_f32()?,
            eps: bytes.get_f32()?,
            weight_decay: bytes.get_f32()?,
        };
        let mut template = None;
        if get_flag(bytes, "bootstrap template flag")? {
            let dim = bytes.get_u32()? as usize;
            let ffn_hidden = bytes.get_u32()? as usize;
            let mut lora = None;
            if get_flag(bytes, "bootstrap lora flag")? {
                lora = Some((bytes.get_u32()? as usize, bytes.get_f32()?));
            }
            template = Some(ExpertTemplate {
                dim,
                ffn_hidden,
                lora,
                base_frozen: bytes.get_u8()? != 0,
            });
        }
        Ok(WorkerBootstrap {
            blocks,
            experts,
            optim,
            template,
        })
    }
}

impl Field for PackedGroup {
    fn put(&self, buf: &mut ByteWriter) {
        buf.put_u32(self.block);
        put_pass(buf, self.pass);
        buf.put_u8(encoding_tag(&self.data));
        buf.put_u32(self.width);
        assert!(
            self.spans.len() <= u16::MAX as usize,
            "packed frame caps spans at 65535"
        );
        buf.put_u16(self.spans.len() as u16);
        for span in &self.spans {
            assert!(
                span.expert <= u16::MAX as u32 && span.rows <= u16::MAX as u32,
                "packed spans cap expert index and rows/expert at 65535"
            );
            buf.put_u16(span.expert as u16);
            buf.put_u32(span.offset);
            buf.put_u16(span.rows as u16);
        }
        encode_packed_region(buf, &self.data);
    }
    fn get(bytes: &mut ByteReader<'_>, _: &'static str) -> Result<Self, WireError> {
        let block = bytes.get_u32()?;
        let pass = get_pass(bytes)?;
        let enc = bytes.get_u8()?;
        let width = bytes.get_u32()?;
        let count = u64::from(bytes.get_u16()?);
        // The span table itself must fit before the span vector is allocated.
        if count * SPAN_BYTES > bytes.remaining() as u64 {
            return Err(WireError::BadLength {
                what: "packed span table",
                declared: count,
                available: bytes.remaining(),
            });
        }
        let mut spans = Vec::with_capacity(count as usize);
        let mut expected_offset = 0u32;
        for _ in 0..count {
            let expert = u32::from(bytes.get_u16()?);
            let offset = bytes.get_u32()?;
            let rows = u32::from(bytes.get_u16()?);
            // Spans must tile the region exactly: each one starts where the
            // previous ended. Overlapping, out-of-order, or gapped regions are
            // rejected here, before the data region is even sized.
            if offset != expected_offset {
                return Err(WireError::BadSpan {
                    what: "packed row region",
                    expert,
                    declared: offset,
                    expected: expected_offset,
                });
            }
            expected_offset = expected_offset
                .checked_add(rows)
                .ok_or(WireError::BadSpan {
                    what: "packed row count",
                    expert,
                    declared: rows,
                    expected: u32::MAX - offset,
                })?;
            spans.push(RowSpan {
                expert,
                offset,
                rows,
            });
        }
        let data = decode_packed_region(bytes, enc, width, u64::from(expected_offset))?;
        Ok(PackedGroup {
            block,
            pass,
            width,
            spans,
            data,
        })
    }
}

impl Field for PackedReply {
    fn put(&self, buf: &mut ByteWriter) {
        buf.put_u32(self.block);
        put_pass(buf, self.pass);
        buf.put_u8(encoding_tag(&self.data));
        buf.put_u32(self.width);
        assert!(
            self.items <= u16::MAX as u32,
            "packed frame caps items at 65535"
        );
        buf.put_u16(self.items as u16);
        buf.put_u32(self.rows);
        encode_packed_region(buf, &self.data);
    }
    fn get(bytes: &mut ByteReader<'_>, _: &'static str) -> Result<Self, WireError> {
        let block = bytes.get_u32()?;
        let pass = get_pass(bytes)?;
        let enc = bytes.get_u8()?;
        let width = bytes.get_u32()?;
        let items = u32::from(bytes.get_u16()?);
        let rows = bytes.get_u32()?;
        let data = decode_packed_region(bytes, enc, width, u64::from(rows))?;
        Ok(PackedReply {
            block,
            pass,
            width,
            items,
            rows,
            data,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vela_tensor::rng::DetRng;
    use vela_tensor::Tensor;

    /// `(kind, header, payload)` of a message's own encoding, the split
    /// the hub feeds the `wire.*` counters.
    fn wire_cost(msg: &Message) -> (FrameKind, u64, u64) {
        let info = msg.info();
        let len = msg.encode().len() as u64;
        (info.kind, len - info.payload, info.payload)
    }

    /// One fixed instance per variant (two where a frame's accounting has
    /// two arms), in table order.
    fn fixed_instances() -> Vec<Message> {
        let real = PackedRow {
            width: 3,
            data: PackedData::F32(vec![0.5, -1.0, 2.0]),
        };
        let virt = PackedRow {
            width: 48,
            data: PackedData::Virtual,
        };
        let rows = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let (block, expert) = (3, 5);
        vec![
            Message::StepBegin { step: 42 },
            Message::StepEnd,
            Message::StepDone,
            Message::Shutdown,
            Message::InstallDone { block, expert },
            Message::PackedDispatch(PackedGroup::pack(
                2,
                GroupPass::Forward,
                3,
                [(1u32, &rows[..3]), (4u32, &rows[3..])].into_iter(),
            )),
            Message::PackedDispatch(PackedGroup::pack_virtual(
                2,
                GroupPass::Forward,
                8192,
                [(0u32, 10u32), (1, 20)].into_iter(),
            )),
            Message::PackedResult(PackedReply {
                block: 2,
                pass: GroupPass::Forward,
                width: 3,
                items: 2,
                rows: 2,
                data: PackedData::F32(rows.to_vec()),
            }),
            Message::ClockProbe { t1: 9 },
            Message::ClockReply {
                t1: 9,
                t2: 1,
                t3: 2,
            },
            Message::FetchGrads {
                block,
                expert,
                grad_bytes: 48,
            },
            Message::GradState {
                block,
                expert,
                row: real,
            },
            Message::GradState {
                block,
                expert,
                row: virt,
            },
            Message::FetchShadow { block, expert },
            Message::ExpertChunk {
                block,
                expert,
                offset: 0,
                total: 200,
                data: vec![9; 32],
            },
            Message::ExpertChunk {
                block,
                expert,
                offset: 64,
                total: 200,
                data: vec![9; 32],
            },
            Message::Evict { block, expert },
            Message::FetchTrained { block, expert },
            Message::DropMoments { block, expert },
            Message::Bootstrap(WorkerBootstrap {
                blocks: 2,
                experts: 4,
                optim: AdamWConfig {
                    lr: 3e-4,
                    beta1: 0.95,
                    beta2: 0.999,
                    eps: 1e-9,
                    weight_decay: 0.01,
                },
                template: Some(ExpertTemplate {
                    dim: 16,
                    ffn_hidden: 32,
                    lora: Some((8, 16.0)),
                    base_frozen: true,
                }),
            }),
        ]
    }

    #[test]
    fn frame_table_reproduces_the_hand_written_protocol() {
        // What the seven hand-synchronised per-tag matches did for these
        // instances at the last commit that had them (aecb432): tag byte,
        // encoded length, accounted bytes, ledger bucket, and the
        // (kind, header, payload) wire split, for every row that commit
        // had and the table still has. One deliberate difference: that
        // commit classified `Evict` `Plain` but shipped it through an
        // unaccounted raw-frame path, which is what `Unaccounted` says.
        // `FetchTrained` (27) is younger than that commit; its row is
        // pinned to `FetchShadow`'s, the other request for an
        // `ExpertChunk` stream, and `DropMoments` (28), younger still, to
        // `Evict`'s, the other reply-less frame that moves no parameters.
        // Rows 23, 24 and 26 left with the lockstep shadow, the int8
        // `PackedDispatch` instance with packed encoding 1, row 20 with the
        // replica-sync ack, and rows 9 and 10 when every expert copy came
        // to cross as chunk streams. `GradState` now carries a packed row (`enc · width`, not
        // `tag · rows · cols`), so both its instances encode, and so count
        // as header, 4 bytes less; what they account is unchanged.
        // `Bootstrap` (29) was a raw frame outside the protocol until
        // `af86e37`: its body is that frame, version byte first, and like
        // any unaccounted frame it accounts nothing.
        use Bucket::{Migration, Plain, Sync, Unaccounted};
        use FrameKind::{Control, Dispatch, ExpertState, Result as Reply};
        let recorded: [(u8, usize, u64, Bucket, FrameKind, u64, u64); 20] = [
            (1, 9, 9, Plain, Control, 9, 0),
            (6, 1, 1, Plain, Control, 1, 0),
            (7, 1, 1, Plain, Control, 1, 0),
            (8, 1, 1, Plain, Control, 1, 0),
            (11, 9, 9, Migration, Control, 9, 0),
            (14, 53, 42, Plain, Dispatch, 29, 24),
            (14, 29, 245_778, Plain, Dispatch, 29, 0),
            (15, 41, 42, Plain, Reply, 17, 24),
            (16, 9, 0, Unaccounted, Control, 9, 0),
            (17, 25, 0, Unaccounted, Control, 25, 0),
            (18, 13, 13, Sync, Control, 13, 0),
            (19, 26, 21, Sync, ExpertState, 14, 12),
            (19, 14, 57, Sync, ExpertState, 14, 0),
            (21, 9, 9, Migration, Control, 9, 0),
            (22, 65, 49, Migration, ExpertState, 33, 32),
            (22, 65, 32, Migration, ExpertState, 33, 32),
            (25, 9, 9, Unaccounted, Control, 9, 0),
            (27, 9, 9, Migration, Control, 9, 0),
            (28, 9, 9, Unaccounted, Control, 9, 0),
            (29, 49, 0, Unaccounted, Control, 49, 0),
        ];
        // What `WorkerBootstrap::encode` wrote for the bootstrap instance
        // at `af86e37`, when the version was 6.
        let raw_v6: [u8; 48] = [
            6, 0, 0, 0, 2, 0, 0, 0, 4, 57, 157, 73, 82, 63, 115, 51, 51, 63, 127, 190, 119, 48,
            137, 112, 95, 60, 35, 215, 10, 1, 0, 0, 0, 16, 0, 0, 0, 32, 1, 0, 0, 0, 8, 65, 128, 0,
            0, 1,
        ];
        let boot = fixed_instances().pop().unwrap().encode();
        assert_eq!(
            (boot[..2].to_vec(), &boot[2..]),
            (vec![29, 9], &raw_v6[1..])
        );
        let instances = fixed_instances();
        assert_eq!(instances.len(), recorded.len());
        for (msg, want) in instances.iter().zip(recorded) {
            let frame = msg.encode();
            let info = msg.info();
            let (kind, header, payload) = wire_cost(msg);
            let got = (
                frame[0],
                frame.len(),
                msg.accounted_bytes(),
                info.bucket,
                kind,
                header,
                payload,
            );
            assert_eq!(got, want, "{msg:?}");
            assert_eq!(&Message::decode(&frame).unwrap(), msg);
        }
        // Every row of the table is pinned above, and `FRAMES` agrees with
        // what `info()` and `encode()` do per instance.
        let mut pinned: Vec<u8> = recorded.iter().map(|r| r.0).collect();
        pinned.dedup();
        let table: Vec<u8> = FRAMES.iter().map(|f| f.tag).collect();
        assert_eq!(pinned, table);
        for msg in &instances {
            let spec = FRAMES.iter().find(|f| f.tag == msg.encode()[0]).unwrap();
            assert_eq!(spec.bucket, msg.info().bucket);
            assert!(format!("{msg:?}").starts_with(spec.name));
        }
    }

    /// DESIGN.md §4g's frame table, rendered from [`FRAMES`].
    fn render_frame_table() -> String {
        let mut out = String::from(
            "| tag | frame | direction | bucket | accounted bytes |\n|---|---|---|---|---|\n",
        );
        for f in FRAMES {
            let direction = match f.direction {
                Direction::ToWorker => "master → worker",
                Direction::ToMaster => "worker → master",
                Direction::Both => "both",
            };
            // `stringify!` may wrap a long rule over several lines.
            let accounts = f.accounts.split_whitespace().collect::<Vec<_>>().join(" ");
            out.push_str(&format!(
                "| {} | `{}` | {direction} | {:?} | `{accounts}` |\n",
                f.tag, f.name, f.bucket
            ));
        }
        out
    }

    #[test]
    fn design_doc_carries_the_frame_table_verbatim() {
        let table = render_frame_table();
        assert!(
            include_str!("../../../DESIGN.md").contains(&table),
            "DESIGN.md §4g must contain the frame table exactly as rendered from \
             `frames!`; paste this over the stale one:\n\n{table}"
        );
    }

    #[test]
    fn roundtrip_all_variants() {
        let mut rng = DetRng::new(1);
        let t = Tensor::uniform((3, 4), -1.0, 1.0, &mut rng);
        let msgs = vec![
            Message::StepBegin { step: 42 },
            Message::GradState {
                block: 7,
                expert: 3,
                row: f32_row(&t),
            },
            Message::GradState {
                block: 0,
                expert: 0,
                row: PackedRow {
                    width: 8192,
                    data: PackedData::Virtual,
                },
            },
            Message::StepEnd,
            Message::StepDone,
            Message::Shutdown,
            Message::ClockProbe { t1: 123_456_789 },
            Message::ClockReply {
                t1: 123_456_789,
                t2: 123_400_000,
                t3: 123_400_050,
            },
        ];
        for msg in msgs {
            assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn clock_messages_are_unaccounted_control_frames() {
        let probe = Message::ClockProbe { t1: 9 };
        let reply = Message::ClockReply {
            t1: 9,
            t2: 1,
            t3: 2,
        };
        assert_eq!(probe.info().bucket, Bucket::Unaccounted);
        assert_eq!(reply.info().bucket, Bucket::Unaccounted);
        assert_eq!(Message::StepEnd.info().bucket, Bucket::Plain);
        assert_eq!(probe.accounted_bytes(), 0);
        assert_eq!(reply.accounted_bytes(), 0);
        assert_eq!(wire_cost(&probe).0, FrameKind::Control);
    }

    /// A tensor's values as one packed f32 row.
    fn f32_row(t: &Tensor) -> PackedRow {
        PackedRow {
            width: t.len() as u32,
            data: PackedData::F32(t.as_slice().to_vec()),
        }
    }

    #[test]
    fn tensor_payload_roundtrip() {
        // A tensor's values cross as one packed row, bit for bit.
        let mut rng = DetRng::new(2);
        let t = Tensor::uniform((5, 6), -2.0, 2.0, &mut rng);
        let msg = Message::GradState {
            block: 0,
            expert: 0,
            row: f32_row(&t),
        };
        let Ok(Message::GradState { row, .. }) = Message::decode(&msg.encode()) else {
            panic!("grad state did not decode to itself");
        };
        let back = Tensor::from_vec((5, 6), row.data.as_f32().unwrap().to_vec());
        assert_eq!(back, t);
        assert_eq!(msg.accounted_bytes(), 9 + 5 * 6 * 4);
    }

    #[test]
    fn virtual_payload_accounts_declared_size() {
        let msg = Message::PackedDispatch(PackedGroup::pack_virtual(
            0,
            GroupPass::Forward,
            8192,
            [(0u32, 2600u32)].into_iter(),
        ));
        // The paper's ~2600 tokens × 8 KiB ≈ 21 MB per block per direction,
        // plus one 9-byte routing header.
        assert_eq!(msg.accounted_bytes(), 9 + 2600 * 8192);
        assert_eq!(msg.info().payload, 0, "a virtual region carries no bytes");
    }

    #[test]
    fn real_encoded_size_matches_accounting() {
        let t = Tensor::ones((2, 3));
        let msg = Message::GradState {
            block: 0,
            expert: 0,
            row: f32_row(&t),
        };
        // Header (1 tag + 4 block + 4 expert) + row header (1 enc + 4
        // width) + 24 data bytes.
        assert_eq!(msg.encode().len(), 9 + 5 + 24);
        // Accounted bytes track payload + routing header, not the local
        // encoding details.
        assert_eq!(msg.accounted_bytes(), 9 + 24);
    }

    #[test]
    fn migration_messages_roundtrip() {
        let mut msgs = chunk_expert_state(3, 5, &[1, 2, 3, 255, 0, 42]);
        msgs.push(Message::InstallDone {
            block: 3,
            expert: 5,
        });
        for msg in msgs {
            assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn grad_sync_messages_roundtrip_and_account() {
        let mut rng = DetRng::new(3);
        let t = Tensor::uniform((1, 12), -1.0, 1.0, &mut rng);
        let msgs = vec![
            Message::FetchGrads {
                block: 2,
                expert: 4,
                grad_bytes: 48,
            },
            Message::GradState {
                block: 2,
                expert: 4,
                row: f32_row(&t),
            },
            Message::GradState {
                block: 2,
                expert: 4,
                row: PackedRow {
                    width: 48,
                    data: PackedData::Virtual,
                },
            },
        ];
        for msg in &msgs {
            assert_eq!(&Message::decode(&msg.encode()).unwrap(), msg);
            assert_eq!(msg.info().bucket, Bucket::Sync);
        }
        // The request accounts its header; state frames account like any
        // payload frame (9-byte routing header + payload bytes).
        assert_eq!(msgs[0].accounted_bytes(), 13);
        assert_eq!(msgs[1].accounted_bytes(), 9 + 48);
        assert_eq!(msgs[2].accounted_bytes(), 9 + 48);
        // Gradient state rides the expert-state wire lane.
        let (kind, header, payload) = wire_cost(&msgs[1]);
        assert_eq!(kind, FrameKind::ExpertState);
        assert_eq!(payload, 48);
        assert_eq!(header + payload, msgs[1].encode().len() as u64);
    }

    #[test]
    fn expert_state_accounts_payload_bytes() {
        // A blob that fits one chunk crosses as one frame, which accounts
        // the blob and the stream's 17-byte header.
        let frames = chunk_expert_state(0, 0, &[0; 1000]);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].accounted_bytes(), 17 + 1000);
    }

    #[test]
    fn control_messages_are_tiny() {
        assert_eq!(Message::StepEnd.accounted_bytes(), 1);
        assert_eq!(Message::Shutdown.encode().len(), 1);
        assert_eq!(Message::StepBegin { step: 1 }.accounted_bytes(), 9);
    }

    #[test]
    fn garbage_decode_is_an_error() {
        assert_eq!(
            Message::decode(&[99]),
            Err(WireError::BadTag {
                what: "message",
                tag: 99
            })
        );
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let frame = Message::StepBegin { step: 7 }.encode();
        assert!(matches!(
            Message::decode(&frame[..frame.len() - 1]),
            Err(WireError::Underflow { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut frame = Message::StepDone.encode();
        frame.push(0);
        assert_eq!(
            Message::decode(&frame),
            Err(WireError::TrailingBytes { left: 1 })
        );
    }

    #[test]
    fn group_bad_pass_is_an_error() {
        let mut w = crate::wire::ByteWriter::with_capacity(16);
        w.put_u8(14); // PackedDispatch
        w.put_u32(0);
        w.put_u8(7); // no such pass
        assert_eq!(
            Message::decode(&w.into_vec()),
            Err(WireError::BadTag {
                what: "group pass",
                tag: 7
            })
        );
    }

    fn sample_packed() -> PackedGroup {
        let a: Vec<f32> = (0..8).map(|i| i as f32 * 0.25 - 1.0).collect();
        let b: Vec<f32> = (0..4).map(|i| -(i as f32) * 0.5).collect();
        PackedGroup::pack(
            3,
            GroupPass::Forward,
            4,
            vec![(2u32, a.as_slice()), (5u32, b.as_slice())].into_iter(),
        )
    }

    #[test]
    fn packed_frames_roundtrip() {
        let group = sample_packed();
        assert_eq!(group.total_rows(), 3);
        let msg = Message::PackedDispatch(group);
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
        let reply = Message::PackedResult(PackedReply {
            block: 3,
            pass: GroupPass::Backward,
            width: 4,
            items: 2,
            rows: 3,
            data: PackedData::F32(vec![0.5; 12]),
        });
        assert_eq!(Message::decode(&reply.encode()).unwrap(), reply);
        let virt = Message::PackedDispatch(PackedGroup::pack_virtual(
            0,
            GroupPass::Forward,
            8192,
            vec![(0u32, 100u32), (1, 50)].into_iter(),
        ));
        assert_eq!(Message::decode(&virt.encode()).unwrap(), virt);
    }

    #[test]
    fn packed_f32_region_survives_bitwise() {
        let group = sample_packed();
        let before: Vec<u32> = group
            .data
            .as_f32()
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let msg = Message::PackedDispatch(group);
        match Message::decode(&msg.encode()).unwrap() {
            Message::PackedDispatch(got) => {
                let after: Vec<u32> = got
                    .data
                    .as_f32()
                    .unwrap()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(before, after);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn packed_accounting_is_what_per_item_frames_cost() {
        // The ledger must not learn that framing changed: a packed frame
        // accounts Σ rows·width·4 data bytes plus a 9-byte routing header
        // per item. The literals are what the retired per-item group
        // frames accounted for the same items at the commit that deleted
        // them (8456ee6).
        let mut rng = DetRng::new(6);
        let tensors: Vec<Tensor> = (0..3)
            .map(|i| Tensor::uniform((i + 1, 4), -1.0, 1.0, &mut rng))
            .collect();
        let packed = Message::PackedDispatch(PackedGroup::pack(
            0,
            GroupPass::Forward,
            4,
            tensors
                .iter()
                .enumerate()
                .map(|(e, t)| (e as u32, t.as_slice())),
        ));
        assert_eq!(packed.accounted_bytes(), (1 + 2 + 3) * 4 * 4 + 3 * 9);
        assert_eq!(packed.accounted_bytes(), 123);
        let virt = Message::PackedDispatch(PackedGroup::pack_virtual(
            0,
            GroupPass::Forward,
            8192,
            (0..3).map(|e| (e, 10 * (e + 1))),
        ));
        assert_eq!(virt.accounted_bytes(), 491_547);
        // The reply mirrors the dispatch: same items, same rows.
        let reply = Message::PackedResult(PackedReply {
            block: 0,
            pass: GroupPass::Forward,
            width: 4,
            items: 3,
            rows: 6,
            data: PackedData::F32(vec![0.0; 24]),
        });
        assert_eq!(reply.accounted_bytes(), 123);
    }

    #[test]
    fn overlapping_or_gapped_spans_are_rejected() {
        let encode_with_offsets = |offsets: [u32; 2]| {
            let mut w = crate::wire::ByteWriter::with_capacity(64);
            w.put_u8(14); // PackedDispatch
            w.put_u32(0);
            w.put_u8(0); // Forward
            w.put_u8(0); // f32
            w.put_u32(2); // width
            w.put_u16(2); // spans
            for (i, off) in offsets.iter().enumerate() {
                w.put_u16(i as u16);
                w.put_u32(*off);
                w.put_u16(2); // rows
            }
            for _ in 0..8 {
                w.put_f32(0.0);
            }
            w.into_vec()
        };
        // Dense layout (offsets 0, 2) decodes fine.
        assert!(Message::decode(&encode_with_offsets([0, 2])).is_ok());
        // Overlap (second span re-reads rows 1–2) is rejected.
        assert!(matches!(
            Message::decode(&encode_with_offsets([0, 1])),
            Err(WireError::BadSpan { expert: 1, .. })
        ));
        // A gap (span pointing past the dense end) is rejected too.
        assert!(matches!(
            Message::decode(&encode_with_offsets([0, 3])),
            Err(WireError::BadSpan { expert: 1, .. })
        ));
    }

    #[test]
    fn implausible_packed_lengths_never_allocate() {
        // A span table claiming 65535 entries with no bytes behind it.
        let mut w = crate::wire::ByteWriter::with_capacity(32);
        w.put_u8(14);
        w.put_u32(0);
        w.put_u8(0);
        w.put_u8(0);
        w.put_u32(1024);
        w.put_u16(u16::MAX);
        assert!(matches!(
            Message::decode(&w.into_vec()),
            Err(WireError::BadLength {
                what: "packed span table",
                ..
            })
        ));
        // A result frame declaring u32::MAX rows with an empty region.
        let mut w = crate::wire::ByteWriter::with_capacity(32);
        w.put_u8(15);
        w.put_u32(0);
        w.put_u8(0);
        w.put_u8(0); // f32
        w.put_u32(4096);
        w.put_u16(1);
        w.put_u32(u32::MAX);
        assert!(matches!(
            Message::decode(&w.into_vec()),
            Err(WireError::BadLength {
                what: "packed f32 region",
                ..
            })
        ));
    }

    #[test]
    fn wire_cost_splits_header_from_payload() {
        let packed = Message::PackedDispatch(sample_packed());
        let (kind, header, payload) = wire_cost(&packed);
        assert_eq!(kind, FrameKind::Dispatch);
        assert_eq!(payload, 12 * 4);
        // tag 1 + block 4 + pass 1 + enc 1 + width 4 + count 2
        // + 2 spans × 8.
        assert_eq!(header, 13 + 16);

        let (kind, _, payload) = wire_cost(&Message::StepEnd);
        assert_eq!(kind, FrameKind::Control);
        assert_eq!(payload, 0);
    }

    #[test]
    fn implausible_lengths_never_allocate() {
        // Claims a u32::MAX-wide f32 row but carries no data: the decoder
        // must reject the header instead of attempting a huge allocation.
        let mut w = crate::wire::ByteWriter::with_capacity(16);
        w.put_u8(19); // GradState
        w.put_u32(0);
        w.put_u32(0);
        w.put_u8(0); // f32
        w.put_u32(u32::MAX);
        assert!(matches!(
            Message::decode(&w.into_vec()),
            Err(WireError::BadLength {
                what: "packed f32 region",
                ..
            })
        ));

        // A retired whole-expert blob claiming more bytes than present
        // dies on its tag, before its length is read.
        let mut w = crate::wire::ByteWriter::with_capacity(32);
        w.put_u8(10); // the retired ExpertState
        w.put_u32(0);
        w.put_u32(0);
        w.put_u64(u64::MAX);
        assert!(matches!(
            Message::decode(&w.into_vec()),
            Err(WireError::BadTag { tag: 10, .. })
        ));
    }

    #[test]
    fn migration_frames_roundtrip() {
        let msgs = [
            Message::FetchShadow {
                block: 3,
                expert: 7,
            },
            Message::ExpertChunk {
                block: 1,
                expert: 2,
                offset: 64,
                total: 200,
                data: vec![9u8; 32],
            },
            Message::Evict {
                block: 4,
                expert: 0,
            },
            Message::FetchTrained {
                block: 4,
                expert: 0,
            },
        ];
        for msg in &msgs {
            assert_eq!(&Message::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn migration_classification_and_bucket_split() {
        // The migration bucket sees exactly the frames that move
        // parameter bytes, plus their requests and acks.
        for msg in [
            Message::InstallDone {
                block: 0,
                expert: 0,
            },
            Message::FetchShadow {
                block: 0,
                expert: 0,
            },
            Message::ExpertChunk {
                block: 0,
                expert: 0,
                offset: 0,
                total: 3,
                data: vec![1, 2, 3],
            },
            Message::FetchTrained {
                block: 0,
                expert: 0,
            },
        ] {
            assert_eq!(msg.info().bucket, Bucket::Migration, "{msg:?}");
        }
        // Dropping a copy moves nothing and is in no bucket at all.
        let evict = Message::Evict {
            block: 0,
            expert: 0,
        };
        assert_eq!(evict.info().bucket, Bucket::Unaccounted);
    }

    #[test]
    fn chunked_transfer_accounts_like_one_expert_state() {
        // A stream accounts what the retired whole-blob frame did: the
        // blob plus one 17-byte header, however many chunks carry it.
        let data = vec![7u8; 3 * EXPERT_CHUNK_BYTES + 123];
        let frames = chunk_expert_state(0, 0, &data);
        assert_eq!(frames.len(), 4);
        let chunked: u64 = frames.iter().map(|f| f.accounted_bytes()).sum();
        assert_eq!(chunked, 17 + data.len() as u64);
        // Both halves of a copy are requested at the retired whole-expert
        // fetch's 9 bytes, so a copy accounts one whole-expert transfer
        // plus one more request/ack pair and stream header.
        for request in [
            Message::FetchShadow {
                block: 0,
                expert: 0,
            },
            Message::FetchTrained {
                block: 0,
                expert: 0,
            },
        ] {
            assert_eq!(request.accounted_bytes(), 9);
        }
    }

    #[test]
    fn chunk_assembler_reassembles_bitwise() {
        let data: Vec<u8> = (0..(2 * EXPERT_CHUNK_BYTES + 77))
            .map(|i| i as u8)
            .collect();
        let mut asm = ChunkAssembler::new(1, 2);
        for frame in chunk_expert_state(1, 2, &data) {
            let decoded = Message::decode(&frame.encode()).unwrap();
            match decoded {
                Message::ExpertChunk {
                    offset,
                    total,
                    data,
                    ..
                } => asm.accept(offset, total, &data).unwrap(),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(asm.is_complete());
        assert_eq!(asm.into_bytes(), data);
    }

    #[test]
    fn empty_expert_still_sends_one_chunk() {
        let frames = chunk_expert_state(0, 1, &[]);
        assert_eq!(frames.len(), 1);
        let mut asm = ChunkAssembler::new(0, 1);
        match &frames[0] {
            Message::ExpertChunk {
                offset,
                total,
                data,
                ..
            } => asm.accept(*offset, *total, data).unwrap(),
            other => panic!("unexpected {other:?}"),
        }
        assert!(asm.is_complete());
        assert!(asm.into_bytes().is_empty());
    }

    #[test]
    fn chunk_assembler_rejects_gap_overlap_and_overrun() {
        // Gap: second chunk skips ahead.
        let mut asm = ChunkAssembler::new(0, 0);
        asm.accept(0, 10, &[1, 2, 3]).unwrap();
        assert!(matches!(
            asm.accept(5, 10, &[4, 5]),
            Err(WireError::BadSpan {
                what: "expert chunk offset",
                ..
            })
        ));
        // Overlap: second chunk rewinds.
        assert!(matches!(
            asm.accept(1, 10, &[4, 5]),
            Err(WireError::BadSpan {
                what: "expert chunk offset",
                ..
            })
        ));
        // Inconsistent total.
        assert!(matches!(
            asm.accept(3, 11, &[4]),
            Err(WireError::BadSpan {
                what: "expert chunk total",
                ..
            })
        ));
        // Overrun past the declared total.
        assert!(matches!(
            asm.accept(3, 10, &[0; 8]),
            Err(WireError::BadLength {
                what: "expert chunk span",
                ..
            })
        ));
        // The rejected frames left the buffer untouched.
        assert_eq!(asm.received(), 3);
    }

    #[test]
    fn implausible_chunk_lengths_never_allocate() {
        // Claims a huge chunk length but carries no data.
        let mut w = crate::wire::ByteWriter::with_capacity(40);
        w.put_u8(22); // ExpertChunk
        w.put_u32(0);
        w.put_u32(0);
        w.put_u64(0); // offset
        w.put_u64(u64::MAX); // total
        w.put_u64(u64::MAX); // len
        assert!(matches!(
            Message::decode(&w.into_vec()),
            Err(WireError::BadLength {
                what: "expert chunk",
                ..
            })
        ));

        // A chunk whose span runs past its declared total is rejected at
        // decode, before the receiver ever sees it.
        let mut w = crate::wire::ByteWriter::with_capacity(40);
        w.put_u8(22); // ExpertChunk
        w.put_u32(0);
        w.put_u32(0);
        w.put_u64(90); // offset
        w.put_u64(100); // total: 90 + 20 > 100
        w.put_u64(20); // len
        w.put_slice(&[0u8; 20]);
        assert!(matches!(
            Message::decode(&w.into_vec()),
            Err(WireError::BadLength {
                what: "expert chunk span",
                ..
            })
        ));
    }
}
