//! Property tests for the wire codec (seeded, dependency-free).
//!
//! The TCP transport feeds [`Message::decode`] whatever arrives on a
//! socket, so the codec is a trust boundary: random messages must survive
//! a round trip bit-for-bit, and truncated or corrupted frames must come
//! back as [`WireError`]s — never a panic, never a bogus allocation.

use vela::nn::optim::AdamWConfig;
use vela::prelude::*;
use vela::runtime::message::{
    GroupPass, Message, PackedData, PackedGroup, PackedReply, PackedRow, FRAMES,
};
use vela::runtime::wire::WireError;
use vela::runtime::worker::{ExpertTemplate, WorkerBootstrap};

const CASES: u64 = 200;

fn random_pass(rng: &mut DetRng) -> GroupPass {
    if rng.below(2) == 0 {
        GroupPass::Forward
    } else {
        GroupPass::Backward
    }
}

/// A gradient row: F32 values, or a virtual row declaring its bytes.
fn random_row(rng: &mut DetRng) -> PackedRow {
    if rng.below(2) == 0 {
        let width = 1 + rng.below(144);
        let values = (0..width).map(|_| rng.uniform(-100.0, 100.0)).collect();
        PackedRow {
            width: width as u32,
            data: PackedData::F32(values),
        }
    } else {
        PackedRow {
            width: 1 + rng.below(1 << 30) as u32,
            data: PackedData::Virtual,
        }
    }
}

/// Row groups for the packed codec: small widths, a few experts, any
/// f32 bit pattern except NaN (NaN breaks `PartialEq`, not the codec —
/// bitwise survival is asserted separately).
fn random_parts(rng: &mut DetRng, width: u32) -> Vec<(u32, Vec<f32>)> {
    (0..1 + rng.below(5))
        .map(|gi| {
            let rows = 1 + rng.below(4);
            let vals = (0..rows * width as usize)
                .map(|_| loop {
                    let v = f32::from_bits(rng.next_u64() as u32);
                    if !v.is_nan() {
                        break v;
                    }
                })
                .collect();
            (gi as u32, vals)
        })
        .collect()
}

fn random_packed_dispatch(rng: &mut DetRng) -> Message {
    let width = 1 + rng.below(8) as u32;
    let block = rng.below(1 << 10) as u32;
    let pass = random_pass(rng);
    match rng.below(2) {
        0 => {
            let parts = random_parts(rng, width);
            Message::PackedDispatch(PackedGroup::pack(
                block,
                pass,
                width,
                parts.iter().map(|(e, v)| (*e, v.as_slice())),
            ))
        }
        _ => Message::PackedDispatch(PackedGroup::pack_virtual(
            block,
            pass,
            width,
            (0..1 + rng.below(5)).map(|e| (e as u32, 1 + rng.below(1 << 10) as u32)),
        )),
    }
}

fn random_packed_result(rng: &mut DetRng) -> Message {
    let width = 1 + rng.below(8) as u32;
    let rows = 1 + rng.below(8) as u32;
    let items = 1 + rng.below(6) as u32;
    let data = match rng.below(2) {
        0 => PackedData::F32(
            (0..rows * width)
                .map(|_| rng.uniform(-100.0, 100.0))
                .collect(),
        ),
        _ => PackedData::Virtual,
    };
    Message::PackedResult(PackedReply {
        block: rng.below(1 << 10) as u32,
        pass: random_pass(rng),
        width,
        items,
        rows,
        data,
    })
}

/// A worker bootstrap with or without an expert template, LoRA or not.
fn random_bootstrap(rng: &mut DetRng) -> WorkerBootstrap {
    let positive = |rng: &mut DetRng| rng.uniform(1e-9, 1.0);
    let optim = AdamWConfig {
        lr: positive(rng),
        beta1: positive(rng),
        beta2: positive(rng),
        eps: positive(rng),
        weight_decay: positive(rng),
    };
    let template = (rng.below(2) == 0).then(|| ExpertTemplate {
        dim: 1 + rng.below(1 << 12),
        ffn_hidden: 1 + rng.below(1 << 14),
        lora: (rng.below(2) == 0).then(|| (1 + rng.below(64), rng.uniform(0.5, 64.0))),
        base_frozen: rng.below(2) == 0,
    });
    WorkerBootstrap {
        blocks: 1 + rng.below(64),
        experts: 1 + rng.below(256),
        optim,
        template,
    }
}

/// A random instance of a uniformly drawn row of the frame table. The
/// generator is keyed by the table's own names, so a frame added to the
/// protocol fails here until it is fuzzed too.
fn random_message(rng: &mut DetRng) -> Message {
    let block = rng.below(1 << 10) as u32;
    let expert = rng.below(1 << 8) as u32;
    let clock = |rng: &mut DetRng| rng.below(usize::MAX / 2) as u64;
    let blob = |rng: &mut DetRng| -> Vec<u8> {
        (0..rng.below(256)).map(|_| rng.below(256) as u8).collect()
    };
    match FRAMES[rng.below(FRAMES.len())].name {
        "StepBegin" => Message::StepBegin { step: clock(rng) },
        "StepEnd" => Message::StepEnd,
        "StepDone" => Message::StepDone,
        "Shutdown" => Message::Shutdown,
        "InstallDone" => Message::InstallDone { block, expert },
        "PackedDispatch" => random_packed_dispatch(rng),
        "PackedResult" => random_packed_result(rng),
        "ClockProbe" => Message::ClockProbe { t1: clock(rng) },
        "ClockReply" => Message::ClockReply {
            t1: clock(rng),
            t2: clock(rng),
            t3: clock(rng),
        },
        "FetchGrads" => Message::FetchGrads {
            block,
            expert,
            grad_bytes: rng.below(1 << 24) as u32,
        },
        "GradState" => Message::GradState {
            block,
            expert,
            row: random_row(rng),
        },
        "FetchShadow" => Message::FetchShadow { block, expert },
        "ExpertChunk" => {
            // Any span inside the declared total is a valid chunk.
            let data = blob(rng);
            let offset = rng.below(1 << 20) as u64;
            let total = offset + data.len() as u64 + rng.below(1 << 20) as u64;
            Message::ExpertChunk {
                block,
                expert,
                offset,
                total,
                data,
            }
        }
        "Evict" => Message::Evict { block, expert },
        "FetchTrained" => Message::FetchTrained { block, expert },
        "DropMoments" => Message::DropMoments { block, expert },
        "Bootstrap" => Message::Bootstrap(random_bootstrap(rng)),
        other => panic!("frame {other} is in the table but has no fuzz generator"),
    }
}

/// Tags of the retired per-batch (2–5) and per-item group (12, 13)
/// framings, of the whole-expert fetch and blob (9, 10), of the
/// replica-sync ack (20), and of the lockstep shadow's moment snapshot,
/// announce and commit (23, 24, 26). They are never reassigned, so
/// whatever a stale peer puts behind one, the decoder must answer with a
/// [`WireError`] before it reads — let alone allocates for — a single
/// length field.
const RETIRED_TAGS: [u8; 12] = [2, 3, 4, 5, 9, 10, 12, 13, 20, 23, 24, 26];

/// A frame a stale peer might send: a retired tag in front of the body of
/// some valid message.
fn retired_frame(rng: &mut DetRng) -> Vec<u8> {
    let mut frame = random_message(rng).encode();
    frame[0] = RETIRED_TAGS[rng.below(RETIRED_TAGS.len())];
    frame
}

/// Every message kind round-trips bit-for-bit — and "every" is the frame
/// table's word, not this file's: the tags drawn over the seed range are
/// exactly the table's.
#[test]
fn random_messages_roundtrip() {
    let mut drawn = std::collections::BTreeSet::new();
    for seed in 0..CASES {
        let mut rng = DetRng::new(seed);
        let msg = random_message(&mut rng);
        let frame = msg.encode();
        assert_eq!(Message::decode(&frame).unwrap(), msg, "seed {seed}");
        drawn.insert(frame[0]);
    }
    let table: std::collections::BTreeSet<u8> = FRAMES.iter().map(|f| f.tag).collect();
    assert_eq!(drawn, table, "the fuzz generator must reach every frame");
}

/// Every first byte that is not a tag in the table — the retired ones
/// included — is a `BadTag`, whatever follows it.
#[test]
fn every_tag_outside_the_table_is_a_bad_tag() {
    let mut rng = DetRng::new(0x7A6);
    for tag in 0..=u8::MAX {
        if FRAMES.iter().any(|f| f.tag == tag) {
            continue;
        }
        let mut frame = random_message(&mut rng).encode();
        frame[0] = tag;
        for cut in [1, frame.len()] {
            assert_eq!(
                Message::decode(&frame[..cut]),
                Err(WireError::BadTag {
                    what: "message",
                    tag
                }),
                "tag {tag}"
            );
        }
    }
    assert!(RETIRED_TAGS
        .iter()
        .all(|t| FRAMES.iter().all(|f| f.tag != *t)));
}

/// Packed encoding 1 (int8 rows with per-row scales) is retired and never
/// reused: a packed dispatch or result carrying it is a `BadTag`, whatever
/// region follows.
#[test]
fn retired_packed_encoding_is_a_bad_tag() {
    for seed in 0..CASES {
        let mut rng = DetRng::new(0xE1 + seed);
        let msg = if rng.below(2) == 0 {
            random_packed_dispatch(&mut rng)
        } else {
            random_packed_result(&mut rng)
        };
        let mut frame = msg.encode();
        // tag · u32 block · u8 pass, then the encoding byte.
        assert!(frame[6] == 0 || frame[6] == 2, "seed {seed}");
        frame[6] = 1;
        assert_eq!(
            Message::decode(&frame),
            Err(WireError::BadTag {
                what: "packed encoding",
                tag: 1
            }),
            "seed {seed}"
        );
    }
}

/// Any strict prefix of a valid frame is an error — the codec's length
/// and trailing-byte checks make partial reads impossible to mistake for
/// complete messages.
#[test]
fn truncated_frames_are_errors_not_panics() {
    for seed in 0..CASES {
        let mut rng = DetRng::new(0x7C0 + seed);
        let frame = random_message(&mut rng).encode();
        // The empty prefix plus a few random cuts.
        let mut cuts = vec![0, frame.len() - 1];
        for _ in 0..4 {
            cuts.push(rng.below(frame.len()));
        }
        for cut in cuts {
            assert!(
                Message::decode(&frame[..cut]).is_err(),
                "seed {seed}: {cut}-byte prefix of a {}-byte frame decoded",
                frame.len()
            );
        }
        // A cut inside the tag, or inside the first field behind it (every
        // row's first field is fixed-width), is an `Underflow`.
        for cut in 0..frame.len().min(2) {
            assert!(
                matches!(
                    Message::decode(&frame[..cut]),
                    Err(WireError::Underflow { .. })
                ),
                "seed {seed}: {cut}-byte prefix"
            );
        }
    }
}

/// The bootstrap's first field is the codec version, and any version but
/// the current one is a `BadTag` raised before a later field is read: with
/// nothing behind the version byte the error is still the version's, not
/// an `Underflow`. Before version 7 the bootstrap was a raw frame outside
/// the protocol, version byte first; 6 is `StepEnd`'s tag, so such a frame
/// decodes to a `StepEnd` followed by trailing bytes, an error too.
#[test]
fn stale_bootstrap_versions_are_turned_away_first() {
    let mut rng = DetRng::new(0xB007);
    for _ in 0..4 {
        let frame = Message::Bootstrap(random_bootstrap(&mut rng)).encode();
        let current = frame[1];
        for version in (0..=u8::MAX).filter(|&v| v != current) {
            let mut stale = frame.clone();
            stale[1] = version;
            for cut in [2, stale.len()] {
                assert_eq!(
                    Message::decode(&stale[..cut]),
                    Err(WireError::BadTag {
                        what: "bootstrap version",
                        tag: version
                    }),
                    "version {version}"
                );
            }
        }
        let mut raw_v6 = frame[1..].to_vec();
        raw_v6[0] = 6;
        assert!(matches!(
            Message::decode(&raw_v6),
            Err(WireError::TrailingBytes { .. })
        ));
    }
}

/// Byte flips never panic: they decode to some message or a clean error.
#[test]
fn corrupted_frames_never_panic() {
    for seed in 0..CASES {
        let mut rng = DetRng::new(0xBAD + seed);
        let mut frame = random_message(&mut rng).encode();
        for _ in 0..8 {
            let at = rng.below(frame.len());
            frame[at] ^= 1 << rng.below(8);
            let _ = Message::decode(&frame);
        }
        // A retired tag is a clean error whatever follows it, flipped
        // bits included.
        let mut stale = retired_frame(&mut rng);
        for _ in 0..8 {
            assert!(
                matches!(Message::decode(&stale), Err(WireError::BadTag { .. })),
                "seed {seed}"
            );
            if stale.len() > 1 {
                let at = 1 + rng.below(stale.len() - 1);
                stale[at] ^= 1 << rng.below(8);
            }
        }
        // Appended garbage is caught by the trailing-bytes check.
        let mut padded = random_message(&mut rng).encode();
        padded.push(rng.below(256) as u8);
        assert!(
            matches!(
                Message::decode(&padded),
                Err(WireError::TrailingBytes { .. })
            ),
            "seed {seed}"
        );
    }
}

/// Packed f32 regions survive the wire bit for bit — including
/// denormals, infinities, and negative zero. This is the property the
/// packed parity grid leans on: re-framing must never touch the bits.
#[test]
fn packed_f32_regions_roundtrip_bitwise() {
    for seed in 0..CASES {
        let mut rng = DetRng::new(0xF32 + seed);
        let width = 1 + rng.below(8) as u32;
        let parts = random_parts(&mut rng, width);
        let msg = Message::PackedDispatch(PackedGroup::pack(
            7,
            GroupPass::Forward,
            width,
            parts.iter().map(|(e, v)| (*e, v.as_slice())),
        ));
        let decoded = Message::decode(&msg.encode()).unwrap();
        let Message::PackedDispatch(group) = decoded else {
            panic!("seed {seed}: wrong message kind");
        };
        let PackedData::F32(region) = &group.data else {
            panic!("seed {seed}: wrong encoding");
        };
        let original: Vec<u32> = parts
            .iter()
            .flat_map(|(_, v)| v.iter().map(|x| x.to_bits()))
            .collect();
        let survived: Vec<u32> = region.iter().map(|x| x.to_bits()).collect();
        assert_eq!(original, survived, "seed {seed}");
    }
}

/// Span tables that overlap, leave gaps, or declare more rows than the
/// frame holds are rejected during the header scan — before the data
/// region (whose size the spans imply) is allocated.
#[test]
fn bad_span_tables_are_rejected_before_allocation() {
    use vela::runtime::wire::ByteWriter;
    // A syntactically valid packed-dispatch prefix: tag, block, pass,
    // f32 encoding, the given width.
    let header = |width: u32, count: u16| {
        let mut w = ByteWriter::with_capacity(64);
        w.put_u8(14); // PackedDispatch tag
        w.put_u32(3);
        w.put_u8(0); // forward
        w.put_u8(0); // f32 encoding
        w.put_u32(width);
        w.put_u16(count);
        w
    };
    let span = |w: &mut ByteWriter, expert: u16, offset: u32, rows: u16| {
        w.put_u16(expert);
        w.put_u32(offset);
        w.put_u16(rows);
    };

    // Overlapping spans: the second one starts inside the first.
    let mut w = header(4, 2);
    span(&mut w, 0, 0, 2);
    span(&mut w, 1, 1, 2);
    assert!(matches!(
        Message::decode(&w.into_vec()),
        Err(WireError::BadSpan { .. })
    ));

    // Gapped spans: the second one skips a row.
    let mut w = header(4, 2);
    span(&mut w, 0, 0, 2);
    span(&mut w, 1, 3, 1);
    assert!(matches!(
        Message::decode(&w.into_vec()),
        Err(WireError::BadSpan { .. })
    ));

    // A span table longer than the frame: rejected before the span
    // vector is sized from the count field.
    let w = header(4, u16::MAX);
    assert!(matches!(
        Message::decode(&w.into_vec()),
        Err(WireError::BadLength {
            what: "packed span table",
            ..
        })
    ));

    // Dense spans whose implied f32 region dwarfs the frame: rejected
    // before the region is allocated, even though every span is valid.
    let mut w = header(u32::MAX, 1);
    span(&mut w, 0, 0, u16::MAX);
    assert!(matches!(
        Message::decode(&w.into_vec()),
        Err(WireError::BadLength {
            what: "packed f32 region",
            ..
        })
    ));

    // Same guard on the result path: a reply declaring a huge row count
    // with no region behind it.
    let mut w = ByteWriter::with_capacity(32);
    w.put_u8(15); // PackedResult tag
    w.put_u32(3);
    w.put_u8(0);
    w.put_u8(0); // f32 encoding
    w.put_u32(u32::MAX); // width
    w.put_u16(1); // items
    w.put_u32(u32::MAX); // rows
    assert!(matches!(
        Message::decode(&w.into_vec()),
        Err(WireError::BadLength {
            what: "packed f32 region",
            ..
        })
    ));
}

/// Length fields that promise more data than the frame holds must be
/// rejected *before* any allocation sized by them.
#[test]
fn implausible_length_fields_do_not_allocate() {
    use vela::runtime::wire::ByteWriter;
    for seed in 0..CASES {
        let mut rng = DetRng::new(0x1E46 + seed);
        // An f32 gradient row declaring a huge width.
        let mut w = ByteWriter::with_capacity(32);
        w.put_u8(19); // GradState tag
        w.put_u32(0);
        w.put_u32(0);
        w.put_u8(0); // f32 encoding
        w.put_u32(u32::MAX - rng.below(1 << 16) as u32);
        let frame = w.into_vec();
        assert!(
            matches!(
                Message::decode(&frame),
                Err(WireError::BadLength {
                    what: "packed f32 region",
                    ..
                })
            ),
            "seed {seed}"
        );

        // The retired framings' own worst cases — a per-batch frame
        // declaring a huge rows × cols grid, a group frame declaring
        // more items than any frame could hold, a whole-expert blob
        // declaring more bytes than any frame could hold — now die on the
        // tag.
        for tag in RETIRED_TAGS {
            let mut w = ByteWriter::with_capacity(32);
            w.put_u8(tag);
            w.put_u32(0);
            w.put_u8(rng.below(2) as u8);
            w.put_u32(u32::MAX - rng.below(1 << 16) as u32);
            w.put_u32(u32::MAX - rng.below(1 << 16) as u32);
            let frame = w.into_vec();
            assert!(
                matches!(Message::decode(&frame), Err(WireError::BadTag { tag: t, .. }) if t == tag),
                "seed {seed}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Chunked expert transfers: the background-migration codec. Frames are
// bounded, reassembly is bitwise, and malformed span tables (gaps,
// overlaps, drifting totals, overruns) die before a byte is copied.
// ---------------------------------------------------------------------------

#[test]
fn expert_chunks_reassemble_bitwise() {
    use vela::runtime::{chunk_expert_state, ChunkAssembler, EXPERT_CHUNK_BYTES};
    let mut rng = DetRng::new(0xC4A);
    // Edge sizes first, then random blobs straddling several frames.
    let mut sizes = vec![
        0,
        1,
        EXPERT_CHUNK_BYTES - 1,
        EXPERT_CHUNK_BYTES,
        EXPERT_CHUNK_BYTES + 1,
        3 * EXPERT_CHUNK_BYTES + 7,
    ];
    sizes.extend((0..20).map(|_| rng.below(4 * EXPERT_CHUNK_BYTES)));
    for size in sizes {
        let blob: Vec<u8> = (0..size).map(|_| rng.next_u64() as u8).collect();
        let frames = chunk_expert_state(3, 7, &blob);
        assert!(!frames.is_empty(), "even empty blobs announce their total");
        let mut asm = ChunkAssembler::new(3, 7);
        for frame in frames {
            // Every frame survives the wire and stays bounded.
            let decoded = Message::decode(&frame.encode()).unwrap();
            assert_eq!(decoded, frame);
            match decoded {
                Message::ExpertChunk {
                    offset,
                    total,
                    data,
                    ..
                } => {
                    assert!(data.len() <= EXPERT_CHUNK_BYTES, "frame exceeds bound");
                    assert_eq!(total, blob.len() as u64);
                    asm.accept(offset, total, &data).unwrap();
                }
                other => panic!("chunking produced {other:?}"),
            }
        }
        assert!(asm.is_complete());
        assert_eq!(asm.into_bytes(), blob, "size {size}");
    }
}

#[test]
fn chunk_assembler_rejects_gaps_overlaps_and_total_drift() {
    use vela::runtime::{chunk_expert_state, ChunkAssembler};
    let mut rng = DetRng::new(0xC4B);
    let blob: Vec<u8> = (0..1000).map(|_| rng.next_u64() as u8).collect();
    let chunk = |m: &Message| match m {
        Message::ExpertChunk {
            offset,
            total,
            data,
            ..
        } => (*offset, *total, data.clone()),
        other => panic!("{other:?}"),
    };
    // Hand-rolled 250-byte frames so there are several to misorder.
    let frames: Vec<(u64, u64, Vec<u8>)> = blob
        .chunks(250)
        .enumerate()
        .map(|(i, c)| (i as u64 * 250, blob.len() as u64, c.to_vec()))
        .collect();

    // A gap: frame 1 skipped.
    let mut asm = ChunkAssembler::new(0, 0);
    asm.accept(frames[0].0, frames[0].1, &frames[0].2).unwrap();
    assert!(matches!(
        asm.accept(frames[2].0, frames[2].1, &frames[2].2),
        Err(WireError::BadSpan {
            what: "expert chunk offset",
            ..
        })
    ));

    // An overlap: frame 0 delivered twice.
    let mut asm = ChunkAssembler::new(0, 0);
    asm.accept(frames[0].0, frames[0].1, &frames[0].2).unwrap();
    assert!(matches!(
        asm.accept(frames[0].0, frames[0].1, &frames[0].2),
        Err(WireError::BadSpan {
            what: "expert chunk offset",
            ..
        })
    ));

    // A drifting total: the second frame disagrees about the blob size.
    let mut asm = ChunkAssembler::new(0, 0);
    asm.accept(frames[0].0, frames[0].1, &frames[0].2).unwrap();
    assert!(matches!(
        asm.accept(frames[1].0, frames[1].1 + 1, &frames[1].2),
        Err(WireError::BadSpan {
            what: "expert chunk total",
            ..
        })
    ));

    // An overrun: more data than the declared total.
    let mut asm = ChunkAssembler::new(0, 0);
    assert!(matches!(
        asm.accept(0, 10, &blob[..11]),
        Err(WireError::BadLength {
            what: "expert chunk span",
            ..
        })
    ));
    assert_eq!(asm.received(), 0, "a rejected chunk leaves nothing behind");

    // And the happy path still assembles after a rejected frame: the
    // assembler state is untouched by errors.
    let mut asm = ChunkAssembler::new(0, 0);
    for f in chunk_expert_state(0, 0, &blob) {
        let (o, t, d) = chunk(&f);
        let _ = asm.accept(o + 1, t, &d); // rejected, no effect
        asm.accept(o, t, &d).unwrap();
    }
    assert_eq!(asm.into_bytes(), blob);
}

#[test]
fn implausible_chunk_lengths_do_not_allocate() {
    use vela::runtime::wire::ByteWriter;
    let mut rng = DetRng::new(0xC4C);
    for seed in 0..CASES {
        // A chunk frame whose length field promises far more data than
        // the frame carries: rejected by the remaining-bytes check, and
        // no buffer of the declared size is ever allocated.
        let mut w = ByteWriter::with_capacity(64);
        w.put_u8(22); // ExpertChunk tag
        w.put_u32(rng.below(8) as u32);
        w.put_u32(rng.below(8) as u32);
        w.put_u64(0);
        w.put_u64(u64::MAX - rng.below(1 << 20) as u64); // total
        w.put_u64(u64::MAX - rng.below(1 << 20) as u64); // len >> frame
        w.put_slice(&[0u8; 16]);
        let frame = w.into_vec();
        assert!(
            matches!(
                Message::decode(&frame),
                Err(WireError::BadLength {
                    what: "expert chunk",
                    ..
                })
            ),
            "seed {seed}"
        );

        // A chunk whose span runs past its own declared total.
        let mut w = ByteWriter::with_capacity(64);
        w.put_u8(22);
        w.put_u32(0);
        w.put_u32(0);
        w.put_u64(100 + rng.below(100) as u64); // offset
        w.put_u64(50); // total < offset
        w.put_u64(8);
        w.put_slice(&[0u8; 8]);
        let frame = w.into_vec();
        assert!(
            matches!(
                Message::decode(&frame),
                Err(WireError::BadLength {
                    what: "expert chunk span",
                    ..
                })
            ),
            "seed {seed}"
        );
    }
}
