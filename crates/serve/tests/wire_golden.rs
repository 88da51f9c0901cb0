//! The daemon's wire protocol, pinned byte for byte.
//!
//! One FNV-1a digest per message kind over the exact encoded payload,
//! the frame key of three fixed configurations, and the `tag → variant`
//! table of every enum that travels as a tag byte. The constants were
//! recorded at `b5c927d`, before `vr-serve::wire` was rewritten as field
//! tables — never re-record them to make a change pass: a digest that
//! moves is a wire-format change and needs a `WIRE_VERSION` bump, and a
//! frame key that moves silently invalidates every cache. `HELLO`,
//! `WELCOME` and `ERROR` carry the version: they were re-recorded for
//! `WIRE_VERSION = 2` (the `Method` tags after BSBM, BSMR, BTREE and
//! PIPE were deleted), `3` (after direct send was), `4`, `5`, `6`, `7`
//! `8` and `9`, and nothing else in them moved. Version 4 dropped the request's
//! streamed-tile edge and the frame record's two tile latencies with the
//! fused runner, so `REQUEST`, the three `KEY_*` and the four
//! `RESPONSE_FRAME_*` were re-recorded with it; every other
//! `RESPONSE_*`, `STATS_REPLY` and every tag table stayed unchanged.
//! Version 5 dropped the request's render thread count, so `REQUEST` and
//! the three `KEY_*` were re-recorded with it, and nothing else moved.
//! Version 6 sends a frame's image as mask-RLE codes plus its non-blank
//! pixels, so the four `RESPONSE_FRAME_*` were re-recorded with it and
//! `RESPONSE_FRAME_SPARSE` (the first sample with blank pixels, which
//! pins the run codes themselves) was added; `REQUEST`, the three
//! `KEY_*`, `STATS_REPLY`, every other `RESPONSE_*` and every tag table
//! stayed unchanged. Version 7 retired reject reason tag 2 (an admission
//! shed the service no longer makes) and the stats' counter for it, so
//! its `RESPONSE_REJECTED_*` case was deleted and `STATS_REPLY`
//! re-recorded; tags 0, 1 and 3 kept their numbers, and every other
//! constant stayed unchanged. Version 8 dropped the frame record's pixel
//! staging watermark, so the five `RESPONSE_FRAME_*` were re-recorded
//! with it (each reply 8 bytes shorter); `REQUEST`, the three `KEY_*`,
//! `STATS_REPLY`, every other `RESPONSE_*` and every tag table stayed
//! unchanged. Version 9 made a request's reliable delivery one `bool`
//! (its retry schedule follows `recv_deadline`), so `REQUEST` (28 bytes
//! shorter) and the three `KEY_*` were re-recorded with it; every
//! `RESPONSE_*`, `STATS_REPLY` and every tag table stayed unchanged.
//!
//! Every sample fills each field with a distinct value, so two fields
//! of one type swapping places moves the digest too.

use std::sync::Arc;
use std::time::Duration;

use slsvr_core::stats::CompCost;
use slsvr_core::Method;
use vr_comm::{CostModel, FaultAction, FaultConfig, KillSpec, StreamClass, TargetedFault};
use vr_image::checksum::fnv1a;
use vr_image::{Image, MaskRle, Pixel};
use vr_serve::wire::{self, DecodeError, ErrorInfo};
use vr_serve::{
    frame_key, CacheCounters, FrameReply, FrameResponse, RejectReason, RenderedFrame, ServeSource,
    ServiceStats, StatsReply, Welcome,
};
use vr_system::{CompTiming, Experiment, ExperimentConfig, FrameRecord};
use vr_volume::DatasetKind;

// One golden constant per message kind (CI greps for each of these
// names, so an emptied table fails like an emptied corpus).
const HELLO: u64 = 0xe7f2bb5eb6659490;
const WELCOME: u64 = 0x016aee81c28a717c;
const ERROR: u64 = 0xfad5835df2734d84;
const REQUEST: u64 = 0xfae99e16aa4c0159;
const RESPONSE_FRAME_DEGRADED: u64 = 0xe0a8baafcf494dc3;
const RESPONSE_OVERLOADED: u64 = 0x300bbfc292e4845a;
const RESPONSE_SHED: u64 = 0xed789ee0dd63fa6f;
const RESPONSE_REJECTED: u64 = 0x8aea2ffbc682f7ad;
const STATS_REPLY: u64 = 0xbaa6a4a18e94ea0d;

// The remaining tag bytes of a response: every serve source and every
// reject reason.
const RESPONSE_FRAME_FRESH: u64 = 0x68c6d5fb929a4ec4;
const RESPONSE_FRAME_CACHE: u64 = 0xff67252e03f1d407;
const RESPONSE_FRAME_COALESCED: u64 = 0xc18a64b10f0dc1ae;
const RESPONSE_FRAME_SPARSE: u64 = 0x3d3ae89345a3035a;
const RESPONSE_REJECTED_QUALITY: u64 = 0xbf941919b2965da8;
const RESPONSE_REJECTED_SHUTDOWN: u64 = 0x292ddd8905b8d17b;

const KEY_DEFAULT: u64 = 0xd567563938050dc9;
const KEY_SMALL_TEST: u64 = 0x18ce4176307e1fdf;
const KEY_EVERY_OPTION: u64 = 0xe90827a6ea8b7d89;

/// FNV-1a over raw bytes (the same function `frame_key` applies to a
/// config's canonical encoding).
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

#[track_caller]
fn pinned(what: &str, bytes: &[u8], golden: u64) {
    assert_eq!(
        digest(bytes),
        golden,
        "{what}: the encoded bytes moved (got {:#018x}, {} bytes)",
        digest(bytes),
        bytes.len()
    );
}

/// A configuration with every optional field set and every scalar
/// distinct from its neighbours of the same type.
fn every_option() -> ExperimentConfig {
    ExperimentConfig {
        dataset: DatasetKind::Head,
        image_size: 96,
        processors: 6,
        method: Method::Bslc,
        rot_x_deg: 12.5,
        rot_y_deg: -47.25,
        cost: CostModel {
            t_s: 3.5e-5,
            t_c: 2.75e-8,
        },
        volume_dims: Some([40, 48, 24]),
        step: 1.5,
        early_termination_alpha: 0.875,
        perspective_distance: Some(2.5),
        balanced_partition: true,
        ghost_voxels: 2,
        comp_timing: CompTiming::Modeled(CompCost {
            t_scan: 1.0e-9,
            t_pack: 2.0e-9,
            t_unpack: 3.0e-9,
            t_over: 4.0e-9,
            t_encode: 5.0e-9,
        }),
        faults: Some(FaultConfig {
            drop: 0.125,
            corrupt: 0.0625,
            duplicate: 0.03125,
            delay: 0.25,
            delay_ms: 9,
            seed: 42,
            kill: Some(KillSpec {
                rank: 2,
                after_ops: 7,
            }),
            target: Some(TargetedFault {
                src: 1,
                dst: 3,
                class: StreamClass::Data,
                index: 5,
                action: FaultAction::Corrupt,
            }),
        }),
        reliable: true,
        recv_deadline: Some(Duration::from_millis(250)),
        schedule_seed: Some(11),
        macrocell: 4,
        tile: 12,
        simd_lanes: 8,
    }
}

fn record() -> FrameRecord {
    FrameRecord {
        t_comp_ms: 1.5,
        t_comm_ms: 2.25,
        t_total_ms: 3.75,
        t_bound_ms: 0.125,
        t_encode_ms: 0.0625,
        render_max_ms: 14.5,
        m_max: 4096,
        total_bytes: 65_536,
        coverage: 0.875,
        dead_ranks: 1,
    }
}

fn frame_response(source: ServeSource) -> FrameResponse {
    frame_of(
        Image::from_fn(5, 3, |x, y| {
            Pixel::new(x as f32 * 0.125, y as f32 * 0.25, 0.5, 1.0)
        }),
        source,
    )
}

/// A 6×4 frame that is mostly blank: blank margins on every side, a
/// blank gap inside row 1, a `-0.0`-component pixel (non-blank: blank
/// is bitwise `Pixel::BLANK`) and a NaN with a payload. Its codes are
/// `[7, 2, 1, 1, 2, 1, 2, 1]`.
fn sparse_frame_response() -> FrameResponse {
    let image = Image::from_fn(6, 4, |x, y| match (x, y) {
        (1, 1) => Pixel::new(0.125, 0.25, 0.375, 0.5),
        (2, 1) => Pixel::new(0.625, 0.75, 0.875, 1.0),
        (4, 1) => Pixel::new(0.0, -0.0, 0.0, 0.0),
        (1, 2) => Pixel::new(1.5, 2.5, 3.5, 4.5),
        (4, 2) => Pixel::new(f32::from_bits(0x7fc0_1234), 0.0625, 0.03125, 0.75),
        _ => Pixel::BLANK,
    });
    frame_of(image, ServeSource::Cache)
}

fn frame_of(image: Image, source: ServeSource) -> FrameResponse {
    FrameResponse::Frame(FrameReply {
        frame: Arc::new(RenderedFrame {
            key: 77,
            image_hash: fnv1a(&image),
            image,
            record: record(),
        }),
        source,
        wait_seconds: 0.25,
    })
}

fn rejected(reason: RejectReason) -> FrameResponse {
    FrameResponse::Rejected {
        attempts: 3,
        reason,
    }
}

fn shard_stats(base: u64) -> ServiceStats {
    ServiceStats {
        submitted: base + 1,
        completed_fresh: base + 2,
        completed_cached: base + 3,
        completed_coalesced: base + 4,
        completed_degraded: base + 5,
        shed_deadline: base + 6,
        rejected_overload: base + 7,
        rejected_failed: base + 8,
        rejected_shutdown: base + 10,
        frame_retries: base + 11,
        failed_attempts: base + 12,
        datasets_evicted: base + 13,
        min_degraded_psnr_db: 29.5 + base as f64,
        rendered_frames: base + 14,
        peak_queue_depth: base as usize + 15,
        cache: CacheCounters {
            hits: base + 16,
            misses: base + 17,
            evictions: base + 18,
            insertions: base + 19,
        },
    }
}

#[test]
fn handshake_messages_are_pinned() {
    pinned("hello", &wire::encode_hello(), HELLO);
    let welcome = Welcome {
        version: wire::WIRE_VERSION,
        shards: 4,
        window: 8,
    };
    pinned("welcome", &wire::encode_welcome(&welcome), WELCOME);
    let error = ErrorInfo {
        code: wire::ERR_BUSY,
        version: wire::WIRE_VERSION,
        message: "connection budget exhausted".to_string(),
    };
    pinned("error", &wire::encode_error(&error), ERROR);
}

#[test]
fn request_is_pinned() {
    pinned(
        "request",
        &wire::encode_request(0x0102_0304_0506_0708, &every_option()),
        REQUEST,
    );
}

#[test]
fn every_response_shape_is_pinned() {
    let degraded = ServeSource::Degraded {
        psnr_db: 31.5,
        coverage: 0.75,
    };
    let failed = RejectReason::Failed {
        error: "recv deadline".to_string(),
    };
    let quality = RejectReason::QualityFloor { best_psnr_db: 17.0 };
    let cases = [
        (
            "frame/degraded",
            frame_response(degraded),
            RESPONSE_FRAME_DEGRADED,
        ),
        (
            "overloaded",
            FrameResponse::Overloaded { queue_depth: 9 },
            RESPONSE_OVERLOADED,
        ),
        (
            "shed",
            FrameResponse::Shed {
                waited_seconds: 1.5,
            },
            RESPONSE_SHED,
        ),
        ("rejected/failed", rejected(failed), RESPONSE_REJECTED),
        (
            "frame/fresh",
            frame_response(ServeSource::Fresh),
            RESPONSE_FRAME_FRESH,
        ),
        (
            "frame/cache",
            frame_response(ServeSource::Cache),
            RESPONSE_FRAME_CACHE,
        ),
        (
            "frame/coalesced",
            frame_response(ServeSource::Coalesced),
            RESPONSE_FRAME_COALESCED,
        ),
        (
            "frame/sparse",
            sparse_frame_response(),
            RESPONSE_FRAME_SPARSE,
        ),
        (
            "rejected/quality",
            rejected(quality),
            RESPONSE_REJECTED_QUALITY,
        ),
        (
            "rejected/shutdown",
            rejected(RejectReason::Shutdown),
            RESPONSE_REJECTED_SHUTDOWN,
        ),
    ];
    for (what, resp, golden) in cases {
        pinned(what, &wire::encode_response(5, &resp), golden);
    }
}

/// The wire size of a real frame, exactly: one Head 256² P = 4 BSBRC
/// frame at a fixed pose, rendered in process. Its reply is the fixed
/// fields, 2 B per run code and 16 B per non-blank pixel, with codes and
/// pixels counted from the batch image's bit mask, and at most a quarter
/// of the dense form version 5 sent.
#[test]
fn a_head_frame_travels_as_its_runs_and_non_blank_pixels() {
    let config = ExperimentConfig {
        dataset: DatasetKind::Head,
        image_size: 256,
        processors: 4,
        method: Method::Bsbrc,
        ..Default::default()
    };
    let image = Experiment::prepare(&config).run(config.method).image;
    let blank = Pixel::BLANK.to_le_bytes();
    let mask: Vec<bool> = image
        .pixels()
        .iter()
        .map(|p| p.to_le_bytes() != blank)
        .collect();
    let codes = MaskRle::encode_mask(mask.iter().copied()).num_codes();
    let non_blank = mask.iter().filter(|&&m| m).count();
    // The id, two tags, the wait, the hash, the record's ten 8-byte
    // fields, the width and height, and the code count.
    let fixed = 8 + 1 + 1 + 8 + 8 + 10 * 8 + 2 * 2 + 4;
    let len = wire::encode_response(1, &frame_of(image, ServeSource::Cache)).len();
    assert_eq!(len, fixed + 2 * codes + 16 * non_blank);
    let dense = fixed - 4 + 256 * 256 * 16;
    assert!(4 * len <= dense, "{len} B against {dense} B dense");
}

#[test]
fn stats_reply_is_pinned() {
    let reply = StatsReply {
        shards: vec![shard_stats(0), shard_stats(100)],
        imbalance: 1.625,
    };
    pinned(
        "stats reply",
        &wire::encode_stats_reply(&reply),
        STATS_REPLY,
    );
}

#[test]
fn frame_keys_are_pinned() {
    let cases = [
        ("default", ExperimentConfig::default(), KEY_DEFAULT),
        (
            "small_test",
            ExperimentConfig::small_test(DatasetKind::Cube, 2, Method::Bsbrc),
            KEY_SMALL_TEST,
        ),
        ("every option", every_option(), KEY_EVERY_OPTION),
    ];
    for (what, config, golden) in cases {
        assert_eq!(
            frame_key(&config),
            golden,
            "{what}: the frame key moved (got {:#018x})",
            frame_key(&config)
        );
    }
}

/// Checks one enum's tag table through the request codec: `with(v)` is
/// the sample request carrying variant `v`. The tag byte's offset is
/// found by diffing two encodings, each variant must encode to its
/// pinned tag and decode back to itself, and the first unused tag must
/// be refused as `BadTag`.
fn check_tags<T: Copy + PartialEq + std::fmt::Debug>(
    what: &'static str,
    table: &[(u8, T)],
    with: impl Fn(T) -> ExperimentConfig,
    read: impl Fn(&ExperimentConfig) -> T,
) {
    let encode = |v: T| wire::encode_request(1, &with(v));
    let (first, second) = (encode(table[0].1), encode(table[1].1));
    let differing: Vec<usize> = (0..first.len())
        .filter(|&i| first[i] != second[i])
        .collect();
    let &[at] = differing.as_slice() else {
        panic!("{what}: two variants differ in bytes {differing:?}, expected one tag byte");
    };
    for &(tag, variant) in table {
        let bytes = encode(variant);
        assert_eq!(bytes[at], tag, "{what}: {variant:?} travels as another tag");
        let (_, decoded) = wire::decode_request(&bytes).expect("a valid request");
        assert_eq!(read(&decoded), variant, "{what}: tag {tag} decodes wrongly");
    }
    let mut unknown = first;
    unknown[at] = table.len() as u8;
    assert_eq!(
        wire::decode_request(&unknown).err(),
        Some(DecodeError::BadTag {
            what,
            tag: table.len() as u8
        })
    );
}

#[test]
fn enum_tag_tables_are_pinned() {
    let datasets = [
        (0, DatasetKind::EngineLow),
        (1, DatasetKind::EngineHigh),
        (2, DatasetKind::Head),
        (3, DatasetKind::Cube),
    ];
    assert_eq!(datasets.map(|(_, d)| d), DatasetKind::all());
    check_tags(
        "dataset",
        &datasets,
        |dataset| ExperimentConfig {
            dataset,
            ..every_option()
        },
        |c| c.dataset,
    );

    let methods = [
        (0, Method::Bs),
        (1, Method::Bsbr),
        (2, Method::Bslc),
        (3, Method::Bsbrc),
        (4, Method::Bsrl),
        (5, Method::RadixK),
        (6, Method::TileStream),
    ];
    assert_eq!(methods.map(|(_, m)| m), Method::all());
    check_tags(
        "method",
        &methods,
        |method| ExperimentConfig {
            method,
            ..every_option()
        },
        |c| c.method,
    );

    let with_target = |edit: &dyn Fn(&mut TargetedFault)| {
        let mut config = every_option();
        edit(config.faults.as_mut().unwrap().target.as_mut().unwrap());
        config
    };
    let target = |c: &ExperimentConfig| c.faults.unwrap().target.unwrap();
    check_tags(
        "stream class",
        &[
            (0, StreamClass::Raw),
            (1, StreamClass::Data),
            (2, StreamClass::Ack),
        ],
        |class| with_target(&|t| t.class = class),
        |c| target(c).class,
    );
    check_tags(
        "fault action",
        &[
            (0, FaultAction::Deliver),
            (1, FaultAction::Drop),
            (2, FaultAction::Corrupt),
            (3, FaultAction::Duplicate),
            (4, FaultAction::Delay),
        ],
        |action| with_target(&|t| t.action = action),
        |c| target(c).action,
    );
}
