//! The daemon's wire protocol: versioned handshake, then
//! length-prefixed CRC32 frames (the shared [`vr_comm::frame`] codec)
//! carrying hand-rolled binary request/response messages.
//!
//! Connection lifecycle:
//!
//! 1. Client sends [`KIND_HELLO`] (magic + protocol version).
//! 2. Server answers [`KIND_WELCOME`] (version + shard/window limits)
//!    or [`KIND_ERROR`] (version mismatch / connection budget) and, on
//!    error, closes.
//! 3. Client pipelines [`KIND_REQUEST`] frames (client-chosen `id` +
//!    full `ExperimentConfig`); the server answers each with exactly
//!    one [`KIND_RESPONSE`] carrying the same `id` — a pixel payload
//!    or a typed rejection. Responses may arrive out of submission
//!    order (requests hash to different shards); the `id` is the
//!    correlation key.
//! 4. [`KIND_STATS`] polls per-shard [`ServiceStats`] plus the
//!    router's imbalance metric ([`KIND_STATS_REPLY`]).
//!
//! Every decode path returns a typed [`DecodeError`] — truncation,
//! corruption, an unknown tag, or trailing garbage can reject a frame
//! but never panic or hang the peer. All integers are little-endian;
//! floats travel as IEEE-754 bit patterns, so a config or a frame
//! round-trips bit-exactly (the determinism guarantee extends across
//! the socket).

use std::time::Duration;

use vr_comm::{
    CostModel, FaultAction, FaultConfig, KillSpec, ReliabilityConfig, StreamClass, TargetedFault,
};
use vr_image::{Image, Pixel, BYTES_PER_PIXEL};
use vr_system::{CompTiming, ExperimentConfig, FrameRecord};
use vr_volume::DatasetKind;

use slsvr_core::stats::CompCost;
use slsvr_core::Method;

use crate::metrics::ServiceStats;
use crate::service::{FrameResponse, RejectReason, ServeSource};
use crate::CacheCounters;

/// Protocol version spoken by this build.
pub const WIRE_VERSION: u16 = 1;
/// Handshake magic ("SLVW" = sort-last volume wire).
pub const MAGIC: [u8; 4] = *b"SLVW";
/// Ceiling on a single wire frame (length prefix included): a 768×768
/// RGBA-f32 frame is ~9.4 MB, so 64 MB leaves headroom without letting
/// a corrupt prefix drive allocation.
pub const MAX_WIRE_FRAME: u32 = 64 << 20;

/// Client → server handshake.
pub const KIND_HELLO: u8 = 0x10;
/// Server → client handshake accept.
pub const KIND_WELCOME: u8 = 0x11;
/// Client → server frame request.
pub const KIND_REQUEST: u8 = 0x12;
/// Server → client frame response (exactly one per request).
pub const KIND_RESPONSE: u8 = 0x13;
/// Client → server stats poll.
pub const KIND_STATS: u8 = 0x14;
/// Server → client stats snapshot.
pub const KIND_STATS_REPLY: u8 = 0x15;
/// Server → client terminal error (handshake refusal), then close.
pub const KIND_ERROR: u8 = 0x16;

/// [`ErrorInfo::code`]: the server speaks a different protocol version.
pub const ERR_VERSION: u8 = 0;
/// [`ErrorInfo::code`]: the connection budget is exhausted.
pub const ERR_BUSY: u8 = 1;

/// Why a message payload failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the field being read.
    Truncated,
    /// An enum tag byte outside the known set.
    BadTag {
        /// Which field carried the tag.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// The handshake magic did not match.
    BadMagic,
    /// A length field disagrees with the bytes present (e.g. the pixel
    /// payload does not match `width × height`).
    BadLength,
    /// Bytes left over after the complete message was read — a framing
    /// desync, never silently ignored.
    Trailing {
        /// How many bytes remained.
        extra: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "message truncated"),
            DecodeError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            DecodeError::BadMagic => write!(f, "handshake magic mismatch"),
            DecodeError::BadLength => write!(f, "length field disagrees with payload"),
            DecodeError::Trailing { extra } => write!(f, "{extra} trailing bytes after message"),
        }
    }
}

// ---------------------------------------------------------------------------
// Primitive writer/reader
// ---------------------------------------------------------------------------

/// Append-only little-endian message builder.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty builder.
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    /// The encoded message.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn duration(&mut self, v: Duration) {
        self.u64(v.as_nanos().min(u128::from(u64::MAX)) as u64);
    }
    fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }
    fn opt<T>(&mut self, v: &Option<T>, mut write: impl FnMut(&mut Self, &T)) {
        match v {
            None => self.u8(0),
            Some(inner) => {
                self.u8(1);
                write(self, inner);
            }
        }
    }
}

/// Cursor over a received payload; every read is bounds-checked and
/// returns a typed error instead of panicking.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`DecodeError::Trailing`] unless fully consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(DecodeError::Trailing { extra }),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag { what: "bool", tag }),
        }
    }
    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn usize(&mut self) -> Result<usize, DecodeError> {
        Ok(self.u64()? as usize)
    }
    fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_bits(self.u32()?))
    }
    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn duration(&mut self) -> Result<Duration, DecodeError> {
        Ok(Duration::from_nanos(self.u64()?))
    }
    fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadLength)
    }
    fn opt<T>(
        &mut self,
        mut read: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(read(self)?)),
            tag => Err(DecodeError::BadTag {
                what: "option",
                tag,
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Enum tags
// ---------------------------------------------------------------------------

fn dataset_tag(d: DatasetKind) -> u8 {
    match d {
        DatasetKind::EngineLow => 0,
        DatasetKind::EngineHigh => 1,
        DatasetKind::Head => 2,
        DatasetKind::Cube => 3,
    }
}

fn dataset_from(tag: u8) -> Result<DatasetKind, DecodeError> {
    Ok(match tag {
        0 => DatasetKind::EngineLow,
        1 => DatasetKind::EngineHigh,
        2 => DatasetKind::Head,
        3 => DatasetKind::Cube,
        tag => {
            return Err(DecodeError::BadTag {
                what: "dataset",
                tag,
            })
        }
    })
}

fn method_tag(m: Method) -> u8 {
    match m {
        Method::Bs => 0,
        Method::Bsbr => 1,
        Method::Bslc => 2,
        Method::Bsbrc => 3,
        Method::Bsrl => 4,
        Method::Bsbm => 5,
        Method::Bsmr => 6,
        Method::BinaryTree => 7,
        Method::DirectSend => 8,
        Method::Pipeline => 9,
        Method::RadixK => 10,
        Method::TileStream => 11,
    }
}

fn method_from(tag: u8) -> Result<Method, DecodeError> {
    Ok(match tag {
        0 => Method::Bs,
        1 => Method::Bsbr,
        2 => Method::Bslc,
        3 => Method::Bsbrc,
        4 => Method::Bsrl,
        5 => Method::Bsbm,
        6 => Method::Bsmr,
        7 => Method::BinaryTree,
        8 => Method::DirectSend,
        9 => Method::Pipeline,
        10 => Method::RadixK,
        11 => Method::TileStream,
        tag => {
            return Err(DecodeError::BadTag {
                what: "method",
                tag,
            })
        }
    })
}

fn stream_class_tag(c: StreamClass) -> u8 {
    match c {
        StreamClass::Raw => 0,
        StreamClass::Data => 1,
        StreamClass::Ack => 2,
    }
}

fn stream_class_from(tag: u8) -> Result<StreamClass, DecodeError> {
    Ok(match tag {
        0 => StreamClass::Raw,
        1 => StreamClass::Data,
        2 => StreamClass::Ack,
        tag => {
            return Err(DecodeError::BadTag {
                what: "stream class",
                tag,
            })
        }
    })
}

fn fault_action_tag(a: FaultAction) -> u8 {
    match a {
        FaultAction::Deliver => 0,
        FaultAction::Drop => 1,
        FaultAction::Corrupt => 2,
        FaultAction::Duplicate => 3,
        FaultAction::Delay => 4,
    }
}

fn fault_action_from(tag: u8) -> Result<FaultAction, DecodeError> {
    Ok(match tag {
        0 => FaultAction::Deliver,
        1 => FaultAction::Drop,
        2 => FaultAction::Corrupt,
        3 => FaultAction::Duplicate,
        4 => FaultAction::Delay,
        tag => {
            return Err(DecodeError::BadTag {
                what: "fault action",
                tag,
            })
        }
    })
}

// ---------------------------------------------------------------------------
// Config codec
// ---------------------------------------------------------------------------

fn write_fault_config(w: &mut WireWriter, f: &FaultConfig) {
    w.f64(f.drop);
    w.f64(f.corrupt);
    w.f64(f.duplicate);
    w.f64(f.delay);
    w.u64(f.delay_ms);
    w.u64(f.seed);
    w.opt(&f.kill, |w, k: &KillSpec| {
        w.usize(k.rank);
        w.u64(k.after_ops);
    });
    w.opt(&f.target, |w, t: &TargetedFault| {
        w.usize(t.src);
        w.usize(t.dst);
        w.u8(stream_class_tag(t.class));
        w.u64(t.index);
        w.u8(fault_action_tag(t.action));
    });
}

fn read_fault_config(r: &mut WireReader) -> Result<FaultConfig, DecodeError> {
    Ok(FaultConfig {
        drop: r.f64()?,
        corrupt: r.f64()?,
        duplicate: r.f64()?,
        delay: r.f64()?,
        delay_ms: r.u64()?,
        seed: r.u64()?,
        kill: r.opt(|r| {
            Ok(KillSpec {
                rank: r.usize()?,
                after_ops: r.u64()?,
            })
        })?,
        target: r.opt(|r| {
            Ok(TargetedFault {
                src: r.usize()?,
                dst: r.usize()?,
                class: stream_class_from(r.u8()?)?,
                index: r.u64()?,
                action: fault_action_from(r.u8()?)?,
            })
        })?,
    })
}

fn write_reliability(w: &mut WireWriter, rel: &ReliabilityConfig) {
    w.bool(rel.enabled);
    w.duration(rel.ack_timeout);
    w.u32(rel.max_retries);
    w.f64(rel.backoff);
    w.duration(rel.max_backoff);
}

fn read_reliability(r: &mut WireReader) -> Result<ReliabilityConfig, DecodeError> {
    Ok(ReliabilityConfig {
        enabled: r.bool()?,
        ack_timeout: r.duration()?,
        max_retries: r.u32()?,
        backoff: r.f64()?,
        max_backoff: r.duration()?,
    })
}

/// Serializes a full experiment configuration (field order matches the
/// struct declaration).
pub fn write_config(w: &mut WireWriter, c: &ExperimentConfig) {
    w.u8(dataset_tag(c.dataset));
    w.u16(c.image_size);
    w.usize(c.processors);
    w.u8(method_tag(c.method));
    w.f32(c.rot_x_deg);
    w.f32(c.rot_y_deg);
    w.f64(c.cost.t_s);
    w.f64(c.cost.t_c);
    w.opt(&c.volume_dims, |w, d: &[usize; 3]| {
        w.usize(d[0]);
        w.usize(d[1]);
        w.usize(d[2]);
    });
    w.f32(c.step);
    w.f32(c.early_termination_alpha);
    w.opt(&c.perspective_distance, |w, d| w.f32(*d));
    w.bool(c.balanced_partition);
    w.usize(c.ghost_voxels);
    match c.comp_timing {
        CompTiming::Measured { slowdown } => {
            w.u8(0);
            w.f64(slowdown);
        }
        CompTiming::Modeled(cost) => {
            w.u8(1);
            w.f64(cost.t_scan);
            w.f64(cost.t_pack);
            w.f64(cost.t_unpack);
            w.f64(cost.t_over);
            w.f64(cost.t_encode);
        }
    }
    w.opt(&c.faults, write_fault_config);
    write_reliability(w, &c.reliability);
    w.opt(&c.recv_deadline, |w, d| w.duration(*d));
    w.opt(&c.schedule_seed, |w, s| w.u64(*s));
    w.usize(c.macrocell);
    w.usize(c.tile);
    w.usize(c.render_threads);
    w.usize(c.simd_lanes);
    w.u16(c.stream_tile);
}

/// Parses a full experiment configuration.
pub fn read_config(r: &mut WireReader) -> Result<ExperimentConfig, DecodeError> {
    Ok(ExperimentConfig {
        dataset: dataset_from(r.u8()?)?,
        image_size: r.u16()?,
        processors: r.usize()?,
        method: method_from(r.u8()?)?,
        rot_x_deg: r.f32()?,
        rot_y_deg: r.f32()?,
        cost: CostModel {
            t_s: r.f64()?,
            t_c: r.f64()?,
        },
        volume_dims: r.opt(|r| Ok([r.usize()?, r.usize()?, r.usize()?]))?,
        step: r.f32()?,
        early_termination_alpha: r.f32()?,
        perspective_distance: r.opt(|r| r.f32())?,
        balanced_partition: r.bool()?,
        ghost_voxels: r.usize()?,
        comp_timing: match r.u8()? {
            0 => CompTiming::Measured { slowdown: r.f64()? },
            1 => CompTiming::Modeled(CompCost {
                t_scan: r.f64()?,
                t_pack: r.f64()?,
                t_unpack: r.f64()?,
                t_over: r.f64()?,
                t_encode: r.f64()?,
            }),
            tag => {
                return Err(DecodeError::BadTag {
                    what: "comp timing",
                    tag,
                })
            }
        },
        faults: r.opt(read_fault_config)?,
        reliability: read_reliability(r)?,
        recv_deadline: r.opt(|r| r.duration())?,
        schedule_seed: r.opt(|r| r.u64())?,
        macrocell: r.usize()?,
        tile: r.usize()?,
        render_threads: r.usize()?,
        simd_lanes: r.usize()?,
        stream_tile: r.u16()?,
    })
}

// ---------------------------------------------------------------------------
// Handshake messages
// ---------------------------------------------------------------------------

/// Decoded client hello.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Protocol version the client speaks.
    pub version: u16,
}

/// Encodes the client hello.
pub fn encode_hello() -> Vec<u8> {
    let mut w = WireWriter::new();
    w.buf.extend_from_slice(&MAGIC);
    w.u16(WIRE_VERSION);
    w.into_vec()
}

/// Decodes a client hello (magic checked; the version is returned so
/// the server can answer a mismatch with a typed error, not a hangup).
pub fn decode_hello(payload: &[u8]) -> Result<Hello, DecodeError> {
    let mut r = WireReader::new(payload);
    if r.take(4)? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = r.u16()?;
    r.finish()?;
    Ok(Hello { version })
}

/// Server handshake accept: the negotiated limits a client needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Welcome {
    /// Protocol version the server speaks.
    pub version: u16,
    /// `FrameService` shards behind this daemon.
    pub shards: u16,
    /// Per-connection in-flight request window; the daemon answers
    /// excess with `Rejected{Overloaded}` without queueing them.
    pub window: u32,
}

/// Encodes the handshake accept.
pub fn encode_welcome(wl: &Welcome) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.buf.extend_from_slice(&MAGIC);
    w.u16(wl.version);
    w.u16(wl.shards);
    w.u32(wl.window);
    w.into_vec()
}

/// Decodes the handshake accept.
pub fn decode_welcome(payload: &[u8]) -> Result<Welcome, DecodeError> {
    let mut r = WireReader::new(payload);
    if r.take(4)? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let wl = Welcome {
        version: r.u16()?,
        shards: r.u16()?,
        window: r.u32()?,
    };
    r.finish()?;
    Ok(wl)
}

/// Terminal handshake refusal ([`KIND_ERROR`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorInfo {
    /// [`ERR_VERSION`] or [`ERR_BUSY`].
    pub code: u8,
    /// Protocol version the server speaks.
    pub version: u16,
    /// Human-readable context.
    pub message: String,
}

/// Encodes a terminal error.
pub fn encode_error(e: &ErrorInfo) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u8(e.code);
    w.u16(e.version);
    w.str(&e.message);
    w.into_vec()
}

/// Decodes a terminal error.
pub fn decode_error(payload: &[u8]) -> Result<ErrorInfo, DecodeError> {
    let mut r = WireReader::new(payload);
    let e = ErrorInfo {
        code: r.u8()?,
        version: r.u16()?,
        message: r.str()?,
    };
    r.finish()?;
    Ok(e)
}

// ---------------------------------------------------------------------------
// Request / response
// ---------------------------------------------------------------------------

/// Encodes a frame request: correlation id + full configuration.
pub fn encode_request(id: u64, config: &ExperimentConfig) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u64(id);
    write_config(&mut w, config);
    w.into_vec()
}

/// Decodes a frame request.
pub fn decode_request(payload: &[u8]) -> Result<(u64, ExperimentConfig), DecodeError> {
    let mut r = WireReader::new(payload);
    let id = r.u64()?;
    let config = read_config(&mut r)?;
    r.finish()?;
    Ok((id, config))
}

const SOURCE_FRESH: u8 = 0;
const SOURCE_CACHE: u8 = 1;
const SOURCE_COALESCED: u8 = 2;
const SOURCE_DEGRADED: u8 = 3;

const RESP_FRAME: u8 = 0;
const RESP_OVERLOADED: u8 = 1;
const RESP_SHED: u8 = 2;
const RESP_REJECTED: u8 = 3;

const REASON_FAILED: u8 = 0;
const REASON_QUALITY: u8 = 1;
const REASON_CIRCUIT: u8 = 2;
const REASON_SHUTDOWN: u8 = 3;

fn write_record(w: &mut WireWriter, rec: &FrameRecord) {
    w.f64(rec.t_comp_ms);
    w.f64(rec.t_comm_ms);
    w.f64(rec.t_total_ms);
    w.f64(rec.t_bound_ms);
    w.f64(rec.t_encode_ms);
    w.f64(rec.render_max_ms);
    w.u64(rec.m_max);
    w.u64(rec.total_bytes);
    w.u64(rec.peak_pixel_buffer_bytes);
    w.f64(rec.coverage);
    w.usize(rec.dead_ranks);
    w.f64(rec.first_tile_ms);
    w.f64(rec.last_tile_ms);
}

fn read_record(r: &mut WireReader) -> Result<FrameRecord, DecodeError> {
    Ok(FrameRecord {
        t_comp_ms: r.f64()?,
        t_comm_ms: r.f64()?,
        t_total_ms: r.f64()?,
        t_bound_ms: r.f64()?,
        t_encode_ms: r.f64()?,
        render_max_ms: r.f64()?,
        m_max: r.u64()?,
        total_bytes: r.u64()?,
        peak_pixel_buffer_bytes: r.u64()?,
        coverage: r.f64()?,
        dead_ranks: r.usize()?,
        first_tile_ms: r.f64()?,
        last_tile_ms: r.f64()?,
    })
}

fn write_image(w: &mut WireWriter, img: &Image) {
    w.u16(img.width());
    w.u16(img.height());
    w.buf.reserve(img.pixels().len() * BYTES_PER_PIXEL);
    for p in img.pixels() {
        w.buf.extend_from_slice(&p.to_le_bytes());
    }
}

fn read_image(r: &mut WireReader) -> Result<Image, DecodeError> {
    let width = r.u16()?;
    let height = r.u16()?;
    let count = width as usize * height as usize;
    // One bounds check against the bytes actually present, before
    // allocating anything proportional to the claimed dimensions.
    let pixels = r
        .take(count * BYTES_PER_PIXEL)
        .map_err(|_| DecodeError::BadLength)?
        .chunks_exact(BYTES_PER_PIXEL)
        .map(|px| Pixel::from_le_bytes(px.try_into().expect("chunks_exact yields whole pixels")))
        .collect();
    Ok(Image::from_pixels(width, height, pixels))
}

fn write_reason(w: &mut WireWriter, reason: &RejectReason) {
    match reason {
        RejectReason::Failed { error } => {
            w.u8(REASON_FAILED);
            w.str(error);
        }
        RejectReason::QualityFloor { best_psnr_db } => {
            w.u8(REASON_QUALITY);
            w.f64(*best_psnr_db);
        }
        RejectReason::CircuitOpen => w.u8(REASON_CIRCUIT),
        RejectReason::Shutdown => w.u8(REASON_SHUTDOWN),
    }
}

fn read_reason(r: &mut WireReader) -> Result<RejectReason, DecodeError> {
    Ok(match r.u8()? {
        REASON_FAILED => RejectReason::Failed { error: r.str()? },
        REASON_QUALITY => RejectReason::QualityFloor {
            best_psnr_db: r.f64()?,
        },
        REASON_CIRCUIT => RejectReason::CircuitOpen,
        REASON_SHUTDOWN => RejectReason::Shutdown,
        tag => {
            return Err(DecodeError::BadTag {
                what: "reject reason",
                tag,
            })
        }
    })
}

/// A successful frame reply as received over the socket: the client's
/// owned mirror of [`crate::FrameReply`].
#[derive(Clone, Debug)]
pub struct WireFrame {
    /// How the server satisfied the request.
    pub source: ServeSource,
    /// Server-side seconds from submission to reply.
    pub wait_seconds: f64,
    /// FNV-1a digest of the pixels as the *server* computed it; the
    /// client re-hashes the decoded image against this, extending the
    /// bit-identity guarantee across the socket.
    pub image_hash: u64,
    /// Per-frame metrics record.
    pub record: FrameRecord,
    /// The composited frame.
    pub image: Image,
}

/// A frame response as received over the socket: the client's owned
/// mirror of [`FrameResponse`].
#[derive(Clone, Debug)]
pub enum WireResponse {
    /// An image (fresh, cached, coalesced, or degraded-above-floor).
    Frame(WireFrame),
    /// Rejected at admission: a shard queue (or the connection's
    /// in-flight window) was at capacity.
    Overloaded {
        /// Queue depth observed at rejection.
        queue_depth: usize,
    },
    /// Dropped because the job's deadline passed while it was queued.
    Shed {
        /// Seconds the request waited before being shed.
        waited_seconds: f64,
    },
    /// Rejected by the robustness layer or at shutdown.
    Rejected {
        /// Render attempts spent before giving up.
        attempts: u32,
        /// Why the request could not be served.
        reason: RejectReason,
    },
}

/// Encodes one response frame for request `id` (server side).
pub fn encode_response(id: u64, resp: &FrameResponse) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u64(id);
    match resp {
        FrameResponse::Frame(reply) => {
            w.u8(RESP_FRAME);
            match reply.source {
                ServeSource::Fresh => w.u8(SOURCE_FRESH),
                ServeSource::Cache => w.u8(SOURCE_CACHE),
                ServeSource::Coalesced => w.u8(SOURCE_COALESCED),
                ServeSource::Degraded { psnr_db, coverage } => {
                    w.u8(SOURCE_DEGRADED);
                    w.f64(psnr_db);
                    w.f64(coverage);
                }
            }
            w.f64(reply.wait_seconds);
            w.u64(reply.frame.image_hash);
            write_record(&mut w, &reply.frame.record);
            write_image(&mut w, &reply.frame.image);
        }
        FrameResponse::Overloaded { queue_depth } => {
            w.u8(RESP_OVERLOADED);
            w.usize(*queue_depth);
        }
        FrameResponse::Shed { waited_seconds } => {
            w.u8(RESP_SHED);
            w.f64(*waited_seconds);
        }
        FrameResponse::Rejected { attempts, reason } => {
            w.u8(RESP_REJECTED);
            w.u32(*attempts);
            write_reason(&mut w, reason);
        }
    }
    w.into_vec()
}

/// Decodes one response frame (client side).
pub fn decode_response(payload: &[u8]) -> Result<(u64, WireResponse), DecodeError> {
    let mut r = WireReader::new(payload);
    let id = r.u64()?;
    let resp = match r.u8()? {
        RESP_FRAME => {
            let source = match r.u8()? {
                SOURCE_FRESH => ServeSource::Fresh,
                SOURCE_CACHE => ServeSource::Cache,
                SOURCE_COALESCED => ServeSource::Coalesced,
                SOURCE_DEGRADED => ServeSource::Degraded {
                    psnr_db: r.f64()?,
                    coverage: r.f64()?,
                },
                tag => {
                    return Err(DecodeError::BadTag {
                        what: "serve source",
                        tag,
                    })
                }
            };
            let wait_seconds = r.f64()?;
            let image_hash = r.u64()?;
            let record = read_record(&mut r)?;
            let image = read_image(&mut r)?;
            WireResponse::Frame(WireFrame {
                source,
                wait_seconds,
                image_hash,
                record,
                image,
            })
        }
        RESP_OVERLOADED => WireResponse::Overloaded {
            queue_depth: r.usize()?,
        },
        RESP_SHED => WireResponse::Shed {
            waited_seconds: r.f64()?,
        },
        RESP_REJECTED => WireResponse::Rejected {
            attempts: r.u32()?,
            reason: read_reason(&mut r)?,
        },
        tag => {
            return Err(DecodeError::BadTag {
                what: "response",
                tag,
            })
        }
    };
    r.finish()?;
    Ok((id, resp))
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// The daemon's stats snapshot: per-shard counters plus the router's
/// load-imbalance metric.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsReply {
    /// One entry per shard, in shard-index order.
    pub shards: Vec<ServiceStats>,
    /// Max over mean of per-shard submissions (1.0 = perfectly even,
    /// 0.0 = no traffic yet); see `ShardRouter::imbalance`.
    pub imbalance: f64,
}

fn write_stats(w: &mut WireWriter, s: &ServiceStats) {
    w.u64(s.submitted);
    w.u64(s.completed_fresh);
    w.u64(s.completed_cached);
    w.u64(s.completed_coalesced);
    w.u64(s.completed_degraded);
    w.u64(s.shed_deadline);
    w.u64(s.rejected_overload);
    w.u64(s.rejected_failed);
    w.u64(s.rejected_circuit);
    w.u64(s.rejected_shutdown);
    w.u64(s.frame_retries);
    w.u64(s.panics_caught);
    w.u64(s.datasets_evicted);
    w.f64(s.min_degraded_psnr_db);
    w.u64(s.rendered_frames);
    w.usize(s.peak_queue_depth);
    w.u64(s.cache.hits);
    w.u64(s.cache.misses);
    w.u64(s.cache.evictions);
    w.u64(s.cache.insertions);
}

fn read_stats(r: &mut WireReader) -> Result<ServiceStats, DecodeError> {
    Ok(ServiceStats {
        submitted: r.u64()?,
        completed_fresh: r.u64()?,
        completed_cached: r.u64()?,
        completed_coalesced: r.u64()?,
        completed_degraded: r.u64()?,
        shed_deadline: r.u64()?,
        rejected_overload: r.u64()?,
        rejected_failed: r.u64()?,
        rejected_circuit: r.u64()?,
        rejected_shutdown: r.u64()?,
        frame_retries: r.u64()?,
        panics_caught: r.u64()?,
        datasets_evicted: r.u64()?,
        min_degraded_psnr_db: r.f64()?,
        rendered_frames: r.u64()?,
        peak_queue_depth: r.usize()?,
        cache: CacheCounters {
            hits: r.u64()?,
            misses: r.u64()?,
            evictions: r.u64()?,
            insertions: r.u64()?,
        },
    })
}

/// Encodes the stats snapshot.
pub fn encode_stats_reply(reply: &StatsReply) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u16(reply.shards.len() as u16);
    for s in &reply.shards {
        write_stats(&mut w, s);
    }
    w.f64(reply.imbalance);
    w.into_vec()
}

/// Decodes the stats snapshot.
pub fn decode_stats_reply(payload: &[u8]) -> Result<StatsReply, DecodeError> {
    let mut r = WireReader::new(payload);
    let count = r.u16()? as usize;
    let mut shards = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        shards.push(read_stats(&mut r)?);
    }
    let imbalance = r.f64()?;
    r.finish()?;
    Ok(StatsReply { shards, imbalance })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{FrameReply, RenderedFrame};
    use std::sync::Arc;
    use vr_image::checksum::fnv1a;

    /// A cache-hit reply carrying `image`.
    pub(super) fn cached_reply(image: Image) -> FrameReply {
        FrameReply {
            frame: Arc::new(RenderedFrame {
                key: 9,
                image_hash: fnv1a(&image),
                image,
                record: FrameRecord {
                    t_total_ms: 3.5,
                    m_max: 640,
                    ..Default::default()
                },
            }),
            source: ServeSource::Cache,
            wait_seconds: 0.5,
        }
    }

    fn sample_config() -> ExperimentConfig {
        let mut c = ExperimentConfig::small_test(DatasetKind::Head, 4, Method::Bsbrc);
        c.faults = Some(FaultConfig {
            drop: 0.125,
            seed: 42,
            kill: Some(KillSpec {
                rank: 2,
                after_ops: 7,
            }),
            target: Some(TargetedFault {
                src: 0,
                dst: 1,
                class: StreamClass::Data,
                index: 3,
                action: FaultAction::Corrupt,
            }),
            ..Default::default()
        });
        c.reliability = ReliabilityConfig::on();
        c.recv_deadline = Some(Duration::from_millis(250));
        c.schedule_seed = Some(11);
        c.perspective_distance = Some(2.5);
        c
    }

    fn assert_config_eq(a: &ExperimentConfig, b: &ExperimentConfig) {
        // Debug form covers every field bit-exactly (floats print with
        // enough precision to distinguish bit patterns in practice, and
        // the frame cache keys configs this same way).
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn request_round_trips_every_field() {
        let config = sample_config();
        let wire = encode_request(99, &config);
        let (id, got) = decode_request(&wire).unwrap();
        assert_eq!(id, 99);
        assert_config_eq(&config, &got);
    }

    #[test]
    fn default_and_small_configs_round_trip() {
        for config in [
            ExperimentConfig::default(),
            ExperimentConfig::small_test(DatasetKind::Cube, 2, Method::Bs),
        ] {
            let wire = encode_request(1, &config);
            let (_, got) = decode_request(&wire).unwrap();
            assert_config_eq(&config, &got);
        }
    }

    #[test]
    fn hello_and_welcome_round_trip() {
        let hello = decode_hello(&encode_hello()).unwrap();
        assert_eq!(hello.version, WIRE_VERSION);
        let wl = Welcome {
            version: WIRE_VERSION,
            shards: 4,
            window: 8,
        };
        assert_eq!(decode_welcome(&encode_welcome(&wl)).unwrap(), wl);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut wire = encode_hello();
        wire[0] ^= 0xFF;
        assert_eq!(decode_hello(&wire), Err(DecodeError::BadMagic));
    }

    #[test]
    fn error_info_round_trips() {
        let e = ErrorInfo {
            code: ERR_VERSION,
            version: 7,
            message: "speak v7".to_string(),
        };
        assert_eq!(decode_error(&encode_error(&e)).unwrap(), e);
    }

    #[test]
    fn frame_response_round_trips_with_bit_identical_pixels() {
        let image = Image::from_fn(5, 3, |x, y| {
            Pixel::new(x as f32 * 0.125, y as f32 * 0.25, 0.5, 1.0)
        });
        let hash = fnv1a(&image);
        let resp = FrameResponse::Frame(FrameReply {
            frame: Arc::new(RenderedFrame {
                key: 77,
                image_hash: hash,
                image: image.clone(),
                record: FrameRecord {
                    t_total_ms: 12.5,
                    m_max: 4096,
                    coverage: 1.0,
                    ..Default::default()
                },
            }),
            source: ServeSource::Degraded {
                psnr_db: 31.5,
                coverage: 0.875,
            },
            wait_seconds: 0.25,
        });
        let wire = encode_response(5, &resp);
        let (id, got) = decode_response(&wire).unwrap();
        assert_eq!(id, 5);
        let WireResponse::Frame(frame) = got else {
            panic!("expected a frame");
        };
        assert_eq!(frame.image_hash, hash);
        assert_eq!(fnv1a(&frame.image), hash, "pixels must survive bit-exactly");
        assert_eq!(frame.record.t_total_ms, 12.5);
        assert_eq!(frame.record.m_max, 4096);
        assert!(matches!(frame.source, ServeSource::Degraded { .. }));
    }

    #[test]
    fn rejection_responses_round_trip() {
        let cases = [
            FrameResponse::Overloaded { queue_depth: 9 },
            FrameResponse::Shed {
                waited_seconds: 1.5,
            },
            FrameResponse::Rejected {
                attempts: 3,
                reason: RejectReason::Failed {
                    error: "recv deadline".to_string(),
                },
            },
            FrameResponse::Rejected {
                attempts: 2,
                reason: RejectReason::QualityFloor { best_psnr_db: 17.0 },
            },
            FrameResponse::Rejected {
                attempts: 0,
                reason: RejectReason::CircuitOpen,
            },
            FrameResponse::Rejected {
                attempts: 0,
                reason: RejectReason::Shutdown,
            },
        ];
        for (i, resp) in cases.iter().enumerate() {
            let wire = encode_response(i as u64, resp);
            let (id, got) = decode_response(&wire).unwrap();
            assert_eq!(id, i as u64);
            // Variant Debug forms coincide between the two mirrors.
            assert_eq!(format!("{got:?}"), format!("{resp:?}"));
        }
    }

    #[test]
    fn stats_reply_round_trips() {
        let reply = StatsReply {
            shards: vec![
                ServiceStats {
                    submitted: 10,
                    completed_fresh: 7,
                    rejected_overload: 3,
                    peak_queue_depth: 4,
                    ..Default::default()
                },
                ServiceStats {
                    submitted: 2,
                    completed_cached: 2,
                    min_degraded_psnr_db: 29.5,
                    ..Default::default()
                },
            ],
            imbalance: 1.67,
        };
        let got = decode_stats_reply(&encode_stats_reply(&reply)).unwrap();
        assert_eq!(got, reply);
        // Infinity (the "no degraded frame" sentinel) survives the trip.
        assert_eq!(got.shards[0].min_degraded_psnr_db, f64::INFINITY);
    }

    #[test]
    fn truncated_messages_are_typed_never_panics() {
        let full = encode_request(1, &sample_config());
        for cut in 0..full.len() {
            match decode_request(&full[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("truncation at {cut} decoded successfully"),
            }
        }
        let resp = encode_response(
            1,
            &FrameResponse::Rejected {
                attempts: 1,
                reason: RejectReason::Failed {
                    error: "x".to_string(),
                },
            },
        );
        for cut in 0..resp.len() {
            assert!(decode_response(&resp[..cut]).is_err());
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut wire = encode_request(1, &ExperimentConfig::default());
        wire.extend_from_slice(b"junk");
        assert!(matches!(
            decode_request(&wire),
            Err(DecodeError::Trailing { extra: 4 })
        ));
    }

    #[test]
    fn unknown_tags_are_typed() {
        // Dataset is the first config byte after the id.
        let mut wire = encode_request(1, &ExperimentConfig::default());
        wire[8] = 0xEE;
        assert!(matches!(
            decode_request(&wire),
            Err(DecodeError::BadTag {
                what: "dataset",
                tag: 0xEE
            })
        ));
    }

    #[test]
    fn frame_cut_at_every_length_is_typed_never_panics() {
        let image = Image::from_fn(5, 3, |x, y| Pixel::gray(x as f32 + 0.5, y as f32 + 0.25));
        let resp = FrameResponse::Frame(cached_reply(image));
        let wire = encode_response(2, &resp);
        let pixel_section = wire.len() - 5 * 3 * BYTES_PER_PIXEL;
        for cut in 0..wire.len() {
            match decode_response(&wire[..cut]) {
                // Inside the pixel section the claimed dimensions
                // disagree with the bytes present.
                Err(DecodeError::BadLength) => assert!(cut >= pixel_section, "cut {cut}"),
                Err(DecodeError::Truncated) => assert!(cut < pixel_section, "cut {cut}"),
                other => panic!("cut at {cut}: expected BadLength/Truncated, got {other:?}"),
            }
        }
        assert!(decode_response(&wire).is_ok());
    }

    #[test]
    fn hostile_image_dimensions_fail_before_allocation() {
        // Claim a 65535×65535 image with no pixel bytes behind it.
        let mut w = WireWriter::new();
        w.u64(1);
        w.u8(RESP_FRAME);
        w.u8(SOURCE_FRESH);
        w.f64(0.0);
        w.u64(0);
        write_record(&mut w, &FrameRecord::default());
        w.u16(u16::MAX);
        w.u16(u16::MAX);
        assert!(matches!(
            decode_response(&w.into_vec()),
            Err(DecodeError::BadLength)
        ));
    }
}

#[cfg(test)]
mod proptests {
    //! Round-trip and corruption-robustness proptests: an arbitrary
    //! config survives encode/decode bit-exactly, and arbitrary byte
    //! corruption of a valid message either decodes to *something* or
    //! fails typed — it never panics.

    use super::tests::cached_reply;
    use super::*;
    use crate::service::FrameReply;
    use proptest::prelude::*;
    use vr_image::checksum::fnv1a;

    fn config_strategy() -> impl Strategy<Value = ExperimentConfig> {
        (
            (0u8..4, 0u8..12, 1usize..16),
            (any::<u32>(), any::<u32>()),
            (any::<bool>(), any::<u64>()),
            (any::<bool>(), 4usize..64, 4usize..64, 4usize..64),
            any::<bool>(),
        )
            .prop_map(|((ds, m, procs), rot_bits, seed, dims, balanced)| {
                let mut c = ExperimentConfig::small_test(
                    dataset_from(ds).unwrap(),
                    procs,
                    method_from(m).unwrap(),
                );
                // Arbitrary f32 bit patterns (NaNs included) must
                // survive the trip.
                c.rot_x_deg = f32::from_bits(rot_bits.0);
                c.rot_y_deg = f32::from_bits(rot_bits.1);
                c.schedule_seed = seed.0.then_some(seed.1);
                c.volume_dims = dims.0.then_some([dims.1, dims.2, dims.3]);
                c.balanced_partition = balanced;
                c
            })
    }

    /// The frame response spelled out one scalar at a time — the
    /// encoding the bulk pixel writer must reproduce byte for byte.
    fn per_field_encoding(id: u64, reply: &FrameReply) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u64(id);
        w.u8(RESP_FRAME);
        w.u8(SOURCE_CACHE);
        w.f64(reply.wait_seconds);
        w.u64(reply.frame.image_hash);
        write_record(&mut w, &reply.frame.record);
        w.u16(reply.frame.image.width());
        w.u16(reply.frame.image.height());
        for p in reply.frame.image.pixels() {
            w.f32(p.r);
            w.f32(p.g);
            w.f32(p.b);
            w.f32(p.a);
        }
        w.into_vec()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn frame_responses_match_the_per_field_encoding(
            id in any::<u64>(),
            width in 0u16..9,
            height in 0u16..9,
            bits in proptest::collection::vec(any::<u32>(), 4 * 8 * 8),
        ) {
            // Arbitrary component bit patterns, NaNs included.
            let pixels = bits
                .chunks_exact(4)
                .take(width as usize * height as usize)
                .map(|c| Pixel::new(
                    f32::from_bits(c[0]),
                    f32::from_bits(c[1]),
                    f32::from_bits(c[2]),
                    f32::from_bits(c[3]),
                ))
                .collect();
            let reply = cached_reply(Image::from_pixels(width, height, pixels));
            let wire = encode_response(id, &FrameResponse::Frame(reply.clone()));
            prop_assert_eq!(&wire, &per_field_encoding(id, &reply));
            let (got_id, got) = decode_response(&wire).unwrap();
            prop_assert_eq!(got_id, id);
            let WireResponse::Frame(frame) = got else {
                panic!("expected a frame");
            };
            // The digest is over bit patterns, so NaNs compare exactly.
            prop_assert_eq!(fnv1a(&frame.image), reply.frame.image_hash);
        }

        #[test]
        fn any_config_round_trips_bit_exactly(config in config_strategy(), id in any::<u64>()) {
            let wire = encode_request(id, &config);
            let (got_id, got) = decode_request(&wire).unwrap();
            prop_assert_eq!(got_id, id);
            // Bit-exact: compare the encodings, which cover every field
            // as raw bits (Debug can't distinguish NaN payloads).
            prop_assert_eq!(encode_request(id, &got), wire);
        }

        #[test]
        fn corrupted_requests_never_panic(
            config in config_strategy(),
            flip_at in any::<usize>(),
            flip_bit in 0u8..8,
        ) {
            let mut wire = encode_request(7, &config);
            let at = flip_at % wire.len();
            wire[at] ^= 1 << flip_bit;
            // Either a typed error or a (different) valid decode; the
            // call itself must return.
            let _ = decode_request(&wire);
        }

        #[test]
        fn corrupted_responses_never_panic(
            queue_depth in 0usize..1000,
            flip_at in any::<usize>(),
            flip_bit in 0u8..8,
        ) {
            let mut wire = encode_response(3, &FrameResponse::Overloaded { queue_depth });
            let at = flip_at % wire.len();
            wire[at] ^= 1 << flip_bit;
            let _ = decode_response(&wire);
        }
    }
}
