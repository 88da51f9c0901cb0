//! The daemon's wire protocol: versioned handshake, then
//! length-prefixed CRC32 frames (the shared [`vr_comm::frame`] codec)
//! carrying binary request/response messages.
//!
//! Connection lifecycle:
//!
//! 1. Client sends [`KIND_HELLO`] (magic + protocol version).
//! 2. Server answers [`KIND_WELCOME`] (version + shard/window limits)
//!    or [`KIND_ERROR`] (version mismatch / connection budget) and, on
//!    error, closes.
//! 3. Client pipelines [`KIND_REQUEST`] frames (client-chosen `id` +
//!    full `ExperimentConfig`); the server answers each with exactly
//!    one [`KIND_RESPONSE`] carrying the same `id` — a frame or a typed
//!    rejection. A frame travels sparse, as in the paper's BSLC/BSBRC
//!    messages: 2-byte blank/non-blank run codes over the whole image,
//!    then only its non-blank pixels. Responses may arrive out of
//!    submission order (requests hash to different shards); the `id` is
//!    the correlation key.
//! 4. [`KIND_STATS`] polls per-shard [`ServiceStats`] plus the
//!    router's imbalance metric ([`KIND_STATS_REPLY`]).
//!
//! Every message is declared once, as a table: `wire_struct!` lists a
//! struct's fields in wire order (with the bounds a received value must
//! lie in beside it), `wire_enum!` a tag-only enum's variants in tag
//! order, `wire_union!` the tagged variants of an enum that carries
//! data. Each table expands to the private `Wire` trait's `put`/`get`
//! pair, so the two directions of a message cannot drift apart and a
//! field is named in one place. The one exception is the response,
//! whose two ends are different types (the server's `Arc`-shared
//! [`FrameResponse`], the client's owned [`WireResponse`]).
//!
//! Every decode path returns a typed [`DecodeError`] — truncation,
//! corruption, an unknown tag, a value outside its bounds, or trailing
//! garbage can reject a frame but never panic or hang the peer. All
//! integers are little-endian; floats travel as IEEE-754 bit patterns,
//! so a config or a frame round-trips bit-exactly (the determinism
//! guarantee extends across the socket).

use std::ops::RangeInclusive;
use std::time::Duration;

use vr_comm::{
    CostModel, FaultAction, FaultConfig, KillSpec, StreamClass, TargetedFault,
    DEFAULT_RECV_DEADLINE,
};
use vr_image::body::{read_body, BodyError, RunBody};
use vr_image::{Image, BYTES_PER_PIXEL};
use vr_system::{CompTiming, ExperimentConfig, FrameRecord};
use vr_volume::DatasetKind;

use slsvr_core::stats::CompCost;
use slsvr_core::Method;

use crate::metrics::ServiceStats;
use crate::service::{FrameResponse, RejectReason, ServeSource};
use crate::CacheCounters;

/// Protocol version spoken by this build. 3: a `Method` travels as its
/// position in the seven-entry `Method::all()` (RADIXK and TSTREAM moved
/// to 5 and 6). 4: a request no longer carries a streamed-tile edge, nor
/// a frame record the fused runner's first-/last-tile latencies. 5: nor
/// a render thread count (the serving worker's pool sets it). 6: a frame
/// travels as mask-RLE codes plus its non-blank pixels, not as every
/// pixel. 7: reject reason tag 2, an admission shed, is retired, and so
/// is its stats counter. 8: a frame record no longer carries the pixel
/// staging watermark. 9: a request's reliable delivery is one `bool`;
/// its retry schedule follows `recv_deadline`.
pub const WIRE_VERSION: u16 = 9;
/// Handshake magic ("SLVW" = sort-last volume wire).
pub const MAGIC: [u8; 4] = *b"SLVW";
/// Ceiling on a single wire frame (length prefix included): a 768×768
/// RGBA-f32 frame is ~9.4 MB, so 64 MB leaves headroom without letting
/// a corrupt prefix drive allocation.
pub const MAX_WIRE_FRAME: u32 = 64 << 20;

/// Upper bound on the bytes of a frame reply that are neither pixels nor
/// run codes: the frame header, the id, both tags, the degraded-source
/// pair, the wait, the hash, the record, the image dimensions and the
/// code count.
const FRAME_REPLY_OVERHEAD: usize = 256;
/// The largest image section of an `area`-pixel frame, less its
/// dimensions and code count: the fully dense frame. Its one non-blank
/// run follows a zero-length blank run and is cut every `u16::MAX`
/// pixels by another, so it costs 4 code bytes per started `u16::MAX`
/// pixels on top of every pixel.
const fn dense_image_bytes(area: usize) -> usize {
    4 * area.div_ceil(u16::MAX as usize) + BYTES_PER_PIXEL * area
}
/// Largest `image_size` a request may name: the side of the largest
/// square frame whose reply still fits [`MAX_WIRE_FRAME`] when no pixel
/// of it is blank (2047).
pub const MAX_IMAGE_SIZE: u16 = {
    let mut side = 0usize;
    while FRAME_REPLY_OVERHEAD + dense_image_bytes((side + 1) * (side + 1))
        <= MAX_WIRE_FRAME as usize
    {
        side += 1;
    }
    side as u16
};
/// Largest `processors` a request may name. Every rank is a thread with
/// a working copy of the frame; the paper stops at 64 and the predictive
/// sweeps at 512.
pub const MAX_PROCESSORS: usize = 512;
/// Largest `processors × image_size² × BYTES_PER_PIXEL` a request may
/// name: the pixels of the full-screen subimages a frame's ranks hold at
/// once. Each field's own ceiling admits 2047² at P = 512, 34 GB of
/// subimages. 1 GiB admits the paper's largest run (768², P = 64:
/// 576 MiB) and P = 512 at 256² (512 MiB, read at 1,085–1,353 MiB peak
/// RSS), and 2047² up to P = 16. The largest admitted frames, 2047² at
/// P = 16 and 1024² at P = 64, peaked at 2,066 MiB RSS each under
/// `slsvr render` on a 2-core Intel Xeon.
pub const MAX_SUBIMAGE_BYTES: usize = 1 << 30;
/// Largest `volume_dims` product a request may name: one byte-sized
/// voxel per byte of the largest frame, nine times the paper's volumes.
pub const MAX_VOLUME_VOXELS: usize = MAX_WIRE_FRAME as usize;
/// Largest `macrocell` (voxels) and `tile` (pixels) edge a request may
/// name; past the largest image side neither changes what is skipped.
pub const MAX_ACCEL_EDGE: usize = MAX_IMAGE_SIZE as usize;
/// Largest `ghost_voxels` a request may name (2 already removes every
/// seam; each layer grows every scattered block on all six faces).
pub const MAX_GHOST_VOXELS: usize = 16;
/// The ray sampling steps a request may name, in voxels. Zero, a
/// negative or a non-finite step would march a ray forever.
pub const STEP_RANGE: RangeInclusive<f32> = (1.0 / 64.0)..=64.0;
/// Longest wait a request may name: its `recv_deadline` and (as
/// `delay_ms`) a delay fault's sleep. A delay fault sleeps the sending
/// rank, and rank 0 runs on the serve worker's own thread, so an
/// unbounded one would stall the shard.
pub const MAX_WAIT: Duration = DEFAULT_RECV_DEADLINE;

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
    /// A length field disagrees with the bytes present or the frame (e.g.
    /// an image's run codes cover more than `width × height` pixels, or
    /// claim pixels the payload does not hold).
    BadLength,
    /// A field decoded to a value outside the bounds its table declares
    /// (a zero image, a volume past [`MAX_VOLUME_VOXELS`], a NaN angle).
    OutOfRange {
        /// The field.
        what: &'static str,
    },
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
            DecodeError::OutOfRange { what } => write!(f, "{what} is out of range"),
            DecodeError::Trailing { extra } => write!(f, "{extra} trailing bytes after message"),
        }
    }
}

// ---- The cursor and the primitives ----

/// Cursor over a received payload; every read is bounds-checked and
/// returns a typed error instead of panicking.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.0.len() < n {
            return Err(DecodeError::Truncated);
        }
        let (taken, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(taken)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("take yields N bytes"))
    }

    /// Fails with [`DecodeError::Trailing`] unless fully consumed.
    fn finish(self) -> Result<(), DecodeError> {
        match self.0.len() {
            0 => Ok(()),
            extra => Err(DecodeError::Trailing { extra }),
        }
    }
}

/// A value with one wire form: `put` appends it, `get` reads it back.
trait Wire {
    fn put(&self, w: &mut Vec<u8>);
    fn get(r: &mut Reader) -> Result<Self, DecodeError>
    where
        Self: Sized;
}

/// The message made of `parts`, in order.
fn encode(parts: &[&dyn Wire]) -> Vec<u8> {
    let mut w = Vec::new();
    for part in parts {
        part.put(&mut w);
    }
    w
}

/// Reads one `T` that must span the whole payload.
fn decode<T: Wire>(payload: &[u8]) -> Result<T, DecodeError> {
    let mut r = Reader(payload);
    let value = T::get(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Little-endian integers; floats as their IEEE-754 bit patterns.
macro_rules! wire_le {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut Vec<u8>) {
                w.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader) -> Result<Self, DecodeError> {
                r.array().map(<$ty>::from_le_bytes)
            }
        }
    )*};
}
wire_le!(u8, u16, u32, u64, f32, f64);

impl Wire for usize {
    fn put(&self, w: &mut Vec<u8>) {
        (*self as u64).put(w);
    }
    fn get(r: &mut Reader) -> Result<Self, DecodeError> {
        Ok(u64::get(r)? as usize)
    }
}

/// Whole nanoseconds in a `u64` (saturating: 584 years).
impl Wire for Duration {
    fn put(&self, w: &mut Vec<u8>) {
        (self.as_nanos().min(u128::from(u64::MAX)) as u64).put(w);
    }
    fn get(r: &mut Reader) -> Result<Self, DecodeError> {
        u64::get(r).map(Duration::from_nanos)
    }
}

/// A `u32` byte count, then UTF-8.
impl Wire for String {
    fn put(&self, w: &mut Vec<u8>) {
        (self.len() as u32).put(w);
        w.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader) -> Result<Self, DecodeError> {
        let len = u32::get(r)? as usize;
        String::from_utf8(r.take(len)?.to_vec()).map_err(|_| DecodeError::BadLength)
    }
}

/// A presence byte, then the value.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Vec<u8>) {
        self.is_some().put(w);
        if let Some(inner) = self {
            inner.put(w);
        }
    }
    fn get(r: &mut Reader) -> Result<Self, DecodeError> {
        bool::get(r)?.then(|| T::get(r)).transpose()
    }
}

impl Wire for [usize; 3] {
    fn put(&self, w: &mut Vec<u8>) {
        self.iter().for_each(|v| v.put(w));
    }
    fn get(r: &mut Reader) -> Result<Self, DecodeError> {
        Ok([usize::get(r)?, usize::get(r)?, usize::get(r)?])
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut Vec<u8>) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut Reader) -> Result<Self, DecodeError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// The handshake magic: four fixed bytes, checked on read.
struct Magic;

impl Wire for Magic {
    fn put(&self, w: &mut Vec<u8>) {
        w.extend_from_slice(&MAGIC);
    }
    fn get(r: &mut Reader) -> Result<Self, DecodeError> {
        match r.array()? {
            MAGIC => Ok(Magic),
            _ => Err(DecodeError::BadMagic),
        }
    }
}

/// Width and height as `u16`, then the paper's sparse body over the
/// row-major frame ([`RunBody`], the one every compositing message
/// shares): a `u32` code count, the run codes, then the non-blank pixels
/// in order, 16 bytes each.
///
/// Blank is [`Pixel::is_blank`] ([`Image::runs_into`]): only a
/// bitwise [`Pixel::BLANK`] is skipped, so a `-0.0` component travels and
/// the decoded frame is the sent one bit for bit. The bytes are a
/// function of the pixels alone, whatever the extent.
/// [`read_body`] checks the codes against the frame and the pixels
/// present before anything proportional to the claimed dimensions is
/// allocated.
///
/// [`Pixel::BLANK`]: vr_image::Pixel::BLANK
/// [`Pixel::is_blank`]: vr_image::Pixel::is_blank
impl Wire for Image {
    fn put(&self, w: &mut Vec<u8>) {
        self.width().put(w);
        self.height().put(w);
        let frame = self.full_rect();
        let mut body = RunBody::default();
        body.scan(self.area(), |runs| self.runs_into(&frame, runs));
        body.put_rect(w, self, &frame);
    }
    fn get(r: &mut Reader) -> Result<Self, DecodeError> {
        let (width, height) = (u16::get(r)?, u16::get(r)?);
        if width > MAX_IMAGE_SIZE || height > MAX_IMAGE_SIZE {
            return Err(DecodeError::OutOfRange { what: "image" });
        }
        let area = width as usize * height as usize;
        let header = read_body(r.0, area).map_err(|e| match e {
            BodyError::CountCut => DecodeError::Truncated,
            BodyError::BadLength => DecodeError::BadLength,
        })?;
        r.take(header.len)?;
        let pixels = r.take(header.non_blank * BYTES_PER_PIXEL)?;
        let mut image = Image::blank(width, height);
        let frame = image.full_rect();
        image.write_runs_wire(&frame, header.runs.non_blank_runs(), pixels);
        Ok(image)
    }
}

/// A `u16` count, then the entries (the stats reply's shard list).
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Vec<u8>) {
        (self.len() as u16).put(w);
        self.iter().for_each(|v| v.put(w));
    }
    fn get(r: &mut Reader) -> Result<Self, DecodeError> {
        let count = u16::get(r)? as usize;
        let mut out = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

// ---- The three kinds of table ----

/// A plain struct: its fields in wire order. `field if bound` refuses a
/// received value the bound does not admit ([`DecodeError::OutOfRange`]).
/// A closing `where "what" if check` refuses, as `what`, a struct whose
/// fields each pass but whose combination `check` (an expression over
/// the decoded fields) does not admit. Given a `pub struct` definition
/// instead, the fields as declared.
macro_rules! wire_struct {
    ($(#[$meta:meta])* pub struct $ty:ident {
        $($(#[$doc:meta])* pub $field:ident: $fty:ty),* $(,)?
    }) => {
        $(#[$meta])*
        pub struct $ty {
            $($(#[$doc])* pub $field: $fty),*
        }
        wire_struct!($ty { $($field),* });
    };
    ($ty:ident { $($field:ident $(if $bound:expr)?),* $(,)? } $(where $what:literal if $check:expr)?) => {
        impl Wire for $ty {
            fn put(&self, w: &mut Vec<u8>) {
                $(self.$field.put(w);)*
            }
            fn get(r: &mut Reader) -> Result<Self, DecodeError> {
                $(
                    let $field = Wire::get(r)?;
                    $(if !($bound)(&$field) {
                        return Err(DecodeError::OutOfRange { what: stringify!($field) });
                    })?
                )*
                $(if !$check {
                    return Err(DecodeError::OutOfRange { what: $what });
                })?
                Ok($ty { $($field),* })
            }
        }
    };
}

/// An enum that travels as one tag byte: a variant's tag is its position
/// in the list (`all()` where the enum has one).
macro_rules! wire_enum {
    ($ty:ident, $what:literal, $all:expr) => {
        impl Wire for $ty {
            fn put(&self, w: &mut Vec<u8>) {
                let tag = $all.iter().position(|v| v == self);
                w.push(tag.expect("every variant is listed") as u8);
            }
            fn get(r: &mut Reader) -> Result<Self, DecodeError> {
                let tag = u8::get(r)?;
                $all.get(tag as usize)
                    .copied()
                    .ok_or(DecodeError::BadTag { what: $what, tag })
            }
        }
    };
}

/// An enum whose variants carry data: a tag byte, then the variant's
/// fields in order (`Variant { a, b }`, `Variant(inner)` or `Variant`).
macro_rules! wire_union {
    ($ty:ident, $what:literal {
        $($tag:tt => $variant:ident $({ $($field:ident),* })? $(($inner:ident))?),* $(,)?
    }) => {
        impl Wire for $ty {
            fn put(&self, w: &mut Vec<u8>) {
                match self {$(
                    $ty::$variant $({ $($field),* })? $(($inner))? => {
                        w.push($tag);
                        $($($field.put(w);)*)?
                        $($inner.put(w);)?
                    }
                )*}
            }
            fn get(r: &mut Reader) -> Result<Self, DecodeError> {
                match u8::get(r)? {
                    $($tag => {
                        $($(let $field = Wire::get(r)?;)*)?
                        $(let $inner = Wire::get(r)?;)?
                        Ok($ty::$variant $({ $($field),* })? $(($inner))?)
                    })*
                    tag => Err(DecodeError::BadTag { what: $what, tag }),
                }
            }
        }
    };
}

/// The bound `field if within(lo..=hi)`.
fn within<T: PartialOrd>(range: RangeInclusive<T>) -> impl Fn(&T) -> bool {
    move |value| range.contains(value)
}

fn finite(value: &f32) -> bool {
    value.is_finite()
}

fn no_longer_than_max_wait(wait: &Option<Duration>) -> bool {
    wait.is_none_or(|wait| wait <= MAX_WAIT)
}

/// The subimages of `processors` ranks at `image_size`² fit
/// [`MAX_SUBIMAGE_BYTES`] (checked: the product passes 2³² at the two
/// ceilings).
fn subimages_fit(processors: usize, image_size: u16) -> bool {
    let side = image_size as usize;
    [side, side, BYTES_PER_PIXEL]
        .into_iter()
        .try_fold(processors, usize::checked_mul)
        .is_some_and(|bytes| bytes <= MAX_SUBIMAGE_BYTES)
}

/// Explicit dimensions are all non-zero and multiply to at most
/// [`MAX_VOLUME_VOXELS`] without overflowing.
fn volume_fits(dims: &Option<[usize; 3]>) -> bool {
    dims.is_none_or(|d| {
        d.iter()
            .try_fold(1usize, |n, &edge| n.checked_mul(edge))
            .is_some_and(|n| (1..=MAX_VOLUME_VOXELS).contains(&n))
    })
}

// ---- The request: an id, then the configuration ----

wire_enum!(bool, "bool", [false, true]);
wire_enum!(DatasetKind, "dataset", DatasetKind::all());
wire_enum!(Method, "method", Method::all());
wire_enum!(
    StreamClass,
    "stream class",
    [StreamClass::Raw, StreamClass::Data, StreamClass::Ack]
);
wire_enum!(
    FaultAction,
    "fault action",
    [
        FaultAction::Deliver,
        FaultAction::Drop,
        FaultAction::Corrupt,
        FaultAction::Duplicate,
        FaultAction::Delay,
    ]
);

wire_struct!(CostModel { t_s, t_c });
wire_struct!(CompCost {
    t_scan,
    t_pack,
    t_unpack,
    t_over,
    t_encode,
});
wire_union!(CompTiming, "comp timing" {
    0 => Measured { slowdown },
    1 => Modeled(cost),
});
wire_struct!(KillSpec { rank, after_ops });
wire_struct!(TargetedFault {
    src,
    dst,
    class,
    index,
    action,
});
wire_struct!(FaultConfig {
    drop,
    corrupt,
    duplicate,
    delay,
    delay_ms if within(0..=MAX_WAIT.as_millis() as u64),
    seed,
    kill,
    target,
});
// Field order matches the struct declaration. The bounds are what a
// daemon refuses before it opens a session: each one names a value that
// would otherwise panic, hang or exhaust the shard that received it. The
// last exhausts the host: every rank holds a full-screen subimage.
wire_struct!(ExperimentConfig {
    dataset,
    image_size if within(1..=MAX_IMAGE_SIZE),
    processors if within(1..=MAX_PROCESSORS),
    method,
    rot_x_deg if finite,
    rot_y_deg if finite,
    cost,
    volume_dims if volume_fits,
    step if within(STEP_RANGE),
    early_termination_alpha,
    perspective_distance,
    balanced_partition,
    ghost_voxels if within(0..=MAX_GHOST_VOXELS),
    comp_timing,
    faults,
    reliable,
    recv_deadline if no_longer_than_max_wait,
    schedule_seed,
    macrocell if within(0..=MAX_ACCEL_EDGE),
    tile if within(0..=MAX_ACCEL_EDGE),
    simd_lanes,
} where "processors × image_size²" if subimages_fit(processors, image_size));

/// The canonical encoding of a configuration: every field bit for bit,
/// in declaration order. A request carries it after its id and
/// [`frame_key`](crate::frame_key) digests it.
pub fn encode_config(config: &ExperimentConfig) -> Vec<u8> {
    encode(&[config])
}

/// Encodes a frame request: correlation id + full configuration.
pub fn encode_request(id: u64, config: &ExperimentConfig) -> Vec<u8> {
    encode(&[&id, config])
}

/// Decodes a frame request. A configuration whose values lie outside
/// the bounds of its table is refused here, before any session, volume
/// or worker sees it.
pub fn decode_request(payload: &[u8]) -> Result<(u64, ExperimentConfig), DecodeError> {
    decode(payload)
}

// ---- Handshake messages ----

wire_struct! {
    /// Decoded client hello.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Hello {
        /// Protocol version the client speaks.
        pub version: u16,
    }
}

/// Encodes the client hello.
pub fn encode_hello() -> Vec<u8> {
    let version = WIRE_VERSION;
    encode(&[&Magic, &Hello { version }])
}

/// Decodes a client hello (magic checked; the version is returned so
/// the server can answer a mismatch with a typed error, not a hangup).
pub fn decode_hello(payload: &[u8]) -> Result<Hello, DecodeError> {
    decode::<(Magic, Hello)>(payload).map(|(_, hello)| hello)
}

wire_struct! {
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
}

/// Encodes the handshake accept.
pub fn encode_welcome(wl: &Welcome) -> Vec<u8> {
    encode(&[&Magic, wl])
}

/// Decodes the handshake accept.
pub fn decode_welcome(payload: &[u8]) -> Result<Welcome, DecodeError> {
    decode::<(Magic, Welcome)>(payload).map(|(_, welcome)| welcome)
}

wire_struct! {
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
}

/// Encodes a terminal error.
pub fn encode_error(e: &ErrorInfo) -> Vec<u8> {
    encode(&[e])
}

/// Decodes a terminal error.
pub fn decode_error(payload: &[u8]) -> Result<ErrorInfo, DecodeError> {
    decode(payload)
}

// ---- The response ----

wire_struct!(FrameRecord {
    t_comp_ms,
    t_comm_ms,
    t_total_ms,
    t_bound_ms,
    t_encode_ms,
    render_max_ms,
    m_max,
    total_bytes,
    coverage,
    dead_ranks,
});
wire_union!(ServeSource, "serve source" {
    0 => Fresh,
    1 => Cache,
    2 => Coalesced,
    3 => Degraded { psnr_db, coverage },
});
// Tag 2 was retired at version 7 and stays unassigned.
wire_union!(RejectReason, "reject reason" {
    0 => Failed { error },
    1 => QualityFloor { best_psnr_db },
    3 => Shutdown,
});

wire_struct! {
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
/// The tag of [`WireResponse::Frame`].
const FRAME: u8 = 0;
wire_union!(WireResponse, "response" {
    FRAME => Frame(frame),
    1 => Overloaded { queue_depth },
    2 => Shed { waited_seconds },
    3 => Rejected { attempts, reason },
});

/// Encodes one response frame for request `id` (server side). A frame
/// is written from where it lives — the `Arc`-shared reply the cache also
/// holds — in [`WireFrame`]'s field order, so no pixel is copied to build
/// a mirror first; the other responses go through [`WireResponse`]'s
/// table.
pub fn encode_response(id: u64, resp: &FrameResponse) -> Vec<u8> {
    let mirror = match resp {
        FrameResponse::Frame(reply) => {
            let frame = &reply.frame;
            return encode(&[
                &id,
                &FRAME,
                &reply.source,
                &reply.wait_seconds,
                &frame.image_hash,
                &frame.record,
                &frame.image,
            ]);
        }
        &FrameResponse::Overloaded { queue_depth } => WireResponse::Overloaded { queue_depth },
        &FrameResponse::Shed { waited_seconds } => WireResponse::Shed { waited_seconds },
        FrameResponse::Rejected { attempts, reason } => WireResponse::Rejected {
            attempts: *attempts,
            reason: reason.clone(),
        },
    };
    encode(&[&id, &mirror])
}

/// Decodes one response frame (client side).
pub fn decode_response(payload: &[u8]) -> Result<(u64, WireResponse), DecodeError> {
    decode(payload)
}

// ---- Stats ----

wire_struct!(CacheCounters {
    hits,
    misses,
    evictions,
    insertions,
});
wire_struct!(ServiceStats {
    submitted,
    completed_fresh,
    completed_cached,
    completed_coalesced,
    completed_degraded,
    shed_deadline,
    rejected_overload,
    rejected_failed,
    rejected_shutdown,
    frame_retries,
    failed_attempts,
    datasets_evicted,
    min_degraded_psnr_db,
    rendered_frames,
    peak_queue_depth,
    cache,
});

wire_struct! {
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
}

/// Encodes the stats snapshot.
pub fn encode_stats_reply(reply: &StatsReply) -> Vec<u8> {
    encode(&[reply])
}

/// Decodes the stats snapshot.
pub fn decode_stats_reply(payload: &[u8]) -> Result<StatsReply, DecodeError> {
    decode(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{FrameReply, RenderedFrame};
    use std::sync::Arc;
    use vr_image::checksum::fnv1a;
    use vr_image::{Pixel, BYTES_PER_RUN_CODE};

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
        c.reliable = true;
        c.recv_deadline = Some(Duration::from_millis(250));
        c.schedule_seed = Some(11);
        c.perspective_distance = Some(2.5);
        c
    }

    /// Equal canonical bytes: every field, bit for bit (NaN payloads
    /// included, which `Debug` and `==` cannot tell apart).
    fn assert_config_eq(a: &ExperimentConfig, b: &ExperimentConfig) {
        assert_eq!(encode_config(a), encode_config(b));
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
        let mut reply = cached_reply(image);
        reply.source = ServeSource::Degraded {
            psnr_db: 31.5,
            coverage: 0.875,
        };
        let wire = encode_response(5, &FrameResponse::Frame(reply.clone()));
        let (id, got) = decode_response(&wire).unwrap();
        assert_eq!(id, 5);
        let WireResponse::Frame(frame) = got else {
            panic!("expected a frame");
        };
        assert_eq!(frame.image_hash, hash);
        assert_eq!(fnv1a(&frame.image), hash, "pixels must survive bit-exactly");
        assert_eq!(frame.record, reply.frame.record);
        assert_eq!(frame.source, reply.source);
        // The server writes a frame from the shared reply, not through the
        // mirror's table: the two must stay the same bytes.
        assert_eq!(wire, encode(&[&5u64, &WireResponse::Frame(frame)]));
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
            assert_eq!(
                decode_request(&full[..cut]).err(),
                Some(DecodeError::Truncated),
                "cut at {cut}"
            );
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
    fn retired_reject_tag_is_typed() {
        // A rejection ends with its reason's tag when the reason has no
        // fields; tag 2 belongs to no reason.
        let mut wire = encode_response(
            1,
            &FrameResponse::Rejected {
                attempts: 0,
                reason: RejectReason::Shutdown,
            },
        );
        *wire.last_mut().unwrap() = 2;
        assert_eq!(
            decode_response(&wire).err(),
            Some(DecodeError::BadTag {
                what: "reject reason",
                tag: 2
            })
        );
    }

    #[test]
    fn frame_cut_at_every_length_is_typed_never_panics() {
        // Blank margins and interior gaps: codes `[1, 3, 2, 3, 2, 3]`,
        // nine non-blank pixels.
        let image = Image::from_fn(5, 3, |x, y| {
            if (1..4).contains(&x) {
                Pixel::gray(x as f32 + 0.5, y as f32 + 0.25)
            } else {
                Pixel::BLANK
            }
        });
        let resp = FrameResponse::Frame(cached_reply(image));
        let wire = encode_response(2, &resp);
        let codes_start = wire.len() - 6 * BYTES_PER_RUN_CODE - 9 * BYTES_PER_PIXEL;
        for cut in 0..wire.len() {
            match decode_response(&wire[..cut]) {
                // Inside the codes or the pixels the code count and the
                // codes disagree with the bytes present.
                Err(DecodeError::BadLength) => assert!(cut >= codes_start, "cut {cut}"),
                Err(DecodeError::Truncated) => assert!(cut < codes_start, "cut {cut}"),
                other => panic!("cut at {cut}: expected BadLength/Truncated, got {other:?}"),
            }
        }
        assert!(decode_response(&wire).is_ok());
    }

    /// A frame reply whose image section is `image`, written field by
    /// field so that it can lie.
    fn hostile_frame(image: &[&dyn Wire]) -> Vec<u8> {
        let record = FrameRecord::default();
        let mut wire = encode(&[&1u64, &FRAME, &ServeSource::Fresh, &0f64, &0u64, &record]);
        image.iter().for_each(|part| part.put(&mut wire));
        wire
    }

    #[test]
    fn hostile_image_dimensions_fail_before_allocation() {
        // A 65535×65535 image (64 GiB of pixels) is refused by its
        // dimensions alone.
        let wire = hostile_frame(&[&u16::MAX, &u16::MAX, &0u32]);
        assert_eq!(
            decode_response(&wire).err(),
            Some(DecodeError::OutOfRange { what: "image" })
        );
        let side = MAX_IMAGE_SIZE + 1;
        for (w, h) in [(side, 1), (1, side)] {
            assert_eq!(
                decode_response(&hostile_frame(&[&w, &h, &0u32])).err(),
                Some(DecodeError::OutOfRange { what: "image" })
            );
        }
    }

    #[test]
    fn hostile_image_sections_are_bad_lengths() {
        let pixel = [0x3fu8; BYTES_PER_PIXEL];
        let (w, h) = (4u16, 3u16);
        let cases: [(&str, Vec<u8>); 5] = [
            // Runs covering 13 pixels of a 12-pixel frame.
            (
                "codes overrun",
                hostile_frame(&[&w, &h, &2u32, &12u16, &1u16]),
            ),
            // One u16 split too many: blank 65535, non-blank 0, blank 1.
            (
                "split codes overrun",
                hostile_frame(&[&w, &h, &3u32, &u16::MAX, &0u16, &1u16]),
            ),
            // A code count of u32::MAX with four code bytes behind it.
            (
                "code count",
                hostile_frame(&[&w, &h, &u32::MAX, &0u16, &1u16]),
            ),
            // One run of 2 pixels, one pixel present.
            ("pixels missing", {
                let mut wire = hostile_frame(&[&w, &h, &2u32, &0u16, &2u16]);
                wire.extend_from_slice(&pixel);
                wire
            }),
            // One run of 1 pixel, one byte short.
            ("pixel cut", {
                let mut wire = hostile_frame(&[&w, &h, &2u32, &0u16, &1u16]);
                wire.extend_from_slice(&pixel[1..]);
                wire
            }),
        ];
        for (what, wire) in cases {
            assert_eq!(
                decode_response(&wire).err(),
                Some(DecodeError::BadLength),
                "{what}"
            );
        }
        // Zero-length codes are legal, and a byte past the pixels is not.
        let mut wire = hostile_frame(&[&w, &h, &4u32, &0u16, &0u16, &3u16, &1u16]);
        wire.extend_from_slice(&pixel);
        let (_, WireResponse::Frame(frame)) = decode_response(&wire).unwrap() else {
            panic!("expected a frame");
        };
        assert_eq!(frame.image.get(3, 0), Pixel::from_le_bytes(pixel));
        assert_eq!(frame.image.non_blank_count(), 1);
        wire.push(0);
        assert_eq!(
            decode_response(&wire).err(),
            Some(DecodeError::Trailing { extra: 1 })
        );
    }

    /// Values that would panic `FrameService::open_session`, hang a
    /// worker or exhaust the host if a session ever saw them: each is
    /// refused by name at the decoder.
    #[test]
    fn out_of_range_values_are_refused_by_name() {
        type Edit = fn(&mut ExperimentConfig);
        let hostile: [(&str, Edit); 25] = [
            ("image_size", |c| c.image_size = 0),
            ("image_size", |c| c.image_size = MAX_IMAGE_SIZE + 1),
            ("processors", |c| c.processors = 0),
            ("processors", |c| c.processors = MAX_PROCESSORS + 1),
            // Each within its own ceiling, 34 GB of subimages together;
            // and one rank past the largest admitted 2047² frame.
            ("processors × image_size²", |c| {
                (c.image_size, c.processors) = (MAX_IMAGE_SIZE, MAX_PROCESSORS)
            }),
            ("processors × image_size²", |c| {
                (c.image_size, c.processors) = (MAX_IMAGE_SIZE, 17)
            }),
            ("rot_x_deg", |c| c.rot_x_deg = f32::NAN),
            ("rot_y_deg", |c| c.rot_y_deg = f32::NEG_INFINITY),
            // 2^63 voxels: the product overflows before it is compared.
            ("volume_dims", |c| c.volume_dims = Some([1 << 21; 3])),
            ("volume_dims", |c| c.volume_dims = Some([usize::MAX; 3])),
            ("volume_dims", |c| {
                c.volume_dims = Some([MAX_VOLUME_VOXELS, 2, 1])
            }),
            ("volume_dims", |c| c.volume_dims = Some([16, 0, 16])),
            ("step", |c| c.step = 0.0),
            ("step", |c| c.step = -1.0),
            ("step", |c| c.step = f32::NAN),
            ("step", |c| c.step = f32::INFINITY),
            ("ghost_voxels", |c| c.ghost_voxels = MAX_GHOST_VOXELS + 1),
            ("macrocell", |c| c.macrocell = MAX_ACCEL_EDGE + 1),
            ("macrocell", |c| c.macrocell = usize::MAX),
            ("tile", |c| c.tile = MAX_ACCEL_EDGE + 1),
            ("tile", |c| c.tile = usize::MAX),
            // A delay fault sleeps the sending rank, and rank 0 runs on
            // the worker's thread.
            ("delay_ms", |c| c.faults.as_mut().unwrap().delay_ms = 60_001),
            ("delay_ms", |c| {
                c.faults.as_mut().unwrap().delay_ms = u64::MAX
            }),
            ("recv_deadline", |c| {
                c.recv_deadline = Some(MAX_WAIT + Duration::from_nanos(1))
            }),
            ("recv_deadline", |c| c.recv_deadline = Some(Duration::MAX)),
        ];
        for (what, edit) in hostile {
            let mut config = sample_config();
            edit(&mut config);
            assert_eq!(
                decode_request(&encode_request(1, &config)).err(),
                Some(DecodeError::OutOfRange { what }),
                "{config:?}"
            );
        }
    }

    #[test]
    fn the_ceilings_themselves_and_the_paper_runs_are_admitted() {
        let at_the_ceilings = ExperimentConfig {
            image_size: MAX_IMAGE_SIZE,
            processors: 16,
            volume_dims: Some([MAX_VOLUME_VOXELS, 1, 1]),
            step: *STEP_RANGE.end(),
            ghost_voxels: MAX_GHOST_VOXELS,
            macrocell: MAX_ACCEL_EDGE,
            tile: MAX_ACCEL_EDGE,
            faults: Some(FaultConfig {
                delay_ms: 60_000,
                ..Default::default()
            }),
            reliable: true,
            recv_deadline: Some(MAX_WAIT),
            ..Default::default()
        };
        let paper_largest = ExperimentConfig {
            image_size: 768,
            processors: 64,
            ..Default::default()
        };
        // The widest group the predictive sweeps model, at 256², where
        // P = 512 frames have been rendered in 1,085–1,353 MiB.
        let widest = ExperimentConfig {
            image_size: 256,
            processors: MAX_PROCESSORS,
            ..Default::default()
        };
        let unaccelerated = ExperimentConfig {
            step: *STEP_RANGE.start(),
            macrocell: 0,
            tile: 0,
            ..Default::default()
        };
        for config in [at_the_ceilings, paper_largest, widest, unaccelerated] {
            let (_, got) = decode_request(&encode_request(1, &config)).unwrap();
            assert_config_eq(&config, &got);
        }
    }

    #[test]
    fn the_largest_admitted_frame_fits_one_wire_frame() {
        assert_eq!(MAX_IMAGE_SIZE, 2047);
        // Everything in a frame reply that is neither a pixel nor a run
        // code, at its widest (a degraded source), plus the frame header.
        let reply = |image| {
            let mut reply = cached_reply(image);
            reply.source = ServeSource::Degraded {
                psnr_db: 1.0,
                coverage: 1.0,
            };
            encode_response(u64::MAX, &FrameResponse::Frame(reply)).len()
        };
        let overhead = reply(Image::blank(0, 0)) + vr_comm::HEADER_LEN;
        assert!(overhead <= FRAME_REPLY_OVERHEAD, "{overhead}");
        // A fully dense A-pixel frame is 16·A + 4 + 4·⌈A/65535⌉ bytes
        // past the dimensions: the code count, then a zero-length blank
        // run and the non-blank run cut every 65535 pixels.
        let dense = |area: usize| 16 * area + 4 + 4 * area.div_ceil(65535);
        for (w, h) in [(1, 1), (7, 3), (65535, 1), (256, 256), (300, 300)] {
            let image = Image::from_fn(w, h, |x, y| Pixel::gray(0.5, (x ^ y) as f32));
            let area = w as usize * h as usize;
            assert_eq!(
                reply(image),
                reply(Image::blank(0, 0)) - 4 + dense(area),
                "{w}×{h}"
            );
            assert_eq!(dense(area), 4 + dense_image_bytes(area));
        }
        // At the largest side that is 260 B over the pixels alone, and
        // the whole reply still fits one wire frame.
        let area = MAX_IMAGE_SIZE as usize * MAX_IMAGE_SIZE as usize;
        assert_eq!(dense(area) - 16 * area, 260);
        assert!(FRAME_REPLY_OVERHEAD - 4 + dense(area) <= MAX_WIRE_FRAME as usize);
    }
}

#[cfg(test)]
mod proptests {
    //! Round-trip and corruption-robustness proptests: an arbitrary
    //! config or frame survives encode/decode bit-exactly, and arbitrary
    //! byte corruption of a valid message either decodes to *something*
    //! or fails typed — it never panics.

    use super::tests::cached_reply;
    use super::*;
    use crate::service::FrameReply;
    use proptest::prelude::*;
    use vr_image::checksum::fnv1a;
    use vr_image::{MaskRle, Pixel};

    /// Random words for [`config_from`] to spend, one or two per field.
    fn config_words() -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::vec(any::<u64>(), 64)
    }

    /// A valid configuration with *every* field drawn from `words` —
    /// written without `..Default::default()`, so a field added to
    /// `ExperimentConfig` fails to compile here until it is drawn too.
    /// Unbounded floats are arbitrary bit patterns (NaNs included);
    /// bounded fields span their whole admitted range.
    fn config_from(words: &[u64]) -> ExperimentConfig {
        let mut words = words.iter().copied();
        let mut word = move || words.next().expect("enough words");
        macro_rules! draw {
            (usize in $lo:expr, $hi:expr) => {
                $lo + (word() % ($hi - $lo + 1) as u64) as usize
            };
            (f32) => {
                f32::from_bits(word() as u32)
            };
            // Clearing the exponent's top bit leaves every finite sign,
            // magnitude and subnormal but no NaN or infinity.
            (finite f32) => {
                f32::from_bits(word() as u32 & !(1 << 30))
            };
            (f64) => {
                f64::from_bits(word())
            };
            (bool) => {
                word() & 1 == 1
            };
            (Duration) => {
                Duration::from_nanos(word() % (MAX_WAIT.as_nanos() as u64 + 1))
            };
            (Option $($some:tt)+) => {
                if word() & 1 == 1 { Some($($some)+) } else { None }
            };
        }
        let dataset = DatasetKind::all()[draw!(usize in 0, 3)];
        let image_size = draw!(usize in 1, MAX_IMAGE_SIZE as usize) as u16;
        let frame_bytes = image_size as usize * image_size as usize * BYTES_PER_PIXEL;
        ExperimentConfig {
            dataset,
            image_size,
            processors: draw!(usize in 1, MAX_PROCESSORS.min(MAX_SUBIMAGE_BYTES / frame_bytes)),
            method: Method::all()[draw!(usize in 0, Method::all().len() - 1)],
            rot_x_deg: draw!(finite f32),
            rot_y_deg: draw!(finite f32),
            cost: CostModel {
                t_s: draw!(f64),
                t_c: draw!(f64),
            },
            volume_dims: draw!(Option [draw!(usize in 1, 1024), draw!(usize in 1, 256), draw!(usize in 1, 256)]),
            step: STEP_RANGE.start()
                + (STEP_RANGE.end() - STEP_RANGE.start()) * (word() as f32 / u64::MAX as f32),
            early_termination_alpha: draw!(f32),
            perspective_distance: draw!(Option draw!(f32)),
            balanced_partition: draw!(bool),
            ghost_voxels: draw!(usize in 0, MAX_GHOST_VOXELS),
            comp_timing: if draw!(bool) {
                CompTiming::Measured {
                    slowdown: draw!(f64),
                }
            } else {
                CompTiming::Modeled(CompCost {
                    t_scan: draw!(f64),
                    t_pack: draw!(f64),
                    t_unpack: draw!(f64),
                    t_over: draw!(f64),
                    t_encode: draw!(f64),
                })
            },
            faults: draw!(Option FaultConfig {
                drop: draw!(f64),
                corrupt: draw!(f64),
                duplicate: draw!(f64),
                delay: draw!(f64),
                delay_ms: draw!(usize in 0, MAX_WAIT.as_millis() as usize) as u64,
                seed: word(),
                kill: draw!(Option KillSpec {
                    rank: word() as usize,
                    after_ops: word(),
                }),
                target: draw!(Option TargetedFault {
                    src: word() as usize,
                    dst: word() as usize,
                    class: [StreamClass::Raw, StreamClass::Data, StreamClass::Ack]
                        [draw!(usize in 0, 2)],
                    index: word(),
                    action: [
                        FaultAction::Deliver,
                        FaultAction::Drop,
                        FaultAction::Corrupt,
                        FaultAction::Duplicate,
                        FaultAction::Delay,
                    ][draw!(usize in 0, 4)],
                }),
            }),
            reliable: draw!(bool),
            recv_deadline: draw!(Option draw!(Duration)),
            schedule_seed: draw!(Option word()),
            macrocell: draw!(usize in 0, MAX_ACCEL_EDGE),
            tile: draw!(usize in 0, MAX_ACCEL_EDGE),
            simd_lanes: word() as usize,
        }
    }

    /// Whether any component of `p` has a bit set: the wire's non-blank.
    fn has_bits(p: &Pixel) -> bool {
        [p.r, p.g, p.b, p.a].iter().any(|c| c.to_bits() != 0)
    }

    /// The frame response spelled out one scalar at a time — codes from
    /// the naive bit-mask encoder, then every non-blank pixel component
    /// by component: the encoding the run scanner and the bulk pixel
    /// writer must reproduce byte for byte.
    fn per_field_encoding(id: u64, reply: &FrameReply) -> Vec<u8> {
        let frame = &reply.frame;
        let image = &frame.image;
        let rle = MaskRle::encode_mask(image.pixels().iter().map(has_bits));
        let mut w = encode(&[
            &id,
            &FRAME,
            &ServeSource::Cache,
            &reply.wait_seconds,
            &frame.image_hash,
            &frame.record,
            &image.width(),
            &image.height(),
            &(rle.num_codes() as u32),
        ]);
        rle.codes().iter().for_each(|code| code.put(&mut w));
        for p in image.pixels().iter().filter(|p| has_bits(p)) {
            for component in [p.r, p.g, p.b, p.a] {
                component.put(&mut w);
            }
        }
        w
    }

    /// The frame reply for `image`, encoded.
    fn encoded(id: u64, image: Image) -> Vec<u8> {
        encode_response(id, &FrameResponse::Frame(cached_reply(image)))
    }

    /// Checks every codec property of one frame: the bytes equal the
    /// per-field reference and are the same for a tight-extent copy; the decoded image is the sent one bit for bit and encodes
    /// to the same bytes; no frame is larger than the dense one of its
    /// size.
    fn check_frame(
        id: u64,
        width: u16,
        height: u16,
        pixels: Vec<Pixel>,
    ) -> Result<(), TestCaseError> {
        let tight = Image::from_fn(width, height, |x, y| {
            pixels[y as usize * width as usize + x as usize]
        });
        let reply = cached_reply(Image::from_pixels(width, height, pixels));
        let wire = encode_response(id, &FrameResponse::Frame(reply.clone()));
        prop_assert_eq!(&wire, &per_field_encoding(id, &reply));
        prop_assert_eq!(&wire, &encoded(id, tight));
        let (got_id, got) = decode_response(&wire).unwrap();
        prop_assert_eq!(got_id, id);
        let WireResponse::Frame(frame) = got else {
            panic!("expected a frame");
        };
        // The digest is over bit patterns, so NaNs compare exactly.
        prop_assert_eq!(fnv1a(&frame.image), reply.frame.image_hash);
        let bits = |image: &Image| -> Vec<[u32; 4]> {
            let bits = |p: &Pixel| [p.r, p.g, p.b, p.a].map(f32::to_bits);
            image.pixels().iter().map(bits).collect()
        };
        prop_assert_eq!(bits(&frame.image), bits(&reply.frame.image));
        prop_assert_eq!(encode(&[&id, &WireResponse::Frame(frame)]), wire);
        let dense = Image::from_fn(width, height, |_, _| Pixel::gray(1.0, 1.0));
        prop_assert!(wire.len() <= encoded(id, dense).len());
        Ok(())
    }

    /// Component bit patterns a frame must carry exactly: both zeros,
    /// positive and negative subnormals, NaNs of any payload and sign,
    /// and arbitrary bits.
    fn arb_component() -> impl Strategy<Value = f32> {
        prop_oneof![
            3 => Just(0.0f32),
            1 => Just(-0.0f32),
            1 => (1u32..0x0080_0000, any::<bool>())
                .prop_map(|(m, neg)| f32::from_bits(m | (neg as u32) << 31)),
            1 => any::<u32>().prop_map(|b| f32::from_bits(b | 0x7f80_0001)),
            2 => any::<u32>().prop_map(f32::from_bits),
        ]
    }

    /// A pixel that is bitwise blank three times in four.
    fn arb_pixel() -> impl Strategy<Value = Pixel> {
        prop_oneof![
            3 => Just(Pixel::BLANK),
            1 => (arb_component(), arb_component(), arb_component(), arb_component())
                .prop_map(|(r, g, b, a)| Pixel::new(r, g, b, a)),
        ]
    }

    /// Small frames (0×0 and empty sides included) and 1×N columns.
    fn arb_size() -> impl Strategy<Value = (u16, u16)> {
        prop_oneof![
            3 => (0u16..9, 0u16..9),
            1 => (Just(1u16), 0u16..300),
        ]
    }

    /// What a drawn frame becomes: as drawn, all blank, or fully dense
    /// (each bitwise-blank pixel replaced by a `-0.0` one).
    fn shape(fill: u8, pixels: &[Pixel], area: usize) -> Vec<Pixel> {
        let neg_zero = Pixel::new(-0.0, 0.0, 0.0, 0.0);
        let drawn = pixels.iter().take(area);
        match fill {
            0 => drawn.copied().collect(),
            1 => vec![Pixel::BLANK; area],
            _ => drawn
                .map(|p| if has_bits(p) { *p } else { neg_zero })
                .collect(),
        }
    }

    #[test]
    fn frames_past_a_u16_run_match_the_per_field_encoding() {
        // 90 000 pixels: a dense run and a trailing blank gap are both
        // cut at u16::MAX (the gap's cut leaves `[65535, 0]` residue).
        let area = 300 * 300;
        let mut one = vec![Pixel::BLANK; area];
        one[7] = Pixel::gray(0.5, 1.0);
        let mut gap = vec![Pixel::gray(0.25, 0.5); area];
        gap[100..70_000].fill(Pixel::BLANK);
        for pixels in [vec![Pixel::gray(0.5, 1.0); area], one, gap] {
            check_frame(3, 300, 300, pixels).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn frame_responses_match_the_per_field_encoding(
            id in any::<u64>(),
            (width, height) in arb_size(),
            pixels in proptest::collection::vec(arb_pixel(), 300),
            fill in 0u8..3,
        ) {
            let pixels = shape(fill, &pixels, width as usize * height as usize);
            check_frame(id, width, height, pixels)?;
        }

        #[test]
        fn any_config_round_trips_bit_exactly(words in config_words(), id in any::<u64>()) {
            let config = config_from(&words);
            let wire = encode_request(id, &config);
            let (got_id, got) = decode_request(&wire).unwrap();
            prop_assert_eq!(got_id, id);
            // Bit-exact: compare the encodings, which cover every field
            // as raw bits (Debug can't distinguish NaN payloads).
            prop_assert_eq!(encode_request(id, &got), wire);
        }

        #[test]
        fn corrupted_requests_never_panic(
            words in config_words(),
            flip_at in any::<usize>(),
            flip_bit in 0u8..8,
        ) {
            let mut wire = encode_request(7, &config_from(&words));
            let at = flip_at % wire.len();
            wire[at] ^= 1 << flip_bit;
            // Either a typed error or a (different) valid decode; the
            // call itself must return.
            let _ = decode_request(&wire);
        }

        #[test]
        fn corrupted_responses_never_panic(
            queue_depth in 0usize..1000,
            pixels in proptest::collection::vec(arb_pixel(), 6 * 5),
            flip_at in any::<usize>(),
            flip_bit in 0u8..8,
        ) {
            // A rejection, and a sparse frame: a flip in its dimensions,
            // code count, codes or pixels reaches the image decoder.
            for mut wire in [
                encode_response(3, &FrameResponse::Overloaded { queue_depth }),
                encoded(3, Image::from_pixels(6, 5, pixels.clone())),
            ] {
                let at = flip_at % wire.len();
                wire[at] ^= 1 << flip_bit;
                let _ = decode_response(&wire);
            }
        }
    }
}
