//! The compositing methods and their common runtime plumbing.
//!
//! Six methods are one driver (`swap`) over a stage codec and a round
//! vector each: five exchange spatial parts (`spatial`), BSLC exchanges
//! interleaved halves (`interleaved`). The tile stream keeps its own
//! schedule.

mod interleaved;
pub(crate) mod spatial;
pub(crate) mod swap;
#[cfg(test)]
pub(crate) mod testutil;
pub mod tile_stream;

use std::collections::BTreeSet;
use std::str::FromStr;

use vr_comm::Endpoint;
use vr_image::{Image, Rect, StridedSeq};
use vr_volume::DepthOrder;

use crate::error::CompositeError;
use crate::runner::Canvas;
use crate::stats::{MethodStats, StageStat};
use crate::timer::Stopwatch;

use interleaved::InterleavedRuns;
use spatial::{Dense, Headed, Headless, Runs, Spatial};

/// Which compositing method to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// Plain binary-swap (Ma et al. 1994) — the paper's baseline.
    Bs,
    /// Binary-swap with bounding rectangles (Section 3.2).
    Bsbr,
    /// Binary-swap with run-length encoding and static load balancing
    /// (Section 3.3).
    Bslc,
    /// Binary-swap with bounding rectangle *and* run-length encoding
    /// (Section 3.4) — the paper's best performer.
    Bsbrc,
    /// Ablation: binary-swap with run-length encoding over *spatial*
    /// halves (BSLC without the interleaved load balancing; not a paper
    /// method).
    Bsrl,
    /// Radix-k compositing: BSBR's codec over rounds that follow a greedy
    /// factorization of `P` instead of the fold and radix-2 stages — the
    /// modern generalization of binary swap (extension).
    RadixK,
    /// Asynchronous tile-streamed compositing (Distributed FrameBuffer
    /// direction): 32-px screen tiles interleaved over owner ranks, each
    /// tile's non-blank runs streamed to its owner as soon as it is
    /// available, folded in deterministic depth order on arrival.
    TileStream,
}

impl Method {
    /// The four methods compared in the paper's tables, in table order.
    pub fn paper_methods() -> [Method; 4] {
        [Method::Bs, Method::Bsbr, Method::Bslc, Method::Bsbrc]
    }

    /// All implemented methods.
    pub fn all() -> [Method; 7] {
        [
            Method::Bs,
            Method::Bsbr,
            Method::Bslc,
            Method::Bsbrc,
            Method::Bsrl,
            Method::RadixK,
            Method::TileStream,
        ]
    }

    /// The paper's name for the method.
    pub fn name(self) -> &'static str {
        match self {
            Method::Bs => "BS",
            Method::Bsbr => "BSBR",
            Method::Bslc => "BSLC",
            Method::Bsbrc => "BSBRC",
            Method::Bsrl => "BSRL",
            Method::RadixK => "RADIXK",
            Method::TileStream => "TSTREAM",
        }
    }
}

/// Parses a method by its paper name ([`Method::name`], any case) or one
/// of the CLI's aliases (`radix`, `tile-stream`).
impl FromStr for Method {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let alias = match s.to_ascii_lowercase().as_str() {
            "radix" => "RADIXK",
            "tile-stream" => "TSTREAM",
            _ => s,
        };
        Method::all()
            .into_iter()
            .find(|m| m.name().eq_ignore_ascii_case(alias))
            .ok_or_else(|| format!("unknown method `{s}`"))
    }
}

/// The part of the final image a rank owns after compositing.
#[derive(Clone, Debug, PartialEq)]
pub enum OwnedPiece {
    /// A rectangular region (the spatial codecs; the whole frame at
    /// `P = 1`).
    Rect(Rect),
    /// A set of disjoint rectangles (tile-stream owners hold every tile
    /// assigned to them by the interleave).
    Rects(Vec<Rect>),
    /// An interleaved pixel sequence (BSLC).
    Seq(StridedSeq),
    /// Nothing (folded-out ranks).
    Nothing,
}

/// A rank's compositing outcome: its owned piece (with the final pixels
/// in the rank's image buffer) plus the measured/modeled statistics.
#[derive(Clone, Debug)]
pub struct CompositeResult {
    /// The final-image region this rank's buffer now holds.
    pub piece: OwnedPiece,
    /// Cost breakdown for this rank.
    pub stats: MethodStats,
    /// Peers this rank found dead, or whose link to it gave up, during
    /// the schedule (ascending). Empty in a healthy run; non-empty means
    /// the owned piece may contain transparent holes where those peers'
    /// pixels belonged.
    pub dead_partners: Vec<usize>,
}

/// Runs `method` over this rank's subimage. On return, the pixels of the
/// returned piece inside `image` are final; use
/// [`gather_image_tolerant`](crate::gather::gather_image_tolerant) to
/// assemble them.
///
/// Errors only when this rank itself was killed by fault injection, the
/// schedule broke down (receive timeout / tag mismatch) or a received
/// payload failed validation ([`CompositeError::Malformed`]); a *peer*
/// dying mid-run is survivable and reported via
/// [`CompositeResult::dead_partners`].
///
/// ```
/// use slsvr_core::{composite, gather_image_tolerant, Method};
/// use vr_comm::{run_group, CostModel};
/// use vr_image::{Image, Pixel};
/// use vr_volume::DepthOrder;
///
/// // Rank 0's opaque pixel must win over rank 1's.
/// let depth = DepthOrder::identity(2);
/// let out = run_group(2, CostModel::sp2(), |ep| {
///     let mut img = Image::blank(8, 8);
///     img.set(3, 3, Pixel::gray(if ep.rank() == 0 { 1.0 } else { 0.2 }, 1.0));
///     let result = composite(Method::Bsbrc, ep, &mut img, &depth).unwrap();
///     gather_image_tolerant(ep, &img, &result.piece, 0).unwrap()
/// });
/// let gathered = out.results[0].as_ref().unwrap();
/// assert_eq!(gathered.coverage(), 1.0, "every piece arrived");
/// assert_eq!(gathered.image.get(3, 3).r, 1.0);
/// ```
pub fn composite(
    method: Method,
    ep: &mut Endpoint,
    image: &mut Image,
    depth: &DepthOrder,
) -> Result<CompositeResult, CompositeError> {
    composite_on(method, ep, &mut Canvas::InPlace(image), depth)
}

/// [`composite`] over a [`Canvas`]: the one dispatch of method → driver,
/// for the caller's image in place and for a prepared subimage read in
/// place and composited in a leased working frame.
pub(crate) fn composite_on(
    method: Method,
    ep: &mut Endpoint,
    canvas: &mut Canvas,
    depth: &DepthOrder,
) -> Result<CompositeResult, CompositeError> {
    assert_eq!(
        depth.front_to_back().len(),
        ep.size(),
        "depth order must cover exactly the group"
    );
    use swap::{run, Rounds::*};
    let c = canvas;
    match method {
        Method::Bs => run::<Spatial<Headless<Dense>>>(ep, c, depth, Swap, "BS stage"),
        Method::Bsbr => run::<Spatial<Headed<Dense>>>(ep, c, depth, Swap, "BSBR stage"),
        Method::Bslc => run::<InterleavedRuns>(ep, c, depth, Swap, "BSLC stage"),
        Method::Bsbrc => run::<Spatial<Headed<Runs>>>(ep, c, depth, Swap, "BSBRC stage"),
        Method::Bsrl => run::<Spatial<Headless<Runs>>>(ep, c, depth, Swap, "BSRL stage"),
        Method::RadixK => run::<Spatial<Headed<Dense>>>(ep, c, depth, RadixK, "RADIXK round"),
        Method::TileStream => tile_stream::run(ep, c.frame(), depth),
    }
}

/// Shared bookkeeping for a method run: section stopwatches, stage stats
/// and the starting communication-time watermark.
pub(crate) struct Run {
    /// General compute sections (packing, unpacking, compositing).
    pub comp: Stopwatch,
    /// The initial bounding-rectangle scan (`T_bound`).
    pub bound: Stopwatch,
    /// Run-length encoding sections (`T_encode` terms).
    pub encode: Stopwatch,
    /// Per-stage counters.
    pub stages: Vec<StageStat>,
    /// Pixels scanned by bounding-rectangle searches.
    pub bound_pixels: u64,
    /// Peers found dead so far (fed by the `try_*` helpers in
    /// [`crate::error`]).
    pub dead: BTreeSet<usize>,
    comm_start: f64,
}

impl Run {
    pub fn begin(ep: &Endpoint) -> Self {
        Run {
            comp: Stopwatch::new(),
            bound: Stopwatch::new(),
            encode: Stopwatch::new(),
            stages: Vec::new(),
            bound_pixels: 0,
            dead: BTreeSet::new(),
            comm_start: ep.stats().modeled_comm_seconds,
        }
    }

    pub fn finish(self, ep: &mut Endpoint, piece: OwnedPiece) -> CompositeResult {
        let stats = MethodStats {
            comp_seconds: self.comp.seconds() + self.bound.seconds() + self.encode.seconds(),
            bound_seconds: self.bound.seconds(),
            encode_seconds: self.encode.seconds(),
            comm_seconds: ep.stats().modeled_comm_seconds - self.comm_start,
            bound_pixels: self.bound_pixels,
            stages: self.stages,
            first_tile_seconds: None,
            last_tile_seconds: None,
        };
        CompositeResult {
            piece,
            stats,
            dead_partners: self.dead.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_names_round_trip_through_from_str() {
        for m in Method::all() {
            assert_eq!(m.name().parse::<Method>(), Ok(m));
            assert_eq!(m.name().to_ascii_lowercase().parse::<Method>(), Ok(m));
        }
        assert_eq!("radix".parse::<Method>(), Ok(Method::RadixK));
        assert_eq!("Tile-Stream".parse::<Method>(), Ok(Method::TileStream));
        assert!("nope".parse::<Method>().is_err());
    }

    #[test]
    fn method_names_match_paper() {
        assert_eq!(Method::Bs.name(), "BS");
        assert_eq!(Method::Bsbrc.name(), "BSBRC");
        assert_eq!(
            Method::paper_methods().map(|m| m.name()),
            ["BS", "BSBR", "BSLC", "BSBRC"]
        );
    }
}
