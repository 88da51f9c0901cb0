//! The one frame runner. Every compositing frame — `slsvr render`, the
//! daemon, the benchmark, the conformance corpus and the pins — is a
//! [`run_frame`]: a group run of a rank body ending in
//! [`RankFrame::finish`], folded once into the frame's one record, the
//! [`Outcome`], which [`Outcome::record`] summarises as a
//! [`FrameRecord`]. [`composite_frame`] is the two-phase body over
//! prepared subimages.
//!
//! A rank failure other than `Killed` is data, not a panic: the rank
//! closes at once, as a panicking rank does, its typed error lands in
//! [`Outcome::failures`], and the root still assembles every other
//! piece; each rank's `dead_partners` land in [`Outcome::lost_partners`].
//! The `W×H` frame a rank body composites in is leased, not allocated,
//! and holds only the part of the subimage the rank keeps: `Canvas` and
//! `WorkingFrame` below. The root's output frame is the one frame a
//! frame allocates, on the calling thread, while the other ranks work.

use std::sync::{Mutex, MutexGuard, PoisonError};

use vr_comm::{run_group_with, Endpoint, GroupOptions, ScheduleTrace, TrafficStats};
use vr_image::{Image, Rect};
use vr_volume::DepthOrder;

use crate::error::CompositeError;
use crate::gather::{gather_into, GatheredImage};
use crate::methods::{composite_on, CompositeResult, Method};
use crate::stats::MethodStats;

/// Bytes of pixel storage the parked frames may hold together. A frame
/// returned past this is freed instead, so what the process keeps is
/// bounded whatever sizes and group widths it has served.
const MAX_PARKED_BYTES: usize = 256 << 20;

/// Working frames between leases, the most recently returned on top: a
/// rank body that starts right after another ended gets the frame that
/// is still in cache. One stack for the process, not one per
/// experiment or per rank slot — concurrent groups and groups of
/// different widths share it, and a lease never waits for a frame.
static PARKED: Mutex<Parked> = Mutex::new(Parked::new());

struct Parked {
    frames: Vec<Image>,
    /// Σ [`frame_bytes`] over `frames`; never above [`MAX_PARKED_BYTES`].
    bytes: usize,
}

impl Parked {
    const fn new() -> Parked {
        Parked {
            frames: Vec::new(),
            bytes: 0,
        }
    }

    /// Pops until a frame of the wanted size comes up, freeing the
    /// others: a change of image size flushes what the old size left
    /// behind.
    fn take(&mut self, width: u16, height: u16) -> Option<Image> {
        while let Some(frame) = self.frames.pop() {
            self.bytes -= frame_bytes(&frame);
            if (frame.width(), frame.height()) == (width, height) {
                return Some(frame);
            }
        }
        None
    }

    /// Parks `frame`, or frees it if that would pass the cap.
    fn park(&mut self, frame: Image) {
        let bytes = frame_bytes(&frame);
        if self.bytes + bytes <= MAX_PARKED_BYTES {
            self.bytes += bytes;
            self.frames.push(frame);
        }
    }
}

fn frame_bytes(frame: &Image) -> usize {
    std::mem::size_of_val(frame.pixels())
}

/// Every critical section is one [`Parked::take`] or [`Parked::park`],
/// which keep `bytes` in step with `frames` pop by pop, so the stack
/// behind a poisoned lock is still good.
fn parked() -> MutexGuard<'static, Parked> {
    PARKED.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A rank's `W×H` working frame for one frame of the pipeline, leased
/// from the process-wide stack and returned to it on drop — unwinding
/// included, which is safe because an [`Image`]'s extent covers its
/// writes at every step. Resetting a leased frame costs the rows its
/// last user touched, so a rank's per-frame cost follows its rectangle
/// rather than the frame size; no allocation, zero-fill or free.
pub(crate) struct WorkingFrame(Image);

impl WorkingFrame {
    /// A cleared frame holding `src`'s pixels inside `part` and blank
    /// everywhere else ([`Image::copy_part_from`]); allocated only when
    /// no frame of its size is parked.
    fn lease(src: &Image, part: &Rect) -> WorkingFrame {
        // The lock is released before the frame is reset or allocated.
        let leased = parked().take(src.width(), src.height());
        let mut frame = leased.unwrap_or_else(|| Image::blank(src.width(), src.height()));
        frame.copy_part_from(src, part);
        WorkingFrame(frame)
    }
}

impl Drop for WorkingFrame {
    fn drop(&mut self) {
        let frame = std::mem::replace(&mut self.0, Image::blank(0, 0));
        // A write that did not grow the extent first would leak a stale
        // pixel into a later lease; a failed check frees the frame.
        #[cfg(debug_assertions)]
        if !std::thread::panicking() {
            assert!(
                blank_outside_extent(&frame),
                "a working frame holds a pixel outside its extent {:?}",
                frame.extent()
            );
        }
        parked().park(frame);
    }
}

/// Whether every pixel outside `frame`'s extent is `Pixel::BLANK`: the
/// whole-frame scan the debug build runs on every returned lease.
#[cfg(debug_assertions)]
fn blank_outside_extent(frame: &Image) -> bool {
    let e = frame.extent();
    let rows = frame.pixels().chunks(frame.width().max(1) as usize);
    rows.zip(0u16..).all(|(row, y)| {
        let (x0, x1) = if (e.y0..e.y1).contains(&y) {
            (e.x0 as usize, e.x1 as usize)
        } else {
            (0, 0)
        };
        row[..x0].iter().chain(&row[x1..]).all(|p| p.is_blank())
    })
}

/// The image a rank composites in. A rank body starts from its prepared
/// subimage, read-only: the scans a method pays once and its first
/// round's encodes read it there. Before the rank first writes, the
/// working frame is leased and takes only the part of the subimage the
/// rank still reads ([`Canvas::keep`]) — the swap family's kept strip of
/// round 1, since the rest was sent away; the whole extent for every
/// other writer ([`Canvas::frame`]). The public `composite` passes its
/// image `InPlace`: source and working frame at once, nothing copied.
pub(crate) enum Canvas<'a> {
    /// The caller's image, read and written in place.
    InPlace(&'a mut Image),
    /// The prepared subimage, before the rank has written anything.
    Source(&'a Image),
    /// The working frame, once made.
    Leased(WorkingFrame),
}

impl Canvas<'_> {
    /// What the rank reads: the subimage until the working frame is
    /// made, then the working frame.
    pub(crate) fn image(&self) -> &Image {
        match self {
            Canvas::InPlace(image) => image,
            Canvas::Source(source) => source,
            Canvas::Leased(frame) => &frame.0,
        }
    }

    /// Makes the working frame from the subimage's pixels inside `part`,
    /// if it is not made yet; every later read of this rank lies inside
    /// `part`.
    pub(crate) fn keep(&mut self, part: &Rect) {
        if let Canvas::Source(source) = *self {
            *self = Canvas::Leased(WorkingFrame::lease(source, part));
        }
    }

    /// The working frame, made from the whole subimage if no part was
    /// kept before.
    pub(crate) fn frame(&mut self) -> &mut Image {
        let whole = self.image().full_rect();
        self.keep(&whole);
        match self {
            Canvas::InPlace(image) => image,
            Canvas::Leased(frame) => &mut frame.0,
            Canvas::Source(_) => unreachable!("`keep` made the working frame"),
        }
    }
}

/// What one rank's body hands back.
#[derive(Default)]
pub struct RankFrame {
    /// `None` when the rank was killed, or failed, before its composite
    /// finished.
    stats: Option<MethodStats>,
    /// The assembled frame; `Some` at a surviving gather root only.
    gathered: Option<GatheredImage>,
    /// The composite's `dead_partners`.
    lost_partners: Vec<usize>,
    /// The rank's clock and error when its composite or gather failed
    /// with anything but `Killed`.
    failure: Option<(f64, CompositeError)>,
}

impl RankFrame {
    /// The blank `width × height` frame the gather root assembles into:
    /// `Some` at rank 0, `None` elsewhere. Rank 0 runs on the calling
    /// thread, so a body that makes it early — while the other ranks
    /// still work — allocates it on the thread that later frees it, off
    /// the frame's serial tail.
    pub fn root_frame(ep: &Endpoint, width: u16, height: u16) -> Option<Image> {
        (ep.rank() == 0).then(|| Image::blank(width, height))
    }

    /// The tail of every rank body: gathers the composited piece of
    /// `image` at rank 0, into `out` there ([`RankFrame::root_frame`]).
    /// A `Killed` rank contributes nothing further; any other error gives
    /// up ([`Endpoint::give_up`]) and is kept, with the rank's clock, for
    /// [`Outcome::failures`].
    pub fn finish(
        ep: &mut Endpoint,
        image: &Image,
        composited: Result<CompositeResult, CompositeError>,
        out: Option<Image>,
    ) -> RankFrame {
        let mut frame = RankFrame::default();
        let gathered = composited.and_then(|result| {
            frame.stats = Some(result.stats);
            frame.lost_partners = result.dead_partners;
            gather_into(ep, image, &result.piece, 0, out)
        });
        match gathered {
            Ok(gathered) => frame.gathered = gathered,
            Err(CompositeError::Killed { .. }) => {}
            Err(error) => {
                ep.give_up();
                frame.failure = Some((ep.now(), error));
            }
        }
        frame
    }
}

/// One frame's facts, folded once by [`run_frame`]: the record every
/// caller reads — both pipelines, [`run_case`](crate::run_case), `slsvr`,
/// the daemon and the benchmark.
///
/// A lost root — rank 0 killed, or failed before its gather assembled
/// the frame — has one answer: a blank image, coverage 0 and every rank
/// in `missing_ranks`.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The frame assembled at rank 0: blank where pieces are missing,
    /// wholly blank when the root was lost.
    pub image: Image,
    /// Ranks whose owned piece never reached the gather root; every rank
    /// when the root was lost.
    pub missing_ranks: Vec<usize>,
    /// Fraction of image pixels covered by gathered pieces, in `[0, 1]`
    /// (1.0 on a healthy run, 0 when the root was lost).
    pub coverage: f64,
    /// Ranks killed by fault injection (ascending).
    pub dead_ranks: Vec<usize>,
    /// Each rank's `dead_partners`: whose contribution (a dead partner,
    /// or one behind a closed link) it composited without, empty if its
    /// composite never finished; by rank.
    pub lost_partners: Vec<Vec<usize>>,
    /// Every rank whose composite or gather failed with anything but
    /// `Killed`, with its error: the earliest first on the transport's
    /// clock (virtual under a schedule seed), the lower rank on a tie —
    /// the order in which the group re-raises panics. Non-empty means
    /// the frame failed: its image holds only what the root assembled.
    pub failures: Vec<(usize, CompositeError)>,
    /// Per-rank transport counters (every phase the body ran).
    pub traffic: Vec<TrafficStats>,
    /// Per-rank method statistics; `None` for a rank killed, or failed,
    /// before its composite finished.
    pub per_rank: Vec<Option<MethodStats>>,
    /// The schedule the run took, when it ran under virtual time.
    pub schedule: Option<ScheduleTrace>,
    /// Per-rank rendering wall time, seconds, where the pipeline rendered
    /// (informational: the paper's tables cover compositing only).
    pub render_seconds: Vec<f64>,
    /// Bytes of volume data scattered while partitioning (the distributed
    /// pipeline only, else 0).
    pub partition_bytes: u64,
}

impl Outcome {
    /// True when faults degraded this frame: a dead rank, a missing
    /// piece, or a lost partner (which may leave coverage at 1).
    pub fn is_degraded(&self) -> bool {
        !self.dead_ranks.is_empty()
            || !self.missing_ranks.is_empty()
            || self.coverage < 1.0
            || self.lost_partners.iter().any(|lost| !lost.is_empty())
    }

    /// The frame, or its earliest rank failure as the error — how a
    /// caller with no use for a failed frame's partial image reads it.
    pub fn into_result(mut self) -> Result<Outcome, CompositeError> {
        if self.failures.is_empty() {
            Ok(self)
        } else {
            Err(self.failures.swap_remove(0).1)
        }
    }

    /// Peak signal-to-noise ratio of the final image against a
    /// reference (infinite when identical) — the degraded-quality
    /// metric reported alongside coverage.
    pub fn psnr_vs(&self, reference: &Image) -> f64 {
        vr_image::stats::psnr(&self.image, reference)
    }

    /// The frame's summary, the numbers the paper tabulates: maxima over
    /// ranks of each timer, `M_max` over the *compositing* stages only
    /// (gather excluded, as in Section 4), and the bytes all ranks sent.
    /// A rank without stats counts as zero.
    pub fn record(&self) -> FrameRecord {
        let ranks = || self.per_rank.iter().flatten();
        let max = |f: fn(&MethodStats) -> f64| ranks().map(f).fold(0.0, f64::max);
        let (t_comp, t_comm) = (max(|s| s.comp_seconds), max(|s| s.comm_seconds));
        FrameRecord {
            t_comp_ms: t_comp * 1e3,
            t_comm_ms: t_comm * 1e3,
            // Summed in seconds: `t_comp_ms + t_comm_ms` rounds differently.
            t_total_ms: (t_comp + t_comm) * 1e3,
            t_bound_ms: max(|s| s.bound_seconds) * 1e3,
            t_encode_ms: max(|s| s.encode_seconds) * 1e3,
            render_max_ms: self.render_seconds.iter().copied().fold(0.0, f64::max) * 1e3,
            m_max: ranks().map(MethodStats::recv_bytes).max().unwrap_or(0),
            total_bytes: ranks().map(MethodStats::sent_bytes).sum(),
            coverage: self.coverage,
            dead_ranks: self.dead_ranks.len(),
        }
    }
}

/// The one summary of a composited frame, produced by
/// [`Outcome::record`]: the paper's timings broken down by phase and the
/// traffic maxima. vr-system's tables, the sweep CSV and the serving
/// layer's replies all read it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FrameRecord {
    /// Max computation time over ranks, ms (the paper's `T_comp`).
    pub t_comp_ms: f64,
    /// Max modeled communication time over ranks, ms (`T_comm`).
    pub t_comm_ms: f64,
    /// `T_comp + T_comm`, ms (the tables' `T_total`).
    pub t_total_ms: f64,
    /// Max bounding-rectangle scan time over ranks, ms (`T_bound`).
    pub t_bound_ms: f64,
    /// Max run-length-encoding time over ranks, ms (`T_encode`).
    pub t_encode_ms: f64,
    /// The slowest rank's render time, ms (0 when rendering was
    /// skipped): in the two-phase pipeline the summed wall time of the
    /// rank's tiles on the frame's shared board, in the distributed one
    /// the rank's own render, accelerator build included.
    pub render_max_ms: f64,
    /// Maximum received bytes over ranks (the paper's `M_max`).
    pub m_max: u64,
    /// Total bytes sent by all ranks.
    pub total_bytes: u64,
    /// Fraction of image pixels covered by gathered pieces (1.0 healthy).
    pub coverage: f64,
    /// Ranks killed by fault injection.
    pub dead_ranks: usize,
}

/// Runs `body` on `ranks` ranks under `options` and folds the frame, a
/// `width × height` image, into its [`Outcome`]. The body's second value
/// is whatever else the pipeline measures per rank; it comes back
/// indexed by rank beside the outcome.
pub fn run_frame<X: Send>(
    ranks: usize,
    (width, height): (u16, u16),
    options: GroupOptions,
    body: impl Fn(&mut Endpoint) -> (RankFrame, X) + Sync,
) -> (Outcome, Vec<X>) {
    let run = run_group_with(ranks, options, body);
    let (mut per_rank, mut extras, mut gathered) = (Vec::new(), Vec::new(), None);
    let (mut lost_partners, mut failures) = (Vec::new(), Vec::new());
    for (rank, (frame, extra)) in run.results.into_iter().enumerate() {
        per_rank.push(frame.stats);
        extras.push(extra);
        lost_partners.push(frame.lost_partners);
        gathered = gathered.or(frame.gathered);
        failures.extend(frame.failure.map(|(at, error)| (at, rank, error)));
    }
    failures.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let (image, missing_ranks, coverage) = match gathered {
        Some(g) => {
            let coverage = g.coverage();
            (g.image, g.missing_ranks, coverage)
        }
        None => (Image::blank(width, height), (0..ranks).collect(), 0.0),
    };
    let outcome = Outcome {
        image,
        missing_ranks,
        coverage,
        dead_ranks: run.dead_ranks,
        lost_partners,
        failures: failures.into_iter().map(|(_, r, e)| (r, e)).collect(),
        traffic: run.stats,
        per_rank,
        schedule: run.schedule,
        render_seconds: Vec::new(),
        partition_bytes: 0,
    };
    (outcome, extras)
}

/// The two-phase frame: each rank composites its prepared subimage
/// `subimages[rank]` with `method` in `depth` order — reading it in
/// place and writing a leased working frame that holds only what the
/// rank keeps (`Canvas`) — then gathers its piece at rank 0, which
/// makes its output frame first.
pub fn composite_frame(
    method: Method,
    subimages: &[Image],
    depth: &DepthOrder,
    options: GroupOptions,
) -> Outcome {
    let size = (subimages[0].width(), subimages[0].height());
    let (outcome, _) = run_frame(subimages.len(), size, options, |ep| {
        let source = &subimages[ep.rank()];
        let out = RankFrame::root_frame(ep, source.width(), source.height());
        let mut canvas = Canvas::Source(source);
        let composited = composite_on(method, ep, &mut canvas, depth);
        (RankFrame::finish(ep, canvas.image(), composited, out), ())
    });
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_image::{Pixel, Rect};

    #[test]
    fn parked_bytes_never_pass_the_cap() {
        let mut stack = Parked::new();
        // One frame larger than the whole cap is freed, not parked.
        let oversize = Image::blank(4097, 4096);
        assert!(frame_bytes(&oversize) > MAX_PARKED_BYTES);
        stack.park(oversize);
        assert_eq!((stack.frames.len(), stack.bytes), (0, 0));
        // 192 MiB parks; 64 MiB and one row more would pass the cap and
        // is freed; 64 MiB exactly fills it.
        stack.park(Image::blank(4096, 3072));
        stack.park(Image::blank(4096, 1025));
        assert_eq!((stack.frames.len(), stack.bytes), (1, 192 << 20));
        stack.park(Image::blank(4096, 1024));
        assert_eq!((stack.frames.len(), stack.bytes), (2, MAX_PARKED_BYTES));
        stack.park(Image::blank(1, 1));
        assert_eq!((stack.frames.len(), stack.bytes), (2, MAX_PARKED_BYTES));
        // Most recently parked first; the count follows every pop.
        assert_eq!(stack.take(4096, 1024).map(|f| f.height()), Some(1024));
        assert_eq!(stack.bytes, 192 << 20);
    }

    #[test]
    fn a_size_change_flushes_the_stale_frames() {
        let mut stack = Parked::new();
        stack.park(Image::blank(8, 8));
        stack.park(Image::blank(16, 16));
        stack.park(Image::blank(16, 16));
        // Asking for the old size frees both newer frames on the way down.
        assert!(stack.take(8, 8).is_some());
        assert_eq!((stack.frames.len(), stack.bytes), (0, 0));
        // A size nobody parked empties the stack and finds nothing.
        stack.park(Image::blank(16, 16));
        assert!(stack.take(16, 8).is_none());
        assert_eq!((stack.frames.len(), stack.bytes), (0, 0));
    }

    #[test]
    fn a_lease_resets_whatever_the_last_user_left() {
        // Other tests of this binary share the process-wide stack, so
        // which frame a lease gets is not asserted — only what it holds.
        let lit = Pixel::gray(0.5, 1.0);
        let empty = Image::blank(24, 20);
        let mut src = empty.clone();
        src.set(3, 4, lit);
        src.set(20, 15, lit);
        for _ in 0..4 {
            let mut frame = WorkingFrame::lease(&src, &src.full_rect());
            assert_eq!(frame.0, src);
            assert_eq!(frame.0.extent(), Rect::new(3, 4, 21, 16));
            frame.0.pixels_mut().fill(lit); // whole-frame extent
            drop(frame);
            let blank = WorkingFrame::lease(&empty, &empty.full_rect());
            assert_eq!(blank.0.non_blank_count(), 0);
            assert_eq!(blank.0.extent(), Rect::EMPTY);
            drop(blank);
            // A kept part: only the source's pixels inside it, and an
            // extent no wider than it.
            let part = WorkingFrame::lease(&src, &Rect::new(0, 0, 12, 20));
            assert_eq!(part.0.non_blank_count(), 1);
            assert_eq!(part.0.get(3, 4), lit);
            assert_eq!(part.0.extent(), Rect::new(3, 4, 12, 16));
        }
    }

    #[test]
    fn an_unwinding_rank_body_returns_its_frame_usable() {
        let lit = Pixel::gray(0.25, 1.0);
        let empty = Image::blank(24, 20);
        let unwound = std::panic::catch_unwind(|| {
            let mut frame = WorkingFrame::lease(&empty, &empty.full_rect());
            frame
                .0
                .write_rect(&Rect::new(2, 2, 20, 18), &vec![lit; 18 * 16]);
            // A merge that dies half way: refused before it writes.
            frame
                .0
                .write_rect(&Rect::new(10, 10, 30, 18), &vec![lit; 20 * 8]);
        });
        assert!(unwound.is_err());
        let next = WorkingFrame::lease(&empty, &empty.full_rect());
        assert_eq!(next.0.non_blank_count(), 0);
    }

    /// `p` subimages of `w × h`, blank but for a block at each rank's own
    /// offset, so every extent is a part of the frame. The blocks mix
    /// ordinary pixels with `-0.0` components and NaN payloads, which
    /// only a bit-exact path keeps.
    fn odd_subimages(p: usize, w: u16, h: u16) -> Vec<Image> {
        let odd = [
            Pixel::gray(0.5, 0.75),
            Pixel::new(-0.0, 0.0, 0.0, 0.0),
            Pixel::new(0.25, -0.0, 0.5, 0.5),
            Pixel::new(f32::from_bits(0x7fc0_1234), 0.0, 0.0, 0.5),
            Pixel::new(0.1, 0.2, 0.3, f32::from_bits(0xffa0_0001)),
            Pixel::gray(0.2, 0.3),
            Pixel::BLANK,
        ];
        (0..p)
            .map(|r| {
                let (x0, y0) = ((r * 5) as u16 % (w / 2), (r * 3) as u16 % (h / 2));
                let block = Rect::new(x0, y0, x0 + w / 3, y0 + h / 3);
                let mut img = Image::blank(w, h);
                for (i, (x, y)) in block.iter().enumerate() {
                    img.set(x, y, odd[(i * 3 + r) % odd.len()]);
                }
                img
            })
            .collect()
    }

    /// A depth order of `p` ranks shuffled by `seed` (Fisher–Yates over
    /// an xorshift stream).
    fn shuffled(p: usize, seed: u64) -> DepthOrder {
        let mut order: Vec<usize> = (0..p).collect();
        let mut x = seed | 1;
        for i in (1..p).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        DepthOrder::from_sequence(order)
    }

    /// The stats fields that do not depend on the host's clock.
    fn exact(stats: &MethodStats) -> MethodStats {
        MethodStats {
            comp_seconds: 0.0,
            bound_seconds: 0.0,
            encode_seconds: 0.0,
            ..stats.clone()
        }
    }

    const SWAP_FAMILY: [Method; 5] = [
        Method::Bs,
        Method::Bsbr,
        Method::Bsrl,
        Method::Bsbrc,
        Method::RadixK,
    ];

    /// A frame composited from the subimages in place, with working
    /// frames that hold only the kept parts, is the frame of full clones
    /// composited and gathered: the image bit for bit, every rank's
    /// counters and every rank's traffic.
    #[test]
    fn kept_parts_composite_what_full_clones_composite() {
        use crate::methods::composite;
        use vr_image::checksum::fnv1a;
        for (m, method) in SWAP_FAMILY.into_iter().enumerate() {
            for p in [2, 3, 4, 5, 8, 16] {
                let images = odd_subimages(p, 40, 28);
                let depth = shuffled(p, (p * 31 + m) as u64);
                let run = composite_frame(method, &images, &depth, GroupOptions::default());
                let clones = run_group_with(p, GroupOptions::default(), |ep| {
                    let mut img = images[ep.rank()].clone();
                    let result = composite(method, ep, &mut img, &depth).unwrap();
                    let gathered = crate::gather_image_tolerant(ep, &img, &result.piece, 0);
                    (result.stats, gathered.unwrap().map(|g| fnv1a(&g.image)))
                });
                let what = format!("{method:?} P = {p} depth {:?}", depth.front_to_back());
                assert!(
                    run.failures.is_empty() && run.missing_ranks.is_empty(),
                    "{what}"
                );
                assert_eq!(Some(fnv1a(&run.image)), clones.results[0].1, "{what}");
                for (rank, stats) in run.per_rank.iter().enumerate() {
                    let want = exact(&clones.results[rank].0);
                    assert_eq!(stats.as_ref().map(exact), Some(want), "{what} rank {rank}");
                }
                assert_eq!(run.traffic, clones.stats, "{what}");
            }
        }
    }

    /// Every rank of a power-of-two swap-family frame leases a working
    /// frame, and what it parks afterwards lies inside the region it
    /// kept in the first round: nothing it sent away was copied.
    #[test]
    fn a_swap_rank_parks_no_more_than_its_first_kept_region() {
        use crate::methods::{composite_on, swap::round_radices};
        use crate::schedule::strip;
        use vr_comm::{run_group, CostModel};
        for method in SWAP_FAMILY {
            for p in [2, 4, 8, 16] {
                let images = odd_subimages(p, 40, 28);
                let depth = shuffled(p, 7 * p as u64);
                let out = run_group(p, CostModel::free(), |ep| {
                    let mut canvas = Canvas::Source(&images[ep.rank()]);
                    composite_on(method, ep, &mut canvas, &depth).unwrap();
                    match canvas {
                        Canvas::Leased(frame) => frame.0.extent(),
                        _ => panic!("{method:?} P = {p}: rank {} leased nothing", ep.rank()),
                    }
                });
                let radix = match method {
                    Method::RadixK => round_radices(p)[0],
                    _ => 2,
                };
                let order = depth.front_to_back();
                for (rank, extent) in out.results.iter().enumerate() {
                    let v = order.iter().position(|&r| r == rank).unwrap();
                    let kept = strip(images[rank].full_rect(), radix, 0, v % radix);
                    assert!(
                        kept.contains_rect(extent),
                        "{method:?} P = {p} rank {rank}: {extent:?} outside {kept:?}"
                    );
                }
                assert!(
                    out.results.iter().any(|e| !e.is_empty()),
                    "{method:?} P = {p}"
                );
            }
        }
    }
}
