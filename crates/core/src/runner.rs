//! The one frame runner. Every compositing frame — `slsvr render`, the
//! daemon, the benchmark, the conformance corpus and the pins — is a
//! [`run_frame`]: a group run of a rank body ending in
//! [`RankFrame::finish`], folded into one [`FrameRun`].
//! [`composite_frame`] is the two-phase body over prepared subimages.
//!
//! A rank failure other than `Killed` is data, not a panic: the rank
//! closes at once, as a panicking rank does, its typed error lands in
//! [`FrameRun::failures`], and the root still assembles every other
//! piece; each rank's `dead_partners` land in [`FrameRun::lost_partners`].
//! The `W×H` frame a rank body composites in is leased, not allocated:
//! `WorkingFrame` below is where such frames live between frames.

use std::sync::{Mutex, MutexGuard, PoisonError};

use vr_comm::{run_group_with, Endpoint, GroupOptions, ScheduleTrace, TrafficStats};
use vr_image::Image;
use vr_volume::DepthOrder;

use crate::error::CompositeError;
use crate::gather::{gather_image_tolerant, GatheredImage};
use crate::methods::{composite, CompositeResult, Method};
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
struct WorkingFrame(Image);

impl WorkingFrame {
    /// A working copy of `src`: what `src.clone()` would be, and exactly
    /// that when no frame of its size is parked.
    fn copy_of(src: &Image) -> WorkingFrame {
        // The lock is released before the frame is reset or allocated.
        let leased = parked().take(src.width(), src.height());
        WorkingFrame(match leased {
            Some(mut frame) => {
                frame.clone_from(src);
                frame
            }
            None => src.clone(),
        })
    }
}

impl Drop for WorkingFrame {
    fn drop(&mut self) {
        let frame = std::mem::replace(&mut self.0, Image::blank(0, 0));
        parked().park(frame);
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
    /// The tail of every rank body: gathers the composited piece of
    /// `image` at rank 0. A `Killed` rank contributes nothing further;
    /// any other error gives up ([`Endpoint::give_up`]) and is kept,
    /// with the rank's clock, for [`FrameRun::failures`].
    pub fn finish(
        ep: &mut Endpoint,
        image: &Image,
        composited: Result<CompositeResult, CompositeError>,
    ) -> RankFrame {
        let mut frame = RankFrame::default();
        let gathered = composited.and_then(|result| {
            frame.stats = Some(result.stats);
            frame.lost_partners = result.dead_partners;
            gather_image_tolerant(ep, image, &result.piece, 0)
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

/// One frame, rank by rank, as the runner folds it.
pub struct FrameRun<X> {
    /// Per-rank method statistics; `None` for a rank killed, or failed,
    /// before its composite finished.
    pub per_rank: Vec<Option<MethodStats>>,
    /// Whatever else each rank's body measured, by rank.
    pub extras: Vec<X>,
    /// The frame assembled at rank 0; `None` when the root died or
    /// failed.
    pub gathered: Option<GatheredImage>,
    /// Per-rank transport counters (every phase the body ran).
    pub traffic: Vec<TrafficStats>,
    /// Ranks killed by fault injection (ascending).
    pub dead_ranks: Vec<usize>,
    /// Each rank's `dead_partners`: whose contribution it composited
    /// without (empty if its composite never finished), by rank.
    pub lost_partners: Vec<Vec<usize>>,
    /// Every rank whose composite or gather failed with anything but
    /// `Killed`, with its error: the earliest first on the transport's
    /// clock (virtual under a schedule seed), the lower rank on a tie —
    /// the order in which the group re-raises panics.
    pub failures: Vec<(usize, CompositeError)>,
    /// The schedule the run took, when it ran under virtual time.
    pub schedule: Option<ScheduleTrace>,
}

/// Runs `body` on `ranks` ranks under `options` and folds the frame.
/// The body's second value is whatever else the pipeline measures per
/// rank; it comes back indexed by rank in [`FrameRun::extras`].
pub fn run_frame<X: Send>(
    ranks: usize,
    options: GroupOptions,
    body: impl Fn(&mut Endpoint) -> (RankFrame, X) + Sync,
) -> FrameRun<X> {
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
    FrameRun {
        per_rank,
        extras,
        gathered,
        traffic: run.stats,
        dead_ranks: run.dead_ranks,
        lost_partners,
        failures: failures.into_iter().map(|(_, r, e)| (r, e)).collect(),
        schedule: run.schedule,
    }
}

/// The two-phase frame: each rank composites a working copy of its
/// prepared subimage `subimages[rank]` with `method` in `depth` order,
/// then gathers its piece at rank 0.
pub fn composite_frame(
    method: Method,
    subimages: &[Image],
    depth: &DepthOrder,
    options: GroupOptions,
) -> FrameRun<()> {
    run_frame(subimages.len(), options, |ep| {
        let mut frame = WorkingFrame::copy_of(&subimages[ep.rank()]);
        let composited = composite(method, ep, &mut frame.0, depth);
        (RankFrame::finish(ep, &frame.0, composited), ())
    })
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
        for _ in 0..4 {
            let mut frame = WorkingFrame::copy_of(&src);
            assert_eq!(frame.0, src);
            assert_eq!(frame.0.extent(), Rect::new(3, 4, 4, 5));
            frame.0.pixels_mut().fill(lit); // whole-frame extent
            drop(frame);
            let blank = WorkingFrame::copy_of(&empty);
            assert_eq!(blank.0.non_blank_count(), 0);
            assert_eq!(blank.0.extent(), Rect::EMPTY);
        }
    }

    #[test]
    fn an_unwinding_rank_body_returns_its_frame_usable() {
        let lit = Pixel::gray(0.25, 1.0);
        let empty = Image::blank(24, 20);
        let unwound = std::panic::catch_unwind(|| {
            let mut frame = WorkingFrame::copy_of(&empty);
            frame
                .0
                .write_rect(&Rect::new(2, 2, 20, 18), &vec![lit; 18 * 16]);
            // A merge that dies half way: refused before it writes.
            frame
                .0
                .write_rect(&Rect::new(10, 10, 30, 18), &vec![lit; 20 * 8]);
        });
        assert!(unwound.is_err());
        assert_eq!(WorkingFrame::copy_of(&empty).0.non_blank_count(), 0);
    }
}
