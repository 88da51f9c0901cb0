//! What a frame produced, and the one place it is assembled.
//!
//! The two pipelines (two-phase [`Experiment`](crate::Experiment) and
//! distributed [`run_distributed`](crate::run_distributed)) differ only
//! in the body a rank runs; `run_frame` runs that body on the config's group and
//! `collect` folds the per-rank results into the one [`Outcome`].
//!
//! The `W×H` frame a rank body composites in is leased, not allocated:
//! `WorkingFrame` below is the one place such frames live between
//! frames.

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, PoisonError};

use slsvr_core::{
    gather_image_tolerant, virtual_completion, CompositeError, CompositeResult, GatheredImage,
    MethodStats,
};
use vr_comm::{run_group_with, Endpoint, GroupRun, TrafficStats};
use vr_image::Image;

use crate::config::{CompTiming, ExperimentConfig};

/// Group-level aggregates of a compositing run.
#[derive(Clone, Debug, Default)]
pub struct Aggregate {
    /// Max measured computation time over ranks, seconds (paper `T_comp`).
    pub t_comp: f64,
    /// Max modeled communication time over ranks, seconds (paper `T_comm`).
    pub t_comm: f64,
    /// Maximum received bytes over ranks (the paper's `M_max`).
    pub m_max: u64,
    /// Total bytes sent by all ranks.
    pub total_bytes: u64,
    /// Critical-path completion time (seconds) from the virtual-time
    /// schedule, including waits on partners — `None` for schedules
    /// with a round of more than one peer (radix-k at `r > 2`, the tile
    /// stream) or measured timing. Always ≥ the per-rank sums behind `t_comp`/`t_comm`.
    pub t_critical_path: Option<f64>,
}

impl Aggregate {
    /// `T_total = T_comp + T_comm` in milliseconds, the paper's table
    /// quantity.
    pub fn t_total_ms(&self) -> f64 {
        (self.t_comp + self.t_comm) * 1e3
    }

    /// `T_comp` in milliseconds.
    pub fn t_comp_ms(&self) -> f64 {
        self.t_comp * 1e3
    }

    /// `T_comm` in milliseconds.
    pub fn t_comm_ms(&self) -> f64 {
        self.t_comm * 1e3
    }
}

/// The outcome of one frame, whichever pipeline produced it. The fields
/// up to `coverage` are filled by `collect` for every pipeline; the
/// rest are facts only some pipelines have and stay empty elsewhere.
pub struct Outcome {
    /// Group aggregates (the numbers the paper tabulates).
    pub aggregate: Aggregate,
    /// Per-rank method statistics (default-empty for killed ranks),
    /// timing source per `comp_timing`.
    pub per_rank: Vec<MethodStats>,
    /// Per-rank transport counters (all phases the pipeline ran).
    pub traffic: Vec<TrafficStats>,
    /// The assembled final image (gathered at rank 0). Blank where dead
    /// ranks left holes; fully blank if fault injection killed rank 0.
    pub image: Image,
    /// Ranks killed by fault injection (empty on a healthy run).
    pub dead_ranks: Vec<usize>,
    /// Ranks whose owned piece never reached the gather root.
    pub missing_ranks: Vec<usize>,
    /// Fraction of image pixels covered by gathered pieces, in `[0, 1]`
    /// (1.0 on a healthy run).
    pub coverage: f64,
    /// Per-rank rendering wall time, seconds (informational — the
    /// paper's tables cover compositing only).
    pub render_seconds: Vec<f64>,
    /// Bytes of volume data scattered while partitioning (distributed
    /// only, else 0).
    pub partition_bytes: u64,
}

impl Outcome {
    /// True when fault injection degraded this run (dead ranks or
    /// image holes).
    pub fn is_degraded(&self) -> bool {
        !self.dead_ranks.is_empty() || !self.missing_ranks.is_empty() || self.coverage < 1.0
    }

    /// Peak signal-to-noise ratio of the final image against a
    /// reference (infinite when identical) — the degraded-quality
    /// metric reported alongside coverage.
    pub fn psnr_vs(&self, reference: &Image) -> f64 {
        vr_image::stats::psnr(&self.image, reference)
    }
}

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
    /// A working copy of `src`: what `src.clone()` would be, and exactly
    /// that when no frame of its size is parked.
    pub(crate) fn copy_of(src: &Image) -> WorkingFrame {
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

impl Deref for WorkingFrame {
    type Target = Image;
    fn deref(&self) -> &Image {
        &self.0
    }
}

impl DerefMut for WorkingFrame {
    fn deref_mut(&mut self) -> &mut Image {
        &mut self.0
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
pub(crate) struct RankFrame {
    /// `None` when the rank was killed before its composite finished.
    stats: Option<MethodStats>,
    /// The assembled frame; `Some` at a surviving gather root only.
    gathered: Option<GatheredImage>,
}

impl RankFrame {
    /// The tail of every rank body: gathers the composited piece of
    /// `image` at rank 0. A `Killed` rank contributes nothing further;
    /// any other error panics with the *typed* error as the payload so
    /// a supervising caller (the frame service worker) can
    /// `catch_unwind`, downcast to `CompositeError` and classify the
    /// failure as transient or structural.
    pub(crate) fn finish(
        ep: &mut Endpoint,
        image: &Image,
        composited: Result<CompositeResult, CompositeError>,
    ) -> RankFrame {
        fn alive<T>(result: Result<T, CompositeError>) -> Option<T> {
            match result {
                Ok(value) => Some(value),
                Err(CompositeError::Killed { .. }) => None,
                Err(e) => std::panic::panic_any(e),
            }
        }
        let Some(result) = alive(composited) else {
            return RankFrame::default();
        };
        RankFrame {
            gathered: alive(gather_image_tolerant(ep, image, &result.piece, 0)).flatten(),
            stats: Some(result.stats),
        }
    }
}

/// Runs `body` on every rank of `config`'s group (cost model, faults,
/// reliability, deadline and schedule seed all from
/// [`ExperimentConfig::group_options`]) and collects the frame. The
/// body's second value is whatever else the pipeline measures per rank;
/// it comes back indexed by rank.
pub(crate) fn run_frame<X: Send>(
    config: &ExperimentConfig,
    body: impl Fn(&mut Endpoint) -> (RankFrame, X) + Sync,
) -> (Outcome, Vec<X>) {
    collect(
        config,
        run_group_with(config.processors, config.group_options(), body),
    )
}

/// Folds a group run into the [`Outcome`]: resolves every rank's
/// `T_comp` per `comp_timing` (a killed rank reports all-zero stats),
/// takes the root's gathered image, holes and coverage (a dead root
/// gathers nothing: a fully blank frame at coverage 0), and computes the
/// aggregates.
fn collect<X>(config: &ExperimentConfig, run: GroupRun<(RankFrame, X)>) -> (Outcome, Vec<X>) {
    let p = config.processors;
    let mut per_rank = Vec::with_capacity(p);
    let mut extras = Vec::with_capacity(p);
    let mut gathered = None;
    for (frame, extra) in run.results {
        let mut stats = frame.stats.unwrap_or_default();
        config.comp_timing.apply(&mut stats);
        per_rank.push(stats);
        extras.push(extra);
        gathered = gathered.or(frame.gathered);
    }
    let (image, missing_ranks, coverage) = match gathered {
        Some(g) => {
            let coverage = g.coverage();
            (g.image, g.missing_ranks, coverage)
        }
        None => {
            let size = config.image_size;
            (Image::blank(size, size), Vec::new(), 0.0)
        }
    };

    let max = |f: fn(&MethodStats) -> f64| per_rank.iter().map(f).fold(0.0, f64::max);
    let aggregate = Aggregate {
        t_comp: max(|s| s.comp_seconds),
        t_comm: max(|s| s.comm_seconds),
        // M_max over the *compositing* stages only (gather excluded), as
        // in Section 4.
        m_max: per_rank.iter().map(|s| s.recv_bytes()).max().unwrap_or(0),
        total_bytes: per_rank.iter().map(|s| s.sent_bytes()).sum(),
        t_critical_path: match config.comp_timing {
            CompTiming::Modeled(cost) => virtual_completion(&per_rank, &config.cost, &cost)
                .map(|vt| vt.into_iter().fold(0.0, f64::max)),
            CompTiming::Measured { .. } => None,
        },
    };
    let outcome = Outcome {
        aggregate,
        per_rank,
        traffic: run.stats,
        image,
        dead_ranks: run.dead_ranks,
        missing_ranks,
        coverage,
        render_seconds: Vec::new(),
        partition_bytes: 0,
    };
    (outcome, extras)
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
            assert_eq!(*frame, src);
            assert_eq!(frame.bounds_hint(), Some(Rect::new(3, 4, 4, 5)));
            frame.pixels_mut().fill(lit); // whole-frame extent, dead hint
            drop(frame);
            let blank = WorkingFrame::copy_of(&empty);
            assert_eq!(blank.non_blank_count(), 0);
            assert_eq!(blank.bounds_hint(), Some(Rect::EMPTY));
        }
    }

    #[test]
    fn an_unwinding_rank_body_returns_its_frame_usable() {
        let lit = Pixel::gray(0.25, 1.0);
        let empty = Image::blank(24, 20);
        let unwound = std::panic::catch_unwind(|| {
            let mut frame = WorkingFrame::copy_of(&empty);
            frame.write_rect(&Rect::new(2, 2, 20, 18), &vec![lit; 18 * 16]);
            // A merge that dies half way: refused before it writes.
            frame.write_rect(&Rect::new(10, 10, 30, 18), &vec![lit; 20 * 8]);
        });
        assert!(unwound.is_err());
        assert_eq!(WorkingFrame::copy_of(&empty).non_blank_count(), 0);
    }
}
