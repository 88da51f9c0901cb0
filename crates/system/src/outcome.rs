//! What a frame produced, and the one place it is assembled.
//!
//! The three pipelines (two-phase [`Experiment`](crate::Experiment),
//! fused [`StreamExperiment`](crate::StreamExperiment), distributed
//! [`run_distributed`](crate::run_distributed)) differ only in the body a
//! rank runs; [`run_frame`] runs that body on the config's group and
//! [`collect`] folds the per-rank results into the one [`Outcome`].

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
    /// Mean computation time over ranks, seconds.
    pub t_comp_mean: f64,
    /// Mean communication time over ranks, seconds.
    pub t_comm_mean: f64,
    /// Maximum received bytes over ranks (the paper's `M_max`).
    pub m_max: u64,
    /// Total bytes sent by all ranks.
    pub total_bytes: u64,
    /// Critical-path completion time (seconds) from the virtual-time
    /// schedule, including waits on partners — `None` for schedules
    /// with multi-peer stages (direct send, pipeline) or measured
    /// timing. Always ≥ the per-rank sums behind `t_comp`/`t_comm`.
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
/// up to `coverage` are filled by [`collect`] for every pipeline; the
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
    /// Per-rank rendering wall time, seconds (two-phase and distributed;
    /// informational — the paper's tables cover compositing only).
    pub render_seconds: Vec<f64>,
    /// Per-rank fused render+composite wall time, seconds (fused only).
    pub rank_seconds: Vec<f64>,
    /// Whole-frame wall time, the slowest rank, seconds (fused only,
    /// else `0.0`).
    pub total_seconds: f64,
    /// Earliest owned-tile completion offset over ranks, seconds — the
    /// first moment any final pixel block existed (fused only).
    pub first_tile_seconds: Option<f64>,
    /// Latest owned-tile completion offset over ranks (fused only).
    pub last_tile_seconds: Option<f64>,
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

    /// Peak resident pixel-buffer bytes over ranks — the worst rank's
    /// scratch staging watermark from the transport counters.
    pub fn peak_pixel_buffer_bytes(&self) -> u64 {
        self.traffic
            .iter()
            .map(|t| t.peak_pixel_buffer_bytes)
            .max()
            .unwrap_or(0)
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
    let mean = |f: fn(&MethodStats) -> f64| per_rank.iter().map(f).sum::<f64>() / p as f64;
    let aggregate = Aggregate {
        t_comp: max(|s| s.comp_seconds),
        t_comm: max(|s| s.comm_seconds),
        t_comp_mean: mean(|s| s.comp_seconds),
        t_comm_mean: mean(|s| s.comm_seconds),
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
        rank_seconds: Vec::new(),
        total_seconds: 0.0,
        first_tile_seconds: None,
        last_tile_seconds: None,
        partition_bytes: 0,
    };
    (outcome, extras)
}
