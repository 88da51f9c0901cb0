//! What a frame produced, as the pipeline reports it.
//!
//! The two pipelines (two-phase [`Experiment`](crate::Experiment) and
//! distributed [`run_distributed`](crate::run_distributed)) differ only
//! in the body a rank runs; both run it through slsvr-core's one frame
//! runner ([`slsvr_core::runner`]), and `collect` folds that runner's
//! [`FrameRun`] into the one [`Outcome`]. A rank's typed failure stays a
//! value on the way: [`Outcome::failures`] carries it to the caller,
//! which reports it in its own words.

use slsvr_core::{CompositeError, FrameRun, MethodStats};
use vr_comm::TrafficStats;
use vr_image::Image;

use crate::config::ExperimentConfig;
use crate::report::FrameRecord;

/// The outcome of one frame, whichever pipeline produced it. The fields
/// up to `coverage` are filled by `collect` for every pipeline; the
/// rest are facts only some pipelines have and stay empty elsewhere.
pub struct Outcome {
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
    /// Per rank, the partners (dead, or behind a closed link) whose
    /// contribution it composited without ([`FrameRun::lost_partners`]).
    pub lost_partners: Vec<Vec<usize>>,
    /// Every rank that failed with anything but `Killed`, with its typed
    /// error, earliest first ([`FrameRun::failures`]). Non-empty means
    /// the frame failed: its image holds only what the root still
    /// assembled.
    pub failures: Vec<(usize, CompositeError)>,
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
    pub fn record(&self) -> FrameRecord {
        let ranks = &self.per_rank;
        let max = |f: fn(&MethodStats) -> f64| ranks.iter().map(f).fold(0.0, f64::max);
        let (t_comp, t_comm) = (max(|s| s.comp_seconds), max(|s| s.comm_seconds));
        FrameRecord {
            t_comp_ms: t_comp * 1e3,
            t_comm_ms: t_comm * 1e3,
            // Summed in seconds: `t_comp_ms + t_comm_ms` rounds differently.
            t_total_ms: (t_comp + t_comm) * 1e3,
            t_bound_ms: max(|s| s.bound_seconds) * 1e3,
            t_encode_ms: max(|s| s.encode_seconds) * 1e3,
            render_max_ms: self.render_seconds.iter().copied().fold(0.0, f64::max) * 1e3,
            m_max: ranks.iter().map(MethodStats::recv_bytes).max().unwrap_or(0),
            total_bytes: ranks.iter().map(MethodStats::sent_bytes).sum(),
            coverage: self.coverage,
            dead_ranks: self.dead_ranks.len(),
        }
    }
}

/// Folds a frame run into the [`Outcome`]: every rank's `T_comp` is
/// resolved per `comp_timing` (a killed or failed rank reports all-zero
/// stats), the root's gathered image, holes and coverage are taken (a
/// dead root gathers nothing: a fully blank frame at coverage 0), and
/// the run's failures are carried over as they are.
pub(crate) fn collect<X>(config: &ExperimentConfig, run: FrameRun<X>) -> (Outcome, Vec<X>) {
    let per_rank = run
        .per_rank
        .into_iter()
        .map(|stats| {
            let mut stats = stats.unwrap_or_default();
            config.comp_timing.apply(&mut stats);
            stats
        })
        .collect();
    let (image, missing_ranks, coverage) = match run.gathered {
        Some(g) => {
            let coverage = g.coverage();
            (g.image, g.missing_ranks, coverage)
        }
        None => {
            let size = config.image_size;
            (Image::blank(size, size), Vec::new(), 0.0)
        }
    };

    let outcome = Outcome {
        per_rank,
        traffic: run.traffic,
        image,
        dead_ranks: run.dead_ranks,
        missing_ranks,
        lost_partners: run.lost_partners,
        failures: run.failures,
        coverage,
        render_seconds: Vec::new(),
        partition_bytes: 0,
    };
    (outcome, run.extras)
}
