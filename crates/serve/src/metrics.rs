//! Service-level counters and the per-frame metrics record.

use crate::cache::CacheCounters;

/// Aggregate counters for one [`FrameService`](crate::FrameService).
///
/// Request dispositions partition `submitted`: every submitted request
/// is eventually answered exactly once, as a fresh render, a cache hit,
/// a coalesced reply (superseded by a newer camera from the same
/// session and answered with that fresh result), a degraded frame
/// served above the PSNR floor, a deadline shed, an `Overloaded`
/// rejection, a robustness rejection (failed / below-floor after
/// retries), or a shutdown rejection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceStats {
    /// Requests submitted to the service.
    pub submitted: u64,
    /// Requests answered by a render performed for them.
    pub completed_fresh: u64,
    /// Requests answered from the LRU frame cache.
    pub completed_cached: u64,
    /// Requests superseded by a newer one from the same session and
    /// answered with the newer frame ("latest wins").
    pub completed_coalesced: u64,
    /// Requests answered with a degraded frame that cleared the PSNR
    /// floor (tagged `ServeSource::Degraded`, never cached).
    pub completed_degraded: u64,
    /// Requests dropped because their deadline passed while queued.
    pub shed_deadline: u64,
    /// Requests rejected at admission because the queue was full.
    pub rejected_overload: u64,
    /// Requests rejected by the robustness layer after render attempts
    /// (every attempt crashed, or no attempt cleared the PSNR floor).
    pub rejected_failed: u64,
    /// Requests answered `Rejected{Shutdown}`: queued waiters drained at
    /// shutdown plus submissions arriving after the queue closed.
    pub rejected_shutdown: u64,
    /// Retry attempts performed beyond each job's first attempt.
    pub frame_retries: u64,
    /// Panics from distributed runs caught by the worker pool (each one
    /// answered explicitly instead of hanging its waiters).
    pub panics_caught: u64,
    /// Resident datasets evicted after their idle TTL.
    pub datasets_evicted: u64,
    /// Worst PSNR (dB) of any degraded frame actually served
    /// (`f64::INFINITY` when none was) — the quality-floor witness.
    pub min_degraded_psnr_db: f64,
    /// Distinct `Experiment` runs performed by the worker pool
    /// (retries included).
    pub rendered_frames: u64,
    /// Deepest the request queue ever got.
    pub peak_queue_depth: usize,
    /// Frame-cache hit/miss/evict counters.
    pub cache: CacheCounters,
}

impl Default for ServiceStats {
    fn default() -> Self {
        ServiceStats {
            submitted: 0,
            completed_fresh: 0,
            completed_cached: 0,
            completed_coalesced: 0,
            completed_degraded: 0,
            shed_deadline: 0,
            rejected_overload: 0,
            rejected_failed: 0,
            rejected_shutdown: 0,
            frame_retries: 0,
            panics_caught: 0,
            datasets_evicted: 0,
            min_degraded_psnr_db: f64::INFINITY,
            rendered_frames: 0,
            peak_queue_depth: 0,
            cache: CacheCounters::default(),
        }
    }
}

impl ServiceStats {
    /// Requests answered with an image (any source, degraded included).
    pub fn completed(&self) -> u64 {
        self.completed_fresh
            + self.completed_cached
            + self.completed_coalesced
            + self.completed_degraded
    }

    /// Requests answered at all (images plus sheds and rejections) —
    /// equals `submitted` once the service has drained.
    pub fn answered(&self) -> u64 {
        self.completed()
            + self.shed_deadline
            + self.rejected_overload
            + self.rejected_failed
            + self.rejected_shutdown
    }

    /// Folds another service's counters into this one — the shard
    /// router's aggregate view. Counters add; the queue watermark takes
    /// the max and the degraded-quality witness takes the min (worst).
    pub fn merge(&mut self, other: &ServiceStats) {
        self.submitted += other.submitted;
        self.completed_fresh += other.completed_fresh;
        self.completed_cached += other.completed_cached;
        self.completed_coalesced += other.completed_coalesced;
        self.completed_degraded += other.completed_degraded;
        self.shed_deadline += other.shed_deadline;
        self.rejected_overload += other.rejected_overload;
        self.rejected_failed += other.rejected_failed;
        self.rejected_shutdown += other.rejected_shutdown;
        self.frame_retries += other.frame_retries;
        self.panics_caught += other.panics_caught;
        self.datasets_evicted += other.datasets_evicted;
        self.min_degraded_psnr_db = self.min_degraded_psnr_db.min(other.min_degraded_psnr_db);
        self.rendered_frames += other.rendered_frames;
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
        self.cache.hits += other.cache.hits;
        self.cache.misses += other.cache.misses;
        self.cache.evictions += other.cache.evictions;
        self.cache.insertions += other.cache.insertions;
    }

    /// Fraction of image-carrying replies served from the cache.
    pub fn serve_hit_rate(&self) -> f64 {
        let total = self.completed();
        if total == 0 {
            0.0
        } else {
            self.completed_cached as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispositions_partition_submissions() {
        let s = ServiceStats {
            submitted: 14,
            completed_fresh: 3,
            completed_cached: 4,
            completed_coalesced: 1,
            completed_degraded: 2,
            shed_deadline: 1,
            rejected_overload: 1,
            rejected_failed: 1,
            rejected_shutdown: 1,
            ..Default::default()
        };
        assert_eq!(s.completed(), 10);
        assert_eq!(s.answered(), 14);
        assert!((s.serve_hit_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counters_and_keeps_extrema() {
        let mut a = ServiceStats {
            submitted: 10,
            completed_fresh: 6,
            rejected_shutdown: 1,
            peak_queue_depth: 3,
            min_degraded_psnr_db: 30.0,
            ..Default::default()
        };
        let b = ServiceStats {
            submitted: 4,
            completed_fresh: 2,
            rejected_overload: 2,
            peak_queue_depth: 7,
            min_degraded_psnr_db: 24.5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.submitted, 14);
        assert_eq!(a.completed_fresh, 8);
        assert_eq!(a.rejected_overload, 2);
        assert_eq!(a.rejected_shutdown, 1);
        assert_eq!(a.peak_queue_depth, 7);
        assert_eq!(a.min_degraded_psnr_db, 24.5);
        // The merged partition still balances.
        assert_eq!(a.answered(), 8 + 2 + 1);
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = ServiceStats::default();
        assert_eq!(s.serve_hit_rate(), 0.0);
        assert_eq!(s.answered(), 0);
        assert_eq!(s.min_degraded_psnr_db, f64::INFINITY);
    }
}
