//! Service-level counters: one disposition per answer, on either side of
//! the socket.

use crate::cache::CacheCounters;
use crate::service::{FrameResponse, RejectReason, ServeSource};
use crate::wire::WireResponse;

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
    /// Requests rejected at admission because the shard's queue or the
    /// connection's window was full.
    pub rejected_overload: u64,
    /// Requests rejected by the robustness layer after render attempts
    /// (every attempt crashed, or no attempt cleared the PSNR floor).
    pub rejected_failed: u64,
    /// Requests answered `Rejected{Shutdown}`: queued waiters drained at
    /// shutdown plus submissions arriving after the queue closed.
    pub rejected_shutdown: u64,
    /// Retry attempts performed beyond each job's first attempt.
    pub frame_retries: u64,
    /// Render attempts that ended in a failure: a rank's typed error
    /// (retried when transient) or a caught panic. Each failed job is
    /// answered explicitly instead of hanging its waiters.
    pub failed_attempts: u64,
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
            failed_attempts: 0,
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

    /// Counts one answer under the one disposition its variant (and, for
    /// a frame, its [`ServeSource`]) names; a degraded frame also lowers
    /// the quality witness. The service counts every answer here as it
    /// sends it.
    pub(crate) fn count(&mut self, response: &FrameResponse) {
        match response {
            FrameResponse::Frame(reply) => self.count_frame(reply.source),
            FrameResponse::Overloaded { .. } => self.rejected_overload += 1,
            FrameResponse::Shed { .. } => self.shed_deadline += 1,
            FrameResponse::Rejected { reason, .. } => self.count_rejection(reason),
        }
    }

    /// Counts a reply read off the socket under the disposition the
    /// daemon counted its answer under, so a client and the daemon keep
    /// the same books.
    pub fn count_reply(&mut self, reply: &WireResponse) {
        match reply {
            WireResponse::Frame(frame) => self.count_frame(frame.source),
            WireResponse::Overloaded { .. } => self.rejected_overload += 1,
            WireResponse::Shed { .. } => self.shed_deadline += 1,
            WireResponse::Rejected { reason, .. } => self.count_rejection(reason),
        }
    }

    fn count_frame(&mut self, source: ServeSource) {
        match source {
            ServeSource::Fresh => self.completed_fresh += 1,
            ServeSource::Cache => self.completed_cached += 1,
            ServeSource::Coalesced => self.completed_coalesced += 1,
            ServeSource::Degraded { psnr_db, .. } => {
                self.completed_degraded += 1;
                self.min_degraded_psnr_db = self.min_degraded_psnr_db.min(psnr_db);
            }
        }
    }

    fn count_rejection(&mut self, reason: &RejectReason) {
        match reason {
            RejectReason::Shutdown => self.rejected_shutdown += 1,
            RejectReason::Failed { .. } | RejectReason::QualityFloor { .. } => {
                self.rejected_failed += 1
            }
        }
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
        self.failed_attempts += other.failed_attempts;
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

    /// Every response variant, and every source of a frame, is counted
    /// under exactly one disposition: `answered` rises by one and one
    /// disposition counter moves. The reply a client decodes from the
    /// response's wire bytes is counted under the same one.
    #[test]
    fn each_answer_is_counted_under_one_disposition() {
        use crate::service::{FrameReply, RenderedFrame};
        use std::sync::Arc;
        use vr_image::Image;
        use vr_system::FrameRecord;

        let frame = |source| {
            let frame = Arc::new(RenderedFrame {
                key: 0,
                image: Image::blank(1, 1),
                image_hash: 0,
                record: FrameRecord::default(),
            });
            FrameResponse::Frame(FrameReply {
                frame,
                source,
                wait_seconds: 0.0,
            })
        };
        let rejected = |reason| FrameResponse::Rejected {
            attempts: 2,
            reason,
        };
        type Counter = fn(&ServiceStats) -> u64;
        let cases: [(FrameResponse, Counter); 9] = [
            (frame(ServeSource::Fresh), |s| s.completed_fresh),
            (frame(ServeSource::Cache), |s| s.completed_cached),
            (frame(ServeSource::Coalesced), |s| s.completed_coalesced),
            (
                frame(ServeSource::Degraded {
                    psnr_db: 31.5,
                    coverage: 0.75,
                }),
                |s| s.completed_degraded,
            ),
            (FrameResponse::Overloaded { queue_depth: 4 }, |s| {
                s.rejected_overload
            }),
            (
                FrameResponse::Shed {
                    waited_seconds: 1.0,
                },
                |s| s.shed_deadline,
            ),
            (
                rejected(RejectReason::Failed {
                    error: "boom".into(),
                }),
                |s| s.rejected_failed,
            ),
            (
                rejected(RejectReason::QualityFloor { best_psnr_db: 12.0 }),
                |s| s.rejected_failed,
            ),
            (rejected(RejectReason::Shutdown), |s| s.rejected_shutdown),
        ];
        let dispositions: [Counter; 8] = [
            |s| s.completed_fresh,
            |s| s.completed_cached,
            |s| s.completed_coalesced,
            |s| s.completed_degraded,
            |s| s.shed_deadline,
            |s| s.rejected_overload,
            |s| s.rejected_failed,
            |s| s.rejected_shutdown,
        ];
        for (response, counter) in &cases {
            let mut stats = ServiceStats::default();
            stats.count(response);
            let (_, reply) =
                crate::wire::decode_response(&crate::wire::encode_response(7, response)).unwrap();
            let mut client = ServiceStats::default();
            client.count_reply(&reply);
            assert_eq!(client, stats, "{reply:?}");
            assert_eq!(stats.answered(), 1, "{response:?}");
            assert_eq!(counter(&stats), 1, "{response:?}");
            let moved = dispositions.iter().filter(|d| d(&stats) == 1).count();
            assert_eq!(moved, 1, "{response:?}");
            let degraded = matches!(
                response,
                FrameResponse::Frame(FrameReply {
                    source: ServeSource::Degraded { .. },
                    ..
                })
            );
            let witness = if degraded { 31.5 } else { f64::INFINITY };
            assert_eq!(stats.min_degraded_psnr_db, witness, "{response:?}");
        }
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = ServiceStats::default();
        assert_eq!(s.serve_hit_rate(), 0.0);
        assert_eq!(s.answered(), 0);
        assert_eq!(s.min_degraded_psnr_db, f64::INFINITY);
    }
}
