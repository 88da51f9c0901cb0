//! Horizontal sharding: a router hashing `(dataset, dims)` across N
//! independent [`FrameService`] shards.
//!
//! Each shard owns its worker pool, bounded queue, frame cache and
//! resident datasets, so the hot state partitions cleanly: a dataset's
//! frames, resident build and cache entries all live on exactly one
//! shard, and aggregate throughput scales with the shard count instead
//! of funneling through one queue. Requests for
//! one `(dataset, dims)` always land on the same shard, which keeps
//! the bit-identity and cache-coherence guarantees of a single service
//! intact per key.

use vr_image::checksum::{fnv1a_bytes, FNV_OFFSET};
use vr_system::ExperimentConfig;
use vr_volume::DatasetKind;

use crate::metrics::ServiceStats;
use crate::service::{FrameService, ServeConfig, SessionHandle};

/// FNV-1a over the shard key: the dataset's name bytes plus its
/// resolved voxel dimensions. Stable across runs and processes, and —
/// unlike the frame key, which digests the whole config — equal for
/// every view of one volume.
fn shard_key(dataset: DatasetKind, dims: [usize; 3]) -> u64 {
    let name = fnv1a_bytes(FNV_OFFSET, dataset.name().bytes());
    dims.iter()
        .fold(name, |h, &d| fnv1a_bytes(h, (d as u64).to_le_bytes()))
}

/// N independent [`FrameService`] shards behind one routing function.
pub struct ShardRouter {
    shards: Vec<FrameService>,
}

impl ShardRouter {
    /// Starts `shards` independent services, each configured with
    /// `cfg` (so `workers`, `queue_depth`, `cache_frames`, … are
    /// per-shard budgets).
    pub fn start(cfg: ServeConfig, shards: usize) -> ShardRouter {
        assert!(shards >= 1, "need at least one shard");
        ShardRouter {
            shards: (0..shards).map(|_| FrameService::start(cfg)).collect(),
        }
    }

    /// Number of shards behind the router.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard serves this `(dataset, dims)` key.
    pub fn shard_for(&self, dataset: DatasetKind, dims: [usize; 3]) -> usize {
        (shard_key(dataset, dims) % self.shards.len() as u64) as usize
    }

    /// Direct access to one shard (tests and stats endpoints).
    pub fn shard(&self, index: usize) -> &FrameService {
        &self.shards[index]
    }

    /// Opens a session on the shard owning `base`'s `(dataset, dims)`.
    pub fn open_session(&self, base: ExperimentConfig) -> SessionHandle {
        let idx = self.shard_for(base.dataset, base.resolved_dims());
        self.shards[idx].open_session(base)
    }

    /// Per-shard counter snapshots, in shard-index order.
    pub fn shard_stats(&self) -> Vec<ServiceStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    /// The merged counters across every shard.
    pub fn stats(&self) -> ServiceStats {
        let mut total = ServiceStats::default();
        for s in &self.shards {
            total.merge(&s.stats());
        }
        total
    }

    /// Load-imbalance metric: max over mean of per-shard submissions.
    /// `1.0` is perfectly even, `shard_count` is fully lopsided, `0.0`
    /// means no traffic yet.
    pub fn imbalance(&self) -> f64 {
        let submitted: Vec<u64> = self.shards.iter().map(|s| s.stats().submitted).collect();
        let total: u64 = submitted.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mean = total as f64 / submitted.len() as f64;
        submitted.iter().copied().max().unwrap_or(0) as f64 / mean
    }

    /// Shuts every shard down (draining queued waiters with typed
    /// `Rejected{Shutdown}` answers) and returns the merged counters.
    pub fn shutdown(self) -> ServiceStats {
        let mut total = ServiceStats::default();
        for s in self.shards {
            total.merge(&s.shutdown());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{FrameResponse, ServeSource};
    use slsvr_core::Method;

    fn small(dims_z: usize) -> ExperimentConfig {
        let mut c = ExperimentConfig::small_test(DatasetKind::Cube, 2, Method::Bsbrc);
        c.volume_dims = Some([16, 16, dims_z]);
        c
    }

    fn test_cfg() -> ServeConfig {
        ServeConfig {
            workers: 1,
            render_threads: 1,
            ..Default::default()
        }
    }

    #[test]
    fn routing_is_deterministic_and_key_stable() {
        let router = ShardRouter::start(test_cfg(), 4);
        for z in 8..24 {
            let c = small(z);
            let dims = c.resolved_dims();
            let first = router.shard_for(c.dataset, dims);
            assert_eq!(first, router.shard_for(c.dataset, dims));
            assert!(first < 4);
        }
        // Distinct datasets at the same dims may differ; the hash uses
        // both components.
        assert_ne!(
            shard_key(DatasetKind::Cube, [16, 16, 8]),
            shard_key(DatasetKind::Head, [16, 16, 8]),
        );
        assert_ne!(
            shard_key(DatasetKind::Cube, [16, 16, 8]),
            shard_key(DatasetKind::Cube, [16, 16, 9]),
        );
        router.shutdown();
    }

    #[test]
    fn sessions_route_to_the_owning_shard_and_serve() {
        let router = ShardRouter::start(test_cfg(), 2);
        // Pick two dims that land on different shards.
        let (mut a, mut b) = (None, None);
        for z in 8..64 {
            let c = small(z);
            match router.shard_for(c.dataset, c.resolved_dims()) {
                0 if a.is_none() => a = Some(c),
                1 if b.is_none() => b = Some(c),
                _ => {}
            }
            if a.is_some() && b.is_some() {
                break;
            }
        }
        let (a, b) = (a.expect("a key on shard 0"), b.expect("a key on shard 1"));
        for c in [a, b] {
            let session = router.open_session(c);
            match session.request_blocking(c) {
                FrameResponse::Frame(reply) => assert_eq!(reply.source, ServeSource::Fresh),
                other => panic!("expected a frame, got {other:?}"),
            }
        }
        // Work landed on both shards; the merged view adds up.
        let per_shard = router.shard_stats();
        assert_eq!(per_shard.len(), 2);
        assert_eq!(per_shard[0].submitted, 1);
        assert_eq!(per_shard[1].submitted, 1);
        assert!((router.imbalance() - 1.0).abs() < 1e-12, "perfectly even");
        let total = router.shutdown();
        assert_eq!(total.submitted, 2);
        assert_eq!(total.answered(), 2);
    }

    #[test]
    fn imbalance_reads_zero_idle_and_lopsided_under_skew() {
        let router = ShardRouter::start(test_cfg(), 2);
        assert_eq!(router.imbalance(), 0.0);
        // All traffic on one key = fully lopsided (max/mean = 2).
        let c = small(8);
        let session = router.open_session(c);
        for _ in 0..3 {
            let _ = session.request_blocking(c);
        }
        assert!((router.imbalance() - 2.0).abs() < 1e-12);
        router.shutdown();
    }
}
