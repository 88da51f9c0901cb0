//! Open-loop load generation against a vr-serve daemon.
//!
//! Each simulated user session holds one connection and fires requests
//! on its own fixed arrival schedule — *open loop*: arrivals do not wait
//! for completions, so an overloaded service sees the true offered rate
//! and must shed, not silently serialize. Cameras are drawn from a
//! small pose set with a seeded splitmix64 walk, so repeated views
//! exercise the frame cache deterministically (same seed → same request
//! sequence).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use vr_comm::splitmix64;
use vr_image::checksum::fnv1a;
use vr_system::{Animation, ExperimentConfig};

use crate::client::{Client, ClientError};
use crate::metrics::ServiceStats;
use crate::server::DaemonConfig;
use crate::service::{ServeConfig, ServeSource};
use crate::wire::{StatsReply, WireResponse};

/// Load-generator knobs.
#[derive(Clone, Copy, Debug)]
pub struct LoadConfig {
    /// Concurrent user sessions.
    pub sessions: usize,
    /// Requests each session submits.
    pub requests_per_session: usize,
    /// Distinct camera poses cycled through (small = heavy revisiting,
    /// the cache-friendly interactive regime; one pose per request =
    /// a worst-case all-miss sweep).
    pub poses: usize,
    /// Open-loop inter-arrival gap within a session.
    pub inter_arrival: Duration,
    /// Seed for the pose walk.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            sessions: 2,
            requests_per_session: 20,
            poses: 4,
            inter_arrival: Duration::from_millis(5),
            seed: 0x5EED,
        }
    }
}

impl LoadConfig {
    /// A one-shard daemon running `serve`, sized so its edge never
    /// refuses what the service's own admission would take: a window of
    /// a session's whole request count, and a connection per session
    /// plus the stats connection [`run_load`] opens after they close.
    pub fn daemon_config(&self, serve: ServeConfig) -> DaemonConfig {
        DaemonConfig {
            shards: 1,
            window: self.requests_per_session.max(1),
            max_conns: self.sessions + 1,
            serve,
        }
    }
}

/// What the load run observed, aggregated over sessions.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Requests submitted.
    pub submitted: u64,
    /// Replies carrying an image, by source.
    pub ok_fresh: u64,
    /// Cache-served replies.
    pub ok_cached: u64,
    /// Coalesced (superseded, answered with the newest frame) replies.
    pub ok_coalesced: u64,
    /// Degraded frames served above the PSNR floor.
    pub ok_degraded: u64,
    /// Deadline sheds.
    pub shed: u64,
    /// Admission rejections.
    pub overloaded: u64,
    /// Robustness rejections (failed after retries, below the quality
    /// floor, or refused at shutdown).
    pub rejected: u64,
    /// Per-request latencies in milliseconds (successful replies only),
    /// sorted ascending.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the whole run, seconds.
    pub wall_seconds: f64,
    /// The daemon's shard counters, merged, fetched after the run
    /// drained.
    pub service: ServiceStats,
    /// Replies whose pixel payload hashed differently than the
    /// server-computed hash it carried. Always 0 on a healthy link —
    /// the transported frame is bit-identical to the rendered one.
    pub hash_mismatches: u64,
}

impl LoadReport {
    /// The `p`-th latency percentile in ms (`p` in [0, 100]); 0 when no
    /// request succeeded.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        percentile(&self.latencies_ms, p)
    }

    /// Image-carrying replies (degraded included).
    pub fn ok_total(&self) -> u64 {
        self.ok_fresh + self.ok_cached + self.ok_coalesced + self.ok_degraded
    }

    /// Image-carrying replies per wall-clock second.
    pub fn throughput_rps(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.ok_total() as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Fraction of image-carrying replies served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let ok = self.ok_total();
        if ok == 0 {
            0.0
        } else {
            self.ok_cached as f64 / ok as f64
        }
    }
}

/// What one session observed; the sessions' tallies add up to the
/// [`LoadReport`].
#[derive(Default)]
struct Tally {
    submitted: u64,
    ok_fresh: u64,
    ok_cached: u64,
    ok_coalesced: u64,
    ok_degraded: u64,
    shed: u64,
    overloaded: u64,
    rejected: u64,
    hash_mismatches: u64,
    latencies_ms: Vec<f64>,
}

impl Tally {
    /// Counts a reply that carried an image, answered `wait_ms` after
    /// its submission.
    fn frame(&mut self, source: ServeSource, wait_ms: f64) {
        match source {
            ServeSource::Fresh => self.ok_fresh += 1,
            ServeSource::Cache => self.ok_cached += 1,
            ServeSource::Coalesced => self.ok_coalesced += 1,
            ServeSource::Degraded { .. } => self.ok_degraded += 1,
        }
        self.latencies_ms.push(wait_ms);
    }

    /// Adds this session to the run's report.
    fn merge_into(self, report: &mut LoadReport) {
        report.submitted += self.submitted;
        report.ok_fresh += self.ok_fresh;
        report.ok_cached += self.ok_cached;
        report.ok_coalesced += self.ok_coalesced;
        report.ok_degraded += self.ok_degraded;
        report.shed += self.shed;
        report.overloaded += self.overloaded;
        report.rejected += self.rejected;
        report.hash_mismatches += self.hash_mismatches;
        report.latencies_ms.extend(self.latencies_ms);
    }
}

impl LoadReport {
    /// The report of a run that took `wall_seconds`: the sessions'
    /// tallies summed, latencies sorted for percentile lookup.
    fn from_sessions(sessions: impl IntoIterator<Item = Tally>, wall_seconds: f64) -> LoadReport {
        let mut report = LoadReport {
            wall_seconds,
            ..Default::default()
        };
        for tally in sessions {
            tally.merge_into(&mut report);
        }
        report.latencies_ms.sort_by(f64::total_cmp);
        report
    }
}

/// Nearest-rank percentile over an ascending-sorted slice; 0 when empty.
fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// The pose request `i` of session `s` asks for: each session walks its
/// own seeded splitmix64 stream over the pose table.
fn pose_index(load: &LoadConfig, s: usize, i: usize) -> usize {
    let stream = load.seed ^ (s as u64).wrapping_mul(0x9E3779B97F4A7C15);
    (splitmix64(stream, i as u64) % load.poses.max(1) as u64) as usize
}

/// The camera poses a session's requests draw from: `poses` views
/// evenly spread over a 180° y-sweep (plus a 10° x tilt) from `base`,
/// the frames of that [`Animation`].
fn pose_table(base: ExperimentConfig, poses: usize) -> Vec<ExperimentConfig> {
    Animation {
        base,
        frames: poses.max(1),
        sweep_y_deg: 180.0,
        sweep_x_deg: 10.0,
    }
    .frame_configs(base.method)
}

/// Drives `load` against a daemon at `addr` over TCP, one connection
/// per session. Sessions cycle over `bases` (round-robin), so passing
/// configs with distinct `(dataset, dims)` keys spreads the load across
/// shards. Every reply carrying pixels is re-hashed client-side and
/// checked against the server-computed hash it transports
/// ([`LoadReport::hash_mismatches`]). Returns the aggregated report
/// plus the daemon's per-shard stats, fetched on a fresh connection
/// after the load drains.
pub fn run_load(
    addr: SocketAddr,
    bases: &[ExperimentConfig],
    load: &LoadConfig,
) -> Result<(LoadReport, StatsReply), ClientError> {
    assert!(!bases.is_empty(), "need at least one base config");
    // Copied out so the (non-scoped) sender threads can own it.
    let load = *load;
    let start = Instant::now();
    type SessionOut = Result<Tally, ClientError>;
    let mut sessions: Vec<SessionOut> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..load.sessions)
            .map(|s| {
                let poses = pose_table(bases[s % bases.len()], load.poses);
                scope.spawn(move || -> SessionOut {
                    let client = Client::connect(addr)?;
                    let (mut tx_half, mut rx_half) = client.into_split()?;
                    // The sender half fires on the open-loop schedule
                    // while this thread drains responses, so a full
                    // daemon window never stalls the arrival process.
                    let (stamp_tx, stamp_rx) = mpsc::channel::<(u64, Instant)>();
                    let total = load.requests_per_session;
                    let sender = std::thread::Builder::new()
                        .name("vr-loadgen-send".to_string())
                        .spawn(move || -> Result<(), ClientError> {
                            let session_start = Instant::now();
                            for i in 0..total {
                                let due = load.inter_arrival * i as u32;
                                let elapsed = session_start.elapsed();
                                if due > elapsed {
                                    std::thread::sleep(due - elapsed);
                                }
                                let id = tx_half.submit(&poses[pose_index(&load, s, i)])?;
                                let _ = stamp_tx.send((id, Instant::now()));
                            }
                            Ok(())
                        })
                        .expect("spawn loadgen sender");

                    let mut tally = Tally {
                        submitted: total as u64,
                        ..Default::default()
                    };
                    let mut stamps: HashMap<u64, Instant> = HashMap::new();
                    for _ in 0..total {
                        let (id, resp) = rx_half.recv_response()?;
                        let now = Instant::now();
                        // Responses return out of order; pull submit
                        // stamps until this id's has arrived.
                        while !stamps.contains_key(&id) {
                            let (got, at) = stamp_rx.recv().expect("a response implies a submit");
                            stamps.insert(got, at);
                        }
                        let submitted_at = stamps.remove(&id).unwrap();
                        match resp {
                            WireResponse::Frame(frame) => {
                                if fnv1a(&frame.image) != frame.image_hash {
                                    tally.hash_mismatches += 1;
                                }
                                let wait_ms = now.duration_since(submitted_at).as_secs_f64() * 1e3;
                                tally.frame(frame.source, wait_ms);
                            }
                            WireResponse::Shed { .. } => tally.shed += 1,
                            WireResponse::Overloaded { .. } => tally.overloaded += 1,
                            WireResponse::Rejected { .. } => tally.rejected += 1,
                        }
                    }
                    sender.join().expect("loadgen sender thread")?;
                    Ok(tally)
                })
            })
            .collect();
        for h in handles {
            sessions.push(h.join().expect("session thread"));
        }
    });

    let wall_seconds = start.elapsed().as_secs_f64();
    let sessions = sessions.into_iter().collect::<Result<Vec<Tally>, _>>()?;
    let mut report = LoadReport::from_sessions(sessions, wall_seconds);
    let stats = Client::connect(addr)?.stats()?;
    for shard in &stats.shards {
        report.service.merge(shard);
    }
    Ok((report, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Daemon;
    use slsvr_core::Method;
    use vr_volume::DatasetKind;

    fn base() -> ExperimentConfig {
        ExperimentConfig::small_test(DatasetKind::Cube, 2, Method::Bsbrc)
    }

    /// Drives `load` through a one-shard loopback daemon running `serve`,
    /// as `slsvr serve` does without `--connect`.
    fn run_on_loopback(serve: ServeConfig, load: &LoadConfig) -> LoadReport {
        let daemon =
            Daemon::start("127.0.0.1:0", load.daemon_config(serve)).expect("bind loopback");
        let (report, _) = run_load(daemon.local_addr(), &[base()], load).expect("loopback load");
        daemon.shutdown();
        report
    }

    #[test]
    fn every_request_is_answered() {
        let serve = ServeConfig {
            workers: 2,
            ..Default::default()
        };
        let load = LoadConfig {
            sessions: 2,
            requests_per_session: 8,
            poses: 3,
            inter_arrival: Duration::from_millis(1),
            seed: 7,
        };
        let report = run_on_loopback(serve, &load);
        assert_eq!(report.submitted, 16);
        assert_eq!(
            report.ok_total() + report.shed + report.overloaded + report.rejected,
            16
        );
        assert!(report.wall_seconds > 0.0);
        assert_eq!(report.latencies_ms.len() as u64, report.ok_total());
        // Sorted for percentile lookup.
        assert!(report.latencies_ms.windows(2).all(|w| w[0] <= w[1]));
        assert!(report.percentile_ms(99.0) >= report.percentile_ms(50.0));
    }

    #[test]
    fn repeated_poses_hit_the_cache() {
        let serve = ServeConfig {
            workers: 2,
            cache_frames: 16,
            ..Default::default()
        };
        let load = LoadConfig {
            sessions: 2,
            requests_per_session: 12,
            poses: 2,
            inter_arrival: Duration::from_millis(4),
            seed: 11,
        };
        let report = run_on_loopback(serve, &load);
        assert!(
            report.ok_cached > 0,
            "2 poses × 24 requests must revisit: {report:?}"
        );
        assert!(report.hit_rate() > 0.0);
    }

    #[test]
    fn tally_counts_replies_by_source_across_sessions() {
        let degraded = ServeSource::Degraded {
            psnr_db: 30.0,
            coverage: 0.5,
        };
        let mut a = Tally::default();
        a.frame(ServeSource::Fresh, 12.0);
        a.frame(ServeSource::Cache, 1.0);
        a.frame(ServeSource::Fresh, 9.0);
        a.shed += 1;
        let mut b = Tally {
            submitted: 3,
            ..Default::default()
        };
        b.frame(ServeSource::Coalesced, 5.0);
        b.frame(degraded, 2.0);
        b.hash_mismatches += 1;
        let report = LoadReport::from_sessions([a, b], 0.5);
        assert_eq!(
            (report.ok_fresh, report.ok_cached, report.ok_coalesced),
            (2, 1, 1)
        );
        assert_eq!(
            (report.ok_degraded, report.shed, report.submitted),
            (1, 1, 3)
        );
        assert_eq!(report.hash_mismatches, 1);
        assert_eq!(report.latencies_ms, [1.0, 2.0, 5.0, 9.0, 12.0]);
        assert_eq!(report.wall_seconds, 0.5);
    }

    #[test]
    fn pose_walk_is_deterministic() {
        let load = LoadConfig {
            poses: 4,
            ..LoadConfig::default()
        };
        let walk = |s: usize| -> Vec<usize> { (0..8).map(|i| pose_index(&load, s, i)).collect() };
        assert_eq!(walk(1), walk(1));
        assert!(walk(1).iter().all(|&pose| pose < 4));
        assert_ne!(walk(0), walk(1), "sessions walk their own streams");
        let base = base();
        let table = pose_table(base, 4);
        assert_eq!(table[0].rot_y_deg, base.rot_y_deg);
        assert_eq!(table[3].rot_y_deg, base.rot_y_deg + 180.0);
        assert_eq!(pose_table(base, 1)[0].rot_x_deg, base.rot_x_deg);
    }

    /// The f32 bits of every pose's `(rot_x_deg, rot_y_deg)` for
    /// poses ∈ {1, 2, 4, 12} of a base off the axes, as one digest: the
    /// angles every request of a load run carries.
    #[test]
    fn pose_table_is_pinned() {
        let base = ExperimentConfig {
            rot_x_deg: 17.3,
            rot_y_deg: -31.7,
            ..base()
        };
        let mut digest = vr_image::checksum::FNV_OFFSET;
        for poses in [1, 2, 4, 12] {
            for pose in pose_table(base, poses) {
                let (rx, ry) = (pose.rot_x_deg, pose.rot_y_deg);
                digest = vr_image::checksum::fnv1a_bytes(digest, rx.to_bits().to_le_bytes());
                digest = vr_image::checksum::fnv1a_bytes(digest, ry.to_bits().to_le_bytes());
            }
        }
        assert_eq!(digest, 0xdc97608a3b474993);
    }
}
