//! Service-level chaos suite: seeded fault plans driven through the
//! frame service, asserting that every submitted request resolves to
//! exactly one explicit outcome — Frame, Degraded, Rejected, Shed or
//! Overloaded — with no waiter hangs, that degraded frames honor the
//! PSNR floor, and that with faults disabled the served frames stay
//! bit-identical to one-shot batch runs.
//!
//! Every drain uses `recv_timeout`, so a hung waiter fails the test
//! instead of hanging CI. All fault plans are seeded and the compositing
//! groups run under the deterministic virtual clock (`schedule_seed`),
//! so timeouts are simulated time, not wall-clock waits.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use slsvr_core::Method;
use vr_comm::{FaultConfig, KillSpec, ReliabilityConfig};
use vr_image::checksum::fnv1a;
use vr_serve::{
    run_load, Daemon, DegradedFramePolicy, FrameResponse, FrameService, LoadConfig, RejectReason,
    ServeConfig, ServeSource,
};
use vr_system::{Experiment, ExperimentConfig, RenderPool};
use vr_volume::{Dataset, DatasetKind};

/// The tiny base workload every chaos test renders.
fn base() -> ExperimentConfig {
    let mut config = ExperimentConfig::small_test(DatasetKind::Cube, 2, Method::Bsbrc);
    // Virtual clock: receive timeouts and fault delays are simulated, so
    // even a total blackout resolves in milliseconds of wall time.
    config.schedule_seed = Some(17);
    config.recv_deadline = Some(Duration::from_millis(100));
    config
}

/// A fault plan that kills rank 1 early: every frame comes back with a
/// hole (degraded), deterministically on every attempt.
fn kill_rank_1(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        kill: Some(KillSpec {
            rank: 1,
            after_ops: 0,
        }),
        ..Default::default()
    }
}

/// A total blackout: every transmission dropped, no reliability layer —
/// the first receive times out and the run panics with a transient
/// `CompositeError::Comm`.
fn blackout(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        drop: 1.0,
        ..Default::default()
    }
}

/// Drains one response, failing loudly if the service ever hangs.
fn answer(rx: &mpsc::Receiver<FrameResponse>) -> FrameResponse {
    rx.recv_timeout(Duration::from_secs(60))
        .expect("every request is answered within 60 s (no waiter hangs)")
}

#[test]
fn fault_storms_resolve_every_request_exactly_once() {
    // Three qualitatively different seeded plans: a recoverable storm
    // (losses repaired by the reliability layer), a deterministic rank
    // kill (degraded frames), and a total blackout (failures).
    let storm = FaultConfig {
        seed: 7,
        drop: 0.05,
        duplicate: 0.02,
        corrupt: 0.02,
        ..Default::default()
    };
    let plans: Vec<(&str, FaultConfig, ReliabilityConfig)> = vec![
        ("storm", storm, ReliabilityConfig::on()),
        ("kill", kill_rank_1(11), ReliabilityConfig::default()),
        ("blackout", blackout(13), ReliabilityConfig::default()),
    ];
    for (name, faults, reliability) in plans {
        for seed_salt in [0u64, 1, 2] {
            let mut faults = faults;
            faults.seed ^= seed_salt.wrapping_mul(0x9E37_79B9);
            // The campaign rides on every request, as it does on the
            // wire: the service renders each frame under its request.
            let service = FrameService::start(ServeConfig {
                workers: 2,
                cache_frames: 0,
                max_retries: 1,
                degraded: DegradedFramePolicy::accept_all(),
                ..Default::default()
            });
            let sessions: Vec<_> = (0..2).map(|_| service.open_session(base())).collect();
            let mut pending = Vec::new();
            for (s, session) in sessions.iter().enumerate() {
                for i in 0..4 {
                    pending.push(session.request(ExperimentConfig {
                        rot_x_deg: 20.0,
                        rot_y_deg: 30.0 + (s * 4 + i) as f32 * 5.0,
                        faults: Some(faults),
                        reliability,
                        ..base()
                    }));
                }
            }
            let submitted = pending.len() as u64;
            let mut outcomes = 0u64;
            for rx in &pending {
                match answer(rx) {
                    FrameResponse::Frame(_)
                    | FrameResponse::Overloaded { .. }
                    | FrameResponse::Shed { .. }
                    | FrameResponse::Rejected { .. } => outcomes += 1,
                }
                // Exactly once: no second response ever arrives.
                assert!(
                    rx.try_recv().is_err(),
                    "{name}: a request was answered twice"
                );
            }
            assert_eq!(outcomes, submitted);
            let stats = service.shutdown();
            assert_eq!(
                stats.answered(),
                stats.submitted,
                "{name}: dispositions must partition submissions: {stats:?}"
            );
            assert_eq!(stats.submitted, submitted);
        }
    }
}

#[test]
fn faults_disabled_is_bit_identical_to_batch() {
    // Every robustness knob on, faults off: the serving path must stay
    // hash-equal to the one-shot batch path.
    let service = FrameService::start(ServeConfig {
        workers: 2,
        coalesce: false,
        max_retries: 2,
        degraded: DegradedFramePolicy::default(),
        session_ttl: Some(Duration::from_secs(3600)),
        ..Default::default()
    });
    let session = service.open_session(base());
    for (method, ry) in [
        (Method::Bsbrc, 30.0f32),
        (Method::Bs, 75.0),
        (Method::RadixK, 120.0),
    ] {
        let config = ExperimentConfig {
            method,
            rot_y_deg: ry,
            ..base()
        };
        let served = match answer(&session.request(config)) {
            FrameResponse::Frame(reply) => reply,
            other => panic!("healthy request must serve a frame, got {other:?}"),
        };
        assert_eq!(served.source, ServeSource::Fresh);
        let batch = Experiment::prepare(&config).run(method);
        assert_eq!(
            served.frame.image_hash,
            fnv1a(&batch.image),
            "{method:?} served frame differs from the batch run"
        );
    }
    let stats = service.shutdown();
    assert_eq!(stats.frame_retries, 0, "healthy runs must not retry");
    assert_eq!(stats.panics_caught, 0);
    assert_eq!(stats.completed_degraded, 0);
}

/// A frame the faults degraded is served above the floor, tagged, and
/// never cached — whether a killed rank left a hole, or a reliable link
/// ran out of retries and closed, so that rank 0 composited without rank
/// 1's half (`drop=0.5,seed=1`: coverage stays 1, the pixels do not).
#[test]
fn degraded_frame_is_served_above_floor_and_never_cached() {
    let floor = 1.0;
    let service = FrameService::start(ServeConfig {
        workers: 1,
        cache_frames: 16,
        max_retries: 0,
        degraded: DegradedFramePolicy {
            psnr_floor_db: floor,
        },
        ..Default::default()
    });
    let session = service.open_session(base());
    let killed = ExperimentConfig {
        faults: Some(kill_rank_1(3)),
        ..base()
    };
    let closed_link = ExperimentConfig {
        faults: Some(FaultConfig {
            seed: 1,
            drop: 0.5,
            ..Default::default()
        }),
        reliability: ReliabilityConfig::on(),
        ..base()
    };
    for (name, config) in [("kill", killed), ("closed link", closed_link)] {
        for round in 0..2 {
            match answer(&session.request(config)) {
                FrameResponse::Frame(reply) => match reply.source {
                    ServeSource::Degraded { psnr_db, coverage } => {
                        assert!(
                            psnr_db >= floor,
                            "{name} {round}: served PSNR {psnr_db} below the floor {floor}"
                        );
                        if name == "kill" {
                            assert!(
                                coverage < 1.0,
                                "{name} {round}: a killed rank leaves a hole"
                            );
                            assert!(reply.frame.record.dead_ranks >= 1);
                        }
                    }
                    other => panic!("{name} {round}: expected Degraded, got {other:?}"),
                },
                other => panic!("{name} {round}: expected a frame, got {other:?}"),
            }
        }
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed_degraded, 4);
    assert_eq!(
        stats.completed_cached, 0,
        "degraded frames must never be served from the cache"
    );
    assert_eq!(stats.rendered_frames, 4, "each request re-renders");
    assert!(stats.min_degraded_psnr_db >= floor);
    assert!(stats.min_degraded_psnr_db.is_finite());
}

#[test]
fn quality_floor_rejects_after_bounded_retries() {
    let max_retries = 2;
    let service = FrameService::start(ServeConfig {
        workers: 1,
        max_retries,
        // An infinite floor: no degraded frame is ever good enough.
        degraded: DegradedFramePolicy::reject_all(),
        ..Default::default()
    });
    let session = service.open_session(base());
    let killed = ExperimentConfig {
        faults: Some(kill_rank_1(5)),
        ..base()
    };
    match answer(&session.request(killed)) {
        FrameResponse::Rejected { attempts, reason } => {
            assert_eq!(
                attempts,
                max_retries + 1,
                "retries must be bounded by the budget"
            );
            match reason {
                RejectReason::QualityFloor { best_psnr_db } => {
                    assert!(best_psnr_db.is_finite());
                }
                other => panic!("expected QualityFloor, got {other:?}"),
            }
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    let stats = service.shutdown();
    assert_eq!(stats.rendered_frames, u64::from(max_retries) + 1);
    assert_eq!(stats.frame_retries, u64::from(max_retries));
    assert_eq!(stats.rejected_failed, 1);
    assert_eq!(stats.answered(), stats.submitted);
}

/// A payload damaged in transit (no reliable transport to catch it) fails
/// validation as `CompositeError::Malformed` — a *transient* error: the
/// job is retried with re-salted fault decisions, never rejected as a
/// structural crash after one attempt.
#[test]
fn malformed_payload_is_retried_like_any_transient_fault() {
    let max_retries = 3;
    // Small frames over many ranks: most of every payload is header.
    let mut config = base();
    config.image_size = 16;
    config.processors = 8;
    config.method = Method::Bsbr;
    let mut damaged = 0;
    for seed in 1..=8 {
        let service = FrameService::start(ServeConfig {
            workers: 1,
            max_retries,
            ..Default::default()
        });
        let session = service.open_session(config);
        let corrupted = ExperimentConfig {
            faults: Some(FaultConfig {
                seed,
                corrupt: 0.9,
                ..Default::default()
            }),
            ..config
        };
        match answer(&session.request(corrupted)) {
            // The first attempt, or a re-salted one, got through.
            FrameResponse::Frame(_) => {}
            FrameResponse::Rejected {
                attempts,
                reason: RejectReason::Failed { error },
            } => {
                assert!(error.contains("malformed payload"), "seed {seed}: {error}");
                assert_eq!(
                    attempts,
                    max_retries + 1,
                    "only the budget ends the retries"
                );
            }
            other => panic!("seed {seed}: unexpected answer {other:?}"),
        }
        let stats = service.shutdown();
        if stats.panics_caught > 0 {
            damaged += 1;
            assert!(
                stats.frame_retries >= 1,
                "seed {seed}: a malformed frame is retried"
            );
        }
        assert_eq!(stats.answered(), stats.submitted);
    }
    assert!(damaged > 0, "the sweep must damage a header somewhere");
}

/// A fault plan rides on its own request, so its failures are its own:
/// session A's rejected frames never refuse session B's healthy frame on
/// the same dataset and dims.
#[test]
fn one_sessions_fault_plan_never_refuses_another_sessions_frame() {
    let service = FrameService::start(ServeConfig {
        cache_frames: 0,
        max_retries: 0,
        degraded: DegradedFramePolicy::reject_all(),
        ..Default::default()
    });
    let session_a = service.open_session(base());
    for i in 0..3 {
        let poisoned = ExperimentConfig {
            faults: Some(kill_rank_1(100 + i)),
            ..base()
        };
        match answer(&session_a.request(poisoned)) {
            FrameResponse::Rejected {
                reason: RejectReason::QualityFloor { .. },
                ..
            } => {}
            other => panic!("poisoned request {i} must reject on quality, got {other:?}"),
        }
    }
    let session_b = service.open_session(base());
    let served = match answer(&session_b.request(base())) {
        FrameResponse::Frame(reply) => reply,
        other => panic!("a healthy session must be served, got {other:?}"),
    };
    assert_eq!(served.source, ServeSource::Fresh);
    let batch = Experiment::prepare(&base()).run(base().method);
    assert_eq!(served.frame.image_hash, fnv1a(&batch.image));
    let stats = service.shutdown();
    assert_eq!(stats.rejected_failed, 3);
    assert_eq!(stats.completed_fresh, 1);
    assert_eq!(stats.answered(), stats.submitted);
}

#[test]
fn poisoned_job_answers_its_waiter_and_the_worker_survives() {
    // One worker: if the blackout panic killed it, the follow-up healthy
    // request would hang forever (recv_timeout turns that into a fail).
    let service = FrameService::start(ServeConfig {
        workers: 1,
        cache_frames: 0,
        max_retries: 1,
        ..Default::default()
    });
    let session = service.open_session(base());
    let mut poisoned = base();
    poisoned.faults = Some(blackout(21));
    match answer(&session.request(poisoned)) {
        FrameResponse::Rejected { attempts, reason } => {
            assert_eq!(attempts, 2, "one transient retry before giving up");
            match reason {
                RejectReason::Failed { error } => {
                    assert!(
                        error.contains("communication failed"),
                        "the typed panic payload must survive: {error}"
                    );
                }
                other => panic!("expected Failed, got {other:?}"),
            }
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    // The same (sole) worker still serves.
    match answer(&session.request(base())) {
        FrameResponse::Frame(reply) => assert_eq!(reply.source, ServeSource::Fresh),
        other => panic!("worker died: expected a frame, got {other:?}"),
    }
    let stats = service.shutdown();
    assert!(
        stats.panics_caught >= 1,
        "the blackout panic must be caught: {stats:?}"
    );
    assert_eq!(stats.answered(), stats.submitted);
}

#[test]
fn threaded_render_survives_chaos_and_stays_bit_identical() {
    // The worker's render pool must ride out a poisoned job:
    // the blackout panic is caught at the serve layer with its typed
    // payload intact, the pool is not left hung or poisoned, and the
    // follow-up healthy frame — rendered across the pool with lane
    // batching on — hashes equal to the scalar single-threaded batch run.
    let service = FrameService::start(ServeConfig {
        workers: 1,
        cache_frames: 0,
        max_retries: 1,
        // Two render threads per worker: the chaos path exercises the
        // pooled renderer, not the sequential one.
        render_threads: 2,
        ..Default::default()
    });
    let session = service.open_session(base());
    let mut poisoned = base();
    poisoned.faults = Some(blackout(29));
    match answer(&session.request(poisoned)) {
        FrameResponse::Rejected { attempts, reason } => {
            assert_eq!(attempts, 2, "one transient retry before giving up");
            match reason {
                RejectReason::Failed { error } => assert!(
                    error.contains("communication failed"),
                    "the typed panic payload must survive the pool: {error}"
                ),
                other => panic!("expected Failed, got {other:?}"),
            }
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    // The same worker — and the same render pool — still serves, and the
    // threaded frame is bit-identical to the scalar reference.
    // Four sample lanes, carried by the request itself.
    let lanes = ExperimentConfig {
        simd_lanes: 4,
        ..base()
    };
    let served = match answer(&session.request(lanes)) {
        FrameResponse::Frame(reply) => {
            assert_eq!(reply.source, ServeSource::Fresh);
            reply
        }
        other => panic!("pool hung or died: expected a frame, got {other:?}"),
    };
    let mut scalar = base();
    scalar.simd_lanes = 1;
    let dataset = Arc::new(Dataset::with_dims(scalar.dataset, scalar.resolved_dims()));
    let inline = RenderPool::new(1);
    let batch =
        Experiment::prepare_with_dataset_pool(&scalar, dataset, Some(&inline)).run(scalar.method);
    assert_eq!(
        served.frame.image_hash,
        fnv1a(&batch.image),
        "threaded chaos-path frame differs from the scalar batch run"
    );
    let stats = service.shutdown();
    assert!(
        stats.panics_caught >= 1,
        "the blackout panic must be caught: {stats:?}"
    );
    assert_eq!(stats.answered(), stats.submitted);
}

#[test]
fn chaos_load_generation_partitions_every_outcome() {
    // The load generator under a seeded kill plan, through a one-shard
    // loopback daemon: requests resolve to images (fresh/coalesced/
    // degraded) or explicit rejections, and the dispositions partition
    // the offered load exactly.
    let serve = ServeConfig {
        workers: 2,
        cache_frames: 16,
        max_retries: 0,
        degraded: DegradedFramePolicy::accept_all(),
        ..Default::default()
    };
    let load = LoadConfig {
        sessions: 2,
        requests_per_session: 6,
        poses: 2,
        inter_arrival: Duration::from_millis(1),
        seed: 23,
    };
    let daemon = Daemon::start("127.0.0.1:0", load.daemon_config(serve)).expect("bind loopback");
    let killed = ExperimentConfig {
        faults: Some(kill_rank_1(31)),
        ..base()
    };
    let (report, _) = run_load(daemon.local_addr(), &[killed], &load).expect("loopback load");
    let replies = &report.replies;
    assert_eq!(replies.submitted, 12);
    assert_eq!(
        replies.answered(),
        replies.submitted,
        "loadgen dispositions must partition submissions: {report:?}"
    );
    assert!(
        replies.completed_degraded > 0,
        "a permanent kill plan must serve degraded frames: {report:?}"
    );
    assert_eq!(report.latencies_ms.len() as u64, replies.completed());
    let stats = daemon.shutdown();
    assert_eq!(stats.answered(), stats.submitted);
    assert_eq!(
        stats.completed_cached, 0,
        "degraded frames must not populate the cache"
    );
}
