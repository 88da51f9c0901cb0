//! The serving layer's determinism contract: a frame requested through
//! `vr-serve` is bit-identical (image hash) to the same
//! `ExperimentConfig` run through `Experiment::run`, whether the reply
//! came fresh, from the cache, or from a coalesced render.

use slsvr_core::Method;
use vr_image::checksum::fnv1a;
use vr_serve::{frame_key, FrameResponse, FrameService, ServeConfig, ServeSource};
use vr_system::{Animation, Experiment, ExperimentConfig, FrameRecord};
use vr_volume::DatasetKind;

fn base(method: Method) -> ExperimentConfig {
    ExperimentConfig::small_test(DatasetKind::EngineHigh, 4, method)
}

fn batch_hash(config: &ExperimentConfig) -> u64 {
    let exp = Experiment::prepare(config);
    fnv1a(&exp.run(config.method).image)
}

fn expect_frame(resp: FrameResponse) -> vr_serve::FrameReply {
    match resp {
        FrameResponse::Frame(reply) => reply,
        other => panic!("expected a frame, got {other:?}"),
    }
}

#[test]
fn served_frame_is_bit_identical_to_batch_run() {
    for method in [Method::Bs, Method::Bsbrc] {
        let config = base(method);
        let service = FrameService::start(ServeConfig::default());
        let session = service.open_session(config);
        let reply = expect_frame(session.request_blocking(config));

        assert_eq!(reply.source, ServeSource::Fresh);
        assert_eq!(reply.frame.key, frame_key(&config));
        let expected = batch_hash(&config);
        assert_eq!(
            reply.frame.image_hash, expected,
            "{method:?}: served image diverged from Experiment::run"
        );
        // The stored hash really is the digest of the stored image.
        assert_eq!(reply.frame.image_hash, fnv1a(&reply.frame.image));
    }
}

#[test]
fn cached_replies_carry_the_same_bits_as_fresh_ones() {
    let config = base(Method::Bsbrc);
    let service = FrameService::start(ServeConfig::default());
    let session = service.open_session(config);

    let fresh = expect_frame(session.request_blocking(config));
    let cached = expect_frame(session.request_blocking(config));
    assert_eq!(cached.source, ServeSource::Cache);
    assert_eq!(cached.frame.image_hash, fresh.frame.image_hash);
    assert_eq!(cached.frame.image_hash, batch_hash(&config));
    // Per-frame metrics ride along unchanged with the cached reply.
    assert_eq!(cached.frame.record, fresh.frame.record);
    assert!(service.stats().cache.hits >= 1);
}

#[test]
fn different_views_get_different_frames_not_stale_cache_entries() {
    let config = base(Method::Bsbrc);
    let service = FrameService::start(ServeConfig::default());
    let session = service.open_session(config);

    let front = expect_frame(session.request_blocking(config));
    let mut turned = config;
    turned.rot_y_deg += 90.0;
    let side = expect_frame(session.request_blocking(turned));
    assert_ne!(front.frame.key, side.frame.key);
    assert_ne!(
        front.frame.image_hash, side.frame.image_hash,
        "a 90° turn must change the image"
    );
    assert_eq!(side.frame.image_hash, batch_hash(&turned));
}

#[test]
fn animation_through_serve_equals_batch_frame_for_frame() {
    let anim = Animation {
        base: base(Method::Bsbrc),
        frames: 4,
        sweep_y_deg: 90.0,
        sweep_x_deg: 10.0,
    };
    let configs = anim.frame_configs(Method::Bsbrc);

    // Batch side: the plain per-frame experiment path.
    let batch_hashes: Vec<u64> = configs.iter().map(batch_hash).collect();

    // Serve side: one session driven through the same frame sequence.
    let service = FrameService::start(ServeConfig::default());
    let session = service.open_session(anim.base);
    let served_hashes: Vec<u64> = configs
        .iter()
        .map(|c| expect_frame(session.request_blocking(*c)).frame.image_hash)
        .collect();

    assert_eq!(
        served_hashes, batch_hashes,
        "serve-driven animation diverged from the batch path"
    );
    assert_eq!(service.stats().rendered_frames, configs.len() as u64);
}

#[test]
fn served_tile_stream_is_the_reference_at_every_thread_count() {
    let config = base(Method::TileStream);
    let exp = Experiment::prepare(&config);
    let batch = fnv1a(&exp.run(Method::TileStream).image);
    assert_eq!(batch, fnv1a(&exp.reference()), "TSTREAM is exact");
    let seeded = ExperimentConfig {
        schedule_seed: Some(11),
        ..config
    };
    // Render wall time is the one record field that is not modeled.
    let modeled = |r: &FrameRecord| FrameRecord {
        render_max_ms: 0.0,
        ..*r
    };
    for render_threads in [1, 2] {
        let service = FrameService::start(ServeConfig {
            workers: 1,
            cache_frames: 0,
            coalesce: false,
            render_threads,
            ..Default::default()
        });
        let session = service.open_session(config);
        let [fresh, first, second] = [config, seeded, seeded].map(|c| {
            let reply = expect_frame(session.request_blocking(c));
            assert_eq!(reply.source, ServeSource::Fresh);
            reply.frame
        });
        for frame in [&fresh, &first, &second] {
            assert_eq!(frame.image_hash, batch, "render_threads {render_threads}");
        }
        assert_eq!(
            modeled(&first.record),
            modeled(&second.record),
            "render_threads {render_threads}: a seeded frame replays"
        );
        assert_eq!(service.shutdown().rendered_frames, 3);
    }
}

#[test]
fn per_frame_metrics_match_the_batch_outcome() {
    let config = base(Method::Bsbrc);
    let service = FrameService::start(ServeConfig::default());
    let session = service.open_session(config);
    let reply = expect_frame(session.request_blocking(config));

    let exp = Experiment::prepare(&config);
    let out = exp.run(config.method);
    let rec = &reply.frame.record;
    assert_eq!(rec.m_max, out.aggregate.m_max);
    assert_eq!(rec.total_bytes, out.aggregate.total_bytes);
    assert!(rec.t_total_ms > 0.0);
    assert!(rec.render_max_ms > 0.0, "render timing must be surfaced");
}
