//! One frame pipeline: the same configuration through the three rank
//! bodies (two-phase, fused, distributed) must yield the same frame, the
//! same modeled record and the same degraded verdict.

use std::time::Duration;

use slsvr_core::Method;
use vr_image::checksum::fnv1a;
use vr_system::{
    run_distributed, Experiment, ExperimentConfig, FrameRecord, Outcome, StreamExperiment,
};
use vr_volume::DatasetKind;

type Pipeline = (&'static str, fn(&ExperimentConfig) -> Outcome);

const TWO_PHASE: Pipeline = ("two-phase", |c| Experiment::prepare(c).run(c.method));
const FUSED: Pipeline = ("fused", |c| StreamExperiment::prepare(c).run());
const DISTRIBUTED: Pipeline = ("distributed", run_distributed);

/// TileStream folds in depth order, so all three produce the sequential
/// reference bit for bit; two ghost voxels make the scattered blocks
/// render exactly what the shared volume does.
fn config() -> ExperimentConfig {
    let mut c = ExperimentConfig::small_test(DatasetKind::EngineLow, 4, Method::TileStream);
    c.ghost_voxels = 2;
    c.render_threads = 2;
    c
}

#[test]
fn three_pipelines_produce_one_frame_and_one_record() {
    for perspective_distance in [None, Some(1.5)] {
        let cfg = ExperimentConfig {
            perspective_distance,
            ..config()
        };
        let expect = Experiment::prepare(&cfg).reference();
        let mut records = Vec::new();
        for (name, run) in [TWO_PHASE, FUSED, DISTRIBUTED] {
            let out = run(&cfg);
            assert_eq!(fnv1a(&out.image), fnv1a(&expect), "{name} image");
            assert!(!out.is_degraded(), "{name} degraded");
            assert_eq!(out.per_rank.len(), cfg.processors, "{name}");
            assert_eq!(out.traffic.len(), cfg.processors, "{name}");
            records.push((name, FrameRecord::from_outcome(&out)));
        }
        // Every pipeline composites the same subimages with the same
        // method, so everything modeled from bytes and operation counts
        // agrees; T_comm sums per-message terms in arrival order, so it
        // agrees to rounding.
        let (_, first) = records[0];
        for (name, r) in &records[1..] {
            assert_eq!(
                (r.t_comp_ms, r.t_bound_ms, r.t_encode_ms),
                (first.t_comp_ms, first.t_bound_ms, first.t_encode_ms),
                "{name}"
            );
            assert_eq!(
                (r.m_max, r.total_bytes, r.peak_pixel_buffer_bytes),
                (
                    first.m_max,
                    first.total_bytes,
                    first.peak_pixel_buffer_bytes
                ),
                "{name}"
            );
            assert!((r.t_comm_ms - first.t_comm_ms).abs() < 1e-9, "{name}");
            assert!((r.t_total_ms - first.t_total_ms).abs() < 1e-9, "{name}");
            assert_eq!((r.coverage, r.dead_ranks), (1.0, 0), "{name}");
        }
        // The pipeline-specific facts land where documented.
        let by_name = |want: &str| records.iter().find(|(n, _)| *n == want).unwrap().1;
        assert!(by_name("fused").first_tile_ms > 0.0);
        assert_eq!(by_name("two-phase").first_tile_ms, 0.0);
        assert_eq!(by_name("distributed").last_tile_ms, 0.0);
        assert!(records.iter().all(|(_, r)| r.render_max_ms > 0.0));
    }
}

#[test]
fn pipeline_specific_outcome_fields_stay_empty_elsewhere() {
    let cfg = config();
    let two_phase = TWO_PHASE.1(&cfg);
    assert_eq!(two_phase.render_seconds.len(), 4);
    assert!(two_phase.rank_seconds.is_empty());
    assert_eq!(
        (two_phase.total_seconds, two_phase.partition_bytes),
        (0.0, 0)
    );
    assert_eq!(two_phase.first_tile_seconds, None);

    let fused = FUSED.1(&cfg);
    assert_eq!(fused.rank_seconds.len(), 4);
    assert!(fused.render_seconds.is_empty());
    assert!(fused.total_seconds > 0.0 && fused.first_tile_seconds.is_some());
    assert_eq!(fused.partition_bytes, 0);

    let distributed = DISTRIBUTED.1(&cfg);
    assert_eq!(distributed.render_seconds.len(), 4);
    assert!(distributed.partition_bytes as usize >= 32 * 32 * 16);
    assert!(distributed.rank_seconds.is_empty());
    assert_eq!(distributed.last_tile_seconds, None);
}

#[test]
fn a_killed_rank_degrades_both_shared_volume_runners_alike() {
    // The kill fires at a different operation in each body (the fused
    // one interleaves rendering), so the holes need not match — the
    // verdict must.
    let cfg = ExperimentConfig {
        faults: Some("kill=2@3,seed=9".parse().unwrap()),
        recv_deadline: Some(Duration::from_secs(5)),
        ..config()
    };
    for (name, run) in [TWO_PHASE, FUSED] {
        let out = run(&cfg);
        assert_eq!(out.dead_ranks, vec![2], "{name}");
        assert!(out.is_degraded(), "{name}");
        assert!(out.coverage < 1.0, "{name} coverage {}", out.coverage);
        let record = FrameRecord::from_outcome(&out);
        assert_eq!((record.dead_ranks, record.coverage), (1, out.coverage));
    }
}

#[test]
fn the_distributed_pipeline_refuses_what_it_cannot_honour() {
    let refused: [fn(&mut ExperimentConfig); 2] = [
        |c| c.faults = Some("kill=2@3".parse().unwrap()),
        |c| c.balanced_partition = true,
    ];
    for edit in refused {
        let mut cfg = config();
        edit(&mut cfg);
        let panic = std::panic::catch_unwind(|| run_distributed(&cfg).coverage)
            .expect_err("ran a knob it silently ignores");
        let message = panic.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(
            message.contains("neither balanced_partition nor faults"),
            "{message}"
        );
    }
}
