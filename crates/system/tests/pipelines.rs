//! One frame pipeline: the same configuration through the two rank
//! bodies (two-phase, distributed) must yield the same frame and the
//! same modeled record, and the two-phase body must do so at every
//! width of the pool its ranks share one board on.

use std::sync::Arc;
use std::time::Duration;

use slsvr_core::Method;
use vr_image::checksum::fnv1a;
use vr_system::{run_distributed, Experiment, ExperimentConfig, FrameRecord, Outcome, RenderPool};
use vr_volume::{Dataset, DatasetKind};

type Pipeline = (&'static str, fn(&ExperimentConfig) -> Outcome);

/// The two-phase body on a render pool `threads` wide.
fn two_phase(c: &ExperimentConfig, threads: usize) -> Outcome {
    let dataset = Arc::new(Dataset::with_dims(c.dataset, c.resolved_dims()));
    let pool = RenderPool::new(threads);
    Experiment::prepare_with_dataset_pool(c, dataset, Some(&pool)).run(c.method)
}

const POOL_1: Pipeline = ("two-phase, one render thread", |c| two_phase(c, 1));
const POOL_3: Pipeline = ("two-phase, three render threads", |c| two_phase(c, 3));
const DISTRIBUTED: Pipeline = ("distributed", run_distributed);

/// TileStream folds in depth order, so all three produce the sequential
/// reference bit for bit; two ghost voxels make the scattered blocks
/// render exactly what the shared volume does.
fn config() -> ExperimentConfig {
    let mut c = ExperimentConfig::small_test(DatasetKind::EngineLow, 4, Method::TileStream);
    c.ghost_voxels = 2;
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
        for (name, run) in [POOL_1, POOL_3, DISTRIBUTED] {
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
                (r.m_max, r.total_bytes),
                (first.m_max, first.total_bytes),
                "{name}"
            );
            assert!((r.t_comm_ms - first.t_comm_ms).abs() < 1e-9, "{name}");
            assert!((r.t_total_ms - first.t_total_ms).abs() < 1e-9, "{name}");
            assert_eq!((r.coverage, r.dead_ranks), (1.0, 0), "{name}");
        }
        assert!(records.iter().all(|(_, r)| r.render_max_ms > 0.0));
    }
}

#[test]
fn pipeline_specific_outcome_fields_stay_empty_elsewhere() {
    let cfg = config();
    let two_phase = POOL_3.1(&cfg);
    assert_eq!(two_phase.render_seconds.len(), 4);
    assert_eq!(two_phase.partition_bytes, 0);

    let distributed = DISTRIBUTED.1(&cfg);
    assert_eq!(distributed.render_seconds.len(), 4);
    assert!(distributed.partition_bytes as usize >= 32 * 32 * 16);
}

#[test]
fn a_killed_rank_degrades_both_shared_volume_runners_alike() {
    // On real channels a receiver may meet the dead rank at a different
    // operation from run to run, so the holes need not match — the
    // verdict must.
    let cfg = ExperimentConfig {
        faults: Some("kill=2@3,seed=9".parse().unwrap()),
        recv_deadline: Some(Duration::from_secs(5)),
        ..config()
    };
    for (name, run) in [POOL_1, POOL_3] {
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
    let cfg = ExperimentConfig {
        faults: Some("kill=2@3".parse().unwrap()),
        ..config()
    };
    let panic = std::panic::catch_unwind(|| run_distributed(&cfg).coverage)
        .expect_err("ran a knob it silently ignores");
    let message = panic.downcast_ref::<&str>().copied().unwrap_or_default();
    assert!(message.contains("cannot honour faults"), "{message}");
}

/// Rank 0 partitions as `Scene` does and sends every rank its interior,
/// so a balanced partition reaches the ranks. At P = 5 under visible-
/// voxel weights the split planes are not powers of two, where a ghosted
/// local block's gradient tap may round one ulp from the shared
/// volume's: the frames agree within 1e-6, not bit for bit.
#[test]
fn the_distributed_pipeline_honours_a_balanced_partition() {
    let balanced = ExperimentConfig {
        processors: 5,
        balanced_partition: true,
        ..config()
    };
    let distributed = run_distributed(&balanced);
    let shared = Experiment::prepare(&balanced).run(balanced.method);
    let diff = distributed.image.max_abs_diff(&shared.image);
    assert!(diff <= 1e-6, "balanced distributed frame differs by {diff}");
    // The ranks were sent the weighted blocks, not the plain ones.
    let plain = ExperimentConfig {
        balanced_partition: false,
        ..balanced
    };
    assert_ne!(
        distributed.partition_bytes,
        run_distributed(&plain).partition_bytes
    );
}
