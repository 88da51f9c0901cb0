//! The fully distributed three-phase pipeline (Figure 1 of the paper):
//! **partitioning** (the input rank scatters subvolume blocks over the
//! network), **rendering** (each rank ray-casts only its locally held
//! block) and **compositing** (any of the implemented methods), ending
//! with the gather that assembles the display image.
//!
//! This differs from [`Experiment`](crate::experiment::Experiment),
//! which shares the volume in memory and pre-renders once so that the
//! compositing phase can be isolated and re-run per method (the paper's
//! measurement methodology). Here everything — including the
//! partitioning traffic the paper treats as a separate phase — flows
//! through the communication substrate.

use bytes::Bytes;

use slsvr_core::{composite, run_frame, CompositeError, RankFrame};
use vr_comm::{broadcast, scatter};
use vr_image::Image;
use vr_render::{render_clips, RenderAccel};
use vr_volume::io::{decode_block, encode_block};
use vr_volume::{Dataset, DepthOrder, MacrocellGrid, Subvolume};

use crate::config::ExperimentConfig;
use crate::outcome::{collect, Outcome};
use crate::scene::Scene;

/// Tags for the pipeline's own phases (distinct from compositing tags).
const TAG_SCATTER: u32 = 0x5CA7;
const TAG_LAYOUT: u32 = 0xDE72;

/// Runs the full three-phase system for `config`, with rank 0 acting as
/// the data source. The outcome carries the scattered `partition_bytes`
/// and the per-rank `render_seconds`; its traffic counts all phases.
/// Each rank renders its block inline: the P rank threads are the
/// render parallelism.
///
/// Panics on the one knob this pipeline cannot honour: the partitioning
/// collectives treat any lost message as fatal, so no `faults`.
pub fn run_distributed(config: &ExperimentConfig) -> Outcome {
    assert!(
        config.faults.is_none(),
        "the distributed pipeline cannot honour faults"
    );
    let dims = config.resolved_dims();
    let camera = Scene::camera(config);
    let params = Scene::render_params(config);
    let p = config.processors;
    let transfer = config.dataset.transfer();

    let run = run_frame(p, config.group_options(), |ep| {
        // ---- Phase 1: partitioning --------------------------------
        // Rank 0 builds the dataset, partitions it as `Scene` does and
        // scatters the encoded blocks; everyone receives theirs. The
        // layout is broadcast alongside — the depth order, then every
        // rank's exclusive interior as origin and dims — because both
        // come from the partition, which only rank 0 holds.
        let (blocks, layout) = if ep.rank() == 0 {
            let dataset = Dataset::with_dims(config.dataset, dims);
            let partition = Scene::partition(config, &dataset);
            let depth = Scene::depth_order(&camera, &partition);
            let blocks: Vec<Bytes> = partition
                .subvolumes()
                .iter()
                .map(|b| {
                    // Ship the ghost-expanded block; the layout carries
                    // the exclusive interior.
                    let padded = b.expanded(config.ghost_voxels, dims);
                    Bytes::from(encode_block(&dataset.volume, &padded))
                })
                .collect();
            let interiors = partition
                .subvolumes()
                .iter()
                .flat_map(|b| b.origin.into_iter().chain(b.dims));
            let layout: Vec<u8> = depth
                .front_to_back()
                .iter()
                .copied()
                .chain(interiors)
                .flat_map(|word| (word as u32).to_le_bytes())
                .collect();
            (Some(blocks), Some(Bytes::from(layout)))
        } else {
            (None, None)
        };
        // A rank whose partitioning fails has nothing to render: its
        // error is the frame's, as a compositing failure is.
        let received = scatter(ep, 0, TAG_SCATTER, blocks)
            .and_then(|block| Ok((block, broadcast(ep, 0, TAG_LAYOUT, layout)?)));
        let (my_block, layout) = match received {
            Ok(received) => received,
            Err(e) => {
                let failed = Err(CompositeError::from_comm("partitioning", e));
                let blank = Image::blank(camera.width, camera.height);
                return (RankFrame::finish(ep, &blank, failed, None), (0.0, 0));
            }
        };
        let partition_bytes = my_block.len() as u64;
        let words: Vec<usize> = layout
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")) as usize)
            .collect();
        let (order, interiors) = words.split_at(p);
        let depth = DepthOrder::from_sequence(order.to_vec());
        // The gather root's output frame, made once its sends are out and
        // while the other ranks render.
        let out = RankFrame::root_frame(ep, camera.width, camera.height);

        // ---- Phase 2: rendering (local data only) ------------------
        // The received placement is the ghost-expanded box; rays
        // integrate only the rank's exclusive interior, so no ghost-owned
        // space is integrated twice.
        let (placement, local) = decode_block(&my_block).expect("valid block message");
        let box_words = &interiors[6 * ep.rank()..][..6];
        let interior = Subvolume {
            rank: ep.rank(),
            origin: [box_words[0], box_words[1], box_words[2]],
            dims: [box_words[3], box_words[4], box_words[5]],
        };
        // Each rank builds its own macrocell grid over the block it
        // holds — the per-subvolume acceleration structure of the
        // distributed-memory setting, built from local data only. The
        // build is part of the rendering phase and is timed with it.
        let start = std::time::Instant::now();
        let accel = (config.macrocell >= 1).then(|| {
            RenderAccel::new(
                std::sync::Arc::new(MacrocellGrid::build(&local, config.macrocell)),
                &transfer,
                &params,
            )
        });
        let (mut images, _) = render_clips(
            &local,
            &placement,
            std::slice::from_ref(&interior),
            &transfer,
            &camera,
            &params,
            accel.as_ref(),
            config.tile,
            None,
        );
        let mut image = images.pop().expect("one clip, one image");
        let render_seconds = start.elapsed().as_secs_f64();

        // ---- Phase 3: compositing + gather --------------------------
        let composited = composite(config.method, ep, &mut image, &depth);
        let frame = RankFrame::finish(ep, &image, composited, out);
        (frame, (render_seconds, partition_bytes))
    });
    let (outcome, extras) = collect(config, run);

    Outcome {
        partition_bytes: extras.iter().map(|&(_, bytes)| bytes).sum(),
        render_seconds: extras.into_iter().map(|(seconds, _)| seconds).collect(),
        ..outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slsvr_core::Method;
    use vr_volume::DatasetKind;

    fn config(p: usize, method: Method) -> ExperimentConfig {
        ExperimentConfig {
            dataset: DatasetKind::EngineLow,
            image_size: 64,
            processors: p,
            method,
            volume_dims: Some([32, 32, 16]),
            step: 2.0,
            ..Default::default()
        }
    }

    #[test]
    fn distributed_pipeline_produces_a_plausible_image() {
        let out = run_distributed(&config(4, Method::Bsbrc));
        assert!(out.image.non_blank_count() > 0);
        assert_eq!(out.render_seconds.len(), 4);
        // Partition phase shipped every non-root block (3 of 4 blocks of
        // a 32·32·16 volume plus headers).
        assert!(out.partition_bytes as usize >= 32 * 32 * 16);
    }

    #[test]
    fn distributed_methods_agree_with_each_other() {
        // All methods consume identical locally rendered subimages, so
        // their outputs must agree to float tolerance.
        let a = run_distributed(&config(4, Method::Bsbrc)).image;
        for method in [
            Method::Bs,
            Method::Bsbr,
            Method::Bslc,
            Method::RadixK,
            Method::TileStream,
        ] {
            let b = run_distributed(&config(4, method)).image;
            let diff = a.max_abs_diff(&b);
            assert!(diff < 2e-4, "{method:?} differs by {diff}");
        }
    }

    #[test]
    fn distributed_image_close_to_shared_memory_pipeline() {
        // Seams aside, the distributed image must broadly match the
        // shared-volume experiment image.
        let cfg = config(4, Method::Bsbrc);
        let dist = run_distributed(&cfg).image;
        let shared = crate::experiment::Experiment::prepare(&cfg)
            .run(Method::Bsbrc)
            .image;
        let mut differing = 0usize;
        for (a, b) in dist.pixels().iter().zip(shared.pixels()) {
            if a.max_abs_diff(b) > 0.08 {
                differing += 1;
            }
        }
        assert!(
            differing < dist.area() / 20,
            "{differing}/{} pixels differ beyond seam tolerance",
            dist.area()
        );
    }

    #[test]
    fn ghost_layers_make_distributed_match_shared_exactly() {
        let mut cfg = config(4, Method::Bsbrc);
        cfg.ghost_voxels = 2;
        let dist = run_distributed(&cfg).image;
        let shared = crate::experiment::Experiment::prepare(&cfg)
            .run(Method::Bsbrc)
            .image;
        let diff = dist.max_abs_diff(&shared);
        assert!(diff < 1e-6, "ghosted distributed render differs by {diff}");
    }

    #[test]
    fn ghosted_perspective_distributed_matches_shared_exactly() {
        // The camera and the eye-based depth order come from the shared
        // derivation, so perspective is honoured, not silently dropped.
        let mut cfg = config(4, Method::Bsbrc);
        cfg.ghost_voxels = 2;
        cfg.perspective_distance = Some(1.5);
        let dist = run_distributed(&cfg).image;
        let shared = crate::experiment::Experiment::prepare(&cfg)
            .run(Method::Bsbrc)
            .image;
        assert_eq!(
            vr_image::checksum::fnv1a(&dist),
            vr_image::checksum::fnv1a(&shared),
            "ghosted perspective distributed render differs by {}",
            dist.max_abs_diff(&shared)
        );
        cfg.perspective_distance = None;
        let ortho = run_distributed(&cfg).image;
        assert!(dist.max_abs_diff(&ortho) > 0.0, "perspective was ignored");
    }

    #[test]
    fn schedule_seed_makes_the_distributed_run_replayable() {
        let mut cfg = config(4, Method::Bsbrc);
        cfg.schedule_seed = Some(42);
        let a = run_distributed(&cfg);
        let b = run_distributed(&cfg);
        assert_eq!(a.traffic, b.traffic);
        assert_eq!(
            vr_image::checksum::fnv1a(&a.image),
            vr_image::checksum::fnv1a(&b.image)
        );
        cfg.schedule_seed = None;
        let real = run_distributed(&cfg);
        assert_eq!(
            vr_image::checksum::fnv1a(&a.image),
            vr_image::checksum::fnv1a(&real.image),
            "the image is schedule-independent"
        );
    }

    #[test]
    fn non_pow2_distributed_run() {
        let out = run_distributed(&config(5, Method::Bsbrc));
        assert!(out.image.non_blank_count() > 0);
        assert_eq!(out.per_rank.len(), 5);
    }

    #[test]
    fn acceleration_does_not_change_distributed_output() {
        // Per-rank macrocell grids are built from local data only; the
        // image and the wire traffic must both be bit-identical to the
        // naive render (acceleration never touches the network).
        let mut accel = config(4, Method::Bsbrc);
        accel.ghost_voxels = 2;
        let mut naive = accel;
        naive.macrocell = 0;
        naive.tile = 0;
        let a = run_distributed(&accel);
        let b = run_distributed(&naive);
        assert_eq!(
            vr_image::checksum::fnv1a(&a.image),
            vr_image::checksum::fnv1a(&b.image),
            "accelerated distributed image diverged from naive"
        );
        assert_eq!(a.partition_bytes, b.partition_bytes);
    }

    #[test]
    fn traffic_includes_partition_phase() {
        let out = run_distributed(&config(4, Method::Bs));
        // Rank 0 must have sent at least the three scattered blocks.
        assert!(out.traffic[0].sent_bytes > 3 * (32 * 32 * 16 / 4) as u64);
    }
}
