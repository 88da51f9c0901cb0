//! The fused render+composite streamed runner: overlap the rendering
//! and compositing phases for first-tile latency.
//!
//! [`Experiment`](crate::experiment::Experiment) keeps the paper's
//! measurement methodology — render everything, then composite — which
//! serializes the two phases even though a tile's contribution is ready
//! the moment *its* rays finish. This runner instead drives the
//! tile-stream state machine
//! ([`TileStream`](slsvr_core::methods::tile_stream::TileStream))
//! directly out of the render pool: each rank fans its live screen
//! tiles across [`RenderPool::run_streamed`], and as every tile's
//! render completes its non-blank runs are encoded and shipped to the
//! tile's owner while the remaining tiles are still rendering. Owners
//! fold arrivals in deterministic depth order, so the final image is
//! **bit-identical** to the sequential render-then-composite reference
//! regardless of completion and arrival order — the overlap only moves
//! wall-clock time, never pixels.
//!
//! The runner reports per-rank wall times plus the first-/last-owned-
//! tile completion offsets, the progressive-latency metrics the serving
//! layer and the overlap benchmark gate on: on a multi-core host the
//! first finished tile lands well before the full frame, and the fused
//! total stays below the synchronous `t_render + t_composite` sum.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use slsvr_core::methods::tile_stream::TileStream;
use slsvr_core::reference_composite;
use vr_image::{Image, Rect};
use vr_render::{render_tile_into, RenderPool};
use vr_volume::{Dataset, Subvolume};

use crate::config::ExperimentConfig;
use crate::outcome::{run_frame, Outcome, RankFrame, WorkingFrame};
use crate::scene::Scene;

/// A prepared fused workload: the [`Scene`], with nothing rendered yet.
/// Rendering happens *inside* [`StreamExperiment::run`], overlapped with
/// compositing.
pub struct StreamExperiment(Scene);

impl StreamExperiment {
    /// Builds the dataset and partitions the volume; no rays are cast
    /// until [`StreamExperiment::run`].
    pub fn prepare(config: &ExperimentConfig) -> StreamExperiment {
        let dims = config.resolved_dims();
        let dataset = Arc::new(Dataset::with_dims(config.dataset, dims));
        StreamExperiment::prepare_with_dataset(config, dataset)
    }

    /// Like [`StreamExperiment::prepare`] but reuses an already built
    /// dataset.
    pub fn prepare_with_dataset(
        config: &ExperimentConfig,
        dataset: Arc<Dataset>,
    ) -> StreamExperiment {
        StreamExperiment(Scene::new(config, dataset))
    }

    /// Runs the fused pipeline: every rank renders its live screen
    /// tiles on a streamed pool, ships each tile the moment it
    /// finishes, folds arrivals for its owned tiles, and rank 0 gathers
    /// the final image. The outcome carries the per-rank wall times and
    /// the first-/last-owned-tile offsets (raw wall measurements).
    ///
    /// Panics if a schedule seed is configured: this runner measures
    /// *real* wall-clock overlap on the threaded transport; the
    /// virtual-clock determinism story is covered by
    /// `Method::TileStream` under [`crate::Experiment`].
    pub fn run(&self) -> Outcome {
        let scene = &self.0;
        let config = &scene.config;
        assert!(
            config.schedule_seed.is_none(),
            "the fused streamed runner requires the real transport \
             (run Method::TileStream under Experiment for the virtual clock)"
        );
        let size = config.image_size;
        let dims = config.resolved_dims();
        let stream_tile = config.resolved_stream_tile();
        // Each rank fans its tiles across its share of the host's cores.
        let threads = vr_render::resolve_threads(config.render_threads, config.processors);

        let (outcome, rank_seconds) = run_frame(config, |ep| {
            let rank = ep.rank();
            let start = Instant::now();
            let block = &scene.blocks[rank];
            let placement = Subvolume {
                rank,
                origin: [0, 0, 0],
                dims,
            };
            let mut ts = TileStream::begin(ep, size, size, &scene.depth, stream_tile);
            let tiles: Vec<Rect> = ts.tiles().to_vec();
            // Only tiles intersecting this rank's screen footprint can
            // contribute; everything else is implicitly blank.
            let footprint = scene.camera.footprint(block.origin, block.dims);
            let live: Vec<usize> = tiles
                .iter()
                .enumerate()
                .filter(|(_, r)| !footprint.intersect(r).is_empty())
                .map(|(t, _)| t)
                .collect();
            let bufs: Vec<Mutex<Image>> = live
                .iter()
                .map(|&t| Mutex::new(Image::blank(tiles[t].width(), tiles[t].height())))
                .collect();
            let pool = RenderPool::new(threads);
            let mut offered = Ok(());
            pool.run_streamed(
                live.len(),
                &|i| {
                    let t = live[i];
                    let mut buf = bufs[i].lock().unwrap();
                    render_tile_into(
                        &scene.dataset.volume,
                        &placement,
                        block,
                        &scene.dataset.transfer,
                        &scene.camera,
                        &scene.params,
                        scene.accel.as_ref(),
                        &tiles[t],
                        &mut buf,
                    );
                },
                |i| {
                    // Runs on the submitting thread, which owns the
                    // endpoint: encode and ship while rendering goes on.
                    if offered.is_err() {
                        return;
                    }
                    let t = live[i];
                    let buf = bufs[i].lock().unwrap();
                    let local = Rect::new(0, 0, tiles[t].width(), tiles[t].height());
                    offered = ts.offer(ep, t, &buf, &local);
                },
            );
            drop(pool);
            let mut framebuffer = WorkingFrame::blank(size, size);
            let composited = offered.and_then(|()| ts.finish(ep, &mut framebuffer));
            let frame = RankFrame::finish(ep, &framebuffer, composited);
            (frame, start.elapsed().as_secs_f64())
        });

        let tile_offsets =
            |f: fn(&slsvr_core::MethodStats) -> Option<f64>| outcome.per_rank.iter().filter_map(f);
        Outcome {
            total_seconds: rank_seconds.iter().copied().fold(0.0, f64::max),
            first_tile_seconds: tile_offsets(|s| s.first_tile_seconds).reduce(f64::min),
            last_tile_seconds: tile_offsets(|s| s.last_tile_seconds).reduce(f64::max),
            rank_seconds,
            ..outcome
        }
    }

    /// The sequential reference: render every block (same rays, same
    /// accelerator) and composite front-to-back — what the fused run
    /// must reproduce bit-for-bit.
    pub fn reference(&self) -> Image {
        let scene = &self.0;
        let subimages: Vec<Image> = (0..scene.blocks.len())
            .map(|rank| scene.render_block(rank, None))
            .collect();
        reference_composite(&subimages, &scene.depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_image::checksum::fnv1a;
    use vr_volume::DatasetKind;

    fn config(p: usize) -> ExperimentConfig {
        let mut c =
            ExperimentConfig::small_test(DatasetKind::EngineLow, p, slsvr_core::Method::TileStream);
        c.render_threads = 2;
        c
    }

    #[test]
    fn fused_runner_is_bit_identical_to_reference() {
        for p in [1usize, 2, 3, 4] {
            let exp = StreamExperiment::prepare(&config(p));
            let out = exp.run();
            assert_eq!(out.dead_ranks, Vec::<usize>::new());
            assert_eq!(out.coverage, 1.0, "P={p}");
            let diff = out.image.max_abs_diff(&exp.reference());
            assert_eq!(diff, 0.0, "fused P={p} diverged from reference by {diff}");
        }
    }

    #[test]
    fn image_is_invariant_to_stream_tile() {
        let mut base = config(3);
        let mut hashes = Vec::new();
        for tile in [8u16, 16, 32, 64] {
            base.stream_tile = tile;
            let exp = StreamExperiment::prepare(&base);
            hashes.push((tile, fnv1a(&exp.run().image)));
        }
        for w in hashes.windows(2) {
            assert_eq!(
                w[0].1, w[1].1,
                "stream tile {} and {} produced different images",
                w[0].0, w[1].0
            );
        }
    }

    #[test]
    fn progressive_latencies_are_ordered() {
        let exp = StreamExperiment::prepare(&config(4));
        let out = exp.run();
        let first = out.first_tile_seconds.expect("owned tiles completed");
        let last = out.last_tile_seconds.expect("owned tiles completed");
        assert!(first > 0.0);
        assert!(first <= last, "first {first} > last {last}");
        assert!(
            last <= out.total_seconds,
            "last tile {last} after total {}",
            out.total_seconds
        );
        assert_eq!(out.rank_seconds.len(), 4);
    }

    #[test]
    fn streamed_messages_are_counted_per_stage() {
        let exp = StreamExperiment::prepare(&config(4));
        let out = exp.run();
        let sent: u64 = out.per_rank.iter().map(|s| s.sent_msgs()).sum();
        let recv: u64 = out.per_rank.iter().map(|s| s.recv_msgs()).sum();
        assert!(sent > 0, "streamed tiles must be counted as messages");
        assert_eq!(sent, recv, "every streamed message is drained");
    }

    #[test]
    fn schedule_seed_is_rejected() {
        let mut c = config(2);
        c.schedule_seed = Some(7);
        let exp = StreamExperiment::prepare(&c);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exp.run()));
        assert!(err.is_err(), "virtual clock must be rejected");
    }
}
