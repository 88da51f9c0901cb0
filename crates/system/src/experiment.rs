//! The two-phase runner: render once, composite with any method.

use std::sync::Arc;

use slsvr_core::{composite_frame, reference_composite, Method};
use vr_image::Image;
use vr_render::{resolve_threads, RenderPool};
use vr_volume::{Dataset, DepthOrder};

use crate::config::ExperimentConfig;
use crate::outcome::{collect, Outcome};
use crate::scene::Scene;

/// A prepared workload: a [`Scene`] with every rank's subimage rendered.
/// Rendering happens **once**; each compositing method then runs on
/// working copies of the same subimages — exactly how the paper
/// isolates the compositing phase. The runner
/// ([`composite_frame`]) leases each working copy and resets it to the
/// subimage, bit for bit what `Image::clone` would build, at the cost
/// of the subimage's rectangle rather than of the frame.
pub struct Experiment {
    config: ExperimentConfig,
    depth: DepthOrder,
    subimages: Vec<Image>,
    /// Per-rank rendering time, seconds: the rank's tile prescan plus the
    /// summed wall time of its tiles on the frame's board, so it counts
    /// the rank's own work, not the threads it shared (informational;
    /// the paper's tables cover only the compositing phase).
    pub render_seconds: Vec<f64>,
}

impl Experiment {
    /// Builds the dataset, partitions the volume, renders every rank's
    /// subimage (all ranks' tiles on one board of a pool as wide as the
    /// host allows) and fixes the depth order.
    pub fn prepare(config: &ExperimentConfig) -> Experiment {
        let dims = config.resolved_dims();
        let dataset = Arc::new(Dataset::with_dims(config.dataset, dims));
        Experiment::prepare_with_dataset(config, dataset)
    }

    /// Like [`Experiment::prepare`] but reuses an already built dataset
    /// — animation sweeps re-render the same volume from many views and
    /// must not pay the procedural build per frame.
    pub fn prepare_with_dataset(config: &ExperimentConfig, dataset: Arc<Dataset>) -> Experiment {
        Experiment::prepare_with_dataset_pool(config, dataset, None)
    }

    /// Like [`Experiment::prepare_with_dataset`] but renders on `pool`,
    /// whose width is the frame's render thread count (`slsvr render`
    /// and the serve workers size it from `--render-threads`). Without
    /// a pool, the render is [`resolve_threads(0)`](vr_render::resolve_threads)
    /// threads wide. Every width is bit-identical.
    pub fn prepare_with_dataset_pool(
        config: &ExperimentConfig,
        dataset: Arc<Dataset>,
        pool: Option<&RenderPool>,
    ) -> Experiment {
        let scene = Scene::new(config, dataset);
        let owned;
        let pool = match pool {
            Some(pool) => pool,
            None => {
                owned = RenderPool::new(resolve_threads(0));
                &owned
            }
        };
        let (subimages, render_seconds) = scene.render(pool);
        Experiment {
            config: *config,
            depth: scene.depth,
            subimages,
            render_seconds,
        }
    }

    /// Builds a prepared experiment directly from explicit subimages
    /// (used by tests and ablation benches that bypass rendering).
    pub fn from_subimages(
        config: ExperimentConfig,
        subimages: Vec<Image>,
        depth: DepthOrder,
    ) -> Experiment {
        assert_eq!(subimages.len(), config.processors);
        Experiment {
            render_seconds: vec![0.0; subimages.len()],
            config,
            depth,
            subimages,
        }
    }

    /// The rendered (pre-compositing) subimages, indexed by rank.
    pub fn subimages(&self) -> &[Image] {
        &self.subimages
    }

    /// The fixed depth order for this view.
    pub fn depth(&self) -> &DepthOrder {
        &self.depth
    }

    /// Runs the compositing phase with `method` on working copies of
    /// the prepared subimages and gathers the final image at rank 0.
    ///
    /// With faults configured, a killed rank contributes empty stats
    /// and its image region stays blank; the outcome reports the dead
    /// rank set, the gather holes and the residual coverage. A rank that
    /// fails otherwise is reported in [`Outcome::failures`], not raised.
    pub fn run(&self, method: Method) -> Outcome {
        let run = composite_frame(
            method,
            &self.subimages,
            &self.depth,
            self.config.group_options(),
        );
        let (outcome, _) = collect(&self.config, run);
        Outcome {
            render_seconds: self.render_seconds.clone(),
            ..outcome
        }
    }

    /// The sequential reference composite of the prepared subimages.
    pub fn reference(&self) -> Image {
        reference_composite(&self.subimages, &self.depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompTiming;
    use slsvr_core::virtual_completion;
    use vr_volume::DatasetKind;

    fn prep(p: usize) -> Experiment {
        let config = ExperimentConfig::small_test(DatasetKind::EngineLow, p, Method::Bsbrc);
        Experiment::prepare(&config)
    }

    #[test]
    fn full_pipeline_all_methods_match_reference() {
        let exp = prep(4);
        let expect = exp.reference();
        for method in Method::all() {
            let out = exp.run(method);
            let diff = out.image.max_abs_diff(&expect);
            assert!(diff < 2e-4, "{method:?} differs from reference by {diff}");
        }
    }

    #[test]
    fn full_pipeline_non_pow2() {
        let exp = prep(6);
        let expect = exp.reference();
        for method in [
            Method::Bs,
            Method::Bsbrc,
            Method::RadixK,
            Method::TileStream,
        ] {
            let out = exp.run(method);
            let diff = out.image.max_abs_diff(&expect);
            assert!(diff < 2e-4, "{method:?} P=6 differs by {diff}");
        }
    }

    #[test]
    fn rendered_subimages_are_sparse() {
        let exp = prep(8);
        for img in exp.subimages() {
            // Each of 8 blocks must cover well under the full frame.
            assert!(img.non_blank_count() * 2 < img.area());
        }
    }

    #[test]
    fn aggregates_are_populated() {
        let exp = prep(4);
        let out = exp.run(Method::Bsbrc);
        let record = out.record();
        assert!(record.t_comm_ms > 0.0, "modeled comm time must be positive");
        assert!(record.m_max > 0);
        assert!(record.total_bytes > 0);
        assert_eq!(out.per_rank.len(), 4);
        assert!(record.t_total_ms > 0.0);
    }

    #[test]
    fn critical_path_reported_for_swap_methods() {
        let config = ExperimentConfig::small_test(DatasetKind::EngineLow, 8, Method::Bsbrc);
        let CompTiming::Modeled(comp) = config.comp_timing else {
            panic!("small_test models T_comp");
        };
        let exp = Experiment::prepare(&config);
        let critical_path = |method| {
            let out = exp.run(method);
            let path = virtual_completion(&out.per_rank, &config.cost, &comp)
                .map(|vt| vt.into_iter().fold(0.0, f64::max));
            (path, out.record())
        };
        let (t, record) = critical_path(Method::Bsbrc);
        let t = t.expect("BSBRC is stage-paired");
        // Waiting can only add to the busiest rank's own time.
        assert!(t * 1e3 >= record.t_comp_ms.max(record.t_comm_ms));
        assert!(t > 0.0);
        // Radix-k's first round at P = 8 has four members.
        assert!(critical_path(Method::RadixK).0.is_none());
    }

    #[test]
    fn bs_m_max_dominates_sparse_methods() {
        // Equation (9): M_max(BS) ≥ M_max(BSBR) ≥ M_max(BSBRC) ≥ M_max(BSLC).
        let exp = prep(8);
        let m = |method: Method| exp.run(method).record().m_max;
        let bs = m(Method::Bs);
        let bsbr = m(Method::Bsbr);
        let bsbrc = m(Method::Bsbrc);
        let bslc = m(Method::Bslc);
        assert!(bs >= bsbr, "BS {bs} < BSBR {bsbr}");
        assert!(bsbr >= bsbrc, "BSBR {bsbr} < BSBRC {bsbrc}");
        assert!(bsbrc >= bslc, "BSBRC {bsbrc} < BSLC {bslc}");
    }

    #[test]
    fn perspective_projection_stays_correct() {
        // The eye-based BSP depth order must keep every method exact
        // against the sequential reference.
        for distance in [0.8, 1.5, 10.0] {
            let mut config = ExperimentConfig::small_test(DatasetKind::EngineLow, 8, Method::Bsbrc);
            config.perspective_distance = Some(distance);
            let exp = Experiment::prepare(&config);
            let expect = exp.reference();
            for method in [Method::Bs, Method::Bsbrc, Method::TileStream] {
                let out = exp.run(method);
                let diff = out.image.max_abs_diff(&expect);
                assert!(
                    diff < 2e-4,
                    "{method:?} at distance {distance} differs by {diff}"
                );
            }
        }
    }

    #[test]
    fn perspective_image_resembles_orthographic_at_distance() {
        let base = ExperimentConfig::small_test(DatasetKind::Head, 4, Method::Bsbrc);
        let ortho = Experiment::prepare(&base).run(Method::Bsbrc).image;
        let mut far = base;
        far.perspective_distance = Some(300.0);
        let persp = Experiment::prepare(&far).run(Method::Bsbrc).image;
        // Same object coverage within a small band.
        let a = ortho.non_blank_count() as f64;
        let b = persp.non_blank_count() as f64;
        assert!((a - b).abs() / a.max(1.0) < 0.1, "coverage {a} vs {b}");
    }

    #[test]
    fn balanced_partition_stays_correct() {
        // The weighted partitioner changes block shapes and hence the
        // depth order; every method must still match the reference.
        let mut config = ExperimentConfig::small_test(DatasetKind::EngineHigh, 8, Method::Bsbrc);
        config.balanced_partition = true;
        let exp = Experiment::prepare(&config);
        let expect = exp.reference();
        for method in [Method::Bs, Method::Bsbrc, Method::Bslc, Method::TileStream] {
            let out = exp.run(method);
            let diff = out.image.max_abs_diff(&expect);
            assert!(diff < 2e-4, "{method:?} balanced differs by {diff}");
        }
    }

    #[test]
    fn balanced_partition_evens_rendered_workload() {
        // Visible content off-center: compare the per-rank non-blank
        // pixel spread with and without balancing.
        let spread = |balanced: bool| {
            let mut config =
                ExperimentConfig::small_test(DatasetKind::EngineHigh, 8, Method::Bsbrc);
            config.balanced_partition = balanced;
            config.rot_x_deg = 0.0;
            config.rot_y_deg = 0.0;
            let exp = Experiment::prepare(&config);
            let counts: Vec<usize> = exp
                .subimages()
                .iter()
                .map(|img| img.non_blank_count())
                .collect();
            let max = *counts.iter().max().unwrap() as f64;
            let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
            max / mean.max(1.0)
        };
        let plain = spread(false);
        let balanced = spread(true);
        assert!(
            balanced <= plain * 1.1,
            "balancing should not worsen workload spread: {balanced:.2} vs {plain:.2}"
        );
    }

    #[test]
    fn acceleration_knobs_do_not_change_subimages() {
        // The accelerated render path must be bit-identical to the naive
        // one at the system level, for every knob combination.
        let mut base = ExperimentConfig::small_test(DatasetKind::Cube, 4, Method::Bsbrc);
        base.macrocell = 0;
        base.tile = 0;
        let naive = Experiment::prepare(&base);
        for (macrocell, tile) in [(4, 0), (8, 8), (8, 32), (16, 16)] {
            let mut cfg = base;
            cfg.macrocell = macrocell;
            cfg.tile = tile;
            let accel = Experiment::prepare(&cfg);
            for (rank, (a, b)) in naive.subimages().iter().zip(accel.subimages()).enumerate() {
                assert_eq!(
                    vr_image::checksum::fnv1a(a),
                    vr_image::checksum::fnv1a(b),
                    "rank {rank} subimage changed under macrocell={macrocell} tile={tile}"
                );
            }
        }
    }

    #[test]
    fn from_subimages_skips_rendering() {
        let config = ExperimentConfig::small_test(DatasetKind::Cube, 2, Method::Bs);
        let imgs = vec![Image::blank(64, 64), Image::blank(64, 64)];
        let exp = Experiment::from_subimages(config, imgs, DepthOrder::identity(2));
        let out = exp.run(Method::Bs);
        assert_eq!(out.image.non_blank_count(), 0);
    }
}
