//! The one derivation from an [`ExperimentConfig`] to what a frame is
//! rendered from: camera, partition, depth order, render parameters and
//! the optional macrocell accelerator. Every pipeline starts here, so a
//! config knob means the same thing in all of them.

use std::sync::Arc;

use vr_image::Image;
use vr_render::{render_clips, Camera, Projection, RenderAccel, RenderParams, RenderPool};
use vr_volume::{kd_partition, kd_partition_weighted, Dataset, DepthOrder, Partition, Subvolume};

use crate::config::ExperimentConfig;

/// A configuration resolved against a built dataset; nothing rendered.
pub struct Scene {
    pub(crate) config: ExperimentConfig,
    pub(crate) dataset: Arc<Dataset>,
    pub(crate) camera: Camera,
    /// Each rank's exclusive block, indexed by rank.
    pub(crate) blocks: Vec<Subvolume>,
    pub(crate) depth: DepthOrder,
    pub(crate) params: RenderParams,
    /// One read-only accelerator over the whole dataset (its macrocell
    /// grid is cached on the dataset, so animation frames reuse it).
    pub(crate) accel: Option<RenderAccel>,
}

impl Scene {
    /// Resolves `config` against `dataset`.
    pub fn new(config: &ExperimentConfig, dataset: Arc<Dataset>) -> Scene {
        let dims = config.resolved_dims();
        assert_eq!(
            dataset.volume.dims(),
            dims,
            "dataset dims must match the config"
        );
        let camera = Scene::camera(config);
        let partition = Scene::partition(config, &dataset);
        let params = Scene::render_params(config);
        let accel = (config.macrocell >= 1).then(|| {
            RenderAccel::new(
                dataset.macrocell_grid(config.macrocell),
                &dataset.transfer,
                &params,
            )
        });
        Scene {
            config: *config,
            depth: Scene::depth_order(&camera, &partition),
            blocks: partition.subvolumes().to_vec(),
            dataset,
            camera,
            params,
            accel,
        }
    }

    /// The orbiting camera: orthographic, or perspective when
    /// `perspective_distance` is set.
    pub fn camera(config: &ExperimentConfig) -> Camera {
        let (dims, size) = (config.resolved_dims(), config.image_size);
        let (rx, ry) = (config.rot_x_deg, config.rot_y_deg);
        match config.perspective_distance {
            None => Camera::orbit(dims, size, size, rx, ry),
            Some(distance) => Camera::orbit_perspective(dims, size, size, rx, ry, distance),
        }
    }

    /// The blocks of `dataset`, one per rank: the plain k-d split, or the
    /// one weighted by visible voxels when `balanced_partition` is set.
    pub fn partition(config: &ExperimentConfig, dataset: &Dataset) -> Partition {
        if config.balanced_partition {
            let tf = &dataset.transfer;
            kd_partition_weighted(
                &dataset.volume,
                |s| if tf.opacity(s as f32) > 0.0 { 1.0 } else { 0.0 },
                config.processors,
            )
        } else {
            kd_partition(config.resolved_dims(), config.processors)
        }
    }

    /// The render parameters the config's knobs resolve to.
    pub fn render_params(config: &ExperimentConfig) -> RenderParams {
        RenderParams {
            step: config.step,
            early_termination_alpha: config.early_termination_alpha,
            simd_lanes: config.simd_lanes,
            ..Default::default()
        }
    }

    /// Front-to-back order of `partition`'s blocks: along the view
    /// direction, or the exact eye-based BSP traversal under perspective.
    pub fn depth_order(camera: &Camera, partition: &Partition) -> DepthOrder {
        match camera.projection {
            Projection::Orthographic => partition.depth_order(camera.view_dir),
            Projection::Perspective { eye } => partition.depth_order_from_eye(eye),
        }
    }

    /// Ray-casts every rank's block from the shared volume on one board
    /// of `pool`: each rank's subimage and render seconds, by rank.
    pub(crate) fn render(&self, pool: &RenderPool) -> (Vec<Image>, Vec<f64>) {
        let volume = &self.dataset.volume;
        let whole = Subvolume {
            rank: 0,
            origin: [0, 0, 0],
            dims: volume.dims(),
        };
        render_clips(
            volume,
            &whole,
            &self.blocks,
            &self.dataset.transfer,
            &self.camera,
            &self.params,
            self.accel.as_ref(),
            self.config.tile,
            Some(pool),
        )
    }
}
