//! Frame-sequence (animation) runs — the paper's motivating scenario:
//! "it is important for users to interactively explore the volume data
//! in real time".
//!
//! An [`Animation`] renders a camera orbit frame by frame through the
//! full pipeline and hands back each frame's [`Outcome`], from which
//! [`Animation::compositing_fps`] derives the effective compositing-bound
//! frame rate on the modeled machine.

use std::sync::Arc;

use slsvr_core::{CompositeError, Method};
use vr_volume::Dataset;

use crate::config::ExperimentConfig;
use crate::experiment::Experiment;
use crate::outcome::Outcome;

/// An orbiting-camera animation over one dataset.
#[derive(Clone, Debug)]
pub struct Animation {
    /// Base configuration (rotation fields are overridden per frame).
    pub base: ExperimentConfig,
    /// Number of frames.
    pub frames: usize,
    /// Total rotation swept around the y axis, degrees.
    pub sweep_y_deg: f32,
    /// Total rotation swept around the x axis, degrees.
    pub sweep_x_deg: f32,
}

impl Animation {
    /// The per-frame configurations of this sweep: the camera angles
    /// interpolate linearly from the base rotation (frame 0) to base +
    /// sweep (last frame), with every other field copied from `base`.
    ///
    /// This is the frame sequence both the batch runner below and a
    /// serving-layer session drive, so the two paths stay frame-for-frame
    /// identical by construction.
    pub fn frame_configs(&self, method: Method) -> Vec<ExperimentConfig> {
        (0..self.frames)
            .map(|f| {
                let t = if self.frames > 1 {
                    f as f32 / (self.frames - 1) as f32
                } else {
                    0.0
                };
                ExperimentConfig {
                    rot_x_deg: self.base.rot_x_deg + t * self.sweep_x_deg,
                    rot_y_deg: self.base.rot_y_deg + t * self.sweep_y_deg,
                    method,
                    ..self.base
                }
            })
            .collect()
    }

    /// Runs all frames with `method`, returning each frame's outcome in
    /// [`Animation::frame_configs`] order, or the first failed frame's
    /// earliest rank error.
    ///
    /// The dataset is built once; rendering is re-done per frame because
    /// the view changes — exactly the interactive-exploration workload
    /// the paper targets.
    pub fn run(&self, method: Method) -> Result<Vec<Outcome>, CompositeError> {
        let dataset = Arc::new(Dataset::with_dims(
            self.base.dataset,
            self.base.resolved_dims(),
        ));
        self.frame_configs(method)
            .iter()
            .map(|config| {
                Experiment::prepare_with_dataset(config, Arc::clone(&dataset))
                    .run(method)
                    .into_result()
            })
            .collect()
    }

    /// Effective compositing-bound frame rate on the modeled machine:
    /// `frames / Σ T_total`.
    pub fn compositing_fps(frames: &[Outcome]) -> f64 {
        let total_ms: f64 = frames.iter().map(|f| f.record().t_total_ms).sum();
        if total_ms > 0.0 {
            frames.len() as f64 / (total_ms / 1e3)
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_volume::DatasetKind;

    fn anim(frames: usize) -> Animation {
        Animation {
            base: ExperimentConfig::small_test(DatasetKind::EngineHigh, 4, Method::Bsbrc),
            frames,
            sweep_y_deg: 90.0,
            sweep_x_deg: 15.0,
        }
    }

    #[test]
    fn animation_produces_one_stat_per_frame() {
        let frames = anim(4).run(Method::Bsbrc).unwrap();
        assert_eq!(frames.len(), 4);
        for f in &frames {
            assert!(f.record().t_total_ms > 0.0);
            assert!(
                f.image.non_blank_count() > 0,
                "object must stay visible through the sweep"
            );
        }
    }

    #[test]
    fn fps_is_positive_and_finite() {
        let frames = anim(3).run(Method::Bsbrc).unwrap();
        let fps = Animation::compositing_fps(&frames);
        assert!(fps.is_finite() && fps > 0.0);
    }

    #[test]
    fn sparse_methods_sustain_higher_fps_than_bs() {
        let a = anim(2);
        let bs = Animation::compositing_fps(&a.run(Method::Bs).unwrap());
        let bsbrc = Animation::compositing_fps(&a.run(Method::Bsbrc).unwrap());
        assert!(
            bsbrc > bs,
            "BSBRC fps {bsbrc:.2} should beat BS fps {bs:.2}"
        );
    }

    #[test]
    fn single_frame_animation_is_valid() {
        let frames = anim(1).run(Method::Bsbrc).unwrap();
        assert_eq!(frames.len(), 1);
        assert!(frames[0].record().t_total_ms > 0.0);
    }

    #[test]
    fn frame_configs_interpolate_from_base_to_base_plus_sweep() {
        let a = anim(5);
        let configs = a.frame_configs(Method::Bs);
        assert_eq!(configs.len(), 5);
        // Endpoints: frame 0 is the base view, the last frame is base +
        // the full sweep (the interpolation is inclusive of both ends).
        assert_eq!(configs[0].rot_x_deg, a.base.rot_x_deg);
        assert_eq!(configs[0].rot_y_deg, a.base.rot_y_deg);
        let last = configs.last().unwrap();
        assert!((last.rot_x_deg - (a.base.rot_x_deg + a.sweep_x_deg)).abs() < 1e-4);
        assert!((last.rot_y_deg - (a.base.rot_y_deg + a.sweep_y_deg)).abs() < 1e-4);
        // Interior frames are evenly spaced.
        let step = a.sweep_y_deg / 4.0;
        for (i, c) in configs.iter().enumerate() {
            let expect = a.base.rot_y_deg + i as f32 * step;
            assert!(
                (c.rot_y_deg - expect).abs() < 1e-3,
                "frame {i}: {} != {expect}",
                c.rot_y_deg
            );
        }
        // The requested method overrides the base config's.
        assert!(configs.iter().all(|c| c.method == Method::Bs));
    }

    #[test]
    fn frame_configs_preserve_all_non_camera_fields() {
        let a = anim(3);
        for c in a.frame_configs(Method::Bsbrc) {
            assert_eq!(c.dataset, a.base.dataset);
            assert_eq!(c.image_size, a.base.image_size);
            assert_eq!(c.processors, a.base.processors);
            assert_eq!(c.volume_dims, a.base.volume_dims);
            assert_eq!(c.step, a.base.step);
            assert_eq!(c.macrocell, a.base.macrocell);
            assert_eq!(c.tile, a.base.tile);
        }
    }

    #[test]
    fn single_frame_config_sits_at_the_base_view() {
        let configs = anim(1).frame_configs(Method::Bsbrc);
        assert_eq!(configs.len(), 1);
        assert_eq!(configs[0].rot_y_deg, anim(1).base.rot_y_deg);
        assert_eq!(configs[0].rot_x_deg, anim(1).base.rot_x_deg);
    }

    /// Each frame is the one its config renders on its own.
    #[test]
    fn run_follows_frame_configs_sequencing() {
        let a = anim(3);
        let configs = a.frame_configs(Method::Bsbrc);
        let frames = a.run(Method::Bsbrc).unwrap();
        assert_eq!(frames.len(), configs.len());
        for (f, c) in frames.iter().zip(&configs) {
            let alone = Experiment::prepare(c).run(Method::Bsbrc);
            assert_eq!(
                f.image,
                alone.image,
                "frame at {:?}",
                (c.rot_x_deg, c.rot_y_deg)
            );
        }
    }
}
