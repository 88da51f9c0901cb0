//! Every frame the system renders is gray: each non-blank pixel has
//! equal red, green and blue bits.
//!
//! The paper's pixel is an intensity and an opacity. Frames are kept as
//! premultiplied RGBA, but no configuration sets a colour (the
//! renderer's tint is white) and `over` keeps equal channels equal, so
//! the served frame can travel as intensity + opacity, 8 bytes a pixel
//! instead of 16. This test pins that premise over every dataset, a few
//! poses and two group sizes ([`vr_image::Pixel::is_gray`], the one
//! channel-equality test): a colour feature must fail here instead of
//! silently doubling the served bytes.

use std::sync::Arc;

use slsvr_core::Method;
use vr_system::{Experiment, ExperimentConfig};
use vr_volume::{Dataset, DatasetKind};

#[test]
fn every_rendered_frame_is_gray() {
    let poses = [(20.0, 30.0), (0.0, 0.0), (-35.0, 110.0), (60.0, 250.0)];
    for dataset in DatasetKind::all() {
        let volume = Arc::new(Dataset::with_dims(dataset, dataset.paper_dims()));
        for processors in [4, 16] {
            for (rot_x_deg, rot_y_deg) in poses {
                let config = ExperimentConfig {
                    dataset,
                    image_size: 64,
                    processors,
                    method: Method::Bsbrc,
                    rot_x_deg,
                    rot_y_deg,
                    ..Default::default()
                };
                let image = Experiment::prepare_with_dataset(&config, Arc::clone(&volume))
                    .run(config.method)
                    .image;
                let what = format!("{dataset:?} P = {processors} at ({rot_x_deg}, {rot_y_deg})");
                let lit: Vec<_> = image.pixels().iter().filter(|p| !p.is_blank()).collect();
                assert!(lit.len() > 64, "{what}: {} non-blank pixels", lit.len());
                if let Some(p) = lit.iter().find(|p| !p.is_gray()) {
                    panic!("{what}: {p:?} is not gray");
                }
            }
        }
    }
}
