//! Integration tests for animation sweeps across methods and modes.

use slsvr_core::Method;
use vr_system::animation::Animation;
use vr_system::ExperimentConfig;
use vr_volume::DatasetKind;

fn base_animation() -> Animation {
    Animation {
        base: ExperimentConfig {
            dataset: DatasetKind::Cube,
            image_size: 64,
            processors: 4,
            volume_dims: Some([24, 24, 12]),
            step: 2.0,
            ..Default::default()
        },
        frames: 3,
        sweep_y_deg: 180.0,
        sweep_x_deg: 0.0,
    }
}

#[test]
fn frames_track_the_rotating_view() {
    let frames = base_animation().run(Method::Bsbrc).unwrap();
    assert_eq!(frames.len(), 3);
    // The 180° sweep passes through distinct views.
    assert!(frames.windows(2).all(|w| w[0].image != w[1].image));
    assert!(frames.iter().all(|f| f.record().m_max > 0));
}

#[test]
fn traffic_varies_with_the_view() {
    // A rotating view changes footprint overlaps, so M_max should not
    // be constant across a 180° sweep of the asymmetric cube frame.
    let frames = base_animation().run(Method::Bsbrc).unwrap();
    let m: Vec<u64> = frames.iter().map(|f| f.record().m_max).collect();
    assert!(
        m.iter().any(|&v| v != m[0]),
        "M_max suspiciously constant: {m:?}"
    );
}

#[test]
fn fps_ordering_matches_table_1_story() {
    let a = base_animation();
    let fps_bs = Animation::compositing_fps(&a.run(Method::Bs).unwrap());
    let fps_bsbrc = Animation::compositing_fps(&a.run(Method::Bsbrc).unwrap());
    assert!(
        fps_bsbrc > fps_bs * 1.5,
        "BSBRC should clearly outpace BS: {fps_bsbrc:.2} vs {fps_bs:.2}"
    );
}

#[test]
fn perspective_animation_works() {
    let mut a = base_animation();
    a.base.perspective_distance = Some(1.5);
    let frames = a.run(Method::Bsbrc).unwrap();
    assert!(frames.iter().all(|f| f.image.non_blank_count() > 0));
}
