//! Validates Section 3.2's viewing-point rotation analysis: the number
//! of non-empty *receiving* bounding rectangles per processor grows from
//! about `log ∛P` for a frontal orthogonal view towards `log P` when the
//! view rotates along two axes.

use slsvr::compositing::Method;
use slsvr::system::{Experiment, ExperimentConfig};
use slsvr::volume::DatasetKind;

/// Runs BSBRC at P = 64 on a cubic volume and returns
/// `(max, mean)` non-empty receiving-rectangle counts per rank.
fn nonempty_rects(rot_x: f32, rot_y: f32) -> (usize, f64) {
    let config = ExperimentConfig {
        dataset: DatasetKind::Head,
        image_size: 128,
        processors: 64,
        volume_dims: Some([64, 64, 64]),
        rot_x_deg: rot_x,
        rot_y_deg: rot_y,
        ..Default::default()
    };
    let exp = Experiment::prepare(&config);
    let out = exp.run(Method::Bsbrc);
    let stages = 6; // log2(64)
    let nonempty: Vec<usize> = out
        .per_rank
        .iter()
        .flatten()
        .map(|s| stages - s.empty_recv_rects())
        .collect();
    let max = *nonempty.iter().max().unwrap();
    let mean = nonempty.iter().sum::<usize>() as f64 / nonempty.len() as f64;
    (max, mean)
}

#[test]
fn rotation_raises_non_empty_rectangle_counts() {
    let (frontal_max, frontal_mean) = nonempty_rects(0.0, 0.0);
    let (one_axis_max, one_axis_mean) = nonempty_rects(0.0, 35.0);
    let (two_axis_max, two_axis_mean) = nonempty_rects(35.0, 35.0);

    // Frontal views leave many receiving rectangles empty: well below
    // the log P = 6 ceiling.
    assert!(frontal_max <= 4, "frontal max {frontal_max} too high");
    // Rotation along axes monotonically (weakly) raises the counts…
    assert!(
        one_axis_max >= frontal_max,
        "{one_axis_max} < {frontal_max}"
    );
    assert!(
        two_axis_max >= one_axis_max,
        "{two_axis_max} < {one_axis_max}"
    );
    assert!(one_axis_mean >= frontal_mean);
    assert!(two_axis_mean >= one_axis_mean);
    // …and a two-axis rotation reaches the paper's log P bound for the
    // busiest processor.
    assert_eq!(two_axis_max, 6, "two-axis rotation should reach log P");
}

#[test]
fn empty_rectangles_never_exceed_stage_count() {
    for (rx, ry) in [(0.0, 0.0), (45.0, 0.0), (30.0, 60.0)] {
        let config = ExperimentConfig {
            dataset: DatasetKind::Cube,
            image_size: 64,
            processors: 16,
            volume_dims: Some([32, 32, 32]),
            rot_x_deg: rx,
            rot_y_deg: ry,
            ..Default::default()
        };
        let exp = Experiment::prepare(&config);
        for method in [Method::Bsbr, Method::Bsbrc, Method::RadixK] {
            let out = exp.run(method);
            for s in out.per_rank.iter().flatten() {
                assert!(
                    s.empty_recv_rects() <= 4,
                    "{method:?}: more empties than stages"
                );
            }
        }
    }
}
