//! Viewing-point rotation study (Section 3.2): as the view rotates
//! along one or two axes, more receiving bounding rectangles become
//! non-empty — from about `log ∛P` for a frontal orthogonal view up to
//! `log P` for a two-axis rotation — and BSBR/BSBRC message sizes grow
//! accordingly.
//!
//! ```text
//! cargo run --release --example view_rotation
//! ```

use slsvr::compositing::Method;
use slsvr::system::{Experiment, ExperimentConfig};
use slsvr::volume::DatasetKind;

fn main() {
    let p = 64;
    let stages = 6; // log2(64)
    let base = ExperimentConfig {
        dataset: DatasetKind::Head,
        image_size: 128,
        processors: p,
        volume_dims: Some([64, 64, 64]), // cubic → 4×4×4 block grid
        ..Default::default()
    };
    println!("Head, 64³ volume, P = {p} (4×4×4 blocks), BSBRC — rotation sweep\n");
    println!(
        "{:>7} {:>7} {:>14} {:>15} {:>14} {:>12}",
        "rot_x", "rot_y", "max non-empty", "mean non-empty", "total bytes", "T_total(ms)"
    );
    for (rx, ry) in [
        (0.0, 0.0),
        (15.0, 0.0),
        (35.0, 0.0),
        (0.0, 35.0),
        (20.0, 20.0),
        (35.0, 35.0),
    ] {
        let config = ExperimentConfig {
            rot_x_deg: rx,
            rot_y_deg: ry,
            ..base
        };
        let experiment = Experiment::prepare(&config);
        let out = experiment.run(Method::Bsbrc);
        let record = out.record();
        let nonempty: Vec<usize> = out
            .per_rank
            .iter()
            .map(|s| stages - s.empty_recv_rects())
            .collect();
        let max = nonempty.iter().max().unwrap();
        let mean = nonempty.iter().sum::<usize>() as f64 / p as f64;
        println!(
            "{:>7.0} {:>7.0} {:>14} {:>15.2} {:>14} {:>12.2}",
            rx, ry, max, mean, record.total_bytes, record.t_total_ms
        );
    }
    println!(
        "\nFrontal views leave many receiving rectangles empty (the paper's\n\
         log∛P regime); rotating along one axis raises the count, and a\n\
         two-axis rotation drives the busiest processor to the log P = {stages}\n\
         ceiling — Section 3.2's progression."
    );
}
