//! Reproduces **Figure 7**: renders the four test samples to PGM files
//! (`gallery/<name>.pgm`), using the full pipeline at P = 8 so the saved
//! images are actual composited outputs, not monolithic renders.
//!
//! ```text
//! cargo run --release -p vr-bench --bin gallery [-- --quick]
//! ```

use slsvr_core::Method;
use vr_bench::workloads::{cell_config, paper_datasets, Scale};
use vr_system::Experiment;

fn main() {
    let scale = Scale::from_args();
    std::fs::create_dir_all("gallery").expect("create gallery/");
    for dataset in paper_datasets() {
        let config = cell_config(dataset, 384, 8, scale);
        let exp = Experiment::prepare(&config);
        let out = exp
            .run(Method::Bsbrc)
            .into_result()
            .expect("a fault-free frame");
        let path = format!("gallery/{}.pgm", dataset.name());
        vr_image::pgm::save_pgm(&out.image, &path).expect("write PGM");
        let bounds = out.image.bounding_rect();
        let density = if bounds.area() > 0 {
            out.image.non_blank_count() as f64 / bounds.area() as f64
        } else {
            0.0
        };
        println!(
            "{:<12} -> {path} ({}x{}, bounds {:?}, density {:.2})",
            dataset.name(),
            out.image.width(),
            out.image.height(),
            bounds,
            density
        );
    }
}
