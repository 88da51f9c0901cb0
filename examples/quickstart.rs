//! Quickstart: render a small engine dataset on 8 simulated processors,
//! composite with BSBRC, save the image and print the cost breakdown.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use slsvr::compositing::Method;
use slsvr::system::{Experiment, ExperimentConfig};
use slsvr::volume::DatasetKind;

fn main() {
    // Configure one experiment cell: dataset, frame size, processor
    // count and compositing method. Everything else defaults to the
    // paper's setup (SP2 cost model, oblique view).
    let config = ExperimentConfig {
        dataset: DatasetKind::EngineLow,
        image_size: 256,
        processors: 8,
        method: Method::Bsbrc,
        volume_dims: Some([128, 128, 64]), // reduced for a fast first run
        ..Default::default()
    };

    // Prepare = partition the volume into 8 blocks and ray-cast each
    // block into a sparse subimage (one thread per simulated processor).
    println!(
        "rendering {} on {} processors…",
        config.dataset.name(),
        config.processors
    );
    let experiment = Experiment::prepare(&config);
    for (rank, img) in experiment.subimages().iter().enumerate() {
        println!(
            "  rank {rank}: {:>6} non-blank pixels, bounds {:?}",
            img.non_blank_count(),
            img.bounding_rect()
        );
    }

    // Composite with BSBRC and gather the final image at rank 0.
    let outcome = experiment.run(config.method);
    let record = outcome.record();
    println!("\ncompositing with {}:", config.method.name());
    println!(
        "  T_comp  = {:>8.2} ms (modeled from operation counts)",
        record.t_comp_ms
    );
    println!(
        "  T_comm  = {:>8.2} ms (modeled: T_s + bytes·T_c per message)",
        record.t_comm_ms
    );
    println!("  T_total = {:>8.2} ms", record.t_total_ms);
    println!("  M_max   = {:>8} bytes", record.m_max);

    // Verify against the sequential reference compositor.
    let reference = experiment.reference();
    let diff = outcome.image.max_abs_diff(&reference);
    println!("  max abs diff vs sequential reference: {diff:.2e}");
    assert!(diff < 2e-4);

    slsvr::image::pgm::save_pgm(&outcome.image, "quickstart.pgm").expect("save image");
    println!("\nwrote quickstart.pgm");
}
