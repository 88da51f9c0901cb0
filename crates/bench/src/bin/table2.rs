//! Reproduces **Table 2**: compositing time of BSBR, BSLC and BSBRC on
//! the four test samples at 768×768, for P ∈ {2,…,64}.
//!
//! ```text
//! cargo run --release -p vr-bench --bin table2            # paper scale
//! cargo run --release -p vr-bench --bin table2 -- --quick # smoke run
//! ```

use slsvr_core::Method;
use vr_bench::workloads::{cell_config, paper_datasets, paper_processor_counts, sweep, Scale};
use vr_system::format_paper_table;
use vr_volume::DatasetKind;

fn main() {
    let scale = Scale::from_args();
    let methods = [Method::Bsbr, Method::Bslc, Method::Bsbrc];
    // `--quick` renders half the paper's side; print the size that ran.
    let side = cell_config(DatasetKind::Cube, 768, 2, scale).image_size;
    println!("# Table 2 — compositing time for the four {side}×{side} test samples");
    println!("(scale: {scale:?}; times in ms; comm modeled on the SP2 cost model)\n");
    for dataset in paper_datasets() {
        let rows = sweep(
            dataset,
            768,
            &methods,
            &paper_processor_counts(),
            scale,
            true,
        );
        println!("{}", format_paper_table(dataset.name(), &rows));
    }
}
