//! Reproduces **Table 1** (and the data behind **Figures 8–11**): the
//! compositing time `T_comp` / `T_comm` / `T_total` of BS, BSBR, BSLC and
//! BSBRC on the four test samples at 384×384, for P ∈ {2,…,64}.
//!
//! ```text
//! cargo run --release -p vr-bench --bin table1            # paper scale
//! cargo run --release -p vr-bench --bin table1 -- --quick # smoke run
//! ```

use slsvr_core::Method;
use vr_bench::workloads::{cell_config, paper_datasets, paper_processor_counts, sweep, Scale};
use vr_system::{format_figure_series, format_paper_table, SweepCell};
use vr_volume::DatasetKind;

fn main() {
    let scale = Scale::from_args();
    let methods = Method::paper_methods();
    // `--quick` renders half the paper's side; print the size that ran.
    let side = cell_config(DatasetKind::Cube, 384, 2, scale).image_size;
    println!("# Table 1 — compositing time for the four {side}×{side} test images");
    println!("(scale: {scale:?}; times in ms; comm modeled on the SP2 cost model)\n");
    for dataset in paper_datasets() {
        let rows = sweep(
            dataset,
            384,
            &methods,
            &paper_processor_counts(),
            scale,
            true,
        );
        println!("{}", format_paper_table(dataset.name(), &rows));
        // The same data, presented as the paper's figures 8–11 series.
        let fig = match dataset.name() {
            "Engine_low" => "Figure 8",
            "Head" => "Figure 9",
            "Engine_high" => "Figure 10",
            _ => "Figure 11",
        };
        let sparse_methods: Vec<SweepCell> = rows
            .iter()
            .filter(|c| c.method != Method::Bs)
            .cloned()
            .collect();
        println!(
            "{}",
            format_figure_series(&format!("{fig}: {}", dataset.name()), &sparse_methods)
        );
    }
}
