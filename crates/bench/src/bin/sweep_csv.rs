//! Dumps the full evaluation sweep (Table 1 axes, all seven methods +
//! the BSRL ablation) as CSV for external plotting.
//!
//! ```text
//! cargo run --release -p vr-bench --bin sweep_csv [-- --quick] > sweep.csv
//! ```

use slsvr_core::Method;
use vr_bench::workloads::{cell_config, Scale};
use vr_system::{to_csv, SweepBuilder};
use vr_volume::DatasetKind;

fn main() {
    let scale = Scale::from_args();
    let base = cell_config(DatasetKind::EngineLow, 384, 8, scale);
    let sweep = SweepBuilder {
        base,
        datasets: DatasetKind::all().to_vec(),
        processor_counts: vec![2, 4, 8, 16, 32, 64],
        methods: Method::all().to_vec(),
        verify: false,
    };
    let records = sweep.run();
    print!("{}", to_csv(&records));
}
