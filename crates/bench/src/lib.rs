//! Benchmark harness support: workload construction shared between the
//! table/figure reproduction binaries.

pub mod workloads;

pub use workloads::{
    cell_config, paper_datasets, paper_processor_counts, prepare_cell, sweep, Scale,
};
