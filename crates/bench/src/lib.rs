//! Benchmark harness support: workload construction shared between the
//! table/figure reproduction binaries, plus the trajectory-file
//! scaffolding ([`gate`]) the `bench_*` programs persist through.

pub mod gate;
pub mod workloads;

/// The hand-rolled JSON value type now lives in `vr-cost` (the
/// cost-model subsystem persists sweeps and presets with it); it is
/// re-exported here so the bench binaries keep their import path.
pub use vr_cost::json;

pub use workloads::{
    cell_config, paper_datasets, paper_processor_counts, prepare_cell, sweep, Scale,
};
