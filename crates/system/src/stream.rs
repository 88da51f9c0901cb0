//! The benchmark package's `system.stream.*` probe, kept as a thin timer
//! over the two-phase runner until that package is thawed (ROADMAP item
//! 1), which deletes it. Nothing else may call it.

use std::{sync::Arc, time::Instant};

use slsvr_core::Method;
use vr_volume::Dataset;

use crate::{Experiment, ExperimentConfig};

/// One TSTREAM frame to time: a config and its built dataset.
pub struct StreamExperiment(ExperimentConfig, Arc<Dataset>);

/// What [`StreamExperiment::run`] measured, in wall seconds.
pub struct StreamTimes {
    /// Prepare (render) plus TSTREAM composite and gather.
    pub total_seconds: f64,
    /// Prepare plus TSTREAM's earliest owned-tile offset over ranks.
    pub first_tile_seconds: Option<f64>,
}

impl StreamExperiment {
    pub fn prepare_with_dataset(config: &ExperimentConfig, dataset: Arc<Dataset>) -> Self {
        StreamExperiment(*config, dataset)
    }

    /// Times `Experiment::prepare_with_dataset` + `run(Method::TileStream)`.
    pub fn run(&self) -> StreamTimes {
        let start = Instant::now();
        let exp = Experiment::prepare_with_dataset(&self.0, Arc::clone(&self.1));
        let rendered = start.elapsed().as_secs_f64();
        let out = exp.run(Method::TileStream);
        let first = out
            .per_rank
            .iter()
            .flatten()
            .filter_map(|s| s.first_tile_seconds);
        StreamTimes {
            total_seconds: start.elapsed().as_secs_f64(),
            first_tile_seconds: first.reduce(f64::min).map(|t| rendered + t),
        }
    }
}
