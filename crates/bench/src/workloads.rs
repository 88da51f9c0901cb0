//! Workload construction shared by the table/figure reproduction
//! binaries.

use slsvr_core::Method;
use vr_system::{Experiment, ExperimentConfig, SweepBuilder, SweepCell};
use vr_volume::DatasetKind;

/// The four test samples in the paper's presentation order.
pub fn paper_datasets() -> [DatasetKind; 4] {
    DatasetKind::all()
}

/// The processor counts used throughout the evaluation (Section 4).
pub fn paper_processor_counts() -> [usize; 6] {
    [2, 4, 8, 16, 32, 64]
}

/// Run scale: full paper dimensions or a fast reduced configuration for
/// smoke runs (`--quick`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Paper-faithful volume dimensions and sampling.
    Paper,
    /// Reduced volume (96×96×48) and coarser sampling; same code paths.
    Quick,
}

impl Scale {
    /// Parses `--quick` from command-line arguments.
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Paper
        }
    }
}

/// Builds the experiment configuration for one evaluation cell.
pub fn cell_config(
    dataset: DatasetKind,
    image_size: u16,
    processors: usize,
    scale: Scale,
) -> ExperimentConfig {
    let (volume_dims, step, image_size) = match scale {
        Scale::Paper => (None, 1.0, image_size),
        Scale::Quick => (Some([96, 96, 48]), 2.0, image_size / 2),
    };
    ExperimentConfig {
        dataset,
        image_size,
        processors,
        method: Method::Bsbrc,
        volume_dims,
        step,
        ..Default::default()
    }
}

/// Prepares (builds + renders) one evaluation cell.
pub fn prepare_cell(
    dataset: DatasetKind,
    image_size: u16,
    processors: usize,
    scale: Scale,
) -> Experiment {
    Experiment::prepare(&cell_config(dataset, image_size, processors, scale))
}

/// Runs `methods` over all processor counts for one workload, returning
/// the cells a paper table is formatted from. Rendering happens once per
/// processor count and is shared across methods; `verify` checks every
/// cell against the sequential reference.
pub fn sweep(
    dataset: DatasetKind,
    image_size: u16,
    methods: &[Method],
    counts: &[usize],
    scale: Scale,
    verify: bool,
) -> Vec<SweepCell> {
    SweepBuilder {
        // `run` sets the processor count of each cell.
        base: cell_config(dataset, image_size, 1, scale),
        datasets: vec![dataset],
        processor_counts: counts.to_vec(),
        methods: methods.to_vec(),
        verify,
    }
    .run()
    .expect("a fault-free sweep")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_shrinks_workload() {
        let paper = cell_config(DatasetKind::Cube, 384, 8, Scale::Paper);
        let quick = cell_config(DatasetKind::Cube, 384, 8, Scale::Quick);
        assert_eq!(paper.image_size, 384);
        assert_eq!(quick.image_size, 192);
        assert_eq!(quick.volume_dims, Some([96, 96, 48]));
    }

    #[test]
    fn sweep_produces_row_per_count() {
        let rows = sweep(
            DatasetKind::Cube,
            128,
            &[Method::Bs, Method::Bsbrc],
            &[2, 4],
            Scale::Quick,
            true,
        );
        assert_eq!(rows.len(), 4);
        assert_eq!((rows[0].processors, rows[3].processors), (2, 4));
        assert_eq!(
            (rows[2].method, rows[3].method),
            (Method::Bs, Method::Bsbrc)
        );
        assert!(rows.iter().all(|c| c.record.t_total_ms >= 0.0));
    }
}
