//! Parameter sweeps with CSV export — the workhorse behind custom
//! evaluations beyond the paper's fixed tables.

use slsvr_core::{CompositeError, Method};
use vr_volume::DatasetKind;

use crate::config::ExperimentConfig;
use crate::experiment::Experiment;
use crate::outcome::FrameRecord;

/// One sweep cell: what one method did on one (dataset, P) workload.
/// The CSV and the paper-style tables are views of these.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// The test sample.
    pub dataset: DatasetKind,
    /// Square frame side in pixels.
    pub image_size: u16,
    /// Processor count.
    pub processors: usize,
    /// Compositing method.
    pub method: Method,
    /// The frame's summary (the numbers the paper tabulates).
    pub record: FrameRecord,
    /// Total `over` operations across ranks.
    pub composite_ops: u64,
}

/// A cartesian sweep over datasets × processor counts × methods at one
/// frame size. Rendering is shared across methods within a cell — the
/// paper's methodology for isolating the compositing phase.
#[derive(Clone, Debug)]
pub struct SweepBuilder {
    /// Base configuration; `dataset`, `processors` and `method` are
    /// overridden per cell.
    pub base: ExperimentConfig,
    /// Datasets to sweep.
    pub datasets: Vec<DatasetKind>,
    /// Processor counts to sweep.
    pub processor_counts: Vec<usize>,
    /// Methods to sweep.
    pub methods: Vec<Method>,
    /// Assert every cell's image against the sequential reference.
    pub verify: bool,
}

impl SweepBuilder {
    /// Runs every cell, rendering once per (dataset, P); cells come out
    /// dataset-major, then by processor count, then by method. The first
    /// cell whose frame fails ends the sweep with that rank's error.
    pub fn run(&self) -> Result<Vec<SweepCell>, CompositeError> {
        let mut cells = Vec::new();
        for &dataset in &self.datasets {
            for &processors in &self.processor_counts {
                let config = ExperimentConfig {
                    dataset,
                    processors,
                    ..self.base
                };
                let exp = Experiment::prepare(&config);
                let reference = self.verify.then(|| exp.reference());
                for &method in &self.methods {
                    let out = exp.run(method).into_result()?;
                    if let Some(expect) = &reference {
                        let diff = out.image.max_abs_diff(expect);
                        assert!(
                            diff < 2e-4,
                            "{method:?} P={processors} differs from reference by {diff}"
                        );
                    }
                    cells.push(SweepCell {
                        dataset,
                        image_size: config.image_size,
                        processors,
                        method,
                        composite_ops: out
                            .per_rank
                            .iter()
                            .flatten()
                            .map(|s| s.composite_ops())
                            .sum(),
                        record: out.record(),
                    });
                }
            }
        }
        Ok(cells)
    }
}

/// The table rows of `cells` (in [`SweepBuilder::run`] order): the
/// consecutive cells of one (dataset, P), one per method.
pub(crate) fn rows(cells: &[SweepCell]) -> impl Iterator<Item = &[SweepCell]> {
    cells.chunk_by(|a, b| (a.dataset, a.processors) == (b.dataset, b.processors))
}

/// Renders sweep cells as CSV (header + one line per cell).
pub fn to_csv(cells: &[SweepCell]) -> String {
    let mut out = String::from(
        "dataset,image_size,processors,method,t_comp_ms,t_comm_ms,t_total_ms,m_max,total_bytes,composite_ops\n",
    );
    for c in cells {
        let r = &c.record;
        out.push_str(&format!(
            "{},{},{},{},{:.4},{:.4},{:.4},{},{},{}\n",
            c.dataset.name(),
            c.image_size,
            c.processors,
            c.method.name(),
            r.t_comp_ms,
            r.t_comm_ms,
            r.t_total_ms,
            r.m_max,
            r.total_bytes,
            c.composite_ops
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sweep() -> SweepBuilder {
        SweepBuilder {
            base: ExperimentConfig {
                image_size: 48,
                volume_dims: Some([24, 24, 12]),
                step: 2.0,
                ..Default::default()
            },
            datasets: vec![DatasetKind::Cube, DatasetKind::Head],
            processor_counts: vec![2, 4],
            methods: vec![Method::Bs, Method::Bsbrc],
            verify: true,
        }
    }

    #[test]
    fn sweep_covers_the_cartesian_product() {
        let cells = small_sweep().run().unwrap();
        assert_eq!(cells.len(), 2 * 2 * 2);
        assert!(cells.iter().any(|c| c.dataset == DatasetKind::Cube
            && c.processors == 4
            && c.method == Method::Bsbrc));
        for c in &cells {
            assert!(c.record.t_total_ms > 0.0);
            assert!(c.record.m_max > 0);
        }
        // One table row per (dataset, P), one cell per method in it.
        assert_eq!(rows(&cells).count(), 4);
        assert!(rows(&cells).all(|row| row.len() == 2));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let cells = small_sweep().run().unwrap();
        let csv = to_csv(&cells);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), cells.len() + 1);
        assert!(lines[0].starts_with("dataset,image_size"));
        assert_eq!(lines[1].split(',').count(), 10);
    }
}
