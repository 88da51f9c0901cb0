//! The complete sort-last-sparse parallel volume rendering system:
//! partitioning → rendering → compositing → gather, plus the experiment
//! runner that reproduces the paper's evaluation.
//!
//! There is one frame pipeline: a [`Scene`] (config → camera, blocks,
//! depth order, render parameters) feeds one of two per-rank bodies —
//! two-phase ([`Experiment`]: render every subimage, then composite with
//! any method, TSTREAM included) or distributed ([`run_distributed`]:
//! rank 0 scatters the volume first) — and every body's results are
//! collected into the same [`Outcome`], which [`Outcome::record`]
//! summarises as one [`FrameRecord`].
//!
//! ```no_run
//! use vr_system::{Experiment, ExperimentConfig};
//! use vr_volume::DatasetKind;
//! use slsvr_core::Method;
//!
//! let config = ExperimentConfig {
//!     dataset: DatasetKind::EngineLow,
//!     image_size: 384,
//!     processors: 8,
//!     method: Method::Bsbrc,
//!     ..Default::default()
//! };
//! let outcome = Experiment::prepare(&config).run(config.method);
//! println!("T_total = {:.2} ms", outcome.record().t_total_ms);
//! ```

pub mod animation;
pub mod config;
pub mod distribute;
pub mod experiment;
pub mod outcome;
pub mod report;
pub mod scene;
pub mod stream;
pub mod sweep;

pub use animation::Animation;
pub use config::{CompTiming, ExperimentConfig};
pub use distribute::run_distributed;
pub use experiment::Experiment;
pub use outcome::Outcome;
pub use report::{format_figure_series, format_paper_table, format_stage_timeline, FrameRecord};
pub use scene::Scene;
pub use stream::StreamExperiment;
pub use sweep::{to_csv, SweepBuilder, SweepCell};
pub use vr_render::{resolve_threads, RenderPool};
