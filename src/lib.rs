//! # slsvr — sort-last-sparse parallel volume rendering
//!
//! Umbrella crate re-exporting the whole system: a reproduction of
//! *"Efficient Compositing Methods for the Sort-Last-Sparse Parallel
//! Volume Rendering System on Distributed Memory Multicomputers"*
//! (Yang, Yu, Chung; ICPP 1999).
//!
//! The crates underneath:
//!
//! * [`image`] — pixels, the `over` operator, bounding rectangles,
//!   run-length encodings, interleaved sequences.
//! * [`volume`] — datasets, transfer functions, KD partitioning, depth
//!   orders, volume I/O.
//! * [`render`] — orthographic/perspective ray casting.
//! * [`comm`] — the simulated distributed-memory message-passing
//!   substrate with the SP2 cost model.
//! * [`compositing`] — the paper's BS/BSBR/BSLC/BSBRC methods plus
//!   baselines and extensions.
//! * [`system`] — the assembled pipeline and the experiment runner.
//! * [`serve`] — the concurrent frame-serving layer: sessions, LRU
//!   frame cache, request coalescing, and admission control.
//! * [`cost`] — the learned cost-model subsystem: measurement sweeps,
//!   a least-squares fitter, serializable presets (`sp2`, fitted
//!   `local`), predictive what-if sweeps, and the CI drift gate.
//!
//! ## Example
//!
//! ```
//! use slsvr::compositing::Method;
//! use slsvr::system::{Experiment, ExperimentConfig};
//! use slsvr::volume::DatasetKind;
//!
//! let config = ExperimentConfig {
//!     dataset: DatasetKind::Cube,
//!     image_size: 64,
//!     processors: 4,
//!     method: Method::Bsbrc,
//!     volume_dims: Some([24, 24, 12]), // reduced for a fast doc test
//!     step: 2.0,
//!     ..Default::default()
//! };
//! let experiment = Experiment::prepare(&config);
//! let outcome = experiment.run(config.method);
//! assert!(outcome.image.non_blank_count() > 0);
//! assert!(outcome.record().t_total_ms > 0.0);
//! // The distributed result matches the sequential reference.
//! assert!(outcome.image.max_abs_diff(&experiment.reference()) < 2e-4);
//! ```

pub use slsvr_core as compositing;
pub use vr_comm as comm;
pub use vr_cost as cost;
pub use vr_image as image;
pub use vr_render as render;
pub use vr_serve as serve;
pub use vr_system as system;
pub use vr_volume as volume;
