//! vr-cost — the learned cost-model subsystem.
//!
//! The paper's analysis (Equations (1)–(8), Table 1) predicts compositing
//! cost from hand-measured SP2 constants: `T_s`/`T_c` for the network and
//! per-operation compute costs for scanning, packing, compositing and
//! run-length encoding. The simulator inherits those 1999 numbers through
//! [`vr_comm::CostModel`] and [`slsvr_core::CompCost`]. This crate makes
//! the constants a *fitted, validated, re-fittable artifact* instead of a
//! hand-calibrated one:
//!
//! * [`sweep`] benchmarks each modeled operation (`over`, pack, unpack,
//!   RLE encode, run scanning, message framing, per-sample rendering)
//!   across a swept parameter grid, recording `(params, seconds)`
//!   samples.
//! * [`fit`] is a dependency-free least-squares fitter (normal
//!   equations) that learns `predicted = c_0 + Σ c_i·param_i` per
//!   operation and reports R² / adjusted R², refusing fits below a
//!   quality floor.
//! * [`preset`] packages the constants as a serializable
//!   [`CostModelPreset`] — the paper-faithful `sp2` preset next to a
//!   host-fitted `local` preset checked in as `COST_MODEL.json` — that
//!   the vclock scheduler, the conformance traffic oracle and the
//!   predictive sweep all load from the *same* source.
//! * [`predict`] runs what-if sweeps (any `P` up to 512, any image size
//!   or sparsity) under any preset via the closed-form Equations
//!   (1)–(8), with the paper's method ranking as a cross-check.
//! * [`drift`] re-fits a quick sweep and compares `t_over`-normalized
//!   ratios against a checked-in preset, so CI notices when the fitted
//!   model no longer describes the code.

pub mod drift;
pub mod fit;
pub mod json;
pub mod predict;
pub mod preset;
pub mod sweep;

pub use drift::{drift_check, DriftLine, DriftReport, DEFAULT_TOLERANCE_PCT};
pub use fit::{fit_linear, fit_linear_with_floor, FitError, FitResult};
pub use predict::{predict_grid, ranking_holds, PredictRow};
pub use preset::{
    parse_model_file, render_model_file, resolve_preset, CostModelPreset, OpFit,
    DEFAULT_MODEL_PATH, MODEL_SCHEMA,
};
pub use sweep::{fit_preset, run_sweep, OpSweep, SweepData, QUALITY_FLOOR};
