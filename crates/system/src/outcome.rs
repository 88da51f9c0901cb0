//! What a frame produced, as the pipeline reports it.
//!
//! The two pipelines (two-phase [`Experiment`](crate::Experiment) and
//! distributed [`run_distributed`](crate::run_distributed)) differ only
//! in the body a rank runs; both run it through slsvr-core's one frame
//! runner ([`slsvr_core::runner`]), whose [`Outcome`] is the one record
//! of a frame, re-exported here as it is. A pipeline resolves each
//! rank's `T_comp` per its `comp_timing` (`resolve_timing`) and fills
//! the outcome's two extras, `render_seconds` and `partition_bytes`. A
//! rank's typed failure stays a value on the way: [`Outcome::failures`]
//! carries it to the caller, which reports it in its own words.

pub use slsvr_core::{FrameRecord, Outcome};

use crate::config::ExperimentConfig;

/// Resolves the `T_comp` of every rank with stats in place, per the
/// config's `comp_timing`; a rank killed, or failed, before its
/// composite finished keeps none.
pub(crate) fn resolve_timing(config: &ExperimentConfig, outcome: &mut Outcome) {
    for stats in outcome.per_rank.iter_mut().flatten() {
        config.comp_timing.apply(stats);
    }
}
