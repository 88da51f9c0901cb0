//! The paper's contribution: efficient image compositing for the
//! sort-last-sparse parallel volume rendering system.
//!
//! Four binary-swap variants are implemented exactly as described in
//! Section 3 — as one swap schedule (`methods::swap`) with a stage codec
//! per method, the way the paper presents them:
//!
//! * [`Method::Bs`] — plain binary-swap (Ma et al.), the baseline: halves
//!   travel as full frames.
//! * [`Method::Bsbr`] — binary-swap with *bounding rectangles*: each
//!   stage ships an 8-byte rectangle header plus only the pixels inside
//!   the sending half's bounding rectangle.
//! * [`Method::Bslc`] — binary-swap with *run-length encoding* over
//!   blank/non-blank pixels and *static load balancing* via interleaved
//!   pixel sequences.
//! * [`Method::Bsbrc`] — bounding rectangle *and* RLE combined: RLE runs
//!   only over the sending bounding rectangle.
//!
//! A fifth codec rides the same driver: [`Method::Bsrl`] (run-length
//! codes over spatial halves, the ablation between BSLC and BSBRC). So
//! does [`Method::RadixK`], the modern generalization of binary swap:
//! BSBR's codec over rounds of up to four peers instead of the fold and
//! pairs. [`Method::TileStream`] keeps its own schedule (tiles streamed
//! to interleaved owners as they complete).
//!
//! ## Depth-position space
//!
//! `over` is associative but not commutative, so every pairwise composite
//! must know which operand is in front. All schedules here run in
//! *virtual rank* space: virtual rank `v` is the processor's position in
//! the front-to-back visibility order ([`vr_volume::DepthOrder`]).
//! Merged partial images then always cover *contiguous* depth intervals,
//! and orientation reduces to an integer comparison — lower virtual rank
//! is in front. The extension to non-power-of-two processor counts (the
//! paper's first future-work item) folds adjacent virtual pairs first,
//! which preserves that contiguity.

pub mod analysis;
pub mod conformance;
pub mod error;
pub mod gather;
pub mod methods;
pub mod reference;
pub mod schedule;
pub mod stats;
pub mod timer;
pub mod wire;

pub use analysis::{predict, virtual_completion, Prediction, UniformWorkload};
pub use conformance::{
    expected_traffic, parse_corpus, run_case, ConformanceCase, ConformanceOutcome, CorpusEntry,
    CostKind, ExpectedTraffic, Workload,
};
pub use error::CompositeError;
pub use gather::{gather_image, gather_image_tolerant, GatheredImage};
pub use methods::{composite, CompositeResult, Method, OwnedPiece};
pub use reference::reference_composite;
pub use schedule::{fold_into_pow2, FoldOutcome, VirtualTopology};
pub use stats::{CompCost, MethodStats, StageStat};
pub use timer::Stopwatch;
