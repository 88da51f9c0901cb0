//! The rendering phase: each processor turns its subvolume block into a
//! sparse full-size subimage.
//!
//! [`raycast`] matches the paper: a front-to-back ray caster with
//! transfer-function classification, central-difference gradient shading
//! and early ray termination (Levoy-style). Rays are only cast inside
//! the screen-space footprint of the processor's block, so subimage cost
//! scales with the block, not the frame. [`local`] is the same loop over
//! a block a rank holds by itself (the distributed-memory mode).

pub mod accel;
pub mod camera;
pub mod local;
pub mod params;
pub mod pool;
pub mod raycast;

pub use accel::{RenderAccel, TfLut, TileMask, DEFAULT_TILE_SIZE};
pub use camera::{Camera, Projection};
pub use local::render_local_block_clipped_accel;
pub use params::{RenderParams, MAX_SIMD_LANES};
pub use pool::{resolve_threads, RenderPool};
pub use raycast::{render_block, render_block_accel, render_block_accel_pool};
