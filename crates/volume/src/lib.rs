//! Volumetric data substrate for the sort-last rendering system.
//!
//! The paper's test samples are CT scans (*Engine*, *Head*) plus a
//! synthetic *Cube*. The original data is not redistributable, so this
//! crate builds **procedural analogues** with the same dimensions and —
//! more importantly — the same *screen-space sparsity classes* the paper's
//! evaluation depends on:
//!
//! * `Engine_low` — dense subimages (low-density casing visible),
//! * `Engine_high` — sparse subimages (only high-density internals),
//! * `Head` — dense roundish object,
//! * `Cube` — a hollow edge-frame whose bounding rectangle is large but
//!   mostly blank, the worst case for BSBR and best case for BSBRC.
//!
//! It also provides the volume partitioner: a KD (recursive bisection)
//! block decomposition whose split tree yields an exact front-to-back
//! depth ordering for any orthographic view direction and any
//! perspective eye, inside the volume or out — the invariant that makes
//! the `over` operator composable across processors.

pub mod balance;
pub mod datasets;
pub mod grid;
pub mod io;
pub mod macrocell;
pub mod partition;
pub mod transfer;
pub mod vec3;

pub use balance::{block_weight, kd_partition_weighted};
pub use datasets::{random_blobs, Dataset, DatasetKind};
pub use grid::Volume;
pub use macrocell::{MacrocellGrid, DEFAULT_CELL_SIZE};
pub use partition::{kd_partition, DepthOrder, Partition, Subvolume};
pub use transfer::TransferFunction;
pub use vec3::Vec3;
