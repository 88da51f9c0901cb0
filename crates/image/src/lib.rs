//! Image-space primitives for sort-last-sparse parallel volume rendering.
//!
//! This crate provides the pixel model (premultiplied RGBA, 16 bytes — the
//! pixel size used throughout the paper's cost equations), image buffers,
//! bounding-rectangle algebra, the `over` compositing operator, run-length
//! encodings (the blank/non-blank *mask* RLE of Section 3.3 and the
//! value RLE of Ahrens & Painter used as a related-work baseline), the
//! sparse message body every BSLC/BSBRC-style message is written and read
//! through, and the interleaved pixel sequences that implement BSLC's
//! static load balancing.
//!
//! Everything here is purely sequential; the distributed compositing methods
//! built on top live in `slsvr-core`.

pub mod body;
pub mod checksum;
pub mod image;
pub mod interleave;
pub mod kernel;
pub mod pgm;
pub mod pixel;
pub mod rect;
pub mod rle;
pub mod run_image;
pub mod stats;

pub use crate::image::Image;
pub use crate::interleave::StridedSeq;
pub use crate::pixel::{Pixel, PixelLayout, BYTES_PER_PIXEL};
pub use crate::rect::Rect;
pub use crate::rle::{MaskRle, RunSet, ValueRle, BYTES_PER_RUN_CODE};
pub use crate::run_image::RunImage;
