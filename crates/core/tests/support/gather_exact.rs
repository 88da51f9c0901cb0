//! The gather every correctness test assembles its frame with: the
//! tolerant gather, required to lose nothing. An includer brings
//! `gather_image_tolerant`, `OwnedPiece`, `Endpoint` and `Image` into
//! scope; the crate's unit tests and its integration tests name them by
//! different paths.

use super::{gather_image_tolerant, Endpoint, Image, OwnedPiece};

/// Gathers `piece` of `image` at `root` and returns the frame there
/// (`None` elsewhere). Panics unless the gather succeeds, every rank's
/// piece arrives and the pieces tile the frame exactly.
pub fn gather_exact(
    ep: &mut Endpoint,
    image: &Image,
    piece: &OwnedPiece,
    root: usize,
) -> Option<Image> {
    let gathered = gather_image_tolerant(ep, image, piece, root)
        .unwrap_or_else(|e| panic!("gather failed: {e}"))?;
    assert!(
        gathered.missing_ranks.is_empty(),
        "pieces missing from ranks {:?}",
        gathered.missing_ranks
    );
    assert_eq!(
        gathered.covered_pixels,
        gathered.image.area(),
        "gathered pieces must tile the image exactly"
    );
    Some(gathered.image)
}
