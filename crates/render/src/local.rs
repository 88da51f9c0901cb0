//! Rendering from a *locally owned* block — the distributed-memory mode
//! where each rank holds only its scattered subvolume, not the whole
//! dataset.
//!
//! Compared to [`render_block`](crate::raycast::render_block) (which
//! samples a shared full volume and clips to the block), sampling here
//! clamps at the block faces, so gradients and interpolation at block
//! boundaries use one-sided data — precisely what a real distributed
//! implementation without ghost layers produces. The compositing
//! correctness tests are unaffected (the reference composites the same
//! subimages); the image differs from a monolithic render only in a
//! thin film at block seams, which shrinks if the partitioner adds
//! ghost voxels.

use vr_image::Image;
use vr_volume::{Subvolume, TransferFunction, Volume};

use crate::accel::{render_clips, RenderAccel};
use crate::camera::Camera;
use crate::params::RenderParams;

/// Renders a locally held block into a full-size sparse subimage.
///
/// `local` contains only the block's voxels; `placement` records where
/// the block sits in the global grid (its `rank` field is ignored). Rays
/// are integrated only inside `clip` (voxel coordinates, must lie within
/// `placement`'s box) while sampling from the full local data.
///
/// This is the **ghost layer** mode: `placement` is the block expanded
/// by [`Subvolume::expanded`], `clip` is the unexpanded interior each
/// rank exclusively owns. Samples near the clip faces then interpolate
/// into the ghost shell instead of clamping, which removes compositing
/// seams; `clip = placement` is the block without a shell.
///
/// `accel = None, tile = 0` is the naive reference. The acceleration
/// grid must be built over `local` (the ghost-expanded data each rank
/// holds), so empty-space skipping works without any global state — the
/// paper's distributed-memory setting — and the output is bit-identical
/// to the naive one. It renders inline: a one-clip call of
/// [`render_clips`] with no pool.
#[allow(clippy::too_many_arguments)]
pub fn render_local_block_clipped_accel(
    local: &Volume,
    placement: &Subvolume,
    clip: &Subvolume,
    transfer: &TransferFunction,
    camera: &Camera,
    params: &RenderParams,
    accel: Option<&RenderAccel>,
    tile: usize,
) -> Image {
    let clips = std::slice::from_ref(clip);
    let (mut images, _) = render_clips(
        local, placement, clips, transfer, camera, params, accel, tile, None,
    );
    images.pop().expect("one clip, one image")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raycast;
    use vr_volume::{kd_partition, TransferFunction};

    /// The single entry, naive (`None, 0`).
    fn render_naive(
        local: &Volume,
        placement: &Subvolume,
        clip: &Subvolume,
        tf: &TransferFunction,
        cam: &Camera,
        params: &RenderParams,
    ) -> Image {
        render_local_block_clipped_accel(local, placement, clip, tf, cam, params, None, 0)
    }

    fn ball(dims: [usize; 3]) -> Volume {
        Volume::from_fn(dims, |x, y, z| {
            let dx = x as f32 - dims[0] as f32 / 2.0;
            let dy = y as f32 - dims[1] as f32 / 2.0;
            let dz = z as f32 - dims[2] as f32 / 2.0;
            if (dx * dx + dy * dy + dz * dz).sqrt() < dims[0] as f32 * 0.33 {
                180
            } else {
                0
            }
        })
    }

    #[test]
    fn interior_block_matches_shared_volume_mostly() {
        let dims = [32, 32, 32];
        let v = ball(dims);
        let cam = Camera::orbit(dims, 64, 64, 18.0, 27.0);
        let tf = TransferFunction::window(100.0, 200.0, 0.7);
        let params = RenderParams::fast();
        let part = kd_partition(dims, 4);
        for block in part.subvolumes() {
            let shared = raycast::render_block(&v, block, &tf, &cam, &params);
            let local_vol = v.extract_block(block.origin, block.dims);
            let local = render_naive(&local_vol, block, block, &tf, &cam, &params);
            let differing = shared
                .pixels()
                .iter()
                .zip(local.pixels())
                .filter(|(a, b)| a.max_abs_diff(b) > 0.05)
                .count();
            let frac = differing as f64 / shared.area() as f64;
            assert!(frac < 0.05, "block {block:?}: {frac:.3} of pixels disagree");
        }
    }

    #[test]
    fn local_render_of_whole_volume_is_exact() {
        // With a single block covering everything, local == shared.
        let dims = [24, 24, 24];
        let v = ball(dims);
        let cam = Camera::orbit(dims, 48, 48, 10.0, 20.0);
        let tf = TransferFunction::window(100.0, 200.0, 0.7);
        let params = RenderParams::fast();
        let block = Subvolume {
            rank: 0,
            origin: [0, 0, 0],
            dims,
        };
        let shared = raycast::render_block(&v, &block, &tf, &cam, &params);
        let local = render_naive(&v, &block, &block, &tf, &cam, &params);
        assert_eq!(shared, local);
    }

    #[test]
    fn ghost_layers_remove_seams() {
        let dims = [32, 32, 32];
        let v = ball(dims);
        let cam = Camera::orbit(dims, 64, 64, 18.0, 27.0);
        let tf = TransferFunction::window(100.0, 200.0, 0.7);
        let params = RenderParams::fast();
        let part = kd_partition(dims, 8);
        for block in part.subvolumes() {
            let shared = raycast::render_block(&v, block, &tf, &cam, &params);
            // Ghost = 2 covers trilinear (1) + gradient stencil (1).
            let padded = block.expanded(2, dims);
            let local = v.extract_block(padded.origin, padded.dims);
            let ghosted = render_naive(&local, &padded, block, &tf, &cam, &params);
            let diff = shared.max_abs_diff(&ghosted);
            assert!(diff < 1e-6, "block {block:?} still has seams: {diff}");
        }
    }

    #[test]
    #[should_panic(expected = "clip box")]
    fn clip_outside_placement_rejected() {
        let v = ball([8, 8, 8]);
        let cam = Camera::orbit([8, 8, 8], 16, 16, 0.0, 0.0);
        let placement = Subvolume {
            rank: 0,
            origin: [0, 0, 0],
            dims: [8, 8, 8],
        };
        let clip = Subvolume {
            rank: 0,
            origin: [4, 0, 0],
            dims: [8, 8, 8],
        };
        let _ = render_naive(
            &v,
            &placement,
            &clip,
            &TransferFunction::cube(),
            &cam,
            &RenderParams::default(),
        );
    }

    #[test]
    #[should_panic(expected = "placement dims")]
    fn dims_mismatch_rejected() {
        let v = ball([8, 8, 8]);
        let cam = Camera::orbit([8, 8, 8], 16, 16, 0.0, 0.0);
        let block = Subvolume {
            rank: 0,
            origin: [0, 0, 0],
            dims: [4, 8, 8],
        };
        let _ = render_naive(
            &v,
            &block,
            &block,
            &TransferFunction::cube(),
            &cam,
            &RenderParams::default(),
        );
    }
}
