//! Front-to-back ray casting of one subvolume block.

use vr_image::Image;
use vr_volume::{Subvolume, TransferFunction, Vec3, Volume};

use crate::accel::{render_clips, RenderAccel};
use crate::camera::Camera;
use crate::params::RenderParams;
use crate::pool::RenderPool;

/// Renders `block` of `volume` into a full-size sparse subimage.
///
/// `volume` is the *whole* dataset; only samples inside the block's
/// half-open voxel box contribute, so rendering all blocks and
/// compositing them front-to-back reproduces a monolithic render (up to
/// block-boundary resampling). Rays are cast only inside the block's
/// screen footprint; everything else stays exactly blank — that sparsity
/// is what the compositing methods exploit.
pub fn render_block(
    volume: &Volume,
    block: &Subvolume,
    transfer: &TransferFunction,
    camera: &Camera,
    params: &RenderParams,
) -> Image {
    render_block_accel(volume, block, transfer, camera, params, None, 0)
}

/// Like [`render_block`] with macrocell skipping and tile culling; the
/// output is bit-identical to the naive path (`accel = None, tile = 0`).
pub fn render_block_accel(
    volume: &Volume,
    block: &Subvolume,
    transfer: &TransferFunction,
    camera: &Camera,
    params: &RenderParams,
    accel: Option<&RenderAccel>,
    tile: usize,
) -> Image {
    render_block_accel_pool(volume, block, transfer, camera, params, accel, tile, None)
}

/// [`render_block_accel`] with its live tiles fanned across a
/// [`RenderPool`] (`None` renders inline): a one-clip call of
/// [`render_clips`], bit-identical at every thread count.
#[allow(clippy::too_many_arguments)]
pub fn render_block_accel_pool(
    volume: &Volume,
    block: &Subvolume,
    transfer: &TransferFunction,
    camera: &Camera,
    params: &RenderParams,
    accel: Option<&RenderAccel>,
    tile: usize,
    pool: Option<&RenderPool>,
) -> Image {
    let placement = Subvolume {
        rank: block.rank,
        origin: [0, 0, 0],
        dims: volume.dims(),
    };
    let clips = std::slice::from_ref(block);
    let (mut images, _) = render_clips(
        volume, &placement, clips, transfer, camera, params, accel, tile, pool,
    );
    images.pop().expect("one clip, one image")
}

/// Gray-level gradient shading: ambient + Lambertian diffuse.
#[inline]
pub(crate) fn shade(volume: &Volume, pos: Vec3, intensity: f32, params: &RenderParams) -> f32 {
    let g = volume.gradient(pos);
    let len = g.length();
    let lambert = if len > 1e-6 {
        // Surfaces face opposite the density gradient; take the absolute
        // cosine so both orientations light up (common for CT data).
        (g.dot(params.light_dir) / len).abs()
    } else {
        0.0
    };
    (intensity * (params.ambient + params.diffuse * lambert)).clamp(0.0, 1.0)
}

/// Whether [`shade`] lands in [0, 1] at every sample of a frame, never
/// NaN, and the tint is finite: the condition under which a sample whose
/// weight vanishes may go unshaded.
///
/// The intensity is a clamp of a finite product into [0, 1]. With each
/// light component in [−1, 1], `|light_dir| < 2`, so the Lambert term
/// `|g·l| / |g|` is below 2, and `ambient + diffuse·lambert` stays below
/// `|ambient| + 2·|diffuse|`, which must be finite. A NaN anywhere fails
/// one of the tests.
pub(crate) fn shading_is_finite(params: &RenderParams, transfer: &TransferFunction) -> bool {
    let l = params.light_dir;
    [l.x, l.y, l.z].iter().all(|c| c.abs() <= 1.0)
        && (params.ambient.abs() + 2.0 * params.diffuse.abs()).is_finite()
        && transfer.intensity_scale.is_finite()
        && params.tint.iter().all(|t| t.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_volume::{kd_partition, Dataset, DatasetKind, TransferFunction};

    fn solid_ball(dims: [usize; 3]) -> Volume {
        Volume::from_fn(dims, |x, y, z| {
            let dx = x as f32 - dims[0] as f32 / 2.0;
            let dy = y as f32 - dims[1] as f32 / 2.0;
            let dz = z as f32 - dims[2] as f32 / 2.0;
            let r = (dx * dx + dy * dy + dz * dz).sqrt();
            if r < dims[0] as f32 * 0.35 {
                200
            } else {
                0
            }
        })
    }

    fn whole(dims: [usize; 3]) -> Subvolume {
        Subvolume {
            rank: 0,
            origin: [0, 0, 0],
            dims,
        }
    }

    #[test]
    fn empty_volume_renders_blank() {
        let dims = [16, 16, 16];
        let v = Volume::zeros(dims);
        let cam = Camera::orbit(dims, 32, 32, 0.0, 0.0);
        let img = render_block(
            &v,
            &whole(dims),
            &TransferFunction::window(50.0, 100.0, 0.9),
            &cam,
            &RenderParams::fast(),
        );
        assert_eq!(img.non_blank_count(), 0);
    }

    #[test]
    fn ball_renders_roughly_circular_coverage() {
        let dims = [32, 32, 32];
        let v = solid_ball(dims);
        let cam = Camera::orbit(dims, 64, 64, 0.0, 0.0);
        let tf = TransferFunction::window(100.0, 200.0, 0.8);
        let img = render_block(&v, &whole(dims), &tf, &cam, &RenderParams::default());
        let n = img.non_blank_count();
        assert!(n > 0, "ball must be visible");
        // Coverage should be around π r² in image space; sanity band.
        let bounds = img.bounding_rect();
        let density = n as f64 / bounds.area() as f64;
        assert!(
            density > 0.5,
            "ball interior should be mostly covered: {density}"
        );
        // Center pixel must be strongly opaque (long chord + early term).
        assert!(img.get(32, 32).a > 0.9);
    }

    #[test]
    fn block_render_stays_inside_footprint() {
        let dims = [32, 32, 32];
        let v = solid_ball(dims);
        let cam = Camera::orbit(dims, 64, 64, 20.0, 35.0);
        let tf = TransferFunction::window(100.0, 200.0, 0.8);
        let part = kd_partition(dims, 4);
        for block in part.subvolumes() {
            let img = render_block(&v, block, &tf, &cam, &RenderParams::fast());
            let fp = cam.footprint(block.origin, block.dims);
            let bounds = img.bounding_rect();
            assert!(
                fp.contains_rect(&bounds),
                "bounds {bounds:?} escaped footprint {fp:?} for block {block:?}"
            );
        }
    }

    #[test]
    fn blocks_cover_less_than_whole() {
        let dims = [32, 32, 32];
        let v = solid_ball(dims);
        let cam = Camera::orbit(dims, 64, 64, 15.0, 25.0);
        let tf = TransferFunction::window(100.0, 200.0, 0.8);
        let whole_img = render_block(&v, &whole(dims), &tf, &cam, &RenderParams::fast());
        let part = kd_partition(dims, 8);
        for block in part.subvolumes() {
            let img = render_block(&v, block, &tf, &cam, &RenderParams::fast());
            assert!(img.non_blank_count() <= whole_img.non_blank_count());
        }
    }

    #[test]
    fn deterministic_rendering() {
        let ds = Dataset::with_dims(DatasetKind::Cube, [24, 24, 12]);
        let cam = Camera::orbit([24, 24, 12], 48, 48, 10.0, 20.0);
        let a = render_block(
            &ds.volume,
            &whole([24, 24, 12]),
            &ds.transfer,
            &cam,
            &RenderParams::fast(),
        );
        let b = render_block(
            &ds.volume,
            &whole([24, 24, 12]),
            &ds.transfer,
            &cam,
            &RenderParams::fast(),
        );
        assert_eq!(vr_image::checksum::fnv1a(&a), vr_image::checksum::fnv1a(&b));
    }

    #[test]
    fn cube_dataset_is_sparse_in_bounds() {
        // The Cube sample's signature: large bounding rectangle, low
        // non-blank density inside it.
        let dims = [48, 48, 24];
        let ds = Dataset::with_dims(DatasetKind::Cube, dims);
        let cam = Camera::orbit(dims, 96, 96, 25.0, 40.0);
        let img = render_block(
            &ds.volume,
            &whole(dims),
            &ds.transfer,
            &cam,
            &RenderParams::default(),
        );
        let bounds = img.bounding_rect();
        assert!(bounds.area() > 0);
        let density = img.non_blank_count() as f64 / bounds.area() as f64;
        assert!(
            density < 0.75,
            "cube should be sparse in its bounds, got {density}"
        );
    }

    #[test]
    fn shading_gate_is_off_for_any_non_finite_input() {
        let tf = TransferFunction::head();
        let p = RenderParams::default();
        assert!(shading_is_finite(&p, &tf));
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for params in [
                RenderParams { ambient: bad, ..p },
                RenderParams { diffuse: bad, ..p },
                RenderParams {
                    light_dir: Vec3::new(bad, 0.0, 0.0),
                    ..p
                },
                RenderParams {
                    light_dir: Vec3::new(0.0, bad, 0.0),
                    ..p
                },
                RenderParams {
                    light_dir: Vec3::new(0.0, 0.0, bad),
                    ..p
                },
                RenderParams {
                    tint: [1.0, bad, 1.0],
                    ..p
                },
            ] {
                assert!(!shading_is_finite(&params, &tf), "{params:?}");
            }
            let mut scaled = tf.clone();
            scaled.intensity_scale = bad;
            assert!(!shading_is_finite(&p, &scaled), "intensity_scale {bad}");
        }
        // Finite, but `ambient + diffuse·lambert` might overflow, or the
        // light is longer than unit on an axis.
        let huge = RenderParams {
            ambient: f32::MAX,
            diffuse: f32::MAX,
            ..p
        };
        assert!(!shading_is_finite(&huge, &tf));
        let long = RenderParams {
            light_dir: Vec3::new(0.0, 0.0, 2.0),
            ..p
        };
        assert!(!shading_is_finite(&long, &tf));
    }

    #[test]
    fn opacities_clamped_to_unit() {
        let dims = [16, 16, 16];
        let v = solid_ball(dims);
        let cam = Camera::orbit(dims, 32, 32, 0.0, 0.0);
        let tf = TransferFunction::window(50.0, 150.0, 1.0);
        let img = render_block(&v, &whole(dims), &tf, &cam, &RenderParams::default());
        for p in img.pixels() {
            assert!(p.a >= 0.0 && p.a <= 1.0);
            assert!(p.r >= 0.0 && p.r <= 1.0);
        }
    }
}
