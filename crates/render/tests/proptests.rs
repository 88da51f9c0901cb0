//! Property-based tests for camera geometry and renderer invariants,
//! plus differential tests pinning the accelerated render path (macrocell
//! skipping + tile culling) bit-identical to the naive integrator.

use std::sync::Arc;

use proptest::prelude::*;
use vr_image::checksum::fnv1a;
use vr_render::{
    render_block, render_block_accel, render_block_accel_pool, render_clips,
    render_local_block_clipped_accel, Camera, Projection, RenderAccel, RenderParams, RenderPool,
};
use vr_volume::{kd_partition, MacrocellGrid, Subvolume, TransferFunction, Volume};

const DIMS: [usize; 3] = [24, 24, 16];

fn ball() -> Volume {
    Volume::from_fn(DIMS, |x, y, z| {
        let dx = x as f32 - 12.0;
        let dy = y as f32 - 12.0;
        let dz = z as f32 - 8.0;
        if (dx * dx + dy * dy + dz * dz).sqrt() < 7.0 {
            190
        } else {
            0
        }
    })
}

fn arb_rot() -> impl Strategy<Value = (f32, f32)> {
    (-180.0f32..180.0, -180.0f32..180.0)
}

/// A deterministic pseudo-random volume: roughly `density/256` of the
/// voxels are non-zero with hash-derived values, the rest empty — the
/// sparse regime empty-space skipping targets.
fn noise_volume(dims: [usize; 3], seed: u32, density: u8) -> Volume {
    Volume::from_fn(dims, |x, y, z| {
        let mut h = seed
            ^ (x as u32).wrapping_mul(0x9E37_79B9)
            ^ (y as u32).wrapping_mul(0x85EB_CA6B)
            ^ (z as u32).wrapping_mul(0xC2B2_AE35);
        h ^= h >> 16;
        h = h.wrapping_mul(0x7FEB_352D);
        h ^= h >> 15;
        if ((h & 0xFF) as u8) < density {
            (h >> 8) as u8
        } else {
            0
        }
    })
}

/// A family of sub-boxes of `dims`, including a degenerate 1-voxel-thin
/// slab at the far face.
fn clip_box(dims: [usize; 3], which: u8) -> Subvolume {
    let d = dims;
    match which % 4 {
        0 => Subvolume {
            rank: 0,
            origin: [0, 0, 0],
            dims: d,
        },
        1 => Subvolume {
            rank: 0,
            origin: [0, 0, 0],
            dims: [d[0].div_ceil(2), d[1], d[2]],
        },
        2 => Subvolume {
            rank: 0,
            origin: [0, 0, d[2] - 1],
            dims: [d[0], d[1], 1],
        },
        _ => Subvolume {
            rank: 0,
            origin: [d[0] / 2, d[1] / 2, 0],
            dims: [d[0] - d[0] / 2, d[1] - d[1] / 2, d[2]],
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn camera_basis_is_orthonormal_for_any_rotation((rx, ry) in arb_rot()) {
        let c = Camera::orbit(DIMS, 64, 64, rx, ry);
        prop_assert!((c.view_dir.length() - 1.0).abs() < 1e-4);
        prop_assert!((c.up.length() - 1.0).abs() < 1e-4);
        prop_assert!((c.right.length() - 1.0).abs() < 1e-4);
        prop_assert!(c.view_dir.dot(c.up).abs() < 1e-4);
        prop_assert!(c.view_dir.dot(c.right).abs() < 1e-4);
    }

    #[test]
    fn rendered_pixels_stay_inside_footprints((rx, ry) in arb_rot(), p in 1usize..6) {
        let v = ball();
        let cam = Camera::orbit(DIMS, 48, 48, rx, ry);
        let tf = TransferFunction::window(100.0, 200.0, 0.8);
        let part = kd_partition(DIMS, p);
        for block in part.subvolumes() {
            let img = render_block(&v, block, &tf, &cam, &RenderParams::fast());
            let fp = cam.footprint(block.origin, block.dims);
            let bounds = img.bounding_rect();
            prop_assert!(
                fp.contains_rect(&bounds),
                "rot ({rx},{ry}) block {block:?}: bounds {bounds:?} outside {fp:?}"
            );
        }
    }

    #[test]
    fn whole_volume_is_always_visible((rx, ry) in arb_rot()) {
        let v = ball();
        let cam = Camera::orbit(DIMS, 48, 48, rx, ry);
        let tf = TransferFunction::window(100.0, 200.0, 0.8);
        let block = Subvolume { rank: 0, origin: [0, 0, 0], dims: DIMS };
        let img = render_block(&v, &block, &tf, &cam, &RenderParams::fast());
        prop_assert!(img.non_blank_count() > 0, "ball vanished at rot ({rx},{ry})");
        // All channels in range.
        for px in img.pixels() {
            prop_assert!((0.0..=1.0).contains(&px.a));
            prop_assert!((0.0..=1.0).contains(&px.r));
        }
    }

    #[test]
    fn perspective_projection_agrees_with_ray(
        (rx, ry) in arb_rot(),
        px in 2u16..46,
        py in 2u16..46,
        t in 5.0f32..60.0,
    ) {
        // A point generated along pixel (px,py)'s ray must project back
        // to (approximately) that pixel.
        let cam = Camera::orbit_perspective(DIMS, 48, 48, rx, ry, 1.2);
        let (o, d) = cam.ray(px, py);
        let point = o + d * t;
        // Only test points in front of the eye plane.
        if let Projection::Perspective { eye } = cam.projection {
            prop_assume!((point - eye).dot(cam.view_dir) > 1.0);
        }
        let (qx, qy) = cam.project(point);
        prop_assert!((qx - (px as f32 + 0.5)).abs() < 0.25, "x: {qx} vs {px}");
        prop_assert!((qy - (py as f32 + 0.5)).abs() < 0.25, "y: {qy} vs {py}");
    }

    #[test]
    fn orthographic_projection_inverts_ray_origin(
        (rx, ry) in arb_rot(),
        px in 0u16..48,
        py in 0u16..48,
        t in -30.0f32..30.0,
    ) {
        let cam = Camera::orbit(DIMS, 48, 48, rx, ry);
        let (o, d) = cam.ray(px, py);
        let (qx, qy) = cam.project(o + d * t);
        prop_assert!((qx - (px as f32 + 0.5)).abs() < 1e-2);
        prop_assert!((qy - (py as f32 + 0.5)).abs() < 1e-2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole invariant: for any volume, transfer function, view,
    /// macrocell size, tile size and sub-block (including a 1-voxel-thin
    /// slab), the accelerated renderer is **bit-identical** to the naive
    /// one.
    #[test]
    fn accelerated_render_is_bit_identical_to_naive(
        seed in any::<u32>(),
        density in 8u8..96,
        cell in 1usize..12,
        tile in prop_oneof![Just(0usize), 1usize..48],
        which in 0u8..4,
        (rx, ry) in arb_rot(),
        lo in 40.0f32..160.0,
        w in 10.0f32..90.0,
        ert in prop_oneof![Just(1.0f32), Just(0.9f32)],
    ) {
        let dims = [17, 13, 9];
        let v = noise_volume(dims, seed, density);
        let tf = TransferFunction::window(lo, lo + w, 0.8);
        let cam = Camera::orbit(dims, 40, 40, rx, ry);
        let params = RenderParams {
            step: 1.3,
            early_termination_alpha: ert,
            ..RenderParams::fast()
        };
        let block = clip_box(dims, which);
        let naive = render_block(&v, &block, &tf, &cam, &params);
        let accel = RenderAccel::new(Arc::new(MacrocellGrid::build(&v, cell)), &tf, &params);
        let fast = render_block_accel(&v, &block, &tf, &cam, &params, Some(&accel), tile);
        prop_assert_eq!(
            fnv1a(&naive), fnv1a(&fast),
            "diverged: seed={} cell={} tile={} which={} rot=({},{})",
            seed, cell, tile, which, rx, ry
        );
        prop_assert_eq!(naive.bounding_rect(), fast.bounding_rect());
    }

    /// Degenerate 1-voxel-thin *whole volumes* (a flat slab along any
    /// axis) must also render identically, for any macrocell size.
    #[test]
    fn thin_volumes_render_identically(
        seed in any::<u32>(),
        axis in 0usize..3,
        cell in 1usize..10,
        tile in prop_oneof![Just(0usize), 1usize..32],
        (rx, ry) in arb_rot(),
    ) {
        let mut dims = [11, 9, 7];
        dims[axis] = 1;
        let v = noise_volume(dims, seed, 128);
        let tf = TransferFunction::window(30.0, 150.0, 0.9);
        let cam = Camera::orbit(dims, 32, 32, rx, ry);
        let params = RenderParams::fast();
        let block = Subvolume { rank: 0, origin: [0, 0, 0], dims };
        let naive = render_block(&v, &block, &tf, &cam, &params);
        let accel = RenderAccel::new(Arc::new(MacrocellGrid::build(&v, cell)), &tf, &params);
        let fast = render_block_accel(&v, &block, &tf, &cam, &params, Some(&accel), tile);
        prop_assert_eq!(fnv1a(&naive), fnv1a(&fast), "axis={} cell={}", axis, cell);
    }

    /// The distributed-memory path: a locally held block placed at a
    /// non-zero origin with a clip interior, grid built over local data
    /// only — still bit-identical.
    #[test]
    fn accelerated_local_clipped_render_matches_naive(
        seed in any::<u32>(),
        cell in 1usize..10,
        tile in prop_oneof![Just(0usize), 1usize..40],
        (rx, ry) in arb_rot(),
    ) {
        let gdims = [20, 16, 12];
        let ldims = [9, 8, 6];
        let local = noise_volume(ldims, seed, 64);
        let placement = Subvolume { rank: 0, origin: [5, 4, 3], dims: ldims };
        let clip = Subvolume { rank: 0, origin: [6, 4, 3], dims: [7, 8, 5] };
        let cam = Camera::orbit(gdims, 36, 36, rx, ry);
        let tf = TransferFunction::window(60.0, 140.0, 0.9);
        let params = RenderParams::fast();
        let naive = render_local_block_clipped_accel(
            &local, &placement, &clip, &tf, &cam, &params, None, 0,
        );
        let accel = RenderAccel::new(Arc::new(MacrocellGrid::build(&local, cell)), &tf, &params);
        let fast = render_local_block_clipped_accel(
            &local, &placement, &clip, &tf, &cam, &params, Some(&accel), tile,
        );
        prop_assert_eq!(fnv1a(&naive), fnv1a(&fast), "cell={} tile={}", cell, tile);
    }

    /// The threading/SIMD tentpole invariant: `render(threads=t,
    /// lanes=l)` is **bit-identical** to `render(threads=1, lanes=1)`
    /// for t ∈ {1,2,3,8} (including the non-power-of-two 3) and
    /// l ∈ {1,4,8}, over arbitrary volumes, views, transfer windows, tile
    /// sizes and clip boxes. The 40×40 image holds at most 4 live 32-px
    /// tiles — fewer work items than the 8-thread pool — so idle-lane
    /// behavior is covered too.
    #[test]
    fn threaded_simd_render_is_bit_identical_to_the_scalar_reference(
        seed in any::<u32>(),
        density in 8u8..96,
        threads in prop_oneof![Just(1usize), Just(2), Just(3), Just(8)],
        lanes in prop_oneof![Just(1usize), Just(4), Just(8)],
        tile in prop_oneof![Just(0usize), Just(8), Just(32)],
        which in 0u8..4,
        (rx, ry) in arb_rot(),
        lo in 40.0f32..160.0,
        w in 10.0f32..90.0,
        ert in prop_oneof![Just(1.0f32), Just(0.9f32)],
    ) {
        let dims = [17, 13, 9];
        let v = noise_volume(dims, seed, density);
        let tf = TransferFunction::window(lo, lo + w, 0.8);
        let cam = Camera::orbit(dims, 40, 40, rx, ry);
        let reference_params = RenderParams {
            step: 1.3,
            early_termination_alpha: ert,
            ..RenderParams::fast()
        };
        let block = clip_box(dims, which);
        let accel = RenderAccel::new(
            Arc::new(MacrocellGrid::build(&v, 4)),
            &tf,
            &reference_params,
        );
        let reference =
            render_block_accel(&v, &block, &tf, &cam, &reference_params, Some(&accel), tile);
        let naive = render_block(&v, &block, &tf, &cam, &reference_params);

        let params = RenderParams {
            simd_lanes: lanes,
            ..reference_params
        };
        let pool = RenderPool::new(threads);
        let pooled =
            render_block_accel_pool(&v, &block, &tf, &cam, &params, Some(&accel), tile, Some(&pool));

        prop_assert_eq!(
            fnv1a(&reference), fnv1a(&pooled),
            "pooled diverged: seed={} threads={} lanes={} tile={} which={}",
            seed, threads, lanes, tile, which
        );
        prop_assert_eq!(fnv1a(&naive), fnv1a(&pooled), "threaded+SIMD diverged from naive");
        prop_assert_eq!(reference.bounding_rect(), pooled.bounding_rect());
    }

    /// The distributed-memory threaded path: local block, off-origin
    /// placement, clip interior, fanned across a pool — still
    /// bit-identical.
    #[test]
    fn threaded_local_clipped_render_matches_the_scalar_reference(
        seed in any::<u32>(),
        threads in prop_oneof![Just(2usize), Just(3), Just(8)],
        lanes in prop_oneof![Just(1usize), Just(4), Just(8)],
        tile in prop_oneof![Just(0usize), 1usize..40],
        (rx, ry) in arb_rot(),
    ) {
        let gdims = [20, 16, 12];
        let ldims = [9, 8, 6];
        let local = noise_volume(ldims, seed, 64);
        let placement = Subvolume { rank: 0, origin: [5, 4, 3], dims: ldims };
        let clip = Subvolume { rank: 0, origin: [6, 4, 3], dims: [7, 8, 5] };
        let cam = Camera::orbit(gdims, 36, 36, rx, ry);
        let tf = TransferFunction::window(60.0, 140.0, 0.9);
        let params = RenderParams::fast();
        let reference = render_local_block_clipped_accel(
            &local, &placement, &clip, &tf, &cam, &params, None, 0,
        );
        let accel = RenderAccel::new(Arc::new(MacrocellGrid::build(&local, 4)), &tf, &params);
        let threaded_params = RenderParams { simd_lanes: lanes, ..params };
        let pool = RenderPool::new(threads);
        let (fast, _) = render_clips(
            &local, &placement, &[clip], &tf, &cam, &threaded_params, Some(&accel), tile,
            Some(&pool),
        );
        prop_assert_eq!(
            fnv1a(&reference), fnv1a(&fast[0]),
            "threads={} lanes={} tile={}", threads, lanes, tile
        );
        prop_assert_eq!(reference.bounding_rect(), fast[0].bounding_rect());
    }

    /// The one board: every block of a `kd_partition` (P ∈ {1, 3, 5})
    /// plus a block with no live tile, rendered by one `render_clips`
    /// call on a pool of t ∈ {1, 2, 3, 8} threads, is each block as it
    /// renders alone and inline — bits and bounding rect — from the
    /// whole volume and from an off-origin local block alike. At 32-px
    /// tiles or none, the 32×32 image gives each block one work item, so
    /// the 8-thread pool gets fewer items than threads.
    #[test]
    fn one_board_renders_each_block_as_it_renders_alone(
        seed in any::<u32>(),
        p in prop_oneof![Just(1usize), Just(3), Just(5)],
        threads in prop_oneof![Just(1usize), Just(2), Just(3), Just(8)],
        tile in prop_oneof![Just(0usize), Just(8), Just(32)],
        off_origin in any::<bool>(),
        (rx, ry) in arb_rot(),
    ) {
        // Content only below x = 12, so the x-planes from 16 on hold no
        // active macrocell.
        let gdims = [20, 16, 12];
        let noisy = noise_volume(gdims, seed, 64);
        let global = Volume::from_fn(gdims, |x, y, z| if x < 12 { noisy.get(x, y, z) } else { 0 });
        let placement = if off_origin {
            Subvolume { rank: 0, origin: [2, 1, 1], dims: [18, 15, 11] }
        } else {
            Subvolume { rank: 0, origin: [0, 0, 0], dims: gdims }
        };
        let local = global.extract_block(placement.origin, placement.dims);
        let (o, d) = (placement.origin, placement.dims);
        let mut clips: Vec<Subvolume> = kd_partition(d, p)
            .subvolumes()
            .iter()
            .map(|b| Subvolume { origin: [0, 1, 2].map(|a| o[a] + b.origin[a]), ..*b })
            .collect();
        let empty = Subvolume { rank: p, origin: [16, o[1], o[2]], dims: [4, d[1], d[2]] };
        clips.push(empty);
        let cam = Camera::orbit(gdims, 32, 32, rx, ry);
        let tf = TransferFunction::window(60.0, 140.0, 0.9);
        let params = RenderParams::fast();
        let accel = RenderAccel::new(Arc::new(MacrocellGrid::build(&local, 4)), &tf, &params);
        prop_assert!(!accel.tile_mask(&cam, o, &empty, 8).any(), "the last block has a live tile");

        let pool = RenderPool::new(threads);
        let (board, seconds) = render_clips(
            &local, &placement, &clips, &tf, &cam, &params, Some(&accel), tile, Some(&pool),
        );
        prop_assert_eq!(board.len(), clips.len());
        prop_assert_eq!(seconds.len(), clips.len());
        for (clip, image) in clips.iter().zip(&board) {
            let alone = render_local_block_clipped_accel(
                &local, &placement, clip, &tf, &cam, &params, Some(&accel), tile,
            );
            prop_assert_eq!(
                fnv1a(&alone), fnv1a(image),
                "block {:?} p={} threads={} tile={}", clip, p, threads, tile
            );
            prop_assert_eq!(alone.bounding_rect(), image.bounding_rect());
        }
    }

    /// Footprints are always clamped inside the image, for both
    /// projections and any partition block — no border overflow.
    #[test]
    fn footprint_is_always_clamped_to_the_image((rx, ry) in arb_rot(), p in 1usize..6) {
        for cam in [
            Camera::orbit(DIMS, 40, 40, rx, ry),
            Camera::orbit_perspective(DIMS, 40, 40, rx, ry, 0.8),
        ] {
            let part = kd_partition(DIMS, p);
            for block in part.subvolumes() {
                let fp = cam.footprint(block.origin, block.dims);
                prop_assert!(fp.x1 <= 40 && fp.y1 <= 40, "footprint {fp:?} overflows");
            }
        }
    }
}

#[test]
fn block_behind_perspective_eye_is_empty_and_blank() {
    // Every corner of the box sits behind the eye plane: the footprint
    // must be empty and the render blank — on both paths, no panics.
    let dims = [16, 16, 16];
    let v = Volume::from_fn(dims, |_, _, _| 200);
    let mut cam = Camera::orbit(dims, 32, 32, 0.0, 0.0);
    cam.projection = Projection::Perspective {
        eye: vr_volume::Vec3::new(8.0, 8.0, 40.0),
    };
    let block = Subvolume {
        rank: 0,
        origin: [0, 0, 0],
        dims,
    };
    let fp = cam.footprint(block.origin, block.dims);
    assert!(fp.is_empty(), "behind-eye footprint must be empty: {fp:?}");
    let tf = TransferFunction::window(100.0, 255.0, 1.0);
    let params = RenderParams::fast();
    let img = render_block(&v, &block, &tf, &cam, &params);
    assert_eq!(img.non_blank_count(), 0);
    let accel = RenderAccel::new(Arc::new(MacrocellGrid::build(&v, 8)), &tf, &params);
    let fast = render_block_accel(&v, &block, &tf, &cam, &params, Some(&accel), 16);
    assert_eq!(fast.non_blank_count(), 0);
    assert_eq!(fnv1a(&img), fnv1a(&fast));
}

#[test]
fn pure_blue_tint_pixels_are_recorded_as_non_blank() {
    // Regression for the blank-pixel predicate: a pure-blue tint yields
    // pixels with r == g == 0 that must still be stored (the old
    // `a > 0 || r > 0` shortcut is replaced by `!p.is_blank()`).
    let dims = [16, 16, 16];
    let v = Volume::from_fn(dims, |_, _, _| 180);
    let tf = TransferFunction::window(100.0, 255.0, 0.9);
    let cam = Camera::orbit(dims, 32, 32, 15.0, 25.0);
    let params = RenderParams {
        tint: [0.0, 0.0, 1.0],
        ..RenderParams::fast()
    };
    let block = Subvolume {
        rank: 0,
        origin: [0, 0, 0],
        dims,
    };
    let img = render_block(&v, &block, &tf, &cam, &params);
    assert!(
        img.non_blank_count() > 0,
        "blue-tinted cube must be visible"
    );
    assert!(img.pixels().iter().any(|p| p.b > 0.0));
    for p in img.pixels() {
        if !p.is_blank() {
            assert_eq!(p.r, 0.0);
            assert_eq!(p.g, 0.0);
        }
    }
    // The accelerated path agrees bit-for-bit under the tint as well.
    let accel = RenderAccel::new(Arc::new(MacrocellGrid::build(&v, 4)), &tf, &params);
    let fast = render_block_accel(&v, &block, &tf, &cam, &params, Some(&accel), 8);
    assert_eq!(fnv1a(&img), fnv1a(&fast));
}
