//! Property-based tests for partitioning, depth ordering, transfer
//! functions and volume I/O, and the differential pin of
//! `Volume::sample`/`gradient` against the code they replaced.

use proptest::prelude::*;
use vr_volume::io;
use vr_volume::{kd_partition, DatasetKind, Subvolume, TransferFunction, Vec3, Volume};

fn arb_dims() -> impl Strategy<Value = [usize; 3]> {
    (4usize..24, 4usize..24, 4usize..24).prop_map(|(a, b, c)| [a, b, c])
}

fn arb_view() -> impl Strategy<Value = Vec3> {
    (-1.0f32..1.0, -1.0f32..1.0, -1.0f32..1.0).prop_filter_map("zero vector", |(x, y, z)| {
        let v = Vec3::new(x, y, z);
        (v.length() > 1e-3).then(|| v.normalized())
    })
}

/// `Volume::sample` as it stood at `9bf801e`: `floor`, then eight clamped
/// corner fetches. Verbatim but for `wrapping_add` on the corner offsets,
/// which is what that commit's release build did; its debug build
/// panicked on overflow for coordinates of 2⁶³ and beyond.
fn sample_reference(v: &Volume, p: Vec3) -> f32 {
    let fx = p.x.floor();
    let fy = p.y.floor();
    let fz = p.z.floor();
    let tx = p.x - fx;
    let ty = p.y - fy;
    let tz = p.z - fz;
    let (x0, y0, z0) = (fx as isize, fy as isize, fz as isize);
    let c = |dx: isize, dy: isize, dz: isize| {
        v.get_clamped(
            x0.wrapping_add(dx),
            y0.wrapping_add(dy),
            z0.wrapping_add(dz),
        ) as f32
    };
    let lerp = |a: f32, b: f32, t: f32| a + (b - a) * t;
    let xy00 = lerp(c(0, 0, 0), c(1, 0, 0), tx);
    let xy10 = lerp(c(0, 1, 0), c(1, 1, 0), tx);
    let xy01 = lerp(c(0, 0, 1), c(1, 0, 1), tx);
    let xy11 = lerp(c(0, 1, 1), c(1, 1, 1), tx);
    let y0v = lerp(xy00, xy10, ty);
    let y1v = lerp(xy01, xy11, ty);
    lerp(y0v, y1v, tz)
}

/// `Volume::gradient` as it stood at `9bf801e`, verbatim: six
/// independent taps.
fn gradient_reference(v: &Volume, p: Vec3) -> Vec3 {
    let h = 1.0;
    let dx = sample_reference(v, Vec3::new(p.x + h, p.y, p.z))
        - sample_reference(v, Vec3::new(p.x - h, p.y, p.z));
    let dy = sample_reference(v, Vec3::new(p.x, p.y + h, p.z))
        - sample_reference(v, Vec3::new(p.x, p.y - h, p.z));
    let dz = sample_reference(v, Vec3::new(p.x, p.y, p.z + h))
        - sample_reference(v, Vec3::new(p.x, p.y, p.z - h));
    Vec3::new(dx, dy, dz) * 0.5
}

/// Bit equality. Two NaNs count as equal whatever their payload: which
/// operand's payload an operation on two NaNs keeps depends on operand
/// order, which the compiler may pick differently for the two copies.
fn same_bits(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Asserts that both kernels agree bit for bit with their references at
/// `p`.
fn assert_kernels_match(v: &Volume, p: Vec3) {
    let (s, sr) = (v.sample(p), sample_reference(v, p));
    assert!(
        same_bits(s, sr),
        "sample {s:?} != {sr:?} at {p:?} in {:?}",
        v.dims()
    );
    let (g, gr) = (v.gradient(p), gradient_reference(v, p));
    assert!(
        same_bits(g.x, gr.x) && same_bits(g.y, gr.y) && same_bits(g.z, gr.z),
        "gradient {g:?} != {gr:?} at {p:?} in {:?}",
        v.dims()
    );
}

/// Hashed noise (splitmix64 of the voxel index), so neighbouring corners
/// are unrelated and a wrong index or weight shows.
fn noise_volume(dims: [usize; 3], seed: u64) -> Volume {
    Volume::from_fn(dims, |x, y, z| {
        let mut h = seed
            .wrapping_add(((z * dims[1] + y) * dims[0] + x) as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (h >> 56) as u8
    })
}

/// The next `f32` above a finite `x` (MSRV predates `f32::next_up`).
fn next_up(x: f32) -> f32 {
    if x == 0.0 {
        f32::from_bits(1)
    } else if x > 0.0 {
        f32::from_bits(x.to_bits() + 1)
    } else {
        f32::from_bits(x.to_bits() - 1)
    }
}

fn next_down(x: f32) -> f32 {
    -next_up(-x)
}

/// Thin axes (no interior at all), the smallest volumes with an interior
/// for `sample` (2) and for the fused `gradient` (4), and an odd one.
const KERNEL_DIMS: [[usize; 3]; 5] = [[9, 7, 5], [4, 4, 4], [3, 3, 3], [2, 2, 2], [1, 6, 4]];

#[test]
fn kernels_match_reference_on_a_sixteenth_voxel_lattice() {
    // k/16 is exact in f32, so every lattice point is hit exactly,
    // integers included. Each axis in turn is swept at 1/16 voxel with
    // the other two at 1/2: the full 1/16³ lattice is 17 M points, a
    // minute in a debug build.
    let lattice = |n: usize, fine: bool| {
        let step = if fine { 1 } else { 8 };
        (-48..=(n as i32 + 3) * 16)
            .step_by(step)
            .map(|k| k as f32 / 16.0)
    };
    for (i, dims) in KERNEL_DIMS.into_iter().enumerate() {
        let v = noise_volume(dims, i as u64);
        for fine in 0..3 {
            for z in lattice(dims[2], fine == 2) {
                for y in lattice(dims[1], fine == 1) {
                    for x in lattice(dims[0], fine == 0) {
                        assert_kernels_match(&v, Vec3::new(x, y, z));
                    }
                }
            }
        }
    }
}

#[test]
fn kernels_match_reference_at_edge_values() {
    fn edges(n: usize) -> Vec<f32> {
        let mut out = vec![
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e30,
            -1e30,
        ];
        // Every integer 0..=n — which covers 1, n − 2 and n − 1 — and
        // each one's neighbours on both sides.
        for k in 0..=n {
            let k = k as f32;
            out.extend([next_down(k), k, next_up(k)]);
        }
        out
    }
    for (i, dims) in KERNEL_DIMS.into_iter().enumerate() {
        let v = noise_volume(dims, 100 + i as u64);
        let [xs, ys, zs] = dims.map(edges);
        for &z in &zs {
            for &y in &ys {
                for &x in &xs {
                    assert_kernels_match(&v, Vec3::new(x, y, z));
                }
            }
        }
    }
}

#[test]
fn gradient_guards_run_on_the_shifted_coordinate() {
    let v = noise_volume([4, 4, 4], 7);
    // Below n − 2 = 2, yet the +1 tap rounds up onto the last voxel,
    // n − 1 = 3, where an unclamped `index + 1` would read the next row.
    let below_two = next_down(2.0);
    assert!(below_two < 2.0 && below_two + 1.0 == 3.0);
    // The −1 tap lands exactly on 0.0, and just below it.
    assert!(1.0f32 - 1.0 == 0.0 && next_down(1.0) - 1.0 < 0.0);
    for a in [below_two, 1.0, next_down(1.0), next_up(1.0)] {
        for b in [1.0, 1.25, 1.5] {
            assert_kernels_match(&v, Vec3::new(a, b, b));
            assert_kernels_match(&v, Vec3::new(b, a, b));
            assert_kernels_match(&v, Vec3::new(b, b, a));
        }
    }
}

/// Whether `gradient` takes its stencil branch on an axis of `n` voxels:
/// `v − 1`, `v` and `v + 1` all split in the interior, onto consecutive
/// voxels.
fn stencil_aligned(v: f32, n: usize) -> bool {
    let split = |v: f32| (v >= 0.0 && v < (n - 1) as f32).then_some(v as i32);
    matches!(
        (split(v - 1.0), split(v), split(v + 1.0)),
        (Some(lo), Some(c), Some(hi)) if lo + 1 == c && c + 1 == hi
    )
}

#[test]
fn gradient_matches_reference_where_a_shifted_tap_rounds_onto_another_voxel() {
    let dims = [9, 7, 6];
    let v = noise_volume(dims, 31);
    // One axis just below an integer, where `p.a + 1` can round up onto
    // the next integer; the other two mid-stencil. [aligned, not].
    let mut hits = [0usize; 2];
    for axis in 0..3 {
        for k in 1..dims[axis] - 1 {
            for a in [next_down(k as f32), (k + 1) as f32 - 2f32.powi(-23)] {
                for b in [1.5, 2.25, 3.0] {
                    let mut c = [b; 3];
                    c[axis] = a;
                    let p = Vec3::new(c[0], c[1], c[2]);
                    assert_kernels_match(&v, p);
                    let aligned = (0..3).all(|i| stencil_aligned(c[i], dims[i]));
                    hits[usize::from(!aligned)] += 1;
                }
            }
        }
    }
    // Both branches: `next_down(4.0) + 1.0` rounds to 5.0, and
    // `next_down(3.0) + 1.0` is exact.
    assert!(!stencil_aligned(next_down(4.0), 9) && stencil_aligned(next_down(3.0), 9));
    assert!(hits[0] > 0 && hits[1] > 0, "[aligned, shell] = {hits:?}");
}

proptest! {
    #[test]
    fn kernels_match_reference_on_arbitrary_volumes(
        dims in (1usize..=9, 1usize..=9, 1usize..=9),
        seed in any::<u64>(),
        u in (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0),
    ) {
        let dims = [dims.0, dims.1, dims.2];
        let v = noise_volume(dims, seed);
        // A point in [−3, n + 3]³.
        let at = |u: f32, n: usize| -3.0 + u * (n as f32 + 6.0);
        assert_kernels_match(&v, Vec3::new(at(u.0, dims[0]), at(u.1, dims[1]), at(u.2, dims[2])));
    }

    #[test]
    fn partition_covers_and_is_disjoint(dims in arb_dims(), p in 1usize..12) {
        let part = kd_partition(dims, p);
        prop_assert_eq!(part.len(), p);
        let total: usize = part.subvolumes().iter().map(|s| s.voxels()).sum();
        prop_assert_eq!(total, dims[0] * dims[1] * dims[2]);
        for a in part.subvolumes() {
            prop_assert!(a.voxels() > 0);
            for b in part.subvolumes() {
                if a.rank != b.rank {
                    let overlap = (0..3).all(|ax| {
                        a.origin[ax] < b.origin[ax] + b.dims[ax]
                            && b.origin[ax] < a.origin[ax] + a.dims[ax]
                    });
                    prop_assert!(!overlap, "blocks {} and {} overlap", a.rank, b.rank);
                }
            }
        }
    }

    #[test]
    fn depth_order_is_a_permutation_for_any_view(
        dims in arb_dims(),
        p in 1usize..12,
        view in arb_view(),
    ) {
        let part = kd_partition(dims, p);
        let order = part.depth_order(view);
        let mut seen = order.front_to_back().to_vec();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..p).collect::<Vec<_>>());
    }

    #[test]
    fn opposite_views_reverse_the_order(dims in arb_dims(), p in 2usize..10, view in arb_view()) {
        let part = kd_partition(dims, p);
        let fwd = part.depth_order(view).front_to_back().to_vec();
        let mut bwd = part.depth_order(-view).front_to_back().to_vec();
        bwd.reverse();
        // Reversal holds when no view component is exactly zero (ties
        // break identically in both directions otherwise).
        if view.x != 0.0 && view.y != 0.0 && view.z != 0.0 {
            prop_assert_eq!(fwd, bwd);
        }
    }

    #[test]
    fn eye_order_matches_orthographic_in_the_limit(
        dims in arb_dims(),
        p in 1usize..10,
        view in arb_view(),
    ) {
        let part = kd_partition(dims, p);
        let center = Vec3::new(dims[0] as f32 / 2.0, dims[1] as f32 / 2.0, dims[2] as f32 / 2.0);
        let eye = center - view * 1e7;
        let from_eye = part.depth_order_from_eye(eye);
        let ortho = part.depth_order(view);
        prop_assert_eq!(from_eye.front_to_back(), ortho.front_to_back());
    }

    #[test]
    fn transfer_functions_stay_in_unit_range(d in 0.0f32..256.0) {
        for kind in DatasetKind::all() {
            let tf = kind.transfer();
            let (i, o) = tf.classify(d);
            prop_assert!((0.0..=1.0).contains(&i), "{kind:?} intensity {i}");
            prop_assert!((0.0..=1.0).contains(&o), "{kind:?} opacity {o}");
        }
    }

    #[test]
    fn window_transfer_is_monotone(lo in 0.0f32..200.0, width in 1.0f32..55.0, d1 in 0.0f32..255.0, d2 in 0.0f32..255.0) {
        let tf = TransferFunction::window(lo, lo + width, 0.9);
        let (a, b) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(tf.opacity(a) <= tf.opacity(b) + 1e-6);
    }

    #[test]
    fn volume_io_round_trips(dims in arb_dims(), seed in any::<u32>()) {
        let v = Volume::from_fn(dims, |x, y, z| {
            (x as u32)
                .wrapping_mul(31)
                .wrapping_add((y as u32).wrapping_mul(17))
                .wrapping_add((z as u32).wrapping_mul(7))
                .wrapping_add(seed) as u8
        });
        // The whole volume as one block: every sample value survives the
        // scatter's wire format.
        let whole = Subvolume { rank: 0, origin: [0, 0, 0], dims };
        let (placement, back) = io::decode_block(&io::encode_block(&v, &whole)).unwrap();
        prop_assert_eq!(placement, whole);
        prop_assert_eq!(back, v);
    }

    #[test]
    fn block_encode_round_trips(dims in arb_dims(), p in 1usize..8) {
        let v = Volume::from_fn(dims, |x, y, z| (x * 3 + y * 5 + z * 7) as u8);
        let part = kd_partition(dims, p);
        for block in part.subvolumes() {
            let bytes = io::encode_block(&v, block);
            let (placement, local) = io::decode_block(&bytes).unwrap();
            prop_assert_eq!(placement, *block);
            prop_assert_eq!(local, v.extract_block(block.origin, block.dims));
        }
    }

    #[test]
    fn trilinear_sample_is_bounded_by_extremes(dims in arb_dims(), px in 0.0f32..32.0, py in 0.0f32..32.0, pz in 0.0f32..32.0) {
        let v = Volume::from_fn(dims, |x, y, z| ((x * 7 + y * 13 + z * 29) % 251) as u8);
        let s = v.sample(Vec3::new(px, py, pz));
        prop_assert!((0.0..=255.0).contains(&s), "sample {s} out of range");
    }

    #[test]
    fn ghost_expansion_contains_the_block(dims in arb_dims(), p in 1usize..8, ghost in 0usize..4) {
        let part = kd_partition(dims, p);
        for b in part.subvolumes() {
            let e = b.expanded(ghost, dims);
            for (ax, &extent) in dims.iter().enumerate() {
                prop_assert!(e.origin[ax] <= b.origin[ax]);
                prop_assert!(
                    e.origin[ax] + e.dims[ax] >= b.origin[ax] + b.dims[ax]
                );
                prop_assert!(e.origin[ax] + e.dims[ax] <= extent);
            }
        }
    }
}
