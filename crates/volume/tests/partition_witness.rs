//! One digest over every block decomposition and depth order the
//! renderer can reach: the plain KD split at four volume shapes for
//! P = 1..=64 (every one of them a legal split), the visible-voxel–
//! weighted split of two datasets for P = 1..=16, and for each of them
//! the orthographic order along the six axis directions and two oblique
//! ones plus the perspective order from an eye outside the volume, one
//! inside it and one on a split plane. Any change to where a cut falls,
//! which child a walk visits first or how ranks are numbered moves the
//! digest.

use vr_image::checksum::{fnv1a_bytes, FNV_OFFSET};
use vr_volume::{kd_partition, kd_partition_weighted, Dataset, DatasetKind, Partition, Vec3};

/// The pinned digest, recorded before the split and the walks were
/// folded into one bisection and one walk.
const PARTITION_WITNESS: u64 = 0xcbe8237facfe8282;

/// Folds `words` into `h`, each as eight little-endian bytes.
fn fold(h: u64, words: impl IntoIterator<Item = usize>) -> u64 {
    words
        .into_iter()
        .fold(h, |h, w| fnv1a_bytes(h, (w as u64).to_le_bytes()))
}

/// Folds every block of `part`, then every depth order of it.
fn fold_partition(mut h: u64, part: &Partition, dims: [usize; 3]) -> u64 {
    for block in part.subvolumes() {
        h = fold(h, [block.rank]);
        h = fold(h, block.origin);
        h = fold(h, block.dims);
    }
    let views = [
        Vec3::new(1.0, 0.0, 0.0),
        Vec3::new(-1.0, 0.0, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
        Vec3::new(0.0, -1.0, 0.0),
        Vec3::new(0.0, 0.0, 1.0),
        Vec3::new(0.0, 0.0, -1.0),
        Vec3::new(0.4, -0.7, 0.59).normalized(),
        Vec3::new(-0.3, 0.2, -0.93).normalized(),
    ];
    for view in views {
        h = fold(h, part.depth_order(view).front_to_back().iter().copied());
    }
    let [x, y, z] = dims.map(|d| d as f32);
    // Rank P/2 heads the root's high half, so its origin lies on the
    // root split plane (and, for P = 1, at the volume's corner).
    let on_plane = part.subvolumes()[part.len() / 2].origin.map(|o| o as f32);
    let eyes = [
        Vec3::new(-0.5 * x, 1.7 * y, 0.3 * z),
        Vec3::new(0.37 * x, 0.61 * y, 0.45 * z),
        Vec3::new(on_plane[0], on_plane[1], on_plane[2]),
    ];
    for eye in eyes {
        let order = part.depth_order_from_eye(eye);
        h = fold(h, order.front_to_back().iter().copied());
    }
    h
}

#[test]
fn partitions_and_depth_orders_are_pinned() {
    let mut h = FNV_OFFSET;
    for dims in [[256, 256, 110], [256, 256, 113], [96, 96, 48], [17, 13, 9]] {
        for p in 1..=64 {
            h = fold_partition(h, &kd_partition(dims, p), dims);
        }
    }
    let dims = [96, 96, 48];
    for kind in [DatasetKind::EngineHigh, DatasetKind::Head] {
        let data = Dataset::with_dims(kind, dims);
        let tf = &data.transfer;
        let visible = |s: u8| if tf.opacity(s as f32) > 0.0 { 1.0 } else { 0.0 };
        for p in 1..=16 {
            h = fold_partition(h, &kd_partition_weighted(&data.volume, visible, p), dims);
        }
    }
    assert_eq!(h, PARTITION_WITNESS, "partition witness moved: {h:#018x}");
}
