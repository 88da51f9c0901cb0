//! Load-balanced volume partitioning — the paper's second future-work
//! item: "explore an efficient load-balancing scheme in the rendering
//! phase since … the size of opaque voxels has large disparities".
//!
//! [`kd_partition_weighted`] keeps the recursive-bisection structure of
//! [`kd_partition`](crate::partition::kd_partition) (so depth ordering
//! still falls out of the split tree) but places each cut so that the
//! *visible workload* — a caller-supplied per-voxel weight, typically
//! "classified opacity is non-zero" — splits proportionally to the
//! processor counts, instead of splitting raw voxel extents.

use crate::grid::Volume;
use crate::partition::{Partition, Subvolume};

/// Recursively bisects `volume` into `p` blocks balancing the summed
/// `weight` per block.
///
/// `weight` maps a raw sample to its rendering workload contribution
/// (e.g. `1.0` for voxels the transfer function makes visible, `0.0`
/// otherwise; fractional weights are fine). Fully blank regions carry a
/// tiny implicit weight so cuts remain valid even when whole slabs are
/// empty.
pub fn kd_partition_weighted(
    volume: &Volume,
    weight: impl Fn(u8) -> f64 + Copy,
    p: usize,
) -> Partition {
    Partition::bisect(volume.dims(), p, |origin, dims, axis, p| {
        // Place the cut at the prefix closest to ⌊p/2⌋/p of the total
        // weight; blank slabs get an epsilon weight so the prefix stays
        // strictly increasing and degenerate content still yields
        // interior cuts.
        let n = dims[axis];
        let slices = slice_weights(volume, weight, origin, dims, axis);
        let eps = 1e-9;
        let total: f64 = slices.iter().sum::<f64>() + eps * n as f64;
        let target = total * (p / 2) as f64 / p as f64;
        let mut acc = 0.0;
        let mut n_lo = 1;
        let mut best_diff = f64::INFINITY;
        for (i, w) in slices.iter().enumerate().take(n - 1) {
            acc += w + eps;
            let diff = (acc - target).abs();
            if diff < best_diff {
                best_diff = diff;
                n_lo = i + 1;
            }
        }
        n_lo
    })
}

/// Per-slice weight sums along `axis` for the box `[origin, origin+dims)`.
fn slice_weights(
    volume: &Volume,
    weight: impl Fn(u8) -> f64,
    origin: [usize; 3],
    dims: [usize; 3],
    axis: usize,
) -> Vec<f64> {
    let mut out = vec![0.0f64; dims[axis]];
    for z in origin[2]..origin[2] + dims[2] {
        for y in origin[1]..origin[1] + dims[1] {
            for x in origin[0]..origin[0] + dims[0] {
                let w = weight(volume.get(x, y, z));
                if w != 0.0 {
                    let slice = [x, y, z][axis] - origin[axis];
                    out[slice] += w;
                }
            }
        }
    }
    out
}

/// The summed weight inside one block — the balance metric tests use.
pub fn block_weight(volume: &Volume, weight: impl Fn(u8) -> f64, block: &Subvolume) -> f64 {
    let mut acc = 0.0;
    for z in block.origin[2]..block.origin[2] + block.dims[2] {
        for y in block.origin[1]..block.origin[1] + block.dims[1] {
            for x in block.origin[0]..block.origin[0] + block.dims[0] {
                acc += weight(volume.get(x, y, z));
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::kd_partition;
    use crate::vec3::Vec3;

    /// All content concentrated in one small corner.
    fn skewed_volume() -> Volume {
        Volume::from_fn([32, 32, 32], |x, y, z| {
            if x < 4 && y < 16 && z < 16 {
                200
            } else if (x + y + z) % 997 == 0 {
                150 // a sprinkle elsewhere so no slab is fully empty
            } else {
                0
            }
        })
    }

    fn visible(v: u8) -> f64 {
        if v > 100 {
            1.0
        } else {
            0.0
        }
    }

    fn imbalance(volume: &Volume, part: &Partition) -> f64 {
        let weights: Vec<f64> = part
            .subvolumes()
            .iter()
            .map(|b| block_weight(volume, visible, b))
            .collect();
        let max = weights.iter().cloned().fold(0.0, f64::max);
        let mean = weights.iter().sum::<f64>() / weights.len() as f64;
        max / mean.max(1e-9)
    }

    #[test]
    fn weighted_partition_covers_exactly() {
        let v = skewed_volume();
        for p in [2, 3, 4, 8, 16] {
            let part = kd_partition_weighted(&v, visible, p);
            assert_eq!(part.len(), p);
            let total: usize = part.subvolumes().iter().map(|s| s.voxels()).sum();
            assert_eq!(total, 32 * 32 * 32);
            for (i, s) in part.subvolumes().iter().enumerate() {
                assert_eq!(s.rank, i);
                assert!(s.voxels() > 0);
            }
        }
    }

    #[test]
    fn weighted_partition_balances_skewed_content() {
        let v = skewed_volume();
        let plain = imbalance(&v, &kd_partition([32, 32, 32], 8));
        let weighted = imbalance(&v, &kd_partition_weighted(&v, visible, 8));
        // Plain bisection gives some blocks nearly all the content.
        assert!(plain > 4.0, "plain imbalance unexpectedly low: {plain}");
        assert!(weighted < 1.6, "weighted imbalance too high: {weighted}");
    }

    #[test]
    fn weighted_partition_on_uniform_content_matches_extents() {
        // Uniform content → cuts land near the middle, like plain KD.
        let v = Volume::from_fn([32, 32, 32], |_, _, _| 200);
        let part = kd_partition_weighted(&v, visible, 8);
        let voxels: Vec<usize> = part.subvolumes().iter().map(|s| s.voxels()).collect();
        let min = *voxels.iter().min().unwrap();
        let max = *voxels.iter().max().unwrap();
        assert!(
            max - min <= max / 3,
            "uniform content should stay balanced: {voxels:?}"
        );
    }

    #[test]
    fn weighted_partition_depth_order_is_valid() {
        let v = skewed_volume();
        let part = kd_partition_weighted(&v, visible, 8);
        let order = part.depth_order(Vec3::new(0.3, -0.5, 0.8).normalized());
        let mut seen = order.front_to_back().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
        // Separation sanity along +z views (same check as plain KD).
        let order_z = part.depth_order(Vec3::new(0.0, 0.0, 1.0));
        for a in part.subvolumes() {
            for b in part.subvolumes() {
                if a.rank != b.rank && a.origin[2] + a.dims[2] <= b.origin[2] {
                    assert!(order_z.in_front(a.rank, b.rank));
                }
            }
        }
    }

    #[test]
    fn fully_blank_volume_still_partitions() {
        let v = Volume::zeros([16, 16, 16]);
        let part = kd_partition_weighted(&v, visible, 4);
        assert_eq!(part.len(), 4);
        let total: usize = part.subvolumes().iter().map(|s| s.voxels()).sum();
        assert_eq!(total, 16 * 16 * 16);
    }
}
