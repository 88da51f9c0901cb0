//! Volume partitioning — the sort-last system's first phase.
//!
//! The volume is block-decomposed by recursive bisection (a KD split along
//! the longest axis), one block per processor; `Partition::bisect` is
//! the one split, and the plain and weighted partitioners differ only in
//! where it cuts. The split tree is kept: traversing it front-to-back for
//! a given view direction, or from a given perspective eye, yields an
//! exact visibility order between any two blocks, which is what lets
//! every pairwise `over` in the compositing phase be oriented correctly.

use crate::vec3::Vec3;

/// One processor's block of the volume.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Subvolume {
    /// Owning processor rank.
    pub rank: usize,
    /// Block origin in voxel coordinates.
    pub origin: [usize; 3],
    /// Block extent in voxels.
    pub dims: [usize; 3],
}

impl Subvolume {
    /// Number of voxels in the block.
    pub fn voxels(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// The block expanded by `ghost` voxels on every face, clamped to
    /// the global volume `vol_dims`.
    ///
    /// Ghost layers give a distributed rank one-sided access to its
    /// neighbours' boundary samples, so trilinear interpolation and
    /// central-difference gradients at block faces match a monolithic
    /// render (cf. `vr-render`'s seam tests). The returned placement
    /// keeps the same rank.
    pub fn expanded(&self, ghost: usize, vol_dims: [usize; 3]) -> Subvolume {
        let mut origin = self.origin;
        let mut dims = self.dims;
        for axis in 0..3 {
            let lo_pad = ghost.min(self.origin[axis]);
            let hi_pad = ghost.min(vol_dims[axis] - (self.origin[axis] + self.dims[axis]));
            origin[axis] -= lo_pad;
            dims[axis] += lo_pad + hi_pad;
        }
        Subvolume {
            rank: self.rank,
            origin,
            dims,
        }
    }
}

/// The KD split tree over ranks.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Node {
    Leaf(usize),
    Split {
        /// Split axis (0 = x, 1 = y, 2 = z).
        axis: usize,
        /// Global voxel coordinate of the cut plane along `axis`.
        at: usize,
        lo: Box<Node>,
        hi: Box<Node>,
    },
}

/// A complete block decomposition: the blocks plus the split tree needed
/// to order them by depth for any view.
#[derive(Clone, Debug, PartialEq)]
pub struct Partition {
    subvolumes: Vec<Subvolume>,
    tree: Node,
}

impl Partition {
    /// Recursively bisects `dims` into `p` blocks (any `p ≥ 1`), assigning
    /// ranks `0..p` in tree order: the one split both partitioners share.
    /// Each split goes along the longest axis (ties prefer x, for
    /// deterministic layouts) and gives the low half `p / 2` ranks;
    /// `cut(origin, dims, axis, p)` names the low half's extent along
    /// `axis`, clamped so neither half is empty.
    pub(crate) fn bisect(
        dims: [usize; 3],
        p: usize,
        mut cut: impl FnMut([usize; 3], [usize; 3], usize, usize) -> usize,
    ) -> Partition {
        fn split(
            origin: [usize; 3],
            dims: [usize; 3],
            rank0: usize,
            p: usize,
            cut: &mut impl FnMut([usize; 3], [usize; 3], usize, usize) -> usize,
            out: &mut Vec<Subvolume>,
        ) -> Node {
            if p == 1 {
                out.push(Subvolume {
                    rank: rank0,
                    origin,
                    dims,
                });
                return Node::Leaf(rank0);
            }
            let p_lo = p / 2;
            let axis = (0..3).max_by_key(|&a| dims[a]).unwrap();
            let n = dims[axis];
            assert!(
                n >= 2,
                "cannot split axis {axis} of extent {n} into two blocks"
            );
            let n_lo = cut(origin, dims, axis, p).clamp(1, n - 1);
            let (mut lo_dims, mut hi_dims, mut hi_origin) = (dims, dims, origin);
            lo_dims[axis] = n_lo;
            hi_dims[axis] = n - n_lo;
            hi_origin[axis] += n_lo;
            let lo = split(origin, lo_dims, rank0, p_lo, cut, out);
            let hi = split(hi_origin, hi_dims, rank0 + p_lo, p - p_lo, cut, out);
            Node::Split {
                axis,
                at: hi_origin[axis],
                lo: Box::new(lo),
                hi: Box::new(hi),
            }
        }
        assert!(p >= 1, "need at least one processor");
        // Leaves are pushed low half first, so `subvolumes` is in rank order.
        let mut subvolumes = Vec::with_capacity(p);
        let tree = split([0, 0, 0], dims, 0, p, &mut cut, &mut subvolumes);
        Partition { subvolumes, tree }
    }

    /// The blocks, indexed by rank.
    pub fn subvolumes(&self) -> &[Subvolume] {
        &self.subvolumes
    }

    /// Number of processors (`P`).
    pub fn len(&self) -> usize {
        self.subvolumes.len()
    }

    /// Whether the partition is empty (never true for valid partitions).
    pub fn is_empty(&self) -> bool {
        self.subvolumes.is_empty()
    }

    /// Front-to-back visibility order of the blocks for rays travelling
    /// along `view_dir` (from the eye into the scene).
    ///
    /// At each split plane with axis `e`, every ray crosses the low side
    /// before the high side iff `view_dir · e > 0`, so a BSP-style
    /// traversal yields a correct visibility order for *every* pair of
    /// blocks — no centroid approximation involved.
    pub fn depth_order(&self, view_dir: Vec3) -> DepthOrder {
        // view component ≥ 0 → rays enter the low half first.
        self.walk(|axis, _| view_dir.get(axis) >= 0.0)
    }

    /// Front-to-back visibility order for a *perspective* view from
    /// `eye` (voxel coordinates).
    ///
    /// At each split plane, the half containing the eye is visited
    /// first: every ray from the eye crosses that half before the other
    /// — the classic BSP painter's-order argument, exact for any eye
    /// position (an eye exactly on a plane sees the two halves through
    /// disjoint pixels, so either order is valid).
    pub fn depth_order_from_eye(&self, eye: Vec3) -> DepthOrder {
        self.walk(|axis, at| eye.get(axis) < at as f32)
    }

    /// The split tree's leaves in visiting order, where each split with
    /// axis `axis` and plane `at` visits its low half first iff
    /// `lo_first(axis, at)`.
    fn walk(&self, lo_first: impl Fn(usize, usize) -> bool) -> DepthOrder {
        fn visit(node: &Node, lo_first: &impl Fn(usize, usize) -> bool, out: &mut Vec<usize>) {
            match node {
                Node::Leaf(rank) => out.push(*rank),
                Node::Split { axis, at, lo, hi } => {
                    let (first, second) = if lo_first(*axis, *at) {
                        (lo, hi)
                    } else {
                        (hi, lo)
                    };
                    visit(first, lo_first, out);
                    visit(second, lo_first, out);
                }
            }
        }
        let mut front_to_back = Vec::with_capacity(self.len());
        visit(&self.tree, &lo_first, &mut front_to_back);
        DepthOrder::from_sequence(front_to_back)
    }
}

/// A visibility order over ranks for one view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DepthOrder {
    position: Vec<usize>,
    front_to_back: Vec<usize>,
}

impl DepthOrder {
    /// Whether rank `a`'s block is in front of rank `b`'s.
    #[inline]
    pub fn in_front(&self, a: usize, b: usize) -> bool {
        self.position[a] < self.position[b]
    }

    /// Ranks sorted front to back.
    pub fn front_to_back(&self) -> &[usize] {
        &self.front_to_back
    }

    /// Builds a trivial order for testing (ranks already front-to-back).
    pub fn identity(p: usize) -> Self {
        DepthOrder::from_sequence((0..p).collect())
    }

    /// Builds from an explicit front-to-back rank sequence.
    pub fn from_sequence(front_to_back: Vec<usize>) -> Self {
        let mut position = vec![usize::MAX; front_to_back.len()];
        for (pos, &rank) in front_to_back.iter().enumerate() {
            assert!(rank < front_to_back.len(), "rank {rank} out of range");
            assert!(position[rank] == usize::MAX, "rank {rank} appears twice");
            position[rank] = pos;
        }
        DepthOrder {
            position,
            front_to_back,
        }
    }
}

/// Recursively bisects `dims` into `p` blocks (any `p ≥ 1`), assigning
/// ranks `0..p` in tree order. Splits go along the longest axis, with the
/// cut placed proportionally to the processor counts so block volumes
/// stay balanced even for non-power-of-two `p`.
pub fn kd_partition(dims: [usize; 3], p: usize) -> Partition {
    assert!(
        dims[0].max(dims[1]).max(dims[2]) >= p || dims[0] * dims[1] * dims[2] >= p,
        "volume too small for {p} blocks"
    );
    // Proportional, rounded.
    Partition::bisect(dims, p, |_, dims, axis, p| {
        (dims[axis] * (p / 2) + p / 2) / p
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_voxels(p: &Partition) -> usize {
        p.subvolumes().iter().map(|s| s.voxels()).sum()
    }

    fn assert_disjoint_cover(part: &Partition, dims: [usize; 3]) {
        // Exact cover: total voxel count matches and no pair overlaps.
        assert_eq!(total_voxels(part), dims[0] * dims[1] * dims[2]);
        let subs = part.subvolumes();
        for i in 0..subs.len() {
            for j in i + 1..subs.len() {
                let (a, b) = (&subs[i], &subs[j]);
                let overlap = (0..3).all(|ax| {
                    a.origin[ax] < b.origin[ax] + b.dims[ax]
                        && b.origin[ax] < a.origin[ax] + a.dims[ax]
                });
                assert!(!overlap, "blocks {i} and {j} overlap");
            }
        }
    }

    #[test]
    fn partitions_cover_exactly() {
        for p in [1, 2, 3, 4, 5, 7, 8, 16, 31, 32, 64] {
            let part = kd_partition([64, 64, 27], p);
            assert_eq!(part.len(), p);
            assert_disjoint_cover(&part, [64, 64, 27]);
        }
    }

    #[test]
    fn ranks_are_contiguous() {
        let part = kd_partition([32, 32, 32], 8);
        for (i, s) in part.subvolumes().iter().enumerate() {
            assert_eq!(s.rank, i);
        }
    }

    #[test]
    fn block_volumes_balanced_for_pow2() {
        let part = kd_partition([64, 64, 64], 8);
        let voxels: Vec<usize> = part.subvolumes().iter().map(|s| s.voxels()).collect();
        let min = voxels.iter().min().unwrap();
        let max = voxels.iter().max().unwrap();
        assert!(max - min <= max / 4, "unbalanced: {voxels:?}");
    }

    #[test]
    fn depth_order_along_positive_x() {
        // 2 blocks split along x: rank 0 has the low-x half, so with a
        // view looking down +x, rank 0 is in front.
        let part = kd_partition([64, 8, 8], 2);
        let order = part.depth_order(Vec3::new(1.0, 0.0, 0.0));
        assert!(order.in_front(0, 1));
        let rev = part.depth_order(Vec3::new(-1.0, 0.0, 0.0));
        assert!(rev.in_front(1, 0));
    }

    #[test]
    fn depth_order_is_total_and_consistent() {
        let part = kd_partition([32, 32, 32], 16);
        let v = Vec3::new(0.4, -0.7, 0.59).normalized();
        let order = part.depth_order(v);
        let seq = order.front_to_back();
        assert_eq!(seq.len(), 16);
        let mut sorted = seq.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        for i in 0..16 {
            for j in 0..16 {
                if i != j {
                    assert_ne!(order.in_front(i, j), order.in_front(j, i));
                }
            }
        }
    }

    #[test]
    fn depth_order_respects_separating_planes() {
        // For every pair, the front block must be on the viewer side of
        // some separating axis plane. We verify the weaker but sufficient
        // property: if a block's max coordinate along the view's dominant
        // axis is ≤ another's min, it comes first when the view looks
        // down that axis.
        let part = kd_partition([40, 40, 40], 8);
        let v = Vec3::new(0.0, 0.0, 1.0);
        let order = part.depth_order(v);
        let subs = part.subvolumes();
        for a in subs {
            for b in subs {
                if a.rank != b.rank && a.origin[2] + a.dims[2] <= b.origin[2] {
                    assert!(
                        order.in_front(a.rank, b.rank),
                        "rank {} (z {:?}) should precede rank {}",
                        a.rank,
                        a.origin,
                        b.rank
                    );
                }
            }
        }
    }

    #[test]
    fn eye_depth_order_matches_orthographic_for_distant_eye() {
        // A very distant eye approaches the orthographic limit.
        let part = kd_partition([32, 32, 32], 8);
        let dir = Vec3::new(0.3, -0.4, 0.87).normalized();
        let center = Vec3::new(16.0, 16.0, 16.0);
        let eye = center - dir * 1e6;
        assert_eq!(
            part.depth_order_from_eye(eye).front_to_back(),
            part.depth_order(dir).front_to_back()
        );
    }

    #[test]
    fn eye_inside_volume_orders_around_it() {
        // With the eye inside a corner block, that block must come first.
        let part = kd_partition([32, 32, 32], 8);
        let eye = Vec3::new(2.0, 2.0, 2.0);
        let order = part.depth_order_from_eye(eye);
        let first = order.front_to_back()[0];
        let block = part.subvolumes()[first];
        assert!(
            block.origin == [0, 0, 0],
            "eye's own block must be front: {block:?}"
        );
    }

    #[test]
    fn eye_depth_order_is_total() {
        let part = kd_partition([40, 30, 20], 16);
        let order = part.depth_order_from_eye(Vec3::new(-10.0, 50.0, 7.0));
        let mut seen = order.front_to_back().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn from_sequence_inverts_correctly() {
        let order = DepthOrder::from_sequence(vec![2, 0, 3, 1]);
        assert!(order.in_front(2, 0));
        assert!(order.in_front(0, 3));
        assert!(order.in_front(3, 1));
        assert!(!order.in_front(1, 2));
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn from_sequence_rejects_duplicates() {
        let _ = DepthOrder::from_sequence(vec![0, 0, 1]);
    }

    #[test]
    fn single_block_partition() {
        let part = kd_partition([10, 10, 10], 1);
        assert_eq!(part.len(), 1);
        assert_eq!(part.subvolumes()[0].dims, [10, 10, 10]);
        let order = part.depth_order(Vec3::new(1.0, 1.0, 1.0));
        assert_eq!(order.front_to_back(), &[0]);
    }

    #[test]
    fn expanded_clamps_at_volume_faces() {
        let vol = [32, 32, 32];
        let interior = Subvolume {
            rank: 0,
            origin: [8, 8, 8],
            dims: [8, 8, 8],
        };
        let e = interior.expanded(2, vol);
        assert_eq!(e.origin, [6, 6, 6]);
        assert_eq!(e.dims, [12, 12, 12]);
        let corner = Subvolume {
            rank: 1,
            origin: [0, 0, 24],
            dims: [8, 8, 8],
        };
        let e = corner.expanded(2, vol);
        assert_eq!(e.origin, [0, 0, 22]);
        assert_eq!(e.dims, [10, 10, 10]);
        assert_eq!(e.rank, 1);
    }

    #[test]
    fn expanded_zero_ghost_is_identity() {
        let b = Subvolume {
            rank: 3,
            origin: [4, 0, 2],
            dims: [5, 6, 7],
        };
        assert_eq!(b.expanded(0, [32, 32, 32]), b);
    }

    #[test]
    fn paper_scale_partition_64() {
        let part = kd_partition([256, 256, 110], 64);
        assert_disjoint_cover(&part, [256, 256, 110]);
        assert!(part.subvolumes().iter().all(|s| s.voxels() > 0));
    }
}
