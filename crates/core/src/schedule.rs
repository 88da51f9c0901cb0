//! Scheduling: virtual (depth-ordered) ranks, region strips, and the
//! non-power-of-two fold extension.

use std::collections::BTreeSet;

use vr_comm::Endpoint;
use vr_image::{Image, Rect};
use vr_volume::DepthOrder;

use crate::error::{try_recv, try_send, CompositeError, Malformed};
use crate::methods::spatial::{composite_rect, encode_rect, parse_rect};
use crate::runner::Canvas;
use crate::stats::StageStat;
use crate::timer::Stopwatch;

/// Message tags used by the compositing protocols.
pub mod tags {
    /// Fold step (non-power-of-two extension).
    pub const FOLD: u32 = 0xF01D;
    /// Stage (round) `k` uses `STAGE_BASE + k`.
    pub const STAGE_BASE: u32 = 0x1000;
    /// Final gather of owned pieces.
    pub const GATHER: u32 = 0x6A77;
    /// Streamed tile contributions (and their DONE sentinels).
    pub const TILE: u32 = 0x7000;
}

/// A rank's view of the depth-ordered virtual topology.
///
/// Virtual rank `v` = position in the front-to-back visibility order, so
/// **smaller virtual rank ⇒ in front**, and any schedule that merges
/// partials covering contiguous virtual intervals composes `over`
/// correctly by comparing integers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VirtualTopology {
    vrank: usize,
    v_to_rank: Vec<usize>,
}

impl VirtualTopology {
    /// Builds the full-group topology for this rank from a depth order.
    pub fn from_depth(rank: usize, depth: &DepthOrder) -> Self {
        let v_to_rank = depth.front_to_back().to_vec();
        let vrank = v_to_rank
            .iter()
            .position(|&r| r == rank)
            .expect("rank missing from depth order");
        VirtualTopology { vrank, v_to_rank }
    }

    /// This rank's virtual rank.
    #[inline]
    pub fn vrank(&self) -> usize {
        self.vrank
    }

    /// Number of participating virtual ranks.
    #[inline]
    pub fn vsize(&self) -> usize {
        self.v_to_rank.len()
    }

    /// Real rank of virtual rank `v`.
    #[inline]
    pub fn real(&self, v: usize) -> usize {
        self.v_to_rank[v]
    }

    /// Number of binary-swap stages (`log2 vsize`); panics unless the
    /// virtual size is a power of two (use [`fold_into_pow2`] first).
    pub fn stages(&self) -> usize {
        assert!(
            self.vsize().is_power_of_two(),
            "binary swap requires a power-of-two group"
        );
        self.vsize().trailing_zeros() as usize
    }
}

/// Strip `i` of `region` cut into `r` near-equal strips along `axis`
/// (0 = x, 1 = y). The strips tile the region exactly; at `r = 2` they
/// are the halves either side of its centerline ("use the centerline of
/// the subimage"). An empty strip is [`Rect::EMPTY`].
pub(crate) fn strip(region: Rect, r: usize, axis: usize, i: usize) -> Rect {
    let cut = |lo: u16, len: u16, i: usize| lo + (len as usize * i / r) as u16;
    let strip = if axis == 0 {
        let (x0, w) = (region.x0, region.width());
        Rect::new(cut(x0, w, i), region.y0, cut(x0, w, i + 1), region.y1)
    } else {
        let (y0, h) = (region.y0, region.height());
        Rect::new(region.x0, cut(y0, h, i), region.x1, cut(y0, h, i + 1))
    };
    strip.intersect(&region)
}

/// Result of the pre-swap fold for non-power-of-two groups.
#[derive(Debug)]
pub enum FoldOutcome {
    /// This rank participates in the power-of-two binary swap with the
    /// given reduced topology.
    Active(VirtualTopology),
    /// This rank folded its image into a neighbour and is done until the
    /// gather.
    Folded,
}

/// Folds a `P`-rank group onto the largest power of two `Q ≤ P`
/// (the paper's future-work extension to arbitrary processor counts).
///
/// The first `2(P−Q)` *virtual* positions pair up `(2i, 2i+1)`; each odd
/// position compresses its subimage (BSBR's rect payload: bounding
/// rectangle + dense pixels) and sends it to the even position in front
/// of it. Pairs are adjacent in depth order, so merged partials stay
/// depth-contiguous and the remaining `Q` participants renumber without
/// breaking front-to-back monotonicity.
pub fn fold_into_pow2(
    ep: &mut Endpoint,
    image: &mut Image,
    topo: &VirtualTopology,
    comp: &mut Stopwatch,
    stages: &mut Vec<StageStat>,
    dead: &mut BTreeSet<usize>,
) -> Result<FoldOutcome, CompositeError> {
    fold_on(ep, &mut Canvas::InPlace(image), topo, comp, stages, dead)
}

/// [`fold_into_pow2`] over a [`Canvas`]: a rank that folds out only
/// reads its subimage, and a receiver makes its working frame from the
/// whole subimage once a payload has arrived.
pub(crate) fn fold_on(
    ep: &mut Endpoint,
    canvas: &mut Canvas,
    topo: &VirtualTopology,
    comp: &mut Stopwatch,
    stages: &mut Vec<StageStat>,
    dead: &mut BTreeSet<usize>,
) -> Result<FoldOutcome, CompositeError> {
    let p = topo.vsize();
    let q = if p.is_power_of_two() {
        p
    } else {
        p.next_power_of_two() / 2
    };
    let extra = p - q;
    if extra == 0 {
        return Ok(FoldOutcome::Active(topo.clone()));
    }
    let v = topo.vrank();
    let mut stat = StageStat::default();

    if v < 2 * extra {
        if v % 2 == 1 {
            // Fold out: ship bounding rectangle + pixels to the partner
            // in front (virtual v−1), then retire. If that partner is
            // dead the image is lost (a hole); this rank retires anyway.
            let image = canvas.image();
            let payload = comp.time(|| encode_rect(image, &image.bounding_rect()));
            stat.sent_bytes = payload.len() as u64;
            stat.sent_msgs = 1;
            if try_send(ep, topo.real(v - 1), tags::FOLD, payload, dead)? {
                stages.push(stat);
            } else {
                stages.push(StageStat::default());
            }
            return Ok(FoldOutcome::Folded);
        }
        // Receive the behind-neighbour's image and composite it under
        // our own (we are in front). A dead neighbour contributes
        // nothing — we keep our own partial.
        let behind = topo.real(v + 1);
        if let Some(payload) = try_recv(ep, behind, tags::FOLD, dead, "fold")? {
            stat.recv_bytes = payload.len() as u64;
            stat.recv_msgs = 1;
            let image = canvas.frame();
            comp.time(|| {
                let (rect, wire) = parse_rect(payload, &image.full_rect())?;
                stat.recv_rect_empty = rect.is_empty();
                stat.composite_ops = composite_rect(image, &rect, &wire, false);
                Ok(())
            })
            .map_err(|m: Malformed| m.at("fold", behind))?;
        } else {
            stat.recv_rect_empty = true;
        }
        stages.push(stat);
    }

    // Renumber the survivors: old even positions < 2·extra halve; old
    // positions ≥ 2·extra shift down by `extra`.
    let mut v_to_rank = Vec::with_capacity(q);
    for old in (0..2 * extra).step_by(2) {
        v_to_rank.push(topo.real(old));
    }
    for old in 2 * extra..p {
        v_to_rank.push(topo.real(old));
    }
    let new_v = if v < 2 * extra { v / 2 } else { v - extra };
    Ok(FoldOutcome::Active(VirtualTopology {
        vrank: new_v,
        v_to_rank,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(vrank: usize, p: usize) -> VirtualTopology {
        VirtualTopology {
            vrank,
            v_to_rank: (0..p).collect(),
        }
    }

    #[test]
    fn from_depth_positions() {
        let depth = DepthOrder::from_sequence(vec![2, 0, 1]);
        let t = VirtualTopology::from_depth(0, &depth);
        assert_eq!(t.vrank(), 1); // rank 0 is second front-to-back
        assert_eq!(t.real(0), 2);
        assert_eq!(t.real(1), 0);
        assert_eq!(t.real(2), 1);
    }

    #[test]
    fn stages_for_pow2() {
        assert_eq!(topo(0, 1).stages(), 0);
        assert_eq!(topo(0, 8).stages(), 3);
        assert_eq!(topo(0, 64).stages(), 6);
    }

    #[test]
    #[should_panic]
    fn stages_rejects_non_pow2() {
        let _ = topo(0, 6).stages();
    }

    #[test]
    fn strips_tile_the_region() {
        for r in 1..6 {
            for axis in 0..2 {
                let region = Rect::new(3, 5, 40, 29);
                let parts: Vec<Rect> = (0..r).map(|i| strip(region, r, axis, i)).collect();
                let total: usize = parts.iter().map(|p| p.area()).sum();
                assert_eq!(total, region.area());
                for w in parts.windows(2) {
                    assert!(w[0].intersect(&w[1]).is_empty());
                }
            }
        }
    }

    #[test]
    fn radix_two_strips_are_the_centerline_halves() {
        let full = Rect::new(0, 0, 8, 8);
        assert_eq!(strip(full, 2, 0, 0), Rect::new(0, 0, 4, 8));
        assert_eq!(strip(full, 2, 0, 1), Rect::new(4, 0, 8, 8));
        let odd = Rect::new(0, 0, 7, 3);
        assert_eq!(strip(odd, 2, 0, 0), odd.split_at_x(3).0);
        assert_eq!(strip(odd, 2, 1, 1), Rect::new(0, 1, 7, 3));
        // Narrower than the radix: the empty strips are the canonical one.
        assert_eq!(strip(Rect::new(2, 0, 3, 4), 2, 0, 0), Rect::EMPTY);
    }

    #[test]
    fn fold_renumbering_preserves_order() {
        // p = 6 → q = 4, extra = 2: old positions 0,2,4,5 survive as
        // 0,1,2,3 — still ascending in depth.
        use vr_comm::CostModel;
        let depth = DepthOrder::identity(6);
        let out = vr_comm::run_group(6, CostModel::free(), |ep| {
            let topo = VirtualTopology::from_depth(ep.rank(), &depth);
            let mut img = Image::blank(4, 4);
            if ep.rank() % 2 == 1 && ep.rank() < 4 {
                img.set(ep.rank() as u16, 0, vr_image::Pixel::gray(1.0, 1.0));
            }
            let mut sw = Stopwatch::new();
            let mut stages = Vec::new();
            let mut dead = BTreeSet::new();
            match fold_into_pow2(ep, &mut img, &topo, &mut sw, &mut stages, &mut dead).unwrap() {
                FoldOutcome::Active(t) => Some((t.vrank(), t.vsize(), img.non_blank_count())),
                FoldOutcome::Folded => None,
            }
        });
        // Ranks 1 and 3 folded out (odd positions < 4).
        assert!(out.results[1].is_none());
        assert!(out.results[3].is_none());
        let (v0, q0, n0) = out.results[0].unwrap();
        let (v2, q2, n2) = out.results[2].unwrap();
        let (v4, _, _) = out.results[4].unwrap();
        let (v5, _, _) = out.results[5].unwrap();
        assert_eq!((v0, q0), (0, 4));
        assert_eq!((v2, q2), (1, 4));
        assert_eq!(v4, 2);
        assert_eq!(v5, 3);
        // Folded images arrived: rank 0 got rank 1's pixel, rank 2 got 3's.
        assert_eq!(n0, 1);
        assert_eq!(n2, 1);
    }
}
