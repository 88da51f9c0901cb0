//! Radix-k compositing with bounding-rectangle compression — the modern
//! generalization of binary swap (Peterka et al.'s radix-k lineage,
//! which descends from the methods this paper studies).
//!
//! Each round picks a radix `r`: groups of `r` ranks split their current
//! region into `r` strips, every member keeps one strip and direct-sends
//! the other `r−1` (as BSBR's rect payload: bounding rectangle + dense
//! pixels) to their owners, then composites the `r` contributions in
//! depth order. With
//! `r = 2` every round this is exactly BSBR; with one round of `r = P`
//! it degenerates to direct send. Intermediate radices trade message
//! *count* (`Σ (r_j − 1)` per rank) against message *size* and rounds —
//! the knob that made radix-k win on modern interconnects where the
//! paper's SP2 analysis charged `T_s` per message.
//!
//! Any `P ≥ 1` works without folding: the rounds follow a factorization
//! of `P` itself (greedy factors ≤ 4; a prime `P > 4` becomes one
//! direct-send-style round), and each round's merged partials stay
//! depth-contiguous because groups are contiguous virtual-rank blocks.

use bytes::Bytes;
use vr_comm::Endpoint;
use vr_image::{Image, Rect};
use vr_volume::DepthOrder;

use crate::error::{try_recv, try_send, CompositeError};
use crate::schedule::{tags, VirtualTopology};
use crate::stats::StageStat;

use super::spatial::{composite_rect, encode_rect, parse_rect};
use super::{CompositeResult, OwnedPiece, Run};

/// Factors `p` into per-round radices: greedy factors of 4, 3, 2; any
/// remaining prime becomes its own round.
pub fn round_radices(mut p: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for f in [4usize, 3, 2] {
        while p.is_multiple_of(f) && p > 1 {
            out.push(f);
            p /= f;
        }
    }
    if p > 1 {
        out.push(p);
    }
    out
}

/// Splits `region` into `r` strips along `axis` (0 = x, 1 = y) with
/// near-equal extents; strips tile the region exactly.
fn strips(region: Rect, r: usize, axis: usize) -> Vec<Rect> {
    let mut out = Vec::with_capacity(r);
    if axis == 0 {
        let w = region.width() as usize;
        for i in 0..r {
            let x0 = region.x0 + (w * i / r) as u16;
            let x1 = region.x0 + (w * (i + 1) / r) as u16;
            out.push(Rect::new(x0, region.y0, x1, region.y1));
        }
    } else {
        let h = region.height() as usize;
        for i in 0..r {
            let y0 = region.y0 + (h * i / r) as u16;
            let y1 = region.y0 + (h * (i + 1) / r) as u16;
            out.push(Rect::new(region.x0, y0, region.x1, y1));
        }
    }
    out
}

/// Runs radix-k compositing (any `P ≥ 1`). See the module docs.
pub fn run(
    ep: &mut Endpoint,
    image: &mut Image,
    depth: &DepthOrder,
) -> Result<CompositeResult, CompositeError> {
    let mut run = Run::begin(ep);
    let topo = VirtualTopology::from_depth(ep.rank(), depth);
    let v = topo.vrank();
    let p = topo.vsize();

    // Like BSBR: one O(A) scan, then rectangle bookkeeping.
    run.bound_pixels += image.area() as u64;
    let mut local_bounds = run.bound.time(|| image.bounding_rect());

    let mut region = image.full_rect();
    // Round `j` pairs same-strip owners `stride` apart: after round `j`
    // a rank's partial covers a contiguous block of `stride · radix`
    // virtual ranks, so digit order remains depth order.
    let mut stride = 1usize;

    for (round, &radix) in round_radices(p).iter().enumerate() {
        let my_digit = (v / stride) % radix;
        let base = v - my_digit * stride;
        let parts = strips(region, radix, round % 2);
        let keep = parts[my_digit];
        let mut stat = StageStat::default();

        // Send every foreign strip to its owner in the sibling block
        // (BSBR-compressed).
        for (d, part) in parts.iter().enumerate() {
            if d == my_digit {
                continue;
            }
            let target = topo.real(base + d * stride);
            let send_bounds = local_bounds.intersect(part);
            let payload = run.comp.time(|| encode_rect(image, &send_bounds));
            let len = payload.len() as u64;
            if try_send(
                ep,
                target,
                tags::STAGE_BASE + round as u32,
                payload,
                &mut run.dead,
                "radix-k send",
            )? {
                stat.sent_bytes += len;
                stat.sent_msgs += 1;
            }
        }

        // Receive the other digits' contributions for my strip; a dead
        // group member simply contributes nothing.
        let mut fronts: Vec<(Rect, Bytes)> = Vec::new(); // digits < mine
        let mut backs: Vec<(Rect, Bytes)> = Vec::new(); // digits > mine
        for d in 0..radix {
            if d == my_digit {
                continue;
            }
            let src = topo.real(base + d * stride);
            let Some(received) = try_recv(
                ep,
                src,
                tags::STAGE_BASE + round as u32,
                &mut run.dead,
                "radix-k recv",
            )?
            else {
                continue;
            };
            stat.recv_bytes += received.len() as u64;
            stat.recv_msgs += 1;
            // Validated now, composited below: the pixels stay a view of
            // the received bytes.
            let (rect, wire) = run
                .comp
                .time(|| parse_rect(received, &keep))
                .map_err(|m| m.at("radix-k recv", src))?;
            if rect.is_empty() {
                continue;
            }
            if d < my_digit {
                fronts.push((rect, wire));
            } else {
                backs.push((rect, wire));
            }
        }

        // Composite in depth order: digits ascending. Backs (behind us)
        // apply in ascending order via `under`; fronts apply in
        // descending order via `over`. `fronts`/`backs` already arrive
        // digit-ascending from the loop above.
        run.comp.time(|| {
            let mut ops = 0u64;
            let mut new_bounds = local_bounds.intersect(&keep);
            for (rect, wire) in &backs {
                ops += composite_rect(image, rect, wire, false);
                new_bounds = new_bounds.union(rect);
            }
            for (rect, wire) in fronts.iter().rev() {
                ops += composite_rect(image, rect, wire, true);
                new_bounds = new_bounds.union(rect);
            }
            stat.composite_ops = ops;
            local_bounds = new_bounds;
        });

        region = keep;
        stride *= radix;
        run.stages.push(stat);
    }

    Ok(run.finish(ep, OwnedPiece::Rect(region)))
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{check_against_reference, test_images};
    use super::*;
    use crate::methods::Method;
    use vr_comm::{run_group, CostModel};

    #[test]
    fn radices_factorize() {
        assert_eq!(round_radices(1), Vec::<usize>::new());
        assert_eq!(round_radices(2), vec![2]);
        assert_eq!(round_radices(8), vec![4, 2]);
        assert_eq!(round_radices(64), vec![4, 4, 4]);
        assert_eq!(round_radices(12), vec![4, 3]);
        assert_eq!(round_radices(6), vec![3, 2]);
        assert_eq!(round_radices(7), vec![7]);
        assert_eq!(round_radices(10), vec![2, 5]);
        for p in 1..=64usize {
            assert_eq!(round_radices(p).iter().product::<usize>().max(1), p.max(1));
        }
    }

    #[test]
    fn strips_tile_the_region() {
        for r in 1..6 {
            for axis in 0..2 {
                let region = Rect::new(3, 5, 40, 29);
                let parts = strips(region, r, axis);
                assert_eq!(parts.len(), r);
                let total: usize = parts.iter().map(|p| p.area()).sum();
                assert_eq!(total, region.area());
                for w in parts.windows(2) {
                    assert!(w[0].intersect(&w[1]).is_empty());
                }
            }
        }
    }

    #[test]
    fn radix_matches_reference_pow2() {
        for p in [2, 4, 8, 16] {
            check_against_reference(Method::RadixK, p, 32, 24, &DepthOrder::identity(p));
        }
    }

    #[test]
    fn radix_matches_reference_composite_counts() {
        for p in [3, 6, 9, 12] {
            check_against_reference(Method::RadixK, p, 36, 24, &DepthOrder::identity(p));
        }
    }

    #[test]
    fn radix_matches_reference_prime_p() {
        for p in [5, 7, 11] {
            check_against_reference(Method::RadixK, p, 33, 22, &DepthOrder::identity(p));
        }
    }

    #[test]
    fn radix_matches_reference_shuffled_depth() {
        let depth = DepthOrder::from_sequence(vec![5, 2, 7, 0, 3, 6, 1, 4]);
        check_against_reference(Method::RadixK, 8, 32, 32, &depth);
    }

    #[test]
    fn radix_uses_fewer_rounds_than_binary_swap() {
        let p = 16;
        let images = test_images(p, 32, 32);
        let depth = DepthOrder::identity(p);
        let rounds = |m: Method| {
            run_group(p, CostModel::free(), |ep| {
                let mut img = images[ep.rank()].clone();
                crate::methods::composite(m, ep, &mut img, &depth)
                    .unwrap()
                    .stats
                    .stages
                    .len()
            })
            .results[0]
        };
        assert_eq!(rounds(Method::RadixK), 2); // 16 = 4 × 4
        assert_eq!(rounds(Method::Bs), 4); // log2 16
    }

    #[test]
    fn radix_final_regions_partition_image() {
        let p = 12;
        let images = test_images(p, 36, 24);
        let depth = DepthOrder::identity(p);
        let out = run_group(p, CostModel::free(), |ep| {
            let mut img = images[ep.rank()].clone();
            run(ep, &mut img, &depth).unwrap().piece
        });
        let mut total = 0usize;
        for piece in &out.results {
            match piece {
                OwnedPiece::Rect(r) => total += r.area(),
                other => panic!("unexpected piece {other:?}"),
            }
        }
        assert_eq!(total, 36 * 24);
    }
}
