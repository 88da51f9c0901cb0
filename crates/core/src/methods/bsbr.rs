//! Binary-swap with bounding rectangles (BSBR) — Section 3.2.
//!
//! Each stage ships an 8-byte bounding rectangle header plus the *dense*
//! pixels inside the sending half's bounding rectangle. Blank pixels
//! inside the rectangle still travel — the method's weakness on sparse
//! images like `Cube` — but the `O(1)` per-stage bookkeeping (intersect
//! and union of rectangles after the initial `O(A)` scan, the paper's
//! `T_bound`) keeps computation minimal.

use vr_comm::Endpoint;
use vr_image::Image;
use vr_volume::DepthOrder;

use crate::error::{try_exchange, CompositeError};
use crate::schedule::{fold_into_pow2, tags, FoldOutcome, RegionSplitter, VirtualTopology};
use crate::stats::StageStat;
use crate::wire::{MsgReader, MsgWriter};

use super::{CompositeResult, OwnedPiece, Run};

/// Runs BSBR. See the module docs.
pub fn run(
    ep: &mut Endpoint,
    image: &mut Image,
    depth: &DepthOrder,
) -> Result<CompositeResult, CompositeError> {
    let mut run = Run::begin(ep);
    let topo = VirtualTopology::from_depth(ep.rank(), depth);
    let topo = match fold_into_pow2(
        ep,
        image,
        &topo,
        &mut run.comp,
        &mut run.stages,
        &mut run.dead,
    )? {
        FoldOutcome::Active(t) => t,
        FoldOutcome::Folded => return Ok(run.finish(ep, OwnedPiece::Nothing)),
    };

    // T_bound: the one full scan for the initial bounding rectangle.
    run.bound_pixels += image.area() as u64;
    let mut local_bounds = run.bound.time(|| image.bounding_rect());

    let mut splitter = RegionSplitter::new(image.full_rect());
    for stage in 0..topo.stages() {
        let vpartner = topo.partner(stage);
        let partner = topo.real(vpartner);
        let (keep, send) = splitter.split(stage, topo.keeps_low(stage));

        // O(1) rectangle bookkeeping instead of a rescan.
        let send_bounds = local_bounds.intersect(&send);
        let keep_bounds = local_bounds.intersect(&keep);

        let payload = run.comp.time(|| {
            let mut w =
                MsgWriter::with_capacity(8 + send_bounds.area() * vr_image::BYTES_PER_PIXEL);
            w.put_rect(send_bounds);
            w.put_image_rect(image, &send_bounds);
            w.freeze()
        });
        let mut stat = StageStat {
            sent_bytes: payload.len() as u64,
            sent_msgs: 1,
            ..Default::default()
        };

        stat.peer = Some(partner as u16);
        let received = try_exchange(
            ep,
            partner,
            tags::STAGE_BASE + stage as u32,
            payload,
            &mut run.dead,
            "BSBR stage",
        )?;

        let recv_rect = if let Some(received) = received {
            stat.recv_bytes = received.len() as u64;
            stat.recv_msgs = 1;
            run.comp.time(|| {
                let mut r = MsgReader::new(received);
                let rect = r.get_rect();
                stat.recv_rect_empty = rect.is_empty();
                if !rect.is_empty() {
                    debug_assert!(
                        keep.contains_rect(&rect),
                        "received rect must lie in kept half"
                    );
                    let wire = r.take_pixels(rect.area());
                    stat.composite_ops = if topo.received_is_front(vpartner) {
                        image.composite_rect_over_wire(&rect, &wire) as u64
                    } else {
                        image.composite_rect_under_wire(&rect, &wire) as u64
                    };
                }
                rect
            })
        } else {
            stat.recv_rect_empty = true;
            vr_image::Rect::EMPTY
        };
        // New local bounding rectangle: what we kept plus what arrived
        // (algorithm line 21).
        local_bounds = keep_bounds.union(&recv_rect);
        run.stages.push(stat);
    }

    Ok(run.finish(ep, OwnedPiece::Rect(splitter.region())))
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{check_against_reference, test_images};
    use super::*;
    use crate::methods::Method;
    use vr_comm::{run_group, CostModel};
    use vr_image::{Pixel, Rect};

    #[test]
    fn bsbr_matches_reference_pow2() {
        for p in [2, 4, 8, 16] {
            check_against_reference(Method::Bsbr, p, 32, 24, &DepthOrder::identity(p));
        }
    }

    #[test]
    fn bsbr_matches_reference_shuffled_depth() {
        let depth = DepthOrder::from_sequence(vec![5, 2, 7, 0, 3, 6, 1, 4]);
        check_against_reference(Method::Bsbr, 8, 28, 36, &depth);
    }

    #[test]
    fn bsbr_matches_reference_non_pow2() {
        for p in [3, 6, 12] {
            check_against_reference(Method::Bsbr, p, 24, 24, &DepthOrder::identity(p));
        }
    }

    #[test]
    fn bsbr_sends_less_than_bs_on_sparse_images() {
        let p = 4;
        let (w, h) = (64u16, 64u16);
        // Sparse content: one small blob per rank.
        let images: Vec<Image> = (0..p)
            .map(|r| {
                let mut img = Image::blank(w, h);
                for dy in 0..4u16 {
                    for dx in 0..4u16 {
                        img.set(10 + r as u16 * 6 + dx, 20 + dy, Pixel::gray(0.5, 0.8));
                    }
                }
                img
            })
            .collect();
        let depth = DepthOrder::identity(p);
        let run_method = |m: Method| {
            run_group(p, CostModel::free(), |ep| {
                let mut img = images[ep.rank()].clone();
                crate::methods::composite(m, ep, &mut img, &depth)
                    .unwrap()
                    .stats
                    .sent_bytes()
            })
            .results
            .iter()
            .sum::<u64>()
        };
        let bs = run_method(Method::Bs);
        let bsbr = run_method(Method::Bsbr);
        assert!(
            bsbr * 4 < bs,
            "BSBR should send far less on sparse input: {bsbr} vs {bs}"
        );
    }

    #[test]
    fn bsbr_empty_rect_sends_header_only() {
        // Rank 1's image is completely blank → every payload it sends is
        // just the 8-byte rectangle header.
        let p = 2;
        let images = [test_images(1, 16, 16)[0].clone(), Image::blank(16, 16)];
        let depth = DepthOrder::identity(p);
        let out = run_group(p, CostModel::free(), |ep| {
            let mut img = images[ep.rank()].clone();
            run(ep, &mut img, &depth).unwrap().stats
        });
        let blank_rank = &out.results[1];
        assert_eq!(blank_rank.stages[0].sent_bytes, 8);
        // And the partner observed an empty receiving rectangle.
        assert!(out.results[0].stages[0].recv_rect_empty);
    }

    #[test]
    fn bsbr_tracks_bounds_without_rescan() {
        // The local bounding rectangle after each stage must still cover
        // all non-blank pixels of the kept region (checked implicitly by
        // reference equality on a workload designed to move bounds).
        let p = 8;
        let depth = DepthOrder::from_sequence(vec![1, 3, 5, 7, 0, 2, 4, 6]);
        check_against_reference(Method::Bsbr, p, 40, 40, &depth);
    }

    #[test]
    fn bsbr_final_regions_partition_image() {
        let p = 4;
        let images = test_images(p, 16, 16);
        let depth = DepthOrder::identity(p);
        let out = run_group(p, CostModel::free(), |ep| {
            let mut img = images[ep.rank()].clone();
            run(ep, &mut img, &depth).unwrap().piece
        });
        let mut total = 0;
        for piece in &out.results {
            if let OwnedPiece::Rect(r) = piece {
                total += r.area();
            } else {
                panic!("expected rect piece");
            }
        }
        assert_eq!(total, 256);
        let _ = Rect::EMPTY;
    }
}
