//! Binary-swap with **multiple bounding rectangles** (BSMR) — an
//! encoding-scheme extension in the spirit of the paper's future work.
//!
//! BSBR's weakness is the single rectangle: two small clusters in
//! opposite corners force one huge, mostly blank rectangle. BSMR covers
//! the sending half's non-blank pixels with up to [`MAX_RECTS`] disjoint
//! rectangles, found by recursively bisecting any rectangle whose
//! non-blank density is below a threshold and re-tightening the
//! children. Wire format per stage: `u32` rect count, then per rect an
//! 8-byte header plus its dense pixels.
//!
//! Compared with BSBRC (RLE), BSMR keeps BSBR's dense-copy compositing
//! (no per-pixel decoding) while shedding most of its blank-pixel
//! traffic — a middle point on the encoding-cost / byte-count curve.

use vr_comm::Endpoint;
use vr_image::{Image, Rect};
use vr_volume::DepthOrder;

use crate::error::{try_exchange, CompositeError};
use crate::schedule::{fold_into_pow2, tags, FoldOutcome, RegionSplitter, VirtualTopology};
use crate::stats::StageStat;
use crate::wire::{MsgReader, MsgWriter};

use super::{CompositeResult, OwnedPiece, Run};

/// Maximum rectangles per message (depth-3 bisection).
pub const MAX_RECTS: usize = 8;

/// Density below which a rectangle is worth splitting further.
const SPLIT_DENSITY: f64 = 0.6;

/// Covers the non-blank pixels of `image` inside `within` with at most
/// `max_rects` disjoint, individually tight rectangles.
pub fn cover_rects(image: &Image, within: &Rect, max_rects: usize) -> Vec<Rect> {
    let bounds = image.bounding_rect_in(within);
    if bounds.is_empty() {
        return Vec::new();
    }
    let mut rects = vec![bounds];
    // Greedily split the sparsest rectangle while budget remains.
    while rects.len() < max_rects {
        // Pick the rect with the lowest density and a splittable extent.
        let mut best: Option<(usize, f64)> = None;
        for (i, r) in rects.iter().enumerate() {
            if r.width() < 2 && r.height() < 2 {
                continue;
            }
            let density = image.non_blank_count_in(r) as f64 / r.area() as f64;
            if density < SPLIT_DENSITY && best.is_none_or(|(_, d)| density < d) {
                best = Some((i, density));
            }
        }
        let Some((idx, _)) = best else { break };
        let r = rects.swap_remove(idx);
        let (a, b) = if r.width() >= r.height() {
            r.split_at_x(r.x0 + r.width() / 2)
        } else {
            r.split_at_y(r.y0 + r.height() / 2)
        };
        // Re-tighten both halves; drop empties.
        for half in [a, b] {
            let tight = image.bounding_rect_in(&half);
            if !tight.is_empty() {
                rects.push(tight);
            }
        }
        if rects.is_empty() {
            break;
        }
    }
    rects
}

/// Runs BSMR. See the module docs.
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

    run.bound_pixels += image.area() as u64;
    // BSMR re-tightens per stage, so it re-scans the send half instead of
    // doing O(1) rectangle algebra; charge those scans as bound work.
    let mut splitter = RegionSplitter::new(image.full_rect());
    for stage in 0..topo.stages() {
        let vpartner = topo.partner(stage);
        let partner = topo.real(vpartner);
        let (keep, send) = splitter.split(stage, topo.keeps_low(stage));

        let (payload, nrects) = run.bound.time(|| {
            let rects = cover_rects(image, &send, MAX_RECTS);
            let mut w = MsgWriter::with_capacity(
                4 + rects
                    .iter()
                    .map(|r| 8 + r.area() * vr_image::BYTES_PER_PIXEL)
                    .sum::<usize>(),
            );
            w.put_u32(rects.len() as u32);
            for r in &rects {
                w.put_rect(*r);
                w.put_image_rect(image, r);
            }
            (w.freeze(), rects.len())
        });
        let mut stat = StageStat {
            sent_bytes: payload.len() as u64,
            sent_msgs: 1,
            run_codes: nrects as u64,
            ..Default::default()
        };

        stat.peer = Some(partner as u16);
        let received = try_exchange(
            ep,
            partner,
            tags::STAGE_BASE + stage as u32,
            payload,
            &mut run.dead,
            "BSMR stage",
        )?;

        if let Some(received) = received {
            stat.recv_bytes = received.len() as u64;
            stat.recv_msgs = 1;
            run.comp.time(|| {
                let mut r = MsgReader::new(received);
                let n = r.get_u32() as usize;
                stat.recv_rect_empty = n == 0;
                let front = topo.received_is_front(vpartner);
                let mut ops = 0u64;
                for _ in 0..n {
                    let rect = r.get_rect();
                    debug_assert!(keep.contains_rect(&rect));
                    let wire = r.take_pixels(rect.area());
                    // Disjoint rects from one sender commute freely.
                    ops += if front {
                        image.composite_rect_over_wire(&rect, &wire) as u64
                    } else {
                        image.composite_rect_under_wire(&rect, &wire) as u64
                    };
                }
                stat.composite_ops = ops;
            });
        } else {
            stat.recv_rect_empty = true;
        }
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
    use vr_image::Pixel;

    #[test]
    fn cover_rects_tight_on_two_clusters() {
        let mut img = Image::blank(64, 64);
        for d in 0..4u16 {
            for e in 0..4u16 {
                img.set(2 + d, 2 + e, Pixel::gray(0.5, 0.5));
                img.set(58 + d, 58 + e, Pixel::gray(0.5, 0.5));
            }
        }
        let rects = cover_rects(&img, &img.full_rect(), MAX_RECTS);
        let covered: usize = rects.iter().map(|r| r.area()).sum();
        // Two tight 4×4 rects instead of one 60×60 box.
        assert!(rects.len() >= 2);
        assert!(covered <= 64, "cover too loose: {rects:?}");
        // Every non-blank pixel is inside some rect.
        for y in 0..64u16 {
            for x in 0..64u16 {
                if !img.get(x, y).is_blank() {
                    assert!(
                        rects.iter().any(|r| r.contains(x, y)),
                        "({x},{y}) uncovered"
                    );
                }
            }
        }
    }

    #[test]
    fn cover_rects_respects_budget_and_disjointness() {
        let img = Image::from_fn(32, 32, |x, y| {
            if (x / 3 + y / 3) % 2 == 0 {
                Pixel::gray(0.5, 0.5)
            } else {
                Pixel::BLANK
            }
        });
        let rects = cover_rects(&img, &img.full_rect(), MAX_RECTS);
        assert!(rects.len() <= MAX_RECTS);
        for (i, a) in rects.iter().enumerate() {
            for b in &rects[i + 1..] {
                assert!(a.intersect(b).is_empty(), "{a:?} overlaps {b:?}");
            }
        }
    }

    #[test]
    fn cover_rects_empty_input() {
        let img = Image::blank(16, 16);
        assert!(cover_rects(&img, &img.full_rect(), MAX_RECTS).is_empty());
    }

    #[test]
    fn bsmr_matches_reference() {
        for p in [2, 4, 8, 16] {
            check_against_reference(Method::Bsmr, p, 32, 24, &DepthOrder::identity(p));
        }
    }

    #[test]
    fn bsmr_matches_reference_shuffled_and_non_pow2() {
        let depth = DepthOrder::from_sequence(vec![4, 1, 5, 0, 2, 3]);
        check_against_reference(Method::Bsmr, 6, 28, 20, &depth);
        for p in [3, 5, 7] {
            check_against_reference(Method::Bsmr, p, 24, 24, &DepthOrder::identity(p));
        }
    }

    #[test]
    fn bsmr_beats_bsbr_on_corner_clusters() {
        let p = 2;
        let depth = DepthOrder::identity(p);
        let images: Vec<Image> = (0..p)
            .map(|_| {
                let mut img = Image::blank(64, 64);
                // Two separated clusters, both inside the right half that
                // rank 0 sends at stage 0.
                for d in 0..4u16 {
                    for e in 0..4u16 {
                        img.set(40 + d, 2 + e, Pixel::gray(0.5, 0.5));
                        img.set(58 + d, 58 + e, Pixel::gray(0.5, 0.5));
                    }
                }
                img
            })
            .collect();
        let sent = |m: Method| {
            run_group(p, CostModel::free(), |ep| {
                let mut img = images[ep.rank()].clone();
                crate::methods::composite(m, ep, &mut img, &depth)
                    .unwrap()
                    .stats
                    .sent_bytes()
            })
            .results[0]
        };
        let bsmr = sent(Method::Bsmr);
        let bsbr = sent(Method::Bsbr);
        assert!(
            bsmr * 4 < bsbr,
            "BSMR {bsmr} should crush BSBR {bsbr} on corner clusters"
        );
    }

    #[test]
    fn bsmr_stage_counters_are_sane() {
        let p = 8;
        let images = test_images(p, 32, 32);
        let depth = DepthOrder::identity(p);
        let out = run_group(p, CostModel::free(), |ep| {
            let mut img = images[ep.rank()].clone();
            run(ep, &mut img, &depth).unwrap().stats
        });
        for stats in &out.results {
            assert_eq!(stats.stages.len(), 3);
            for s in &stats.stages {
                assert!(s.run_codes as usize <= MAX_RECTS);
                assert!(s.sent_bytes >= 4);
            }
        }
    }
}
