//! Binary-swap with bounding rectangle *and* run-length encoding (BSBRC)
//! — Section 3.4, the paper's best method.
//!
//! BSBRC fixes both parents' weaknesses: unlike BSLC it only iterates
//! (and encodes) the pixels inside the sending half's bounding rectangle
//! (`T_encode · A_send^k`, Equation (7)); unlike BSBR it ships only the
//! non-blank pixels inside that rectangle (8-byte header + 2-byte run
//! codes + 16-byte pixels, Equation (8)).

use vr_comm::Endpoint;
use vr_image::{kernel, Image, MaskRle, RunSet};
use vr_volume::DepthOrder;

use crate::error::{try_exchange, CompositeError};
use crate::schedule::{fold_into_pow2, tags, FoldOutcome, RegionSplitter, VirtualTopology};
use crate::stats::StageStat;
use crate::wire::{MsgReader, MsgWriter};

use super::{CompositeResult, OwnedPiece, Run};

/// Runs BSBRC. See the module docs.
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

    // Algorithm lines 2–4: the single O(A) scan for the local bounding
    // rectangle.
    run.bound_pixels += image.area() as u64;
    let mut local_bounds = run.bound.time(|| image.bounding_rect());

    let mut splitter = RegionSplitter::new(image.full_rect());
    // Reused across stages: the send-rect run table and its wire codes.
    let mut send_set = RunSet::new();
    let mut codes_buf: Vec<u16> = Vec::new();
    for stage in 0..topo.stages() {
        let vpartner = topo.partner(stage);
        let partner = topo.real(vpartner);
        // Line 6: the subimage centerline divides the local bounding
        // rectangle into new-local and sending bounding rectangles.
        let (keep, send) = splitter.split(stage, topo.keeps_low(stage));
        let send_bounds = local_bounds.intersect(&send);
        let keep_bounds = local_bounds.intersect(&keep);

        // Lines 7–12: RLE over the sending bounding rectangle only: one
        // branchless run scan per rect row (positions rect-relative, the
        // same row-major order `encode_mask` walks, so the canonical
        // codes are bit-identical). The scan fixes the payload's exact
        // size, so the writer is allocated once; runs are decomposed into
        // row segments and each segment's pixels go from the image row
        // straight into the payload.
        let send_set = &mut send_set;
        let codes_buf = &mut codes_buf;
        let (payload, ncodes) = run.encode.time(|| {
            if send_bounds.is_empty() {
                let mut w = MsgWriter::with_capacity(8);
                w.put_rect(send_bounds);
                return (w.freeze(), 0);
            }
            let row_w = send_bounds.width() as usize;
            send_set.clear();
            for y in send_bounds.y0..send_bounds.y1 {
                let base = (y - send_bounds.y0) as usize * row_w;
                let row = image.row_span(send_bounds.x0, y, row_w);
                kernel::scan_runs_into(row, base, send_set);
            }
            send_set.encode_codes_into(send_bounds.area(), codes_buf);
            let mut w = MsgWriter::with_capacity(
                8 + 4
                    + codes_buf.len() * vr_image::BYTES_PER_RUN_CODE
                    + send_set.non_blank_total() * vr_image::BYTES_PER_PIXEL,
            );
            w.put_rect(send_bounds);
            w.put_u32(codes_buf.len() as u32);
            w.put_codes(codes_buf);
            for &(start, len) in send_set.runs() {
                let (mut pos, mut rem) = (start, len);
                while rem > 0 {
                    let col = pos % row_w;
                    let seg = rem.min(row_w - col);
                    let x = send_bounds.x0 + col as u16;
                    let y = send_bounds.y0 + (pos / row_w) as u16;
                    w.put_pixels(image.row_span(x, y, seg));
                    pos += seg;
                    rem -= seg;
                }
            }
            (w.freeze(), codes_buf.len() as u64)
        });
        let mut stat = StageStat {
            sent_bytes: payload.len() as u64,
            sent_msgs: 1,
            encoded_pixels: send_bounds.area() as u64,
            run_codes: ncodes,
            ..Default::default()
        };

        // Lines 13–14: the exchange (always happens; an empty rectangle
        // is an 8-byte header). A dead partner contributes nothing.
        stat.peer = Some(partner as u16);
        let received = try_exchange(
            ep,
            partner,
            tags::STAGE_BASE + stage as u32,
            payload,
            &mut run.dead,
            "BSBRC stage",
        )?;

        // Lines 15–20: composite only the non-blank pixels, straight
        // from their wire bytes: each run is merged row segment by row
        // segment through the wire-form slice kernels — the same `over`
        // arithmetic in the same left-to-right order as the scalar loop,
        // so the output is bit-identical.
        let recv_rect = if let Some(received) = received {
            stat.recv_bytes = received.len() as u64;
            stat.recv_msgs = 1;
            run.comp.time(|| {
                let mut r = MsgReader::new(received);
                let rect = r.get_rect();
                stat.recv_rect_empty = rect.is_empty();
                if !rect.is_empty() {
                    debug_assert!(keep.contains_rect(&rect));
                    let ncodes = r.get_u32() as usize;
                    let rle = MaskRle::from_codes(r.get_codes(ncodes));
                    let wire = r.take_pixels(rle.non_blank_total());
                    let front = topo.received_is_front(vpartner);
                    let row_w = rect.width() as usize;
                    let mut ops = 0u64;
                    let mut src = 0usize;
                    for (start, len) in rle.non_blank_runs() {
                        let (mut pos, mut rem) = (start, len);
                        while rem > 0 {
                            let col = pos % row_w;
                            let seg = rem.min(row_w - col);
                            let x = rect.x0 + col as u16;
                            let y = rect.y0 + (pos / row_w) as u16;
                            let incoming = &wire[src..src + seg * vr_image::BYTES_PER_PIXEL];
                            let local = image.row_span_mut(x, y, seg);
                            if front {
                                kernel::over_slice_wire(incoming, local);
                            } else {
                                kernel::under_slice_wire(local, incoming);
                            }
                            src += incoming.len();
                            pos += seg;
                            rem -= seg;
                        }
                        ops += len as u64;
                    }
                    stat.composite_ops = ops;
                }
                rect
            })
        } else {
            stat.recv_rect_empty = true;
            vr_image::Rect::EMPTY
        };
        // Line 21: merge rectangles for the next stage.
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
    use vr_image::Pixel;

    #[test]
    fn bsbrc_matches_reference_pow2() {
        for p in [2, 4, 8, 16, 32] {
            check_against_reference(Method::Bsbrc, p, 32, 24, &DepthOrder::identity(p));
        }
    }

    #[test]
    fn bsbrc_matches_reference_shuffled_depth() {
        let depth = DepthOrder::from_sequence(vec![7, 3, 5, 1, 6, 2, 4, 0]);
        check_against_reference(Method::Bsbrc, 8, 40, 32, &depth);
    }

    #[test]
    fn bsbrc_matches_reference_non_pow2() {
        for p in [3, 5, 6, 7, 12] {
            check_against_reference(Method::Bsbrc, p, 24, 24, &DepthOrder::identity(p));
        }
    }

    #[test]
    fn bsbrc_never_sends_more_pixels_than_bsbr() {
        // BSBRC payload = header + codes + non-blank pixels; BSBR payload
        // = header + all rect pixels. On any input the non-blank pixel
        // bytes are a subset; codes may add a little, but for sparse
        // rects BSBRC must win clearly.
        let p = 8;
        let images = test_images(p, 48, 48);
        let depth = DepthOrder::identity(p);
        let total = |m: Method| {
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
        let bsbr = total(Method::Bsbr);
        let bsbrc = total(Method::Bsbrc);
        assert!(
            bsbrc < bsbr,
            "BSBRC {bsbrc} should undercut BSBR {bsbr} on sparse images"
        );
    }

    #[test]
    fn bsbrc_encodes_fewer_pixels_than_bslc() {
        // Equation (7) vs (5): BSBRC encodes A_send^k ≤ A/2^k.
        let p = 8;
        let images = test_images(p, 48, 48);
        let depth = DepthOrder::identity(p);
        let encoded = |m: Method| {
            run_group(p, CostModel::free(), |ep| {
                let mut img = images[ep.rank()].clone();
                let stats = crate::methods::composite(m, ep, &mut img, &depth)
                    .unwrap()
                    .stats;
                stats.stages.iter().map(|s| s.encoded_pixels).sum::<u64>()
            })
            .results
            .iter()
            .sum::<u64>()
        };
        let bslc = encoded(Method::Bslc);
        let bsbrc = encoded(Method::Bsbrc);
        assert!(bsbrc <= bslc, "BSBRC encodes {bsbrc} > BSLC {bslc}");
    }

    #[test]
    fn bsbrc_empty_rect_is_header_only() {
        let p = 2;
        let depth = DepthOrder::identity(p);
        let out = run_group(p, CostModel::free(), |ep| {
            let mut img = Image::blank(16, 16);
            run(ep, &mut img, &depth).unwrap().stats
        });
        for stats in &out.results {
            assert_eq!(stats.stages[0].sent_bytes, 8);
            assert!(stats.stages[0].recv_rect_empty);
            assert_eq!(stats.stages[0].composite_ops, 0);
        }
    }

    #[test]
    fn bsbrc_composite_ops_equal_non_blank_received() {
        // Ops must equal the number of non-blank pixels received, never
        // the rect area (the BSBR behaviour).
        let p = 2;
        let (w, h) = (32u16, 32u16);
        let depth = DepthOrder::identity(p);
        let out = run_group(p, CostModel::free(), |ep| {
            let mut img = Image::blank(w, h);
            if ep.rank() == 1 {
                // Two distant pixels in the half that will be sent: wide
                // rect, only 2 non-blank pixels.
                img.set(2, 2, Pixel::gray(0.5, 0.5));
                img.set(13, 29, Pixel::gray(0.5, 0.5));
            }
            run(ep, &mut img, &depth).unwrap().stats
        });
        // Rank 0 keeps the left half at stage 0 and receives rank 1's
        // left-half content.
        let ops_stage0 = out.results[0].stages[0].composite_ops;
        assert_eq!(ops_stage0, 2, "must composite exactly the non-blank pixels");
    }
}
