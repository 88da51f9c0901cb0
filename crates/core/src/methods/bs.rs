//! Plain binary-swap compositing (Ma et al. 1994) — Section 3.1.
//!
//! At stage `k`, paired processors exchange complementary halves of their
//! current region as **full frames** — every pixel travels, blank or not
//! — and composite the received half with the half they keep. After
//! `log P` stages each processor owns `A/P` pixels of the final image.
//!
//! Per-stage bytes: `16 · A/2^k` exactly (Equation (2)); there is no
//! header because the receiver derives the region from the shared
//! schedule.

use vr_comm::Endpoint;
use vr_image::Image;
use vr_volume::DepthOrder;

use crate::error::{try_exchange, CompositeError};
use crate::schedule::{fold_into_pow2, tags, FoldOutcome, RegionSplitter, VirtualTopology};
use crate::stats::StageStat;
use crate::wire::{MsgReader, MsgWriter};

use super::{CompositeResult, OwnedPiece, Run};

/// Runs plain binary swap. See the module docs.
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

    let mut splitter = RegionSplitter::new(image.full_rect());
    for stage in 0..topo.stages() {
        let vpartner = topo.partner(stage);
        let partner = topo.real(vpartner);
        let (keep, send) = splitter.split(stage, topo.keeps_low(stage));

        let payload = run.comp.time(|| {
            let mut w = MsgWriter::with_capacity(send.area() * vr_image::BYTES_PER_PIXEL);
            w.put_image_rect(image, &send);
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
            "BS stage",
        )?;

        if let Some(received) = received {
            stat.recv_bytes = received.len() as u64;
            stat.recv_msgs = 1;
            run.comp.time(|| {
                let wire = MsgReader::new(received).take_pixels(keep.area());
                stat.composite_ops = if topo.received_is_front(vpartner) {
                    image.composite_rect_over_wire(&keep, &wire) as u64
                } else {
                    image.composite_rect_under_wire(&keep, &wire) as u64
                };
            });
        }
        run.stages.push(stat);
    }

    Ok(run.finish(ep, OwnedPiece::Rect(splitter.region())))
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{check_against_reference, test_images};
    use super::*;
    use vr_comm::{run_group, CostModel};
    use vr_image::Rect;

    #[test]
    fn bs_matches_reference_pow2() {
        for p in [2, 4, 8] {
            check_against_reference(
                crate::methods::Method::Bs,
                p,
                32,
                24,
                &DepthOrder::identity(p),
            );
        }
    }

    #[test]
    fn bs_matches_reference_shuffled_depth() {
        let depth = DepthOrder::from_sequence(vec![3, 1, 0, 2]);
        check_against_reference(crate::methods::Method::Bs, 4, 20, 20, &depth);
    }

    #[test]
    fn bs_matches_reference_non_pow2() {
        for p in [3, 5, 6, 7] {
            check_against_reference(
                crate::methods::Method::Bs,
                p,
                24,
                24,
                &DepthOrder::identity(p),
            );
        }
    }

    #[test]
    fn bs_single_rank_is_identity() {
        let images = test_images(1, 16, 16);
        let out = run_group(1, CostModel::free(), |ep| {
            let mut img = images[0].clone();
            let res = run(ep, &mut img, &DepthOrder::identity(1)).unwrap();
            assert_eq!(res.piece, OwnedPiece::Rect(Rect::new(0, 0, 16, 16)));
            img
        });
        assert_eq!(out.results[0], images[0]);
    }

    #[test]
    fn bs_bytes_match_equation_2() {
        // Equation (2): stage k transfers 16 · A/2^k bytes per processor.
        let p = 8;
        let (w, h) = (32u16, 32u16);
        let a = w as u64 * h as u64;
        let images = test_images(p, w, h);
        let depth = DepthOrder::identity(p);
        let out = run_group(p, CostModel::free(), |ep| {
            let mut img = images[ep.rank()].clone();
            run(ep, &mut img, &depth).unwrap().stats
        });
        for stats in &out.results {
            assert_eq!(stats.stages.len(), 3);
            for (k, stage) in stats.stages.iter().enumerate() {
                let expected = 16 * a / 2u64.pow(k as u32 + 1);
                assert_eq!(stage.sent_bytes, expected, "stage {k}");
                assert_eq!(stage.recv_bytes, expected, "stage {k}");
            }
        }
    }

    #[test]
    fn bs_final_regions_partition_image() {
        let p = 8;
        let images = test_images(p, 32, 32);
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
        assert_eq!(total, 32 * 32);
    }
}
