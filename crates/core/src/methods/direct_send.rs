//! Buffered direct-send compositing — the Hsu / Neumann related-work
//! baseline (the "buffered case" of Section 2).
//!
//! Every virtual rank statically owns one horizontal band of the final
//! image. Each rank sends, to every other rank, the dense pixels of that
//! rank's band — `P−1` sends and `P−1` receives per rank, all at once —
//! then folds the `P` contributions for its own band front-to-back.

use vr_comm::Endpoint;
use vr_image::{kernel, Image, Pixel};
use vr_volume::DepthOrder;

use crate::error::{try_recv, try_send, CompositeError, Malformed};
use crate::schedule::{tags, VirtualTopology};
use crate::stats::StageStat;
use crate::wire::{MsgReader, MsgWriter};

use super::{band_rect, CompositeResult, OwnedPiece, Run};

/// Runs direct-send compositing (any `P ≥ 1`).
pub fn run(
    ep: &mut Endpoint,
    image: &mut Image,
    depth: &DepthOrder,
) -> Result<CompositeResult, CompositeError> {
    let mut run = Run::begin(ep);
    let topo = VirtualTopology::from_depth(ep.rank(), depth);
    let v = topo.vrank();
    let p = topo.vsize();
    let my_band = band_rect(image.width(), image.height(), v, p);

    if p == 1 {
        return Ok(run.finish(ep, OwnedPiece::Rect(my_band)));
    }

    // Send every other rank its band from our subimage.
    let mut stat = StageStat::default();
    for dst in 0..p {
        if dst == v {
            continue;
        }
        let band = band_rect(image.width(), image.height(), dst, p);
        let payload = run.comp.time(|| {
            let mut w = MsgWriter::with_capacity(band.area() * vr_image::BYTES_PER_PIXEL);
            w.put_image_rect(image, &band);
            w.freeze()
        });
        let len = payload.len() as u64;
        if try_send(
            ep,
            topo.real(dst),
            tags::DIRECT,
            payload,
            &mut run.dead,
            "direct send",
        )? {
            stat.sent_bytes += len;
            stat.sent_msgs += 1;
        }
    }

    // Fold the P contributions for our band front-to-back, in virtual
    // rank order, each as it arrives: `acc` holds everything in front so
    // far, ours joins at position `v`, an arrival is composited from its
    // wire bytes and a dead contributor is simply skipped.
    let area = my_band.area();
    let width = my_band.width() as usize;
    let mut acc = vec![Pixel::BLANK; area];
    for src in 0..p {
        if src == v {
            run.comp.time(|| {
                for (row, y) in (my_band.y0..my_band.y1).enumerate() {
                    let own = image.row_span(my_band.x0, y, width);
                    kernel::under_slice(&mut acc[row * width..][..width], own);
                }
            });
            stat.composite_ops += area as u64;
            continue;
        }
        let Some(received) = try_recv(
            ep,
            topo.real(src),
            tags::DIRECT,
            &mut run.dead,
            "direct recv",
        )?
        else {
            continue;
        };
        stat.recv_bytes += received.len() as u64;
        stat.recv_msgs += 1;
        // The payload is the band's pixels and nothing else.
        run.comp
            .time(|| {
                let mut r = MsgReader::new(received);
                let wire = r.take_pixels(area)?;
                r.finish()?;
                kernel::under_slice_wire(&mut acc, &wire);
                Ok(())
            })
            .map_err(|m: Malformed| m.at("direct recv", topo.real(src)))?;
        stat.composite_ops += area as u64;
    }
    run.comp.time(|| image.write_rect(&my_band, &acc));

    run.stages.push(stat);
    Ok(run.finish(ep, OwnedPiece::Rect(my_band)))
}

#[cfg(test)]
mod tests {
    use super::super::testutil::check_against_reference;
    use super::*;
    use crate::methods::Method;
    use vr_comm::{run_group, CostModel};

    #[test]
    fn direct_send_matches_reference() {
        for p in [2, 3, 4, 7, 8] {
            check_against_reference(Method::DirectSend, p, 24, 24, &DepthOrder::identity(p));
        }
    }

    #[test]
    fn direct_send_matches_reference_shuffled_depth() {
        let depth = DepthOrder::from_sequence(vec![4, 2, 0, 3, 1]);
        check_against_reference(Method::DirectSend, 5, 25, 30, &depth);
    }

    #[test]
    fn each_rank_sends_p_minus_1_messages() {
        let p = 6;
        let depth = DepthOrder::identity(p);
        let out = run_group(p, CostModel::free(), |ep| {
            let mut img = Image::blank(12, 12);
            let _ = run(ep, &mut img, &depth);
            (ep.stats().sent_messages, ep.stats().recv_messages)
        });
        for &(sent, recvd) in &out.results {
            // P−1 direct sends (+ gather happens outside this test).
            assert_eq!(sent, (p - 1) as u64);
            assert_eq!(recvd, (p - 1) as u64);
        }
    }

    #[test]
    fn a_band_of_the_wrong_length_is_malformed_not_a_panic() {
        // No header to damage, so a bit flip cannot shorten this payload;
        // a peer that sends one pixel too few stands in for truncation.
        let depth = DepthOrder::identity(2);
        let out = run_group(2, CostModel::free(), |ep| {
            if ep.rank() == 1 {
                let short = vec![0u8; (8 * 4 - 1) * vr_image::BYTES_PER_PIXEL];
                ep.send(0, tags::DIRECT, short.into()).unwrap();
                ep.recv(0, tags::DIRECT).unwrap();
                return None;
            }
            run(ep, &mut Image::blank(8, 8), &depth).err()
        });
        assert_eq!(
            out.results[0],
            Some(CompositeError::Malformed {
                during: "direct recv",
                from: 1
            })
        );
    }

    #[test]
    fn bands_are_owned_by_virtual_rank() {
        let depth = DepthOrder::from_sequence(vec![1, 0]);
        let out = run_group(2, CostModel::free(), |ep| {
            let mut img = Image::blank(8, 8);
            run(ep, &mut img, &depth).unwrap().piece
        });
        // Real rank 1 is virtual 0 → top band; real rank 0 → bottom.
        assert_eq!(
            out.results[1],
            OwnedPiece::Rect(vr_image::Rect::new(0, 0, 8, 4))
        );
        assert_eq!(
            out.results[0],
            OwnedPiece::Rect(vr_image::Rect::new(0, 4, 8, 8))
        );
    }
}
