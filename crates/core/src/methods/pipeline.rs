//! Parallel-pipeline compositing over a depth-ordered ring — adapted
//! from Lee et al.'s scheme (Section 2, the "sequenced case").
//!
//! The image is split into `P` bands. Band `b`'s partial starts at ring
//! position `(b+1) mod P`, travels once around the depth-ordered ring
//! and finishes — complete — at position `b`, each visitor compositing
//! its own band contribution en route. Lee's original merges z-buffered
//! polygon pixels (commutative), so ring direction is irrelevant there;
//! `over` is order-sensitive, so each travelling partial carries **two**
//! accumulation buffers: `a` for contributors behind the wrap point and
//! `b` for contributors in front of it, merged (`b over a`) at the final
//! stop. This keeps every accumulation depth-contiguous.

use bytes::Bytes;
use vr_comm::Endpoint;
use vr_image::{kernel, Image, Pixel};
use vr_volume::DepthOrder;

use crate::error::{try_recv, try_send, Checked, CompositeError, Malformed};
use crate::schedule::{tags, VirtualTopology};
use crate::stats::StageStat;
use crate::wire::{MsgReader, MsgWriter};

use super::{band_rect, CompositeResult, OwnedPiece, Run};

/// Wire marker for "no band": the sender's upstream died, so the chain
/// that should occupy this ring slot is lost. Forwarding the marker
/// keeps the ring in lockstep so downstream ranks never stall.
const NO_BAND: u32 = u32::MAX;

/// One accumulator of a travelling partial. A visitor composites its
/// own contribution into exactly one of the two, in its staging buffer;
/// the other it forwards as the bytes it arrived in.
enum Acc {
    /// Untouched by this rank: a view of the received payload.
    Wire(Bytes),
    /// In this rank's staging buffer.
    Staged,
}

/// A travelling partial: the behind-segment accumulator `a` and, once
/// the chain has wrapped past position 0, the front-segment `b`.
type Travelling = (Acc, Option<Acc>);

/// Parses one ring message: `None` for the [`NO_BAND`] marker, else the
/// accumulators of band `expect`, undecoded — its id, its flag, `area`
/// pixels per accumulator and nothing after them.
fn read_band(
    payload: Bytes,
    expect: usize,
    area: usize,
) -> Checked<Option<(Bytes, Option<Bytes>)>> {
    let mut r = MsgReader::new(payload);
    let got = r.get_u32()?;
    if got == NO_BAND {
        r.finish()?;
        return Ok(None);
    }
    Malformed::unless(got as usize == expect)?;
    let has_b = r.get_u32()?;
    Malformed::unless(has_b <= 1)?;
    let a = r.take_pixels(area)?;
    let b = (has_b == 1).then(|| r.take_pixels(area)).transpose()?;
    r.finish()?;
    Ok(Some((a, b)))
}

/// Runs parallel-pipeline compositing (any `P ≥ 1`).
pub fn run(
    ep: &mut Endpoint,
    image: &mut Image,
    depth: &DepthOrder,
) -> Result<CompositeResult, CompositeError> {
    let mut run = Run::begin(ep);
    let topo = VirtualTopology::from_depth(ep.rank(), depth);
    let j = topo.vrank();
    let p = topo.vsize();
    let my_band = band_rect(image.width(), image.height(), j, p);

    if p == 1 {
        return Ok(run.finish(ep, OwnedPiece::Rect(my_band)));
    }

    let next = topo.real((j + 1) % p);
    let prev = topo.real((j + p - 1) % p);

    // We start band (j−1) mod P: our own contribution seeds the
    // behind-segment accumulator `a`. `travelling` goes `None` when the
    // chain through us is severed by a dead upstream rank. `stage` is
    // the one staging buffer, refilled at every hop.
    let mut band_id = (j + p - 1) % p;
    let mut stage: Vec<Pixel> = Vec::new();
    run.comp.time(|| {
        let band = band_rect(image.width(), image.height(), band_id, p);
        image.extract_rect_into(&band, &mut stage);
    });
    let mut travelling: Option<Travelling> = Some((Acc::Staged, None));

    for t in 0..p - 1 {
        let tag = tags::PIPE_BASE + t as u32;
        let payload = run.comp.time(|| {
            let Some((a, b)) = &travelling else {
                let mut w = MsgWriter::with_capacity(4);
                w.put_u32(NO_BAND);
                return w.freeze();
            };
            let mut w = MsgWriter::with_capacity(
                8 + (1 + b.is_some() as usize) * stage.len() * vr_image::BYTES_PER_PIXEL,
            );
            w.put_u32(band_id as u32);
            w.put_u32(b.is_some() as u32);
            for acc in std::iter::once(a).chain(b) {
                match acc {
                    Acc::Wire(bytes) => w.put_bytes(bytes),
                    Acc::Staged => w.put_pixels(&stage),
                }
            }
            w.freeze()
        });
        let mut stat = StageStat::default();
        let len = payload.len() as u64;
        if try_send(ep, next, tag, payload, &mut run.dead, "pipeline send")? {
            stat.sent_bytes = len;
            stat.sent_msgs = 1;
        }

        match try_recv(ep, prev, tag, &mut run.dead, "pipeline recv")? {
            // Dead upstream: the travelling chains are lost from here
            // on; keep pumping NO_BAND markers so downstream survives.
            None => travelling = None,
            Some(received) => {
                stat.recv_bytes = received.len() as u64;
                stat.recv_msgs = 1;
                // After `t` hops the upstream neighbour forwards band
                // `j − 2 − t`: anything else in the header is damage.
                let expect = (j + 2 * p - 2 - t) % p;
                let band = band_rect(image.width(), image.height(), expect, p);
                let merged: Checked<()> = run.comp.time(|| {
                    let Some((a, b)) = read_band(received, expect, band.area())? else {
                        travelling = None;
                        return Ok(());
                    };
                    band_id = expect;

                    // Composite our own contribution for this band. The band
                    // started at position s = (band_id+1) mod P; if our position
                    // has not wrapped past 0 relative to s we extend the behind
                    // segment `a`, otherwise the front segment `b`.
                    let s = (band_id + 1) % p;
                    image.extract_rect_into(&band, &mut stage);
                    travelling = Some(if s <= j {
                        // Behind segment: `a` holds [s..j−1] front-to-back; we
                        // are behind them.
                        kernel::over_slice_wire(&a, &mut stage);
                        stat.composite_ops = band.area() as u64;
                        (Acc::Staged, b.map(Acc::Wire))
                    } else {
                        // Front segment (wrapped): `b` holds [0..j−1]; we are
                        // behind them but in front of everything in `a`. The
                        // first to wrap starts `b` with its own contribution.
                        if let Some(b) = &b {
                            kernel::over_slice_wire(b, &mut stage);
                            stat.composite_ops = band.area() as u64;
                        }
                        (Acc::Wire(a), Some(Acc::Staged))
                    });
                    Ok(())
                });
                merged.map_err(|m| m.at("pipeline recv", prev))?;
            }
        }
        run.stages.push(stat);
    }

    if let Some((a, b)) = travelling.as_ref().filter(|_| band_id == j) {
        // Healthy finish: after P−1 hops we hold our own band; merge the
        // two segments, `b` over `a`.
        run.comp.time(|| {
            match a {
                Acc::Wire(bytes) => image.write_rect_wire(&my_band, bytes),
                Acc::Staged => image.write_rect(&my_band, &stage),
            }
            match b {
                Some(Acc::Wire(bytes)) => drop(image.composite_rect_over_wire(&my_band, bytes)),
                Some(Acc::Staged) => drop(image.composite_rect_over(&my_band, &stage)),
                None => {}
            }
        });
    }
    // Degraded finish: our band's travelling partial was lost with a dead
    // rank. The image buffer still holds our own rendering of `my_band`,
    // so the owned piece degrades to this rank's own contribution.

    Ok(run.finish(ep, OwnedPiece::Rect(my_band)))
}

#[cfg(test)]
mod tests {
    use super::super::testutil::check_against_reference;
    use super::*;
    use crate::methods::Method;
    use vr_comm::{run_group, CostModel};

    #[test]
    fn pipeline_matches_reference() {
        for p in [2, 3, 4, 5, 8] {
            check_against_reference(Method::Pipeline, p, 24, 24, &DepthOrder::identity(p));
        }
    }

    #[test]
    fn pipeline_matches_reference_shuffled_depth() {
        let depth = DepthOrder::from_sequence(vec![3, 0, 4, 1, 5, 2]);
        check_against_reference(Method::Pipeline, 6, 30, 24, &depth);
    }

    #[test]
    fn pipeline_runs_p_minus_1_hops() {
        let p = 5;
        let depth = DepthOrder::identity(p);
        let out = run_group(p, CostModel::free(), |ep| {
            let mut img = Image::blank(10, 10);
            run(ep, &mut img, &depth).unwrap().stats.stages.len()
        });
        assert!(out.results.iter().all(|&hops| hops == p - 1));
    }

    #[test]
    fn pipeline_single_rank_trivial() {
        let out = run_group(1, CostModel::free(), |ep| {
            let mut img = Image::blank(8, 8);
            img.set(1, 1, Pixel::gray(0.5, 0.5));
            let res = run(ep, &mut img, &DepthOrder::identity(1)).unwrap();
            (res.piece, img.get(1, 1))
        });
        let (piece, px) = &out.results[0];
        assert_eq!(*piece, OwnedPiece::Rect(vr_image::Rect::new(0, 0, 8, 8)));
        assert_eq!(*px, Pixel::gray(0.5, 0.5));
    }
}
