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
use vr_image::{Image, Pixel};
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

/// A travelling partial: the behind-segment accumulator `a` and, once
/// the chain has wrapped past position 0, the front-segment `b`.
type Travelling = (Vec<Pixel>, Option<Vec<Pixel>>);

/// Parses one ring message: `None` for the [`NO_BAND`] marker, else the
/// accumulators of band `expect` — its id, its flag, `area` pixels per
/// accumulator and nothing after them.
fn read_band(payload: Bytes, expect: usize, area: usize) -> Checked<Option<Travelling>> {
    let mut r = MsgReader::new(payload);
    let got = r.get_u32()?;
    if got == NO_BAND {
        r.finish()?;
        return Ok(None);
    }
    Malformed::unless(got as usize == expect)?;
    let has_b = r.get_u32()?;
    Malformed::unless(has_b <= 1)?;
    let a = r.get_pixels(area)?;
    let b = (has_b == 1).then(|| r.get_pixels(area)).transpose()?;
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
    // behind-segment accumulator `a`. `have_band` goes false when the
    // chain through us is severed by a dead upstream rank.
    let mut band_id = (j + p - 1) % p;
    let mut have_band = true;
    let mut a_buf = {
        let band = band_rect(image.width(), image.height(), band_id, p);
        run.comp.time(|| image.extract_rect(&band))
    };
    let mut b_buf: Option<Vec<Pixel>> = None;

    for t in 0..p - 1 {
        let tag = tags::PIPE_BASE + t as u32;
        let payload = run.comp.time(|| {
            if !have_band {
                let mut w = MsgWriter::with_capacity(4);
                w.put_u32(NO_BAND);
                return w.freeze();
            }
            let band = band_rect(image.width(), image.height(), band_id, p);
            let mut w = MsgWriter::with_capacity(
                8 + (1 + b_buf.is_some() as usize) * band.area() * vr_image::BYTES_PER_PIXEL,
            );
            w.put_u32(band_id as u32);
            w.put_u32(b_buf.is_some() as u32);
            w.put_pixels(&a_buf);
            if let Some(b) = &b_buf {
                w.put_pixels(b);
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
            None => {
                // Dead upstream: the travelling chains are lost from here
                // on; keep pumping NO_BAND markers so downstream survives.
                have_band = false;
                b_buf = None;
            }
            Some(received) => {
                stat.recv_bytes = received.len() as u64;
                stat.recv_msgs = 1;
                // After `t` hops the upstream neighbour forwards band
                // `j − 2 − t`: anything else in the header is damage.
                let expect = (j + 2 * p - 2 - t) % p;
                let band = band_rect(image.width(), image.height(), expect, p);
                let merged: Checked<()> = run.comp.time(|| {
                    let Some((a, b)) = read_band(received, expect, band.area())? else {
                        have_band = false;
                        b_buf = None;
                        return Ok(());
                    };
                    have_band = true;
                    band_id = expect;
                    a_buf = a;
                    b_buf = b;

                    // Composite our own contribution for this band. The band
                    // started at position s = (band_id+1) mod P; if our position
                    // has not wrapped past 0 relative to s we extend the behind
                    // segment `a`, otherwise the front segment `b`.
                    let s = (band_id + 1) % p;
                    let mine = image.extract_rect(&band);
                    let mut ops = 0u64;
                    if s <= j {
                        // Behind segment: `a` holds [s..j−1] front-to-back; we
                        // are behind them.
                        for (acc, m) in a_buf.iter_mut().zip(&mine) {
                            *acc = acc.over(*m);
                            ops += 1;
                        }
                    } else {
                        // Front segment (wrapped): `b` holds [0..j−1]; we are
                        // behind them but in front of everything in `a`.
                        match &mut b_buf {
                            Some(b) => {
                                for (acc, m) in b.iter_mut().zip(&mine) {
                                    *acc = acc.over(*m);
                                    ops += 1;
                                }
                            }
                            None => {
                                b_buf = Some(mine);
                            }
                        }
                    }
                    stat.composite_ops = ops;
                    Ok(())
                });
                merged.map_err(|m| m.at("pipeline recv", prev))?;
            }
        }
        run.stages.push(stat);
    }

    if have_band && band_id == j {
        // Healthy finish: after P−1 hops we hold our own band; merge the
        // two segments.
        run.comp.time(|| {
            if let Some(b) = b_buf.take() {
                for (front, back) in b.iter().zip(a_buf.iter_mut()) {
                    *back = front.over(*back);
                }
            }
            image.write_rect(&my_band, &a_buf);
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
