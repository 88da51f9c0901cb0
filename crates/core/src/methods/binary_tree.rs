//! Binary-tree compositing over value-RLE compressed images — the
//! Ahrens & Painter related-work baseline.
//!
//! At stage `k` every active virtual rank with bit `k` set sends its
//! entire (compressed) partial image to the partner `2^k` positions in
//! front of it, then retires; the receiver composites **in the
//! compressed domain** (run-aligned `over`, Section 2). After
//! `⌈log P⌉` stages virtual rank 0 holds the full image.
//!
//! The compression is the *value* run-length encoding (equal consecutive
//! pixel values collapse, 18 bytes per run). The paper's Section 3.3
//! argues this degenerates for float volume pixels; the `encoding`
//! ablation bench quantifies the gap against mask RLE.

use bytes::Bytes;
use vr_comm::Endpoint;
use vr_image::rle::{ValueRle, ValueRun};
use vr_image::Image;
use vr_volume::DepthOrder;

use crate::error::{try_recv, try_send, Checked, CompositeError, Malformed};
use crate::schedule::{tags, VirtualTopology};
use crate::stats::StageStat;
use crate::wire::{MsgReader, MsgWriter};

use super::{CompositeResult, OwnedPiece, Run};

/// Wire bytes of one value run: the pixel and its 2-byte count.
const BYTES_PER_RUN: usize = vr_image::BYTES_PER_PIXEL + vr_image::BYTES_PER_RUN_CODE;

/// Parses a compressed partial image: a run count that matches the
/// bytes that arrived, and runs that describe exactly `area` pixels.
fn read_stream(payload: Bytes, area: usize) -> Checked<ValueRle> {
    let mut r = MsgReader::new(payload);
    let nruns = r.get_u32()? as usize;
    Malformed::unless(nruns.checked_mul(BYTES_PER_RUN) == Some(r.remaining()))?;
    let mut runs = Vec::with_capacity(nruns);
    for _ in 0..nruns {
        let pixel = r.get_pixel()?;
        let count = r.get_code()?;
        runs.push(ValueRun { pixel, count });
    }
    let stream = ValueRle::from_runs(runs);
    Malformed::unless(stream.total_len() == area)?;
    Ok(stream)
}

/// Runs binary-tree compositing (works for any `P ≥ 1`).
pub fn run(
    ep: &mut Endpoint,
    image: &mut Image,
    depth: &DepthOrder,
) -> Result<CompositeResult, CompositeError> {
    let mut run = Run::begin(ep);
    let topo = VirtualTopology::from_depth(ep.rank(), depth);
    let v = topo.vrank();
    let p = topo.vsize();

    // Compress the local subimage once up front.
    run.pre_encoded_pixels += image.area() as u64;
    let mut stream = run.encode.time(|| ValueRle::encode(image.pixels().iter()));

    let mut stage = 0usize;
    while (1usize << stage) < p {
        let bit = 1usize << stage;
        if v & bit != 0 {
            // Sender: ship the compressed stream to the rank `bit`
            // positions in front, then retire.
            let payload = run.comp.time(|| {
                let mut w = MsgWriter::with_capacity(4 + stream.runs().len() * BYTES_PER_RUN);
                w.put_u32(stream.runs().len() as u32);
                for r in stream.runs() {
                    w.put_pixel(r.pixel);
                    w.put_codes(&[r.count]);
                }
                w.freeze()
            });
            let mut stat = StageStat {
                run_codes: stream.runs().len() as u64,
                peer: Some(topo.real(v - bit) as u16),
                ..Default::default()
            };
            let len = payload.len() as u64;
            // A dead parent loses this subtree's partial (a hole); the
            // sender retires either way.
            if try_send(
                ep,
                topo.real(v - bit),
                tags::TREE_BASE + stage as u32,
                payload,
                &mut run.dead,
                "binary-tree send",
            )? {
                stat.sent_bytes = len;
                stat.sent_msgs = 1;
            }
            run.stages.push(stat);
            return Ok(run.finish(ep, OwnedPiece::Nothing));
        }
        if v + bit < p {
            // Receiver: the partner behind us sends; composite local
            // (front) over received (back), run-aligned. A dead child
            // contributes nothing.
            let mut stat = StageStat {
                peer: Some(topo.real(v + bit) as u16),
                ..Default::default()
            };
            if let Some(received) = try_recv(
                ep,
                topo.real(v + bit),
                tags::TREE_BASE + stage as u32,
                &mut run.dead,
                "binary-tree recv",
            )? {
                stat.recv_bytes = received.len() as u64;
                stat.recv_msgs = 1;
                let merged: Checked<()> = run.comp.time(|| {
                    let back = read_stream(received, stream.total_len())?;
                    stream = ValueRle::composite_over(&stream, &back);
                    stat.composite_ops = stream.runs().len() as u64;
                    Ok(())
                });
                merged.map_err(|m| m.at("binary-tree recv", topo.real(v + bit)))?;
            }
            run.stages.push(stat);
        }
        stage += 1;
    }

    // Virtual rank 0 decompresses the final image.
    run.comp.time(|| {
        let pixels = stream.decode();
        let full = image.full_rect();
        image.write_rect(&full, &pixels);
    });
    Ok(run.finish(ep, OwnedPiece::Whole))
}

#[cfg(test)]
mod tests {
    use super::super::testutil::check_against_reference;
    use super::*;
    use crate::methods::Method;
    use vr_comm::{run_group, CostModel};

    #[test]
    fn tree_matches_reference_pow2() {
        for p in [2, 4, 8] {
            check_against_reference(Method::BinaryTree, p, 24, 24, &DepthOrder::identity(p));
        }
    }

    #[test]
    fn tree_matches_reference_non_pow2() {
        for p in [3, 5, 7] {
            check_against_reference(Method::BinaryTree, p, 24, 24, &DepthOrder::identity(p));
        }
    }

    #[test]
    fn tree_matches_reference_shuffled_depth() {
        let depth = DepthOrder::from_sequence(vec![1, 3, 0, 2]);
        check_against_reference(Method::BinaryTree, 4, 20, 20, &depth);
    }

    #[test]
    fn only_front_rank_owns_whole() {
        let depth = DepthOrder::from_sequence(vec![2, 0, 1, 3]);
        let out = run_group(4, CostModel::free(), |ep| {
            let mut img = Image::blank(8, 8);
            run(ep, &mut img, &depth).unwrap().piece
        });
        // Virtual rank 0 is real rank 2.
        for (rank, piece) in out.results.iter().enumerate() {
            if rank == 2 {
                assert_eq!(*piece, OwnedPiece::Whole);
            } else {
                assert_eq!(*piece, OwnedPiece::Nothing);
            }
        }
    }

    #[test]
    fn blank_images_compress_to_one_run() {
        let out = run_group(2, CostModel::free(), |ep| {
            let mut img = Image::blank(64, 64);
            run(ep, &mut img, &depth_identity()).unwrap().stats
        });
        // Sender (virtual rank 1) ships a single 18-byte run… but 64·64 =
        // 4096 pixels > u16::MAX? No: 4096 fits, so exactly one run +
        // 4-byte count.
        let sender = &out.results[1];
        assert_eq!(sender.stages[0].sent_bytes, 4 + 18);
        assert_eq!(sender.stages[0].run_codes, 1);
    }

    fn depth_identity() -> DepthOrder {
        DepthOrder::identity(2)
    }
}
