//! BSLC's codec (Section 3.3): run-length codes over **interleaved**
//! halves.
//!
//! Each stage exchanges an interleaved half of the currently owned pixel
//! sequence (Figure 6), so non-blank pixels spread almost evenly across
//! both partners wherever the object projects. The sent half is
//! run-length encoded over its blank/non-blank mask (Figure 5): a `u32`
//! code count, 2-byte run codes and only the non-blank pixels travel
//! (Equation (6)). The price is the encoding scan: `T_encode · A/2^k`
//! per stage (Equation (5)), blank pixels included — the term the
//! paper's evaluation shows dominating `T_comp(BSLC)`, and the
//! motivation for BSBRC.
//!
//! The cost accounting is the paper's (`encoded_pixels` charges the full
//! sent half per stage) but the encoding *executes* incrementally: the
//! run table is built once from the initial image and then maintained
//! structurally — [`RunSet::split_parity_into`] derives each stage's
//! sent-half codes, [`RunSet::union_into`] folds in the received runs —
//! so a stage costs `O(runs)`, not `O(A/2^k)`, and the wire bytes are
//! bit-identical to a dense rescan. Every table and the code buffer
//! persist across stages. No pixel is staged: the sent half's runs are
//! written straight from the image at the sequence's stride
//! ([`RunBody::put_seq`]), and each received pixel is decoded from the
//! payload as it is composited.

use bytes::Bytes;
use vr_image::body::RunBody;
use vr_image::{kernel, Image, PixelLayout, RunSet, StridedSeq};

use crate::error::Checked;
use crate::stats::StageStat;
use crate::wire::{MsgReader, MsgWriter};

use super::swap::{Charge, StageCodec};
use super::{OwnedPiece, Run};

/// BSLC's state: the owned sequence and its run tables.
pub(crate) struct InterleavedRuns {
    /// The sequence this rank owns.
    seq: StridedSeq,
    /// The half the latest split gives away.
    send: StridedSeq,
    /// Run table of `seq`, before the latest received runs are merged in.
    kept: RunSet,
    /// The runs received since the last split (none from a dead
    /// partner). `kept ∪ recv` is the merged sequence's run table as the
    /// paper accounts it, shared by execution and `expected_traffic`,
    /// with no rescan. It is not an exact record of the merged bits: a
    /// blank pixel over a `(-0.0, 0, 0, 0)` one is `Pixel::BLANK`.
    recv: RunSet,
    /// Scratch: the merged table.
    merged: RunSet,
    /// The other half of its parity split, coded: the sent half's body.
    sent: RunBody,
}

impl StageCodec for InterleavedRuns {
    const CHARGE: Charge = |run| &mut run.encode;
    const DEAD_IS_EMPTY: bool = false;

    fn begin(image: &Image, run: &mut Run) -> Self {
        InterleavedRuns {
            seq: StridedSeq::dense(image.area()),
            send: StridedSeq::dense(0),
            // The one pixel scan, over the extent's rows; positions are
            // row-major in the full frame. The table is never rescanned.
            kept: run.encode.time(|| {
                let mut table = RunSet::new();
                image.runs_into(&image.full_rect(), &mut table);
                table
            }),
            recv: RunSet::new(),
            merged: RunSet::new(),
            sent: RunBody::default(),
        }
    }

    /// Interleaved halves pair ranks: `radix` is always 2, and digit 0
    /// keeps the even positions.
    fn split(&mut self, _round: usize, radix: usize, digit: usize) {
        debug_assert_eq!(radix, 2, "BSLC runs binary rounds only");
        let (even, odd) = self.seq.split();
        self.kept.union_into(&self.recv, &mut self.merged);
        self.recv.clear();
        let (merged, kept) = (&self.merged, &mut self.kept);
        if digit == 0 {
            (self.seq, self.send) = (even, odd);
            self.sent
                .scan(odd.count, |sent| merged.split_parity_into(kept, sent));
        } else {
            (self.seq, self.send) = (odd, even);
            self.sent
                .scan(even.count, |sent| merged.split_parity_into(sent, kept));
        }
    }

    fn encode(&mut self, image: &Image, _part: usize, stat: &mut StageStat) -> Bytes {
        // The run codes come straight from the parity split; the
        // non-blank pixels are read from the image at the send half's
        // stride.
        let mut w = MsgWriter::with_capacity(self.sent.wire_len(PixelLayout::Rgba));
        self.sent.put_seq(w.payload(), image.pixels(), self.send);
        stat.encoded_pixels += self.send.count as u64;
        stat.run_codes += self.sent.codes() as u64;
        w.freeze()
    }

    /// Composites only the received non-blank pixels, addressed through
    /// the run codes over the kept sequence (identical to the partner's
    /// sent sequence by construction).
    fn merge(
        &mut self,
        image: &mut Image,
        received: Bytes,
        front: bool,
        stat: &mut StageStat,
    ) -> Checked<()> {
        let mut r = MsgReader::new(received);
        let (rle, total) = r.get_body(self.seq.count)?;
        let wire = r.take_pixels(total)?;
        r.finish()?;
        self.recv.assign_from_runs(rle.non_blank_runs());
        // Each pixel is decoded as it is composited, in payload order, so
        // arithmetic order is unchanged; the extent grows over the runs
        // written, not over the frame.
        let mut incoming = kernel::decode(&wire);
        let runs = self.recv.runs().iter().copied();
        image.update_seq_runs(&self.seq, runs, |local| {
            let incoming = incoming.next().expect("one wire pixel per run position");
            *local = if front {
                incoming.over(*local)
            } else {
                local.over(incoming)
            };
        });
        stat.composite_ops += total as u64;
        Ok(())
    }

    fn piece(&self) -> OwnedPiece {
        OwnedPiece::Seq(self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{run_method, test_images};
    use super::*;
    use crate::methods::Method;
    use vr_image::Pixel;
    use vr_volume::DepthOrder;

    #[test]
    fn bslc_sends_only_non_blank_payload() {
        // Fully blank images → payload is just the 4-byte code count.
        let blank = [Image::blank(16, 16), Image::blank(16, 16)];
        for res in run_method(Method::Bslc, &blank, &DepthOrder::identity(2)) {
            assert_eq!(res.stats.stages[0].sent_bytes, 4);
            assert_eq!(res.stats.stages[0].run_codes, 0);
        }
    }

    #[test]
    fn bslc_balances_load_on_clustered_content() {
        // All non-blank pixels live in the left half of rank 0's image —
        // the worst case for spatial splitting. With interleaving, both
        // partners still receive nearly equal non-blank counts.
        let (w, h) = (32u16, 32u16);
        let clustered = Image::from_fn(w, h, |x, _| {
            if x < w / 2 {
                Pixel::gray(0.6, 0.7)
            } else {
                Pixel::BLANK
            }
        });
        let images = [clustered, Image::blank(w, h)];
        let out = run_method(Method::Bslc, &images, &DepthOrder::identity(2));
        let r0 = out[0].stats.stages[0].recv_bytes;
        let r1 = out[1].stats.stages[0].recv_bytes;
        // Rank 0 receives nothing of substance (rank 1 blank); rank 1
        // receives about half of rank 0's non-blank pixels.
        assert!(r0 <= 8);
        let half_payload = (w as u64 / 2 * h as u64 / 2) * 16;
        assert!(
            r1 > half_payload * 9 / 10 && r1 < half_payload * 12 / 10,
            "interleave should hand ~half the content to the partner: {r1} vs {half_payload}"
        );
    }

    #[test]
    fn bslc_encoded_pixels_match_equation_5() {
        // Stage k encodes A/2^k pixels (the sent half).
        let a = 32u64 * 32;
        let images = test_images(8, 32, 32);
        for res in run_method(Method::Bslc, &images, &DepthOrder::identity(8)) {
            for (k, stage) in res.stats.stages.iter().enumerate() {
                assert_eq!(
                    stage.encoded_pixels,
                    a / 2u64.pow(k as u32 + 1),
                    "stage {k}"
                );
            }
        }
    }

    /// A BSLC merge grows the extent over the runs it writes, not over
    /// the frame: after the composite each rank's extent lies within the
    /// union of the inputs' extents, as the spatial methods' do, so its
    /// next lease reset blanks content, not `W×H`.
    #[test]
    fn bslc_extents_stay_within_the_inputs_extents() {
        use crate::methods::composite;
        use vr_comm::{run_group, CostModel};
        use vr_image::Rect;
        let p = 4;
        let images: Vec<Image> = (0..p as u16)
            .map(|r| {
                let mut img = Image::blank(64, 64);
                for (x, y) in Rect::new(6 + 3 * r, 9 + 2 * r, 14 + 3 * r, 15 + 2 * r).iter() {
                    img.set(x, y, Pixel::gray(0.5, 0.25 + 0.05 * r as f32));
                }
                img
            })
            .collect();
        let inputs = images
            .iter()
            .fold(Rect::EMPTY, |u, img| u.union(&img.extent()));
        assert_eq!(inputs.area(), 204);
        let depth = DepthOrder::identity(p);
        let extents = run_group(p, CostModel::free(), |ep| {
            let mut img = images[ep.rank()].clone();
            composite(Method::Bslc, ep, &mut img, &depth).unwrap();
            img.extent()
        });
        for (rank, extent) in extents.results.iter().enumerate() {
            assert!(
                inputs.contains_rect(extent) && extent.area() >= 48,
                "rank {rank}: {extent:?} outside {inputs:?}"
            );
        }
    }

    #[test]
    fn bslc_final_seqs_partition_pixels() {
        let images = test_images(8, 16, 16);
        let mut all: Vec<usize> = Vec::new();
        for res in run_method(Method::Bslc, &images, &DepthOrder::identity(8)) {
            match res.piece {
                OwnedPiece::Seq(s) => all.extend(s.iter()),
                other => panic!("unexpected piece {other:?}"),
            }
        }
        all.sort_unstable();
        assert_eq!(all, (0..256).collect::<Vec<_>>());
    }
}
