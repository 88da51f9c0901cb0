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
//! bit-identical to a dense rescan. Every table, the code buffer and the
//! pixel staging persist across stages.

use bytes::Bytes;
use vr_image::{kernel, Image, RunSet, StridedSeq, BYTES_PER_PIXEL as PX, BYTES_PER_RUN_CODE};

use crate::error::Checked;
use crate::stats::StageStat;
use crate::wire::{MsgReader, MsgWriter, ScratchPool};

use super::swap::{read_runs, Charge, StageCodec};
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
    /// partner). `over` never blanks a non-blank pixel, so `kept ∪ recv`
    /// is the exact run table of the merged sequence — no rescan.
    recv: RunSet,
    /// Scratch: the merged table and the other half of its parity split.
    merged: RunSet,
    sent: RunSet,
    codes: Vec<u16>,
    /// A strided sequence cannot be written or composited row by row, so
    /// its pixels are packed through `send` and unpacked through `recv`.
    scratch: ScratchPool,
}

impl StageCodec for InterleavedRuns {
    const CHARGE: Charge = |run| &mut run.encode;
    const DEAD_IS_EMPTY: bool = false;

    fn begin(image: &Image, run: &mut Run) -> Self {
        InterleavedRuns {
            seq: StridedSeq::dense(image.area()),
            send: StridedSeq::dense(0),
            // The one pixel scan; the table is never rescanned.
            kept: run.encode.time(|| sequence_mask(image)),
            recv: RunSet::new(),
            merged: RunSet::new(),
            sent: RunSet::new(),
            codes: Vec::new(),
            scratch: ScratchPool::new(),
        }
    }

    /// Interleaved halves pair ranks: `radix` is always 2, and digit 0
    /// keeps the even positions.
    fn split(&mut self, _round: usize, radix: usize, digit: usize) {
        debug_assert_eq!(radix, 2, "BSLC runs binary rounds only");
        let (even, odd) = self.seq.split();
        self.kept.union_into(&self.recv, &mut self.merged);
        self.recv.clear();
        if digit == 0 {
            self.merged
                .split_parity_into(&mut self.kept, &mut self.sent);
            (self.seq, self.send) = (even, odd);
        } else {
            self.merged
                .split_parity_into(&mut self.sent, &mut self.kept);
            (self.seq, self.send) = (odd, even);
        }
    }

    fn encode(&mut self, image: &Image, _part: usize, stat: &mut StageStat) -> Bytes {
        let send = self.send;
        // The run codes come straight from the parity split; only the
        // non-blank pixels are gathered, into the reusable scratch
        // buffer, so the wire write is one bulk copy.
        self.sent.encode_codes_into(send.count, &mut self.codes);
        let total = self.sent.non_blank_total();
        let pixels = image.pixels();
        let staged = &mut self.scratch.send;
        staged.clear();
        staged.reserve(total);
        for &(start, len) in self.sent.runs() {
            staged.extend((0..len).map(|i| pixels[send.index(start + i)]));
        }
        let mut w =
            MsgWriter::with_capacity(4 + self.codes.len() * BYTES_PER_RUN_CODE + total * PX);
        w.put_u32(self.codes.len() as u32);
        w.put_codes(&self.codes);
        w.put_pixels(staged);
        self.scratch.note_watermark();
        stat.encoded_pixels += send.count as u64;
        stat.run_codes += self.codes.len() as u64;
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
        let (rle, total) = read_runs(&mut r, self.seq.count)?;
        // One bulk parse of the pixel payload; the scatter below reads
        // it sequentially, so arithmetic order is unchanged.
        r.get_pixels_into(total, &mut self.scratch.recv)?;
        r.finish()?;
        self.recv.assign_from_runs(rle.non_blank_runs());
        self.scratch.note_watermark();
        let mut staged = self.scratch.recv.iter();
        let pixels = image.pixels_mut();
        for &(start, len) in self.recv.runs() {
            for (i, &incoming) in (start..start + len).zip(&mut staged) {
                let local = &mut pixels[self.seq.index(i)];
                *local = if front {
                    incoming.over(*local)
                } else {
                    local.over(incoming)
                };
            }
        }
        stat.composite_ops += total as u64;
        Ok(())
    }

    fn piece(&self) -> OwnedPiece {
        OwnedPiece::Seq(self.seq)
    }

    fn staging_peak_bytes(&self) -> u64 {
        self.scratch.peak_bytes()
    }
}

/// The blank/non-blank run table of the image's full pixel sequence,
/// scanned only inside its bounding rectangle (`O(1)` to obtain when the
/// bounds hint is armed; positions outside are blank by definition), so
/// a sparse image pays `O(bounds.area())` instead of `O(A)`.
fn sequence_mask(image: &Image) -> RunSet {
    let b = image.bounding_rect();
    let w = image.width() as usize;
    let pixels = image.pixels();
    // `RunSet::push` (inside the scanner) coalesces runs touching across
    // the row seam.
    let mut table = RunSet::new();
    for y in b.y0..b.y1 {
        let start = y as usize * w + b.x0 as usize;
        let end = y as usize * w + b.x1 as usize;
        kernel::scan_runs_into(&pixels[start..end], start, &mut table);
    }
    table
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
