//! Codecs that exchange **spatial** parts — five of the six methods.
//!
//! The region is cut into strips, alternating axes — at radix 2 along its
//! centerline (Section 3.1) — and what a rank knows about where its
//! non-blank pixels lie is one rectangle kept current by `O(1)` algebra —
//! intersect with the kept part, union with what arrived (BSBR's
//! algorithm line 21) — never by a rescan. [`Spatial`] holds that state.
//! A sent part is a *body* ([`Dense`] pixels or [`Runs`]) over a
//! rectangle that is either the whole part, which both peers know
//! ([`Headless`]), or the bounded piece of it, sent as an 8-byte header
//! ([`Headed`]):
//!
//! | method | codec | rounds | wire bytes of a part |
//! | --- | --- | --- | --- |
//! | BS | `Headless<Dense>` | fold + `[2; log Q]` | every pixel (Equation (2)) |
//! | BSBR | `Headed<Dense>` | fold + `[2; log Q]` | rect + its dense pixels (Equation (4)) |
//! | BSRL | `Headless<Runs>` | fold + `[2; log Q]` | code count + run codes + non-blank pixels |
//! | BSBRC | `Headed<Runs>` | fold + `[2; log Q]` | rect + the same over the rect only (Equation (8)) |
//! | RADIXK | `Headed<Dense>` | `round_radices(P)`, no fold | BSBR's |
//!
//! BSRL is not a paper method: BSRL vs BSLC isolates what interleaving
//! buys (`M_max` balance), BSRL vs BSBRC what the rectangle buys
//! (encoding `A_send`, not the half) — Ablation 5 of
//! `results/ablation.txt`.

use bytes::Bytes;
use vr_image::body::RunBody;
use vr_image::rect::BYTES_PER_RECT;
use vr_image::{kernel, Image, PixelLayout, Rect, BYTES_PER_PIXEL as PX};

use crate::error::{Checked, Malformed};
use crate::schedule::strip;
use crate::stats::StageStat;
use crate::wire::{MsgReader, MsgWriter};

use super::swap::{Charge, StageCodec};
use super::{OwnedPiece, Run};

/// One method's encoding of a spatial part.
pub(crate) trait HalfCodec: Default {
    /// The stopwatch the encode is charged to.
    const CHARGE: Charge;
    /// See [`StageCodec::DEAD_IS_EMPTY`].
    const DEAD_IS_EMPTY: bool;

    /// The rectangle that bounds whatever this codec will send: the
    /// scanned bounding rectangle, or the whole frame (nothing scanned,
    /// every round offers the full part).
    fn bounds(image: &Image, run: &mut Run) -> Rect;

    /// The wire bytes of `send`, the bounded piece of the sent part.
    fn encode(&mut self, image: &Image, send: &Rect, stat: &mut StageStat) -> Bytes;

    /// Checks `received` against the kept part, composites it and returns
    /// the rectangle it covered.
    fn merge(
        &mut self,
        image: &mut Image,
        keep: &Rect,
        received: Bytes,
        front: bool,
        stat: &mut StageStat,
    ) -> Checked<Rect>;
}

/// The split state shared by the spatial codecs.
pub(crate) struct Spatial<H> {
    /// The region this rank owns.
    region: Rect,
    /// Bounds of this rank's non-blank pixels inside `region`.
    bounds: Rect,
    /// The latest split: the region and bounds it cut, its radix and axis.
    cut: (Rect, Rect, usize, usize),
    half: H,
}

impl<H: HalfCodec> StageCodec for Spatial<H> {
    const CHARGE: Charge = H::CHARGE;
    const DEAD_IS_EMPTY: bool = H::DEAD_IS_EMPTY;

    fn begin(image: &Image, run: &mut Run) -> Self {
        let region = image.full_rect();
        Spatial {
            region,
            bounds: H::bounds(image, run),
            cut: (region, Rect::EMPTY, 1, 0),
            half: H::default(),
        }
    }

    fn split(&mut self, round: usize, radix: usize, digit: usize) {
        self.cut = (self.region, self.bounds, radix, round % 2);
        self.region = strip(self.region, radix, round % 2, digit);
        self.bounds = self.bounds.intersect(&self.region);
    }

    /// The kept strip: later rounds split, encode and merge inside it,
    /// and the gather reads a part of it.
    fn kept(&self, _image: &Image) -> Rect {
        self.region
    }

    fn encode(&mut self, image: &Image, part: usize, stat: &mut StageStat) -> Bytes {
        // The strip divides the local bounding rectangle into the new
        // local and the sending bounding rectangles.
        let (region, bounds, radix, axis) = self.cut;
        let send = bounds.intersect(&strip(region, radix, axis, part));
        self.half.encode(image, &send, stat)
    }

    fn merge(
        &mut self,
        image: &mut Image,
        received: Bytes,
        front: bool,
        stat: &mut StageStat,
    ) -> Checked<()> {
        let arrived = self
            .half
            .merge(image, &self.region, received, front, stat)?;
        self.bounds = self.bounds.union(&arrived);
        Ok(())
    }

    fn piece(&self) -> OwnedPiece {
        OwnedPiece::Rect(self.region)
    }
}

/// How the pixels of one rectangle travel.
pub(crate) trait Body: Default {
    /// The stopwatch the scan and the write are charged to.
    const CHARGE: Charge;

    /// Scans `rect`, fills the encode counters and returns the exact
    /// number of bytes [`Body::put`] appends, so a payload is allocated
    /// once.
    fn scan(&mut self, image: &Image, rect: &Rect, stat: &mut StageStat) -> usize;

    /// Appends the scanned body, pixels straight from the image rows.
    fn put(&self, w: &mut MsgWriter, image: &Image, rect: &Rect);

    /// Checks that the rest of `r` is exactly one body over `rect`,
    /// composites it and returns the `over` count.
    fn merge(image: &mut Image, rect: &Rect, r: &mut MsgReader, front: bool) -> Checked<u64>;
}

/// The body of the whole sent part: no header, because the receiver
/// derives the rectangle from the shared schedule.
#[derive(Default)]
pub(crate) struct Headless<B>(B);

impl<B: Body> HalfCodec for Headless<B> {
    const CHARGE: Charge = B::CHARGE;
    const DEAD_IS_EMPTY: bool = false;

    fn bounds(image: &Image, _run: &mut Run) -> Rect {
        image.full_rect()
    }

    fn encode(&mut self, image: &Image, send: &Rect, stat: &mut StageStat) -> Bytes {
        let mut w = MsgWriter::with_capacity(self.0.scan(image, send, stat));
        self.0.put(&mut w, image, send);
        w.freeze()
    }

    fn merge(
        &mut self,
        image: &mut Image,
        keep: &Rect,
        received: Bytes,
        front: bool,
        stat: &mut StageStat,
    ) -> Checked<Rect> {
        stat.composite_ops += B::merge(image, keep, &mut MsgReader::new(received), front)?;
        Ok(*keep)
    }
}

/// The sending bounding rectangle as an 8-byte header, then the body of
/// that rectangle only; an empty rectangle is the header alone.
#[derive(Default)]
pub(crate) struct Headed<B>(B);

impl<B: Body> HalfCodec for Headed<B> {
    const CHARGE: Charge = B::CHARGE;
    const DEAD_IS_EMPTY: bool = true;

    /// `T_bound`: the one `O(A)` scan for the initial bounding rectangle.
    fn bounds(image: &Image, run: &mut Run) -> Rect {
        run.bound_pixels += image.area() as u64;
        run.bound.time(|| image.bounding_rect())
    }

    fn encode(&mut self, image: &Image, send: &Rect, stat: &mut StageStat) -> Bytes {
        if send.is_empty() {
            return encode_rect(image, send);
        }
        let mut w = MsgWriter::with_capacity(BYTES_PER_RECT + self.0.scan(image, send, stat));
        w.put_rect(*send);
        self.0.put(&mut w, image, send);
        w.freeze()
    }

    fn merge(
        &mut self,
        image: &mut Image,
        keep: &Rect,
        received: Bytes,
        front: bool,
        stat: &mut StageStat,
    ) -> Checked<Rect> {
        let mut r = MsgReader::new(received);
        let rect = read_rect(&mut r, keep)?;
        stat.recv_rect_empty |= rect.is_empty();
        if rect.is_empty() {
            r.finish()?;
        } else {
            stat.composite_ops += B::merge(image, &rect, &mut r, front)?;
        }
        Ok(rect)
    }
}

/// The rect payload of the fold and of BSBR's empty parts: an 8-byte
/// bounding rectangle, then its pixels dense and row-major.
pub(crate) fn encode_rect(image: &Image, bounds: &Rect) -> Bytes {
    let mut w = MsgWriter::with_capacity(BYTES_PER_RECT + bounds.area() * PX);
    w.put_rect(*bounds);
    w.put_image_rect(image, bounds);
    w.freeze()
}

/// Reads a rectangle header that must lie inside `within`.
pub(crate) fn read_rect(r: &mut MsgReader, within: &Rect) -> Checked<Rect> {
    let rect = r.get_rect()?;
    Malformed::unless(within.contains_rect(&rect))?;
    Ok(rect)
}

/// Reads one `rect + dense pixels` record; the pixels stay wire bytes.
fn read_rect_pixels(r: &mut MsgReader, within: &Rect) -> Checked<(Rect, Bytes)> {
    let rect = read_rect(r, within)?;
    Ok((rect, r.take_pixels(rect.area())?))
}

/// Parses a whole rect payload: exactly one record, nothing after it.
pub(crate) fn parse_rect(payload: Bytes, within: &Rect) -> Checked<(Rect, Bytes)> {
    let mut r = MsgReader::new(payload);
    let record = read_rect_pixels(&mut r, within)?;
    r.finish()?;
    Ok(record)
}

/// Composites the wire-form pixels of `rect` in front of (`front`) or
/// behind the image's own; returns the `over` count.
pub(crate) fn composite_rect(image: &mut Image, rect: &Rect, wire: &[u8], front: bool) -> u64 {
    if rect.is_empty() {
        0
    } else if front {
        image.composite_rect_over_wire(rect, wire) as u64
    } else {
        image.composite_rect_under_wire(rect, wire) as u64
    }
}

/// Every pixel of the rectangle, blank or not, dense and row-major.
#[derive(Default)]
pub(crate) struct Dense;

impl Body for Dense {
    const CHARGE: Charge = |run| &mut run.comp;

    fn scan(&mut self, _image: &Image, rect: &Rect, _stat: &mut StageStat) -> usize {
        rect.area() * PX
    }

    fn put(&self, w: &mut MsgWriter, image: &Image, rect: &Rect) {
        w.put_image_rect(image, rect);
    }

    fn merge(image: &mut Image, rect: &Rect, r: &mut MsgReader, front: bool) -> Checked<u64> {
        let wire = r.take_pixels(rect.area())?;
        r.finish()?;
        Ok(composite_rect(image, rect, &wire, front))
    }
}

/// Composites `wire` — the pixels of `runs`, in order — straight from
/// its bytes, segment by segment through the wire-form slice kernels:
/// the same `over` expression in the same left-to-right order as a
/// per-pixel loop, so the output is bit-identical. The ops are the
/// non-blank pixels received, never the rectangle's area.
fn composite_runs(
    image: &mut Image,
    rect: &Rect,
    runs: impl IntoIterator<Item = (usize, usize)>,
    wire: &[u8],
    front: bool,
) {
    let mut src = 0usize;
    rect.for_row_segments(runs, |x, y, seg| {
        let incoming = &wire[src..src + seg * PX];
        let local = image.row_span_mut(x, y, seg);
        if front {
            kernel::over_slice_wire(incoming, local);
        } else {
            kernel::under_slice_wire(local, incoming);
        }
        src += incoming.len();
    });
}

/// Section 3.3's run-length codes over the rectangle's blank/non-blank
/// mask: the rect's [`RunBody`], reused across stages.
#[derive(Default)]
pub(crate) struct Runs(RunBody);

impl Body for Runs {
    const CHARGE: Charge = |run| &mut run.encode;

    fn scan(&mut self, image: &Image, rect: &Rect, stat: &mut StageStat) -> usize {
        let len = self.0.scan(rect.area(), |runs| image.runs_into(rect, runs));
        stat.encoded_pixels += rect.area() as u64;
        stat.run_codes += self.0.codes() as u64;
        len
    }

    fn put(&self, w: &mut MsgWriter, image: &Image, rect: &Rect) {
        self.0.put_rect(w.payload(), image, rect, PixelLayout::Rgba);
    }

    fn merge(image: &mut Image, rect: &Rect, r: &mut MsgReader, front: bool) -> Checked<u64> {
        let (rle, total) = r.get_body(rect.area())?;
        let wire = r.take_pixels(total)?;
        r.finish()?;
        composite_runs(image, rect, rle.non_blank_runs(), &wire, front);
        Ok(total as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{run_method, test_images};
    use super::*;
    use crate::methods::{composite, Method};
    use vr_comm::{run_group, CostModel};
    use vr_image::Pixel;
    use vr_volume::DepthOrder;

    /// Total bytes `method` sends over all ranks.
    fn sent_bytes(method: Method, images: &[Image]) -> u64 {
        run_method(method, images, &DepthOrder::identity(images.len()))
            .iter()
            .map(|r| r.stats.sent_bytes())
            .sum()
    }

    /// The areas of the rectangles the ranks end up owning.
    fn owned_area(method: Method, p: usize, w: u16, h: u16) -> usize {
        run_method(method, &test_images(p, w, h), &DepthOrder::identity(p))
            .iter()
            .map(|r| match &r.piece {
                OwnedPiece::Rect(r) => r.area(),
                other => panic!("unexpected piece {other:?}"),
            })
            .sum()
    }

    #[test]
    fn bs_single_rank_is_identity() {
        let images = test_images(1, 16, 16);
        let out = run_group(1, CostModel::free(), |ep| {
            let mut img = images[0].clone();
            let res = composite(Method::Bs, ep, &mut img, &DepthOrder::identity(1)).unwrap();
            assert_eq!(res.piece, OwnedPiece::Rect(Rect::new(0, 0, 16, 16)));
            img
        });
        assert_eq!(out.results[0], images[0]);
    }

    #[test]
    fn bs_bytes_match_equation_2() {
        // Equation (2): stage k transfers 16 · A/2^k bytes per processor.
        let a = 32u64 * 32;
        let images = test_images(8, 32, 32);
        for res in run_method(Method::Bs, &images, &DepthOrder::identity(8)) {
            assert_eq!(res.stats.stages.len(), 3);
            for (k, stage) in res.stats.stages.iter().enumerate() {
                let expected = 16 * a / 2u64.pow(k as u32 + 1);
                assert_eq!(stage.sent_bytes, expected, "stage {k}");
                assert_eq!(stage.recv_bytes, expected, "stage {k}");
            }
        }
    }

    /// A BS merge writes only where content can be, so a rank's extent
    /// after the composite stays within the union of the inputs' extents
    /// (not the whole kept half): the next reset of its working frame
    /// (`WorkingFrame::lease`) blanks content, not the half.
    #[test]
    fn bs_extents_stay_within_the_inputs_extents() {
        for p in [2usize, 4, 8] {
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
            let depth = DepthOrder::identity(p);
            let extents = run_group(p, CostModel::free(), |ep| {
                let mut img = images[ep.rank()].clone();
                composite(Method::Bs, ep, &mut img, &depth).unwrap();
                img.extent()
            });
            for (rank, extent) in extents.results.iter().enumerate() {
                assert!(
                    inputs.contains_rect(extent),
                    "P = {p}, rank {rank}: {extent:?} outside {inputs:?}"
                );
            }
        }
    }

    /// `over` can blank a non-blank pixel: a blank pixel in front of a
    /// `(-0.0, 0, 0, 0)` one gives `Pixel::BLANK`. The fold merges rank
    /// 1's image under rank 0's, so rank 0's merged bounds can be tighter
    /// than the union of the two inputs' bounds, and its first stage must
    /// start from the scanned rectangle that Equation (4) charges.
    #[test]
    fn the_fold_result_is_bounded_by_a_scan() {
        use super::super::testutil::gather_exact;
        use crate::reference::reference_composite;
        use crate::schedule::{fold_into_pow2, VirtualTopology};
        use crate::timer::Stopwatch;

        let lit = Pixel::gray(0.5, 0.5);
        let brute_bounds = |img: &Image| {
            let mut bounds = Rect::EMPTY;
            for (x, y) in img.full_rect().iter() {
                if !img.get(x, y).is_blank() {
                    bounds.include(x, y);
                }
            }
            bounds
        };
        // (P, where rank 1's lit pixel lies): its `-0.0` pixel lies at
        // (6, 6), where rank 0's frame is blank.
        for (p, (gx, gy)) in [(3, (2, 2)), (5, (5, 2))] {
            let images: Vec<Image> = (0..p)
                .map(|rank| {
                    let mut img = Image::blank(8, 8);
                    match rank {
                        0 => img.set(1, 1, lit),
                        1 => {
                            img.set(gx, gy, lit);
                            img.set(6, 6, Pixel::new(-0.0, 0.0, 0.0, 0.0));
                        }
                        _ => {}
                    }
                    img
                })
                .collect();
            let depth = DepthOrder::identity(p);

            let folded = run_group(p, CostModel::free(), |ep| {
                let mut img = images[ep.rank()].clone();
                let topo = VirtualTopology::from_depth(ep.rank(), &depth);
                let (mut comp, mut stages) = (Stopwatch::new(), Vec::new());
                fold_into_pow2(
                    ep,
                    &mut img,
                    &topo,
                    &mut comp,
                    &mut stages,
                    &mut Default::default(),
                )
                .unwrap();
                img
            });
            let tight = brute_bounds(&folded.results[0]);
            assert_eq!(tight, Rect::new(1, 1, gx + 1, gy + 1), "P = {p}");
            assert_eq!(folded.results[0].bounding_rect(), tight, "P = {p}");

            let expect = reference_composite(&images, &depth);
            for method in [Method::Bsbr, Method::Bsbrc] {
                let out = run_group(p, CostModel::free(), |ep| {
                    let mut img = images[ep.rank()].clone();
                    let result = composite(method, ep, &mut img, &depth).unwrap();
                    (result.stats, gather_exact(ep, &img, &result.piece, 0))
                });
                let (stats, gathered) = &out.results[0];
                let diff = gathered.as_ref().unwrap().max_abs_diff(&expect);
                assert!(diff < 2e-4, "{method:?} P = {p}: diff {diff}");
                if method == Method::Bsbr {
                    // Stage 0 is the fold; in the first swap stage rank 0
                    // (virtual 0) keeps part 0 and sends part 1.
                    let send = tight.intersect(&strip(expect.full_rect(), 2, 0, 1));
                    let want = (BYTES_PER_RECT + PX * send.area()) as u64;
                    assert_eq!(stats.stages[1].sent_bytes, want, "P = {p}");
                }
            }
        }
    }

    #[test]
    fn final_regions_partition_image() {
        assert_eq!(owned_area(Method::Bs, 8, 32, 32), 32 * 32);
        assert_eq!(owned_area(Method::Bsbr, 4, 16, 16), 256);
        assert_eq!(owned_area(Method::RadixK, 12, 36, 24), 36 * 24);
    }

    #[test]
    fn bsbr_sends_less_than_bs_on_sparse_images() {
        // Sparse content: one small blob per rank.
        let images: Vec<Image> = (0..4u16)
            .map(|r| {
                let mut img = Image::blank(64, 64);
                for dy in 0..4u16 {
                    for dx in 0..4u16 {
                        img.set(10 + r * 6 + dx, 20 + dy, Pixel::gray(0.5, 0.8));
                    }
                }
                img
            })
            .collect();
        let bs = sent_bytes(Method::Bs, &images);
        let bsbr = sent_bytes(Method::Bsbr, &images);
        assert!(
            bsbr * 4 < bs,
            "BSBR should send far less on sparse input: {bsbr} vs {bs}"
        );
    }

    #[test]
    fn bsbr_empty_rect_sends_header_only() {
        // Rank 1's image is completely blank → every payload it sends is
        // just the 8-byte rectangle header.
        let images = [test_images(1, 16, 16)[0].clone(), Image::blank(16, 16)];
        let out = run_method(Method::Bsbr, &images, &DepthOrder::identity(2));
        assert_eq!(out[1].stats.stages[0].sent_bytes, 8);
        // And the partner observed an empty receiving rectangle.
        assert!(out[0].stats.stages[0].recv_rect_empty);
    }

    #[test]
    fn bsbrc_never_sends_more_pixels_than_bsbr() {
        // BSBRC payload = header + codes + non-blank pixels; BSBR payload
        // = header + all rect pixels. On any input the non-blank pixel
        // bytes are a subset; codes may add a little, but for sparse
        // rects BSBRC must win clearly.
        let images = test_images(8, 48, 48);
        let bsbr = sent_bytes(Method::Bsbr, &images);
        let bsbrc = sent_bytes(Method::Bsbrc, &images);
        assert!(
            bsbrc < bsbr,
            "BSBRC {bsbrc} should undercut BSBR {bsbr} on sparse images"
        );
    }

    #[test]
    fn bsbrc_encodes_fewer_pixels_than_bslc() {
        // Equation (7) vs (5): BSBRC encodes A_send^k ≤ A/2^k.
        let images = test_images(8, 48, 48);
        let encoded = |m: Method| -> u64 {
            run_method(m, &images, &DepthOrder::identity(8))
                .iter()
                .flat_map(|r| &r.stats.stages)
                .map(|s| s.encoded_pixels)
                .sum()
        };
        let bslc = encoded(Method::Bslc);
        let bsbrc = encoded(Method::Bsbrc);
        assert!(bsbrc <= bslc, "BSBRC encodes {bsbrc} > BSLC {bslc}");
    }

    #[test]
    fn empty_rect_is_header_only() {
        let blank = [Image::blank(16, 16), Image::blank(16, 16)];
        for res in run_method(Method::Bsbrc, &blank, &DepthOrder::identity(2)) {
            let stage = res.stats.stages[0];
            assert_eq!(stage.sent_bytes, 8);
            assert!(stage.recv_rect_empty);
            assert_eq!(stage.composite_ops, 0);
        }
    }

    #[test]
    fn composite_ops_equal_non_blank_received() {
        // Ops must equal the number of non-blank pixels received, never
        // the rect area (the BSBR behaviour). Two distant pixels in the
        // half rank 1 sends at stage 0: wide rect, only 2 non-blank.
        let mut sparse = Image::blank(32, 32);
        sparse.set(2, 2, Pixel::gray(0.5, 0.5));
        sparse.set(13, 29, Pixel::gray(0.5, 0.5));
        let images = [Image::blank(32, 32), sparse];
        for method in [Method::Bsbrc, Method::Bsrl] {
            // Rank 0 keeps the left half at stage 0 and receives rank 1's
            // left-half content.
            let out = run_method(method, &images, &DepthOrder::identity(2));
            assert_eq!(out[0].stats.stages[0].composite_ops, 2, "{method:?}");
        }
    }

    #[test]
    fn bsrl_encodes_full_halves_like_bslc() {
        // Equation (5) shape: stage k encodes A/2^k pixels.
        let a = 32u64 * 32;
        let images = test_images(8, 32, 32);
        for res in run_method(Method::Bsrl, &images, &DepthOrder::identity(8)) {
            for (k, stage) in res.stats.stages.iter().enumerate() {
                assert_eq!(stage.encoded_pixels, a / 2u64.pow(k as u32 + 1));
            }
        }
    }

    #[test]
    fn bsrl_is_unbalanced_on_concentrated_content_unlike_bslc() {
        // The ablation's point: with all content in the frame's left
        // half, BSRL (spatial halves) concentrates traffic on half the
        // ranks, while BSLC (interleaved) spreads it.
        let (w, h) = (32u16, 32u16);
        let images: Vec<Image> = (0..4u16)
            .map(|r| {
                Image::from_fn(w, h, |x, y| {
                    if x < w / 2 && (x + y + r).is_multiple_of(2) {
                        Pixel::gray(0.5, 0.7)
                    } else {
                        Pixel::BLANK
                    }
                })
            })
            .collect();
        let m_max = |method: Method| {
            run_method(method, &images, &DepthOrder::identity(4))
                .iter()
                .map(|r| r.stats.recv_bytes())
                .max()
                .unwrap()
        };
        let bsrl = m_max(Method::Bsrl);
        let bslc = m_max(Method::Bslc);
        assert!(
            (bslc as f64) < 0.75 * bsrl as f64,
            "interleaving should balance: BSLC {bslc} vs BSRL {bsrl}"
        );
    }
}
