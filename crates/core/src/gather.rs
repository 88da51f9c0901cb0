//! Final gather: assembling owned pieces into the full image at a root
//! rank (the sort-last system's display step).
//!
//! A piece travels sparse, like a BSBRC message: every domain it owns —
//! a [`Rect`], each rect of a tile owner's set, or BSLC's
//! [`StridedSeq`] — is its header, a `u32` code count, the [`MaskRle`]
//! codes over the domain and then only the domain's non-blank pixels,
//! 16 bytes each. A dense domain of `a` pixels costs
//! `4 + 4·⌈a/65535⌉` bytes more than its raw pixels; a blank one costs
//! its header and 4 bytes.
//!
//! Blank is decided by bits ([`kernel::scan_bit_runs_into`]): only a
//! bitwise [`Pixel::BLANK`] stays behind, so a `-0.0`, NaN-payload or
//! subnormal pixel travels and the gathered frame is the composited one
//! bit for bit. The root starts from a blank frame and writes only the
//! runs, so its extent covers only the rows that received pixels; it
//! still counts a piece's whole domain as covered.
//!
//! [`MaskRle`]: vr_image::MaskRle

use bytes::Bytes;
use vr_comm::{gather, gather_tolerant, Endpoint};
use vr_image::rect::BYTES_PER_RECT;
use vr_image::{kernel, Image, MaskRle, Pixel, Rect, RunSet, StridedSeq, BYTES_PER_RUN_CODE};

use crate::error::{Checked, CompositeError, Malformed};
use crate::methods::spatial::read_rect;
use crate::methods::swap::read_runs;
use crate::methods::OwnedPiece;
use crate::schedule::tags;
use crate::wire::{MsgReader, MsgWriter};

const PX: usize = vr_image::BYTES_PER_PIXEL;

const KIND_NOTHING: u32 = 0;
const KIND_RECT: u32 = 1;
const KIND_SEQ: u32 = 2;
// 3 was the binary tree's whole frame; retired, not reused.
const KIND_RECTS: u32 = 4;

/// One domain's non-blank runs (positions in the domain's own order)
/// and their canonical codes.
struct Body {
    runs: RunSet,
    codes: Vec<u16>,
}

impl Body {
    /// Scans a contiguous span of pixels.
    fn of_span(span: &[Pixel]) -> Body {
        let mut runs = RunSet::new();
        kernel::scan_bit_runs_into(span, 0, &mut runs);
        Body::coded(runs, span.len())
    }

    /// Scans the pixels of `rect`.
    fn of_rect(image: &Image, rect: &Rect) -> Body {
        let mut runs = RunSet::new();
        image.bit_runs_into(rect, &mut runs);
        Body::coded(runs, rect.area())
    }

    fn coded(runs: RunSet, domain: usize) -> Body {
        let mut codes = Vec::new();
        runs.encode_codes_into(domain, &mut codes);
        Body { runs, codes }
    }

    /// Wire bytes: the code count, the codes and the non-blank pixels.
    fn len(&self) -> usize {
        4 + self.codes.len() * BYTES_PER_RUN_CODE + self.runs.non_blank_total() * PX
    }

    /// Appends the code count and the codes.
    fn put_codes(&self, w: &mut MsgWriter) {
        w.put_u32(self.codes.len() as u32);
        w.put_codes(&self.codes);
    }
}

/// Encodes a rank's owned piece for the gather, in a payload allocated
/// once at its exact size.
fn encode_piece(image: &Image, piece: &OwnedPiece) -> Bytes {
    match piece {
        OwnedPiece::Nothing => encode_rects(image, &[KIND_NOTHING], &[]),
        OwnedPiece::Rect(rect) => encode_rects(image, &[KIND_RECT], std::slice::from_ref(rect)),
        OwnedPiece::Rects(rects) => encode_rects(image, &[KIND_RECTS, rects.len() as u32], rects),
        OwnedPiece::Seq(seq) => {
            // A strided sequence is not a row span: its pixels are
            // staged once, in sequence order, and scanned there.
            let staged: Vec<Pixel> = seq.iter().map(|i| image.pixels()[i]).collect();
            let body = Body::of_span(&staged);
            let mut w = MsgWriter::with_capacity(4 + 12 + body.len());
            w.put_u32(KIND_SEQ);
            for word in [seq.start, seq.stride, seq.count] {
                w.put_u32(word as u32);
            }
            body.put_codes(&mut w);
            for &(start, len) in body.runs.runs() {
                w.put_pixels(&staged[start..start + len]);
            }
            w.freeze()
        }
    }
}

/// The words of a piece's head, then each rect with its body: its
/// header, codes, then each run's pixels straight from the image rows.
fn encode_rects(image: &Image, head: &[u32], rects: &[Rect]) -> Bytes {
    let bodies: Vec<Body> = rects.iter().map(|r| Body::of_rect(image, r)).collect();
    let size = 4 * head.len()
        + bodies
            .iter()
            .map(|b| BYTES_PER_RECT + b.len())
            .sum::<usize>();
    let mut w = MsgWriter::with_capacity(size);
    for &word in head {
        w.put_u32(word);
    }
    for (rect, body) in rects.iter().zip(&bodies) {
        w.put_rect(*rect);
        body.put_codes(&mut w);
        rect.for_row_segments(body.runs.runs().iter().copied(), |x, y, n| {
            w.put_pixels(image.row_span(x, y, n))
        });
    }
    debug_assert_eq!(w.len(), size, "gather piece size must be exact");
    w.freeze()
}

/// Writes one encoded piece into `out`, returning the pixel count it
/// covered (its domains' whole area). Every domain, code and length is
/// checked against the frame before a pixel is written.
fn apply_piece(out: &mut Image, bytes: Bytes) -> Checked<usize> {
    let mut r = MsgReader::new(bytes);
    let rects = match r.get_u32()? {
        KIND_NOTHING => 0,
        KIND_RECT => 1,
        KIND_RECTS => r.get_u32()?,
        KIND_SEQ => return apply_seq(out, r),
        _ => return Err(Malformed),
    };
    let frame = out.full_rect();
    let domains = (0..rects)
        .map(|_| read_rect_domain(&mut r, &frame))
        .collect::<Checked<Vec<_>>>()?;
    r.finish()?;
    let mut covered = 0;
    for (rect, rle, wire) in domains {
        out.write_runs_wire(&rect, rle.non_blank_runs(), &wire);
        covered += rect.area();
    }
    Ok(covered)
}

/// One received rect domain: the rect, its runs and their pixels' wire
/// bytes, checked — the rect inside the frame, the runs inside the rect,
/// every announced pixel present.
fn read_rect_domain(r: &mut MsgReader, frame: &Rect) -> Checked<(Rect, MaskRle, Bytes)> {
    let rect = read_rect(r, frame)?;
    let (rle, total) = read_runs(r, rect.area())?;
    Ok((rect, rle, r.take_pixels(total)?))
}

/// Reads the rest of a sequence piece — start, stride, count, codes,
/// pixels — checks it whole against the frame and writes its runs into
/// `out`, one pixel at a time (the sequence visits the frame with a
/// stride). Returns the sequence's length.
fn apply_seq(out: &mut Image, mut r: MsgReader) -> Checked<usize> {
    let seq = StridedSeq {
        start: r.get_u32()? as usize,
        stride: r.get_u32()? as usize,
        count: r.get_u32()? as usize,
    };
    let last = seq.start as u64 + seq.count.saturating_sub(1) as u64 * seq.stride as u64;
    // A zero stride would write one pixel `count` times and count each
    // as covered.
    Malformed::unless(seq.stride >= 1 && (seq.count == 0 || last < out.area() as u64))?;
    let (rle, total) = read_runs(&mut r, seq.count)?;
    let mut pixels = Vec::new();
    r.get_pixels_into(total, &mut pixels)?;
    r.finish()?;
    let width = out.width() as usize;
    let positions = rle
        .non_blank_runs()
        .flat_map(|(start, len)| start..start + len);
    for (i, p) in positions.zip(pixels) {
        let idx = seq.index(i);
        out.set((idx % width) as u16, (idx / width) as u16, p);
    }
    Ok(seq.count)
}

/// A gathered image that may be missing contributions from dead ranks.
#[derive(Debug, Clone)]
pub struct GatheredImage {
    /// The assembled image; regions owned by dead ranks stay blank.
    pub image: Image,
    /// Ranks whose pieces never arrived (dead or disconnected).
    pub missing_ranks: Vec<usize>,
    /// Pixels actually written by surviving pieces.
    pub covered_pixels: usize,
}

impl GatheredImage {
    /// Fraction of the image covered by surviving pieces, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.image.area() == 0 {
            1.0
        } else {
            self.covered_pixels as f64 / self.image.area() as f64
        }
    }
}

/// The root's side of both gathers: a blank frame, every piece that
/// arrived written into it, the pixels those pieces covered and the
/// ranks whose slot is empty.
fn assemble(
    frame: &Image,
    slots: impl IntoIterator<Item = Option<bytes::Bytes>>,
) -> Result<GatheredImage, CompositeError> {
    let mut gathered = GatheredImage {
        image: Image::blank(frame.width(), frame.height()),
        missing_ranks: Vec::new(),
        covered_pixels: 0,
    };
    for (rank, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(bytes) => {
                gathered.covered_pixels +=
                    apply_piece(&mut gathered.image, bytes).map_err(|m| m.at("gather", rank))?;
            }
            None => gathered.missing_ranks.push(rank),
        }
    }
    Ok(gathered)
}

/// Sends this rank's owned piece to `root` and, at the root, assembles
/// the final image from all pieces. Returns `Some(image)` at the root.
///
/// Panics if the gather fails or the pieces do not tile the image —
/// use [`gather_image_tolerant`] when ranks may have died.
pub fn gather_image(
    ep: &mut Endpoint,
    image: &Image,
    piece: &OwnedPiece,
    root: usize,
) -> Option<Image> {
    let payload = encode_piece(image, piece);
    let all =
        gather(ep, root, tags::GATHER, payload).unwrap_or_else(|e| panic!("gather failed: {e}"))?;
    let gathered =
        assemble(image, all.into_iter().map(Some)).unwrap_or_else(|e| panic!("gather failed: {e}"));
    assert!(gathered.missing_ranks.is_empty());
    assert_eq!(
        gathered.covered_pixels,
        gathered.image.area(),
        "gathered pieces must tile the image exactly"
    );
    Some(gathered.image)
}

/// Fault-tolerant gather: like [`gather_image`] but a dead contributor
/// leaves a hole instead of panicking. Returns `Some` only at the root;
/// a dead root means nobody assembles (`Ok(None)` everywhere).
pub fn gather_image_tolerant(
    ep: &mut Endpoint,
    image: &Image,
    piece: &OwnedPiece,
    root: usize,
) -> Result<Option<GatheredImage>, CompositeError> {
    let payload = encode_piece(image, piece);
    let all = gather_tolerant(ep, root, tags::GATHER, payload).map_err(|e| {
        if e.is_self_killed() {
            CompositeError::Killed { rank: ep.rank() }
        } else {
            CompositeError::Comm {
                during: "gather",
                source: e,
            }
        }
    })?;
    all.map(|slots| assemble(image, slots)).transpose()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_comm::{run_group, CostModel};

    #[test]
    fn gather_rect_pieces() {
        let out = run_group(4, CostModel::free(), |ep| {
            let mut img = Image::blank(8, 8);
            // Each rank owns two rows and paints them with its rank value.
            let rect = Rect::new(0, ep.rank() as u16 * 2, 8, ep.rank() as u16 * 2 + 2);
            for (x, y) in rect.iter() {
                img.set(x, y, Pixel::gray(ep.rank() as f32 / 4.0, 1.0));
            }
            gather_image(ep, &img, &OwnedPiece::Rect(rect), 0)
        });
        let img = out.results[0].as_ref().unwrap();
        assert_eq!(img.get(3, 0).r, 0.0);
        assert_eq!(img.get(3, 2).r, 0.25);
        assert_eq!(img.get(3, 7).r, 0.75);
        assert!(out.results[1].is_none());
    }

    #[test]
    fn gather_seq_pieces() {
        let out = run_group(2, CostModel::free(), |ep| {
            let mut img = Image::blank(4, 4);
            let seq = StridedSeq {
                start: ep.rank(),
                stride: 2,
                count: 8,
            };
            for idx in seq.iter() {
                img.pixels_mut()[idx] = Pixel::gray(1.0, (ep.rank() + 1) as f32 / 2.0);
            }
            gather_image(ep, &img, &OwnedPiece::Seq(seq), 0)
        });
        let img = out.results[0].as_ref().unwrap();
        for (i, p) in img.pixels().iter().enumerate() {
            let expect = if i % 2 == 0 { 0.5 } else { 1.0 };
            assert_eq!(p.a, expect, "pixel {i}");
        }
    }

    #[test]
    fn gather_full_frame_plus_nothing() {
        let out = run_group(3, CostModel::free(), |ep| {
            let mut img = Image::blank(4, 4);
            if ep.rank() == 1 {
                img.set(2, 2, Pixel::gray(0.9, 0.9));
            }
            let piece = if ep.rank() == 1 {
                OwnedPiece::Rect(img.full_rect())
            } else {
                OwnedPiece::Nothing
            };
            gather_image(ep, &img, &piece, 1)
        });
        let img = out.results[1].as_ref().unwrap();
        assert_eq!(img.get(2, 2), Pixel::gray(0.9, 0.9));
        assert!(out.results[0].is_none() && out.results[2].is_none());
    }

    #[test]
    #[should_panic(expected = "tile the image exactly")]
    fn gather_detects_coverage_gap() {
        let _ = run_group(2, CostModel::free(), |ep| {
            let img = Image::blank(4, 4);
            // Both ranks claim only half of one row → under-coverage.
            let piece = OwnedPiece::Rect(Rect::new(0, ep.rank() as u16, 2, ep.rank() as u16 + 1));
            gather_image(ep, &img, &piece, 0)
        });
    }

    /// The same four row bands through the tolerant gather with rank 2
    /// killed before it sends: its slot is a hole, the other three land.
    #[test]
    fn tolerant_gather_leaves_a_dead_ranks_band_blank() {
        let options = vr_comm::GroupOptions {
            cost: CostModel::free(),
            faults: Some("kill=2@0".parse().unwrap()),
            ..Default::default()
        };
        let out = vr_comm::run_group_with(4, options, |ep| {
            let rect = Rect::new(0, ep.rank() as u16 * 2, 8, ep.rank() as u16 * 2 + 2);
            let mut img = Image::blank(8, 8);
            for (x, y) in rect.iter() {
                img.set(x, y, Pixel::gray(0.5, 1.0));
            }
            gather_image_tolerant(ep, &img, &OwnedPiece::Rect(rect), 0)
        });
        let got = out.results[0].as_ref().unwrap().as_ref().unwrap();
        assert_eq!(got.missing_ranks, vec![2]);
        assert_eq!(got.covered_pixels, 48);
        assert_eq!(got.coverage(), 0.75);
        assert_eq!(got.image.get(3, 3), Pixel::gray(0.5, 1.0));
        assert_eq!(got.image.get(3, 4), Pixel::BLANK);
        assert_eq!(got.image.get(3, 6), Pixel::gray(0.5, 1.0));
    }

    /// A gathered frame is the sent one bit for bit, through every piece
    /// kind: a pixel whose components are all `-0.0` is blank by value
    /// but not by bits, so a value-based scan would leave it behind and
    /// the root would read `+0.0`; NaN payloads and subnormals travel
    /// as they are.
    #[test]
    fn gather_keeps_every_bit_of_every_pixel() {
        let odd = [
            Pixel::new(-0.0, -0.0, -0.0, -0.0),
            Pixel::new(0.0, -0.0, 0.0, 0.0),
            Pixel::new(
                f32::from_bits(0x7fc0_1234),
                0.0,
                0.0,
                f32::from_bits(0xffa0_0001),
            ),
            Pixel::new(f32::from_bits(1), 0.0, f32::from_bits(0x8000_0003), 0.0),
            Pixel::gray(0.5, 0.75),
            Pixel::BLANK,
        ];
        let frame = Image::from_fn(8, 8, |x, y| odd[(x as usize * 3 + y as usize * 5) % 7 % 6]);
        let bits = |image: &Image| -> Vec<[u32; 4]> {
            let bits = |p: &Pixel| [p.r, p.g, p.b, p.a].map(f32::to_bits);
            image.pixels().iter().map(bits).collect()
        };
        let pieces = [
            [
                OwnedPiece::Rect(Rect::new(0, 0, 8, 5)),
                OwnedPiece::Rect(Rect::new(0, 5, 8, 8)),
            ],
            [
                OwnedPiece::Rects(vec![Rect::new(0, 0, 3, 8), Rect::new(3, 6, 8, 8)]),
                OwnedPiece::Rects(vec![Rect::new(3, 0, 8, 6)]),
            ],
            [
                OwnedPiece::Seq(StridedSeq {
                    start: 0,
                    stride: 2,
                    count: 32,
                }),
                OwnedPiece::Seq(StridedSeq {
                    start: 1,
                    stride: 2,
                    count: 32,
                }),
            ],
        ];
        for own in &pieces {
            let out = run_group(2, CostModel::free(), |ep| {
                gather_image(ep, &frame, &own[ep.rank()], 0)
            });
            let got = out.results[0].as_ref().unwrap();
            assert_eq!(bits(got), bits(&frame), "{own:?}");
        }
    }
}
