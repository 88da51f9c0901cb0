//! Final gather: assembling owned pieces into the full image at a root
//! rank (the sort-last system's display step).

use vr_comm::{gather, gather_tolerant, Endpoint};
use vr_image::{Image, StridedSeq};

use crate::error::{Checked, CompositeError, Malformed};
use crate::methods::spatial::read_rect_pixels;
use crate::methods::OwnedPiece;
use crate::schedule::tags;
use crate::wire::{MsgReader, MsgWriter};

const KIND_NOTHING: u32 = 0;
const KIND_RECT: u32 = 1;
const KIND_SEQ: u32 = 2;
// 3 was the binary tree's whole frame; retired, not reused.
const KIND_RECTS: u32 = 4;

/// Encodes a rank's owned piece (with its pixel data) for the gather,
/// in a payload allocated once at the piece's exact size; rect pixels
/// go straight from the image rows into it.
fn encode_piece(image: &Image, piece: &OwnedPiece) -> bytes::Bytes {
    const PX: usize = vr_image::BYTES_PER_PIXEL;
    let size = match piece {
        OwnedPiece::Nothing => 4,
        OwnedPiece::Rect(r) => 4 + 8 + r.area() * PX,
        OwnedPiece::Seq(seq) => 4 + 12 + seq.count * PX,
        OwnedPiece::Rects(rects) => 4 + 4 + rects.iter().map(|r| 8 + r.area() * PX).sum::<usize>(),
    };
    let mut w = MsgWriter::with_capacity(size);
    match piece {
        OwnedPiece::Nothing => w.put_u32(KIND_NOTHING),
        OwnedPiece::Rect(r) => {
            w.put_u32(KIND_RECT);
            w.put_rect(*r);
            w.put_image_rect(image, r);
        }
        OwnedPiece::Seq(seq) => {
            w.put_u32(KIND_SEQ);
            w.put_u32(seq.start as u32);
            w.put_u32(seq.stride as u32);
            w.put_u32(seq.count as u32);
            for idx in seq.iter() {
                w.put_pixel(image.pixels()[idx]);
            }
        }
        OwnedPiece::Rects(rects) => {
            w.put_u32(KIND_RECTS);
            w.put_u32(rects.len() as u32);
            for r in rects {
                w.put_rect(*r);
                w.put_image_rect(image, r);
            }
        }
    }
    debug_assert_eq!(w.len(), size, "gather piece size must be exact");
    w.freeze()
}

/// Writes one encoded piece into `out`, returning the pixel count it
/// covered. Rect pixels are decoded straight into `out`'s rows. Every
/// rectangle, sequence and length is checked against the frame before a
/// pixel is written.
fn apply_piece(out: &mut Image, bytes: bytes::Bytes) -> Checked<usize> {
    const PX: usize = vr_image::BYTES_PER_PIXEL;
    let mut r = MsgReader::new(bytes);
    let covered = match r.get_u32()? {
        KIND_NOTHING => 0,
        KIND_RECT => apply_rect(out, &mut r)?,
        KIND_SEQ => {
            let seq = StridedSeq {
                start: r.get_u32()? as usize,
                stride: r.get_u32()? as usize,
                count: r.get_u32()? as usize,
            };
            let last = seq.start as u64 + seq.count.saturating_sub(1) as u64 * seq.stride as u64;
            // A zero stride would write one pixel `count` times and
            // count each as covered.
            Malformed::unless(
                r.remaining() == seq.count * PX
                    && (seq.count == 0 || last < out.area() as u64)
                    && (seq.count <= 1 || seq.stride >= 1),
            )?;
            for idx in seq.iter() {
                out.pixels_mut()[idx] = r.get_pixel()?;
            }
            seq.count
        }
        KIND_RECTS => {
            let count = r.get_u32()? as usize;
            let mut covered = 0;
            for _ in 0..count {
                covered += apply_rect(out, &mut r)?;
            }
            covered
        }
        _ => return Err(Malformed),
    };
    r.finish()?;
    Ok(covered)
}

/// Reads one `rect + pixels` record and writes it into `out`.
fn apply_rect(out: &mut Image, r: &mut MsgReader) -> Checked<usize> {
    let (rect, wire) = read_rect_pixels(r, &out.full_rect())?;
    if !rect.is_empty() {
        out.write_rect_wire(&rect, &wire);
    }
    Ok(rect.area())
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
    use vr_image::{Pixel, Rect};

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
}
