//! Final gather: assembling owned pieces into the full image at a root
//! rank (the sort-last system's display step).
//!
//! A piece travels sparse, like a BSBRC message: every domain it owns —
//! a [`Rect`], each rect of a tile owner's set, or BSLC's
//! [`StridedSeq`] — is its header, then the run body every sparse
//! message shares ([`RunBody`]): a `u32` code count, the [`MaskRle`]
//! codes over the domain and then only the domain's non-blank pixels,
//! 16 bytes each. A dense domain of `a` pixels costs
//! `4 + 4·⌈a/65535⌉` bytes more than its raw pixels; a blank one costs
//! its header and 4 bytes.
//!
//! Blank is [`Pixel::is_blank`] ([`Image::runs_into`] for a rect,
//! [`kernel::scan_runs_into`] pixel by pixel for a sequence): only a
//! bitwise [`Pixel::BLANK`] stays behind, so a `-0.0`, NaN-payload or
//! subnormal pixel travels and the gathered frame is the composited one
//! bit for bit. The root starts from a blank frame, made before the
//! gather, and writes each piece as it arrives, only its runs, so the
//! frame's extent covers only the rows that received pixels; it still
//! counts a piece's whole domain as covered.
//!
//! [`MaskRle`]: vr_image::MaskRle
//! [`Pixel::BLANK`]: vr_image::Pixel::BLANK
//! [`Pixel::is_blank`]: vr_image::Pixel::is_blank

use bytes::Bytes;
use vr_comm::{gather_tolerant, Endpoint};
use vr_image::body::RunBody;
use vr_image::rect::BYTES_PER_RECT;
use vr_image::{kernel, Image, MaskRle, Rect, StridedSeq};

use crate::error::{Checked, CompositeError, Malformed};
use crate::methods::spatial::read_rect;
use crate::methods::OwnedPiece;
use crate::schedule::tags;
use crate::wire::{MsgReader, MsgWriter};

const KIND_NOTHING: u32 = 0;
const KIND_RECT: u32 = 1;
const KIND_SEQ: u32 = 2;
// 3 was the binary tree's whole frame; retired, not reused.
const KIND_RECTS: u32 = 4;

/// Encodes a rank's owned piece for the gather, in a payload allocated
/// once at its exact size.
fn encode_piece(image: &Image, piece: &OwnedPiece) -> Bytes {
    match piece {
        OwnedPiece::Nothing => encode_rects(image, &[KIND_NOTHING], &[]),
        OwnedPiece::Rect(rect) => encode_rects(image, &[KIND_RECT], std::slice::from_ref(rect)),
        OwnedPiece::Rects(rects) => encode_rects(image, &[KIND_RECTS, rects.len() as u32], rects),
        OwnedPiece::Seq(seq) => {
            // A strided sequence is not a row span: it is scanned in
            // place at its stride, one pixel at a time (`RunSet::push`
            // joins neighbours into runs), and written the same way.
            let pixels = image.pixels();
            let mut body = RunBody::default();
            let len = body.scan(seq.count, |runs| {
                for (i, idx) in seq.iter().enumerate() {
                    kernel::scan_runs_into(std::slice::from_ref(&pixels[idx]), i, runs);
                }
            });
            let mut w = MsgWriter::with_capacity(4 + 12 + len);
            w.put_u32(KIND_SEQ);
            for word in [seq.start, seq.stride, seq.count] {
                w.put_u32(word as u32);
            }
            body.put_seq(w.payload(), pixels, *seq);
            w.freeze()
        }
    }
}

/// The words of a piece's head, then each rect with its body.
fn encode_rects(image: &Image, head: &[u32], rects: &[Rect]) -> Bytes {
    let bodies: Vec<RunBody> = rects
        .iter()
        .map(|rect| {
            let mut body = RunBody::default();
            body.scan(rect.area(), |runs| image.runs_into(rect, runs));
            body
        })
        .collect();
    let size = 4 * head.len()
        + bodies
            .iter()
            .map(|body| BYTES_PER_RECT + body.wire_len())
            .sum::<usize>();
    let mut w = MsgWriter::with_capacity(size);
    for &word in head {
        w.put_u32(word);
    }
    for (rect, body) in rects.iter().zip(&bodies) {
        w.put_rect(*rect);
        body.put_rect(w.payload(), image, rect);
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
    let (rle, total) = r.get_body(rect.area())?;
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
    let (rle, total) = r.get_body(seq.count)?;
    let wire = r.take_pixels(total)?;
    r.finish()?;
    let width = out.width() as usize;
    let positions = rle
        .non_blank_runs()
        .flat_map(|(start, len)| start..start + len);
    for (i, p) in positions.zip(kernel::decode(&wire)) {
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

/// Sends this rank's owned piece to `root` and, at the root, assembles
/// the final image from every piece that arrived; a dead contributor
/// leaves a hole, reported in [`GatheredImage::missing_ranks`] and
/// [`GatheredImage::coverage`]. Returns `Some` only at the root; a dead
/// root means nobody assembles (`Ok(None)` everywhere). The root makes
/// its blank frame before its first receive.
pub fn gather_image_tolerant(
    ep: &mut Endpoint,
    image: &Image,
    piece: &OwnedPiece,
    root: usize,
) -> Result<Option<GatheredImage>, CompositeError> {
    gather_into(ep, image, piece, root, None)
}

/// [`gather_image_tolerant`] into `out`, a blank frame of `image`'s size
/// the root made earlier (one is made here if it passes none). The root
/// writes each piece into it as it arrives, in rank order. A receive
/// error beats a malformed piece: after the first malformed piece the
/// rest are still received, so every rank's traffic is what a clean
/// gather's is, but no longer written.
pub(crate) fn gather_into(
    ep: &mut Endpoint,
    image: &Image,
    piece: &OwnedPiece,
    root: usize,
    out: Option<Image>,
) -> Result<Option<GatheredImage>, CompositeError> {
    let payload = encode_piece(image, piece);
    let mut gathered = (ep.rank() == root).then(|| {
        let frame = out.unwrap_or_else(|| Image::blank(image.width(), image.height()));
        assert!(
            (frame.width(), frame.height()) == (image.width(), image.height())
                && frame.extent().is_empty(),
            "the root assembles into a blank frame of the image's size"
        );
        GatheredImage {
            image: frame,
            missing_ranks: Vec::new(),
            covered_pixels: 0,
        }
    });
    let mut malformed = None;
    let slot = |rank: usize, slot: Option<Bytes>| {
        let Some(gathered) = gathered.as_mut().filter(|_| malformed.is_none()) else {
            return;
        };
        match slot {
            Some(bytes) => match apply_piece(&mut gathered.image, bytes) {
                Ok(covered) => gathered.covered_pixels += covered,
                Err(m) => malformed = Some(m.at("gather", rank)),
            },
            None => gathered.missing_ranks.push(rank),
        }
    };
    gather_tolerant(ep, root, tags::GATHER, payload, slot)
        .map_err(|e| CompositeError::from_comm("gather", e))?;
    match malformed {
        Some(error) => Err(error),
        None => Ok(gathered),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::testutil::gather_exact;
    use vr_comm::{run_group, CostModel};
    use vr_image::Pixel;

    #[test]
    fn gather_rect_pieces() {
        let out = run_group(4, CostModel::free(), |ep| {
            let mut img = Image::blank(8, 8);
            // Each rank owns two rows and paints them with its rank value.
            let rect = Rect::new(0, ep.rank() as u16 * 2, 8, ep.rank() as u16 * 2 + 2);
            for (x, y) in rect.iter() {
                img.set(x, y, Pixel::gray(ep.rank() as f32 / 4.0, 1.0));
            }
            gather_exact(ep, &img, &OwnedPiece::Rect(rect), 0)
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
            gather_exact(ep, &img, &OwnedPiece::Seq(seq), 0)
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
            gather_exact(ep, &img, &piece, 1)
        });
        let img = out.results[1].as_ref().unwrap();
        assert_eq!(img.get(2, 2), Pixel::gray(0.9, 0.9));
        assert!(out.results[0].is_none() && out.results[2].is_none());
    }

    #[test]
    fn gather_detects_coverage_gap() {
        let out = run_group(2, CostModel::free(), |ep| {
            let img = Image::blank(4, 4);
            // Both ranks claim only half of one row → under-coverage.
            let piece = OwnedPiece::Rect(Rect::new(0, ep.rank() as u16, 2, ep.rank() as u16 + 1));
            gather_image_tolerant(ep, &img, &piece, 0).unwrap()
        });
        let got = out.results[0].as_ref().expect("root assembles");
        assert!(got.missing_ranks.is_empty());
        assert_eq!(got.covered_pixels, 4);
        assert_eq!(got.coverage(), 0.25);
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

    /// The streamed assembly is the schedule's to reorder, not to change:
    /// a BSBRC frame at P = 6, clean and with rank 3 killed before it
    /// sends anything, gives one image, hole list, coverage and traffic
    /// under the real clock and under five schedule seeds.
    #[test]
    fn a_streamed_frame_is_the_same_under_every_schedule() {
        use crate::methods::testutil::test_images;
        use crate::methods::Method;
        use crate::runner::composite_frame;
        use vr_comm::{GroupOptions, ScheduleSpec};
        use vr_image::checksum::fnv1a;
        use vr_volume::DepthOrder;

        let images = test_images(6, 24, 20);
        let depth = DepthOrder::identity(6);
        for kill in [None, Some("kill=3@0")] {
            let outcome = |schedule: Option<ScheduleSpec>| {
                let options = GroupOptions {
                    cost: CostModel::free(),
                    faults: kill.map(|k| k.parse().unwrap()),
                    schedule,
                    ..Default::default()
                };
                let run = composite_frame(Method::Bsbrc, &images, &depth, options);
                let got = run.gathered.expect("the root assembles");
                let image = fnv1a(&got.image);
                (image, got.missing_ranks, got.covered_pixels, run.traffic)
            };
            let real = outcome(None);
            let holes: &[usize] = if kill.is_some() { &[3] } else { &[] };
            assert_eq!(real.1, holes);
            for seed in 1..=5 {
                let seeded = outcome(Some(ScheduleSpec::seeded(seed)));
                assert_eq!(seeded, real, "{kill:?} seed {seed}");
            }
        }
    }

    /// A receive error beats a malformed piece, and a malformed piece
    /// stops no receive. Rank 1 sends a piece of no known kind; rank 2
    /// then either sends an honest piece — the gather reports rank 1's
    /// piece, after reading both — or stays alive and silent past the
    /// root's deadline, and the gather reports the timeout.
    #[test]
    fn a_timeout_after_a_malformed_piece_is_the_gathers_error() {
        use vr_comm::{CommError, GroupOptions, ScheduleSpec};
        let frame = Image::blank(8, 8);
        let unknown_kind = Bytes::from_static(&[9, 0, 0, 0]);
        for silent in [false, true] {
            let options = GroupOptions {
                cost: CostModel::free(),
                recv_deadline: std::time::Duration::from_millis(50),
                schedule: Some(ScheduleSpec::seeded(3)),
                ..Default::default()
            };
            let out = vr_comm::run_group_with(3, options, |ep| match ep.rank() {
                0 => gather_image_tolerant(ep, &frame, &OwnedPiece::Nothing, 0).map(|_| ()),
                1 => {
                    ep.send(0, tags::GATHER, unknown_kind.clone()).unwrap();
                    Ok(())
                }
                _ if silent => {
                    // Two deadlines: alive until the root's has passed.
                    for _ in 0..2 {
                        ep.recv(0, tags::GATHER).ok();
                    }
                    Ok(())
                }
                _ => {
                    let piece = OwnedPiece::Rect(Rect::new(0, 0, 8, 8));
                    gather_image_tolerant(ep, &frame, &piece, 0).map(|_| ())
                }
            });
            let root = &out.results[0];
            if silent {
                assert!(
                    matches!(
                        root,
                        Err(CompositeError::Comm {
                            during: "gather",
                            source: CommError::Timeout { from: 2, .. },
                        })
                    ),
                    "{root:?}"
                );
            } else {
                let malformed = CompositeError::Malformed {
                    during: "gather",
                    from: 1,
                };
                assert_eq!(root, &Err(malformed));
                assert_eq!(out.stats[0].recv_messages, 2, "both pieces are read");
            }
        }
    }

    /// A gathered frame is the sent one bit for bit, through every piece
    /// kind: a pixel whose components are all `-0.0` is not blank, so it
    /// travels rather than being read back as `+0.0` at the root; NaN
    /// payloads and subnormals travel as they are.
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
                gather_exact(ep, &frame, &own[ep.rank()], 0)
            });
            let got = out.results[0].as_ref().unwrap();
            assert_eq!(bits(got), bits(&frame), "{own:?}");
        }
    }
}
