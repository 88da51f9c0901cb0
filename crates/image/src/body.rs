//! The paper's sparse message body over one domain (BSLC, Section 3.3;
//! BSBRC, Section 3.4): a `u32` code count, the 2-byte run codes of the
//! domain's blank/non-blank mask, then only the non-blank pixels in a
//! [`PixelLayout`]: 16 bytes each in every stage message and the gather
//! ([`PixelLayout::Rgba`]), 8 in a served frame whose non-blank pixels
//! are all gray ([`PixelLayout::Gray`], the paper's intensity and
//! opacity; [`RunBody::layout_of`] picks it).
//!
//! [`RunBody`] is its one writer and [`read_body`] its one checked
//! reader. Every sparse message in the workspace goes through them: the
//! compositing stages' parts, BSLC's halves, TSTREAM's tiles, the
//! gather's domains and the served frame. Both work on plain bytes (a
//! `Vec<u8>` out, a slice in), so each crate's own cursor calls them and
//! maps [`BodyError`] into its own error type.
//!
//! The writer's scan, handed to [`RunBody::scan`], is
//! [`Image::runs_into`] for a rect and [`kernel::scan_runs_into`] at a
//! stride for a sequence: blank is bitwise [`Pixel::BLANK`]
//! ([`Pixel::is_blank`]), so a body restores its domain bit for bit.
//! The reader needs no rule: a body is refused when its codes together
//! cover more than the domain or when a pixel they announce is missing
//! at the layout's width.
//!
//! [`kernel::scan_runs_into`]: crate::kernel::scan_runs_into

use crate::image::Image;
use crate::interleave::StridedSeq;
use crate::pixel::{Pixel, PixelLayout, BYTES_PER_PIXEL};
use crate::rect::Rect;
use crate::rle::{MaskRle, RunSet, BYTES_PER_RUN_CODE};

/// Bytes of the code count in front of the codes.
const COUNT_BYTES: usize = 4;

/// A domain's runs and their codes, ready to write. The run table and
/// the code buffer are reused from scan to scan.
#[derive(Debug, Default)]
pub struct RunBody {
    runs: RunSet,
    codes: Vec<u16>,
}

impl RunBody {
    /// Replaces the runs with what `scan` finds over a domain of `domain`
    /// positions, codes them and returns the body's exact wire length in
    /// the RGBA layout of every stage message, so a payload is allocated
    /// once.
    pub fn scan(&mut self, domain: usize, scan: impl FnOnce(&mut RunSet)) -> usize {
        self.runs.clear();
        scan(&mut self.runs);
        self.runs.encode_codes_into(domain, &mut self.codes);
        self.wire_len(PixelLayout::Rgba)
    }

    /// The non-blank runs, in domain positions.
    pub fn runs(&self) -> &RunSet {
        &self.runs
    }

    /// Run codes in the header.
    pub fn codes(&self) -> usize {
        self.codes.len()
    }

    /// Non-blank pixels in the body.
    pub fn non_blank(&self) -> usize {
        self.runs.non_blank_total()
    }

    /// Wire bytes: the code count, the codes and the non-blank pixels
    /// in `layout`.
    pub fn wire_len(&self, layout: PixelLayout) -> usize {
        COUNT_BYTES + self.codes.len() * BYTES_PER_RUN_CODE + self.non_blank() * layout.bytes()
    }

    /// The narrowest layout that carries the runs' pixels of the domain
    /// `rect` of `image` bit for bit: [`PixelLayout::Gray`] when every
    /// one of them [`Pixel::is_gray`], else [`PixelLayout::Rgba`].
    pub fn layout_of(&self, image: &Image, rect: &Rect) -> PixelLayout {
        let mut gray = true;
        rect.for_row_segments(self.runs.runs().iter().copied(), |x, y, n| {
            gray &= image.row_span(x, y, n).iter().all(Pixel::is_gray)
        });
        if gray {
            PixelLayout::Gray
        } else {
            PixelLayout::Rgba
        }
    }

    /// Appends the body of the domain `rect` of `image`: the header, then
    /// each run's pixels straight from the image rows, in `layout` (a
    /// gray one only where [`RunBody::layout_of`] allows it).
    pub fn put_rect(&self, w: &mut Vec<u8>, image: &Image, rect: &Rect, layout: PixelLayout) {
        self.put_header(w, layout);
        rect.for_row_segments(self.runs.runs().iter().copied(), |x, y, n| {
            let span = image.row_span(x, y, n);
            match layout {
                PixelLayout::Rgba => put_pixels(w, span),
                PixelLayout::Gray => put_le(w, span, |p| p.to_gray_le_bytes()),
            }
        });
    }

    /// Appends the body of the sequence `seq` over `pixels`: the header,
    /// then each run's pixels read at the sequence's stride (BSLC's
    /// halves and the gather's sequence piece).
    pub fn put_seq(&self, w: &mut Vec<u8>, pixels: &[Pixel], seq: StridedSeq) {
        self.put_header(w, PixelLayout::Rgba);
        for &(start, len) in self.runs.runs() {
            let run = pixels[seq.index(start)..].iter().step_by(seq.stride);
            for p in run.take(len) {
                w.extend_from_slice(&p.to_le_bytes());
            }
        }
    }

    /// The one writer of the run-code header: the count, then the codes.
    /// It reserves the whole body in `layout` first.
    fn put_header(&self, w: &mut Vec<u8>, layout: PixelLayout) {
        w.reserve(self.wire_len(layout));
        w.extend_from_slice(&(self.codes.len() as u32).to_le_bytes());
        put_le(w, &self.codes, |c| c.to_le_bytes());
    }
}

/// Appends pixels, 16 bytes each in [`Pixel::to_le_bytes`] layout.
pub fn put_pixels(w: &mut Vec<u8>, pixels: &[Pixel]) {
    put_le(w, pixels, |p| p.to_le_bytes());
}

/// Writes pixels over `slots`, which must be exactly `16 · pixels.len()`
/// bytes: [`put_pixels`] into a payload already sized.
pub fn write_pixels(slots: &mut [u8], pixels: &[Pixel]) {
    assert_eq!(slots.len(), pixels.len() * BYTES_PER_PIXEL);
    write_le(slots, pixels, |p| p.to_le_bytes());
}

/// Appends `items`, `N` little-endian bytes each: the buffer grows once
/// and every item is serialised in place.
fn put_le<T, const N: usize>(w: &mut Vec<u8>, items: &[T], to_le: impl Fn(&T) -> [u8; N]) {
    let start = w.len();
    w.resize(start + items.len() * N, 0);
    write_le(&mut w[start..], items, to_le);
}

/// Serialises `items` into consecutive `N`-byte slots. (Fixed-size slots
/// keep the loop a plain vectorisable copy; an `extend` over a flattened
/// iterator writes byte by byte.)
fn write_le<T, const N: usize>(slots: &mut [u8], items: &[T], to_le: impl Fn(&T) -> [u8; N]) {
    for (slot, item) in slots.chunks_exact_mut(N).zip(items) {
        slot.copy_from_slice(&to_le(item));
    }
}

/// A received body's header, checked against its domain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BodyHeader {
    /// The run codes; their non-blank runs lie inside the domain.
    pub runs: MaskRle,
    /// Non-blank pixels the codes announce; all of them follow the header.
    pub non_blank: usize,
    /// Header bytes: the code count and the codes.
    pub len: usize,
}

/// Why [`read_body`] refused a body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BodyError {
    /// The bytes end inside the code count.
    CountCut,
    /// The codes are not all present, cover more than the domain, or
    /// announce pixels that are not all present.
    BadLength,
}

/// Reads the header of the body at the front of `wire` over a domain of
/// `domain` positions, its pixels laid out as `layout`. Every code and
/// every announced pixel (at `layout.bytes()` each) is checked present,
/// and the codes' coverage against `domain`, before anything is
/// allocated.
pub fn read_body(wire: &[u8], domain: usize, layout: PixelLayout) -> Result<BodyHeader, BodyError> {
    let count = wire.get(..COUNT_BYTES).ok_or(BodyError::CountCut)?;
    let count = u32::from_le_bytes(count.try_into().expect("four bytes")) as usize;
    let codes = count
        .checked_mul(BYTES_PER_RUN_CODE)
        .and_then(|n| wire[COUNT_BYTES..].get(..n))
        .ok_or(BodyError::BadLength)?;
    let len = COUNT_BYTES + codes.len();
    let codes = || {
        codes
            .chunks_exact(BYTES_PER_RUN_CODE)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
    };
    let (mut covered, mut non_blank) = (0, 0);
    for (i, code) in codes().enumerate() {
        covered += code as usize;
        non_blank += (i % 2) * code as usize;
    }
    let pixels = wire.len() - len;
    if covered > domain || non_blank > pixels / layout.bytes() {
        return Err(BodyError::BadLength);
    }
    Ok(BodyHeader {
        runs: MaskRle::from_codes(codes().collect()),
        non_blank,
        len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::StridedSeq;
    use crate::kernel;

    /// A body over `domain` positions holding `runs`.
    fn body_of(domain: usize, runs: &[(usize, usize)]) -> RunBody {
        let mut body = RunBody::default();
        body.scan(domain, |table| {
            for &(start, len) in runs {
                table.push(start, len);
            }
        });
        body
    }

    /// Writes `body` with `px`, its non-blank pixels in run order, laid
    /// at the runs' positions of an otherwise blank dense domain.
    fn put_spread(body: &RunBody, w: &mut Vec<u8>, domain: usize, px: &[Pixel]) {
        let mut dense = vec![Pixel::BLANK; domain];
        let positions = body.runs().runs().iter().flat_map(|&(s, l)| s..s + l);
        for (i, &p) in positions.zip(px) {
            dense[i] = p;
        }
        body.put_seq(w, &dense, StridedSeq::dense(domain));
    }

    /// The pixels a checked header announces, decoded from what follows
    /// it in `layout`.
    fn pixels_after(wire: &[u8], header: &BodyHeader, layout: PixelLayout) -> Vec<Pixel> {
        let mut pixels = vec![Pixel::BLANK; header.non_blank];
        let raw = &wire[header.len..][..header.non_blank * layout.bytes()];
        kernel::copy_slice_wire(&mut pixels, raw, layout);
        pixels
    }

    /// Puts `body` through `put`, requires exactly [`RunBody::wire_len`]
    /// bytes in `layout` and reads them back as a receiver does: the
    /// runs, checked against a domain of `domain` positions, then the
    /// pixels they announce.
    fn round_trip(
        body: &RunBody,
        domain: usize,
        layout: PixelLayout,
        put: impl FnOnce(&mut Vec<u8>),
    ) -> (MaskRle, Vec<Pixel>) {
        let mut wire = Vec::new();
        put(&mut wire);
        assert_eq!(
            wire.len(),
            body.wire_len(layout),
            "the body's length is exact"
        );
        let header = read_body(&wire, domain, layout).unwrap();
        assert_eq!(header.non_blank, body.non_blank());
        assert_eq!(header.len + header.non_blank * layout.bytes(), wire.len());
        let pixels = pixels_after(&wire, &header, layout);
        (header.runs, pixels)
    }

    #[test]
    fn bulk_pixel_and_code_round_trip() {
        // Runs of every length 1..=135 behind gaps of 0..=4 (a zero gap
        // joins two runs), past 65535 positions so a gap splits; pixel
        // values that exercise every byte of the encoding.
        let (mut runs, mut at) = (Vec::new(), 0);
        for len in 1..=135 {
            at += len % 5;
            runs.push((at, len));
            at += len;
        }
        runs.push((at + 70_000, 3));
        let domain = at + 70_010;
        let body = body_of(domain, &runs);
        let px: Vec<Pixel> = (0..body.non_blank())
            .map(|i| Pixel::from_straight(i as f32 * 0.01, 0.5, 1.0 - i as f32 * 0.001, 0.75))
            .collect();
        let (rle, got) = round_trip(&body, domain, PixelLayout::Rgba, |w| {
            put_spread(&body, w, domain, &px)
        });
        assert_eq!(rle.codes(), &body.codes[..]);
        assert!(rle.non_blank_runs().eq(body.runs().runs().iter().copied()));
        assert_eq!(got, px);
        assert_eq!(
            body.wire_len(PixelLayout::Rgba),
            4 + body.codes() * 2 + px.len() * 16
        );
        assert_eq!(
            body.wire_len(PixelLayout::Gray),
            4 + body.codes() * 2 + px.len() * 8
        );
    }

    /// Pixels only the bits tell apart from blank, beside ordinary ones.
    fn odd_frame() -> Image {
        let odd = [
            Pixel::new(-0.0, -0.0, -0.0, -0.0),
            Pixel::new(f32::from_bits(0x7fc0_1234), 0.0, 0.0, 0.0),
            Pixel::new(f32::from_bits(1), 0.0, -0.0, 0.0),
            Pixel::gray(0.5, 0.75),
            Pixel::BLANK,
            Pixel::BLANK,
        ];
        Image::from_fn(11, 7, |x, y| odd[(x as usize * 5 + y as usize * 3) % 6])
    }

    /// [`odd_frame`] with every pixel gray: `-0.0`, NaN-payload and
    /// subnormal intensities and opacities.
    fn odd_gray_frame() -> Image {
        let odd = [
            Pixel::gray(-0.0, -0.0),
            Pixel::gray(f32::from_bits(0x7fc0_1234), 0.0),
            Pixel::gray(f32::from_bits(1), f32::from_bits(0x8000_0001)),
            Pixel::gray(0.5, 0.75),
            Pixel::BLANK,
            Pixel::BLANK,
        ];
        Image::from_fn(11, 7, |x, y| odd[(x as usize * 5 + y as usize * 3) % 6])
    }

    fn bits(p: Pixel) -> [u8; 16] {
        p.to_le_bytes()
    }

    /// A rect's body: the runs put the pixels back where they were, bit
    /// for bit — `-0.0`, NaN-payload and subnormal pixels are not blank
    /// and travel — and what they leave out is [`Pixel::BLANK`].
    ///
    /// A gray image's body picks the gray layout and restores it in 8
    /// bytes a pixel just as exactly; an image with one pixel that is
    /// not gray keeps RGBA, and RGBA carries any image.
    #[test]
    fn a_rect_body_restores_its_pixels_bit_for_bit() {
        let (odd, gray) = (odd_frame(), odd_gray_frame());
        for rect in [odd.full_rect(), Rect::new(2, 1, 9, 6), Rect::EMPTY] {
            for (image, layout) in [
                (&odd, PixelLayout::Rgba),
                (&gray, PixelLayout::Gray),
                (&gray, PixelLayout::Rgba),
            ] {
                let mut body = RunBody::default();
                body.scan(rect.area(), |runs| image.runs_into(&rect, runs));
                let picked = if rect.is_empty() || std::ptr::eq(image, &gray) {
                    PixelLayout::Gray
                } else {
                    PixelLayout::Rgba
                };
                assert_eq!(body.layout_of(image, &rect), picked, "{rect:?}");
                let (rle, pixels) = round_trip(&body, rect.area(), layout, |w| {
                    body.put_rect(w, image, &rect, layout)
                });
                let mut wire = Vec::new();
                put_pixels(&mut wire, &pixels);
                let mut restored = Image::blank(11, 7);
                restored.write_runs_wire(&rect, rle.non_blank_runs(), &wire, PixelLayout::Rgba);
                for (x, y) in rect.iter() {
                    let (want, got) = (image.get(x, y), restored.get(x, y));
                    assert_eq!(bits(got), bits(want), "({x}, {y}) in {rect:?}");
                }
            }
        }
    }

    /// A strided sequence's body, scanned in place and written at its
    /// stride, restores the sequence bit for bit.
    #[test]
    fn a_strided_sequence_body_restores_its_pixels() {
        let image = odd_frame();
        for (start, stride, count) in [(1, 3, 25), (0, 1, 77), (5, 8, 9), (2, 4, 0)] {
            let seq = StridedSeq {
                start,
                stride,
                count,
            };
            let mut body = RunBody::default();
            body.scan(seq.count, |runs| {
                for (i, idx) in seq.iter().enumerate() {
                    kernel::scan_runs_into(std::slice::from_ref(&image.pixels()[idx]), i, runs);
                }
            });
            let (rle, pixels) = round_trip(&body, seq.count, PixelLayout::Rgba, |w| {
                body.put_seq(w, image.pixels(), seq)
            });
            let mut restored = vec![Pixel::BLANK; seq.count];
            let positions = rle.non_blank_runs().flat_map(|(s, l)| s..s + l);
            for (i, p) in positions.zip(pixels) {
                restored[i] = p;
            }
            let staged = seq.iter().map(|i| image.pixels()[i]);
            assert!(
                restored
                    .iter()
                    .zip(staged)
                    .all(|(a, b)| bits(*a) == bits(b)),
                "{seq:?}"
            );
        }
    }

    /// A body cut at every length, in either layout: inside the count it
    /// is `CountCut`, past it `BadLength`; whole, it reads, and a byte
    /// past its pixels is the caller's to refuse.
    #[test]
    fn a_body_cut_at_every_length_is_refused() {
        let lit = Pixel::gray(0.5, 0.25);
        let image = Image::from_fn(40, 1, |x, _| {
            if [3, 4, 30].contains(&x) {
                lit
            } else {
                Pixel::BLANK
            }
        });
        let rect = image.full_rect();
        let mut body = RunBody::default();
        body.scan(40, |runs| image.runs_into(&rect, runs));
        for layout in [PixelLayout::Rgba, PixelLayout::Gray] {
            let mut wire = Vec::new();
            body.put_rect(&mut wire, &image, &rect, layout);
            for cut in 0..wire.len() {
                let want = if cut < COUNT_BYTES {
                    BodyError::CountCut
                } else {
                    BodyError::BadLength
                };
                assert_eq!(
                    read_body(&wire[..cut], 40, layout),
                    Err(want),
                    "cut at {cut}"
                );
            }
            let header = read_body(&wire, 40, layout).unwrap();
            assert_eq!(pixels_after(&wire, &header, layout), [lit; 3]);
            wire.push(0);
            assert_eq!(read_body(&wire, 40, layout), Ok(header));
        }
    }

    /// The bytes of a body whose header is `count` and `codes`, with
    /// `pixels` gray pixels after it.
    fn hostile(count: u32, codes: &[u16], pixels: usize) -> Vec<u8> {
        let mut wire = count.to_le_bytes().to_vec();
        put_le(&mut wire, codes, |c| c.to_le_bytes());
        put_pixels(&mut wire, &vec![Pixel::gray(0.5, 1.0); pixels]);
        wire
    }

    /// Bodies that lie about their codes or their pixels are refused
    /// before anything is allocated, codes that stay inside the domain
    /// are not, whatever their blank or zero-length runs. Pixels are
    /// counted at the layout's width: 16 bytes are two gray pixels but
    /// one RGBA pixel.
    #[test]
    fn hostile_bodies_are_refused_and_honest_ones_read() {
        use PixelLayout::{Gray, Rgba};
        let mut gray_cut = hostile(2, &[1, 2], 1);
        gray_cut.pop();
        let refused = [
            ("a run past the domain", hostile(2, &[3, 2], 2), Rgba),
            (
                "blank codes past the domain",
                hostile(3, &[u16::MAX, 0, 1], 0),
                Gray,
            ),
            (
                "a trailing blank code past the domain",
                hostile(3, &[1, 2, 2], 2),
                Rgba,
            ),
            (
                "a code count past the bytes",
                hostile(u32::MAX, &[1, 2], 2),
                Gray,
            ),
            ("a code cut", hostile(3, &[1, 2], 0), Rgba),
            ("a pixel missing", hostile(2, &[1, 2], 1), Rgba),
            ("a gray pixel cut", gray_cut, Gray),
        ];
        for (what, wire, layout) in refused {
            assert_eq!(
                read_body(&wire, 4, layout),
                Err(BodyError::BadLength),
                "{what}"
            );
        }
        let honest = [
            (hostile(0, &[], 0), 0, Rgba),
            (hostile(2, &[1, 2], 2), 2, Rgba),
            (hostile(2, &[1, 2], 1), 2, Gray),
            (hostile(3, &[1, 2, 1], 2), 2, Rgba),
            (hostile(4, &[0, 0, 3, 1], 1), 1, Rgba),
        ];
        for (wire, non_blank, layout) in honest {
            let header = read_body(&wire, 4, layout).unwrap();
            assert_eq!(header.non_blank, non_blank);
            assert_eq!(header.len + non_blank * layout.bytes(), wire.len());
        }
        // The writer's own residue: a trailing gap past `u16::MAX` keeps
        // its split codes, and they stay inside the domain.
        let domain = 70_000;
        let body = body_of(domain, &[(0, 1)]);
        assert_eq!(body.codes, [0, 1, u16::MAX, 0]);
        let mut wire = Vec::new();
        put_spread(&body, &mut wire, domain, &[Pixel::gray(0.5, 1.0)]);
        assert_eq!(read_body(&wire, domain, Rgba).unwrap().non_blank, 1);
    }
}
