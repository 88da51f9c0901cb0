//! The paper's sparse message body over one domain (BSLC, Section 3.3;
//! BSBRC, Section 3.4): a `u32` code count, the 2-byte run codes of the
//! domain's blank/non-blank mask, then only the non-blank pixels, 16
//! bytes each.
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
//! cover more than the domain or when a pixel they announce is missing.
//!
//! [`kernel::scan_runs_into`]: crate::kernel::scan_runs_into

use crate::image::Image;
use crate::interleave::StridedSeq;
use crate::pixel::{Pixel, BYTES_PER_PIXEL};
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
    /// positions, codes them and returns the body's exact wire length, so
    /// a payload is allocated once.
    pub fn scan(&mut self, domain: usize, scan: impl FnOnce(&mut RunSet)) -> usize {
        self.runs.clear();
        scan(&mut self.runs);
        self.runs.encode_codes_into(domain, &mut self.codes);
        self.wire_len()
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

    /// Wire bytes: the code count, the codes and the non-blank pixels.
    pub fn wire_len(&self) -> usize {
        COUNT_BYTES + self.codes.len() * BYTES_PER_RUN_CODE + self.non_blank() * BYTES_PER_PIXEL
    }

    /// Appends the body of the domain `rect` of `image`: the header, then
    /// each run's pixels straight from the image rows.
    pub fn put_rect(&self, w: &mut Vec<u8>, image: &Image, rect: &Rect) {
        self.put_header(w);
        rect.for_row_segments(self.runs.runs().iter().copied(), |x, y, n| {
            put_pixels(w, image.row_span(x, y, n))
        });
    }

    /// Appends the body of the sequence `seq` over `pixels`: the header,
    /// then each run's pixels read at the sequence's stride (BSLC's
    /// halves and the gather's sequence piece).
    pub fn put_seq(&self, w: &mut Vec<u8>, pixels: &[Pixel], seq: StridedSeq) {
        self.put_header(w);
        for &(start, len) in self.runs.runs() {
            let run = pixels[seq.index(start)..].iter().step_by(seq.stride);
            for p in run.take(len) {
                w.extend_from_slice(&p.to_le_bytes());
            }
        }
    }

    /// The one writer of the run-code header: the count, then the codes.
    /// It reserves the whole body first.
    fn put_header(&self, w: &mut Vec<u8>) {
        w.reserve(self.wire_len());
        w.extend_from_slice(&(self.codes.len() as u32).to_le_bytes());
        put_le(w, &self.codes, |c| c.to_le_bytes());
    }
}

/// Appends pixels, 16 bytes each in [`Pixel::to_le_bytes`] layout.
pub fn put_pixels(w: &mut Vec<u8>, pixels: &[Pixel]) {
    put_le(w, pixels, |p| p.to_le_bytes());
}

/// Appends `items`, `N` little-endian bytes each: the buffer grows once
/// and every item is serialised in place. (Fixed-size slots keep the
/// loop a plain vectorisable copy; an `extend` over a flattened iterator
/// writes byte by byte.)
fn put_le<T, const N: usize>(w: &mut Vec<u8>, items: &[T], to_le: impl Fn(&T) -> [u8; N]) {
    let start = w.len();
    w.resize(start + items.len() * N, 0);
    for (slot, item) in w[start..].chunks_exact_mut(N).zip(items) {
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
/// `domain` positions. Every code and every announced pixel is checked
/// present, and the codes' coverage against `domain`, before anything is
/// allocated.
pub fn read_body(wire: &[u8], domain: usize) -> Result<BodyHeader, BodyError> {
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
    if covered > domain || non_blank > pixels / BYTES_PER_PIXEL {
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

    /// The pixels a checked header announces, decoded from what follows it.
    fn pixels_after(wire: &[u8], header: &BodyHeader) -> Vec<Pixel> {
        wire[header.len..][..header.non_blank * BYTES_PER_PIXEL]
            .chunks_exact(BYTES_PER_PIXEL)
            .map(|raw| Pixel::from_le_bytes(raw.try_into().unwrap()))
            .collect()
    }

    /// Puts `body` through `put`, requires exactly [`RunBody::wire_len`] bytes
    /// and reads them back as a receiver does: the runs, checked against
    /// a domain of `domain` positions, then the pixels they announce.
    fn round_trip(
        body: &RunBody,
        domain: usize,
        put: impl FnOnce(&mut Vec<u8>),
    ) -> (MaskRle, Vec<Pixel>) {
        let mut wire = Vec::new();
        put(&mut wire);
        assert_eq!(wire.len(), body.wire_len(), "the body's length is exact");
        let header = read_body(&wire, domain).unwrap();
        assert_eq!(header.non_blank, body.non_blank());
        assert_eq!(header.len + header.non_blank * BYTES_PER_PIXEL, wire.len());
        let pixels = pixels_after(&wire, &header);
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
        let (rle, got) = round_trip(&body, domain, |w| put_spread(&body, w, domain, &px));
        assert_eq!(rle.codes(), &body.codes[..]);
        assert!(rle.non_blank_runs().eq(body.runs().runs().iter().copied()));
        assert_eq!(got, px);
        assert_eq!(body.wire_len(), 4 + body.codes() * 2 + px.len() * 16);
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

    fn bits(p: Pixel) -> [u8; 16] {
        p.to_le_bytes()
    }

    /// A rect's body: the runs put the pixels back where they were, bit
    /// for bit — `-0.0`, NaN-payload and subnormal pixels are not blank
    /// and travel — and what they leave out is [`Pixel::BLANK`].
    #[test]
    fn a_rect_body_restores_its_pixels_bit_for_bit() {
        let image = odd_frame();
        for rect in [image.full_rect(), Rect::new(2, 1, 9, 6), Rect::EMPTY] {
            let mut body = RunBody::default();
            body.scan(rect.area(), |runs| image.runs_into(&rect, runs));
            let (rle, pixels) = round_trip(&body, rect.area(), |w| body.put_rect(w, &image, &rect));
            let mut wire = Vec::new();
            put_pixels(&mut wire, &pixels);
            let mut restored = Image::blank(11, 7);
            restored.write_runs_wire(&rect, rle.non_blank_runs(), &wire);
            for (x, y) in rect.iter() {
                let (want, got) = (image.get(x, y), restored.get(x, y));
                assert_eq!(bits(got), bits(want), "({x}, {y}) in {rect:?}");
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
            let (rle, pixels) =
                round_trip(&body, seq.count, |w| body.put_seq(w, image.pixels(), seq));
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

    /// A body cut at every length: inside the count it is `CountCut`,
    /// past it `BadLength`; whole, it reads, and a byte past its pixels
    /// is the caller's to refuse.
    #[test]
    fn a_body_cut_at_every_length_is_refused() {
        let body = body_of(40, &[(3, 2), (30, 1)]);
        let pixels = [Pixel::gray(0.5, 0.25); 3];
        let mut wire = Vec::new();
        put_spread(&body, &mut wire, 40, &pixels);
        for cut in 0..wire.len() {
            let want = if cut < COUNT_BYTES {
                BodyError::CountCut
            } else {
                BodyError::BadLength
            };
            assert_eq!(read_body(&wire[..cut], 40), Err(want), "cut at {cut}");
        }
        let header = read_body(&wire, 40).unwrap();
        assert_eq!(pixels_after(&wire, &header), pixels);
        wire.push(0);
        assert_eq!(read_body(&wire, 40), Ok(header));
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
    /// are not, whatever their blank or zero-length runs.
    #[test]
    fn hostile_bodies_are_refused_and_honest_ones_read() {
        let refused = [
            ("a run past the domain", hostile(2, &[3, 2], 2)),
            (
                "blank codes past the domain",
                hostile(3, &[u16::MAX, 0, 1], 0),
            ),
            (
                "a trailing blank code past the domain",
                hostile(3, &[1, 2, 2], 2),
            ),
            ("a code count past the bytes", hostile(u32::MAX, &[1, 2], 2)),
            ("a code cut", hostile(3, &[1, 2], 0)),
            ("a pixel missing", hostile(2, &[1, 2], 1)),
        ];
        for (what, wire) in refused {
            assert_eq!(read_body(&wire, 4), Err(BodyError::BadLength), "{what}");
        }
        let honest = [
            (hostile(0, &[], 0), 0),
            (hostile(2, &[1, 2], 2), 2),
            (hostile(3, &[1, 2, 1], 2), 2),
            (hostile(4, &[0, 0, 3, 1], 1), 1),
        ];
        for (wire, non_blank) in honest {
            let header = read_body(&wire, 4).unwrap();
            assert_eq!(header.non_blank, non_blank);
            assert_eq!(header.len + non_blank * BYTES_PER_PIXEL, wire.len());
        }
        // The writer's own residue: a trailing gap past `u16::MAX` keeps
        // its split codes, and they stay inside the domain.
        let domain = 70_000;
        let body = body_of(domain, &[(0, 1)]);
        assert_eq!(body.codes, [0, 1, u16::MAX, 0]);
        let mut wire = Vec::new();
        put_spread(&body, &mut wire, domain, &[Pixel::gray(0.5, 1.0)]);
        assert_eq!(read_body(&wire, domain).unwrap().non_blank, 1);
    }
}
