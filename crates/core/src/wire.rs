//! Message packing for the compositing protocols.
//!
//! Byte layout follows the paper's cost equations: bounding rectangles
//! are 8 bytes (4 × `u16`), run codes 2 bytes each, pixels 16 bytes each.
//! The only additions are explicit element-count prefixes (`u32`) where
//! the C/MPI original would have relied on `MPI_Get_count`; they add a
//! few bytes per message (≪ the 40 µs start-up cost) and are charged to
//! the byte counters like any other payload, so no method gains an
//! unaccounted advantage.
//!
//! [`MsgReader`] is a checked cursor: every `get_*`/`take_*` call
//! returns [`Checked`], so a payload that ends before the field being
//! read is [`Malformed`] by construction — no receive path can reach a
//! panic through it, and none needs a length test in front of a read.
//! A sparse body — code count, run codes, then the non-blank pixels — is
//! vr-image's [`RunBody`](vr_image::body::RunBody), written straight into
//! [`MsgWriter::payload`] and read through [`MsgReader::get_body`], which
//! refuses codes that cover more than their domain or announce pixels
//! that are missing. What the codecs still check themselves is meaning:
//! a rectangle inside the region it must lie in, and
//! [`MsgReader::finish`] for trailing bytes. The callers turn a refusal
//! into [`CompositeError::Malformed`](crate::CompositeError::Malformed).

use bytes::{Buf, BufMut, Bytes};
use vr_image::body::{put_pixels, read_body, write_pixels};
use vr_image::{Image, MaskRle, Pixel, Rect, BYTES_PER_PIXEL};

use crate::error::{Checked, Malformed};

/// Incrementally builds a message payload.
///
/// The payload is a plain `Vec<u8>`: pixels and run codes are
/// serialised straight into it (one pass over the source, no staging
/// buffer) and [`MsgWriter::freeze`] hands the same allocation to
/// [`Bytes`] without copying it.
#[derive(Debug, Default)]
pub struct MsgWriter {
    buf: Vec<u8>,
}

impl MsgWriter {
    /// An empty writer.
    pub fn new() -> Self {
        MsgWriter::default()
    }

    /// A writer pre-sized for `bytes` of payload.
    pub fn with_capacity(bytes: usize) -> Self {
        MsgWriter {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Appends a bounding rectangle (8 bytes).
    pub fn put_rect(&mut self, r: Rect) {
        self.buf.put_slice(&r.to_le_bytes());
    }

    /// Appends a `u32` count.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Appends pixels (16 bytes each, `Pixel::to_le_bytes` layout),
    /// serialised straight into the payload.
    pub fn put_pixels(&mut self, pixels: &[Pixel]) {
        put_pixels(&mut self.buf, pixels);
    }

    /// The payload so far, for a [`RunBody`](vr_image::body::RunBody)
    /// to append its body to.
    pub fn payload(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Appends the pixels of `rect`, dense and row-major: the bytes
    /// `put_pixels(&image.extract_rect(rect))` would write, without the
    /// dense intermediate buffer. The payload grows once, zero-filled,
    /// and only the rows and columns of `rect ∩ image.extent()` are
    /// copied: outside the extent every pixel is bitwise `Pixel::BLANK`,
    /// whose wire form is 16 zero bytes. The bytes are Equation (2)'s;
    /// the work follows the content.
    pub fn put_image_rect(&mut self, image: &Image, rect: &Rect) {
        assert!(
            image.full_rect().contains_rect(rect),
            "{rect:?} leaves the frame"
        );
        let start = self.buf.len();
        self.buf.resize(start + rect.area() * BYTES_PER_PIXEL, 0);
        let within = rect.intersect(&image.extent());
        let n = within.width() as usize;
        for y in within.y0..within.y1 {
            let offset =
                (y - rect.y0) as usize * rect.width() as usize + (within.x0 - rect.x0) as usize;
            let at = start + offset * BYTES_PER_PIXEL;
            write_pixels(
                &mut self.buf[at..at + n * BYTES_PER_PIXEL],
                image.row_span(within.x0, y, n),
            );
        }
    }

    /// Current payload size in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finalizes into an immutable payload; the buffer is handed over,
    /// not copied.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

/// Reads a message payload sequentially; a read past the end is
/// [`Malformed`], never a panic.
#[derive(Debug)]
pub struct MsgReader {
    buf: Bytes,
}

impl MsgReader {
    /// Wraps a received payload.
    pub fn new(buf: Bytes) -> Self {
        MsgReader { buf }
    }

    /// Consumes the next `count` items of `size` bytes each and returns
    /// them as a view of the payload — the one bounds check every getter
    /// goes through.
    fn take(&mut self, count: usize, size: usize) -> Checked<Bytes> {
        let bytes = count.checked_mul(size).ok_or(Malformed)?;
        Malformed::unless(bytes <= self.buf.remaining())?;
        let taken = self.buf.slice(..bytes);
        self.buf.advance(bytes);
        Ok(taken)
    }

    /// Consumes the next `N` bytes by value (headers and counts: no view
    /// of the payload is created for them).
    fn array<const N: usize>(&mut self) -> Checked<[u8; N]> {
        let raw = self.buf.chunk().get(..N).ok_or(Malformed)?;
        let raw = raw.try_into().expect("a slice of N bytes");
        self.buf.advance(N);
        Ok(raw)
    }

    /// Reads a bounding rectangle.
    pub fn get_rect(&mut self) -> Checked<Rect> {
        self.array().map(Rect::from_le_bytes)
    }

    /// Reads a `u32` count.
    pub fn get_u32(&mut self) -> Checked<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a run body's header over a domain of `domain` positions
    /// through the one checked reader, [`read_body`]: its runs, and the
    /// number of non-blank pixels, all present, that follow.
    pub fn get_body(&mut self, domain: usize) -> Checked<(MaskRle, usize)> {
        let header = read_body(self.buf.chunk(), domain).map_err(|_| Malformed)?;
        self.buf.advance(header.len);
        Ok((header.runs, header.non_blank))
    }

    /// Consumes the next `n` pixels and returns their wire bytes
    /// (`16 · n`) as a view of the payload, undecoded: the input of
    /// `vr_image`'s wire-form kernels, which composite or store each
    /// pixel as they decode it.
    pub fn take_pixels(&mut self, n: usize) -> Checked<Bytes> {
        self.take(n, BYTES_PER_PIXEL)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    /// [`Malformed`] unless every byte was consumed: trailing bytes are
    /// a framing error, never ignored.
    pub fn finish(&self) -> Checked<()> {
        Malformed::unless(self.buf.remaining() == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_image::body::RunBody;
    use vr_image::{kernel, StridedSeq};

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

    #[test]
    fn round_trip_mixed_payload() {
        let mut w = MsgWriter::new();
        let rect = Rect::new(1, 2, 300, 400);
        w.put_rect(rect);
        w.put_u32(3);
        let px = [Pixel::gray(0.25, 0.5), Pixel::gray(1.0, 1.0)];
        let mut domain = [Pixel::BLANK; 9];
        domain[5..7].copy_from_slice(&px);
        let body = body_of(9, &[(5, 2)]);
        body.put_seq(w.payload(), &domain, StridedSeq::dense(9));
        assert_eq!(w.len(), 8 + 4 + 4 + 2 * 2 + 32);

        let mut r = MsgReader::new(w.freeze());
        assert_eq!(r.get_rect(), Ok(rect));
        assert_eq!(r.get_u32(), Ok(3));
        assert_eq!(r.get_body(9), Ok((MaskRle::from_codes(vec![5, 2]), 2)));
        let wire = r.take_pixels(2).unwrap();
        assert!(kernel::decode(&wire).eq(px));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn empty_message() {
        let w = MsgWriter::new();
        assert!(w.is_empty());
        let r = MsgReader::new(w.freeze());
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.finish(), Ok(()));
    }

    /// A payload with one of each element, cut at every length: every
    /// getter that would cross the end answers `Malformed` and leaves the
    /// cursor where it was; `finish` refuses what was not consumed.
    #[test]
    fn a_short_payload_is_malformed_at_every_getter() {
        let mut w = MsgWriter::new();
        w.put_rect(Rect::new(1, 2, 3, 4));
        w.put_u32(7);
        let mut domain = [Pixel::BLANK; 20];
        domain[9] = Pixel::gray(0.5, 0.25);
        body_of(20, &[(9, 1)]).put_seq(w.payload(), &domain, StridedSeq::dense(20));
        w.put_pixels(&[Pixel::BLANK; 2]);
        let full = w.freeze();
        let read_all = |r: &mut MsgReader| -> Checked<()> {
            r.get_rect()?;
            r.get_u32()?;
            r.get_body(20)?;
            r.take_pixels(1)?;
            r.take_pixels(2).map(drop)
        };
        for cut in 0..full.len() {
            let mut r = MsgReader::new(full.slice(..cut));
            assert_eq!(read_all(&mut r), Err(Malformed), "cut at {cut}");
            let left = r.remaining();
            assert_eq!(r.take_pixels(usize::MAX), Err(Malformed), "count overflow");
            assert_eq!(r.remaining(), left, "a refused read consumes nothing");
        }
        let mut r = MsgReader::new(full);
        assert_eq!(
            r.finish(),
            Err(Malformed),
            "unread bytes are trailing bytes"
        );
        assert_eq!(read_all(&mut r), Ok(()));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn pixels_land_in_to_le_bytes_layout() {
        let px = [
            Pixel::new(0.125, -1.5, 3.25, 0.75),
            Pixel::new(-0.0, f32::NAN, f32::INFINITY, 1.0),
        ];
        let mut w = MsgWriter::new();
        w.put_pixels(&px);
        let expect: Vec<u8> = px.iter().flat_map(|p| p.to_le_bytes()).collect();
        assert_eq!(&w.freeze()[..], &expect[..]);
    }

    #[test]
    fn put_image_rect_writes_what_extract_then_put_pixels_wrote() {
        let dense = Image::from_fn(13, 9, |x, y| Pixel::new(x as f32, y as f32, -0.0, 0.5));
        // Content in the box (3, 2)..(10, 7) only, with `-0.0` pixels on
        // its edge: not blank, so the extent is the box and they are sent.
        let mut sparse = Image::blank(13, 9);
        let content = Rect::new(3, 2, 10, 7);
        for (x, y) in content.iter() {
            let edge = x == 3 || x == 9 || y == 2 || y == 6;
            let p = if edge {
                Pixel::new(-0.0, 0.0, -0.0, 0.0)
            } else {
                Pixel::new(x as f32, y as f32, 0.25, 0.5)
            };
            sparse.set(x, y, p);
        }
        assert_eq!(sparse.extent(), content);
        for img in [&dense, &sparse] {
            for rect in [
                Rect::EMPTY,
                Rect::new(4, 2, 4, 7),   // no columns
                Rect::new(4, 2, 9, 2),   // no rows
                Rect::new(5, 0, 6, 9),   // one column, full height
                Rect::new(0, 4, 13, 5),  // one row, full width
                Rect::new(0, 0, 13, 9),  // the full frame
                Rect::new(0, 0, 3, 3),   // top-left corner
                Rect::new(12, 0, 13, 9), // right edge
                Rect::new(6, 3, 13, 9),  // bottom-right corner
                Rect::new(2, 3, 7, 6),   // interior
                Rect::new(1, 1, 12, 8),  // contains the sparse extent
                Rect::new(3, 2, 10, 7),  // is it
                Rect::new(4, 3, 9, 6),   // lies inside it
                Rect::new(0, 0, 6, 4),   // crosses its top-left corner
                Rect::new(8, 0, 11, 9),  // crosses its right edge
                Rect::new(10, 0, 13, 9), // misses it to the right
                Rect::new(0, 7, 13, 9),  // misses it below
            ] {
                let mut direct = MsgWriter::new();
                direct.put_u32(7); // appends; never overwrites
                direct.put_image_rect(img, &rect);
                let mut staged = MsgWriter::new();
                staged.put_u32(7);
                staged.put_pixels(&img.extract_rect(&rect));
                assert_eq!(direct.len(), 4 + rect.area() * 16, "{rect:?}");
                assert_eq!(direct.freeze(), staged.freeze(), "{rect:?}");
            }
        }
    }

    #[test]
    fn take_pixels_is_a_view_of_the_payload() {
        let px = [Pixel::gray(0.25, 0.5), Pixel::gray(0.75, 1.0)];
        let mut w = MsgWriter::new();
        w.put_u32(9);
        w.put_pixels(&px);
        w.put_u32(11);
        let payload = w.freeze();
        let base = payload.as_ptr();
        let mut r = MsgReader::new(payload);
        assert_eq!(r.get_u32(), Ok(9));
        let wire = r.take_pixels(2).unwrap();
        assert_eq!(wire.as_ptr(), base.wrapping_add(4), "no copy");
        assert_eq!(wire.len(), 32);
        assert_eq!(wire[..16], px[0].to_le_bytes());
        assert_eq!(r.get_u32(), Ok(11));
        assert_eq!(r.take_pixels(0).unwrap().len(), 0);
    }
}
