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
//! What the codecs still check themselves is meaning: a rectangle inside
//! the region it must lie in, run codes inside their domain, an exact
//! body length, and [`MsgReader::finish`] for trailing bytes. The callers
//! turn a refusal into
//! [`CompositeError::Malformed`](crate::CompositeError::Malformed).

use bytes::{Buf, BufMut, Bytes};
use vr_image::{Image, Pixel, Rect, BYTES_PER_PIXEL, BYTES_PER_RUN_CODE};

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

    /// Appends run codes (2 bytes each, little-endian).
    pub fn put_codes(&mut self, codes: &[u16]) {
        put_le(&mut self.buf, codes, |c| c.to_le_bytes());
    }

    /// Appends pixels (16 bytes each, `Pixel::to_le_bytes` layout),
    /// serialised straight into the payload.
    pub fn put_pixels(&mut self, pixels: &[Pixel]) {
        put_le(&mut self.buf, pixels, |p| p.to_le_bytes());
    }

    /// Appends the pixels of `rect`, row by row, straight from the
    /// image's rows: the bytes `put_pixels(&image.extract_rect(rect))`
    /// would write, without the dense intermediate buffer.
    pub fn put_image_rect(&mut self, image: &Image, rect: &Rect) {
        if rect.is_empty() {
            return;
        }
        self.buf.reserve(rect.area() * vr_image::BYTES_PER_PIXEL);
        let w = rect.width() as usize;
        for y in rect.y0..rect.y1 {
            self.put_pixels(image.row_span(rect.x0, y, w));
        }
    }

    /// Appends a single pixel.
    pub fn put_pixel(&mut self, p: Pixel) {
        self.buf.put_slice(&p.to_le_bytes());
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

/// Appends `items`, `N` little-endian bytes each: the payload grows
/// once and every item is serialised in place. (Fixed-size slots keep
/// the loop a plain vectorisable copy; an `extend` over a flattened
/// iterator writes byte by byte.)
fn put_le<T, const N: usize>(buf: &mut Vec<u8>, items: &[T], to_le: impl Fn(&T) -> [u8; N]) {
    let start = buf.len();
    buf.resize(start + items.len() * N, 0);
    for (slot, item) in buf[start..].chunks_exact_mut(N).zip(items) {
        slot.copy_from_slice(&to_le(item));
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

    /// Reads `n` run codes.
    pub fn get_codes(&mut self, n: usize) -> Checked<Vec<u16>> {
        let wire = self.take(n, BYTES_PER_RUN_CODE)?;
        Ok(wire
            .chunks_exact(BYTES_PER_RUN_CODE)
            .map(|b| u16::from_le_bytes([b[0], b[1]]))
            .collect())
    }

    /// Reads `n` pixels into a reusable buffer (cleared first) — the
    /// decode for payloads that are not composited in wire order
    /// (BSLC's strided sequences, buffered contributions).
    pub fn get_pixels_into(&mut self, n: usize, out: &mut Vec<Pixel>) -> Checked<()> {
        let wire = self.take_pixels(n)?;
        out.clear();
        out.extend(
            wire.chunks_exact(BYTES_PER_PIXEL)
                .map(|raw| Pixel::from_le_bytes(raw.try_into().unwrap())),
        );
        Ok(())
    }

    /// Consumes the next `n` pixels and returns their wire bytes
    /// (`16 · n`) as a view of the payload, undecoded: the input of
    /// `vr_image`'s wire-form kernels, which composite or store each
    /// pixel as they decode it.
    pub fn take_pixels(&mut self, n: usize) -> Checked<Bytes> {
        self.take(n, BYTES_PER_PIXEL)
    }

    /// Reads a single pixel.
    pub fn get_pixel(&mut self) -> Checked<Pixel> {
        self.array().map(Pixel::from_le_bytes)
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

/// Reusable staging buffers for a payload that is gathered and
/// scattered pixel by pixel — BSLC's, and BSLC's alone: the pool is a
/// field of its interleaved stage codec, not of the shared run state.
///
/// Rect- and run-shaped payloads (every spatial codec, the fold, the
/// gather's rects) need no staging:
/// [`MsgWriter::put_image_rect`] and [`MsgWriter::put_pixels`] write
/// image rows straight into the payload and [`MsgReader::take_pixels`]
/// feeds the received bytes straight to the `over` kernels. BSLC's
/// interleaved sequences visit the image with a stride, so it packs
/// through `send` and unpacks through `recv`; the pool owns one of each,
/// grown to the schedule's high-water mark and reused (`clear()`, never
/// shrunk) across stages instead of allocated per stage.
///
/// The pool also records that high-water mark: `peak_bytes()` is the
/// peak resident staging footprint, surfaced per rank through
/// `TrafficStats::peak_pixel_buffer_bytes` (zero for the methods that
/// stage nothing).
///
/// Stale-data safety: [`MsgReader::get_pixels_into`] clears before
/// writing and the consumer only reads the freshly written prefix, so a
/// buffer can never leak pixels from an earlier stage.
#[derive(Debug, Default)]
pub struct ScratchPool {
    /// Packing buffer for outgoing pixel payloads.
    pub send: Vec<Pixel>,
    /// Staging buffer for incoming pixel payloads.
    pub recv: Vec<Pixel>,
    peak: u64,
}

impl ScratchPool {
    /// An empty pool; buffers grow on first use.
    pub fn new() -> Self {
        ScratchPool::default()
    }

    /// Records the current resident footprint. Call once per stage,
    /// after the buffers are filled.
    pub fn note_watermark(&mut self) {
        let resident = (self.send.capacity() + self.recv.capacity()) * vr_image::BYTES_PER_PIXEL;
        self.peak = self.peak.max(resident as u64);
    }

    /// Peak resident staging bytes observed so far.
    pub fn peak_bytes(&self) -> u64 {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed_payload() {
        let mut w = MsgWriter::new();
        let rect = Rect::new(1, 2, 300, 400);
        w.put_rect(rect);
        w.put_u32(3);
        w.put_codes(&[5, 0, 65535]);
        let px = [Pixel::gray(0.25, 0.5), Pixel::gray(1.0, 1.0)];
        w.put_pixels(&px);
        assert_eq!(w.len(), 8 + 4 + 6 + 32);

        let mut r = MsgReader::new(w.freeze());
        assert_eq!(r.get_rect(), Ok(rect));
        assert_eq!(r.get_u32(), Ok(3));
        assert_eq!(r.get_codes(3), Ok(vec![5, 0, 65535]));
        let mut got = Vec::new();
        assert_eq!(r.get_pixels_into(2, &mut got), Ok(()));
        assert_eq!(got, px);
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
        w.put_codes(&[9, 10]);
        w.put_pixel(Pixel::gray(0.5, 0.25));
        w.put_pixels(&[Pixel::BLANK; 2]);
        let full = w.freeze();
        let read_all = |r: &mut MsgReader| -> Checked<()> {
            r.get_rect()?;
            r.get_u32()?;
            r.get_codes(2)?;
            r.get_pixel()?;
            r.take_pixels(1)?;
            r.get_pixels_into(1, &mut Vec::new())
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
    fn bulk_pixel_and_code_round_trip() {
        // Values that exercise every byte of the encoding.
        let px: Vec<Pixel> = (0..135)
            .map(|i| Pixel::from_straight(i as f32 * 0.01, 0.5, 1.0 - i as f32 * 0.001, 0.75))
            .collect();
        let codes: Vec<u16> = (0..515).map(|i| i as u16 * 127).collect();
        let mut w = MsgWriter::new();
        w.put_codes(&codes);
        w.put_pixels(&px);
        assert_eq!(w.len(), codes.len() * 2 + px.len() * 16);
        let mut r = MsgReader::new(w.freeze());
        assert_eq!(r.get_codes(codes.len()), Ok(codes));
        let mut got = Vec::new();
        assert_eq!(r.get_pixels_into(px.len(), &mut got), Ok(()));
        assert_eq!(got, px);
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn get_pixels_into_clears_stale_contents() {
        let fresh = [Pixel::gray(0.25, 0.5), Pixel::gray(0.75, 1.0)];
        let mut w = MsgWriter::new();
        w.put_pixels(&fresh);
        let mut buf = vec![Pixel::gray(9.0, 9.0); 100]; // stale junk
        let mut r = MsgReader::new(w.freeze());
        r.get_pixels_into(2, &mut buf).unwrap();
        assert_eq!(buf, fresh.to_vec(), "stale pixels must not survive");
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
        let img = Image::from_fn(13, 9, |x, y| Pixel::new(x as f32, y as f32, -0.0, 0.5));
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
        ] {
            let mut direct = MsgWriter::new();
            direct.put_u32(7); // appends; never overwrites
            direct.put_image_rect(&img, &rect);
            let mut staged = MsgWriter::new();
            staged.put_u32(7);
            staged.put_pixels(&img.extract_rect(&rect));
            assert_eq!(direct.len(), 4 + rect.area() * 16, "{rect:?}");
            assert_eq!(direct.freeze(), staged.freeze(), "{rect:?}");
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

    #[test]
    fn scratch_pool_tracks_peak_watermark() {
        let mut pool = ScratchPool::new();
        assert_eq!(pool.peak_bytes(), 0);
        pool.send.resize(100, Pixel::BLANK);
        pool.note_watermark();
        let after_send = pool.peak_bytes();
        assert!(after_send >= 1600);
        pool.send.clear(); // reuse: capacity (and the peak) remain
        pool.recv.resize(50, Pixel::BLANK);
        pool.note_watermark();
        assert!(pool.peak_bytes() >= after_send + 800);
    }
}
