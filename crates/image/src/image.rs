//! Row-major pixel image buffers.

use crate::kernel;
use crate::pixel::{Pixel, BYTES_PER_PIXEL};
use crate::rect::Rect;
use crate::rle::RunSet;

/// A row-major image of [`Pixel`]s.
///
/// Subimages in the sort-last system are full-size images whose pixels are
/// mostly blank; the compositing methods never copy more than the active
/// region thanks to bounding rectangles and run-length encoding.
///
/// The image maintains an incremental *bounds hint*: the exact tight
/// bounding rectangle of its non-blank pixels, kept up to date through
/// [`Image::set`] during local rendering and invalidated by raw mutable
/// access. When the hint is live, [`Image::bounding_rect`] is `O(1)` —
/// the BSBR/BSLC/BSBRC stage setup becomes `O(runs)` instead of
/// `O(W×H)`.
/// [`Clone`] uses it too: a sparse image's copy is a blank frame plus
/// the rows of the hint.
///
/// Beside the hint the image keeps an *extent*: a rectangle outside
/// which every pixel is bitwise [`Pixel::BLANK`]. Unlike the hint it is
/// conservative and never dies — every mutator grows it to cover what
/// it is about to write *before* writing, so it holds at every step,
/// a panic half way through a merge included. It is what lets a frame
/// be reused: [`Image::clear`] and [`Clone::clone_from`] touch the rows
/// of the extent, not the `W×H` frame, and a scan for bounds after the
/// hint died never leaves it. It is also what keeps a dense body's local
/// work to the content: its encoder copies only the extent's pixels of a
/// rect (the rest are 16 zero bytes each on the wire), and
/// [`Image::composite_rect_over_wire`] / [`Image::composite_rect_under_wire`]
/// write outside the extent only where an incoming pixel is non-blank —
/// the wire bytes stay Equation (2)'s, every pixel of the rect.
#[derive(Debug)]
pub struct Image {
    width: u16,
    height: u16,
    pixels: Vec<Pixel>,
    /// `Some(r)` ⇒ `r` is *exactly* the tight bounding rectangle of the
    /// non-blank pixels. `None` ⇒ unknown; fall back to scanning.
    bounds_hint: Option<Rect>,
    /// Every pixel outside is bitwise [`Pixel::BLANK`]; a live hint lies
    /// inside. Always within the frame.
    extent: Rect,
}

/// Equality is over the pixel grid only; the bounds hint and the extent
/// are bookkeeping, and two images differing only in them compare equal.
impl PartialEq for Image {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width && self.height == other.height && self.pixels == other.pixels
    }
}

/// A rank's working copy of its subimage is a clone, and a sort-last
/// subimage is mostly blank: when the hint is live and covers less than
/// half the frame, only its rows are read (the rest of the copy is
/// written as [`Pixel::BLANK`], which is what lies outside an exact
/// hint). Denser or unhinted images take the plain copy, which is
/// cheaper than fill-then-copy once most of the frame is live.
///
/// `clone_from` is how a working frame is *reset* to a subimage: with
/// equal dimensions it blanks the rows the previous use touched, copies
/// the rows `src` can hold anything in and adopts `src`'s extent and
/// hint — `O(both extents)`, no allocation, and the same image (pixel
/// bits, hint, extent) a fresh clone would be.
impl Clone for Image {
    fn clone(&self) -> Self {
        let pixels = match self.bounds_hint {
            Some(h) if h.area() * 2 < self.pixels.len() => {
                let mut pixels = vec![Pixel::BLANK; self.pixels.len()];
                let w = h.width() as usize;
                for y in h.y0..h.y1 {
                    let i = self.index(h.x0, y);
                    pixels[i..i + w].copy_from_slice(&self.pixels[i..i + w]);
                }
                pixels
            }
            _ => self.pixels.clone(),
        };
        Image {
            width: self.width,
            height: self.height,
            pixels,
            bounds_hint: self.bounds_hint,
            extent: self.extent,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        if (self.width, self.height) != (src.width, src.height) {
            *self = src.clone();
            return;
        }
        self.clear();
        // Grown first, like every write: the invariant holds throughout.
        self.extent = src.extent;
        let w = src.extent.width() as usize;
        for y in src.extent.y0..src.extent.y1 {
            let i = self.index(src.extent.x0, y);
            self.pixels[i..i + w].copy_from_slice(&src.pixels[i..i + w]);
        }
        self.bounds_hint = src.bounds_hint;
    }
}

impl Image {
    /// Creates a blank image.
    pub fn blank(width: u16, height: u16) -> Self {
        Image {
            width,
            height,
            pixels: vec![Pixel::BLANK; width as usize * height as usize],
            bounds_hint: Some(Rect::EMPTY),
            extent: Rect::EMPTY,
        }
    }

    /// Creates an image by evaluating `f(x, y)` for every pixel.
    pub fn from_fn(width: u16, height: u16, mut f: impl FnMut(u16, u16) -> Pixel) -> Self {
        let mut pixels = Vec::with_capacity(width as usize * height as usize);
        let mut bounds = Rect::EMPTY;
        for y in 0..height {
            for x in 0..width {
                let p = f(x, y);
                if !p.is_blank() {
                    bounds.include(x, y);
                }
                pixels.push(p);
            }
        }
        Image {
            width,
            height,
            pixels,
            bounds_hint: Some(bounds),
            extent: bounds,
        }
    }

    /// Wraps an existing pixel vector; panics if the length is wrong.
    pub fn from_pixels(width: u16, height: u16, pixels: Vec<Pixel>) -> Self {
        assert_eq!(pixels.len(), width as usize * height as usize);
        Image {
            width,
            height,
            pixels,
            bounds_hint: None,
            extent: Rect::of_size(width, height),
        }
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> u16 {
        self.height
    }

    /// Total pixel count (the paper's `A`).
    #[inline]
    pub fn area(&self) -> usize {
        self.pixels.len()
    }

    /// The rectangle covering the whole image.
    #[inline]
    pub fn full_rect(&self) -> Rect {
        Rect::of_size(self.width, self.height)
    }

    /// Linear index of `(x, y)`.
    #[inline]
    pub fn index(&self, x: u16, y: u16) -> usize {
        debug_assert!(x < self.width && y < self.height);
        y as usize * self.width as usize + x as usize
    }

    /// Immutable pixel access.
    #[inline]
    pub fn get(&self, x: u16, y: u16) -> Pixel {
        self.pixels[self.index(x, y)]
    }

    /// Mutable pixel access. Invalidates the bounds hint (the write is
    /// not observable).
    #[inline]
    pub fn get_mut(&mut self, x: u16, y: u16) -> &mut Pixel {
        let i = self.index(x, y);
        self.touch_pixel(x, y);
        self.bounds_hint = None;
        &mut self.pixels[i]
    }

    /// Sets a pixel, keeping the bounds hint exact: a non-blank write
    /// grows the hint; blanking a previously non-blank pixel may shrink
    /// the true bounds, so the hint is dropped.
    #[inline]
    pub fn set(&mut self, x: u16, y: u16, p: Pixel) {
        let i = self.index(x, y);
        self.touch_pixel(x, y);
        if !p.is_blank() {
            if let Some(h) = &mut self.bounds_hint {
                h.include(x, y);
            }
        } else if !self.pixels[i].is_blank() {
            self.bounds_hint = None;
        }
        self.pixels[i] = p;
    }

    /// Flat pixel slice (row-major).
    #[inline]
    pub fn pixels(&self) -> &[Pixel] {
        &self.pixels
    }

    /// Flat mutable pixel slice (row-major). Invalidates the bounds hint
    /// and widens the extent to the whole frame.
    #[inline]
    pub fn pixels_mut(&mut self) -> &mut [Pixel] {
        self.extent = self.full_rect();
        self.bounds_hint = None;
        &mut self.pixels
    }

    /// One row's span of `len` pixels starting at `(x, y)`.
    #[inline]
    pub fn row_span(&self, x: u16, y: u16, len: usize) -> &[Pixel] {
        let i = self.index(x, y);
        debug_assert!(x as usize + len <= self.width as usize);
        &self.pixels[i..i + len]
    }

    /// Mutable row span. Invalidates the bounds hint.
    #[inline]
    pub fn row_span_mut(&mut self, x: u16, y: u16, len: usize) -> &mut [Pixel] {
        let i = self.index(x, y);
        let end = x as usize + len;
        assert!(end <= self.width as usize, "row span leaves the frame");
        self.touch(&Rect::new(x, y, end as u16, y + 1));
        self.bounds_hint = None;
        &mut self.pixels[i..i + len]
    }

    /// Grows the extent over `rect`, which the caller is about to write.
    /// A write that left the frame would leave the extent wrong for every
    /// later use of this buffer, so it is refused here.
    #[inline]
    fn touch(&mut self, rect: &Rect) {
        self.assert_in_frame(rect);
        self.extent = self.extent.union(rect);
    }

    /// Refuses a write to `rect` that would leave the frame.
    #[inline]
    fn assert_in_frame(&self, rect: &Rect) {
        assert!(
            self.full_rect().contains_rect(rect),
            "write to {rect:?} leaves the {}x{} frame",
            self.width,
            self.height
        );
    }

    /// [`Image::touch`] for one pixel.
    #[inline]
    fn touch_pixel(&mut self, x: u16, y: u16) {
        assert!(x < self.width && y < self.height, "write outside the frame");
        self.extent.include(x, y);
    }

    /// The rectangle outside which every pixel is [`Pixel::BLANK`] — a
    /// superset of the tight bounds, equal to them after [`Image::blank`],
    /// [`Image::from_fn`] and [`Image::assert_bounds`]. The wire merges
    /// grow it only over what they write, so after a dense merge it lies
    /// within the old extent and the incoming non-blank pixels' bounds.
    #[inline]
    pub fn extent(&self) -> Rect {
        self.extent
    }

    /// Resets to the blank image by blanking the rows of the extent:
    /// `O(what was touched)`, not `O(W×H)`.
    pub fn clear(&mut self) {
        let w = self.extent.width() as usize;
        for y in self.extent.y0..self.extent.y1 {
            let i = self.index(self.extent.x0, y);
            self.pixels[i..i + w].fill(Pixel::BLANK);
        }
        self.extent = Rect::EMPTY;
        self.bounds_hint = Some(Rect::EMPTY);
    }

    /// The current bounds hint, when live (exact tight bounds).
    #[inline]
    pub fn bounds_hint(&self) -> Option<Rect> {
        self.bounds_hint
    }

    /// Asserts a known-exact bounding rectangle, re-arming the `O(1)`
    /// [`Image::bounding_rect`] fast path after a merge whose output
    /// bounds the caller derived incrementally (union of the inputs).
    ///
    /// The extent shrinks to `bounds` too — this is how a frame written
    /// through [`Image::pixels_mut`] gets its sparsity back: outside
    /// `bounds` every pixel is [`Pixel::BLANK`].
    ///
    /// Debug builds verify the claim against a full scan.
    pub fn assert_bounds(&mut self, bounds: Rect) {
        assert!(
            self.full_rect().contains_rect(&bounds),
            "asserted bounds leave the frame"
        );
        debug_assert_eq!(
            bounds,
            self.scan_bounds(&self.full_rect()),
            "asserted bounds hint must match the scanned tight bounds"
        );
        self.bounds_hint = Some(bounds);
        self.extent = bounds;
    }

    /// Replaces `runs` with the runs of `rect`'s non-blank pixels
    /// ([`kernel::scan_runs_into`]), positions row-major inside `rect`.
    /// Only the rows of the extent are read: outside it every pixel is
    /// blank. Whatever the runs leave out can be restored as
    /// `Pixel::BLANK` without changing a bit of the image.
    pub fn runs_into(&self, rect: &Rect, runs: &mut RunSet) {
        runs.clear();
        let within = rect.intersect(&self.extent);
        if within.is_empty() {
            return;
        }
        let row_w = rect.width() as usize;
        let skip = (within.x0 - rect.x0) as usize;
        for y in within.y0..within.y1 {
            let base = (y - rect.y0) as usize * row_w + skip;
            kernel::scan_runs_into(
                self.row_span(within.x0, y, within.width() as usize),
                base,
                runs,
            );
        }
    }

    /// Number of non-blank pixels (the paper's `A_opaque` for a region
    /// equal to the whole image).
    pub fn non_blank_count(&self) -> usize {
        self.pixels.iter().filter(|p| !p.is_blank()).count()
    }

    /// Number of non-blank pixels inside `rect`.
    pub fn non_blank_count_in(&self, rect: &Rect) -> usize {
        rect.iter()
            .filter(|&(x, y)| !self.get(x, y).is_blank())
            .count()
    }

    /// Bounding rectangle of all non-blank pixels — `O(1)` when the
    /// incremental hint is live, otherwise the `O(A)` scan the paper
    /// charges as `T_bound` in the first BSBR/BSBRC stage (over the
    /// extent: nothing outside it can be non-blank).
    pub fn bounding_rect(&self) -> Rect {
        match self.bounds_hint {
            Some(h) => h,
            None => self.scan_bounds(&self.extent),
        }
    }

    /// The row-scan bounds search over `within`.
    fn scan_bounds(&self, within: &Rect) -> Rect {
        if within.is_empty() {
            return Rect::EMPTY;
        }
        let mut bounds = Rect::EMPTY;
        for y in within.y0..within.y1 {
            let row = &self.pixels
                [self.index(within.x0, y)..self.index(within.x0, y) + within.width() as usize];
            // Scan from both ends of the row to touch as few pixels as
            // possible once some bounds are known.
            if let Some(first) = row.iter().position(|p| !p.is_blank()) {
                let last = row.iter().rposition(|p| !p.is_blank()).unwrap();
                bounds.include(within.x0 + first as u16, y);
                bounds.include(within.x0 + last as u16, y);
            }
        }
        bounds
    }

    /// Copies the pixels of `rect` into a dense row-major buffer (BSBR's
    /// "pack pixels in the rectangle into a sending buffer").
    pub fn extract_rect(&self, rect: &Rect) -> Vec<Pixel> {
        let mut out = Vec::new();
        self.extract_rect_into(rect, &mut out);
        out
    }

    /// Like [`Image::extract_rect`], but reuses `out`'s allocation.
    pub fn extract_rect_into(&self, rect: &Rect, out: &mut Vec<Pixel>) {
        out.clear();
        out.reserve(rect.area());
        for y in rect.y0..rect.y1 {
            let start = self.index(rect.x0, y);
            out.extend_from_slice(&self.pixels[start..start + rect.width() as usize]);
        }
    }

    /// Overwrites the pixels of `rect` from a dense row-major buffer.
    pub fn write_rect(&mut self, rect: &Rect, data: &[Pixel]) {
        assert_eq!(data.len(), rect.area());
        self.touch(rect);
        self.bounds_hint = None;
        for (row_idx, y) in (rect.y0..rect.y1).enumerate() {
            let dst = self.index(rect.x0, y);
            let src = row_idx * rect.width() as usize;
            self.pixels[dst..dst + rect.width() as usize]
                .copy_from_slice(&data[src..src + rect.width() as usize]);
        }
    }

    /// Composites `front` (a dense buffer for `rect`) **over** the
    /// corresponding pixels of `self`, returning the number of `over`
    /// operations applied (the paper's computation count `T_o × A_rec`).
    pub fn composite_rect_over(&mut self, rect: &Rect, front: &[Pixel]) -> usize {
        assert_eq!(front.len(), rect.area());
        self.touch(rect);
        self.bounds_hint = None;
        let w = rect.width() as usize;
        for (row_idx, y) in (rect.y0..rect.y1).enumerate() {
            let dst = self.index(rect.x0, y);
            kernel::over_slice(&front[row_idx * w..][..w], &mut self.pixels[dst..dst + w]);
        }
        rect.area()
    }

    /// Stores wire-form pixels at runs of `rect` — `(start, len)`
    /// positions, row-major inside it, in order — each row segment
    /// decoded straight into its image row. `wire` holds exactly the
    /// runs' pixels; nothing else of the image is touched.
    pub fn write_runs_wire(
        &mut self,
        rect: &Rect,
        runs: impl IntoIterator<Item = (usize, usize)>,
        wire: &[u8],
    ) {
        let mut rest = wire;
        rect.for_row_segments(runs, |x, y, n| {
            let (run, tail) = rest.split_at(n * BYTES_PER_PIXEL);
            kernel::copy_slice_wire(self.row_span_mut(x, y, n), run);
            rest = tail;
        });
        assert!(rest.is_empty(), "wire pixels left over after the runs");
    }

    /// [`Image::composite_rect_over`] with `front` in wire form: each
    /// received pixel is decoded and composited in one pass, over the
    /// spans `composite_rect_wire` picks.
    pub fn composite_rect_over_wire(&mut self, rect: &Rect, front: &[u8]) -> usize {
        self.composite_rect_wire(rect, front, |local, wire| {
            kernel::over_slice_wire(wire, local)
        })
    }

    /// Composites `back` (wire-form pixels of `rect`) **under** `self`,
    /// i.e. the local image stays in front.
    pub fn composite_rect_under_wire(&mut self, rect: &Rect, back: &[u8]) -> usize {
        self.composite_rect_wire(rect, back, kernel::under_slice_wire)
    }

    /// Applies the merge `op(image span, that span's wire bytes)` over
    /// `rect`, whose pixels `wire` holds exactly, and returns the paper's
    /// `over` count, `rect.area()`.
    ///
    /// The local work follows the content, not the rectangle. Each row
    /// splits at the extent as it was before the merge. The span inside
    /// it goes through `op` whole: there a blank incoming pixel over a
    /// local `-0.0` component yields `+0.0`, so nothing may be skipped.
    /// Outside it every local pixel is [`Pixel::BLANK`], and `op` of two
    /// blank pixels is exactly blank, so `op` runs only on the incoming
    /// non-blank runs ([`kernel::for_each_run_wire`]) — never a copy,
    /// since `f over BLANK` is not `f` bitwise when `f` has a `-0.0`
    /// component. The extent grows over those runs only.
    fn composite_rect_wire(
        &mut self,
        rect: &Rect,
        wire: &[u8],
        op: impl Fn(&mut [Pixel], &[u8]),
    ) -> usize {
        assert_eq!(wire.len(), rect.area() * BYTES_PER_PIXEL);
        self.assert_in_frame(rect);
        self.bounds_hint = None;
        let extent = self.extent;
        let w = rect.width() as usize;
        for (row, y) in (rect.y0..rect.y1).enumerate() {
            let wire = &wire[row * w * BYTES_PER_PIXEL..][..w * BYTES_PER_PIXEL];
            // Columns [x0, x1) of this row lie inside the extent.
            let (x0, x1) = if (extent.y0..extent.y1).contains(&y) {
                let x0 = extent.x0.clamp(rect.x0, rect.x1);
                (x0, extent.x1.clamp(x0, rect.x1))
            } else {
                (rect.x1, rect.x1)
            };
            let (left, rest) = wire.split_at((x0 - rect.x0) as usize * BYTES_PER_PIXEL);
            let (inside, right) = rest.split_at((x1 - x0) as usize * BYTES_PER_PIXEL);
            if x0 < x1 {
                let i = self.index(x0, y);
                op(&mut self.pixels[i..i + (x1 - x0) as usize], inside);
            }
            for (x, outside) in [(rect.x0, left), (x1, right)] {
                kernel::for_each_run_wire(outside, |start, len| {
                    let incoming = &outside[start * BYTES_PER_PIXEL..][..len * BYTES_PER_PIXEL];
                    op(self.row_span_mut(x + start as u16, y, len), incoming);
                });
            }
        }
        rect.area()
    }

    /// Maximum per-channel absolute difference over all pixels.
    pub fn max_abs_diff(&self, other: &Image) -> f32 {
        assert_eq!((self.width, self.height), (other.width, other.height));
        self.pixels
            .iter()
            .zip(&other.pixels)
            .map(|(a, b)| a.max_abs_diff(b))
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker(w: u16, h: u16) -> Image {
        Image::from_fn(w, h, |x, y| {
            if (x + y) % 2 == 0 {
                Pixel::gray(0.5, 0.5)
            } else {
                Pixel::BLANK
            }
        })
    }

    #[test]
    fn blank_image_has_empty_bounds() {
        let img = Image::blank(16, 16);
        assert_eq!(img.bounding_rect(), Rect::EMPTY);
        assert_eq!(img.non_blank_count(), 0);
    }

    #[test]
    fn bounding_rect_tight() {
        let mut img = Image::blank(20, 10);
        img.set(3, 2, Pixel::gray(1.0, 1.0));
        img.set(15, 7, Pixel::gray(1.0, 1.0));
        assert_eq!(img.bounding_rect(), Rect::new(3, 2, 16, 8));
    }

    #[test]
    fn hint_tracks_set_and_survives_clone() {
        let mut img = Image::blank(20, 10);
        assert_eq!(img.bounds_hint(), Some(Rect::EMPTY));
        img.set(3, 2, Pixel::gray(1.0, 1.0));
        img.set(15, 7, Pixel::gray(1.0, 1.0));
        assert_eq!(img.bounds_hint(), Some(Rect::new(3, 2, 16, 8)));
        let cloned = img.clone();
        assert_eq!(cloned.bounds_hint(), img.bounds_hint());
        // Blank writes over blank pixels keep the hint...
        img.set(0, 0, Pixel::BLANK);
        assert!(img.bounds_hint().is_some());
        // ...but blanking a non-blank pixel drops it, and the scan takes
        // over with the correct (shrunk) answer.
        img.set(15, 7, Pixel::BLANK);
        assert_eq!(img.bounds_hint(), None);
        assert_eq!(img.bounding_rect(), Rect::new(3, 2, 4, 3));
    }

    #[test]
    fn hint_matches_scan_for_from_fn() {
        let img = checker(13, 7);
        let hinted = img.bounding_rect();
        let mut unhinted = Image::from_pixels(13, 7, img.pixels().to_vec());
        assert_eq!(unhinted.bounds_hint(), None);
        assert_eq!(unhinted.bounding_rect(), hinted);
        // Raw mutable access invalidates.
        let img2 = {
            let mut i = checker(13, 7);
            i.pixels_mut();
            i
        };
        assert_eq!(img2.bounds_hint(), None);
        unhinted.get_mut(0, 0);
        assert_eq!(unhinted.bounds_hint(), None);
    }

    #[test]
    fn assert_bounds_rearms_fast_path() {
        let mut img = checker(8, 8);
        let bounds = img.bounding_rect();
        img.pixels_mut(); // invalidate
        assert_eq!(img.bounds_hint(), None);
        img.assert_bounds(bounds);
        assert_eq!(img.bounds_hint(), Some(bounds));
        assert_eq!(img.bounding_rect(), bounds);
    }

    #[test]
    fn extract_write_round_trip() {
        let img = checker(12, 9);
        let r = Rect::new(2, 1, 9, 6);
        let buf = img.extract_rect(&r);
        let mut reused = vec![Pixel::gray(9.0, 9.0); 3]; // stale contents
        img.extract_rect_into(&r, &mut reused);
        assert_eq!(buf, reused, "reused buffer must match fresh extraction");
        let mut dst = Image::blank(12, 9);
        dst.write_rect(&r, &buf);
        for (x, y) in r.iter() {
            assert_eq!(dst.get(x, y), img.get(x, y));
        }
        // Outside the rect stays blank.
        assert_eq!(dst.get(0, 0), Pixel::BLANK);
    }

    #[test]
    fn composite_rect_over_counts_ops() {
        let mut back = checker(8, 8);
        let r = Rect::new(0, 0, 4, 4);
        let front = vec![Pixel::gray(1.0, 1.0); r.area()];
        let ops = back.composite_rect_over(&r, &front);
        assert_eq!(ops, 16);
        assert_eq!(back.get(0, 0), Pixel::gray(1.0, 1.0));
        assert_eq!(back.get(3, 3), Pixel::gray(1.0, 1.0));
    }

    #[test]
    fn composite_under_keeps_local_front() {
        let mut local = Image::blank(4, 4);
        local.set(1, 1, Pixel::gray(0.5, 1.0)); // opaque local pixel
        let r = Rect::new(0, 0, 4, 4);
        let back = Pixel::gray(1.0, 1.0).to_le_bytes().repeat(16);
        local.composite_rect_under_wire(&r, &back);
        // Local opaque pixel hides incoming back pixel.
        assert_eq!(local.get(1, 1), Pixel::gray(0.5, 1.0));
        // Blank local pixels show the back.
        assert_eq!(local.get(0, 0), Pixel::gray(1.0, 1.0));
    }

    #[test]
    fn row_spans_address_rows() {
        let img = checker(6, 4);
        assert_eq!(img.row_span(1, 2, 4), &img.pixels()[13..17]);
        let mut m = checker(6, 4);
        m.row_span_mut(0, 0, 6).fill(Pixel::BLANK);
        assert_eq!(m.bounds_hint(), None);
        assert_eq!(m.non_blank_count_in(&Rect::new(0, 0, 6, 1)), 0);
    }

    #[test]
    fn non_blank_counts() {
        let img = checker(4, 4);
        assert_eq!(img.non_blank_count(), 8);
        assert_eq!(img.non_blank_count_in(&Rect::new(0, 0, 2, 2)), 2);
    }

    #[test]
    #[should_panic]
    fn from_pixels_length_checked() {
        let _ = Image::from_pixels(4, 4, vec![Pixel::BLANK; 3]);
    }
}
