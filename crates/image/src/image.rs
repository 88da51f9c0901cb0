//! Row-major pixel image buffers.

use crate::interleave::StridedSeq;
use crate::kernel;
use crate::pixel::{Pixel, PixelLayout, BYTES_PER_PIXEL};
use crate::rect::Rect;
use crate::rle::RunSet;

/// A row-major image of [`Pixel`]s.
///
/// Subimages in the sort-last system are full-size images whose pixels are
/// mostly blank; the compositing methods never copy more than the active
/// region thanks to bounding rectangles and run-length encoding.
///
/// The image keeps one record of where its content is, the *extent*: a
/// rectangle outside which every pixel is bitwise [`Pixel::BLANK`]. It is
/// conservative and always true — every mutator grows it to cover what
/// it is about to write *before* writing, so it holds at every step, a
/// panic half way through a merge included — and after [`Image::blank`],
/// [`Image::from_fn`] and a render it is exactly the tight bounds. It is
/// what lets a frame be reused: [`Image::clear`], [`Clone::clone`],
/// [`Clone::clone_from`] and [`Image::copy_part_from`] touch the rows of
/// the extent, not the `W×H` frame, and [`Image::bounding_rect`] (`T_bound`) and
/// [`Image::runs_into`] never scan past it. It is also what keeps a dense
/// body's local work to the content: its encoder copies only the
/// extent's pixels of a rect (the rest are 16 zero bytes each on the
/// wire), and [`Image::composite_rect_over_wire`] /
/// [`Image::composite_rect_under_wire`] write outside the extent only
/// where an incoming pixel is non-blank — the wire bytes stay Equation
/// (2)'s, every pixel of the rect.
#[derive(Debug)]
pub struct Image {
    width: u16,
    height: u16,
    pixels: Vec<Pixel>,
    /// Every pixel outside is bitwise [`Pixel::BLANK`]. Always within the
    /// frame.
    extent: Rect,
}

/// Equality is over the pixel grid only; the extent is bookkeeping, and
/// two images differing only in it compare equal.
impl PartialEq for Image {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width && self.height == other.height && self.pixels == other.pixels
    }
}

/// A rank's working copy of its subimage is a clone, and a sort-last
/// subimage is mostly blank: when the extent covers less than half the
/// frame, only its rows are read (the rest of the copy is written as
/// [`Pixel::BLANK`], which is what lies outside the extent). Denser
/// images take the plain copy, which is cheaper than fill-then-copy once
/// most of the frame is live.
///
/// `clone_from` is [`Image::copy_part_from`] over the whole frame: with
/// equal dimensions it blanks the rows the previous use touched, copies
/// the rows of `src`'s extent and adopts that extent — `O(both
/// extents)`, no allocation, and the same image (pixel bits and extent)
/// a fresh clone would be.
impl Clone for Image {
    fn clone(&self) -> Self {
        let pixels = if self.extent.area() * 2 < self.pixels.len() {
            let mut pixels = vec![Pixel::BLANK; self.pixels.len()];
            self.copy_rows(&self.extent, &mut pixels);
            pixels
        } else {
            self.pixels.clone()
        };
        Image {
            width: self.width,
            height: self.height,
            pixels,
            extent: self.extent,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        if (self.width, self.height) != (src.width, src.height) {
            *self = src.clone();
            return;
        }
        self.copy_part_from(src, &src.full_rect());
    }
}

impl Image {
    /// Creates a blank image.
    pub fn blank(width: u16, height: u16) -> Self {
        Image {
            width,
            height,
            pixels: vec![Pixel::BLANK; width as usize * height as usize],
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

    /// Mutable pixel access; the extent grows over the pixel.
    #[inline]
    pub fn get_mut(&mut self, x: u16, y: u16) -> &mut Pixel {
        let i = self.index(x, y);
        self.touch_pixel(x, y);
        &mut self.pixels[i]
    }

    /// Sets a pixel; the extent grows over it.
    #[inline]
    pub fn set(&mut self, x: u16, y: u16, p: Pixel) {
        let i = self.index(x, y);
        self.touch_pixel(x, y);
        self.pixels[i] = p;
    }

    /// Flat pixel slice (row-major).
    #[inline]
    pub fn pixels(&self) -> &[Pixel] {
        &self.pixels
    }

    /// Flat mutable pixel slice (row-major). Widens the extent to the
    /// whole frame.
    #[inline]
    pub fn pixels_mut(&mut self) -> &mut [Pixel] {
        self.extent = self.full_rect();
        &mut self.pixels
    }

    /// One row's span of `len` pixels starting at `(x, y)`.
    #[inline]
    pub fn row_span(&self, x: u16, y: u16, len: usize) -> &[Pixel] {
        let i = self.index(x, y);
        debug_assert!(x as usize + len <= self.width as usize);
        &self.pixels[i..i + len]
    }

    /// Mutable row span; the extent grows over it.
    #[inline]
    pub fn row_span_mut(&mut self, x: u16, y: u16, len: usize) -> &mut [Pixel] {
        let i = self.index(x, y);
        let end = x as usize + len;
        assert!(end <= self.width as usize, "row span leaves the frame");
        self.touch(&Rect::new(x, y, end as u16, y + 1));
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
    /// superset of the tight bounds, equal to them after [`Image::blank`]
    /// and [`Image::from_fn`]. The wire merges
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
    }

    /// Resets to `src`'s pixels inside `part` and [`Pixel::BLANK`]
    /// everywhere else, adopting `src.extent() ∩ part` as the extent: it
    /// blanks the rows the previous use touched and copies the rows of
    /// the kept extent — `O(last use + kept part)`, no allocation. This is
    /// how a rank's working frame takes only the part of its subimage it
    /// keeps. Panics unless the dimensions match.
    pub fn copy_part_from(&mut self, src: &Image, part: &Rect) {
        assert_eq!(
            (self.width, self.height),
            (src.width, src.height),
            "a part is copied between frames of one size"
        );
        self.clear();
        // Grown first, like every write: the invariant holds throughout.
        self.extent = src.extent.intersect(part);
        src.copy_rows(&self.extent, &mut self.pixels);
    }

    /// Copies the rows of `rect`, which lies in the frame, into the same
    /// places of `dst`, a pixel buffer of this image's size.
    fn copy_rows(&self, rect: &Rect, dst: &mut [Pixel]) {
        let w = rect.width() as usize;
        for y in rect.y0..rect.y1 {
            let i = self.index(rect.x0, y);
            dst[i..i + w].copy_from_slice(&self.pixels[i..i + w]);
        }
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

    /// Bounding rectangle of all non-blank pixels: the `O(A)` row scan
    /// the paper charges as `T_bound` in the first BSBR/BSBRC stage, over
    /// the extent only (nothing outside it can be non-blank).
    ///
    /// It reads only what can still move a bound. The first and the
    /// last lit rows are found from the extent's top and bottom, each
    /// read from both ends. A row between them can only widen the
    /// columns found so far, so it is read only left and right of them,
    /// and not at all once they reach the extent's sides. When the top
    /// and bottom rows of the extent are both lit — a render's extent is
    /// its bounds — one walk down each side column of the extent usually
    /// settles that side at once; a side column that holds nothing is
    /// then skipped by the row reads. Every pixel read is one the plain
    /// row-by-row scan reads too, and a loose extent (a fold result's)
    /// takes no column walk.
    pub fn bounding_rect(&self) -> Rect {
        let e = self.extent;
        let w = e.width() as usize;
        let row = |y: u16| self.row_span(e.x0, y, w);
        let lit = |p: &Pixel| !p.is_blank();
        // A row's first and last lit columns, read from both ends.
        let ends = |y: u16| {
            let r = row(y);
            let first = r.iter().position(lit)?;
            Some((y, first, r.iter().rposition(lit).expect("a lit pixel") + 1))
        };
        let Some((top, x0, x1)) = (e.y0..e.y1).find_map(ends) else {
            return Rect::EMPTY;
        };
        let (bottom, b0, b1) = (top + 1..e.y1)
            .rev()
            .find_map(ends)
            .unwrap_or((top, x0, x1));
        let (mut x0, mut x1) = (x0.min(b0), x1.max(b1));
        // Columns [from, to) of the rows between may still be lit.
        let (mut from, mut to) = (0, w);
        let inner = top + 1..bottom;
        if (top, bottom + 1) == (e.y0, e.y1) {
            if x0 > 0 {
                if inner.clone().any(|y| lit(&row(y)[0])) {
                    x0 = 0;
                } else {
                    from = 1;
                }
            }
            if x1 < w {
                if inner.clone().any(|y| lit(&row(y)[w - 1])) {
                    x1 = w;
                } else {
                    to = w - 1;
                }
            }
        }
        for y in inner {
            if x0 == from && x1 == to {
                break;
            }
            let r = row(y);
            if let Some(i) = r[from..x0].iter().position(lit) {
                x0 = from + i;
            }
            if let Some(i) = r[x1..to].iter().rposition(lit) {
                x1 += i + 1;
            }
        }
        Rect::new(e.x0 + x0 as u16, top, e.x0 + x1 as u16, bottom + 1)
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
        let w = rect.width() as usize;
        for (row_idx, y) in (rect.y0..rect.y1).enumerate() {
            let dst = self.index(rect.x0, y);
            kernel::over_slice(&front[row_idx * w..][..w], &mut self.pixels[dst..dst + w]);
        }
        rect.area()
    }

    /// Stores wire-form pixels, laid out as `layout`, at runs of `rect`
    /// — `(start, len)` positions, row-major inside it, in order — each
    /// row segment decoded straight into its image row. `wire` holds
    /// exactly the runs' pixels; nothing else of the image is touched.
    pub fn write_runs_wire(
        &mut self,
        rect: &Rect,
        runs: impl IntoIterator<Item = (usize, usize)>,
        wire: &[u8],
        layout: PixelLayout,
    ) {
        let mut rest = wire;
        rect.for_row_segments(runs, |x, y, n| {
            let (run, tail) = rest.split_at(n * layout.bytes());
            kernel::copy_slice_wire(self.row_span_mut(x, y, n), run, layout);
            rest = tail;
        });
        assert!(rest.is_empty(), "wire pixels left over after the runs");
    }

    /// Applies `f` to the pixels at the `(start, len)` runs of positions
    /// of `seq`, in order, one pixel at a time: the writer whose pixels
    /// are not a rectangle's rows (BSLC's interleaved halves). Before a
    /// run is written the extent grows over its bounding rectangle — its
    /// own columns when the run stays on one row, the whole width when it
    /// wraps — so a merge widens the extent over what it writes, not
    /// over the frame.
    pub fn update_seq_runs(
        &mut self,
        seq: &StridedSeq,
        runs: impl IntoIterator<Item = (usize, usize)>,
        mut f: impl FnMut(&mut Pixel),
    ) {
        let width = self.width as usize;
        for (start, len) in runs {
            if len == 0 {
                continue;
            }
            let (first, last) = (seq.index(start), seq.index(start + len - 1));
            assert!(last < self.pixels.len(), "a run leaves the frame");
            let (y0, y1) = (first / width, last / width);
            let (x0, x1) = if y0 == y1 {
                (first % width, last % width + 1)
            } else {
                (0, width)
            };
            self.touch(&Rect::new(x0 as u16, y0 as u16, x1 as u16, y1 as u16 + 1));
            for i in start..start + len {
                f(&mut self.pixels[seq.index(i)]);
            }
        }
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
    fn extent_tracks_set_and_survives_clone() {
        let mut img = Image::blank(20, 10);
        assert_eq!(img.extent(), Rect::EMPTY);
        img.set(3, 2, Pixel::gray(1.0, 1.0));
        img.set(15, 7, Pixel::gray(1.0, 1.0));
        assert_eq!(img.extent(), Rect::new(3, 2, 16, 8));
        let cloned = img.clone();
        assert_eq!(cloned.extent(), img.extent());
        // Blanking a non-blank pixel keeps the extent (it is a superset
        // of the bounds), and the scan finds the shrunk bounds.
        img.set(15, 7, Pixel::BLANK);
        assert_eq!(img.extent(), Rect::new(3, 2, 16, 8));
        assert_eq!(img.bounding_rect(), Rect::new(3, 2, 4, 3));
    }

    #[test]
    fn scan_matches_from_fn_through_any_extent() {
        let img = checker(13, 7);
        let bounds = img.bounding_rect();
        assert_eq!(img.extent(), bounds);
        let mut whole = Image::from_pixels(13, 7, img.pixels().to_vec());
        assert_eq!(whole.extent(), whole.full_rect());
        assert_eq!(whole.bounding_rect(), bounds);
        // Raw mutable access widens the extent; a single pixel grows it.
        let mut img2 = Image::blank(13, 7);
        img2.get_mut(4, 5);
        assert_eq!(img2.extent(), Rect::new(4, 5, 5, 6));
        img2.pixels_mut();
        assert_eq!(img2.extent(), img2.full_rect());
        whole.clear();
        assert_eq!(whole.extent(), Rect::EMPTY);
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
