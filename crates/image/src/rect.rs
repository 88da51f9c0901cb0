//! Axis-aligned bounding rectangles.
//!
//! The BSBR and BSBRC methods transmit, at every compositing stage, the
//! bounding rectangle of the non-blank pixels in the half-image being sent.
//! The paper encodes a rectangle as four short integers (8 bytes — the `8`
//! in Equations (4) and (8)); [`Rect::to_le_bytes`] reproduces that wire
//! format exactly.

/// Size of a rectangle header on the wire, in bytes (four `u16`s).
pub const BYTES_PER_RECT: usize = 8;

/// A half-open axis-aligned rectangle `[x0, x1) × [y0, y1)` in pixel
/// coordinates.
///
/// A rectangle is *empty* when it contains no pixels (`x0 >= x1` or
/// `y0 >= y1`); all empty rectangles compare equal through
/// [`Rect::is_empty`]-aware operations but the canonical empty value is
/// [`Rect::EMPTY`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Inclusive left edge.
    pub x0: u16,
    /// Inclusive top edge.
    pub y0: u16,
    /// Exclusive right edge.
    pub x1: u16,
    /// Exclusive bottom edge.
    pub y1: u16,
}

impl Rect {
    /// The canonical empty rectangle.
    pub const EMPTY: Rect = Rect {
        x0: 0,
        y0: 0,
        x1: 0,
        y1: 0,
    };

    /// Creates a rectangle; callers may produce empty rectangles freely.
    #[inline]
    pub const fn new(x0: u16, y0: u16, x1: u16, y1: u16) -> Self {
        Rect { x0, y0, x1, y1 }
    }

    /// A rectangle covering a full `width × height` image.
    #[inline]
    pub fn of_size(width: u16, height: u16) -> Self {
        Rect {
            x0: 0,
            y0: 0,
            x1: width,
            y1: height,
        }
    }

    /// Whether the rectangle contains no pixels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.x0 >= self.x1 || self.y0 >= self.y1
    }

    /// Width in pixels (zero when empty).
    #[inline]
    pub fn width(&self) -> u16 {
        self.x1.saturating_sub(self.x0)
    }

    /// Height in pixels (zero when empty).
    #[inline]
    pub fn height(&self) -> u16 {
        self.y1.saturating_sub(self.y0)
    }

    /// Number of pixels covered.
    #[inline]
    pub fn area(&self) -> usize {
        self.width() as usize * self.height() as usize
    }

    /// Whether `(x, y)` lies inside.
    #[inline]
    pub fn contains(&self, x: u16, y: u16) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1
    }

    /// Whether `other` lies entirely inside `self` (empty rects are
    /// contained in everything).
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.is_empty()
            || (other.x0 >= self.x0
                && other.x1 <= self.x1
                && other.y0 >= self.y0
                && other.y1 <= self.y1)
    }

    /// Intersection; returns [`Rect::EMPTY`] when disjoint.
    #[inline]
    pub fn intersect(&self, other: &Rect) -> Rect {
        let r = Rect {
            x0: self.x0.max(other.x0),
            y0: self.y0.max(other.y0),
            x1: self.x1.min(other.x1),
            y1: self.y1.min(other.y1),
        };
        if r.is_empty() {
            Rect::EMPTY
        } else {
            r
        }
    }

    /// Smallest rectangle covering both operands. Empty operands are
    /// identity elements, which is how BSBR merges the local bounding
    /// rectangle with a possibly-empty receiving bounding rectangle
    /// (algorithm line 21).
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return if other.is_empty() {
                Rect::EMPTY
            } else {
                *other
            };
        }
        if other.is_empty() {
            return *self;
        }
        Rect {
            x0: self.x0.min(other.x0),
            y0: self.y0.min(other.y0),
            x1: self.x1.max(other.x1),
            y1: self.y1.max(other.y1),
        }
    }

    /// Grows the rectangle to include the single pixel `(x, y)`.
    #[inline]
    pub fn include(&mut self, x: u16, y: u16) {
        let px = Rect {
            x0: x,
            y0: y,
            x1: x + 1,
            y1: y + 1,
        };
        *self = self.union(&px);
    }

    /// Splits along the vertical centerline of `region` into (left, right)
    /// pieces clipped to `self`.
    ///
    /// The centerline of the *subimage region* — not of the bounding
    /// rectangle — is used, per line 6 of the BSBRC algorithm.
    pub fn split_at_x(&self, x: u16) -> (Rect, Rect) {
        let left = self.intersect(&Rect {
            x0: 0,
            y0: 0,
            x1: x,
            y1: u16::MAX,
        });
        let right = self.intersect(&Rect {
            x0: x,
            y0: 0,
            x1: u16::MAX,
            y1: u16::MAX,
        });
        (left, right)
    }

    /// Iterates the pixel coordinates inside the rectangle in row-major
    /// order — the scan order both BSBR packing and BSBRC run-length
    /// encoding use.
    pub fn iter(&self) -> impl Iterator<Item = (u16, u16)> + '_ {
        let r = *self;
        (r.y0..r.y1).flat_map(move |y| (r.x0..r.x1).map(move |x| (x, y)))
    }

    /// Walks runs — `(start, len)` positions, row-major inside this
    /// rectangle — as row segments `(x, y, len)`, each cut at the
    /// rectangle's right edge: the shape image rows and the slice
    /// kernels want.
    pub fn for_row_segments(
        &self,
        runs: impl IntoIterator<Item = (usize, usize)>,
        mut visit: impl FnMut(u16, u16, usize),
    ) {
        let row_w = self.width() as usize;
        for (start, len) in runs {
            let (mut pos, mut rem) = (start, len);
            while rem > 0 {
                let col = pos % row_w;
                let seg = rem.min(row_w - col);
                visit(self.x0 + col as u16, self.y0 + (pos / row_w) as u16, seg);
                pos += seg;
                rem -= seg;
            }
        }
    }

    /// Serializes as four little-endian `u16`s (8 bytes), the paper's
    /// bounding-rectangle header format.
    #[inline]
    pub fn to_le_bytes(self) -> [u8; BYTES_PER_RECT] {
        let mut out = [0u8; BYTES_PER_RECT];
        out[0..2].copy_from_slice(&self.x0.to_le_bytes());
        out[2..4].copy_from_slice(&self.y0.to_le_bytes());
        out[4..6].copy_from_slice(&self.x1.to_le_bytes());
        out[6..8].copy_from_slice(&self.y1.to_le_bytes());
        out
    }

    /// Deserializes from the 8-byte wire format.
    #[inline]
    pub fn from_le_bytes(bytes: [u8; BYTES_PER_RECT]) -> Self {
        let g = |i: usize| u16::from_le_bytes([bytes[i], bytes[i + 1]]);
        Rect {
            x0: g(0),
            y0: g(2),
            x1: g(4),
            y1: g(6),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_properties() {
        assert!(Rect::EMPTY.is_empty());
        assert_eq!(Rect::EMPTY.area(), 0);
        assert_eq!(Rect::new(5, 5, 5, 9).area(), 0);
        assert!(Rect::new(7, 3, 2, 9).is_empty());
    }

    #[test]
    fn area_and_dims() {
        let r = Rect::new(2, 3, 10, 7);
        assert_eq!(r.width(), 8);
        assert_eq!(r.height(), 4);
        assert_eq!(r.area(), 32);
    }

    #[test]
    fn contains_pixel_edges() {
        let r = Rect::new(2, 3, 10, 7);
        assert!(r.contains(2, 3));
        assert!(r.contains(9, 6));
        assert!(!r.contains(10, 6));
        assert!(!r.contains(9, 7));
        assert!(!r.contains(1, 5));
    }

    #[test]
    fn intersection_disjoint_is_empty() {
        let a = Rect::new(0, 0, 5, 5);
        let b = Rect::new(5, 0, 9, 5);
        assert_eq!(a.intersect(&b), Rect::EMPTY);
    }

    #[test]
    fn intersection_overlap() {
        let a = Rect::new(0, 0, 6, 6);
        let b = Rect::new(3, 2, 9, 5);
        assert_eq!(a.intersect(&b), Rect::new(3, 2, 6, 5));
    }

    #[test]
    fn union_with_empty_is_identity() {
        let a = Rect::new(3, 2, 9, 5);
        assert_eq!(a.union(&Rect::EMPTY), a);
        assert_eq!(Rect::EMPTY.union(&a), a);
        assert_eq!(Rect::EMPTY.union(&Rect::EMPTY), Rect::EMPTY);
    }

    #[test]
    fn union_covers_both() {
        let a = Rect::new(1, 1, 3, 3);
        let b = Rect::new(5, 0, 7, 2);
        assert_eq!(a.union(&b), Rect::new(1, 0, 7, 3));
    }

    #[test]
    fn include_grows() {
        let mut r = Rect::EMPTY;
        r.include(4, 7);
        assert_eq!(r, Rect::new(4, 7, 5, 8));
        r.include(2, 9);
        assert_eq!(r, Rect::new(2, 7, 5, 10));
    }

    #[test]
    fn split_x() {
        let r = Rect::new(2, 1, 10, 5);
        let (l, rt) = r.split_at_x(6);
        assert_eq!(l, Rect::new(2, 1, 6, 5));
        assert_eq!(rt, Rect::new(6, 1, 10, 5));
        // Split completely to one side.
        let (l, rt) = r.split_at_x(1);
        assert!(l.is_empty());
        assert_eq!(rt, r);
    }

    #[test]
    fn iter_row_major() {
        let r = Rect::new(1, 1, 3, 3);
        let pts: Vec<_> = r.iter().collect();
        assert_eq!(pts, vec![(1, 1), (2, 1), (1, 2), (2, 2)]);
        assert_eq!(Rect::EMPTY.iter().count(), 0);
    }

    #[test]
    fn wire_round_trip() {
        let r = Rect::new(12, 34, 5600, 789);
        assert_eq!(Rect::from_le_bytes(r.to_le_bytes()), r);
    }
}
