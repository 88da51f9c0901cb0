//! The pixel model and the `over` compositing operator.
//!
//! The paper represents each pixel by *intensity and opacity* in 16 bytes
//! (Section 3.1). We use premultiplied RGBA with four `f32` components,
//! which is exactly 16 bytes and matches the coefficient `16 · A/2^k` in
//! the communication-cost equations (2), (4), (6) and (8).

/// Size of one pixel on the wire, in bytes (four little-endian `f32`s).
pub const BYTES_PER_PIXEL: usize = 16;

/// A premultiplied-alpha RGBA pixel.
///
/// The color channels are *premultiplied* by opacity, which is the natural
/// output of front-to-back ray casting and makes [`Pixel::over`]
/// associative — the property that lets binary-swap composite subimages in
/// any tree order as long as each pairwise composite is oriented
/// front-over-back.
#[repr(C)]
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Pixel {
    /// Premultiplied red intensity in `[0, 1]`.
    pub r: f32,
    /// Premultiplied green intensity in `[0, 1]`.
    pub g: f32,
    /// Premultiplied blue intensity in `[0, 1]`.
    pub b: f32,
    /// Opacity in `[0, 1]`. Zero marks a *blank* (background) pixel.
    pub a: f32,
}

impl Pixel {
    /// The blank (background) pixel: fully transparent, zero intensity.
    pub const BLANK: Pixel = Pixel {
        r: 0.0,
        g: 0.0,
        b: 0.0,
        a: 0.0,
    };

    /// Creates a pixel from premultiplied components.
    #[inline]
    pub const fn new(r: f32, g: f32, b: f32, a: f32) -> Self {
        Pixel { r, g, b, a }
    }

    /// Creates a gray pixel (the paper renders 8-bit gray-level images).
    #[inline]
    pub const fn gray(intensity: f32, a: f32) -> Self {
        Pixel {
            r: intensity,
            g: intensity,
            b: intensity,
            a,
        }
    }

    /// Creates an *unpremultiplied* pixel and premultiplies it.
    #[inline]
    pub fn from_straight(r: f32, g: f32, b: f32, a: f32) -> Self {
        Pixel {
            r: r * a,
            g: g * a,
            b: b * a,
            a,
        }
    }

    /// Whether this pixel is blank, i.e. carries no contribution.
    ///
    /// The sparse-merging methods (BSBR/BSLC/BSBRC) all classify pixels by
    /// this predicate: the renderer writes an exact `0.0` opacity wherever
    /// no ray sample contributed.
    #[inline]
    pub fn is_blank(&self) -> bool {
        self.a == 0.0 && self.r == 0.0 && self.g == 0.0 && self.b == 0.0
    }

    /// The `over` operator with `self` in *front* of `back`.
    ///
    /// With premultiplied colors: `out = front + (1 − αf) · back` for every
    /// channel including opacity. This is the per-pixel operation whose cost
    /// the paper denotes `T_o`.
    #[inline]
    pub fn over(self, back: Pixel) -> Pixel {
        let t = 1.0 - self.a;
        Pixel {
            r: self.r + t * back.r,
            g: self.g + t * back.g,
            b: self.b + t * back.b,
            a: self.a + t * back.a,
        }
    }

    /// Quantizes the gray intensity to 8 bits for PGM output.
    #[inline]
    pub fn luma_u8(&self) -> u8 {
        let y = 0.2126 * self.r + 0.7152 * self.g + 0.0722 * self.b;
        (y.clamp(0.0, 1.0) * 255.0).round() as u8
    }

    /// Serializes the pixel as 16 little-endian bytes.
    #[inline]
    pub fn to_le_bytes(self) -> [u8; BYTES_PER_PIXEL] {
        let mut out = [0u8; BYTES_PER_PIXEL];
        out[0..4].copy_from_slice(&self.r.to_le_bytes());
        out[4..8].copy_from_slice(&self.g.to_le_bytes());
        out[8..12].copy_from_slice(&self.b.to_le_bytes());
        out[12..16].copy_from_slice(&self.a.to_le_bytes());
        out
    }

    /// Deserializes a pixel from 16 little-endian bytes.
    #[inline]
    pub fn from_le_bytes(bytes: [u8; BYTES_PER_PIXEL]) -> Self {
        let f = |i: usize| f32::from_le_bytes(bytes[i..i + 4].try_into().unwrap());
        Pixel {
            r: f(0),
            g: f(4),
            b: f(8),
            a: f(12),
        }
    }

    /// Component-wise maximum absolute difference, used by the correctness
    /// tests to compare distributed results against the sequential
    /// reference within floating-point tolerance.
    #[inline]
    pub fn max_abs_diff(&self, other: &Pixel) -> f32 {
        (self.r - other.r)
            .abs()
            .max((self.g - other.g).abs())
            .max((self.b - other.b).abs())
            .max((self.a - other.a).abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pixel_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Pixel>(), BYTES_PER_PIXEL);
    }

    #[test]
    fn blank_detection() {
        assert!(Pixel::BLANK.is_blank());
        assert!(!Pixel::gray(0.5, 0.5).is_blank());
        // Opacity zero but nonzero emission is not blank: it still
        // contributes under premultiplied `over`.
        assert!(!Pixel::new(0.1, 0.0, 0.0, 0.0).is_blank());
    }

    #[test]
    fn over_identity_with_blank_back() {
        let front = Pixel::from_straight(0.8, 0.4, 0.2, 0.6);
        assert_eq!(front.over(Pixel::BLANK), front);
    }

    #[test]
    fn over_identity_with_blank_front() {
        let back = Pixel::from_straight(0.8, 0.4, 0.2, 0.6);
        assert_eq!(Pixel::BLANK.over(back), back);
    }

    #[test]
    fn opaque_front_hides_back() {
        let front = Pixel::from_straight(0.3, 0.3, 0.3, 1.0);
        let back = Pixel::from_straight(0.9, 0.1, 0.5, 0.7);
        assert_eq!(front.over(back), front);
    }

    #[test]
    fn over_is_associative() {
        let a = Pixel::from_straight(0.2, 0.4, 0.6, 0.3);
        let b = Pixel::from_straight(0.9, 0.1, 0.5, 0.5);
        let c = Pixel::from_straight(0.4, 0.8, 0.2, 0.8);
        let left = a.over(b).over(c);
        let right = a.over(b.over(c));
        assert!(left.max_abs_diff(&right) < 1e-6, "{left:?} vs {right:?}");
    }

    #[test]
    fn over_accumulates_opacity() {
        let a = Pixel::from_straight(0.5, 0.5, 0.5, 0.5);
        let out = a.over(a);
        assert!((out.a - 0.75).abs() < 1e-6);
    }

    #[test]
    fn bytes_round_trip() {
        let p = Pixel::new(0.125, -1.5, 3.25, 0.75);
        assert_eq!(Pixel::from_le_bytes(p.to_le_bytes()), p);
    }

    #[test]
    fn luma_of_white_is_255() {
        assert_eq!(Pixel::new(1.0, 1.0, 1.0, 1.0).luma_u8(), 255);
        assert_eq!(Pixel::BLANK.luma_u8(), 0);
    }
}
