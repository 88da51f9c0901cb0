//! Order-independent and order-dependent image digests for tests.

use crate::image::Image;

/// The FNV-1a 64-bit offset basis: the digest of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;
const FNV_PRIME_POW_16: u64 = FNV_PRIME.wrapping_pow(16);

/// Textbook FNV-1a, continued from digest `h` (start at [`FNV_OFFSET`])
/// over `bytes`: xor one byte, multiply by the prime. The image digest
/// below, the frame-cache key and the shard key are all this loop. It
/// takes the bytes by value so a 16-byte pixel array unrolls in the
/// caller as it did when the loop was written there (a slice loop cost
/// `serve_hot` 0.13 ms a frame).
#[inline]
pub fn fnv1a_bytes(mut h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for byte in bytes {
        h = (h ^ byte as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over the image's pixel bit patterns, row-major.
///
/// Bit-exact digest: two images compare equal iff every `f32` component has
/// an identical bit pattern. Used by tests that require the distributed
/// result to match the reference exactly (plain BS does, since it performs
/// the same float operations in the same order).
pub fn fnv1a(img: &Image) -> u64 {
    let mut h: u64 = FNV_OFFSET;
    for p in img.pixels() {
        // A zero byte's step is `(h ^ 0) * p`, so the sixteen zero bytes of
        // a blank pixel (bitwise `Pixel::BLANK`) are one wrapping multiply
        // by `p^16` instead of sixteen dependent ones. Same digest by
        // associativity of wrapping multiplication.
        if p.is_blank() {
            h = h.wrapping_mul(FNV_PRIME_POW_16);
            continue;
        }
        h = fnv1a_bytes(h, p.to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::pixel::Pixel;

    /// Textbook FNV-1a: xor one byte, multiply by the prime, every byte.
    fn fnv1a_bytewise(img: &Image) -> u64 {
        let mut h = FNV_OFFSET;
        for byte in img.pixels().iter().flat_map(|p| p.to_le_bytes()) {
            h = (h ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// Component bit patterns around the blank-pixel fold: exact zero,
    /// `-0.0`, NaNs, zero bytes inside a non-zero word, anything.
    fn arb_component_bits() -> impl Strategy<Value = u32> {
        prop_oneof![
            4 => Just(0u32),
            1 => Just((-0.0f32).to_bits()),
            1 => Just(f32::NAN.to_bits()),
            1 => Just(0xFFFF_FFFFu32),
            1 => Just(0x00FF_0000u32),
            1 => Just(0x0000_0001u32),
            3 => any::<u32>(),
        ]
    }

    fn arb_pixel() -> impl Strategy<Value = Pixel> {
        let mixed = (
            arb_component_bits(),
            arb_component_bits(),
            arb_component_bits(),
            arb_component_bits(),
        )
            .prop_map(|(r, g, b, a)| {
                Pixel::new(
                    f32::from_bits(r),
                    f32::from_bits(g),
                    f32::from_bits(b),
                    f32::from_bits(a),
                )
            });
        prop_oneof![
            2 => Just(Pixel::BLANK),
            3 => mixed,
        ]
    }

    proptest! {
        #[test]
        fn zero_folding_matches_bytewise_fnv1a(
            width in 1u16..24,
            height in 1u16..24,
            pool in proptest::collection::vec(arb_pixel(), 23 * 23),
        ) {
            let count = width as usize * height as usize;
            let img = Image::from_pixels(width, height, pool[..count].to_vec());
            prop_assert_eq!(fnv1a(&img), fnv1a_bytewise(&img));
        }
    }

    #[test]
    fn blank_and_dense_images_match_bytewise_fnv1a() {
        let blank = Image::blank(17, 9);
        assert_eq!(fnv1a(&blank), fnv1a_bytewise(&blank));
        let dense = Image::from_fn(17, 9, |x, y| Pixel::gray(0.25 + x as f32, 0.5 + y as f32));
        assert_eq!(fnv1a(&dense), fnv1a_bytewise(&dense));
    }

    #[test]
    fn identical_images_same_digest() {
        let a = Image::from_fn(8, 8, |x, y| Pixel::gray(x as f32 * 0.1 + y as f32, 0.5));
        let b = a.clone();
        assert_eq!(fnv1a(&a), fnv1a(&b));
    }

    #[test]
    fn single_pixel_change_changes_digest() {
        let a = Image::blank(8, 8);
        let mut b = a.clone();
        b.set(3, 3, Pixel::gray(0.001, 0.001));
        assert_ne!(fnv1a(&a), fnv1a(&b));
    }

    #[test]
    fn negative_zero_differs_from_zero() {
        // Bit-exactness is intentional: -0.0 != +0.0 at the bit level.
        let a = Image::blank(1, 1);
        let mut b = a.clone();
        b.set(0, 0, Pixel::new(-0.0, 0.0, 0.0, 0.0));
        assert_ne!(fnv1a(&a), fnv1a(&b));
    }
}
