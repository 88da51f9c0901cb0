//! Bulk span compositing kernels.
//!
//! The binary-swap decode loops composite contiguous spans of payload
//! pixels against contiguous spans of a local image row. Doing that one
//! [`Pixel::over`] call at a time through a cursor defeats
//! auto-vectorization; these kernels expose the same arithmetic over
//! flat slices so rustc unrolls and vectorizes the component math
//! (`Pixel` is `#[repr(C)]`, four `f32`s — SoA-friendly in row order).
//!
//! Bit-exactness contract: each element is computed by the *same*
//! [`Pixel::over`] expression, in the same left-to-right order, as the
//! scalar loops these kernels replaced. Conformance tests pin the
//! composited images to reference hashes, so any arithmetic reassociation
//! here would be caught immediately.
//!
//! The `_wire` siblings take one operand in wire form (16 little-endian
//! bytes per pixel, [`Pixel::to_le_bytes`]) and decode each pixel as
//! they consume it, so a received payload is composited or stored
//! without first being unpacked into a `Vec<Pixel>`. The decoded value
//! goes through the same expression in the same order, so they are
//! bit-identical to decode-then-`*_slice` by construction.

use crate::pixel::{Pixel, BYTES_PER_PIXEL};
use crate::rle::RunSet;

/// Appends the non-blank runs of one contiguous pixel span to `table`,
/// positions offset by `base`.
///
/// The classification is exactly `!Pixel::is_blank` (bitwise: `-0.0`
/// and NaN count non-blank), evaluated branchlessly 16 pixels at a time
/// into a bitmask — the compare loop auto-vectorizes — and runs are
/// then peeled off the mask with bit scans. Runs touching a chunk (or
/// caller-side row) seam coalesce via [`RunSet::push`].
pub fn scan_runs_into(span: &[Pixel], base: usize, table: &mut RunSet) {
    const CHUNK: usize = 16;
    let mut x = 0usize;
    while x < span.len() {
        let lim = (span.len() - x).min(CHUNK);
        let mut bits: u32 = 0;
        for (i, p) in span[x..x + lim].iter().enumerate() {
            bits |= (!p.is_blank() as u32) << i;
        }
        while bits != 0 {
            let s = bits.trailing_zeros() as usize;
            let len = (!(bits >> s)).trailing_zeros() as usize;
            table.push(base + x + s, len);
            bits &= !(((1u32 << len) - 1) << s);
        }
        x += lim;
    }
}

/// `back[i] = front[i] over back[i]` for every element.
///
/// The received-subimage-is-in-front direction of a binary-swap merge.
#[inline]
pub fn over_slice(front: &[Pixel], back: &mut [Pixel]) {
    assert_eq!(front.len(), back.len());
    for (b, f) in back.iter_mut().zip(front) {
        *b = f.over(*b);
    }
}

/// `local[i] = local[i] over back[i]` for every element.
///
/// The local-subimage-stays-in-front direction of a binary-swap merge.
#[inline]
pub fn under_slice(local: &mut [Pixel], back: &[Pixel]) {
    assert_eq!(local.len(), back.len());
    for (l, b) in local.iter_mut().zip(back) {
        *l = l.over(*b);
    }
}

/// The pixels of a wire-form span, decoded one at a time: the one
/// per-pixel wire decoder, for payloads composited or stored in an
/// order other than a row's (BSLC's halves, the gather's sequence).
#[inline]
pub fn decode(wire: &[u8]) -> impl Iterator<Item = Pixel> + '_ {
    wire.chunks_exact(BYTES_PER_PIXEL)
        .map(|raw| Pixel::from_le_bytes(raw.try_into().expect("chunks_exact yields 16 bytes")))
}

/// [`over_slice`] with the front operand in wire form:
/// `back[i] = decode(front)[i] over back[i]`.
#[inline]
pub fn over_slice_wire(front: &[u8], back: &mut [Pixel]) {
    assert_eq!(front.len(), back.len() * BYTES_PER_PIXEL);
    for (b, f) in back.iter_mut().zip(decode(front)) {
        *b = f.over(*b);
    }
}

/// [`under_slice`] with the back operand in wire form:
/// `local[i] = local[i] over decode(back)[i]`.
#[inline]
pub fn under_slice_wire(local: &mut [Pixel], back: &[u8]) {
    assert_eq!(back.len(), local.len() * BYTES_PER_PIXEL);
    for (l, b) in local.iter_mut().zip(decode(back)) {
        *l = l.over(b);
    }
}

/// Calls `f(start, len)` for each maximal run of non-blank pixels of a
/// wire-form span, in order, positions in pixels. Each pixel is
/// classified by [`Pixel::is_blank`] after [`decode`]: the one blank
/// rule, applied to received bytes.
#[inline]
pub fn for_each_run_wire(wire: &[u8], mut f: impl FnMut(usize, usize)) {
    let mut at = 0usize;
    let mut rest = wire;
    while let Some(skip) = first_non_blank_wire(rest) {
        rest = &rest[skip * BYTES_PER_PIXEL..];
        let len = decode(rest)
            .position(|p| p.is_blank())
            .unwrap_or(rest.len() / BYTES_PER_PIXEL);
        f(at + skip, len);
        at += skip + len;
        rest = &rest[len * BYTES_PER_PIXEL..];
    }
}

/// The position of the first non-blank pixel of a wire-form span. A
/// chunk of blank pixels is skipped whole: its test is one branch-free
/// fold that vectorises.
#[inline]
fn first_non_blank_wire(wire: &[u8]) -> Option<usize> {
    const CHUNK: usize = 16;
    let mut at = 0usize;
    for chunk in wire.chunks(CHUNK * BYTES_PER_PIXEL) {
        if decode(chunk).fold(false, |lit, p| lit | !p.is_blank()) {
            return decode(chunk).position(|p| !p.is_blank()).map(|i| at + i);
        }
        at += CHUNK;
    }
    None
}

/// Stores a wire-form span: `dst[i] = decode(src)[i]`.
#[inline]
pub fn copy_slice_wire(dst: &mut [Pixel], src: &[u8]) {
    assert_eq!(src.len(), dst.len() * BYTES_PER_PIXEL);
    for (d, p) in dst.iter_mut().zip(decode(src)) {
        *d = p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn px(i: usize) -> Pixel {
        Pixel::from_straight(
            (i % 7) as f32 / 7.0,
            (i % 5) as f32 / 5.0,
            (i % 3) as f32 / 3.0,
            (i % 11) as f32 / 11.0,
        )
    }

    #[test]
    fn over_slice_matches_scalar_loop() {
        let front: Vec<Pixel> = (0..33).map(px).collect();
        let mut back: Vec<Pixel> = (0..33).map(|i| px(i + 13)).collect();
        let expect: Vec<Pixel> = front.iter().zip(&back).map(|(f, b)| f.over(*b)).collect();
        over_slice(&front, &mut back);
        assert_eq!(back, expect);
    }

    #[test]
    fn under_slice_matches_scalar_loop() {
        let back: Vec<Pixel> = (0..33).map(px).collect();
        let mut local: Vec<Pixel> = (0..33).map(|i| px(i + 29)).collect();
        let expect: Vec<Pixel> = local.iter().zip(&back).map(|(l, b)| l.over(*b)).collect();
        under_slice(&mut local, &back);
        assert_eq!(local, expect);
    }

    #[test]
    #[should_panic]
    fn wire_length_mismatch_panics() {
        let mut back = vec![Pixel::BLANK; 4];
        over_slice_wire(&[0u8; 4 * BYTES_PER_PIXEL - 1], &mut back);
    }

    #[test]
    #[should_panic]
    fn length_mismatch_panics() {
        let front = vec![Pixel::BLANK; 3];
        let mut back = vec![Pixel::BLANK; 4];
        over_slice(&front, &mut back);
    }

    #[test]
    fn scan_runs_matches_is_blank_scan() {
        for (seed, density) in [(1u32, 0), (2, 15), (3, 55), (4, 100), (5, 97)] {
            let span: Vec<Pixel> = (0..777u32)
                .map(|i| {
                    if i.wrapping_mul(2_654_435_761).wrapping_add(seed * 97) % 100 < density {
                        px(i as usize + 1)
                    } else {
                        Pixel::BLANK
                    }
                })
                .collect();
            let mut table = RunSet::new();
            scan_runs_into(&span, 5, &mut table);
            let mut expect = RunSet::new();
            let mut i = 0usize;
            while i < span.len() {
                if span[i].is_blank() {
                    i += 1;
                    continue;
                }
                let s = i;
                while i < span.len() && !span[i].is_blank() {
                    i += 1;
                }
                expect.push(5 + s, i - s);
            }
            assert_eq!(table, expect, "seed {seed} density {density}");
        }
    }

    #[test]
    fn wire_runs_match_the_pixel_scan() {
        let neg_zero = Pixel::new(0.0, 0.0, -0.0, 0.0);
        for (seed, density) in [(1u32, 0), (2, 15), (3, 55), (4, 100), (5, 97)] {
            for len in [0usize, 1, 15, 16, 17, 40, 777] {
                let span: Vec<Pixel> = (0..len as u32)
                    .map(
                        |i| match i.wrapping_mul(2_654_435_761).wrapping_add(seed * 97) % 100 {
                            d if d >= density => Pixel::BLANK,
                            d if d % 7 == 0 => neg_zero,
                            _ => px(i as usize + 1),
                        },
                    )
                    .collect();
                let wire: Vec<u8> = span.iter().flat_map(|p| p.to_le_bytes()).collect();
                let mut got = RunSet::new();
                for_each_run_wire(&wire, |start, len| {
                    assert!(len > 0);
                    got.push(start, len);
                });
                let mut expect = RunSet::new();
                scan_runs_into(&span, 0, &mut expect);
                assert_eq!(got, expect, "seed {seed} density {density} len {len}");
            }
        }
    }

    #[test]
    fn bit_scan_classifies_negative_zero_and_nan_non_blank() {
        // Blank is bitwise `Pixel::BLANK`: a `-0.0` component is not
        // blank, nor is NaN. The branchless classifier must agree.
        let neg_zero = Pixel {
            r: 0.0,
            g: -0.0,
            b: 0.0,
            a: 0.0,
        };
        let nan = Pixel {
            a: f32::NAN,
            ..Pixel::BLANK
        };
        assert!(!neg_zero.is_blank());
        assert!(!nan.is_blank());
        let span = [Pixel::BLANK, neg_zero, nan, Pixel::BLANK, neg_zero];
        let mut table = RunSet::new();
        scan_runs_into(&span, 10, &mut table);
        assert_eq!(table.runs(), &[(11, 2), (14, 1)]);
    }

    #[test]
    fn scan_runs_coalesces_across_chunk_seams() {
        // A run spanning the 16-pixel chunk boundary must come out as one
        // interval.
        let mut span = vec![Pixel::BLANK; 40];
        for p in &mut span[12..24] {
            *p = px(3);
        }
        let mut table = RunSet::new();
        scan_runs_into(&span, 100, &mut table);
        assert_eq!(table.runs(), &[(112, 12)]);
    }
}
