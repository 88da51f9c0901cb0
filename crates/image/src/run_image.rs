//! A pixel sequence in run-length form: its blank/non-blank [`MaskRle`]
//! run table plus the densely packed non-blank payload — what BSLC and
//! BSBRC put on the wire, held in memory. Encoding one is the paper's
//! `T_encode` pass over a whole sequence.

use crate::pixel::Pixel;
use crate::rle::MaskRle;

/// A pixel sequence in run-length form: run table + packed non-blank
/// payload. The sequence length is fixed at construction.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunImage {
    len: usize,
    mask: MaskRle,
    packed: Vec<Pixel>,
}

impl RunImage {
    /// Encodes a dense pixel sequence (`O(n)`).
    pub fn encode(pixels: &[Pixel]) -> Self {
        let mask = MaskRle::encode_mask(pixels.iter().map(|p| !p.is_blank()));
        let mut packed = Vec::with_capacity(mask.non_blank_total());
        for (start, len) in mask.non_blank_runs() {
            packed.extend_from_slice(&pixels[start..start + len]);
        }
        RunImage {
            len: pixels.len(),
            mask,
            packed,
        }
    }

    /// Number of non-blank pixels stored.
    pub fn non_blank(&self) -> usize {
        self.packed.len()
    }

    /// Expands to a dense sequence.
    pub fn decode(&self) -> Vec<Pixel> {
        let mut out = vec![Pixel::BLANK; self.len];
        let mut src = 0;
        for (start, len) in self.mask.non_blank_runs() {
            out[start..start + len].copy_from_slice(&self.packed[src..src + len]);
            src += len;
        }
        out
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
            0.2 + 0.7 * ((i % 11) as f32 / 11.0),
        )
    }

    fn sparse(n: usize, seed: usize, density_pct: usize) -> Vec<Pixel> {
        (0..n)
            .map(|i| {
                let h = i.wrapping_mul(2_654_435_761).wrapping_add(seed * 97);
                if h % 100 < density_pct {
                    px(h)
                } else {
                    Pixel::BLANK
                }
            })
            .collect()
    }

    #[test]
    fn encode_decode_round_trips() {
        for density in [0, 10, 50, 100] {
            let dense = sparse(513, density + 1, density);
            let run = RunImage::encode(&dense);
            assert_eq!(run.decode(), dense);
            assert_eq!(
                run.non_blank(),
                dense.iter().filter(|p| !p.is_blank()).count()
            );
        }
    }
}
