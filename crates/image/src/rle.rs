//! Run-length encodings for sparse subimages.
//!
//! Two encodings are provided:
//!
//! * [`MaskRle`] — the paper's scheme (Section 3.3, Figure 5): runs are
//!   taken over the *background/foreground* classification of pixels, not
//!   their values, so only the non-blank pixel payload plus 2-byte run
//!   codes travel. Used by BSLC and BSBRC.
//! * [`ValueRle`] — the Ahrens & Painter compression-based scheme of the
//!   related work: runs are maximal sequences of *equal-valued* pixels,
//!   each encoded as pixel + count. The paper argues this works for
//!   surface rendering but degenerates for volume rendering where float
//!   values rarely repeat; Ablation 1 (`results/ablation.txt`) measures
//!   its wire bytes against mask RLE.

use crate::pixel::Pixel;

/// Size of one run code on the wire (a `u16` — the `2 · R_code` term in
/// Equations (6) and (8)).
pub const BYTES_PER_RUN_CODE: usize = 2;

/// Blank/non-blank run-length codes over a pixel sequence.
///
/// The code vector alternates run lengths starting with a *blank* run
/// (possibly of length zero, when the sequence starts with a non-blank
/// pixel). Runs longer than `u16::MAX` are split by inserting zero-length
/// runs of the opposite class, so arbitrary sequence lengths round-trip.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MaskRle {
    codes: Vec<u16>,
}

impl MaskRle {
    /// Encodes the blank/non-blank mask of a pixel sequence.
    ///
    /// `O(n)` in the sequence length — the `T_encode × A_send` term of
    /// Equations (5) and (7).
    pub fn encode<'a>(pixels: impl IntoIterator<Item = &'a Pixel>) -> Self {
        Self::encode_mask(pixels.into_iter().map(|p| !p.is_blank()))
    }

    /// Encodes directly from a boolean mask (`true` = non-blank).
    pub fn encode_mask(mask: impl IntoIterator<Item = bool>) -> Self {
        let mut codes: Vec<u16> = Vec::new();
        // Invariant: codes.len() even <=> next run to emit is blank.
        let mut current_is_non_blank = false; // first run is blank
        let mut run: u32 = 0;
        let flush = |codes: &mut Vec<u16>, run: &mut u32| {
            let mut r = *run;
            // Emit r as one or more u16 runs separated by zero-length
            // opposite runs.
            loop {
                let chunk = r.min(u16::MAX as u32);
                codes.push(chunk as u16);
                r -= chunk;
                if r == 0 {
                    break;
                }
                codes.push(0); // zero-length run of the opposite class
            }
            *run = 0;
        };
        for non_blank in mask {
            if non_blank == current_is_non_blank {
                run += 1;
            } else {
                flush(&mut codes, &mut run);
                current_is_non_blank = non_blank;
                run = 1;
            }
        }
        if run > 0 {
            flush(&mut codes, &mut run);
        }
        // Trim a trailing blank run: it carries no pixels and the decoder
        // pads with blanks anyway. (Only when it is the *first* run too,
        // i.e. an all-blank sequence, we keep nothing.)
        if codes.len() % 2 == 1 && !current_is_non_blank && !codes.is_empty() {
            codes.pop();
        }
        MaskRle { codes }
    }

    /// Creates from raw codes (e.g. after unpacking a received message).
    pub fn from_codes(codes: Vec<u16>) -> Self {
        MaskRle { codes }
    }

    /// Builds the encoding directly from sorted, disjoint, coalesced
    /// non-blank intervals `(start, len)` — `O(runs)`, without touching
    /// any pixel. Produces exactly the codes [`MaskRle::encode_mask`]
    /// would for the same mask (adjacent intervals must be pre-merged
    /// and zero-length intervals omitted, or the result is a valid but
    /// non-canonical encoding).
    pub fn from_runs(runs: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut codes: Vec<u16> = Vec::new();
        // Emits one logical run, splitting at u16::MAX with zero-length
        // runs of the opposite class (same scheme as `encode_mask`).
        let push = |codes: &mut Vec<u16>, mut r: usize| loop {
            let chunk = r.min(u16::MAX as usize);
            codes.push(chunk as u16);
            r -= chunk;
            if r == 0 {
                break;
            }
            codes.push(0);
        };
        let mut pos = 0usize;
        for (start, len) in runs {
            assert!(start >= pos, "runs must be sorted and disjoint");
            if len == 0 {
                continue;
            }
            push(&mut codes, start - pos); // blank gap (possibly zero-length)
            push(&mut codes, len);
            pos = start + len;
        }
        MaskRle { codes }
    }

    /// The raw alternating run lengths (blank first).
    pub fn codes(&self) -> &[u16] {
        &self.codes
    }

    /// Number of run codes (`R_code` in the cost equations).
    pub fn num_codes(&self) -> usize {
        self.codes.len()
    }

    /// Encoded size of the codes on the wire, in bytes.
    pub fn wire_bytes(&self) -> usize {
        self.codes.len() * BYTES_PER_RUN_CODE
    }

    /// Total number of non-blank pixels described.
    pub fn non_blank_total(&self) -> usize {
        self.codes
            .iter()
            .skip(1)
            .step_by(2)
            .map(|&c| c as usize)
            .sum()
    }

    /// Iterates `(sequence_position, run_length)` for every non-blank run.
    ///
    /// `sequence_position` is the index of the run's first pixel in the
    /// original sequence. This is the exact access pattern the compositing
    /// loop uses: composite `run_length` payload pixels starting at that
    /// position.
    pub fn non_blank_runs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        NonBlankRuns {
            codes: &self.codes,
            idx: 0,
            pos: 0,
        }
    }

    /// Splits the mask over position parity: the first result covers the
    /// even positions (renumbered `p / 2`), the second the odd positions
    /// (renumbered `(p - 1) / 2`) — exactly how [`crate::StridedSeq::split`]
    /// renumbers a sequence. `O(runs)`, no pixel is touched; both outputs
    /// are canonical.
    pub fn split_parity(&self) -> (MaskRle, MaskRle) {
        let (mut even, mut odd) = (RunSet::new(), RunSet::new());
        RunSet::from_rle(self).split_parity_into(&mut even, &mut odd);
        (even.to_rle(), odd.to_rle())
    }

    /// The union of two masks over the same position space: non-blank
    /// wherever either is. `O(runs)`; the result is canonical.
    ///
    /// This is the incremental-maintenance primitive: compositing with
    /// `over` never blanks a non-blank pixel (for non-negative
    /// premultiplied components), so the merged image's exact mask is the
    /// union of the two operand masks — no rescan required.
    pub fn union(&self, other: &MaskRle) -> MaskRle {
        let mut out = RunSet::new();
        RunSet::from_rle(self).union_into(&RunSet::from_rle(other), &mut out);
        out.to_rle()
    }

    /// Expands back into a boolean mask of length `len` (`true` =
    /// non-blank); positions beyond the encoded runs are blank.
    pub fn decode_mask(&self, len: usize) -> Vec<bool> {
        let mut mask = vec![false; len];
        for (start, run) in self.non_blank_runs() {
            for m in &mut mask[start..start + run] {
                *m = true;
            }
        }
        mask
    }
}

struct NonBlankRuns<'a> {
    codes: &'a [u16],
    idx: usize,
    pos: usize,
}

impl Iterator for NonBlankRuns<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        while self.idx < self.codes.len() {
            if self.idx.is_multiple_of(2) {
                // blank run
                self.pos += self.codes[self.idx] as usize;
                self.idx += 1;
            } else {
                let run = self.codes[self.idx] as usize;
                let start = self.pos;
                self.pos += run;
                self.idx += 1;
                if run > 0 {
                    return Some((start, run));
                }
            }
        }
        None
    }
}

/// The working form of a blank/non-blank run table: explicit non-blank
/// intervals `(start, len)` — sorted, disjoint, coalesced, lengths > 0.
///
/// [`MaskRle`] is the canonical *wire* form (2-byte alternating codes);
/// `RunSet` is the in-memory form that incremental maintenance operates
/// on. All structural operations come as `*_into` variants writing into
/// caller-owned buffers, so a steady-state compositing loop that keeps
/// its `RunSet`s across stages performs no allocation at all.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunSet {
    runs: Vec<(usize, usize)>,
}

impl RunSet {
    /// An empty (all-blank) run table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decodes the canonical wire form. Runs that [`MaskRle`] split at
    /// `u16::MAX` re-coalesce into single intervals.
    pub fn from_rle(rle: &MaskRle) -> Self {
        let mut out = Self::new();
        out.assign_from_runs(rle.non_blank_runs());
        out
    }

    /// Re-encodes into the canonical wire form (identical codes to
    /// [`MaskRle::from_runs`]).
    pub fn to_rle(&self) -> MaskRle {
        MaskRle::from_runs(self.runs.iter().copied())
    }

    /// Emits the wire codes for this table over a mask of `domain`
    /// elements into a reusable buffer (cleared first) — byte-for-byte
    /// what [`MaskRle::encode_mask`] produces for the same mask, without
    /// constructing a `MaskRle` or touching any pixel.
    ///
    /// The `domain` length matters only for a trailing blank gap longer
    /// than `u16::MAX`: `encode_mask` emits the gap's split codes and
    /// then trims just the *final* chunk, leaving `[65535, 0, …]`
    /// residue on the wire. That residue decodes to nothing, but the
    /// byte counts are pinned by the conformance corpus, so it is
    /// replicated here exactly.
    pub fn encode_codes_into(&self, domain: usize, codes: &mut Vec<u16>) {
        codes.clear();
        let push = |codes: &mut Vec<u16>, mut r: usize| loop {
            let chunk = r.min(u16::MAX as usize);
            codes.push(chunk as u16);
            r -= chunk;
            if r == 0 {
                break;
            }
            codes.push(0);
        };
        let mut pos = 0usize;
        for &(start, len) in &self.runs {
            push(codes, start - pos);
            push(codes, len);
            pos = start + len;
        }
        if domain > pos {
            push(codes, domain - pos);
            codes.pop();
        }
    }

    /// The intervals in order.
    pub fn runs(&self) -> &[(usize, usize)] {
        &self.runs
    }

    /// Total number of non-blank pixels described.
    pub fn non_blank_total(&self) -> usize {
        self.runs.iter().map(|&(_, l)| l).sum()
    }

    /// Empties the table (all-blank).
    pub fn clear(&mut self) {
        self.runs.clear();
    }

    /// Replaces the contents with `other`'s, reusing this buffer.
    pub fn assign(&mut self, other: &RunSet) {
        self.runs.clear();
        self.runs.extend_from_slice(&other.runs);
    }

    /// Replaces the contents with sorted, possibly adjacent/overlapping
    /// intervals (coalesced on the way in; zero-length intervals skipped).
    pub fn assign_from_runs(&mut self, runs: impl IntoIterator<Item = (usize, usize)>) {
        self.runs.clear();
        for (start, len) in runs {
            self.push(start, len);
        }
    }

    /// Appends one interval, coalescing with the last when adjacent or
    /// overlapping. `start` must not precede the last interval's start.
    pub fn push(&mut self, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        if let Some(last) = self.runs.last_mut() {
            debug_assert!(start >= last.0, "runs must be pushed in order");
            let last_end = last.0 + last.1;
            if last_end >= start {
                last.1 = (start + len).max(last_end) - last.0;
                return;
            }
        }
        self.runs.push((start, len));
    }

    /// Splits over position parity into two caller-owned tables (cleared
    /// first): `even` covers even positions renumbered `p / 2`, `odd` the
    /// odd positions renumbered `(p - 1) / 2` — matching how
    /// [`crate::StridedSeq::split`] renumbers a sequence. `O(runs)`; a
    /// one-position gap of the removed parity fuses its neighbours.
    pub fn split_parity_into(&self, even: &mut RunSet, odd: &mut RunSet) {
        even.clear();
        odd.clear();
        for &(start, len) in &self.runs {
            let end = start + len;
            even.push(start.div_ceil(2), end.div_ceil(2) - start.div_ceil(2));
            odd.push(start / 2, end / 2 - start / 2);
        }
    }

    /// Writes the union of `self` and `other` into `out` (cleared first):
    /// non-blank wherever either is. `O(runs)`.
    pub fn union_into(&self, other: &RunSet, out: &mut RunSet) {
        out.clear();
        let (mut a, mut b) = (self.runs.iter().peekable(), other.runs.iter().peekable());
        loop {
            let take_a = match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => x.0 <= y.0,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let &(s, l) = if take_a {
                a.next().unwrap()
            } else {
                b.next().unwrap()
            };
            out.push(s, l);
        }
    }
}

/// One run of the Ahrens & Painter value encoding: `count` copies of
/// `pixel`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ValueRun {
    /// The repeated pixel value.
    pub pixel: Pixel,
    /// How many consecutive pixels share it (≥ 1).
    pub count: u16,
}

/// Value run-length encoding (equal consecutive pixel values collapse).
///
/// Wire size per run: 16-byte pixel + 2-byte count. For float volume
/// images where neighbouring non-blank values differ, this degenerates to
/// one run per pixel — 18 bytes/pixel versus mask-RLE's ~16 — which is the
/// paper's argument for mask-based encoding.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ValueRle {
    runs: Vec<ValueRun>,
}

impl ValueRle {
    /// Encodes a pixel sequence by collapsing equal consecutive values
    /// (bit-pattern equality).
    pub fn encode<'a>(pixels: impl IntoIterator<Item = &'a Pixel>) -> Self {
        let mut runs: Vec<ValueRun> = Vec::new();
        for &p in pixels {
            match runs.last_mut() {
                Some(last) if bits_eq(last.pixel, p) && last.count < u16::MAX => last.count += 1,
                _ => runs.push(ValueRun { pixel: p, count: 1 }),
            }
        }
        ValueRle { runs }
    }

    /// The runs in order.
    pub fn runs(&self) -> &[ValueRun] {
        &self.runs
    }

    /// Encoded size on the wire: each run is a pixel (16 B) + count (2 B).
    pub fn wire_bytes(&self) -> usize {
        self.runs.len() * (crate::pixel::BYTES_PER_PIXEL + BYTES_PER_RUN_CODE)
    }
}

#[inline]
fn bits_eq(a: Pixel, b: Pixel) -> bool {
    a.r.to_bits() == b.r.to_bits()
        && a.g.to_bits() == b.g.to_bits()
        && a.b.to_bits() == b.b.to_bits()
        && a.a.to_bits() == b.a.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn px(v: f32) -> Pixel {
        Pixel::gray(v, if v == 0.0 { 0.0 } else { 1.0 })
    }

    /// The pixel sequence a value encoding describes.
    fn expand(rle: &ValueRle) -> Vec<Pixel> {
        rle.runs()
            .iter()
            .flat_map(|r| std::iter::repeat_n(r.pixel, r.count as usize))
            .collect()
    }

    #[test]
    fn from_runs_matches_encode_mask() {
        // Sparse mask with a leading non-blank run, interior gaps and a
        // trailing blank tail.
        let mut mask = vec![false; 1000];
        let runs = [(0usize, 3usize), (10, 1), (500, 200)];
        for &(s, l) in &runs {
            for m in &mut mask[s..s + l] {
                *m = true;
            }
        }
        let canonical = MaskRle::encode_mask(mask.iter().copied());
        assert_eq!(MaskRle::from_runs(runs), canonical);
        // Long runs split identically.
        let long = [(5usize, u16::MAX as usize + 7)];
        let mut mask = vec![false; u16::MAX as usize + 20];
        for m in &mut mask[5..5 + u16::MAX as usize + 7] {
            *m = true;
        }
        assert_eq!(
            MaskRle::from_runs(long),
            MaskRle::encode_mask(mask.iter().copied())
        );
        // Empty input encodes the all-blank sequence.
        assert_eq!(MaskRle::from_runs([]), MaskRle::encode_mask([]));
    }

    #[test]
    fn encode_codes_into_matches_encode_mask_with_long_trailing_gap() {
        // `encode_mask` emits a trailing blank gap and then trims only
        // its final chunk, so a gap longer than u16::MAX leaves
        // `[65535, 0, …]` residue on the wire. The run-domain encoder
        // must replicate those bytes exactly — the conformance corpus
        // pins per-stage byte counts.
        let domain = 140_000usize;
        let cases: [&[(usize, usize)]; 5] = [
            &[],
            &[(5, 3)],
            &[(0, 2), (100, 66_000)],
            &[(0, 2), (100, 200)],
            &[(0, domain)],
        ];
        for runs in cases {
            let mut mask = vec![false; domain];
            for &(s, l) in runs {
                for m in &mut mask[s..s + l] {
                    *m = true;
                }
            }
            let expect = MaskRle::encode_mask(mask.iter().copied());
            let mut set = RunSet::new();
            set.assign_from_runs(runs.iter().copied());
            let mut codes = Vec::new();
            set.encode_codes_into(domain, &mut codes);
            assert_eq!(codes, expect.codes(), "runs {runs:?}");
        }
    }

    /// Pseudo-random boolean mask for the structural-op tests.
    fn noise_mask(n: usize, seed: usize, density_pct: usize) -> Vec<bool> {
        (0..n)
            .map(|i| i.wrapping_mul(2_654_435_761).wrapping_add(seed * 97) % 100 < density_pct)
            .collect()
    }

    #[test]
    fn split_parity_matches_dense_split() {
        for (seed, density) in [(1, 0), (2, 15), (3, 50), (4, 100), (5, 97)] {
            let mask = noise_mask(777, seed, density);
            let rle = MaskRle::encode_mask(mask.iter().copied());
            let (even, odd) = rle.split_parity();
            let expect_even: Vec<bool> = mask.iter().copied().step_by(2).collect();
            let expect_odd: Vec<bool> = mask.iter().copied().skip(1).step_by(2).collect();
            assert_eq!(
                even,
                MaskRle::encode_mask(expect_even.iter().copied()),
                "even half, seed {seed}"
            );
            assert_eq!(
                odd,
                MaskRle::encode_mask(expect_odd.iter().copied()),
                "odd half, seed {seed}"
            );
        }
    }

    #[test]
    fn split_parity_fuses_across_removed_gaps() {
        // Runs [2,5) and [6,9): position 5 is blank but odd, so the even
        // half must see ONE fused run.
        let rle = MaskRle::from_runs([(2, 3), (6, 3)]);
        let (even, odd) = rle.split_parity();
        assert_eq!(even.non_blank_runs().collect::<Vec<_>>(), vec![(1, 4)]);
        assert_eq!(
            odd.non_blank_runs().collect::<Vec<_>>(),
            vec![(1, 1), (3, 1)]
        );
    }

    #[test]
    fn union_matches_dense_or() {
        for (sa, sb, da, db) in [
            (1, 2, 20, 20),
            (3, 4, 0, 40),
            (5, 6, 100, 3),
            (7, 8, 55, 55),
        ] {
            let a = noise_mask(555, sa, da);
            let b = noise_mask(555, sb, db);
            let ra = MaskRle::encode_mask(a.iter().copied());
            let rb = MaskRle::encode_mask(b.iter().copied());
            let expect: Vec<bool> = a.iter().zip(&b).map(|(x, y)| *x || *y).collect();
            assert_eq!(
                ra.union(&rb),
                MaskRle::encode_mask(expect.iter().copied()),
                "seeds {sa}/{sb}"
            );
            assert_eq!(ra.union(&rb), rb.union(&ra), "union must commute");
        }
        // Identity and annihilator cases.
        let r = MaskRle::from_runs([(3, 4), (10, 2)]);
        assert_eq!(r.union(&MaskRle::default()), r);
        assert_eq!(MaskRle::default().union(&r), r);
    }

    #[test]
    fn union_handles_long_run_splits() {
        // A run split at u16::MAX arrives as adjacent iterator items; the
        // union must re-coalesce them canonically.
        let n = u16::MAX as usize + 100;
        let a = MaskRle::from_runs([(0, n)]);
        let b = MaskRle::from_runs([(50, 10)]);
        assert_eq!(a.union(&b), a);
        assert_eq!(b.union(&a), a);
    }

    #[test]
    fn mask_encode_simple() {
        // blank blank nb nb nb blank nb
        let seq = [
            px(0.0),
            px(0.0),
            px(0.5),
            px(0.6),
            px(0.7),
            px(0.0),
            px(0.9),
        ];
        let rle = MaskRle::encode(seq.iter());
        assert_eq!(rle.codes(), &[2, 3, 1, 1]);
        assert_eq!(rle.non_blank_total(), 4);
    }

    #[test]
    fn mask_encode_leading_non_blank() {
        let seq = [px(0.5), px(0.0)];
        let rle = MaskRle::encode(seq.iter());
        assert_eq!(rle.codes(), &[0, 1]); // zero-length blank run first
    }

    #[test]
    fn mask_encode_all_blank_is_empty() {
        let seq = [px(0.0); 10];
        let rle = MaskRle::encode(seq.iter());
        assert_eq!(rle.num_codes(), 0);
        assert_eq!(rle.non_blank_total(), 0);
    }

    #[test]
    fn mask_trailing_blank_trimmed() {
        let seq = [px(0.1), px(0.2), px(0.0), px(0.0)];
        let rle = MaskRle::encode(seq.iter());
        assert_eq!(rle.codes(), &[0, 2]);
    }

    #[test]
    fn mask_round_trip() {
        let mask = vec![
            false, true, true, false, false, false, true, false, true, true,
        ];
        let rle = MaskRle::encode_mask(mask.iter().copied());
        assert_eq!(rle.decode_mask(mask.len()), mask);
    }

    #[test]
    fn mask_long_run_split() {
        let n = u16::MAX as usize * 2 + 5;
        let rle = MaskRle::encode_mask(std::iter::repeat_n(true, n));
        assert_eq!(rle.non_blank_total(), n);
        let mask = rle.decode_mask(n);
        assert!(mask.iter().all(|&m| m));
    }

    #[test]
    fn mask_long_blank_run_split() {
        let n = u16::MAX as usize + 10;
        let mut mask = vec![false; n];
        mask[n - 1] = true;
        let rle = MaskRle::encode_mask(mask.iter().copied());
        assert_eq!(rle.decode_mask(n), mask);
    }

    #[test]
    fn non_blank_runs_positions() {
        let mask = [false, true, true, false, true];
        let rle = MaskRle::encode_mask(mask.iter().copied());
        let runs: Vec<_> = rle.non_blank_runs().collect();
        assert_eq!(runs, vec![(1, 2), (4, 1)]);
    }

    #[test]
    fn value_rle_collapses_equal() {
        let seq = [px(0.0), px(0.0), px(0.5), px(0.5), px(0.5), px(0.2)];
        let rle = ValueRle::encode(seq.iter());
        assert_eq!(rle.runs().len(), 3);
        assert_eq!(expand(&rle), seq);
    }

    #[test]
    fn value_rle_degenerates_on_distinct_floats() {
        // The paper's argument: volume-rendered float pixels rarely repeat.
        let seq: Vec<Pixel> = (0..100).map(|i| px(0.001 * (i + 1) as f32)).collect();
        let rle = ValueRle::encode(seq.iter());
        assert_eq!(rle.runs().len(), 100);
        assert!(rle.wire_bytes() > seq.len() * crate::pixel::BYTES_PER_PIXEL);
    }

    #[test]
    fn value_rle_count_saturation() {
        let n = u16::MAX as usize + 3;
        let seq = vec![px(0.5); n];
        let rle = ValueRle::encode(seq.iter());
        assert_eq!(rle.runs().len(), 2);
        assert_eq!(expand(&rle), seq);
    }
}
