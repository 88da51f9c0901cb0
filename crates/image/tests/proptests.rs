//! Property-based tests for the image-space primitives.

use proptest::prelude::*;
use vr_image::rle::ValueRle;
use vr_image::{kernel, Image, MaskRle, Pixel, Rect, RunImage, RunSet, StridedSeq};

fn arb_pixel() -> impl Strategy<Value = Pixel> {
    (0.0f32..=1.0, 0.0f32..=1.0).prop_map(|(v, a)| Pixel::gray(v * a, a))
}

fn arb_sparse_pixel() -> impl Strategy<Value = Pixel> {
    prop_oneof![
        3 => Just(Pixel::BLANK),
        1 => arb_pixel(),
    ]
}

/// Component values the compositing arithmetic must carry through bit
/// for bit: ordinary intensities plus both zeros, the α extremes, NaN,
/// infinity and out-of-range values.
fn arb_component() -> impl Strategy<Value = f32> {
    prop_oneof![
        4 => 0.0f32..=1.0,
        1 => -2.0f32..=2.0,
        1 => Just(-0.0f32),
        1 => Just(0.0f32),
        1 => Just(1.0f32),
        1 => Just(f32::NAN),
        1 => Just(f32::INFINITY),
    ]
}

/// A pixel of unconstrained components (not premultiplied, not clamped).
fn arb_raw_pixel() -> impl Strategy<Value = Pixel> {
    (
        arb_component(),
        arb_component(),
        arb_component(),
        arb_component(),
    )
        .prop_map(|(r, g, b, a)| Pixel::new(r, g, b, a))
}

/// A pixel at the merge's edge cases: blank, a `-0.0` component (not
/// blank, and `+0.0` after most `over`s), NaN, or any raw pixel.
fn arb_merge_pixel() -> impl Strategy<Value = Pixel> {
    prop_oneof![
        4 => Just(Pixel::BLANK),
        1 => Just(Pixel::new(0.0, -0.0, 0.0, 0.0)),
        1 => Just(Pixel::new(-0.0, -0.0, -0.0, -0.0)),
        1 => Just(Pixel::new(0.0, 0.0, 0.0, f32::NAN)),
        3 => arb_raw_pixel(),
    ]
}

/// Bit equality, two NaNs counting as equal whatever their payload
/// (which operand's payload survives `NaN + NaN` is the compiler's
/// choice and may differ between two copies of one expression).
fn same_bits(a: &[Pixel], b: &[Pixel]) -> bool {
    let same = |x: f32, y: f32| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(p, q)| same(p.r, q.r) && same(p.g, q.g) && same(p.b, q.b) && same(p.a, q.a))
}

fn to_wire(pixels: &[Pixel]) -> Vec<u8> {
    pixels.iter().flat_map(|p| p.to_le_bytes()).collect()
}

fn arb_rect(max: u16) -> impl Strategy<Value = Rect> {
    (0..max, 0..max, 0..max, 0..max)
        .prop_map(|(a, b, c, d)| Rect::new(a.min(c), b.min(d), a.max(c), b.max(d)))
}

/// Frame of the mutator tests below.
const W: u16 = 13;
const H: u16 = 9;

/// A rectangle inside the `W × H` frame whose top-left corner is a
/// pixel of it; may be empty.
fn arb_frame_rect() -> impl Strategy<Value = Rect> {
    (0..W, 0..H, 0..=W, 0..=H)
        .prop_map(|(a, b, c, d)| Rect::new(a.min(c), b.min(d), a.max(c), b.max(d)))
}

/// How many mutators [`mutate`] knows: every public `&mut self` method
/// of `Image`.
const MUTATORS: u8 = 15;

/// One mutator call: which, where, and the non-blank pixel it writes.
type Mutation = (u8, Rect, Pixel);

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    (0..MUTATORS, arb_frame_rect(), arb_pixel())
}

/// A checkerboard-ish frame of `lit` and blank, so a merge both sets
/// and keeps pixels.
fn dotted(lit: Pixel) -> Image {
    Image::from_fn(W, H, |x, y| {
        if (x + 2 * y) % 3 == 0 {
            lit
        } else {
            Pixel::BLANK
        }
    })
}

/// The same frame with a dead hint and a whole-frame extent.
fn dotted_unhinted(lit: Pixel) -> Image {
    Image::from_pixels(W, H, dotted(lit).pixels().to_vec())
}

/// Calls the `kind`-th mutator on `rect` (the single-pixel ones on its
/// corner, the row one on its first row). Buffers alternate `lit` and
/// blank. Pixels are non-negative, as every producer in the system
/// writes them, so "blank" and "`Pixel::BLANK` bit for bit" coincide.
fn mutate(img: &mut Image, (kind, rect, lit): Mutation) {
    let (x, y) = (rect.x0, rect.y0);
    let data: Vec<Pixel> = (0..rect.area())
        .map(|i| if i % 2 == 0 { lit } else { Pixel::BLANK })
        .collect();
    let wire = to_wire(&data);
    match kind {
        0 => img.set(x, y, lit),
        1 => img.set(x, y, Pixel::BLANK),
        2 => *img.get_mut(x, y) = lit,
        3 => img.pixels_mut()[y as usize * W as usize + x as usize] = lit,
        4 => img.row_span_mut(x, y, rect.width() as usize).fill(lit),
        5 => img.write_rect(&rect, &data),
        // The whole rect as one run.
        6 => img.write_runs_wire(&rect, [(0, rect.area())], &wire),
        7 => drop(img.composite_rect_over(&rect, &data)),
        8 => drop(img.composite_rect_over_wire(&rect, &wire)),
        9 => drop(img.composite_rect_under_wire(&rect, &wire)),
        10 => img.assert_bounds(brute_bounds(img)),
        11 => img.clear(),
        12 => img.clone_from(&dotted(lit)),
        13 => img.clone_from(&dotted_unhinted(lit)),
        // Every other pixel of the rect, as runs of one.
        14 => img.write_runs_wire(
            &rect,
            (0..rect.area()).step_by(2).map(|i| (i, 1)),
            &to_wire(&vec![lit; rect.area().div_ceil(2)]),
        ),
        _ => unreachable!("MUTATORS counts the arms above"),
    }
}

/// The tight bounds of the non-blank pixels, pixel by pixel.
fn brute_bounds(img: &Image) -> Rect {
    let mut bounds = Rect::EMPTY;
    for (x, y) in img.full_rect().iter() {
        if !img.get(x, y).is_blank() {
            bounds.include(x, y);
        }
    }
    bounds
}

/// The extent invariant, and what rests on it: outside the extent every
/// pixel is `Pixel::BLANK` bit for bit, the tight bounds and a live
/// hint lie inside it, and the bounds query agrees with a pixel-by-pixel
/// search whether it answers from the hint or scans.
fn assert_extent_holds(img: &Image) {
    let extent = img.extent();
    assert!(img.full_rect().contains_rect(&extent), "{extent:?}");
    let blank = Pixel::BLANK.to_le_bytes();
    for (x, y) in img.full_rect().iter() {
        assert!(
            extent.contains(x, y) || img.get(x, y).to_le_bytes() == blank,
            "({x}, {y}) is written outside the extent {extent:?}"
        );
    }
    let tight = brute_bounds(img);
    assert!(extent.contains_rect(&tight), "{tight:?} outside {extent:?}");
    if let Some(hint) = img.bounds_hint() {
        assert_eq!(hint, tight, "a live hint is exact");
    }
    assert_eq!(img.bounding_rect(), tight);
}

/// `dst.clone_from(src)` leaves what `src.clone()` builds: dimensions,
/// pixel bits, hint and extent.
fn assert_clone_from_is_clone(mut dst: Image, src: &Image) {
    let fresh = src.clone();
    dst.clone_from(src);
    assert_eq!((dst.width(), dst.height()), (fresh.width(), fresh.height()));
    assert!(same_bits(dst.pixels(), fresh.pixels()));
    assert!(same_bits(dst.pixels(), src.pixels()));
    assert_eq!(dst.bounds_hint(), fresh.bounds_hint());
    assert_eq!(dst.extent(), fresh.extent());
}

/// A frame in each state a constructor leaves, then mutated.
fn mutated(start: u8, mutations: &[Mutation]) -> Image {
    let lit = Pixel::gray(0.25, 0.5);
    let mut img = match start % 3 {
        0 => Image::blank(W, H),
        1 => dotted(lit),
        _ => dotted_unhinted(lit),
    };
    for &mutation in mutations {
        mutate(&mut img, mutation);
    }
    img
}

/// Whether any component of `p` has a bit set, spelled out one
/// component at a time: the reference for the blank rule.
fn has_bits(p: &Pixel) -> bool {
    [p.r, p.g, p.b, p.a].iter().any(|c| c.to_bits() != 0)
}

/// The runs of `rect`'s pixels with a bit set, one pixel at a time in
/// row-major order: the reference for the rect run scan.
fn runs_pixel_by_pixel(img: &Image, rect: &Rect) -> RunSet {
    let mut runs = RunSet::new();
    for (i, (x, y)) in rect.iter().enumerate() {
        if has_bits(&img.get(x, y)) {
            runs.push(i, 1);
        }
    }
    runs
}

/// The rect run scan of `img` (`Image::runs_into`) against
/// [`runs_pixel_by_pixel`]. The table starts stale, so a scan that
/// appends instead of replacing fails.
fn assert_rect_runs_hold(img: &Image, rect: &Rect) {
    let mut runs = RunSet::new();
    runs.push(0, 3);
    img.runs_into(rect, &mut runs);
    assert_eq!(runs, runs_pixel_by_pixel(img, rect), "{rect:?}");
}

/// Components the blank rule must tell apart by their bits: both zeros,
/// NaNs with payloads, subnormals of either sign and any pattern at all.
fn arb_rule_component() -> impl Strategy<Value = f32> {
    prop_oneof![
        4 => Just(0.0f32),
        2 => Just(-0.0f32),
        1 => Just(f32::NAN),
        1 => any::<u32>().prop_map(|b| f32::from_bits(b | 0x7f80_0001)),
        1 => (1u32..0x0080_0000, any::<bool>())
            .prop_map(|(m, neg)| f32::from_bits(m | (neg as u32) << 31)),
        2 => any::<u32>().prop_map(f32::from_bits),
    ]
}

/// A pixel that is [`Pixel::BLANK`] or has alpha in (0, 1] — subnormal
/// alphas included — over any color bits: the inputs the traffic
/// oracle's `OR` of masks holds for.
fn arb_oracle_pixel() -> impl Strategy<Value = Pixel> {
    let alpha = prop_oneof![
        2 => (0.0f32..=1.0).prop_filter("positive", |a| *a > 0.0),
        1 => Just(1.0f32),
        1 => (1u32..0x0080_0000).prop_map(f32::from_bits),
    ];
    prop_oneof![
        1 => Just(Pixel::BLANK),
        2 => (arb_rule_component(), arb_rule_component(), arb_rule_component(), alpha)
            .prop_map(|(r, g, b, a)| Pixel::new(r, g, b, a)),
    ]
}

proptest! {
    #[test]
    fn mask_rle_round_trips(mask in proptest::collection::vec(any::<bool>(), 0..2000)) {
        let rle = MaskRle::encode_mask(mask.iter().copied());
        prop_assert_eq!(rle.decode_mask(mask.len()), mask);
    }

    #[test]
    fn mask_rle_counts_non_blank(mask in proptest::collection::vec(any::<bool>(), 0..2000)) {
        let rle = MaskRle::encode_mask(mask.iter().copied());
        prop_assert_eq!(rle.non_blank_total(), mask.iter().filter(|&&m| m).count());
    }

    #[test]
    fn mask_rle_runs_are_disjoint_and_sorted(mask in proptest::collection::vec(any::<bool>(), 0..500)) {
        let rle = MaskRle::encode_mask(mask.iter().copied());
        let mut last_end = 0usize;
        for (start, run) in rle.non_blank_runs() {
            prop_assert!(start >= last_end);
            prop_assert!(run > 0);
            last_end = start + run;
        }
        prop_assert!(last_end <= mask.len());
    }

    #[test]
    fn value_rle_round_trips(pixels in proptest::collection::vec(arb_sparse_pixel(), 0..500)) {
        let rle = ValueRle::encode(pixels.iter());
        let expanded: Vec<Pixel> = rle
            .runs()
            .iter()
            .flat_map(|r| std::iter::repeat_n(r.pixel, r.count as usize))
            .collect();
        prop_assert_eq!(expanded, pixels);
    }

    #[test]
    fn run_image_round_trips(pixels in proptest::collection::vec(arb_sparse_pixel(), 0..600)) {
        let run = RunImage::encode(&pixels);
        prop_assert_eq!(run.decode(), pixels);
    }

    #[test]
    fn rect_intersection_commutes(a in arb_rect(100), b in arb_rect(100)) {
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
    }

    #[test]
    fn rect_intersection_contained_in_both(a in arb_rect(100), b in arb_rect(100)) {
        let i = a.intersect(&b);
        prop_assert!(a.contains_rect(&i));
        prop_assert!(b.contains_rect(&i));
    }

    #[test]
    fn rect_union_contains_both(a in arb_rect(100), b in arb_rect(100)) {
        let u = a.union(&b);
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
    }

    #[test]
    fn rect_split_partitions_area(r in arb_rect(200), at in 0u16..200) {
        let (l, rt) = r.split_at_x(at);
        prop_assert_eq!(l.area() + rt.area(), r.area());
    }

    #[test]
    fn rect_wire_round_trips(r in arb_rect(u16::MAX)) {
        prop_assert_eq!(Rect::from_le_bytes(r.to_le_bytes()), r);
    }

    #[test]
    fn over_is_associative_within_eps(a in arb_pixel(), b in arb_pixel(), c in arb_pixel()) {
        let left = a.over(b).over(c);
        let right = a.over(b.over(c));
        prop_assert!(left.max_abs_diff(&right) < 1e-5);
    }

    #[test]
    fn blank_is_identity_for_over(p in arb_pixel()) {
        prop_assert_eq!(p.over(Pixel::BLANK), p);
        prop_assert_eq!(Pixel::BLANK.over(p), p);
    }

    #[test]
    fn strided_split_partitions(len in 0usize..5000, depth in 0usize..6) {
        let mut pieces = vec![StridedSeq::dense(len)];
        for _ in 0..depth {
            pieces = pieces.into_iter().flat_map(|p| { let (a, b) = p.split(); [a, b] }).collect();
        }
        let mut all: Vec<usize> = pieces.iter().flat_map(|p| p.iter().collect::<Vec<_>>()).collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..len).collect::<Vec<_>>());
        // Balance: counts differ by at most 1.
        let counts: Vec<usize> = pieces.iter().map(|p| p.count).collect();
        let min = counts.iter().min().copied().unwrap_or(0);
        let max = counts.iter().max().copied().unwrap_or(0);
        prop_assert!(max - min <= 1);
    }

    #[test]
    fn bounding_rect_covers_all_non_blank(
        pixels in proptest::collection::vec(arb_sparse_pixel(), 64),
    ) {
        let img = Image::from_pixels(8, 8, pixels);
        let b = img.bounding_rect();
        for y in 0..8u16 {
            for x in 0..8u16 {
                if !img.get(x, y).is_blank() {
                    prop_assert!(b.contains(x, y), "({x},{y}) outside {b:?}");
                }
            }
        }
        // Tightness: every edge of a non-empty bounds touches a non-blank pixel.
        if !b.is_empty() {
            prop_assert!((b.x0..b.x1).any(|x| !img.get(x, b.y0).is_blank()));
            prop_assert!((b.x0..b.x1).any(|x| !img.get(x, b.y1 - 1).is_blank()));
            prop_assert!((b.y0..b.y1).any(|y| !img.get(b.x0, y).is_blank()));
            prop_assert!((b.y0..b.y1).any(|y| !img.get(b.x1 - 1, y).is_blank()));
        }
    }

    #[test]
    fn extract_write_round_trips(
        pixels in proptest::collection::vec(arb_sparse_pixel(), 15 * 11),
        rect in arb_rect(10),
    ) {
        let img = Image::from_pixels(15, 11, pixels);
        let buf = img.extract_rect(&rect);
        let mut out = Image::blank(15, 11);
        out.write_rect(&rect, &buf);
        for (x, y) in rect.iter() {
            prop_assert_eq!(out.get(x, y), img.get(x, y));
        }
    }

    #[test]
    fn rect_clamped_to_image_edge_round_trips(
        pixels in proptest::collection::vec(arb_sparse_pixel(), 15 * 11),
        x0 in 0u16..15,
        y0 in 0u16..11,
    ) {
        // A rectangle flush against the bottom-right image corner: the
        // exclusive bounds coincide with the image dimensions, the
        // degenerate case the per-row copies must not overrun.
        let img = Image::from_pixels(15, 11, pixels);
        let rect = Rect::new(x0, y0, 15, 11);
        let buf = img.extract_rect(&rect);
        prop_assert_eq!(buf.len(), rect.area());
        let mut out = Image::blank(15, 11);
        out.write_rect(&rect, &buf);
        for (x, y) in rect.iter() {
            prop_assert_eq!(out.get(x, y), img.get(x, y));
        }
    }

    #[test]
    fn wire_kernels_match_slice_kernels_bit_for_bit(
        pair in proptest::collection::vec((arb_raw_pixel(), arb_raw_pixel()), 0..71)
    ) {
        let incoming: Vec<Pixel> = pair.iter().map(|(i, _)| *i).collect();
        let local: Vec<Pixel> = pair.iter().map(|(_, l)| *l).collect();
        let wire = to_wire(&incoming);

        let (mut want, mut got) = (local.clone(), local.clone());
        kernel::over_slice(&incoming, &mut want);
        kernel::over_slice_wire(&wire, &mut got);
        prop_assert!(same_bits(&want, &got), "over: {want:?} != {got:?}");

        let (mut want, mut got) = (local.clone(), local.clone());
        kernel::under_slice(&mut want, &incoming);
        kernel::under_slice_wire(&mut got, &wire);
        prop_assert!(same_bits(&want, &got), "under: {want:?} != {got:?}");

        let mut got = local;
        kernel::copy_slice_wire(&mut got, &wire);
        prop_assert!(same_bits(&incoming, &got), "copy: {incoming:?} != {got:?}");
    }

    #[test]
    fn run_scans_match_their_scalar_references(
        span in proptest::collection::vec(
            prop_oneof![
                3 => Just(Pixel::BLANK),
                1 => Just(Pixel::new(0.0, -0.0, 0.0, -0.0)),
                3 => arb_raw_pixel(),
            ],
            0..80,
        ),
        base in 0usize..1000,
    ) {
        // One pixel at a time; `push` coalesces neighbours into runs.
        let mut reference = RunSet::new();
        for (i, p) in span.iter().enumerate() {
            if has_bits(p) {
                reference.push(base + i, 1);
            }
        }
        let mut table = RunSet::new();
        kernel::scan_runs_into(&span, base, &mut table);
        prop_assert_eq!(table, reference);
    }

    #[test]
    fn is_blank_is_exactly_the_bits_of_pixel_blank(
        r in arb_rule_component(),
        g in arb_rule_component(),
        b in arb_rule_component(),
        a in arb_rule_component(),
    ) {
        let p = Pixel::new(r, g, b, a);
        prop_assert_eq!(p.is_blank(), p.to_le_bytes() == Pixel::BLANK.to_le_bytes());
        prop_assert_eq!(p.is_blank(), !has_bits(&p));
    }

    #[test]
    fn over_is_blank_exactly_when_both_inputs_are(
        front in arb_oracle_pixel(),
        back in arb_oracle_pixel(),
    ) {
        prop_assert_eq!(
            front.over(back).is_blank(),
            front.is_blank() && back.is_blank(),
            "{:?} over {:?}", front, back
        );
    }

    #[test]
    fn wire_rect_ops_match_dense_rect_ops(
        pixels in proptest::collection::vec(arb_sparse_pixel(), 15 * 11),
        incoming in proptest::collection::vec(arb_raw_pixel(), 15 * 11),
        rect in arb_rect(10),
        flush in any::<bool>(),
    ) {
        // `flush` pushes the rect against the bottom-right image corner.
        let rect = if flush { Rect::new(rect.x0, rect.y0, 15, 11) } else { rect };
        let base = Image::from_pixels(15, 11, pixels);
        let dense = &incoming[..rect.area()];
        let wire = to_wire(dense);

        let (mut want, mut got) = (base.clone(), base.clone());
        prop_assert_eq!(
            want.composite_rect_over(&rect, dense),
            got.composite_rect_over_wire(&rect, &wire)
        );
        prop_assert!(same_bits(want.pixels(), got.pixels()));

        let (mut want, mut got) = (base.clone(), base.clone());
        let w = rect.width() as usize;
        for (row, y) in (rect.y0..rect.y1).enumerate() {
            kernel::under_slice(want.row_span_mut(rect.x0, y, w), &dense[row * w..][..w]);
        }
        prop_assert_eq!(got.composite_rect_under_wire(&rect, &wire), rect.area());
        prop_assert!(same_bits(want.pixels(), got.pixels()));

        let (mut want, mut got) = (base.clone(), base);
        want.write_rect(&rect, dense);
        got.write_runs_wire(&rect, [(0, rect.area())], &wire);
        prop_assert!(same_bits(want.pixels(), got.pixels()));
        prop_assert_eq!(got.bounds_hint(), None);
    }

    /// The wire merges over a base whose extent is part of the frame:
    /// inside it they match a full-rect kernel loop bit for bit (local
    /// `-0.0` components included), outside it only the incoming
    /// non-blank runs land, and the extent grows over nothing else.
    #[test]
    fn wire_rect_merges_follow_the_extent(
        local in proptest::collection::vec(arb_merge_pixel(), 15 * 11),
        incoming in proptest::collection::vec(arb_merge_pixel(), 15 * 11),
        extent in arb_rect(16).prop_map(|r| r.intersect(&Rect::of_size(15, 11))),
        rect in arb_rect(16).prop_map(|r| r.intersect(&Rect::of_size(15, 11))),
    ) {
        let mut base = Image::blank(15, 11);
        for (x, y) in extent.iter() {
            base.set(x, y, local[y as usize * 15 + x as usize]);
        }
        prop_assert_eq!(base.extent(), extent);
        let dense = &incoming[..rect.area()];
        let wire = to_wire(dense);
        let mut reach = extent;
        for ((x, y), p) in rect.iter().zip(dense) {
            if !p.is_blank() {
                reach.include(x, y);
            }
        }

        let w = rect.width() as usize;
        for front in [true, false] {
            let mut want = base.pixels().to_vec();
            for (row, y) in (rect.y0..rect.y1).enumerate() {
                let at = y as usize * 15 + rect.x0 as usize;
                let (local, wire) = (&mut want[at..at + w], &wire[row * w * 16..][..w * 16]);
                if front {
                    kernel::over_slice_wire(wire, local);
                } else {
                    kernel::under_slice_wire(local, wire);
                }
            }
            let mut got = base.clone();
            let ops = if front {
                got.composite_rect_over_wire(&rect, &wire)
            } else {
                got.composite_rect_under_wire(&rect, &wire)
            };
            prop_assert_eq!(ops, rect.area());
            prop_assert!(same_bits(got.pixels(), &want), "front {}", front);
            prop_assert!(reach.contains_rect(&got.extent()), "{:?} beyond {:?}", got.extent(), reach);
            assert_extent_holds(&got);
        }
    }

    /// Rect run scans over random frames of raw components (`-0.0` and
    /// NaN included), with the tight extent of `from_fn` and the whole
    /// frame extent of `from_pixels`, over rects that cover, cross or
    /// miss the extent.
    #[test]
    fn rect_runs_match_a_pixel_by_pixel_scan(
        pixels in proptest::collection::vec(
            prop_oneof![3 => Just(Pixel::BLANK), 1 => arb_raw_pixel()],
            W as usize * H as usize,
        ),
        rect in arb_frame_rect(),
        margin in 0u16..4,
    ) {
        // Blank a `margin`-wide border, so `from_fn`'s extent is smaller
        // than the frame and some rects reach outside it.
        let at = |x: u16, y: u16| pixels[y as usize * W as usize + x as usize];
        let inside = |x: u16, y: u16| x >= margin && y >= margin && x + margin < W && y + margin < H;
        let fenced = Image::from_fn(W, H, |x, y| if inside(x, y) { at(x, y) } else { Pixel::BLANK });
        let whole = Image::from_pixels(W, H, fenced.pixels().to_vec());
        for img in [&fenced, &whole] {
            for r in [rect, img.full_rect(), img.extent()] {
                assert_rect_runs_hold(img, &r);
            }
        }
    }

    #[test]
    fn single_pixel_runs_at_row_boundaries(row in 1u16..10, w in 2u16..12) {
        // Non-blank pixels only at the last column of `row - 1` and the
        // first column of `row`: adjacent in row-major order, so the
        // mask RLE must fuse them into ONE run spanning the row seam.
        let h = 11u16;
        let img = Image::from_fn(w, h, |x, y| {
            if (y + 1 == row && x + 1 == w) || (y == row && x == 0) {
                Pixel::gray(0.5, 1.0)
            } else {
                Pixel::BLANK
            }
        });
        let rle = MaskRle::encode_mask(img.pixels().iter().map(|p| !p.is_blank()));
        let runs: Vec<(usize, usize)> = rle.non_blank_runs().collect();
        prop_assert_eq!(
            runs,
            vec![((row as usize - 1) * w as usize + w as usize - 1, 2)]
        );
        prop_assert_eq!(rle.non_blank_total(), 2);
        // The bounding rectangle must span the full width (both edge
        // columns are occupied) but only the two touched rows.
        let b = img.bounding_rect();
        prop_assert_eq!(b, Rect::new(0, row - 1, w, row + 1));
    }
}

proptest! {
    // Sixteen mutators in sequences of up to twelve: more cases than the
    // default 32 to reach the pairs that matter (a dead hint, then a scan).
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn extent_covers_every_write(
        start in 0u8..3,
        mutations in proptest::collection::vec(arb_mutation(), 0..12),
    ) {
        let mut img = mutated(start, &[]);
        assert_extent_holds(&img);
        for &mutation in &mutations {
            mutate(&mut img, mutation);
            assert_extent_holds(&img);
        }
    }

    /// Rect run scans after each mutator: the extent they skip by moves
    /// with every write, and the rects reach past it on every side.
    #[test]
    fn rect_runs_hold_after_every_mutator(
        start in 0u8..3,
        mutations in proptest::collection::vec(arb_mutation(), 0..12),
        rects in proptest::collection::vec(arb_frame_rect(), 1..4),
    ) {
        let mut img = mutated(start, &[]);
        for &mutation in &mutations {
            mutate(&mut img, mutation);
            for rect in rects.iter().chain([&img.full_rect(), &img.extent()]) {
                assert_rect_runs_hold(&img, rect);
            }
        }
    }

    #[test]
    fn clone_from_equals_clone_whatever_the_frame_held(
        (dst_start, src_start) in (0u8..3, 0u8..3),
        dirt in proptest::collection::vec(arb_mutation(), 0..8),
        content in proptest::collection::vec(arb_mutation(), 0..8),
        other_size in any::<bool>(),
    ) {
        let src = mutated(src_start, &content);
        let dst = if other_size {
            Image::from_fn(7, 11, |x, y| if x == y { Pixel::gray(0.5, 1.0) } else { Pixel::BLANK })
        } else {
            mutated(dst_start, &dirt)
        };
        assert_clone_from_is_clone(dst, &src);
    }
}

#[test]
fn mask_rle_handles_empty_and_degenerate_masks() {
    // Zero-length mask.
    let empty = MaskRle::encode_mask(std::iter::empty());
    assert_eq!(empty.non_blank_total(), 0);
    assert_eq!(empty.decode_mask(0), Vec::<bool>::new());
    assert_eq!(empty.non_blank_runs().count(), 0);
    // All-blank mask: no non-blank run, decodes to all-false.
    let blank = MaskRle::encode_mask(std::iter::repeat_n(false, 37));
    assert_eq!(blank.non_blank_total(), 0);
    assert_eq!(blank.decode_mask(37), vec![false; 37]);
    // Single-pixel mask, both polarities.
    let one_true = MaskRle::encode_mask(std::iter::once(true));
    assert_eq!(one_true.non_blank_runs().collect::<Vec<_>>(), vec![(0, 1)]);
    let one_false = MaskRle::encode_mask(std::iter::once(false));
    assert_eq!(one_false.non_blank_total(), 0);
}

#[test]
fn fully_opaque_image_encodes_as_one_run_and_full_bounds() {
    let img = Image::from_fn(9, 7, |_, _| Pixel::gray(0.3, 1.0));
    assert_eq!(img.bounding_rect(), img.full_rect());
    assert_eq!(img.non_blank_count(), img.area());
    let rle = MaskRle::encode_mask(img.pixels().iter().map(|p| !p.is_blank()));
    // One leading empty blank run plus one full run: exactly two codes,
    // the dense closed form the paper's Equation (6) analysis relies on.
    assert_eq!(rle.num_codes(), 2);
    assert_eq!(rle.non_blank_runs().collect::<Vec<_>>(), vec![(0, 9 * 7)]);
}

#[test]
fn empty_image_has_empty_bounds_everywhere() {
    let img = Image::blank(13, 9);
    assert!(img.bounding_rect().is_empty());
    assert_eq!(img.non_blank_count(), 0);
    // An empty rect extracts an empty buffer and writes back harmlessly.
    let buf = img.extract_rect(&Rect::EMPTY);
    assert!(buf.is_empty());
    let mut out = Image::blank(13, 9);
    out.write_rect(&Rect::EMPTY, &buf);
    assert_eq!(out.non_blank_count(), 0);
}

/// `Image::clone` picks its copy from the bounds hint; whichever it
/// picks, the result is the field-wise copy: same pixel bits, same hint.
#[test]
fn clone_equals_field_wise_copy_on_both_sides_of_the_hint_threshold() {
    const W: u16 = 16;
    const H: u16 = 8; // 128 pixels: the sparse copy serves hints under 64
    let lit = Pixel::new(0.25, -0.0, 0.5, 1.0);
    // Non-blank at two opposite corners of `r` and along its diagonal,
    // so the maintained hint is exactly `r`.
    let with_hint = |r: Rect| {
        let mut img = Image::blank(W, H);
        for (x, y) in r.iter() {
            let on_diagonal = (x - r.x0) * r.height() / r.width() == y - r.y0;
            if on_diagonal || (x + 1 == r.x1 && y + 1 == r.y1) {
                img.set(x, y, lit);
            }
        }
        assert_eq!(img.bounds_hint(), Some(r));
        img
    };
    let mut cases = vec![
        ("no hint", {
            let mut img = with_hint(Rect::new(2, 1, 5, 4));
            img.pixels_mut()[100] = Pixel::new(-0.0, 0.0, -0.0, 0.0);
            assert_eq!(img.bounds_hint(), None);
            img
        }),
        ("empty hint", Image::blank(W, H)),
        ("just under half", with_hint(Rect::new(3, 1, 12, 8))), // 9 x 7 = 63
        ("exactly half", with_hint(Rect::new(8, 0, 16, 8))),    // 8 x 8 = 64
        ("just over half", with_hint(Rect::new(2, 2, 15, 7))),  // 13 x 5 = 65
        ("whole frame", with_hint(Rect::new(0, 0, W, H))),
    ];
    for (x, y) in [(0, 0), (W - 1, 0), (0, H - 1), (W - 1, H - 1)] {
        cases.push(("one corner pixel", with_hint(Rect::new(x, y, x + 1, y + 1))));
    }
    for (name, img) in &cases {
        let copy = img.clone();
        assert_eq!((copy.width(), copy.height()), (W, H), "{name}");
        assert!(same_bits(copy.pixels(), img.pixels()), "{name}: pixels");
        assert_eq!(copy.bounds_hint(), img.bounds_hint(), "{name}: hint");
    }
}

/// The same equivalence with the prior state enumerated, not drawn: a
/// frame holding a block, then dirtied by each mutator in turn, reset to
/// a source in each hint/extent state (empty, sparse and exact, dense,
/// dead hint, whole-frame extent, unknown).
#[test]
fn clone_from_resets_a_frame_dirtied_by_each_mutator() {
    let lit = Pixel::gray(0.125, 0.75);
    let block = (5, Rect::new(1, 1, 12, 8), lit);
    let sources = [
        Image::blank(W, H),
        mutated(
            0,
            &[
                (0, Rect::new(3, 2, 4, 3), lit),
                (0, Rect::new(9, 6, 10, 7), lit),
            ],
        ),
        dotted(lit),
        mutated(1, &[(2, Rect::new(4, 4, 5, 5), lit)]),
        mutated(
            0,
            &[
                (0, Rect::new(6, 3, 7, 4), lit),
                (3, Rect::new(2, 2, 3, 3), lit),
            ],
        ),
        mutated(2, &[]),
    ];
    assert_eq!(sources[1].bounds_hint(), Some(Rect::new(3, 2, 10, 7)));
    assert_eq!(sources[3].bounds_hint(), None);
    assert_eq!(sources[4].extent(), sources[4].full_rect());
    for src in &sources {
        for kind in 0..MUTATORS {
            let dst = mutated(
                0,
                &[block, (kind, Rect::new(2, 3, 9, 7), Pixel::gray(0.5, 1.0))],
            );
            assert_clone_from_is_clone(dst, src);
        }
        assert_clone_from_is_clone(Image::blank(W, H), src);
        assert_clone_from_is_clone(Image::blank(H, W), src);
    }
}

/// A write that leaves the frame is refused before it lands: the extent
/// of a frame that outlives the call is never wrong.
#[test]
fn writes_outside_the_frame_are_refused_with_the_extent_intact() {
    let outside = Rect::new(10, 5, W + 1, H);
    let data = vec![Pixel::gray(1.0, 1.0); outside.area()];
    let mut img = Image::blank(W, H);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        img.write_rect(&outside, &data);
    }));
    assert!(caught.is_err());
    assert_extent_holds(&img);
    assert_eq!(img.extent(), Rect::EMPTY);
}
