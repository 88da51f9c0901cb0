//! Property-based integration tests: every compositing method must agree
//! with the sequential reference on arbitrary sparse subimages, processor
//! counts and depth orders.

use proptest::prelude::*;
use slsvr::compositing::{reference_composite, Method};
use slsvr::image::{Image, Pixel};
use slsvr::system::{Experiment, ExperimentConfig};
use slsvr::volume::{DatasetKind, DepthOrder};

/// Strategy: a sparse image of the given size.
fn arb_image(w: u16, h: u16) -> impl Strategy<Value = Image> {
    proptest::collection::vec(
        prop_oneof![
            4 => Just(Pixel::BLANK),
            1 => (0.0f32..=1.0, 0.01f32..=1.0).prop_map(|(v, a)| Pixel::gray(v * a, a)),
        ],
        (w as usize) * (h as usize),
    )
    .prop_map(move |pixels| Image::from_pixels(w, h, pixels))
}

/// Strategy: a permutation of `0..p` as a depth order.
fn arb_depth(p: usize) -> impl Strategy<Value = DepthOrder> {
    Just((0..p).collect::<Vec<_>>())
        .prop_shuffle()
        .prop_map(DepthOrder::from_sequence)
}

fn run_case(method: Method, images: Vec<Image>, depth: DepthOrder) -> (Image, Image) {
    let p = images.len();
    let expect = reference_composite(&images, &depth);
    let config = ExperimentConfig {
        dataset: DatasetKind::Cube,
        image_size: images[0].width(),
        processors: p,
        volume_dims: Some([8, 8, 8]),
        ..Default::default()
    };
    let exp = Experiment::from_subimages(config, images, depth);
    (exp.run(method).image, expect)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn bsbrc_matches_reference_on_random_input(
        images in proptest::collection::vec(arb_image(16, 12), 4),
        depth in arb_depth(4),
    ) {
        let (got, expect) = run_case(Method::Bsbrc, images, depth);
        prop_assert!(got.max_abs_diff(&expect) < 2e-4);
    }

    #[test]
    fn bslc_matches_reference_on_random_input(
        images in proptest::collection::vec(arb_image(16, 12), 8),
        depth in arb_depth(8),
    ) {
        let (got, expect) = run_case(Method::Bslc, images, depth);
        prop_assert!(got.max_abs_diff(&expect) < 2e-4);
    }

    #[test]
    fn bsbr_matches_reference_on_random_input(
        images in proptest::collection::vec(arb_image(12, 16), 8),
        depth in arb_depth(8),
    ) {
        let (got, expect) = run_case(Method::Bsbr, images, depth);
        prop_assert!(got.max_abs_diff(&expect) < 2e-4);
    }

    #[test]
    fn non_pow2_methods_match_reference_on_random_input(
        images in proptest::collection::vec(arb_image(12, 12), 6),
        depth in arb_depth(6),
        method_idx in 0usize..4,
    ) {
        let method = [Method::Bs, Method::RadixK, Method::Bsbr, Method::TileStream][method_idx];
        let (got, expect) = run_case(method, images, depth);
        prop_assert!(got.max_abs_diff(&expect) < 2e-4);
    }

    #[test]
    fn m_max_ordering_holds_on_random_sparse_input(
        images in proptest::collection::vec(arb_image(16, 16), 8),
    ) {
        let p = images.len();
        let config = ExperimentConfig {
            dataset: DatasetKind::Cube,
            image_size: 16,
            processors: p,
            volume_dims: Some([8, 8, 8]),
            ..Default::default()
        };
        let exp = Experiment::from_subimages(config, images, DepthOrder::identity(p));
        let bs = exp.run(Method::Bs).record().m_max;
        let bsbr = exp.run(Method::Bsbr).record().m_max;
        let bsbrc = exp.run(Method::Bsbrc).record().m_max;
        // Slack for the per-stage headers (8 B rect, 4 B code count)
        // that Equation (9)'s byte model does not charge.
        let stages = 3u64; // log2(8)
        prop_assert!(bs + 8 * stages >= bsbr, "BS {bs} < BSBR {bsbr}");
        prop_assert!(bsbr + 12 * stages >= bsbrc, "BSBR {bsbr} < BSBRC {bsbrc}");
    }
}
