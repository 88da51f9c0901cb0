//! Edge-case integration tests: degenerate images, extreme processor
//! counts relative to the frame, and pathological content.

use slsvr::comm::Endpoint;
use slsvr::compositing::{gather_image_tolerant, reference_composite, Method, OwnedPiece};
use slsvr::image::{Image, Pixel};
use slsvr::system::{Experiment, ExperimentConfig};
use slsvr::volume::{DatasetKind, DepthOrder};

#[path = "../crates/core/tests/support/gather_exact.rs"]
mod support;
use support::gather_exact;

fn harness(images: Vec<Image>, depth: DepthOrder) -> Experiment {
    let p = images.len();
    let config = ExperimentConfig {
        dataset: DatasetKind::Cube,
        image_size: images[0].width(),
        processors: p,
        volume_dims: Some([8, 8, 8]),
        ..Default::default()
    };
    Experiment::from_subimages(config, images, depth)
}

#[test]
fn all_blank_images_stay_blank() {
    let images = vec![Image::blank(32, 32); 8];
    let exp = harness(images, DepthOrder::identity(8));
    for method in Method::all() {
        let out = exp.run(method);
        assert_eq!(out.image.non_blank_count(), 0, "{method:?} invented pixels");
    }
}

#[test]
fn fully_opaque_images_resolve_to_front() {
    let images: Vec<Image> = (0..4)
        .map(|r| Image::from_fn(16, 16, |_, _| Pixel::gray(r as f32 / 4.0, 1.0)))
        .collect();
    // Rank 2 is front-most everywhere.
    let depth = DepthOrder::from_sequence(vec![2, 0, 1, 3]);
    let exp = harness(images, depth);
    for method in Method::all() {
        let out = exp.run(method);
        for p in out.image.pixels() {
            assert_eq!(p.r, 2.0 / 4.0, "{method:?} must show the front image");
        }
    }
}

#[test]
fn more_stages_than_pixels_along_an_axis() {
    // A 4×4 image with 16 processors: binary-swap regions degenerate to
    // single pixels and beyond (empty rects on some ranks). Must not
    // panic and must stay correct.
    let images: Vec<Image> = (0..16)
        .map(|r| {
            Image::from_fn(4, 4, |x, y| {
                if (x + y * 4) as usize == r {
                    Pixel::gray(0.9, 0.9)
                } else {
                    Pixel::BLANK
                }
            })
        })
        .collect();
    let depth = DepthOrder::identity(16);
    let expect = reference_composite(&images, &depth);
    let exp = harness(images, depth);
    for method in [Method::Bs, Method::Bsbr, Method::Bsbrc, Method::Bslc] {
        let out = exp.run(method);
        assert!(
            out.image.max_abs_diff(&expect) < 2e-4,
            "{method:?} failed on tiny image"
        );
    }
}

#[test]
fn single_pixel_image() {
    let images: Vec<Image> = (0..2)
        .map(|r| {
            let mut img = Image::blank(1, 1);
            img.set(0, 0, Pixel::gray(0.5, if r == 0 { 0.5 } else { 1.0 }));
            img
        })
        .collect();
    let depth = DepthOrder::identity(2);
    let expect = reference_composite(&images, &depth);
    let exp = harness(images, depth);
    for method in [
        Method::Bs,
        Method::Bsbrc,
        Method::TileStream,
        Method::RadixK,
    ] {
        let out = exp.run(method);
        assert!(
            out.image.max_abs_diff(&expect) < 1e-6,
            "{method:?} failed on 1×1"
        );
    }
}

#[test]
fn non_square_images() {
    let images: Vec<Image> = (0..4)
        .map(|r| {
            Image::from_fn(37, 11, |x, y| {
                if (x as usize + y as usize + r).is_multiple_of(5) {
                    Pixel::gray(0.3 + r as f32 * 0.1, 0.6)
                } else {
                    Pixel::BLANK
                }
            })
        })
        .collect();
    let depth = DepthOrder::from_sequence(vec![3, 1, 2, 0]);
    let expect = reference_composite(&images, &depth);
    // Note: Experiment requires square frames via config, so drive the
    // compositing layer directly.
    let out = vr_comm::run_group(4, vr_comm::CostModel::free(), |ep| {
        let mut img = images[ep.rank()].clone();
        let res = slsvr::compositing::composite(Method::Bsbrc, ep, &mut img, &depth).unwrap();
        gather_exact(ep, &img, &res.piece, 0)
    });
    let got = out.results[0].as_ref().unwrap();
    assert!(got.max_abs_diff(&expect) < 2e-4);
}

#[test]
fn content_on_region_boundaries() {
    // Non-blank pixels exactly on the binary-swap centerlines: x = w/2,
    // y = h/2 — the off-by-one hot spots of region splitting.
    let mut base = Image::blank(32, 32);
    for i in 0..32u16 {
        base.set(16, i, Pixel::gray(0.8, 0.8));
        base.set(i, 16, Pixel::gray(0.4, 0.4));
        base.set(15, i, Pixel::gray(0.2, 0.9));
    }
    let images = vec![base.clone(), base.clone(), base.clone(), base];
    let depth = DepthOrder::identity(4);
    let expect = reference_composite(&images, &depth);
    let exp = harness(images, depth);
    for method in [Method::Bs, Method::Bsbr, Method::Bsbrc, Method::Bslc] {
        let out = exp.run(method);
        assert!(
            out.image.max_abs_diff(&expect) < 2e-4,
            "{method:?} failed on boundary content"
        );
    }
}

#[test]
fn extreme_depth_orders() {
    let images: Vec<Image> = (0..8)
        .map(|r| {
            Image::from_fn(16, 16, |x, _| {
                Pixel::gray(x as f32 / 16.0, 0.2 + r as f32 * 0.1)
            })
        })
        .collect();
    for depth in [
        DepthOrder::identity(8),
        DepthOrder::from_sequence((0..8).rev().collect()),
        DepthOrder::from_sequence(vec![4, 5, 6, 7, 0, 1, 2, 3]),
    ] {
        let expect = reference_composite(&images, &depth);
        let exp = harness(images.clone(), depth);
        let out = exp.run(Method::Bsbrc);
        assert!(out.image.max_abs_diff(&expect) < 2e-4);
    }
}

#[test]
fn stats_are_internally_consistent() {
    let images: Vec<Image> = (0..8)
        .map(|r| {
            Image::from_fn(32, 32, |x, y| {
                if (x as usize * 7 + y as usize * 3 + r).is_multiple_of(4) {
                    Pixel::gray(0.5, 0.5)
                } else {
                    Pixel::BLANK
                }
            })
        })
        .collect();
    let exp = harness(images, DepthOrder::identity(8));
    for method in Method::all() {
        let out = exp.run(method);
        // Conservation: total sent == total received across the group.
        let sent: u64 = out.per_rank.iter().flatten().map(|s| s.sent_bytes()).sum();
        let recvd: u64 = out.per_rank.iter().flatten().map(|s| s.recv_bytes()).sum();
        assert_eq!(sent, recvd, "{method:?} lost bytes in flight");
        // comm time is nonneg and monotone in bytes.
        for s in out.per_rank.iter().flatten() {
            assert!(s.comm_seconds >= 0.0);
            assert!(s.comp_seconds >= 0.0);
        }
    }
}
