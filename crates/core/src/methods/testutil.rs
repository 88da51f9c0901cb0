//! Shared test helpers for the method correctness suites.
#![allow(dead_code)]

use vr_comm::{run_group, CostModel};
use vr_image::{Image, Pixel};
use vr_volume::DepthOrder;

/// Builds P deterministic sparse test images.
pub fn test_images(p: usize, w: u16, h: u16) -> Vec<Image> {
    (0..p)
        .map(|r| {
            Image::from_fn(w, h, |x, y| {
                // Each rank covers a diagonal stripe plus a blob.
                let stripe = (x as usize + y as usize * 3 + r * 7) % (p * 4) < 3;
                let blob = {
                    let cx = (r * 13 + 5) % w as usize;
                    let cy = (r * 29 + 11) % h as usize;
                    let dx = x as i32 - cx as i32;
                    let dy = y as i32 - cy as i32;
                    dx * dx + dy * dy < 30
                };
                if stripe || blob {
                    Pixel::gray(
                        0.2 + 0.6 * (r as f32 / p as f32),
                        0.25 + 0.5 * (r as f32 / p as f32),
                    )
                } else {
                    Pixel::BLANK
                }
            })
        })
        .collect()
}

/// Runs `method` over `images` (one per rank) and returns every rank's
/// compositing result, in rank order.
pub fn run_method(
    method: crate::methods::Method,
    images: &[Image],
    depth: &DepthOrder,
) -> Vec<crate::methods::CompositeResult> {
    run_group(images.len(), CostModel::free(), |ep| {
        let mut img = images[ep.rank()].clone();
        crate::methods::composite(method, ep, &mut img, depth).unwrap()
    })
    .results
}

/// Runs a method distributed and compares against the sequential
/// reference within tolerance; returns the gathered image.
pub fn check_against_reference(
    method: crate::methods::Method,
    p: usize,
    w: u16,
    h: u16,
    depth: &DepthOrder,
) -> Image {
    let images = test_images(p, w, h);
    let expect = crate::reference::reference_composite(&images, depth);
    let out = run_group(p, CostModel::free(), |ep| {
        let mut img = images[ep.rank()].clone();
        let result = crate::methods::composite(method, ep, &mut img, depth).unwrap();
        crate::gather::gather_image(ep, &img, &result.piece, 0)
    });
    let final_img = out.results[0].clone().expect("root must gather the image");
    let diff = final_img.max_abs_diff(&expect);
    assert!(
        diff < 2e-4,
        "{method:?} with P={p} differs from reference by {diff}"
    );
    final_img
}
