//! Exhaustive method × topology correctness matrix, plus cross-method
//! agreement checks on rendered-like content — the compositing layer's
//! own integration suite (the umbrella crate has the full-system one).

use slsvr_core::{composite, gather_image_tolerant, reference_composite, Method, OwnedPiece};
use vr_comm::{run_group, CostModel, Endpoint};
use vr_image::{Image, Pixel};
use vr_volume::DepthOrder;

#[path = "support/gather_exact.rs"]
mod support;
use support::gather_exact;

/// Deterministic pseudo-rendered subimages with per-rank clusters.
fn subimages(p: usize, w: u16, h: u16) -> Vec<Image> {
    (0..p)
        .map(|r| {
            Image::from_fn(w, h, |x, y| {
                let hash = (x as u32)
                    .wrapping_mul(2654435761)
                    .wrapping_add((y as u32).wrapping_mul(40503))
                    .wrapping_add(r as u32 * 9973);
                let cx = ((r * 2 + 1) * w as usize / (2 * p)) as i32;
                let dx = (x as i32 - cx).abs();
                if dx < (w as i32 / 3) && hash % 100 < 35 {
                    Pixel::from_straight(
                        (hash % 255) as f32 / 255.0,
                        ((hash >> 8) % 255) as f32 / 255.0,
                        ((hash >> 16) % 255) as f32 / 255.0,
                        0.1 + ((hash >> 4) % 90) as f32 / 100.0,
                    )
                } else {
                    Pixel::BLANK
                }
            })
        })
        .collect()
}

fn run_case(method: Method, p: usize, depth: &DepthOrder) {
    let images = subimages(p, 30, 22);
    let expect = reference_composite(&images, depth);
    let out = run_group(p, CostModel::sp2(), |ep| {
        let mut img = images[ep.rank()].clone();
        let res = composite(method, ep, &mut img, depth).unwrap();
        gather_exact(ep, &img, &res.piece, 0)
    });
    let got = out.results[0].as_ref().expect("gathered at root");
    let diff = got.max_abs_diff(&expect);
    assert!(
        diff < 2e-4,
        "{method:?} P={p} depth={:?}: diff {diff}",
        depth.front_to_back()
    );
}

#[test]
fn full_matrix_identity_depth() {
    for method in Method::all() {
        for p in [1, 2, 3, 4, 5, 8] {
            run_case(method, p, &DepthOrder::identity(p));
        }
    }
}

#[test]
fn full_matrix_reversed_depth() {
    for method in Method::all() {
        for p in [2, 4, 7, 8] {
            run_case(
                method,
                p,
                &DepthOrder::from_sequence((0..p).rev().collect()),
            );
        }
    }
}

#[test]
fn full_matrix_rotated_depth() {
    for method in Method::all() {
        for p in [3, 6, 8] {
            // A rotation of the identity — every rank shifted by p/2.
            let seq: Vec<usize> = (0..p).map(|i| (i + p / 2) % p).collect();
            run_case(method, p, &DepthOrder::from_sequence(seq));
        }
    }
}

#[test]
fn colored_pixels_survive_every_method() {
    // Full RGBA (not just gray): catches channel mix-ups in wire
    // formats and the over operator.
    let p = 4;
    let depth = DepthOrder::from_sequence(vec![2, 0, 3, 1]);
    let images = subimages(p, 16, 16);
    let expect = reference_composite(&images, &depth);
    for method in Method::all() {
        let out = run_group(p, CostModel::free(), |ep| {
            let mut img = images[ep.rank()].clone();
            let res = composite(method, ep, &mut img, &depth).unwrap();
            gather_exact(ep, &img, &res.piece, 0)
        });
        let got = out.results[0].as_ref().unwrap();
        assert!(
            got.max_abs_diff(&expect) < 2e-4,
            "{method:?} mangled colored pixels"
        );
    }
}

#[test]
fn methods_agree_pairwise_on_m_max_relations() {
    // Eq. (9)-adjacent sanity on clustered content across several P.
    for p in [4, 8, 16] {
        let images = subimages(p, 32, 32);
        let depth = DepthOrder::identity(p);
        let m = |method: Method| {
            let out = run_group(p, CostModel::free(), |ep| {
                let mut img = images[ep.rank()].clone();
                composite(method, ep, &mut img, &depth)
                    .unwrap()
                    .stats
                    .recv_bytes()
            });
            out.results.into_iter().max().unwrap()
        };
        let bs = m(Method::Bs);
        let bsbr = m(Method::Bsbr);
        let bsbrc = m(Method::Bsbrc);
        let stages = p.trailing_zeros() as u64;
        assert!(bs + 8 * stages >= bsbr, "P={p}: BS {bs} < BSBR {bsbr}");
        assert!(
            bsbr + 12 * stages >= bsbrc,
            "P={p}: BSBR {bsbr} < BSBRC {bsbrc}"
        );
    }
}
