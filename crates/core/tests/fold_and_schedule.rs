//! Integration tests for the scheduling layer: fold correctness at
//! scale and stage structure.

use slsvr_core::{composite, gather_image_tolerant, reference_composite, Method, OwnedPiece};
use vr_comm::{run_group, CostModel, Endpoint};
use vr_image::{Image, Pixel};
use vr_volume::DepthOrder;

#[path = "support/gather_exact.rs"]
mod support;
use support::gather_exact;

fn striped(p: usize, w: u16, h: u16) -> Vec<Image> {
    (0..p)
        .map(|r| {
            Image::from_fn(w, h, |x, y| {
                if (x as usize + y as usize * 2) % p == r {
                    Pixel::gray(0.1 + r as f32 / p as f32 * 0.8, 0.4)
                } else {
                    Pixel::BLANK
                }
            })
        })
        .collect()
}

#[test]
fn every_non_pow2_up_to_17_matches_reference() {
    // The fold extension across the full small range, including primes
    // and 2^k ± 1 edge cases.
    for p in [3, 5, 6, 7, 9, 11, 12, 13, 15, 17] {
        let images = striped(p, 24, 18);
        let depth = DepthOrder::identity(p);
        let expect = reference_composite(&images, &depth);
        let out = run_group(p, CostModel::free(), |ep| {
            let mut img = images[ep.rank()].clone();
            let res = composite(Method::Bsbrc, ep, &mut img, &depth).unwrap();
            gather_exact(ep, &img, &res.piece, 0)
        });
        let got = out.results[0].as_ref().unwrap();
        let diff = got.max_abs_diff(&expect);
        assert!(diff < 2e-4, "P={p}: diff {diff}");
    }
}

#[test]
fn fold_count_matches_formula() {
    // With P ranks, P − 2^⌊log2 P⌋ ranks fold out; the rest run
    // log2(2^⌊log2 P⌋) exchange stages.
    for p in [5usize, 6, 7, 9, 12] {
        let q = p.next_power_of_two() / 2;
        let extra = p - q;
        let images = striped(p, 16, 16);
        let depth = DepthOrder::identity(p);
        let out = run_group(p, CostModel::free(), |ep| {
            let mut img = images[ep.rank()].clone();
            composite(Method::Bs, ep, &mut img, &depth).unwrap().stats
        });
        let folded = out
            .results
            .iter()
            .filter(|s| s.stages.len() == 1 && s.stages[0].recv_bytes == 0)
            .count();
        assert_eq!(folded, extra, "P={p}: wrong number of folded ranks");
        // Active ranks: (optional fold-receive stage) + log2(q) swap stages.
        let swap_stages = q.trailing_zeros() as usize;
        for s in &out.results {
            assert!(
                s.stages.len() == swap_stages
                    || s.stages.len() == swap_stages + 1
                    || (s.stages.len() == 1 && s.stages[0].recv_bytes == 0),
                "P={p}: unexpected stage count {}",
                s.stages.len()
            );
        }
    }
}

#[test]
fn stats_stage_peers_are_symmetric() {
    let p = 8;
    let images = striped(p, 16, 16);
    let depth = DepthOrder::identity(p);
    let out = run_group(p, CostModel::free(), |ep| {
        let mut img = images[ep.rank()].clone();
        composite(Method::Bsbrc, ep, &mut img, &depth)
            .unwrap()
            .stats
    });
    for (rank, stats) in out.results.iter().enumerate() {
        for (k, stage) in stats.stages.iter().enumerate() {
            let peer = stage.peer.expect("swap stages record peers") as usize;
            let back = out.results[peer].stages[k].peer.unwrap() as usize;
            assert_eq!(back, rank, "stage {k} peer symmetry broken");
        }
    }
}
