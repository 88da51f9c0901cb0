//! Chaos tests: every compositing method under injected message faults
//! and rank kills — the tentpole's acceptance criteria.
//!
//! * With faults disabled, the transport adds zero overhead bytes.
//! * The same fault seed reproduces the same delivery behaviour.
//! * With reliable delivery on, dropped/corrupted messages recover via
//!   retransmit to a bit-exact image, and the recovery cost is visible
//!   in `TrafficStats`.
//! * A killed rank degrades the run instead of panicking or stalling:
//!   the group returns promptly, the dead rank is listed, and the image
//!   reports its coverage loss.

use std::time::Duration;

use slsvr::comm::{
    run_group, run_group_with, CostModel, Endpoint, FaultConfig, GroupOptions, KillSpec,
    ReliabilityConfig, ScheduleSpec,
};
use slsvr::compositing::{
    composite, gather_image_tolerant, reference_composite, Method, OwnedPiece,
};
use slsvr::image::{Image, Pixel};
use slsvr::system::{Experiment, ExperimentConfig};
use slsvr::volume::{DatasetKind, DepthOrder};

#[path = "../crates/core/tests/support/gather_exact.rs"]
mod support;
use support::gather_exact;

/// The sequential reference composite over the *surviving* ranks only
/// — what a degraded run should converge to for pair-exchange methods
/// (dead contributions become transparent).
fn survivor_reference(exp: &Experiment, dead_ranks: &[usize]) -> Image {
    let masked: Vec<Image> = exp
        .subimages()
        .iter()
        .enumerate()
        .map(|(rank, img)| {
            if dead_ranks.contains(&rank) {
                Image::blank(img.width(), img.height())
            } else {
                img.clone()
            }
        })
        .collect();
    reference_composite(&masked, exp.depth())
}

/// Deterministic sparse test images (stripes + a per-rank blob).
fn test_images(p: usize, w: u16, h: u16) -> Vec<Image> {
    (0..p)
        .map(|r| {
            Image::from_fn(w, h, |x, y| {
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

/// Composites + gathers at rank 0 under `options`; panics on hard
/// errors (none are expected in these tests).
fn run_to_image(
    method: Method,
    images: &[Image],
    depth: &DepthOrder,
    options: GroupOptions,
) -> (Image, Vec<slsvr::comm::TrafficStats>) {
    let p = images.len();
    let out = run_group_with(p, options, |ep| {
        let mut img = images[ep.rank()].clone();
        let result = composite(method, ep, &mut img, depth).expect("compositing must recover");
        gather_exact(ep, &img, &result.piece, 0)
    });
    let image = out.results[0].clone().expect("root gathers");
    (image, out.stats)
}

fn reliable_options(faults: FaultConfig) -> GroupOptions {
    GroupOptions {
        cost: CostModel::free(),
        recv_deadline: Duration::from_secs(5),
        faults: Some(faults),
        reliability: ReliabilityConfig {
            enabled: true,
            ack_timeout: Duration::from_millis(5),
            max_retries: 20,
            backoff: 2.0,
            max_backoff: Duration::from_millis(50),
        },
        ..Default::default()
    }
}

#[test]
fn no_faults_means_zero_transport_overhead() {
    let p = 4;
    let images = test_images(p, 24, 24);
    let depth = DepthOrder::identity(p);
    for method in Method::all() {
        let (image, stats) = run_to_image(method, &images, &depth, GroupOptions::default());
        let expect = reference_composite(&images, &depth);
        assert!(image.max_abs_diff(&expect) < 2e-4, "{method:?}");
        for (rank, s) in stats.iter().enumerate() {
            assert_eq!(s.overhead_bytes, 0, "{method:?} rank {rank} framing bytes");
            assert_eq!(s.retransmits, 0, "{method:?} rank {rank}");
            assert_eq!(s.ack_timeouts, 0, "{method:?} rank {rank}");
        }
    }
}

#[test]
fn same_fault_seed_reproduces_the_run() {
    let p = 4;
    let images = test_images(p, 24, 24);
    let depth = DepthOrder::identity(p);
    let faults = FaultConfig {
        drop: 0.2,
        corrupt: 0.05,
        duplicate: 0.05,
        seed: 42,
        ..Default::default()
    };
    // The same schedule seed for both runs: ack timeouts fire on the
    // virtual clock, so neither run's retransmits depend on how busy
    // the host is.
    let options = GroupOptions {
        schedule: Some(ScheduleSpec::seeded(7)),
        ..reliable_options(faults)
    };
    let (img_a, stats_a) = run_to_image(Method::Bsbrc, &images, &depth, options.clone());
    let (img_b, stats_b) = run_to_image(Method::Bsbrc, &images, &depth, options);
    assert_eq!(img_a.pixels(), img_b.pixels(), "images must be identical");
    assert!(
        stats_a.iter().map(|s| s.retransmits).sum::<u64>() > 0,
        "the fault plan must force retransmits"
    );
    for (a, b) in stats_a.iter().zip(&stats_b) {
        // Logical counters only: modeled seconds are logical too, but
        // retransmit decisions are what the seed must pin down.
        assert_eq!(a.sent_messages, b.sent_messages);
        assert_eq!(a.sent_bytes, b.sent_bytes);
        assert_eq!(a.retransmits, b.retransmits);
        assert_eq!(a.corruptions_detected, b.corruptions_detected);
        assert_eq!(a.overhead_bytes, b.overhead_bytes);
    }
}

#[test]
fn every_method_recovers_bit_exact_from_drops() {
    let depth_free = |p: usize| DepthOrder::identity(p);
    for method in Method::all() {
        for p in [4usize, 5] {
            let images = test_images(p, 20, 20);
            let depth = depth_free(p);
            let clean = {
                let opts = GroupOptions {
                    cost: CostModel::free(),
                    ..Default::default()
                };
                run_to_image(method, &images, &depth, opts).0
            };
            let faults = FaultConfig {
                drop: 0.25,
                seed: 7,
                ..Default::default()
            };
            let (image, stats) = run_to_image(method, &images, &depth, reliable_options(faults));
            assert_eq!(
                image.pixels(),
                clean.pixels(),
                "{method:?} P={p}: recovery must be bit-exact"
            );
            let retransmits: u64 = stats.iter().map(|s| s.retransmits).sum();
            assert!(
                retransmits > 0,
                "{method:?} P={p}: drops must cost retransmits"
            );
        }
    }
}

#[test]
fn corruption_is_detected_and_recovered() {
    let p = 4;
    let images = test_images(p, 20, 20);
    let depth = DepthOrder::identity(p);
    let clean = {
        let opts = GroupOptions {
            cost: CostModel::free(),
            ..Default::default()
        };
        run_to_image(Method::Bs, &images, &depth, opts).0
    };
    let faults = FaultConfig {
        corrupt: 0.2,
        seed: 3,
        ..Default::default()
    };
    let (image, stats) = run_to_image(Method::Bs, &images, &depth, reliable_options(faults));
    assert_eq!(image.pixels(), clean.pixels());
    let detected: u64 = stats.iter().map(|s| s.corruptions_detected).sum();
    assert!(detected > 0, "CRC must catch injected corruption");
}

#[test]
fn killed_rank_degrades_without_stalling_any_method() {
    let started = std::time::Instant::now();
    for method in Method::all() {
        let p = 4;
        let config = ExperimentConfig {
            dataset: DatasetKind::Cube,
            image_size: 20,
            processors: p,
            method,
            faults: Some(FaultConfig {
                kill: Some(KillSpec {
                    rank: 3,
                    after_ops: 0,
                }),
                ..Default::default()
            }),
            recv_deadline: Some(Duration::from_secs(2)),
            cost: CostModel::free(),
            ..Default::default()
        };
        let images = test_images(p, 20, 20);
        let exp = Experiment::from_subimages(config, images, DepthOrder::identity(p));
        let out = exp.run(method);
        assert!(out.failures.is_empty(), "{method:?}: {:?}", out.failures);
        assert_eq!(out.dead_ranks, vec![3], "{method:?} must report the kill");
        assert!(out.is_degraded(), "{method:?} must be degraded");
        assert!(
            out.coverage < 1.0 || !out.missing_ranks.is_empty(),
            "{method:?}: a dead rank must cost coverage (got {:.3})",
            out.coverage
        );
        // The degraded image never invents content: PSNR vs the
        // survivor reference is well defined (no NaNs, not zero image
        // unless rank 0 itself assembled nothing).
        let psnr = out.psnr_vs(&survivor_reference(&exp, &out.dead_ranks));
        assert!(psnr > 0.0, "{method:?}: PSNR {psnr}");
    }
    // Eleven methods, each with a kill: far under one deadline each,
    // proving nobody waited out the old 60 s constant.
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "kills must not stall ({:?})",
        started.elapsed()
    );
}

#[test]
fn killed_partner_leaves_survivor_half_exact() {
    // P=2 binary swap: rank 1 dies before sending anything, so rank 0
    // keeps its half containing only its own contribution — exactly the
    // survivor reference restricted to the covered half.
    let p = 2;
    let images = test_images(p, 16, 16);
    let depth = DepthOrder::identity(p);
    let config = ExperimentConfig {
        dataset: DatasetKind::Cube,
        image_size: 16,
        processors: p,
        method: Method::Bs,
        faults: Some(FaultConfig {
            kill: Some(KillSpec {
                rank: 1,
                after_ops: 0,
            }),
            ..Default::default()
        }),
        recv_deadline: Some(Duration::from_secs(2)),
        cost: CostModel::free(),
        ..Default::default()
    };
    let exp = Experiment::from_subimages(config, images, depth);
    let out = exp.run(Method::Bs);
    assert!(out.failures.is_empty(), "{:?}", out.failures);
    assert_eq!(out.dead_ranks, vec![1]);
    assert!(
        (out.coverage - 0.5).abs() < 1e-9,
        "coverage {}",
        out.coverage
    );
    let survivors = survivor_reference(&exp, &[1]);
    // Every covered pixel matches the survivor reference; the dead
    // half stays blank.
    let mut covered = 0usize;
    for (got, want) in out.image.pixels().iter().zip(survivors.pixels()) {
        if *got != Pixel::BLANK {
            assert!(got.max_abs_diff(want) < 2e-4);
            covered += 1;
        }
    }
    assert!(covered > 0, "the survivor half must carry content");
}

#[test]
fn dead_root_yields_blank_frame_not_a_panic() {
    let p = 4;
    let images = test_images(p, 16, 16);
    let config = ExperimentConfig {
        dataset: DatasetKind::Cube,
        image_size: 16,
        processors: p,
        method: Method::Bsbrc,
        faults: Some(FaultConfig {
            kill: Some(KillSpec {
                rank: 0,
                after_ops: 0,
            }),
            ..Default::default()
        }),
        recv_deadline: Some(Duration::from_secs(2)),
        cost: CostModel::free(),
        ..Default::default()
    };
    let exp = Experiment::from_subimages(config, images, DepthOrder::identity(p));
    let out = exp.run(Method::Bsbrc);
    assert!(out.failures.is_empty(), "{:?}", out.failures);
    assert_eq!(out.dead_ranks, vec![0]);
    assert_eq!(out.missing_ranks, vec![0, 1, 2, 3]);
    assert_eq!(out.coverage, 0.0);
    assert_eq!(out.image.non_blank_count(), 0);
}

#[test]
fn retransmit_cost_shows_up_in_modeled_comm_time() {
    // The paper's T_comm must grow when drops force retransmits — the
    // "cost of robustness" is charged through the same cost model.
    let p = 4;
    let images = test_images(p, 24, 24);
    let depth = DepthOrder::identity(p);
    let run_comm = |faults: Option<FaultConfig>| {
        let mut opts = reliable_options(faults.unwrap_or_default());
        opts.cost = CostModel::sp2();
        opts.faults = faults;
        let (_, stats) = run_to_image(Method::Bs, &images, &depth, opts);
        (
            stats.iter().map(|s| s.modeled_comm_seconds).sum::<f64>(),
            stats.iter().map(|s| s.retransmits).sum::<u64>(),
        )
    };
    let (clean_comm, clean_rts) = run_comm(None);
    let (faulty_comm, faulty_rts) = run_comm(Some(FaultConfig {
        drop: 0.3,
        seed: 11,
        ..Default::default()
    }));
    assert_eq!(clean_rts, 0);
    assert!(faulty_rts > 0);
    assert!(
        faulty_comm > clean_comm,
        "retransmits must cost modeled comm time ({faulty_comm} vs {clean_comm})"
    );
}

#[test]
fn group_run_without_faults_matches_plain_run_group() {
    // `run_group` and `run_group_with(default)` must agree byte for
    // byte: the fault layer is zero-cost when disabled.
    let p = 4;
    let images = test_images(p, 20, 20);
    let depth = DepthOrder::identity(p);
    let plain = run_group(p, CostModel::sp2(), |ep| {
        let mut img = images[ep.rank()].clone();
        let result = composite(Method::Bsbrc, ep, &mut img, &depth).unwrap();
        gather_exact(ep, &img, &result.piece, 0)
    });
    let (image, stats) = run_to_image(
        Method::Bsbrc,
        &images,
        &depth,
        GroupOptions {
            cost: CostModel::sp2(),
            ..Default::default()
        },
    );
    let plain_img = plain.results[0].clone().unwrap();
    assert_eq!(plain_img.pixels(), image.pixels());
    for (a, b) in plain.stats.iter().zip(&stats) {
        assert_eq!(a.sent_messages, b.sent_messages);
        assert_eq!(a.sent_bytes, b.sent_bytes);
        assert_eq!(a.recv_bytes, b.recv_bytes);
        assert_eq!(a.overhead_bytes, b.overhead_bytes);
    }
    assert!(plain.dead_ranks.is_empty());
}

#[test]
fn killed_tile_producer_leaves_holes_only_at_its_tiles_and_never_hangs() {
    // Tile-stream under a kill: the victim's un-streamed contributions
    // become transparent holes, tiles it *did* stream before dying stay
    // fully composited, tiles it *owned* stay blank (missing piece) —
    // and in every case the group returns promptly.
    use slsvr::compositing::methods::tile_stream::{tile_grid, DEFAULT_STREAM_TILE};
    let started = std::time::Instant::now();
    let p = 4;
    let (w, h) = (64u16, 64u16);
    let victim = 1usize;
    let images = test_images(p, w, h);
    let depth = DepthOrder::identity(p);
    let full = reference_composite(&images, &depth);
    for after_ops in [0u64, 2, 5] {
        let config = ExperimentConfig {
            dataset: DatasetKind::Cube,
            image_size: w,
            processors: p,
            method: Method::TileStream,
            faults: Some(FaultConfig {
                kill: Some(KillSpec {
                    rank: victim,
                    after_ops,
                }),
                ..Default::default()
            }),
            recv_deadline: Some(Duration::from_secs(2)),
            cost: CostModel::free(),
            ..Default::default()
        };
        let exp = Experiment::from_subimages(config, images.clone(), depth.clone());
        let out = exp.run(Method::TileStream);
        assert!(
            out.failures.is_empty(),
            "after_ops={after_ops}: {:?}",
            out.failures
        );
        assert_eq!(out.dead_ranks, vec![victim], "after_ops={after_ops}");
        assert!(out.is_degraded());
        let survivor = survivor_reference(&exp, &[victim]);
        // Per-tile trichotomy: a tile's pixels equal the full reference
        // (victim's runs arrived), the survivor reference (hole at the
        // victim's contribution), or stay blank (the victim owned the
        // tile and died before gathering) — never a torn mix.
        for (t, rect) in tile_grid(w, h, DEFAULT_STREAM_TILE).iter().enumerate() {
            let got = out.image.extract_rect(rect);
            let owner = depth.front_to_back()[t % p];
            if owner == victim {
                assert!(
                    got.iter().all(|px| *px == Pixel::BLANK),
                    "after_ops={after_ops} tile {t}: dead owner's tile must stay blank"
                );
                continue;
            }
            let matches_full = got == full.extract_rect(rect);
            let matches_survivor = got == survivor.extract_rect(rect);
            assert!(
                matches_full || matches_survivor,
                "after_ops={after_ops} tile {t}: \
                 hole must align with the victim's whole tile contribution"
            );
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "tile-stream kills must not stall ({:?})",
        started.elapsed()
    );
}
