//! Differential conformance suite: all compositing methods against the
//! sequential reference, under deterministic virtual-time schedules,
//! with the paper's byte-count equations as an independent oracle.
//!
//! Environment knobs (all optional):
//!
//! * `SLSVR_CONFORMANCE_P` — comma-separated rank counts for the main
//!   matrix (default `1,2,4,8,16`);
//! * `SLSVR_SCHEDULE_SEEDS` — comma-separated schedule seeds for the
//!   schedule-independence sweep (default ten fixed seeds);
//! * `SLSVR_FUZZ_COUNT` / `SLSVR_FUZZ_BASE` / `SLSVR_FUZZ_OUT` — budget,
//!   base seed and output path of the `#[ignore]`d long-fuzz test; any
//!   failing `(case, seed)` is appended to the output file as a corpus
//!   line ready to check in under `tests/conformance_corpus/`.

use std::io::Write as _;
use std::sync::Arc;

use slsvr::comm::{
    explore_schedules, run_group, CostModel, FaultConfig, ScheduleSpec, TrafficStats,
};
use slsvr::compositing::conformance::{
    expected_traffic, non_blank_masks, parse_corpus, run_case, ConformanceCase, CorpusEntry,
    CostKind, Workload,
};
use slsvr::compositing::{
    composite, virtual_completion, CompCost, CompositeError, CompositeResult, Method, MethodStats,
    OwnedPiece, StageStat,
};
use slsvr::image::checksum::fnv1a;
use slsvr::system::{CompTiming, Experiment, ExperimentConfig, Outcome, RenderPool};
use slsvr::volume::{Dataset, DatasetKind, DepthOrder};

/// Float slack for `over` re-association across distribution layouts.
const TOLERANCE: f32 = 2e-4;

fn env_list(var: &str, default: &[u64]) -> Vec<u64> {
    match std::env::var(var) {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("numeric list"))
            .collect(),
        Err(_) => default.to_vec(),
    }
}

fn rank_counts() -> Vec<usize> {
    env_list("SLSVR_CONFORMANCE_P", &[1, 2, 4, 8, 16])
        .into_iter()
        .map(|p| p as usize)
        .collect()
}

fn schedule_seeds() -> Vec<u64> {
    env_list(
        "SLSVR_SCHEDULE_SEEDS",
        &[3, 7, 11, 19, 23, 42, 97, 131, 255, 1009],
    )
}

/// A fixed but non-trivial front-to-back permutation of `0..p`.
fn shuffled_depth(p: usize, salt: usize) -> DepthOrder {
    let mut order: Vec<usize> = (0..p).collect();
    for i in (1..p).rev() {
        let j = (i * 2654435761 + salt * 40503) % (i + 1);
        order.swap(i, j);
    }
    DepthOrder::from_sequence(order)
}

/// Tentpole matrix: every method × every rank count matches the
/// sequential reference bit-for-tolerance under a virtual schedule.
#[test]
fn all_methods_match_reference_under_virtual_schedules() {
    for p in rank_counts() {
        let depth = shuffled_depth(p, 1);
        for method in Method::all() {
            for workload in [Workload::Sparse, Workload::Bands] {
                let case = ConformanceCase {
                    depth: depth.clone(),
                    ..ConformanceCase::new(method, p, workload, 11)
                };
                let out = run_case(&case);
                assert!(
                    out.max_diff < TOLERANCE,
                    "{} P={p} {workload:?}: diff {} vs reference",
                    method.name(),
                    out.max_diff
                );
                assert_eq!(out.frame.coverage, 1.0, "{} P={p}", method.name());
                assert!(out.frame.dead_ranks.is_empty());
                let trace = out
                    .frame
                    .schedule
                    .expect("virtual run must produce a trace");
                assert!(p == 1 || trace.events > 0, "{} P={p}", method.name());
            }
        }
    }
}

/// Satellite: non-power-of-two groups across every binary-swap variant
/// (the fold prologue plus all four paper methods and the three hybrids).
#[test]
fn non_pow2_groups_match_reference_for_all_bs_variants() {
    for p in [3usize, 5, 6, 7, 12] {
        let depth = shuffled_depth(p, 2);
        for method in SWAP_FAMILY {
            let case = ConformanceCase {
                depth: depth.clone(),
                ..ConformanceCase::new(method, p, Workload::Sparse, 5)
            };
            let out = run_case(&case);
            assert!(
                out.max_diff < TOLERANCE,
                "{} P={p}: diff {}",
                method.name(),
                out.max_diff
            );
            assert_eq!(out.frame.coverage, 1.0);
        }
    }
}

/// Threaded-render column: for every rank count, the pooled renderer
/// (a 4-thread pool, 8 sample lanes) must produce subimages — and
/// therefore every method's composited image — bit-identical to the
/// one-thread scalar reference. This pins the whole render → composite
/// → gather chain, not just the renderer in isolation.
#[test]
fn threaded_render_matches_scalar_for_every_method_and_rank_count() {
    let (inline, four) = (RenderPool::new(1), RenderPool::new(4));
    for p in rank_counts() {
        let scalar = ExperimentConfig {
            simd_lanes: 1,
            ..ExperimentConfig::small_test(DatasetKind::EngineLow, p, Method::Bsbrc)
        };
        let threaded = ExperimentConfig {
            simd_lanes: 8,
            ..scalar
        };
        let dataset = Arc::new(Dataset::with_dims(scalar.dataset, scalar.resolved_dims()));
        let reference =
            Experiment::prepare_with_dataset_pool(&scalar, Arc::clone(&dataset), Some(&inline));
        let pooled = Experiment::prepare_with_dataset_pool(&threaded, dataset, Some(&four));
        for (rank, (a, b)) in reference
            .subimages()
            .iter()
            .zip(pooled.subimages())
            .enumerate()
        {
            assert_eq!(
                fnv1a(a),
                fnv1a(b),
                "P={p} rank {rank}: threaded subimage diverged from the scalar render"
            );
        }
        for method in Method::all() {
            let a = reference.run(method).image;
            let b = pooled.run(method).image;
            assert_eq!(
                fnv1a(&a),
                fnv1a(&b),
                "{} P={p}: threaded render changed the composited image",
                method.name()
            );
        }
    }
}

/// Tile-stream column: across every rank count (incl. non-power-of-two),
/// workload and several depth permutations, the streamed mode must be
/// **bit-identical** to the sequential reference — not merely within
/// tolerance. The per-owner accumulator folds contributions in exact
/// front-to-back order with the same `over` expression as the reference,
/// so any arrival-order dependence would show up as a nonzero diff here.
#[test]
fn tile_stream_is_bit_identical_to_reference_across_matrix() {
    for p in [1usize, 2, 3, 4, 5, 6, 7, 8, 12, 16] {
        for salt in [1usize, 4] {
            let depth = shuffled_depth(p, salt);
            for workload in [Workload::Sparse, Workload::Dense, Workload::Bands] {
                let case = ConformanceCase {
                    depth: depth.clone(),
                    // 80×56 ⇒ a 3×2 grid of 32-px tiles, so ownership
                    // interleaves across ranks instead of collapsing to
                    // a single tile.
                    width: 80,
                    height: 56,
                    ..ConformanceCase::new(Method::TileStream, p, workload, 29)
                };
                let out = run_case(&case);
                assert_eq!(
                    out.max_diff, 0.0,
                    "TSTREAM P={p} salt={salt} {workload:?}: streamed image must be bit-identical"
                );
                assert_eq!(out.frame.coverage, 1.0);
                assert!(out.frame.dead_ranks.is_empty());
            }
        }
    }
}

/// Tile-stream schedule sweep: under the virtual clock a streamed tile
/// lands after its message cost and the schedule seed orders what lands
/// together, so different seeds reorder deliveries at the owners — and
/// the image hash must not move.
#[test]
fn tile_stream_image_hash_is_schedule_independent_across_seeds() {
    let mut baseline = None;
    for seed in schedule_seeds() {
        let case = ConformanceCase {
            depth: shuffled_depth(8, 3),
            width: 80,
            height: 56,
            ..ConformanceCase::new(Method::TileStream, 8, Workload::Sparse, seed)
        };
        let out = run_case(&case);
        assert_eq!(out.max_diff, 0.0, "TSTREAM seed {seed}");
        match baseline {
            None => baseline = Some(out.image_hash),
            Some(h) => assert_eq!(
                h, out.image_hash,
                "TSTREAM seed {seed} produced a different image"
            ),
        }
    }
}

/// TSTREAM's progressive-latency offsets are read from the transport's
/// clock, so under a schedule seed they are virtual seconds and replay to
/// the bit (they were `Instant` readings, different every run).
#[test]
fn tile_stream_latency_offsets_replay_under_a_seed() {
    let case = ConformanceCase {
        width: 96,
        height: 64,
        cost: CostKind::Sp2,
        depth: shuffled_depth(4, 2),
        ..ConformanceCase::new(Method::TileStream, 4, Workload::Sparse, 17)
    };
    let offsets = || -> Vec<[Option<u64>; 2]> {
        let per_rank = run_case(&case).frame.per_rank.into_iter();
        per_rank
            .map(|stats| {
                let stats = stats.expect("healthy run");
                [stats.first_tile_seconds, stats.last_tile_seconds].map(|s| s.map(f64::to_bits))
            })
            .collect()
    };
    let first = offsets();
    assert!(
        first.iter().all(|[a, b]| a.is_some() && a <= b),
        "six tiles over four ranks: every rank owns one, got {first:?}"
    );
    assert_eq!(first, offsets());
}

/// The image hash must not depend on the schedule seed: ten different
/// delivery-order permutations, one image.
#[test]
fn image_hash_is_schedule_independent_across_seeds() {
    for method in [Method::Bsbrc, Method::Bslc, Method::Bs, Method::RadixK] {
        let mut baseline = None;
        for seed in schedule_seeds() {
            let case = ConformanceCase {
                depth: shuffled_depth(8, 3),
                ..ConformanceCase::new(method, 8, Workload::Sparse, seed)
            };
            let out = run_case(&case);
            assert!(out.max_diff < TOLERANCE, "{} seed {seed}", method.name());
            match baseline {
                None => baseline = Some(out.image_hash),
                Some(h) => assert_eq!(
                    h,
                    out.image_hash,
                    "{} seed {seed} produced a different image",
                    method.name()
                ),
            }
        }
    }
}

/// Same seed twice ⇒ identical image hash AND identical schedule path.
#[test]
fn same_seed_replays_the_same_schedule_and_image() {
    let case = ConformanceCase {
        depth: shuffled_depth(8, 4),
        ..ConformanceCase::new(Method::Bsbrc, 8, Workload::Sparse, 77)
    };
    let a = run_case(&case);
    let b = run_case(&case);
    assert_eq!(a.image_hash, b.image_hash);
    assert_eq!(
        a.frame.schedule.unwrap().digest(),
        b.frame.schedule.unwrap().digest(),
        "decision log must replay exactly"
    );
}

/// Bounded systematic mode: exhaustively permute the first choice
/// points; every explored schedule must converge to the same image.
#[test]
fn systematic_schedule_exploration_converges() {
    let case = ConformanceCase {
        depth: DepthOrder::identity(4),
        width: 16,
        height: 12,
        ..ConformanceCase::new(Method::RadixK, 4, Workload::Sparse, 0)
    };
    let explored = explore_schedules(9, 3, |spec: &ScheduleSpec| {
        let out = run_case(&ConformanceCase {
            schedule: Some(spec.clone()),
            ..case.clone()
        });
        let trace = out.frame.schedule.clone().expect("virtual trace");
        (out.image_hash, trace)
    });
    assert!(
        explored.len() > 1,
        "free cost model must expose at least one race"
    );
    let first = explored[0].1;
    for (spec, hash) in &explored {
        assert_eq!(*hash, first, "schedule {spec:?} changed the image");
    }
}

/// Paper equations (1)–(8), up to the paper's largest P: on dense,
/// sparse and banded inputs the analytic oracle matches every rank's
/// bound scan and each stage's bytes, messages, encoded pixels, run
/// codes and `over`s (every field but `peer` and `recv_rect_empty`,
/// which the run decides); every byte a rank sends is a stage's or the
/// gather's; the modeled `T_comp` over the derived counts is the run's
/// to the bit; and the dense closed forms hold exactly.
#[test]
fn paper_byte_equations_hold_on_dense_and_sparse() {
    let comp = CompCost::power2();
    let exact = |s: &StageStat| StageStat {
        peer: None,
        recv_rect_empty: false,
        ..*s
    };
    for p in [2usize, 4, 8, 16, 32, 64] {
        for workload in [Workload::Dense, Workload::Sparse, Workload::Bands] {
            for method in Method::paper_methods().into_iter().chain([Method::Bsrl]) {
                let case = ConformanceCase {
                    depth: shuffled_depth(p, 5),
                    ..ConformanceCase::new(method, p, workload, 13)
                };
                let masks = non_blank_masks(&case.images());
                let expect =
                    expected_traffic(method, &masks, case.width, &case.depth, case.cost.model())
                        .expect("swap-family method, pow2 P");
                let out = run_case(&case);
                for (rank, stats) in out.frame.per_rank.iter().enumerate() {
                    let stats = stats.as_ref().unwrap();
                    let derived = &expect.per_rank[rank];
                    let at = format!("{} {workload:?} P={p} rank {rank}", method.name());
                    let stages: Vec<StageStat> = stats.stages.iter().map(exact).collect();
                    assert_eq!(stages, derived.stages, "{at} stages");
                    assert_eq!(stats.bound_pixels, derived.bound_pixels, "{at} bound");
                    // The derived counts, charged by the same
                    // `modeled_seconds` as the run's own.
                    assert_eq!(
                        comp.modeled_seconds(stats).to_bits(),
                        comp.modeled_seconds(derived).to_bits(),
                        "{at} modeled T_comp"
                    );
                    // Every byte a rank sends is a stage's or the gather's
                    // (rank 0 is the root: its piece stays home).
                    let gather = if rank == 0 { 0 } else { expect.gather[rank] };
                    assert_eq!(
                        out.frame.traffic[rank].sent_bytes,
                        derived.sent_bytes() + gather,
                        "{at} sent in all"
                    );
                }
                // Dense closed forms: every half is fully non-blank, so
                // Eq (4) degenerates to 8 + 16·A/2^(k+1), Eq (6) (and
                // BSRL's runs over the spatial half) to 4 + 2·2 +
                // 16·A/2^(k+1) and Eq (8) to their union.
                if workload == Workload::Dense {
                    let area = 32u64 * 24;
                    for rank in &expect.per_rank {
                        for (k, stage) in rank.stages.iter().enumerate() {
                            let half = 16 * area / 2u64.pow(k as u32 + 1);
                            let expect_bytes = match method {
                                Method::Bs => half,
                                Method::Bsbr | Method::Bslc | Method::Bsrl => 8 + half,
                                Method::Bsbrc => 16 + half,
                                _ => unreachable!(),
                            };
                            let bytes = stage.sent_bytes;
                            assert_eq!(bytes, expect_bytes, "{} stage {k}", method.name());
                        }
                    }
                    // The gather's: every rank owns `a = A/P` pixels, sent
                    // as a kind tag, the domain's header (a rect, or a
                    // sequence's three words), a code count, the codes
                    // `[0, a]` split at u16::MAX, then every pixel.
                    let a = area / p as u64;
                    let header = if method == Method::Bslc { 12 } else { 8 };
                    let dense_piece = 4 + header + 4 + 4 * a.div_ceil(65535) + 16 * a;
                    assert_eq!(
                        expect.gather,
                        vec![dense_piece; p],
                        "{} gather",
                        method.name()
                    );
                }
            }
        }
    }
}

/// The traffic oracle's whole output over the grid
/// `paper_byte_equations_hold_on_dense_and_sparse` walks (P ∈ {2, …,
/// 64} × the three workloads × the paper's four methods plus BSRL, same
/// depth orders, `sp2` network): every rank's `MethodStats`, every
/// field, and its gather bytes, folded into one FNV-1a digest. Recorded
/// before the oracle read masks instead of images; never re-record to
/// pass.
#[test]
fn traffic_oracle_output_is_pinned() {
    const GOLDEN: u64 = 0xc2b8_fcff_1f37_3a14;
    let mut words = Vec::new();
    for p in [2usize, 4, 8, 16, 32, 64] {
        for workload in Workload::all() {
            for method in Method::paper_methods().into_iter().chain([Method::Bsrl]) {
                let case = ConformanceCase {
                    depth: shuffled_depth(p, 5),
                    ..ConformanceCase::new(method, p, workload, 13)
                };
                let masks = non_blank_masks(&case.images());
                let expect =
                    expected_traffic(method, &masks, case.width, &case.depth, CostModel::sp2())
                        .expect("swap-family method, pow2 P");
                for (stats, &gather) in expect.per_rank.iter().zip(&expect.gather) {
                    let timer = |t: Option<f64>| t.map_or(u64::MAX, f64::to_bits);
                    words.extend([
                        stats.comp_seconds.to_bits(),
                        stats.bound_seconds.to_bits(),
                        stats.encode_seconds.to_bits(),
                        stats.comm_seconds.to_bits(),
                        stats.bound_pixels,
                        timer(stats.first_tile_seconds),
                        timer(stats.last_tile_seconds),
                        stats.stages.len() as u64,
                    ]);
                    for s in &stats.stages {
                        words.extend([
                            s.sent_bytes,
                            s.recv_bytes,
                            s.sent_msgs,
                            s.recv_msgs,
                            s.encoded_pixels,
                            s.run_codes,
                            s.composite_ops,
                            s.recv_rect_empty as u64,
                            s.peer.map_or(u64::MAX, u64::from),
                        ]);
                    }
                    words.push(gather);
                }
            }
        }
    }
    let got = fnv_words(words);
    assert_eq!(got, GOLDEN, "oracle digest 0x{got:016x}");
}

/// The modeled `T_comm` accumulated by the runtime equals the oracle's
/// per-stage sum of `T_s + bytes · T_c` (Equation (1)'s message model).
///
/// The oracle's network constants are routed through the checked-in
/// cost-model artifact (`COST_MODEL.json`'s `sp2` preset), not a
/// hard-coded constructor: the vclock scheduler resolves its constants
/// via [`CostKind::Sp2`], so this test is also the proof that the
/// serialized preset and the scheduler can never disagree — if someone
/// edits one side, the byte-exact comparison below breaks.
#[test]
fn modeled_comm_seconds_match_traffic_oracle() {
    let text = std::fs::read_to_string("COST_MODEL.json")
        .expect("checked-in COST_MODEL.json at the repo root");
    let preset = slsvr::cost::parse_model_file(&text)
        .expect("valid model file")
        .into_iter()
        .find(|p| p.name == "sp2")
        .expect("COST_MODEL.json carries the paper-faithful sp2 preset");
    assert_eq!(
        preset.network,
        CostKind::Sp2.model(),
        "the serialized sp2 preset must equal the vclock scheduler's constants"
    );
    for method in Method::paper_methods() {
        let case = ConformanceCase {
            cost: CostKind::Sp2,
            depth: shuffled_depth(8, 6),
            ..ConformanceCase::new(method, 8, Workload::Sparse, 21)
        };
        let masks = non_blank_masks(&case.images());
        let expect =
            expected_traffic(method, &masks, case.width, &case.depth, preset.network).unwrap();
        let out = run_case(&case);
        for (rank, stats) in out.frame.per_rank.iter().enumerate() {
            let got = stats.as_ref().unwrap().comm_seconds;
            let modeled = expect.per_rank[rank].comm_seconds;
            assert!(
                (got - modeled).abs() <= 1e-12 * modeled.max(1.0),
                "{} rank {rank}: modeled {got} vs oracle {modeled}",
                method.name(),
            );
        }
    }
}

/// Lossy links + reliable delivery: the image is still exact, and the
/// run is bit-reproducible under the virtual clock (retransmissions are
/// schedule events like any other).
#[test]
fn reliable_transport_under_drops_stays_exact_and_deterministic() {
    let faults: FaultConfig = "drop=0.05,corrupt=0.02,seed=17".parse().unwrap();
    let case = ConformanceCase {
        reliable: true,
        faults: Some(faults),
        depth: shuffled_depth(4, 7),
        ..ConformanceCase::new(Method::Bsbrc, 4, Workload::Sparse, 31)
    };
    let a = run_case(&case);
    let b = run_case(&case);
    assert!(a.max_diff < TOLERANCE, "diff {}", a.max_diff);
    assert_eq!(a.frame.coverage, 1.0);
    assert_eq!(a.image_hash, b.image_hash, "lossy run must be reproducible");
    assert_eq!(
        a.frame.schedule.unwrap().digest(),
        b.frame.schedule.unwrap().digest()
    );
}

/// Killing a rank degrades coverage in the documented way: survivors
/// finish, the dead rank's pixels are missing, and the degraded image is
/// still deterministic.
#[test]
fn killed_rank_degrades_coverage_deterministically() {
    let faults: FaultConfig = "kill=1@0,seed=3".parse().unwrap();
    let case = ConformanceCase {
        reliable: true,
        faults: Some(faults),
        depth: DepthOrder::identity(4),
        ..ConformanceCase::new(Method::Bsbrc, 4, Workload::Bands, 53)
    };
    let a = run_case(&case);
    assert_eq!(a.frame.dead_ranks, vec![1]);
    assert!(a.frame.coverage < 1.0, "coverage {}", a.frame.coverage);
    assert!(
        !a.frame.missing_ranks.contains(&0),
        "rank 0 survived, image must gather"
    );
    assert!(
        a.frame.per_rank[1].is_none(),
        "killed rank reports no stats"
    );
    let b = run_case(&case);
    assert_eq!(a.image_hash, b.image_hash, "degraded image must replay");
    assert_eq!(a.frame.coverage, b.frame.coverage);
}

/// The five methods that share the binary-swap schedule.
const SWAP_FAMILY: [Method; 5] = [
    Method::Bs,
    Method::Bsbr,
    Method::Bslc,
    Method::Bsbrc,
    Method::Bsrl,
];

/// FNV-1a over a word stream.
fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Every exact (non-timing) field of every rank's compositing outcome,
/// as words: the owned piece, `bound_pixels`, the dead partners and each
/// `StageStat` — without `recv_rect_empty` and `peer` unless
/// `pair_fields`.
fn outcome_words(results: &[CompositeResult], pair_fields: bool) -> Vec<u64> {
    let mut words = Vec::new();
    for res in results {
        match &res.piece {
            OwnedPiece::Nothing => words.push(0),
            OwnedPiece::Rect(r) => {
                words.extend([1, r.x0 as u64, r.y0 as u64, r.x1 as u64, r.y1 as u64]);
            }
            OwnedPiece::Seq(s) => {
                words.extend([2, s.start as u64, s.stride as u64, s.count as u64]);
            }
            OwnedPiece::Rects(rects) => {
                words.extend([4, rects.len() as u64]);
                for r in rects {
                    words.extend([r.x0 as u64, r.y0 as u64, r.x1 as u64, r.y1 as u64]);
                }
            }
        }
        words.push(res.stats.bound_pixels);
        words.push(res.dead_partners.len() as u64);
        words.extend(res.dead_partners.iter().map(|&d| d as u64));
        words.push(res.stats.stages.len() as u64);
        for s in &res.stats.stages {
            words.extend([
                s.sent_bytes,
                s.recv_bytes,
                s.sent_msgs,
                s.recv_msgs,
                s.encoded_pixels,
                s.run_codes,
                s.composite_ops,
            ]);
            if pair_fields {
                words.extend([s.recv_rect_empty as u64, s.peer.map_or(u64::MAX, u64::from)]);
            }
        }
    }
    words
}

/// Golden counters of the binary-swap family: for every swap method ×
/// P ∈ {4, 6 (through the fold), 8} × workload, a digest over every
/// rank's owned piece, `bound_pixels`, dead partners and every exact
/// `StageStat` field. The constants were recorded at `c4e72cb`, when
/// each method still had its own stage loop; they pin the one driver to
/// the seven loops it replaced. Never re-record to pass.
#[test]
fn swap_family_stage_counters_are_pinned() {
    // Rows: method × P; columns: sparse, dense, bands.
    #[rustfmt::skip]
    const GOLDEN: [(Method, usize, [u64; 3]); 15] = [
        (Method::Bs, 4, [0x7471f44105c629dd, 0x7471f44105c629dd, 0x7471f44105c629dd]),
        (Method::Bs, 6, [0x4b5105d9dbcab441, 0x4b5105d9dbcab441, 0x83164d369cfa5dd9]),
        (Method::Bs, 8, [0x67a26a5f21c63ba1, 0x67a26a5f21c63ba1, 0x67a26a5f21c63ba1]),
        (Method::Bsbr, 4, [0x719b326e4fef7b75, 0x719b326e4fef7b75, 0x1c7485f755c03aed]),
        (Method::Bsbr, 6, [0x8bb0dba5d5c41089, 0x8bb0dba5d5c41089, 0xd0a2758c7cac55cd]),
        (Method::Bsbr, 8, [0x5f79a3a48ed0d52d, 0x5f79a3a48ed0d52d, 0xd7eaac6b298ea245]),
        (Method::Bslc, 4, [0x4d834f41d321c070, 0x214cc29ca780d4e5, 0x815394762e5ada09]),
        (Method::Bslc, 6, [0x5b7a1727534425ab, 0x98fdacdcece87f81, 0x69407040c0f76a85]),
        (Method::Bslc, 8, [0x3e9a0598e9502607, 0x1d761b1455a9464d, 0x5ada41898eb0e639]),
        (Method::Bsbrc, 4, [0x546a85d15073e5bd, 0xe74f0aacd9e8f9dd, 0xeab713595b49e95d]),
        (Method::Bsbrc, 6, [0xde3dd6a90dc3847f, 0x535e37326d3b659d, 0x44e0b8891c09778d]),
        (Method::Bsbrc, 8, [0x2413155efa35d431, 0xba8a67dfa5cac2f1, 0x3adb2563c18931b1]),
        (Method::Bsrl, 4, [0xeb031d76679a3d85, 0x9e4af1abc32ee7b5, 0xe3df2b4778a9d3ed]),
        (Method::Bsrl, 6, [0xc834d55d3409ffaf, 0x34133c1c134e75d5, 0xfea9cf7cea481b2d]),
        (Method::Bsrl, 8, [0x77f3c876d449f809, 0x2e1540ee7cfab365, 0x7909a289f9a928a9]),
    ];
    assert_stage_counters(&GOLDEN, true);
}

/// Golden counters of the tile stream, same digest and same cases as
/// above, recorded at `9e6fefe`, when every arriving tile was still
/// decoded into a `Vec<Pixel>` and folded with `under_slice`. Never
/// re-record to pass.
#[test]
fn band_and_tree_stage_counters_are_pinned() {
    #[rustfmt::skip]
    const TSTREAM: [(Method, usize, [u64; 3]); 3] = [
        (Method::TileStream, 4, [0xc53e4ac34c470efc, 0x6eaa77872aff39f0, 0x723bbca34e965e6d]),
        (Method::TileStream, 6, [0x417e532146d3094b, 0x495630f70a79604e, 0x36eed5c618e0c5c9]),
        (Method::TileStream, 8, [0x4d35e98d13241492, 0x2b8bdeca95b12cf5, 0xcfeec358b8436485]),
    ];
    assert_stage_counters(&TSTREAM, true);
}

/// Golden counters of radix-k, same cases as above, recorded at
/// `da6302c`, when RADIXK still ran its own stage loop (`radix.rs`). The
/// digest leaves out `recv_rect_empty` and `peer`: that loop never set
/// them. Never re-record to pass.
#[test]
fn radix_k_stage_counters_are_pinned() {
    #[rustfmt::skip]
    const GOLDEN: [(Method, usize, [u64; 3]); 3] = [
        (Method::RadixK, 4, [0xe0348f9c6eb8b7f5, 0xe0348f9c6eb8b7f5, 0x8c10bd85b390f245]),
        (Method::RadixK, 6, [0x717209a43f83f4ad, 0x717209a43f83f4ad, 0x6acd11b3e23cff09]),
        (Method::RadixK, 8, [0x4427051c60bbe505, 0x4427051c60bbe505, 0x3c2e86da03a4fda5]),
    ];
    assert_stage_counters(&GOLDEN, false);
}

/// At `P = 2` radix-k's round vector is `[2]`, the binary swap's without
/// a fold, over BSBR's codec: one method twice. Same image, the same
/// exact counters (`peer` and `recv_rect_empty` included) and the same
/// modeled seconds, critical path included.
#[test]
fn radix_k_at_two_ranks_is_bsbr() {
    for workload in Workload::all() {
        let [radix, bsbr] = [Method::RadixK, Method::Bsbr].map(|method| {
            let frame = pinned_frame(method, 2, workload);
            let results = pinned_composite(method, 2, workload);
            (
                fnv1a(&frame.image),
                outcome_words(&results, true),
                modeled_words(&frame),
            )
        });
        assert_eq!(radix, bsbr, "{}", workload.name());
        assert_ne!(radix.2[2], u64::MAX, "a pair round has a critical path");
    }
}

/// Every rank's result of one composite on the pinned cases' inputs
/// (32×24, `shuffled_depth(p, 3)`, free cost model).
fn pinned_composite(method: Method, p: usize, workload: Workload) -> Vec<CompositeResult> {
    let images = workload.images(p, 32, 24);
    let depth = shuffled_depth(p, 3);
    run_group(p, CostModel::free(), |ep| {
        let mut img = images[ep.rank()].clone();
        composite(method, ep, &mut img, &depth).expect("healthy run")
    })
    .results
}

/// Runs every row × workload through [`pinned_composite`] and compares
/// the [`outcome_words`] digest with the pinned one.
fn assert_stage_counters(golden: &[(Method, usize, [u64; 3])], pair_fields: bool) {
    let mut mismatches = Vec::new();
    for &(method, p, expect) in golden {
        for (workload, want) in Workload::all().into_iter().zip(expect) {
            let results = pinned_composite(method, p, workload);
            let got = fnv_words(outcome_words(&results, pair_fields));
            if got != want {
                mismatches.push(format!(
                    "{} P={p} {}: got 0x{got:016x}, pinned 0x{want:016x}",
                    method.name(),
                    workload.name()
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "stage counters moved:\n{}",
        mismatches.join("\n")
    );
}

/// Every modeled time of the frame pipeline, to the bit: for each of the
/// seven methods × P ∈ {4, 6, 8} × workload (32×24, `shuffled_depth(p,
/// 3)`, `sp2` network, `power2` compute, schedule seed 29) a digest over
/// the frame's `T_comp`, `T_comm` and critical path and every rank's
/// `comp_seconds`, `bound_seconds` and `encode_seconds` as `to_bits`
/// words (see [`modeled_words`]). The constants were recorded at `9e6fefe`, when the per-stage
/// products were written out in `CompCost::modeled_seconds` and again in
/// `virtual_completion`; they pin the shared terms to both, summation
/// order included. TSTREAM's `t_comm` sums each contributor's charges,
/// then the contributors in virtual-rank order (it summed in arrival
/// order until then); that re-recorded the three cells whose owner
/// receives from several ranks in an order other than virtual rank
/// (P = 6 dense and bands, P = 8 dense). Never re-record to pass.
#[test]
fn modeled_seconds_are_pinned_to_the_bit() {
    // Rows: method × P; columns: sparse, dense, bands.
    #[rustfmt::skip]
    const GOLDEN: [(Method, usize, [u64; 3]); 21] = [
        (Method::Bs, 4, [0xa91805db10471f51, 0xa91805db10471f51, 0xa91805db10471f51]),
        (Method::Bs, 6, [0xe059bd631ca8aa79, 0xe059bd631ca8aa79, 0xe57961fdbe47f46b]),
        (Method::Bs, 8, [0x48c46d8c6c1e20b7, 0x48c46d8c6c1e20b7, 0x48c46d8c6c1e20b7]),
        (Method::Bsbr, 4, [0x1b9bbbb423063f55, 0x1b9bbbb423063f55, 0xdb67e3a55bd05916]),
        (Method::Bsbr, 6, [0xf41ded67abf950a0, 0xf41ded67abf950a0, 0x246f71dabfa22713]),
        (Method::Bsbr, 8, [0x612fb5b2d04ccb6e, 0x612fb5b2d04ccb6e, 0x417b98b22bf91860]),
        (Method::Bslc, 4, [0x240c7e88d22f13a3, 0xc66c28d48ac8851c, 0xaf5df13b51df719e]),
        (Method::Bslc, 6, [0x2becc08e3572e6e9, 0xba17851db50d385e, 0x89980c6ce9b4e8b1]),
        (Method::Bslc, 8, [0x36c4d8a432fc5545, 0x6e20fe4e079b051b, 0xf2667ee99dc4b69d]),
        (Method::Bsbrc, 4, [0x08a0f0a0f2a58597, 0x8a92fdedf04e2a98, 0x932437a2ecc0a4a5]),
        (Method::Bsbrc, 6, [0x73926cd0575a4bfa, 0x2c57b1ed93e19f78, 0xf584585ee9444285]),
        (Method::Bsbrc, 8, [0xfe36b9deaa354e55, 0x36374c646d9129ba, 0xbcfd2f31ab3c89c4]),
        (Method::Bsrl, 4, [0x8f68914c22fabb3b, 0xc66c28d48ac8851c, 0xfdb36ea6ad4f2acd]),
        (Method::Bsrl, 6, [0xa291edecbdf9c0f0, 0xba17851db50d385e, 0x604b1b0b3c2bb70e]),
        (Method::Bsrl, 8, [0xbc2d5a28023e7ef1, 0x6e20fe4e079b051b, 0x052f7f6048b4cac7]),
        (Method::RadixK, 4, [0x61bdb82520b883f6, 0x61bdb82520b883f6, 0x4a0ce3d82a84dbaf]),
        (Method::RadixK, 6, [0xb4cc78faea2a2409, 0xb4cc78faea2a2409, 0x1cf925d7a0f63cb3]),
        (Method::RadixK, 8, [0x6ae5b61d7e351640, 0x6ae5b61d7e351640, 0x44a5f4f2f7cf343a]),
        (Method::TileStream, 4, [0xca8ccb637e3fbaa3, 0x0cd85175a35676c5, 0x8521003a8849f56d]),
        (Method::TileStream, 6, [0xc21035b44d60613b, 0xea77d3abb21dab23, 0xf355e18ef102da8b]),
        (Method::TileStream, 8, [0x9f8d0482eacf6177, 0x1561de871bec2726, 0xa89a3124b3120a0a]),
    ];
    let mut mismatches = Vec::new();
    for &(method, p, expect) in &GOLDEN {
        for (workload, want) in Workload::all().into_iter().zip(expect) {
            let got = fnv_words(modeled_words(&pinned_frame(method, p, workload)));
            if got != want {
                mismatches.push(format!(
                    "{} P={p} {}: got 0x{got:016x}, pinned 0x{want:016x}",
                    method.name(),
                    workload.name()
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "modeled seconds moved:\n{}",
        mismatches.join("\n")
    );
}

/// One frame of the pinned cases through `Experiment::run` (32×24,
/// `shuffled_depth(p, 3)`, `sp2` network, `power2` compute, schedule
/// seed 29).
fn pinned_frame(method: Method, p: usize, workload: Workload) -> Outcome {
    let images = workload.images(p, 32, 24);
    Experiment::from_subimages(pinned_config(p), images, shuffled_depth(p, 3)).run(method)
}

fn pinned_config(p: usize) -> ExperimentConfig {
    ExperimentConfig {
        image_size: 32,
        processors: p,
        schedule_seed: Some(29),
        ..Default::default()
    }
}

/// A frame's modeled seconds as `to_bits` words: the maxima over ranks
/// of `comp_seconds` and `comm_seconds` (`T_comp`, `T_comm`), the
/// latest completion `virtual_completion` gives under the pinned
/// config's models (`u64::MAX` for a schedule it does not cover), then
/// every rank's `comp_seconds`, `bound_seconds` and `encode_seconds`.
fn modeled_words(frame: &Outcome) -> Vec<u64> {
    let per_rank: Vec<MethodStats> = frame.per_rank.iter().flatten().cloned().collect();
    assert_eq!(
        per_rank.len(),
        frame.per_rank.len(),
        "a pinned frame is healthy"
    );
    let config = pinned_config(per_rank.len());
    let CompTiming::Modeled(comp) = config.comp_timing else {
        unreachable!("the pinned frames model T_comp");
    };
    let max = |f: fn(&MethodStats) -> f64| per_rank.iter().map(f).fold(0.0, f64::max);
    let critical_path = virtual_completion(&per_rank, &config.cost, &comp)
        .map(|vt| vt.into_iter().fold(0.0, f64::max));
    let mut words = vec![
        max(|s| s.comp_seconds).to_bits(),
        max(|s| s.comm_seconds).to_bits(),
        critical_path.map_or(u64::MAX, f64::to_bits),
    ];
    for s in &per_rank {
        words.extend([s.comp_seconds, s.bound_seconds, s.encode_seconds].map(f64::to_bits));
    }
    words
}

/// The transport modes `vr-comm` runs a rank through, as conformance
/// cases under the SP2 cost model at P = 4 and P = 6 (through the fold):
/// the stop-and-wait ARQ healing each fault class and a killed rank, the
/// raw wire under a kill and under delays, and TSTREAM (any-source
/// receives) raw and over lossy reliable links. Each
/// case carries its fault spec in the corpus grammar.
fn transport_cases() -> Vec<(ConformanceCase, Option<&'static str>)> {
    let mut cases = Vec::new();
    for p in [4usize, 6] {
        let sp2 = |method, seed| ConformanceCase {
            cost: CostKind::Sp2,
            depth: shuffled_depth(p, 5),
            ..ConformanceCase::new(method, p, Workload::Sparse, seed)
        };
        let faulty = |case: ConformanceCase, reliable, spec: &'static str| {
            let case = ConformanceCase {
                reliable,
                faults: Some(spec.parse().expect("valid fault spec")),
                ..case
            };
            (case, Some(spec))
        };
        for spec in [
            "drop=0.1,seed=5",
            "corrupt=0.1,seed=4",
            "dup=0.1,seed=7",
            // Longer than the 10 ms ack timeout: spurious retransmits.
            "delay=0.2,delay_ms=15,seed=8",
            "kill=2@3,seed=9",
        ] {
            cases.push(faulty(sp2(Method::Bsbrc, 71), true, spec));
        }
        cases.push(faulty(sp2(Method::Bsbrc, 73), false, "kill=3@2,seed=9"));
        cases.push(faulty(
            sp2(Method::Bsbrc, 73),
            false,
            "delay=0.2,delay_ms=15,seed=8",
        ));
        // 80×56 ⇒ a 3×2 grid of 32-px tiles spread over the owners.
        let tstream = ConformanceCase {
            width: 80,
            height: 56,
            ..sp2(Method::TileStream, 79)
        };
        cases.push((tstream.clone(), None));
        cases.push(faulty(tstream, true, "drop=0.1,seed=5"));
    }
    cases
}

/// Golden transport counters: for every case of [`transport_cases`], one
/// digest over every rank's full `TrafficStats`, the dead ranks, the
/// final virtual clock and the schedule-decision digest. The constants
/// were recorded at `05238aa`, when `Endpoint` still held each wait loop
/// once per clock; they pin the one transport surface to the twin loops
/// it replaced. Re-recorded at `6656836`, when the gather went
/// sparse: every gather payload shrank, which moves the ranks' byte
/// counts and, under `sp2`, the virtual clock and the decisions, while
/// [`transport_stage_counters_are_pinned`] held. The two raw TSTREAM
/// cases (the 8th and the 17th) were re-recorded again when the tile
/// sends lost their modeled render stamps: their tiles land after their
/// message cost alone, which moves the final virtual clock and the
/// decisions and nothing else (the same two runs as the corpus's raw
/// TSTREAM lines). Never re-record to pass.
#[test]
fn transport_counters_are_pinned() {
    #[rustfmt::skip]
    const GOLDEN: [u64; 18] = [
        0x70f836a5d254b1b7, 0xe2b435d14df063dc, 0x7ba4c330f34066a7,
        0x5f1ee39373303dc2, 0xdf385d2a284bf278, 0x72a1c9afd768a818,
        0xc78d34b3f3598a21, 0x5bfe07e5d139f0de, 0x42c71a08ab85b5f2,
        0x12289b916b92558e, 0x4565f6875dd7788d, 0xb9d06e87a48f98aa,
        0x9fbbf9c8afde8756, 0xed9e29e9f40fd1d7, 0x2a215cf9359baef8,
        0x816061cd2682c80e, 0xab2e4d1e4f60fc52, 0x71a997fbbbe9c48b,
    ];
    let cases = transport_cases();
    assert_eq!(cases.len(), GOLDEN.len());
    let mut mismatches = Vec::new();
    for ((case, spec), want) in cases.iter().zip(GOLDEN) {
        let out = run_case(case);
        let trace = out.frame.schedule.as_ref().expect("virtual run");
        let mut words = Vec::new();
        for s in &out.frame.traffic {
            words.extend(traffic_words(s));
        }
        words.push(out.frame.dead_ranks.len() as u64);
        words.extend(out.frame.dead_ranks.iter().map(|&d| d as u64));
        words.push(trace.virtual_seconds.to_bits());
        words.push(trace.digest());
        let got = fnv_words(words);
        if got != want {
            mismatches.push(format!(
                "{} P={} reliable={} faults={}: got 0x{got:016x}, pinned 0x{want:016x}",
                case.method.name(),
                case.p,
                case.reliable,
                spec.unwrap_or("-"),
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "transport counters moved:\n{}",
        mismatches.join("\n")
    );
}

/// The compositing stages' traffic of every rank, as words: per rank its
/// stage count, then each stage's `sent_bytes`, `recv_bytes`, `sent_msgs`
/// and `recv_msgs`, then the rank's `peak_pixel_buffer_bytes` (0 on every
/// rank since no codec stages pixels). A rank
/// with no stats (killed mid-composite) is `u64::MAX`. The gather is
/// not a stage, so nothing it sends reaches these words.
fn stage_traffic_words<'a>(
    ranks: impl IntoIterator<Item = (Option<&'a MethodStats>, &'a TrafficStats)>,
) -> Vec<u64> {
    let mut words = Vec::new();
    for (stats, traffic) in ranks {
        match stats {
            None => words.push(u64::MAX),
            Some(stats) => {
                words.push(stats.stages.len() as u64);
                for s in &stats.stages {
                    words.extend([s.sent_bytes, s.recv_bytes, s.sent_msgs, s.recv_msgs]);
                }
            }
        }
        words.push(traffic.peak_pixel_buffer_bytes);
    }
    words
}

/// The stage-only twin of [`transport_counters_are_pinned`]: for every
/// case of [`transport_cases`], one [`stage_traffic_words`] digest. It
/// leaves out the gather, so it holds Equations (2)/(4)/(6)/(8) traffic
/// under each transport mode while the gather's payload may change.
/// Recorded at `a9606ed`. Never re-record to pass.
#[test]
fn transport_stage_counters_are_pinned() {
    #[rustfmt::skip]
    const GOLDEN: [u64; 18] = [
        0x78423f3a4e41b045, 0x78423f3a4e41b045, 0x78423f3a4e41b045,
        0x78423f3a4e41b045, 0x91cc5aae65de67a6, 0xa87de85a523d4544,
        0x78423f3a4e41b045, 0x4d3cccd5e1228b61, 0x4d3cccd5e1228b61,
        0x3951408329cc9d55, 0x3951408329cc9d55, 0x3951408329cc9d55,
        0x3951408329cc9d55, 0xa3962bc130d4a44b, 0xdb09470f36b6257c,
        0x3951408329cc9d55, 0x3dfa1a951c4634fb, 0x3dfa1a951c4634fb,
    ];
    let cases = transport_cases();
    assert_eq!(cases.len(), GOLDEN.len());
    let got: Vec<u64> = cases
        .iter()
        .map(|(case, _)| {
            let out = run_case(case);
            fnv_words(stage_traffic_words(
                out.frame
                    .per_rank
                    .iter()
                    .map(Option::as_ref)
                    .zip(&out.frame.traffic),
            ))
        })
        .collect();
    assert_eq!(got, GOLDEN, "stage traffic moved: {got:#018x?}");
}

/// The stage-only twin of [`paper_method_frame_traffic_is_pinned`], over
/// the same frames: per paper method, one [`stage_traffic_words`] digest
/// over P ∈ {4, 6, 8} × workload. The gather is left out, so this holds
/// Equations (2)/(4)/(6)/(8) traffic while the gather's payload may
/// change. Recorded at `a9606ed`. BSLC's digest was re-recorded when
/// its pixel staging went and its watermark words fell to 0: the new
/// value is the one `de18778` gives with those words read as 0, so no
/// byte or message moved. Never re-record to pass.
#[test]
fn paper_method_stage_traffic_is_pinned() {
    #[rustfmt::skip]
    const GOLDEN: [u64; 4] =
        [0x3252f99bf573eac5, 0x6e305054e627f4f5, 0x4dbf313d5887e5dd, 0x7849d8a4d6999479];
    let got = Method::paper_methods().map(|method| {
        fnv_words([4, 6, 8].into_iter().flat_map(|p| {
            Workload::all().into_iter().flat_map(move |workload| {
                let frame = pinned_frame(method, p, workload);
                stage_traffic_words(
                    frame
                        .per_rank
                        .iter()
                        .map(Option::as_ref)
                        .zip(&frame.traffic),
                )
            })
        }))
    });
    assert_eq!(got, GOLDEN, "stage traffic moved: {got:#018x?}");
}

/// Per paper method, over P ∈ {4, 6, 8} × workload of [`pinned_frame`]: the
/// bytes all ranks sent (gather included) and the worst rank's
/// `peak_pixel_buffer_bytes`. Recorded at `d53a639`; re-recorded at
/// `6656836`, when the gather went sparse and its bytes fell,
/// while [`paper_method_stage_traffic_is_pinned`] held. BSLC's digest
/// was re-recorded when its pixel staging went and its watermark word
/// fell to 0 (it was the only method that raised it): the new value is
/// the one `de18778` gives with that word read as 0. Never re-record
/// to pass.
#[test]
fn paper_method_frame_traffic_is_pinned() {
    #[rustfmt::skip]
    const GOLDEN: [u64; 4] =
        [0xa99c0f87aabcab0a, 0x2387d3db35a2c870, 0x8e3e2b71cc594a92, 0x1aa67b82fa775286];
    let got = Method::paper_methods().map(|method| {
        fnv_words([4, 6, 8].into_iter().flat_map(|p| {
            Workload::all().into_iter().flat_map(move |workload| {
                let frame = pinned_frame(method, p, workload);
                let sent = frame.traffic.iter().map(|t| t.sent_bytes).sum();
                let peak = frame.traffic.iter().map(|t| t.peak_pixel_buffer_bytes);
                [sent, peak.max().unwrap_or(0)]
            })
        }))
    });
    assert_eq!(got, GOLDEN, "frame traffic moved: {got:#018x?}");
}

/// A rank killed *after* its last stage send (BSBRC, P = 4: rank 2 dies
/// at op 3, the gather). Raw, that message is still in flight when its
/// partner — which found rank 2 dead at its own send — moves on, so the
/// gather is the first to read that link.
const LATE_KILL: &str = "kill=2@3,seed=9";

fn late_kill_case(reliable: bool) -> ConformanceCase {
    ConformanceCase {
        cost: CostKind::Sp2,
        depth: shuffled_depth(4, 5),
        reliable,
        faults: Some(LATE_KILL.parse().expect("valid fault spec")),
        ..ConformanceCase::new(Method::Bsbrc, 4, Workload::Sparse, 73)
    }
}

/// The tolerant gather skips the dead rank's stale stage message: raw
/// and reliable delivery lose the same piece. `Experiment::run` reports
/// the same frame ([`a_link_that_gives_up_costs_a_hole_not_the_frame`]).
#[test]
fn late_kill_loses_one_piece_on_the_raw_wire_as_on_the_reliable_one() {
    for reliable in [false, true] {
        let case = late_kill_case(reliable);
        let out = run_case(&case);
        assert_eq!(out.frame.dead_ranks, vec![2], "reliable={reliable}");
        assert_eq!(out.frame.missing_ranks, vec![2], "reliable={reliable}");
        assert_eq!(out.frame.coverage, 0.75, "reliable={reliable}");
        assert!(pipeline_frame(&case).is_degraded(), "reliable={reliable}");
    }
}

/// The pipeline's config for `case`: its rank count, cost model,
/// faults, transport and schedule seed (a case's schedule prefix has no
/// config field; every case here has none).
fn pipeline_config(case: &ConformanceCase) -> ExperimentConfig {
    ExperimentConfig {
        image_size: case.width,
        processors: case.p,
        cost: case.cost.model(),
        faults: case.faults,
        reliable: case.reliable,
        schedule_seed: case.schedule.as_ref().map(|s| s.seed),
        ..Default::default()
    }
}

/// `case`'s frame through `Experiment::run`, the path `slsvr render`,
/// the daemon and the benchmark take.
fn pipeline_frame(case: &ConformanceCase) -> Outcome {
    let exp = Experiment::from_subimages(pipeline_config(case), case.images(), case.depth.clone());
    exp.run(case.method)
}

/// Every field of a rank's stats as words. Under the default modeled
/// `comp_timing` the three compute timers are derived from the counts,
/// and the tile times are read off the virtual clock, so every word is
/// counted, none measured.
fn stats_words(s: &MethodStats) -> Vec<u64> {
    let mut words = vec![
        s.comp_seconds.to_bits(),
        s.bound_seconds.to_bits(),
        s.encode_seconds.to_bits(),
        s.comm_seconds.to_bits(),
        s.bound_pixels,
        s.stages.len() as u64,
    ];
    for st in &s.stages {
        words.extend([
            st.sent_bytes,
            st.recv_bytes,
            st.sent_msgs,
            st.recv_msgs,
            st.encoded_pixels,
            st.run_codes,
            st.composite_ops,
            u64::from(st.recv_rect_empty),
            st.peer.map_or(u64::MAX, u64::from),
        ]);
    }
    for t in [s.first_tile_seconds, s.last_tile_seconds] {
        words.push(t.map_or(u64::MAX, f64::to_bits));
    }
    words
}

/// Every field of a rank's `TrafficStats` as words.
fn traffic_words(s: &TrafficStats) -> [u64; 11] {
    [
        s.sent_messages,
        s.sent_bytes,
        s.recv_messages,
        s.recv_bytes,
        s.modeled_comm_seconds.to_bits(),
        s.retransmits,
        s.retransmit_bytes,
        s.corruptions_detected,
        s.ack_timeouts,
        s.overhead_bytes,
        s.peak_pixel_buffer_bytes,
    ]
}

/// Every case of [`transport_cases`] through `Experiment::run` rather
/// than `run_case`, as one digest: per case the image's FNV-1a, every
/// rank's stats and `TrafficStats`, the dead and missing ranks and the
/// coverage bits. It holds what the pipeline's runner does under each
/// transport mode, so the runner can change hands without a number
/// moving. Never re-record to pass.
#[test]
fn transport_cases_through_the_pipeline_are_pinned() {
    const GOLDEN: u64 = 0x2b70b2c7086904d6;
    let mut words = Vec::new();
    for (case, _) in transport_cases() {
        let frame = pipeline_frame(&case);
        words.push(fnv1a(&frame.image));
        // A rank without stats reads as the default stats, which the
        // pipeline filled in when these words were recorded.
        for s in &frame.per_rank {
            words.extend(stats_words(s.as_ref().unwrap_or(&MethodStats::default())));
        }
        for t in &frame.traffic {
            words.extend(traffic_words(t));
        }
        for ranks in [&frame.dead_ranks, &frame.missing_ranks] {
            words.push(ranks.len() as u64);
            words.extend(ranks.iter().map(|&r| r as u64));
        }
        words.push(frame.coverage.to_bits());
    }
    let got = fnv_words(words);
    assert_eq!(got, GOLDEN, "pipeline frames moved: 0x{got:016x}");
}

/// A raw BSBRC frame at P = 4 whose corruptions (30 %) damage the
/// header of a stage message from rank 2 to rank 3, which refuses it:
/// a `Malformed` failure, not a kill.
fn failing_rank_case() -> ConformanceCase {
    ConformanceCase {
        cost: CostKind::Sp2,
        faults: Some("corrupt=0.3,seed=18".parse().expect("valid fault spec")),
        ..ConformanceCase::new(Method::Bsbrc, 4, Workload::Sparse, 7)
    }
}

/// A rank's failure is data in the runner's result. `run_case` reports
/// the rank's typed error; the rank closes at once rather than lingering,
/// so the root's gather finds it gone and assembles every other piece.
/// `Experiment::run` reports the same frame
/// ([`a_link_that_gives_up_costs_a_hole_not_the_frame`]).
#[test]
fn a_failed_rank_is_reported_and_the_root_assembles_the_rest() {
    let case = failing_rank_case();
    let out = run_case(&case);
    let [(rank, error)] = &out.frame.failures[..] else {
        panic!("one failed rank expected, got {:?}", out.frame.failures);
    };
    assert_eq!(*rank, 3);
    assert!(
        matches!(error, CompositeError::Malformed { from: 2, .. }),
        "{error}"
    );
    assert!(out.frame.dead_ranks.is_empty());
    // The root assembles every other piece.
    assert_eq!(out.frame.missing_ranks, vec![3]);
    assert!(
        out.frame.coverage > 0.0 && out.frame.coverage < 1.0,
        "{}",
        out.frame.coverage
    );
}

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/conformance_corpus")
}

/// Every checked-in regression entry replays to the exact image hash
/// and the exact schedule-decision digest it was recorded with.
#[test]
fn corpus_entries_replay_exactly() {
    let dir = corpus_dir();
    let mut checked = 0usize;
    for file in std::fs::read_dir(&dir).expect("tests/conformance_corpus must exist") {
        let path = file.unwrap().path();
        if path.extension().is_none_or(|e| e != "txt") {
            continue;
        }
        let contents = std::fs::read_to_string(&path).unwrap();
        for entry in parse_corpus(&contents).unwrap_or_else(|e| panic!("{path:?}: {e}")) {
            entry
                .verify()
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            checked += 1;
        }
    }
    assert!(
        checked >= 35,
        "corpus unexpectedly small ({checked} entries)"
    );
}

/// The method set is stated once, in `Method::all()`: every method it
/// names has at least one corpus line.
#[test]
fn corpus_names_every_method() {
    let mut corpus = String::new();
    for file in std::fs::read_dir(corpus_dir()).expect("tests/conformance_corpus must exist") {
        let path = file.unwrap().path();
        if path.extension().is_some_and(|e| e == "txt") {
            corpus += &std::fs::read_to_string(&path).unwrap();
        }
    }
    for method in Method::all() {
        let prefix = format!("method={} ", method.name());
        assert!(
            corpus.lines().any(|line| line.starts_with(&prefix)),
            "no corpus line for {}",
            method.name()
        );
    }
}

/// Long-running randomized schedule fuzz (nightly CI): fresh seeds, and
/// any failure is persisted as a ready-to-commit corpus line.
#[test]
#[ignore = "long fuzz; run nightly with fresh SLSVR_FUZZ_BASE"]
fn long_schedule_fuzz_persists_failures() {
    let count: u64 = std::env::var("SLSVR_FUZZ_COUNT")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(60);
    let base: u64 = std::env::var("SLSVR_FUZZ_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let out_path = std::env::var("SLSVR_FUZZ_OUT")
        .unwrap_or_else(|_| "target/conformance-failures.txt".to_owned());
    let methods = Method::all();
    let mut failures = Vec::new();
    for i in 0..count {
        let seed = base.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
        let method = methods[(seed % methods.len() as u64) as usize];
        let p = [2usize, 3, 4, 5, 8][(seed / 7 % 5) as usize];
        let workload = Workload::all()[(seed / 11 % 3) as usize];
        let case = ConformanceCase {
            depth: shuffled_depth(p, (seed % 1000) as usize),
            ..ConformanceCase::new(method, p, workload, seed)
        };
        let out = run_case(&case);
        if out.max_diff >= TOLERANCE || out.frame.coverage < 1.0 || !out.frame.dead_ranks.is_empty()
        {
            let entry = CorpusEntry::from_run(&case, None, &out);
            failures.push((entry, out.max_diff, out.frame.coverage));
        }
    }
    if !failures.is_empty() {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&out_path)
            .expect("open fuzz failure log");
        for (entry, diff, coverage) in &failures {
            writeln!(f, "# diff={diff} coverage={coverage}").unwrap();
            writeln!(f, "{entry}").unwrap();
        }
        panic!(
            "{} fuzz case(s) failed; corpus lines appended to {out_path}",
            failures.len()
        );
    }
}

/// Regenerates the checked-in corpus (run manually with
/// `cargo test --test conformance regenerate_corpus -- --ignored --nocapture`
/// and paste the output into `tests/conformance_corpus/regressions.txt`).
#[test]
#[ignore = "generator, not a check"]
fn regenerate_corpus() {
    let cases: Vec<(ConformanceCase, Option<&str>)> = vec![
        (
            ConformanceCase {
                depth: shuffled_depth(8, 3),
                ..ConformanceCase::new(Method::Bsbrc, 8, Workload::Sparse, 42)
            },
            None,
        ),
        (
            ConformanceCase {
                depth: shuffled_depth(8, 3),
                ..ConformanceCase::new(Method::Bslc, 8, Workload::Dense, 42)
            },
            None,
        ),
        (
            ConformanceCase {
                cost: CostKind::Sp2,
                depth: shuffled_depth(4, 9),
                ..ConformanceCase::new(Method::Bsbr, 4, Workload::Bands, 7)
            },
            None,
        ),
        (
            ConformanceCase {
                depth: shuffled_depth(6, 1),
                ..ConformanceCase::new(Method::RadixK, 6, Workload::Sparse, 101)
            },
            None,
        ),
        (
            ConformanceCase {
                reliable: true,
                faults: Some("drop=0.05,corrupt=0.02,seed=17".parse().unwrap()),
                depth: shuffled_depth(4, 7),
                ..ConformanceCase::new(Method::Bsbrc, 4, Workload::Sparse, 31)
            },
            Some("drop=0.05,corrupt=0.02,seed=17"),
        ),
        (
            ConformanceCase {
                reliable: true,
                faults: Some("kill=1@0,seed=3".parse().unwrap()),
                depth: DepthOrder::identity(4),
                ..ConformanceCase::new(Method::Bsbrc, 4, Workload::Bands, 53)
            },
            Some("kill=1@0,seed=3"),
        ),
    ];
    for (case, faults_spec) in &cases {
        let out = run_case(case);
        println!("{}", CorpusEntry::from_run(case, *faults_spec, &out));
    }
    // One line per swap method at P = 8 (shuffled depth) and at P = 6
    // (through the fold), under the SP2 cost model.
    for p in [8usize, 6] {
        for method in SWAP_FAMILY {
            let case = ConformanceCase {
                cost: CostKind::Sp2,
                depth: shuffled_depth(p, 3),
                ..ConformanceCase::new(method, p, Workload::Sparse, 61)
            };
            println!("{}", CorpusEntry::from_run(&case, None, &run_case(&case)));
        }
    }
    for (case, faults_spec) in &transport_cases() {
        let out = run_case(case);
        println!("{}", CorpusEntry::from_run(case, *faults_spec, &out));
    }
    let case = late_kill_case(false);
    let line = CorpusEntry::from_run(&case, Some(LATE_KILL), &run_case(&case));
    println!("{line}");
}

/// The grid on which a reliable link running out of retries used to
/// cost frames: every method at P = 4, sparse, reliable, `sp2`, schedule
/// seed 7, 50–70 % drops, fault seeds 0–11 — 252 cases, including the
/// exhaustion `drop=0.6,seed=39`, where rank 0's send to rank 2 gives up.
fn exhaustion_grid() -> Vec<ConformanceCase> {
    let mut cases = Vec::new();
    for method in Method::all() {
        for drop in ["0.5", "0.6", "0.7"] {
            for seed in 0..12 {
                let spec = format!("drop={drop},seed={seed}");
                cases.push(ConformanceCase {
                    reliable: true,
                    cost: CostKind::Sp2,
                    faults: Some(spec.parse().expect("valid fault spec")),
                    ..ConformanceCase::new(method, 4, Workload::Sparse, 7)
                });
            }
        }
    }
    cases
}

/// A dead root: BSBRC at P = 4 whose rank 0 dies at its first
/// operation, so nobody assembles the frame.
fn dead_root_case() -> ConformanceCase {
    ConformanceCase {
        cost: CostKind::Sp2,
        faults: Some("kill=0@0,seed=0".parse().expect("valid fault spec")),
        ..ConformanceCase::new(Method::Bsbrc, 4, Workload::Sparse, 7)
    }
}

/// A rank's stats with its compute timers zeroed: `Experiment::run`
/// models them from the counts, `run_case` measures them.
fn counts(stats: &MethodStats) -> MethodStats {
    MethodStats {
        comp_seconds: 0.0,
        bound_seconds: 0.0,
        encode_seconds: 0.0,
        ..stats.clone()
    }
}

/// The facts on which one frame's two reports disagree: `run_case`'s
/// and `Experiment::run`'s. Compared are the image (FNV-1a), the
/// coverage bits, the dead and missing ranks, the lost partners, the
/// failures, the traffic and each rank's [`counts`].
fn disagreements(out: &Outcome, frame: &Outcome) -> Vec<&'static str> {
    let per_rank =
        |o: &Outcome| -> Vec<_> { o.per_rank.iter().map(|s| s.as_ref().map(counts)).collect() };
    let facts = [
        ("image", fnv1a(&out.image) == fnv1a(&frame.image)),
        (
            "coverage",
            out.coverage.to_bits() == frame.coverage.to_bits(),
        ),
        ("dead_ranks", out.dead_ranks == frame.dead_ranks),
        ("missing_ranks", out.missing_ranks == frame.missing_ranks),
        ("lost_partners", out.lost_partners == frame.lost_partners),
        ("failures", out.failures == frame.failures),
        ("traffic", out.traffic == frame.traffic),
        ("per_rank", per_rank(out) == per_rank(frame)),
    ];
    facts
        .into_iter()
        .filter(|&(_, agree)| !agree)
        .map(|(fact, _)| fact)
        .collect()
}

/// A link that gives up is a closed link: its receiver sees the sender
/// hang up, as it would a dead peer, instead of waiting out its deadline,
/// and the frame reports the partner it composited without. So on the
/// exhaustion grid every frame has an image and no failed rank, and is
/// either right (within `TOLERANCE` of the reference) or reports its
/// loss: a non-empty lost-partner list, and `is_degraded`.
///
/// The same loop is the witness that `run_case` and `Experiment::run`
/// report one frame alike ([`disagreements`]): over the grid, every
/// [`transport_cases`] case, both [`late_kill_case`]s,
/// [`failing_rank_case`] and [`dead_root_case`].
#[test]
fn a_link_that_gives_up_costs_a_hole_not_the_frame() {
    let grid = exhaustion_grid().into_iter().map(|case| {
        let faults = case.faults.expect("a fault plan");
        let spec = format!("drop={},seed={}", faults.drop, faults.seed);
        (case, spec, true)
    });
    let others = transport_cases()
        .into_iter()
        .map(|(case, spec)| (case, spec.unwrap_or("-").to_string()))
        .chain([
            (late_kill_case(false), LATE_KILL.to_string()),
            (late_kill_case(true), LATE_KILL.to_string()),
            (failing_rank_case(), "corrupt=0.3,seed=18".to_string()),
            (dead_root_case(), "kill=0@0,seed=0".to_string()),
        ])
        .map(|(case, spec)| (case, spec, false));
    let (mut wrong, mut differences) = (Vec::new(), Vec::new());
    for (case, spec, on_grid) in grid.chain(others) {
        let name = format!(
            "{} P={} reliable={} {spec}",
            case.method.name(),
            case.p,
            case.reliable
        );
        let out = run_case(&case);
        let differ = disagreements(&out.frame, &pipeline_frame(&case));
        if !differ.is_empty() {
            differences.push(format!("{name}: {}", differ.join(", ")));
        }
        if !on_grid {
            continue;
        }
        let frame = &out.frame;
        let lost = frame.lost_partners.iter().any(|l| !l.is_empty());
        if !frame.failures.is_empty() || frame.missing_ranks.contains(&0) {
            wrong.push(format!("{name}: failed {:?}", frame.failures));
        } else if out.max_diff > TOLERANCE && !(lost && frame.is_degraded()) {
            wrong.push(format!("{name}: off by {} unreported", out.max_diff));
        }
    }
    assert!(
        differences.is_empty(),
        "the two reports of one frame differ:\n{}",
        differences.join("\n")
    );
    assert!(
        wrong.is_empty(),
        "{} cases:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}

/// The short-deadline grid: Cube 64² (paper dims), BSBRC, reliable,
/// schedule seed 17, a 100 ms receive deadline, P in {2, 4, 8, 16},
/// drop in {0.3, 0.5}, fault seeds 0–15 — 128 frames.
fn short_deadline_grid() -> Vec<(usize, &'static str)> {
    [2usize, 4, 8, 16]
        .into_iter()
        .flat_map(|p| ["0.3", "0.5"].map(|drop| (p, drop)))
        .collect()
}

/// A reliable link's retry schedule fits inside half the receive
/// deadline, so a lossy link gives up and closes before any receiver's
/// deadline expires: the frame degrades instead of failing. Every frame
/// on the grid that is not degraded equals the fault-free composite bit
/// for bit.
#[test]
fn a_short_deadline_degrades_a_frame_never_fails_it() {
    let mut failed = Vec::new();
    let (mut right, mut degraded) = (0, 0);
    let mut wrong = Vec::new();
    let mut prepared = None;
    for (p, drop) in short_deadline_grid() {
        let config = ExperimentConfig {
            dataset: DatasetKind::Cube,
            image_size: 64,
            processors: p,
            method: Method::Bsbrc,
            reliable: true,
            recv_deadline: Some(std::time::Duration::from_millis(100)),
            schedule_seed: Some(17),
            ..Default::default()
        };
        if prepared.as_ref().is_none_or(|(q, _, _)| *q != p) {
            let exp = Experiment::prepare(&config);
            let clean = fnv1a(&exp.run(Method::Bsbrc).image);
            prepared = Some((p, exp, clean));
        }
        let (_, exp, clean) = prepared.as_ref().expect("prepared above");
        let mut cell = 0;
        for seed in 0..16 {
            let spec = format!("drop={drop},seed={seed}");
            let faulty = ExperimentConfig {
                faults: Some(spec.parse().expect("valid fault spec")),
                ..config
            };
            let run =
                Experiment::from_subimages(faulty, exp.subimages().to_vec(), exp.depth().clone());
            let out = run.run(Method::Bsbrc);
            if !out.failures.is_empty() {
                cell += 1;
            } else if out.is_degraded() {
                degraded += 1;
            } else if fnv1a(&out.image) == *clean {
                right += 1;
            } else {
                wrong.push(format!("P={p} {spec}: not degraded, yet differs"));
            }
        }
        failed.push(cell);
    }
    println!("short-deadline grid: failed {failed:?}, {right} right, {degraded} degraded");
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
    assert_eq!(failed, [0; 8], "failed frames per (P, drop) cell");
}
