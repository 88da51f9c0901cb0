//! Golden rendered pixels.
//!
//! Every constant below was recorded at commit `9bf801e` (PR 13), the
//! parent of the change that rewrote `Volume::sample`/`gradient`, and
//! must never be re-recorded to make a renderer change pass: the
//! conformance corpus composites synthetic subimages and the render
//! proptests compare the accelerated integrator against the naive one,
//! so this table is the only place the *values* of rendered pixels are
//! pinned.
//!
//! One constant covers one (dataset, P, pose): the FNV-1a digest of every
//! rank's subimage in rank order, then of the BSBRC-composited frame,
//! folded with [`fold`]. Every `(macrocell, simd_lanes, pool width)`
//! variant must reproduce it, because the accelerated and threaded paths
//! are bit-identical to the naive integrator by contract.

use std::sync::Arc;

use slsvr::compositing::Method;
use slsvr::image::checksum::fnv1a;
use slsvr::image::Image;
use slsvr::system::{Experiment, ExperimentConfig, RenderPool};
use slsvr::volume::{Dataset, DatasetKind};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Two oblique poses plus two axis-aligned ones, whose rays put samples
/// exactly on integer voxel coordinates.
const POSES: [(f32, f32); 4] = [(20.0, 30.0), (-12.5, 133.0), (0.0, 0.0), (0.0, 90.0)];
const PROCS: [usize; 2] = [4, 16];
/// `(macrocell, simd_lanes, pool width)`; macrocell 0 is the naive
/// integrator.
const VARIANTS: [(usize, usize, usize); 5] =
    [(0, 1, 1), (0, 4, 1), (8, 1, 1), (8, 4, 1), (8, 4, 3)];

fn fold(h: u64, digest: u64) -> u64 {
    (h ^ digest).wrapping_mul(FNV_PRIME)
}

/// Renders `config` on a render pool `threads` wide.
fn prepare(config: &ExperimentConfig, threads: usize) -> Experiment {
    let dataset = Arc::new(Dataset::with_dims(config.dataset, config.resolved_dims()));
    Experiment::prepare_with_dataset_pool(config, dataset, Some(&RenderPool::new(threads)))
}

fn digest(config: &ExperimentConfig, threads: usize) -> u64 {
    let exp = prepare(config, threads);
    let ranks = exp
        .subimages()
        .iter()
        .fold(FNV_OFFSET, |h, img| fold(h, fnv1a(img)));
    fold(ranks, fnv1a(&exp.run(Method::Bsbrc).image))
}

/// Renders the whole grid for one dataset and compares it with
/// `golden[P index][pose index]`, reporting every mismatch at once in
/// the table's own source form.
fn check(dataset: DatasetKind, dims: [usize; 3], size: u16, golden: [[u64; 4]; 2]) {
    let mut got = golden;
    let mut mismatches = Vec::new();
    for (pi, &processors) in PROCS.iter().enumerate() {
        for (qi, &(rot_x_deg, rot_y_deg)) in POSES.iter().enumerate() {
            for (macrocell, simd_lanes, threads) in VARIANTS {
                let config = ExperimentConfig {
                    dataset,
                    image_size: size,
                    processors,
                    rot_x_deg,
                    rot_y_deg,
                    volume_dims: Some(dims),
                    macrocell,
                    simd_lanes,
                    ..Default::default()
                };
                let d = digest(&config, threads);
                if d != golden[pi][qi] {
                    got[pi][qi] = d;
                    mismatches.push(format!(
                        "P={processors} pose=({rot_x_deg}, {rot_y_deg}) macrocell={macrocell} \
                         simd_lanes={simd_lanes} threads={threads}: \
                         {d:#018x} != {:#018x}",
                        golden[pi][qi]
                    ));
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{dataset:?} rendered different pixels:\n{}\nlast digests seen: {got:#018x?}",
        mismatches.join("\n")
    );
}

#[test]
fn head_pixels_are_pinned() {
    check(
        DatasetKind::Head,
        [64, 64, 28],
        96,
        [
            [
                0x0837a0d8125e0cbb,
                0x331496cde036b120,
                0xe589ad753f5ef444,
                0xcc9f2af7c1dd3bb1,
            ],
            [
                0xef943c6bfaefd4de,
                0xf35873977e9817c7,
                0x9be61eb730e7cda0,
                0x108045f2244aa281,
            ],
        ],
    );
}

#[test]
fn engine_high_pixels_are_pinned() {
    check(
        DatasetKind::EngineHigh,
        [48, 48, 20],
        80,
        [
            [
                0x9c4dead57fff9283,
                0x5fb43ba2ff9b676e,
                0x2f7f0529c7c3c286,
                0x5792d595cf6c195b,
            ],
            [
                0xcd661e5338d786ea,
                0x361389c38edd5343,
                0x5e68d06451911282,
                0x0e7ecca6caa3a8fc,
            ],
        ],
    );
}

#[test]
fn engine_low_pixels_are_pinned() {
    check(
        DatasetKind::EngineLow,
        [48, 48, 20],
        64,
        [
            [
                0x9038dfc68282b276,
                0x9ec5ce0a069c41b9,
                0xe8fa4bb759732314,
                0xe4011b8c50e7338c,
            ],
            [
                0x6f83318af883efc7,
                0xf7752f35f99e6974,
                0xc524683fe12e3674,
                0x40a6a3d717e00783,
            ],
        ],
    );
}

#[test]
fn cube_pixels_are_pinned() {
    check(
        DatasetKind::Cube,
        [40, 40, 18],
        72,
        [
            [
                0x800a363cb9804922,
                0xc18fd85a5011a351,
                0xa87a7414b40ece5a,
                0x3b3db2f676e91c2f,
            ],
            [
                0x5289e945f2402670,
                0xef7d470672c42d31,
                0x1c45513822da7604,
                0xe1554d865f5d6b7f,
            ],
        ],
    );
}

/// `Image::clone` copies only the rows of the bounds hint when the hint
/// covers less than half the frame. That is exact only while every
/// producer of a hint keeps it exact, so check it on what the renderer
/// really produces: the copy has the subimage's bits and its hint.
///
/// A rank's working copy is the subimage `clone_from`-ed into a leased
/// frame, which copies only the rows of the *extent* and is held to the
/// same: each subimage also goes into one frame that still holds the
/// previous subimage (another rank's block, elsewhere on screen; another
/// size when the dataset changes), and must come out as the fresh clone.
#[test]
fn working_copies_are_bit_identical_to_rendered_subimages() {
    let mut sparse = 0;
    let mut reused = Image::blank(1, 1);
    for (dataset, dims, size) in [
        (DatasetKind::Head, [64, 64, 28], 96),
        (DatasetKind::EngineHigh, [48, 48, 20], 80),
        (DatasetKind::EngineLow, [48, 48, 20], 64),
        (DatasetKind::Cube, [40, 40, 18], 72),
    ] {
        for processors in PROCS {
            for (rot_x_deg, rot_y_deg) in POSES {
                let config = ExperimentConfig {
                    dataset,
                    image_size: size,
                    processors,
                    rot_x_deg,
                    rot_y_deg,
                    volume_dims: Some(dims),
                    ..Default::default()
                };
                for (rank, img) in prepare(&config, 1).subimages().iter().enumerate() {
                    reused.clone_from(img);
                    let bits = |p: &slsvr::image::Pixel| [p.r, p.g, p.b, p.a].map(f32::to_bits);
                    for (kind, copy) in [("fresh", &img.clone()), ("reused", &reused)] {
                        let at = format!(
                            "{kind} copy: {dataset:?} P={processors} \
                             pose=({rot_x_deg}, {rot_y_deg}) rank {rank}"
                        );
                        assert!(
                            copy.pixels()
                                .iter()
                                .map(bits)
                                .eq(img.pixels().iter().map(bits)),
                            "{at}"
                        );
                        assert_eq!(copy.bounds_hint(), img.bounds_hint(), "{at}");
                        assert_eq!(copy.extent(), img.extent(), "{at}");
                    }
                    // A rendered subimage is as sparse as its hint says.
                    assert_eq!(Some(img.extent()), img.bounds_hint());
                    sparse +=
                        usize::from(img.bounds_hint().is_some_and(|h| h.area() * 2 < img.area()));
                }
            }
        }
    }
    // The hinted copy ran (the other one is a plain `Vec` clone).
    assert!(sparse > 0, "no subimage took the hinted copy");
}

/// The same pin at the sizes the repo benchmark renders: paper
/// dimensions, six poses, rank subimages only, one constant per dataset
/// (also recorded at `9bf801e`). Too slow for a debug build; CI's
/// conformance job runs it with `--release -- --include-ignored`.
#[test]
#[ignore = "paper-size renders; run with --release"]
fn paper_size_probe_is_pinned() {
    const PROBE_POSES: [(f32, f32); 6] = [
        (20.0, 30.0),
        (-12.5, 133.0),
        (5.0, 251.7),
        (29.0, 77.7),
        (0.0, 0.0),
        (0.0, 90.0),
    ];
    for (dataset, image_size, processors, golden) in [
        (DatasetKind::Head, 128, 4, 0xddb7_165d_eece_942c_u64),
        (DatasetKind::EngineHigh, 256, 16, 0xdb13_ed77_45b1_3e4d),
        (DatasetKind::EngineLow, 256, 4, 0x9401_60cf_18a7_7dca),
        (DatasetKind::Cube, 128, 4, 0x9068_133e_995a_05f7),
    ] {
        let mut h = FNV_OFFSET;
        for (rot_x_deg, rot_y_deg) in PROBE_POSES {
            let config = ExperimentConfig {
                dataset,
                image_size,
                processors,
                rot_x_deg,
                rot_y_deg,
                simd_lanes: 4,
                ..Default::default()
            };
            for img in prepare(&config, 1).subimages() {
                h = fold(h, fnv1a(img));
            }
        }
        assert_eq!(h, golden, "{dataset:?}: {h:#018x} != {golden:#018x}");
    }
}
