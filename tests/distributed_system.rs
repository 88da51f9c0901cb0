//! Integration tests for the fully distributed pipeline: collectives,
//! block scatter, ghost layers, and cross-mode agreement.

use slsvr::compositing::Method;
use slsvr::system::{run_distributed, Experiment, ExperimentConfig};
use slsvr::volume::{io, kd_partition, Dataset, DatasetKind};

fn config(p: usize) -> ExperimentConfig {
    ExperimentConfig {
        dataset: DatasetKind::Head,
        image_size: 64,
        processors: p,
        method: Method::Bsbrc,
        volume_dims: Some([32, 32, 16]),
        step: 2.0,
        ..Default::default()
    }
}

#[test]
fn distributed_matches_reference_compositing() {
    // The distributed run renders from local blocks; its compositing
    // must still be exact for those subimages (methods agree pairwise).
    let base = run_distributed(&config(8)).image;
    for method in [Method::Bs, Method::Bslc, Method::RadixK, Method::Bsbr] {
        let mut cfg = config(8);
        cfg.method = method;
        let img = run_distributed(&cfg).image;
        let diff = base.max_abs_diff(&img);
        assert!(diff < 2e-4, "{method:?} differs by {diff}");
    }
}

#[test]
fn ghost_layers_progressively_reduce_seams() {
    let cfg = config(8);
    let shared = Experiment::prepare(&cfg).run(Method::Bsbrc).image;
    let seam_pixels = |ghost: usize| {
        let mut c = cfg;
        c.ghost_voxels = ghost;
        let img = run_distributed(&c).image;
        shared
            .pixels()
            .iter()
            .zip(img.pixels())
            .filter(|(a, b)| a.max_abs_diff(b) > 1e-5)
            .count()
    };
    let none = seam_pixels(0);
    let two = seam_pixels(2);
    assert_eq!(two, 0, "ghost=2 must be seam-free");
    assert!(none >= two, "ghosting cannot add seams ({none} vs {two})");
}

#[test]
fn scatter_bytes_scale_with_ghost() {
    let plain = run_distributed(&config(8)).partition_bytes;
    let mut cfg = config(8);
    cfg.ghost_voxels = 2;
    let ghosted = run_distributed(&cfg).partition_bytes;
    assert!(
        ghosted > plain,
        "ghost shells must add scatter bytes: {ghosted} vs {plain}"
    );
    // But not explode: well under 3× for 2-voxel shells on 32³/8 blocks.
    assert!(ghosted < plain * 3);
}

#[test]
fn block_wire_format_round_trips_through_partition() {
    let dims = [24, 20, 12];
    let ds = Dataset::with_dims(DatasetKind::EngineLow, dims);
    let part = kd_partition(dims, 6);
    for block in part.subvolumes() {
        let bytes = io::encode_block(&ds.volume, block);
        let (placement, local) = io::decode_block(&bytes).unwrap();
        assert_eq!(placement, *block);
        assert_eq!(local.dims(), block.dims);
        // Sample equality at the corners.
        let d = block.dims;
        for corner in [[0, 0, 0], [d[0] - 1, d[1] - 1, d[2] - 1]] {
            assert_eq!(
                local.get(corner[0], corner[1], corner[2]),
                ds.volume.get(
                    block.origin[0] + corner[0],
                    block.origin[1] + corner[1],
                    block.origin[2] + corner[2]
                )
            );
        }
    }
}

#[test]
fn distributed_perspective_composes_with_non_pow2_and_ghost() {
    // Perspective through the distributed pipeline itself (non-pow2 P,
    // through the fold): with two ghost voxels the frame is the shared
    // pipeline's, which in turn matches the sequential reference.
    let mut cfg = config(6);
    cfg.perspective_distance = Some(2.0);
    cfg.ghost_voxels = 2;
    let exp = Experiment::prepare(&cfg);
    let shared = exp.run(Method::Bsbrc);
    let diff = shared.image.max_abs_diff(&exp.reference());
    assert!(diff < 2e-4, "shared perspective differs by {diff}");
    let dist = run_distributed(&cfg);
    assert_eq!(dist.image.max_abs_diff(&shared.image), 0.0);
    assert!(dist.image.non_blank_count() > 0);
    assert!(!dist.is_degraded());

    cfg.perspective_distance = None;
    let ortho = run_distributed(&cfg).image;
    assert!(dist.image.max_abs_diff(&ortho) > 0.0, "perspective ignored");
}
