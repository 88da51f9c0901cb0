//! End-to-end integration tests: the full partition → render →
//! composite → gather pipeline across datasets, methods and processor
//! counts.

use slsvr::compositing::Method;
use slsvr::system::{Experiment, ExperimentConfig};
use slsvr::volume::DatasetKind;

fn prepare(dataset: DatasetKind, p: usize) -> Experiment {
    let config = ExperimentConfig {
        dataset,
        image_size: 72,
        processors: p,
        volume_dims: Some([36, 36, 18]),
        step: 2.0,
        ..Default::default()
    };
    Experiment::prepare(&config)
}

#[test]
fn every_method_matches_reference_on_every_dataset() {
    for dataset in DatasetKind::all() {
        let exp = prepare(dataset, 8);
        let expect = exp.reference();
        for method in Method::all() {
            let out = exp.run(method);
            let diff = out.image.max_abs_diff(&expect);
            assert!(diff < 2e-4, "{method:?} on {dataset:?} differs by {diff}");
        }
    }
}

#[test]
fn methods_agree_across_processor_counts() {
    // The composited image must be independent of P (up to float
    // association error) because rendering is deterministic per block
    // and over is associative.
    let exp2 = prepare(DatasetKind::EngineLow, 2);
    let exp8 = prepare(DatasetKind::EngineLow, 8);
    let img2 = exp2.run(Method::Bsbrc).image;
    let img8 = exp8.run(Method::Bsbrc).image;
    // Different partitions sample block boundaries slightly differently,
    // so allow a looser tolerance but demand broad agreement.
    let mut big_diffs = 0usize;
    for (a, b) in img2.pixels().iter().zip(img8.pixels()) {
        if a.max_abs_diff(b) > 0.12 {
            big_diffs += 1;
        }
    }
    assert!(
        big_diffs < img2.area() / 50,
        "P=2 and P=8 images disagree on {big_diffs}/{} pixels",
        img2.area()
    );
}

#[test]
fn repeated_runs_are_bit_identical() {
    let exp = prepare(DatasetKind::Head, 4);
    let a = exp.run(Method::Bsbrc);
    let b = exp.run(Method::Bsbrc);
    assert_eq!(
        slsvr::image::checksum::fnv1a(&a.image),
        slsvr::image::checksum::fnv1a(&b.image),
        "distributed compositing must be deterministic"
    );
    // Byte counters must also be identical run to run.
    assert_eq!(a.record().m_max, b.record().m_max);
    assert_eq!(a.record().total_bytes, b.record().total_bytes);
}

#[test]
fn non_power_of_two_pipeline() {
    for p in [3, 5, 6, 7, 12] {
        let exp = prepare(DatasetKind::Cube, p);
        let expect = exp.reference();
        for method in [
            Method::Bs,
            Method::Bsbrc,
            Method::TileStream,
            Method::RadixK,
        ] {
            let out = exp.run(method);
            let diff = out.image.max_abs_diff(&expect);
            assert!(diff < 2e-4, "{method:?} P={p} differs by {diff}");
        }
    }
}

#[test]
fn single_processor_pipeline() {
    let exp = prepare(DatasetKind::EngineHigh, 1);
    let expect = exp.reference();
    for method in Method::all() {
        let out = exp.run(method);
        assert_eq!(
            out.image.max_abs_diff(&expect),
            0.0,
            "{method:?} P=1 must be exact"
        );
    }
}

#[test]
fn larger_group_than_typical() {
    let exp = prepare(DatasetKind::EngineLow, 32);
    let expect = exp.reference();
    let out = exp.run(Method::Bsbrc);
    assert!(out.image.max_abs_diff(&expect) < 2e-4);
    assert_eq!(out.per_rank.len(), 32);
}

#[test]
fn view_rotation_changes_depth_order_but_not_correctness() {
    for (rx, ry) in [
        (0.0, 0.0),
        (90.0, 0.0),
        (0.0, 90.0),
        (37.0, -53.0),
        (180.0, 45.0),
    ] {
        let config = ExperimentConfig {
            dataset: DatasetKind::Cube,
            image_size: 64,
            processors: 8,
            volume_dims: Some([32, 32, 16]),
            step: 2.0,
            rot_x_deg: rx,
            rot_y_deg: ry,
            ..Default::default()
        };
        let exp = Experiment::prepare(&config);
        let expect = exp.reference();
        for method in [Method::Bsbr, Method::Bsbrc, Method::Bslc] {
            let out = exp.run(method);
            let diff = out.image.max_abs_diff(&expect);
            assert!(
                diff < 2e-4,
                "{method:?} at rot=({rx},{ry}) differs by {diff}"
            );
        }
    }
}

#[test]
fn gallery_pgm_round_trip() {
    let exp = prepare(DatasetKind::Head, 4);
    let out = exp.run(Method::Bsbrc);
    let dir = std::env::temp_dir().join("slsvr_test_gallery");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("head.pgm");
    slsvr::image::pgm::save_pgm(&out.image, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert!(bytes.starts_with(b"P5\n72 72\n255\n"));
    assert_eq!(bytes.len(), b"P5\n72 72\n255\n".len() + 72 * 72);
}
