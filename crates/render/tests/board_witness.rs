//! One digest over what `render_clips` hands back per clip: the pixel
//! bits (`fnv1a`), the tight bounds, the extent and the bounds hint. It
//! covers the `kd_partition` blocks of two datasets for P ∈ {1, 3, 5},
//! the naive integrator and the macrocell path with tile culling off
//! and at 32-px tiles, each on a render pool 1, 2, 3 and 8 threads wide.
//! `render_golden` pins the pixels of whole frames but neither the extent
//! nor the hint, which decide how much of a subimage later copies and
//! scans touch.

use std::sync::Arc;

use vr_image::checksum::{fnv1a, fnv1a_bytes, FNV_OFFSET};
use vr_image::{Image, Rect};
use vr_render::{render_clips, Camera, RenderAccel, RenderParams, RenderPool};
use vr_volume::{kd_partition, Dataset, DatasetKind, MacrocellGrid, Subvolume};

/// The pinned digest, recorded before the board moved onto scoped
/// threads and its items stopped writing through a shared pointer.
const BOARD_WITNESS: u64 = 0xf6c5b071df76ff25;

fn fold(h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(h, |h, w| fnv1a_bytes(h, w.to_le_bytes()))
}

fn rect_words(r: Rect) -> [u64; 4] {
    [r.x0, r.y0, r.x1, r.y1].map(u64::from)
}

fn fold_image(mut h: u64, image: &Image) -> u64 {
    h = fold(h, [fnv1a(image)]);
    h = fold(h, rect_words(image.bounding_rect()));
    h = fold(h, rect_words(image.extent()));
    match image.bounds_hint() {
        Some(hint) => fold(h, [1].into_iter().chain(rect_words(hint))),
        None => fold(h, [0]),
    }
}

#[test]
fn render_clips_output_is_pinned() {
    let mut h = FNV_OFFSET;
    for (kind, dims) in [
        (DatasetKind::Head, [32, 32, 14]),
        (DatasetKind::EngineHigh, [24, 24, 10]),
    ] {
        let dataset = Dataset::with_dims(kind, dims);
        let volume = &dataset.volume;
        let whole = Subvolume {
            rank: 0,
            origin: [0, 0, 0],
            dims,
        };
        let camera = Camera::orbit(dims, 48, 48, 20.0, 30.0);
        let params = RenderParams::default();
        let accel = RenderAccel::new(
            Arc::new(MacrocellGrid::build(volume, 8)),
            &dataset.transfer,
            &params,
        );
        for p in [1, 3, 5] {
            let clips = kd_partition(dims, p).subvolumes().to_vec();
            for acc in [None, Some(&accel)] {
                for tile in [0, 32] {
                    let mut first = None;
                    for threads in [1, 2, 3, 8] {
                        let pool = RenderPool::new(threads);
                        let (images, seconds) = render_clips(
                            volume,
                            &whole,
                            &clips,
                            &dataset.transfer,
                            &camera,
                            &params,
                            acc,
                            tile,
                            Some(&pool),
                        );
                        assert_eq!(seconds.len(), clips.len());
                        assert!(
                            images.iter().any(|i| !i.bounding_rect().is_empty()),
                            "{kind:?} P={p} rendered nothing"
                        );
                        let d = images.iter().fold(FNV_OFFSET, fold_image);
                        let width_one = *first.get_or_insert(d);
                        assert_eq!(
                            d,
                            width_one,
                            "{kind:?} P={p} macrocell={} tile={tile}: {threads} threads \
                             differ from one",
                            acc.is_some()
                        );
                        h = fold(h, [d]);
                    }
                }
            }
        }
    }
    assert_eq!(h, BOARD_WITNESS, "render_clips moved: {h:#018x}");
}
