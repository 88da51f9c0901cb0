//! Property tests for the reusable wire scratch buffers: reusing a
//! [`ScratchPool`] across stages must never leak pixels from an earlier
//! payload into a later one, and the watermark must track capacity.

use proptest::prelude::*;
use slsvr_core::wire::{MsgReader, MsgWriter, ScratchPool};
use vr_image::Pixel;

fn arb_payload() -> impl Strategy<Value = Vec<Pixel>> {
    proptest::collection::vec(
        (0.0f32..=1.0, 0.0f32..=1.0).prop_map(|(v, a)| Pixel::gray(v * a, a)),
        0..200,
    )
}

proptest! {
    #[test]
    fn scratch_reuse_never_leaks_stale_pixels(
        payloads in proptest::collection::vec(arb_payload(), 1..12)
    ) {
        // One pool reused across every "stage", exactly as the
        // binary-swap methods drive it: shrinking, growing and empty
        // payloads interleave, and after each round-trip the receive
        // buffer must hold the fresh payload and nothing else.
        let mut pool = ScratchPool::new();
        for payload in &payloads {
            let mut w = MsgWriter::new();
            pool.send.clear();
            pool.send.extend_from_slice(payload);
            w.put_pixels(&pool.send);
            let mut r = MsgReader::new(w.freeze());
            r.get_pixels_into(payload.len(), &mut pool.recv).unwrap();
            pool.note_watermark();
            prop_assert_eq!(&pool.recv, payload);
            prop_assert_eq!(r.remaining(), 0);
        }
        // The watermark covers the largest resident footprint seen.
        let largest = payloads.iter().map(Vec::len).max().unwrap_or(0);
        prop_assert!(
            pool.peak_bytes() >= (2 * largest * vr_image::BYTES_PER_PIXEL) as u64
        );
    }

    #[test]
    fn watermark_is_monotone(sizes in proptest::collection::vec(0usize..500, 1..10)) {
        let mut pool = ScratchPool::new();
        let mut last = 0;
        for n in sizes {
            pool.send.clear();
            pool.send.resize(n, Pixel::BLANK);
            pool.note_watermark();
            prop_assert!(pool.peak_bytes() >= last);
            last = pool.peak_bytes();
            prop_assert!(
                pool.peak_bytes() >= (n * vr_image::BYTES_PER_PIXEL) as u64
            );
        }
    }
}
