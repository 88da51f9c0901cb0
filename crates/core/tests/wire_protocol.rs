//! Wire-protocol integration tests: each method's message layout parses
//! exactly and matches its cost-equation structure, validated by a
//! protocol-sniffing rank that decodes its partner's raw bytes.

use slsvr_core::wire::{MsgReader, MsgWriter};
use slsvr_core::{composite, gather_image_tolerant, CompositeError, Method, Workload};
use vr_comm::{run_group, run_group_with, CostModel, FaultConfig, GroupOptions, ScheduleSpec};
use vr_image::{Image, MaskRle, Pixel, Rect};
use vr_volume::DepthOrder;

fn content_image(w: u16, h: u16, salt: u32) -> Image {
    Image::from_fn(w, h, |x, y| {
        let v = (x as u32)
            .wrapping_mul(97)
            .wrapping_add((y as u32).wrapping_mul(31))
            .wrapping_add(salt);
        if v.is_multiple_of(5) {
            Pixel::gray((v % 200) as f32 / 255.0, 0.6)
        } else {
            Pixel::BLANK
        }
    })
}

#[test]
fn writer_reader_agree_on_every_element_type() {
    let mut w = MsgWriter::new();
    w.put_rect(Rect::new(5, 6, 70, 80));
    w.put_u32(0xDEADBEEF);
    w.put_codes(&[0, 1, 65535]);
    w.put_bytes(&[1, 2, 3]);
    w.put_pixel(Pixel::gray(0.5, 0.25));
    let total = 8 + 4 + 6 + 3 + 16;
    assert_eq!(w.len(), total);
    let mut r = MsgReader::new(w.freeze());
    assert_eq!(r.get_rect(), Rect::new(5, 6, 70, 80));
    assert_eq!(r.get_u32(), 0xDEADBEEF);
    assert_eq!(r.get_codes(3), vec![0, 1, 65535]);
    assert_eq!(r.get_bytes(3), vec![1, 2, 3]);
    assert_eq!(r.get_pixel(), Pixel::gray(0.5, 0.25));
    assert_eq!(r.remaining(), 0);
}

/// BSBRC message: rect + code count + codes + exactly the advertised
/// non-blank pixels, nothing more.
#[test]
fn bsbrc_message_parses_exactly() {
    let p = 2;
    let depth = DepthOrder::identity(p);
    let images = [content_image(32, 32, 1), content_image(32, 32, 2)];
    // Run the real protocol but also re-derive rank 1's first message
    // from its image content and compare byte-for-byte.
    let out = run_group(p, CostModel::free(), |ep| {
        let mut img = images[ep.rank()].clone();
        composite(Method::Bsbrc, ep, &mut img, &depth)
            .unwrap()
            .stats
    });
    // Reconstruct what rank 1 must have sent at stage 0: its bounding
    // rect ∩ left half, RLE-encoded.
    let img = &images[1];
    let bounds = img.bounding_rect();
    let (left, _right) = img.full_rect().split_at_x(16);
    let send_bounds = bounds.intersect(&left);
    let rle = MaskRle::encode_mask(send_bounds.iter().map(|(x, y)| !img.get(x, y).is_blank()));
    let expect_len = 8 + 4 + rle.wire_bytes() + rle.non_blank_total() * 16;
    assert_eq!(out.results[1].stages[0].sent_bytes as usize, expect_len);
    assert_eq!(out.results[1].stages[0].run_codes as usize, rle.num_codes());
}

/// BSBR message: rect + dense pixels of that rect.
#[test]
fn bsbr_message_parses_exactly() {
    let p = 2;
    let depth = DepthOrder::identity(p);
    let images = [content_image(24, 24, 3), content_image(24, 24, 4)];
    let out = run_group(p, CostModel::free(), |ep| {
        let mut img = images[ep.rank()].clone();
        composite(Method::Bsbr, ep, &mut img, &depth).unwrap().stats
    });
    let img = &images[0];
    let (_, right) = img.full_rect().split_at_x(12);
    let send_bounds = img.bounding_rect().intersect(&right);
    let expect = 8 + send_bounds.area() * 16;
    assert_eq!(out.results[0].stages[0].sent_bytes as usize, expect);
}

/// BSBM message: rect + ⌈area/8⌉ mask bytes + non-blank pixels.
#[test]
fn bsbm_message_parses_exactly() {
    let p = 2;
    let depth = DepthOrder::identity(p);
    let images = [content_image(24, 24, 5), content_image(24, 24, 6)];
    let out = run_group(p, CostModel::free(), |ep| {
        let mut img = images[ep.rank()].clone();
        composite(Method::Bsbm, ep, &mut img, &depth).unwrap().stats
    });
    let img = &images[0];
    let (_, right) = img.full_rect().split_at_x(12);
    let send_bounds = img.bounding_rect().intersect(&right);
    let non_blank = img.non_blank_count_in(&send_bounds);
    let expect = 8 + send_bounds.area().div_ceil(8) + non_blank * 16;
    assert_eq!(out.results[0].stages[0].sent_bytes as usize, expect);
}

/// BS messages carry no framing at all: exactly `16·A/2` bytes.
#[test]
fn bs_message_is_headerless() {
    let p = 2;
    let depth = DepthOrder::identity(p);
    let images = [content_image(20, 20, 7), content_image(20, 20, 8)];
    let out = run_group(p, CostModel::free(), |ep| {
        let mut img = images[ep.rank()].clone();
        composite(Method::Bs, ep, &mut img, &depth).unwrap().stats
    });
    for s in &out.results {
        assert_eq!(s.stages[0].sent_bytes as usize, 10 * 20 * 16);
    }
}

/// Hostile stage bytes: with 90 % of all transmissions carrying a flipped
/// bit and no reliable transport to catch it, every method must answer
/// each damaged header, count or length with a typed, retryable
/// `Malformed` — never a panic (a panicking rank would unwind through
/// `run_group_with` and fail this test). A flipped bit *inside* a pixel
/// still parses: catching that is the reliable transport's CRC's job,
/// not the codec's.
#[test]
fn corrupted_payloads_are_malformed_never_a_panic() {
    let mut malformed = 0usize;
    for method in Method::all() {
        // P = 6 reaches the fold (and radix-k's rounds [3, 2]).
        for p in [6usize, 8] {
            let images = Workload::Sparse.images(p, 16, 16);
            let depth = DepthOrder::identity(p);
            for seed in 1..=8u64 {
                let faults: FaultConfig = format!("corrupt=0.9,seed={seed}").parse().unwrap();
                let options = GroupOptions {
                    cost: CostModel::free(),
                    faults: Some(faults),
                    schedule: Some(ScheduleSpec::seeded(seed)),
                    ..Default::default()
                };
                let out = run_group_with(p, options, |ep| {
                    let mut img = images[ep.rank()].clone();
                    let result = composite(method, ep, &mut img, &depth)?;
                    gather_image_tolerant(ep, &img, &result.piece, 0).map(|_| ())
                });
                for result in out.results {
                    match result {
                        Ok(()) => {}
                        Err(e @ CompositeError::Malformed { .. }) => {
                            assert!(e.is_transient());
                            malformed += 1;
                        }
                        Err(other) => panic!("{method:?} P={p} seed {seed}: {other}"),
                    }
                }
            }
        }
    }
    assert!(
        malformed > 0,
        "the sweep must actually damage a header somewhere"
    );
}
