//! Wire-protocol integration tests: each method's message layout parses
//! exactly and matches its cost-equation structure, validated by a
//! protocol-sniffing rank that decodes its partner's raw bytes.

use bytes::Bytes;
use slsvr_core::schedule::tags;
use slsvr_core::wire::{MsgReader, MsgWriter};
use slsvr_core::{composite, gather_image_tolerant, CompositeError, Method, OwnedPiece, Workload};
use vr_comm::{
    run_group, run_group_with, CostModel, Endpoint, FaultConfig, GroupOptions, ScheduleSpec, Tag,
};
use vr_image::{Image, MaskRle, Pixel, Rect, StridedSeq};
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
    w.put_pixel(Pixel::gray(0.5, 0.25));
    let total = 8 + 4 + 6 + 16;
    assert_eq!(w.len(), total);
    let mut r = MsgReader::new(w.freeze());
    assert_eq!(r.get_rect(), Ok(Rect::new(5, 6, 70, 80)));
    assert_eq!(r.get_u32(), Ok(0xDEADBEEF));
    assert_eq!(r.get_codes(3), Ok(vec![0, 1, 65535]));
    assert_eq!(r.get_pixel(), Ok(Pixel::gray(0.5, 0.25)));
    assert_eq!(r.finish(), Ok(()));
    assert!(r.get_u32().is_err(), "a read past the end is typed");
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

    // A flipped bit rarely shortens what a count announces, so the sweep
    // above seldom reaches the end of a payload. Cut every message shape
    // at every offset instead: the reader itself must answer.
    let depth2 = DepthOrder::identity(2);
    let images2 = Workload::Sparse.images(2, 8, 8);
    for method in Method::all() {
        let tag = match method {
            Method::TileStream => tags::TILE,
            // Every other method: stage (round) 0.
            _ => tags::STAGE_BASE,
        };
        truncate_at_every_offset(method.name(), 2, tag, |ep| {
            let mut img = images2[ep.rank()].clone();
            composite(method, ep, &mut img, &depth2).map(|_| ())
        });
    }
    // P = 3 folds rank 1 into rank 0 before the first stage; radix-k
    // runs one round of 3 instead, so rank 0 reads two arrivals there.
    let depth3 = DepthOrder::identity(3);
    let images3 = Workload::Sparse.images(3, 8, 8);
    for (what, method, tag) in [
        ("fold", Method::Bsbrc, tags::FOLD),
        ("RADIXK r = 3", Method::RadixK, tags::STAGE_BASE),
    ] {
        truncate_at_every_offset(what, 3, tag, |ep| {
            let mut img = images3[ep.rank()].clone();
            composite(method, ep, &mut img, &depth3).map(|_| ())
        });
    }
    // The gather, once per piece kind rank 1 can own: each domain's
    // header, code count, codes and non-blank pixels cut anywhere.
    let frame = &images2[1];
    let pieces = [
        OwnedPiece::Nothing,
        OwnedPiece::Rect(Rect::new(4, 0, 8, 8)),
        OwnedPiece::Seq(StridedSeq {
            start: 1,
            stride: 2,
            count: 32,
        }),
        OwnedPiece::Rects(vec![Rect::new(0, 0, 3, 3), Rect::new(5, 5, 8, 8)]),
    ];
    for piece in &pieces {
        truncate_at_every_offset("gather", 2, tags::GATHER, |ep| {
            let own = [&OwnedPiece::Nothing, piece][ep.rank()];
            gather_image_tolerant(ep, frame, own, 0).map(|_| ())
        });
    }
}

/// A hand-built gather piece: `words` (kind, domain header, code count),
/// then `codes`, then `pixels` gray pixels.
fn gather_piece(words: &[u32], codes: &[u16], pixels: usize) -> Bytes {
    let mut w = MsgWriter::new();
    for &word in words {
        w.put_u32(word);
    }
    w.put_codes(codes);
    w.put_pixels(&vec![Pixel::gray(0.5, 1.0); pixels]);
    w.freeze()
}

/// The words of a rect header: `x0 | y0 << 16`, `x1 | y1 << 16`.
fn rect_words(r: Rect) -> [u32; 2] {
    let b = r.to_le_bytes();
    [0, 4].map(|i| u32::from_le_bytes(b[i..i + 4].try_into().unwrap()))
}

/// Well-framed gather pieces that lie about their domain, codes or
/// length: the root answers each with `Malformed` before it writes a
/// pixel. The honest piece each is cut from gathers.
#[test]
fn hostile_gather_pieces_are_malformed() {
    const RECT: u32 = 1;
    const SEQ: u32 = 2;
    const RECTS: u32 = 4;
    let frame = Image::blank(8, 8);
    let [a, b] = rect_words(Rect::new(2, 2, 4, 4));
    let [out0, out1] = rect_words(Rect::new(6, 6, 10, 10));
    let gather = |message: Bytes| {
        with_stand_in_peer(2, tags::GATHER, message, |ep| {
            gather_image_tolerant(ep, &frame, &OwnedPiece::Nothing, 0).map(|_| ())
        })
    };
    // Honest: a 2×2 rect with its middle two pixels, a one-rect set and
    // a stride-1 sequence of three with all three.
    for honest in [
        gather_piece(&[RECT, a, b, 2], &[1, 2], 2),
        gather_piece(&[RECTS, 1, a, b, 2], &[1, 2], 2),
        gather_piece(&[SEQ, 10, 1, 3, 2], &[0, 3], 3),
    ] {
        assert_eq!(gather(honest), Ok(()));
    }
    let hostile = [
        (
            "a run past the rect",
            gather_piece(&[RECT, a, b, 2], &[3, 2], 2),
        ),
        (
            "a run past the sequence",
            gather_piece(&[SEQ, 10, 1, 3, 2], &[2, 2], 2),
        ),
        (
            "a code count past the payload",
            gather_piece(&[RECT, a, b, u32::MAX], &[1, 2], 2),
        ),
        (
            "a code count past the payload",
            gather_piece(&[SEQ, 0, 1, 4, u32::MAX], &[0, 4], 4),
        ),
        (
            "short pixel bytes",
            gather_piece(&[RECT, a, b, 2], &[1, 2], 1),
        ),
        (
            "long pixel bytes",
            gather_piece(&[RECT, a, b, 2], &[1, 2], 3),
        ),
        (
            "long pixel bytes",
            gather_piece(&[SEQ, 10, 1, 3, 2], &[0, 3], 4),
        ),
        (
            "long pixel bytes",
            gather_piece(&[RECTS, 1, a, b, 2], &[1, 2], 3),
        ),
        (
            "a rect outside the frame",
            gather_piece(&[RECT, out0, out1, 0], &[], 0),
        ),
        (
            "a rect outside the frame",
            gather_piece(&[RECTS, 2, a, b, 0, out0, out1, 0], &[], 0),
        ),
        (
            "a sequence outside the frame",
            gather_piece(&[SEQ, 60, 2, 3, 0], &[], 0),
        ),
        // It would write pixel 0 `count` times and count each covered.
        (
            "a zero stride",
            gather_piece(&[SEQ, 0, 0, 1, 2], &[0, 1], 1),
        ),
        (
            "a zero stride",
            gather_piece(&[SEQ, 0, 0, 64, 2], &[0, 64], 64),
        ),
        (
            "a zero stride",
            gather_piece(&[SEQ, 0, 0, 65, 2], &[0, 65], 65),
        ),
    ];
    for (what, message) in hostile {
        let got = gather(message);
        assert!(
            matches!(got, Err(CompositeError::Malformed { from: 1, .. })),
            "{what}: {got:?}"
        );
    }
}

/// Captures the first message rank 1 sends rank 0 on `tag` while every
/// rank runs `body`, then re-runs the group once per proper prefix of it
/// with rank 1 replaced by a [`with_stand_in_peer`] that sends the prefix
/// and nothing valid after it. Rank 0 must answer every prefix with
/// `Malformed` (no message shape here has a prefix that is a whole
/// message of its own); a panic in any rank unwinds through `run_group`
/// and fails the caller.
fn truncate_at_every_offset(
    what: &str,
    p: usize,
    tag: Tag,
    body: impl Fn(&mut Endpoint) -> Result<(), CompositeError> + Sync,
) {
    let recorded = run_group(p, CostModel::free(), |ep| match ep.rank() {
        0 => ep.recv(1, tag).ok(),
        _ => body(ep).ok().and(None),
    });
    let message = recorded.results[0]
        .clone()
        .unwrap_or_else(|| panic!("{what}: rank 1 sent rank 0 nothing on tag {tag:#x}"));
    for cut in 0..message.len() {
        let got = with_stand_in_peer(p, tag, message.slice(..cut), &body);
        assert!(
            matches!(got, Err(CompositeError::Malformed { from: 1, .. })),
            "{what} cut at {cut} of {}: {got:?}",
            message.len(),
        );
    }
}

/// Runs `body` on every rank but 1, which only sends `message` to rank 0
/// on `tag`; returns rank 0's result.
fn with_stand_in_peer(
    p: usize,
    tag: Tag,
    message: Bytes,
    body: impl Fn(&mut Endpoint) -> Result<(), CompositeError> + Sync,
) -> Result<(), CompositeError> {
    let mut out = run_group(p, CostModel::free(), |ep| match ep.rank() {
        1 => {
            ep.send(0, tag, message.clone()).ok();
            // Stay until rank 0 has sent (or is gone), so its own send
            // cannot find this peer dead before it reads the message.
            ep.recv(0, tag).ok();
            Ok(())
        }
        _ => body(ep),
    });
    out.results.swap_remove(0)
}
