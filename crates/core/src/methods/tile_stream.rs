//! Asynchronous tile-streamed compositing (`tile-stream`).
//!
//! The screen is cut into a row-major grid of square tiles
//! ([`DEFAULT_STREAM_TILE`] pixels on a side) and tile `t` is statically
//! assigned to the rank at position `t mod P` of the front-to-back
//! order — the same interleaved assignment BSLC uses for pixels, so
//! every owner holds a spread of tiles rather than one hot region. Each
//! rank walks its subimage tile by tile and sends each non-blank tile to
//! its owner as one message: the tile index, then the paper's run body
//! over the tile ([`RunBody`]: code count, run codes, non-blank
//! pixels). A blank tile is never sent, and a
//! `DONE` sentinel closes each contributor→owner stream. An owner's own
//! tiles take the same decode as the ones it receives. Owners fold
//! arrivals as they land and gather exactly as the bulk-synchronous
//! methods do.
//!
//! **Determinism.** Arrival order is *not* deterministic on the real
//! transport, so correctness cannot depend on it: every owner keeps one
//! slot per (owned tile, contributor) and folds a tile's contributions
//! strictly in virtual-rank order — slot `v` is folded only once slots
//! `0..v` are resolved (content, or known-empty via `DONE`). The fold
//! applies the same `Pixel::over` expression, in the same front-to-back
//! order, as [`reference_composite`](crate::conformance); skipping blank
//! pixels is exact because `over` with a blank operand is the identity
//! on either side. The final framebuffer is therefore bit-identical to
//! the sequential reference for *any* interleaving of arrivals. The
//! modeled `T_comm` is summed the same way: per contributor, then in
//! virtual-rank order, so it too is the same for every interleaving.
//!
//! **Virtual time.** Every frame renders before it composites, so a tile
//! carries no render instant: under the virtual-clock transport a tile
//! is delivered after its message cost (`T_s + bytes · T_c`), and the
//! schedule seed orders what lands together. The conformance sweep
//! replays the same stream under many seeds and pins the same image
//! hash.
//!
//! **Degradation.** A contributor that dies mid-stream leaves its
//! unresolved slots empty: the owner sees the disconnect only after the
//! transport's already-delivered messages drain, marks every remaining
//! slot of that contributor as empty, and finishes — a transparent hole
//! at the dead rank's tiles, never a hang.

use bytes::Bytes;
use vr_comm::Endpoint;
use vr_image::body::RunBody;
use vr_image::{kernel, Image, MaskRle, Pixel, PixelLayout, Rect};
use vr_volume::DepthOrder;

use crate::error::{try_recv_any, try_send, AnyRecv, Checked, CompositeError, Malformed};
use crate::schedule::{tags, VirtualTopology};
use crate::stats::StageStat;
use crate::wire::{MsgReader, MsgWriter};

use super::{CompositeResult, OwnedPiece, Run};

/// The streamed-tile edge in pixels (matches the renderer's default
/// screen tile, so one rendered tile maps to one streamed message).
pub const DEFAULT_STREAM_TILE: u16 = 32;

/// Sentinel tile index closing one contributor→owner stream.
const DONE: u32 = u32::MAX;

/// The step named in this method's errors.
const STEP: &str = "tile stream";

/// The row-major grid of `tile`-px screen tiles covering `width` ×
/// `height` (edge tiles clamped). Every rank derives the identical grid,
/// so tile indices are globally meaningful.
pub fn tile_grid(width: u16, height: u16, tile: u16) -> Vec<Rect> {
    assert!(tile > 0, "stream tile must be positive");
    let mut rects = Vec::new();
    let mut y = 0u16;
    while y < height {
        let y1 = height.min(y.saturating_add(tile));
        let mut x = 0u16;
        while x < width {
            let x1 = width.min(x.saturating_add(tile));
            rects.push(Rect::new(x, y, x1, y1));
            x = x1;
        }
        y = y1;
    }
    rects
}

/// Tile `t`'s message: the index, then the run body of `rect`, scanned
/// into `body` — or `None` for a blank tile, which is never sent.
fn tile_message(body: &mut RunBody, image: &Image, t: usize, rect: &Rect) -> Option<Bytes> {
    let len = body.scan(rect.area(), |runs| image.runs_into(rect, runs));
    if body.non_blank() == 0 {
        return None;
    }
    let mut w = MsgWriter::with_capacity(4 + len);
    w.put_u32(t as u32);
    body.put_rect(w.payload(), image, rect, PixelLayout::Rgba);
    Some(w.freeze())
}

/// One contributor's state for one owned tile.
enum Slot {
    /// Neither content nor `DONE` seen yet.
    Unknown,
    /// Known blank (explicitly, via `DONE`, or via a dead contributor).
    Empty,
    /// Content waiting for its turn in the depth order: the non-blank
    /// runs and their pixels in wire form (a view of the message).
    Content { mask: MaskRle, pixels: Bytes },
}

/// The deterministic accumulator for one owned tile: contributions fold
/// strictly in virtual-rank (front-to-back) order via `acc = acc over
/// contribution`, exactly the sequential reference's association, no
/// matter what order they arrive in.
struct TileAccum {
    rect: Rect,
    acc: Vec<Pixel>,
    slots: Vec<Slot>,
    /// First virtual rank not yet folded into `acc`.
    next_v: usize,
    /// `over` operations applied so far.
    ops: u64,
}

impl TileAccum {
    /// A blank accumulator for `rect` awaiting `p` contributors.
    fn new(rect: Rect, p: usize) -> TileAccum {
        TileAccum {
            rect,
            acc: vec![Pixel::BLANK; rect.area()],
            slots: (0..p).map(|_| Slot::Unknown).collect(),
            next_v: 0,
            ops: 0,
        }
    }

    /// True once every contributor has been folded.
    fn is_complete(&self) -> bool {
        self.next_v == self.slots.len()
    }

    /// Whether contributor `v` has already been resolved.
    fn is_resolved(&self, v: usize) -> bool {
        v < self.next_v || !matches!(self.slots[v], Slot::Unknown)
    }

    /// Records contributor `v`'s non-blank runs for this tile.
    fn resolve_content(&mut self, v: usize, mask: MaskRle, pixels: Bytes) {
        debug_assert!(!self.is_resolved(v), "contributor {v} resolved twice");
        self.slots[v] = Slot::Content { mask, pixels };
        self.advance();
    }

    /// Records that contributor `v` has nothing for this tile (explicit
    /// `DONE`, a blank tile of this rank's own, or the contributor died
    /// before sending it).
    fn resolve_empty(&mut self, v: usize) {
        if self.is_resolved(v) {
            return;
        }
        self.slots[v] = Slot::Empty;
        self.advance();
    }

    /// Folds the maximal resolved prefix into the accumulator.
    fn advance(&mut self) {
        while self.next_v < self.slots.len() {
            match std::mem::replace(&mut self.slots[self.next_v], Slot::Empty) {
                Slot::Unknown => {
                    self.slots[self.next_v] = Slot::Unknown;
                    return;
                }
                Slot::Empty => {}
                Slot::Content { mask, pixels } => {
                    let mut wire = &pixels[..];
                    for (pos, len) in mask.non_blank_runs() {
                        // acc (vranks < next_v) stays in front of this
                        // contribution — the reference fold direction.
                        let (run, rest) = wire.split_at(len * vr_image::BYTES_PER_PIXEL);
                        kernel::under_slice_wire(&mut self.acc[pos..pos + len], run);
                        wire = rest;
                        self.ops += len as u64;
                    }
                }
            }
            self.next_v += 1;
        }
    }
}

/// The tiles a rank owns — tile `t` with `t mod P = v` sits in slot
/// `t / P` — and when they finished folding, on the transport's own
/// clock ([`Endpoint::now`]: wall seconds on real channels, virtual
/// seconds under a schedule seed, where the offsets replay exactly).
struct Owned {
    accums: Vec<TileAccum>,
    p: usize,
    v: usize,
    /// Each real rank's virtual rank.
    vrank_of: Vec<usize>,
    start: f64,
    first: Option<f64>,
    last: Option<f64>,
}

impl Owned {
    fn new(tiles: &[Rect], topo: &VirtualTopology, start: f64) -> Owned {
        let (p, v) = (topo.vsize(), topo.vrank());
        let mut vrank_of = vec![0; p];
        for u in 0..p {
            vrank_of[topo.real(u)] = u;
        }
        Owned {
            accums: tiles
                .iter()
                .skip(v)
                .step_by(p)
                .map(|&rect| TileAccum::new(rect, p))
                .collect(),
            p,
            v,
            vrank_of,
            start,
            first: None,
            last: None,
        }
    }

    /// Decodes one message of contributor `sv`'s stream — a received one
    /// or this rank's own tile — and folds it. A tile message must name a
    /// tile this rank owns that `sv` has not resolved, with runs inside
    /// the tile and exactly their pixels after them. Returns whether the
    /// message closed the stream (`DONE`).
    fn accept(&mut self, sv: usize, payload: Bytes, ep: &Endpoint) -> Checked<bool> {
        let mut r = MsgReader::new(payload);
        let t = r.get_u32()? as usize;
        if t == DONE as usize {
            r.finish()?;
            self.close(sv, ep);
            return Ok(true);
        }
        let slot = t / self.p;
        let ours =
            t % self.p == self.v && self.accums.get(slot).is_some_and(|a| !a.is_resolved(sv));
        Malformed::unless(ours)?;
        let (mask, non_blank) = r.get_body(self.accums[slot].rect.area())?;
        let pixels = r.take_pixels(non_blank)?;
        r.finish()?;
        self.fold(slot, ep, |a| a.resolve_content(sv, mask, pixels));
        Ok(false)
    }

    /// Resolves every owned tile still waiting on `sv` as empty (its
    /// stream closed, or it died).
    fn close(&mut self, sv: usize, ep: &Endpoint) {
        for slot in 0..self.accums.len() {
            self.fold(slot, ep, |a| a.resolve_empty(sv));
        }
    }

    /// Applies `resolve` to the tile in `slot`, noting the instant it
    /// completes.
    fn fold(&mut self, slot: usize, ep: &Endpoint, resolve: impl FnOnce(&mut TileAccum)) {
        let accum = &mut self.accums[slot];
        let was_complete = accum.is_complete();
        resolve(accum);
        if !was_complete && accum.is_complete() {
            let at = ep.now() - self.start;
            self.first.get_or_insert(at);
            self.last = Some(at);
        }
    }
}

/// Runs tile-streamed compositing: every tile, in index order, is
/// encoded and shipped to its owner, every stream is closed, then the
/// owners fold what arrives until every contributor has finished.
pub fn run(
    ep: &mut Endpoint,
    image: &mut Image,
    depth: &DepthOrder,
) -> Result<CompositeResult, CompositeError> {
    let mut run = Run::begin(ep);
    let topo = VirtualTopology::from_depth(ep.rank(), depth);
    let (v, p) = (topo.vrank(), topo.vsize());
    if p == 1 {
        return Ok(run.finish(ep, OwnedPiece::Rect(image.full_rect())));
    }
    let tiles = tile_grid(image.width(), image.height(), DEFAULT_STREAM_TILE);
    let mut owned = Owned::new(&tiles, &topo, ep.now());
    let mut stat = StageStat::default();

    let mut body = RunBody::default();
    for (t, rect) in tiles.iter().enumerate() {
        let message = run.encode.time(|| tile_message(&mut body, image, t, rect));
        stat.encoded_pixels += rect.area() as u64;
        let owner = t % p;
        let Some(payload) = message else {
            if owner == v {
                run.comp
                    .time(|| owned.fold(t / p, ep, |a| a.resolve_empty(v)));
            }
            continue;
        };
        stat.run_codes += body.codes() as u64;
        if owner == v {
            run.comp
                .time(|| owned.accept(v, payload, ep))
                .map_err(|m| m.at(STEP, ep.rank()))?;
        } else {
            let bytes = payload.len() as u64;
            if try_send(ep, topo.real(owner), tags::TILE, payload, &mut run.dead)? {
                stat.sent_bytes += bytes;
                stat.sent_msgs += 1;
            }
        }
    }

    // Close this rank's stream to every other owner.
    for u in (0..p.min(tiles.len())).filter(|&u| u != v) {
        let mut w = MsgWriter::with_capacity(4);
        w.put_u32(DONE);
        if try_send(ep, topo.real(u), tags::TILE, w.freeze(), &mut run.dead)? {
            stat.sent_bytes += 4;
            stat.sent_msgs += 1;
        }
    }

    // Receive phase: owners fold arrivals until every contributor's
    // stream closes (DONE) or its endpoint drains and disconnects.
    //
    // Every other rank is awaited even if a send to it already failed:
    // its *successfully delivered* messages must still be drained (the
    // transport only reports a disconnect once its queue is empty), or
    // they would surface as tag mismatches in the gather.
    //
    // `T_comm` is what the endpoint charged, but its running sum follows
    // arrival order, and on a real transport that order moves the last
    // bit from run to run. So each delivery's charge is summed per
    // contributor, in its stream's order, and the sums are added in
    // virtual-rank order, as the tiles fold. `replayed` repeats the
    // endpoint's own sum of those charges, so what it charged beyond
    // them (a reliable link's frames) is added back exactly: nothing on
    // a raw link, everything on a reliable one.
    let mut charged = vec![0.0; p];
    let mut replayed = run.comm_start;
    if !owned.accums.is_empty() {
        let mut awaiting: Vec<bool> = (0..p).map(|r| r != ep.rank()).collect();
        let mut remaining = p - 1;
        while remaining > 0 {
            let arrival = try_recv_any(ep, &awaiting, tags::TILE, &mut run.dead, STEP)?;
            let (src, closed) = match arrival {
                AnyRecv::Message(src, bytes, cost) => {
                    stat.recv_bytes += bytes.len() as u64;
                    stat.recv_msgs += 1;
                    let sv = owned.vrank_of[src];
                    charged[sv] += cost;
                    replayed += cost;
                    let closed = run
                        .comp
                        .time(|| owned.accept(sv, bytes, ep))
                        .map_err(|m| m.at(STEP, src))?;
                    (src, closed)
                }
                AnyRecv::PeerDied(src) => {
                    let sv = owned.vrank_of[src];
                    run.comp.time(|| owned.close(sv, ep));
                    (src, true)
                }
            };
            if closed {
                awaiting[src] = false;
                remaining -= 1;
            }
        }
    }
    for a in &owned.accums {
        debug_assert!(a.is_complete());
        image.write_rect(&a.rect, &a.acc);
        stat.composite_ops += a.ops;
    }

    let piece = if owned.accums.is_empty() {
        OwnedPiece::Nothing
    } else {
        OwnedPiece::Rects(owned.accums.iter().map(|a| a.rect).collect())
    };
    run.stages.push(stat);
    let comm_seconds = charged.iter().sum::<f64>() + (ep.stats().modeled_comm_seconds - replayed);
    let mut result = run.finish(ep, piece);
    result.stats.comm_seconds = comm_seconds;
    result.stats.first_tile_seconds = owned.first;
    result.stats.last_tile_seconds = owned.last;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::testutil;
    use crate::methods::Method;

    #[test]
    fn grid_tiles_the_image_exactly() {
        for (w, h, t) in [
            (64u16, 48u16, 32u16),
            (33, 17, 32),
            (5, 5, 32),
            (96, 96, 16),
        ] {
            let tiles = tile_grid(w, h, t);
            let area: usize = tiles.iter().map(|r| r.area()).sum();
            assert_eq!(area, w as usize * h as usize, "{w}x{h} tile {t}");
            for r in &tiles {
                assert!(r.width() <= t && r.height() <= t);
            }
        }
        assert!(tile_grid(0, 32, 32).is_empty());
    }

    /// Decodes a tile message the way an owner does, minus the fold: the
    /// index, then the run body over a tile of `area` pixels.
    fn decode(payload: Bytes, area: usize) -> (u32, MaskRle, Bytes) {
        let mut r = MsgReader::new(payload);
        let t = r.get_u32().unwrap();
        let (mask, non_blank) = r.get_body(area).unwrap();
        let pixels = r.take_pixels(non_blank).unwrap();
        assert_eq!(r.finish(), Ok(()));
        (t, mask, pixels)
    }

    /// Every tile of a sparse frame with a `-0.0` pixel: a blank tile
    /// sends nothing, and a tile's message is its index and exactly the
    /// body's bytes, whose runs and pixels put back every bit of the
    /// tile, the `-0.0` pixel included.
    #[test]
    fn encode_decode_round_trip() {
        let mut img = Image::blank(40, 20);
        img.set(3, 2, Pixel::gray(0.5, 0.5));
        img.set(4, 2, Pixel::gray(0.25, 1.0));
        img.set(5, 2, Pixel::new(-0.0, 0.0, -0.0, 0.0));
        img.set(39, 19, Pixel::gray(1.0, 1.0));
        let mut body = RunBody::default();
        let mut sent = 0;
        for (t, rect) in tile_grid(40, 20, 32).iter().enumerate() {
            let Some(payload) = tile_message(&mut body, &img, t, rect) else {
                assert!(rect.iter().all(|(x, y)| img.get(x, y).is_blank()));
                continue;
            };
            sent += 1;
            assert_eq!(payload.len(), 4 + body.wire_len(PixelLayout::Rgba));
            let (index, mask, pixels) = decode(payload, rect.area());
            assert_eq!(index, t as u32);
            let mut restored = Image::blank(40, 20);
            restored.write_runs_wire(rect, mask.non_blank_runs(), &pixels, PixelLayout::Rgba);
            for (x, y) in rect.iter() {
                let (want, got) = (img.get(x, y), restored.get(x, y));
                assert_eq!(got.to_le_bytes(), want.to_le_bytes(), "({x}, {y})");
            }
        }
        assert_eq!(sent, 2, "both tiles hold pixels");
    }

    #[test]
    fn accumulator_is_arrival_order_independent() {
        // Three contributors over one 4x1 tile; fold them in every
        // arrival order and require bit-identical accumulators.
        let rect = Rect::new(0, 0, 4, 1);
        let contribs: Vec<(MaskRle, Bytes)> = (0..3u32)
            .map(|v| {
                let mut img = Image::blank(4, 1);
                img.set(v as u16, 0, Pixel::gray(0.3 + v as f32 * 0.2, 0.5));
                img.set(3, 0, Pixel::gray(0.9 - v as f32 * 0.1, 0.4));
                let payload = tile_message(&mut RunBody::default(), &img, 0, &rect).unwrap();
                let (_, mask, pixels) = decode(payload, rect.area());
                (mask, pixels)
            })
            .collect();
        let orders: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let mut reference: Option<Vec<Pixel>> = None;
        for order in orders {
            let mut acc = TileAccum::new(rect, 3);
            for &v in &order {
                let (mask, pixels) = contribs[v].clone();
                acc.resolve_content(v, mask, pixels);
            }
            assert!(acc.is_complete());
            match &reference {
                None => reference = Some(acc.acc.clone()),
                Some(r) => assert_eq!(acc.acc, *r, "order {order:?}"),
            }
        }
    }

    #[test]
    fn matches_reference_composite() {
        for p in [1usize, 2, 3, 4, 5, 7, 8] {
            let depth = DepthOrder::identity(p);
            testutil::check_against_reference(Method::TileStream, p, 80, 56, &depth);
        }
    }

    #[test]
    fn bit_identical_to_reference_with_shuffled_depth() {
        use vr_comm::{run_group, CostModel};
        for p in [2usize, 3, 5, 8] {
            // A non-identity visibility order: reversed.
            let depth = DepthOrder::from_sequence((0..p).rev().collect());
            let images = testutil::test_images(p, 80, 56);
            let expect = crate::reference::reference_composite(&images, &depth);
            let out = run_group(p, CostModel::sp2(), |ep| {
                let mut img = images[ep.rank()].clone();
                let result =
                    crate::methods::composite(Method::TileStream, ep, &mut img, &depth).unwrap();
                assert!(result.dead_partners.is_empty());
                testutil::gather_exact(ep, &img, &result.piece, 0)
            });
            let final_img = out.results[0].clone().expect("root gathers");
            assert_eq!(
                final_img.max_abs_diff(&expect),
                0.0,
                "tile-stream must be bit-identical at P={p}"
            );
        }
    }

    /// On the real transport an owner's arrivals interleave differently
    /// from run to run; `T_comm` must not. Ten runs of one frame at
    /// P = 8, every rank's `comm_seconds` equal to the bit.
    #[test]
    fn comm_seconds_do_not_depend_on_arrival_order() {
        use vr_comm::{run_group, CostModel};
        let (p, depth) = (8, DepthOrder::identity(8));
        let images = testutil::test_images(p, 128, 96);
        let comm_bits = || -> Vec<u64> {
            run_group(p, CostModel::sp2(), |ep| {
                let mut img = images[ep.rank()].clone();
                let result =
                    crate::methods::composite(Method::TileStream, ep, &mut img, &depth).unwrap();
                result.stats.comm_seconds.to_bits()
            })
            .results
        };
        let first = comm_bits();
        assert!(first.iter().all(|&bits| f64::from_bits(bits) > 0.0));
        for run in 1..10 {
            assert_eq!(comm_bits(), first, "run {run}");
        }
    }
}
