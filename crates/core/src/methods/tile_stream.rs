//! Asynchronous tile-streamed compositing (`tile-stream`).
//!
//! The screen is cut into a row-major grid of square tiles
//! ([`DEFAULT_STREAM_TILE`] pixels on a side) and tile `t` is statically
//! assigned to the rank at position `t mod P` of the front-to-back
//! order — the same interleaved assignment BSLC uses for pixels, so
//! every owner holds a spread of tiles rather than one hot region. Each
//! rank walks its subimage tile by tile, encodes the tile's non-blank
//! runs with the RunSet wire format, and immediately sends them to the
//! tile's owner; a `DONE` sentinel closes each contributor→owner stream.
//! Owners fold arrivals as they land and gather exactly as the
//! bulk-synchronous methods do.
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
//! the sequential reference for *any* interleaving of arrivals.
//!
//! **Virtual time.** Under the virtual-clock transport each tile send is
//! stamped with the sender's cumulative modeled render cost
//! ([`MODELED_RENDER_SECONDS_PER_PIXEL`]), so delivery order is a pure
//! function of the schedule seed — the conformance sweep replays the
//! same stream under many seeds and pins the same image hash.
//!
//! **Degradation.** A contributor that dies mid-stream leaves its
//! unresolved slots empty: the owner sees the disconnect only after the
//! transport's already-delivered messages drain, marks every remaining
//! slot of that contributor as empty, and finishes — a transparent hole
//! at the dead rank's tiles, never a hang.

use bytes::Bytes;
use vr_comm::Endpoint;
use vr_image::{kernel, Image, MaskRle, Pixel, Rect};
use vr_volume::DepthOrder;

use crate::error::{try_recv_any, try_send_timed, AnyRecv, Checked, CompositeError, Malformed};
use crate::schedule::{tags, VirtualTopology};
use crate::stats::StageStat;
use crate::wire::{MsgReader, MsgWriter};

use super::swap::read_runs;
use super::{CompositeResult, OwnedPiece, Run};

/// Default streamed-tile edge in pixels (matches the renderer's default
/// screen tile, so one rendered tile maps to one streamed message).
pub const DEFAULT_STREAM_TILE: u16 = 32;

/// Modeled seconds of render time per non-blank pixel, used to stamp
/// each streamed tile with the virtual instant its render would have
/// finished. Only the virtual-clock transport consumes the stamp; its
/// absolute scale just has to be large enough relative to wire costs
/// that tile completion, not send issue order, drives delivery times.
pub const MODELED_RENDER_SECONDS_PER_PIXEL: f64 = 4.0e-5;

/// Modeled seconds to visit one tile regardless of content (macrocell
/// prescan + setup); keeps blank tiles from being free in the stamp.
pub const MODELED_TILE_VISIT_SECONDS: f64 = 2.0e-6;

/// Sentinel tile index closing one contributor→owner stream.
const DONE: u32 = u32::MAX;

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

/// Reusable scratch buffers for tile encoding (one per rank, reused
/// across every tile of the frame).
#[derive(Default)]
pub struct TileCodec {
    runs: vr_image::RunSet,
    codes: Vec<u16>,
}

/// One encoded streamed-tile message plus its cost counters.
pub struct EncodedTile {
    /// Wire payload: `[tile u32][ncodes u32][codes][pixels]`.
    pub payload: Bytes,
    /// Non-blank pixels carried.
    pub non_blank: usize,
    /// Run codes emitted.
    pub run_codes: usize,
}

/// Scans `rect` of `image` and encodes its non-blank runs as one
/// streamed tile message; `None` when the tile contributes nothing
/// (blank tiles are never sent — `over` with blank is the identity, so
/// skipping them is bit-exact).
pub fn encode_tile(
    image: &Image,
    rect: &Rect,
    tile: u32,
    scratch: &mut TileCodec,
) -> Option<EncodedTile> {
    scratch.runs.clear();
    let w = rect.width() as usize;
    for (row, y) in (rect.y0..rect.y1).enumerate() {
        kernel::scan_runs_into(image.row_span(rect.x0, y, w), row * w, &mut scratch.runs);
    }
    let non_blank = scratch.runs.non_blank_total();
    if non_blank == 0 {
        return None;
    }
    scratch
        .runs
        .encode_codes_into(rect.area(), &mut scratch.codes);
    let mut w = MsgWriter::with_capacity(
        8 + scratch.codes.len() * vr_image::BYTES_PER_RUN_CODE
            + non_blank * vr_image::BYTES_PER_PIXEL,
    );
    w.put_u32(tile);
    w.put_u32(scratch.codes.len() as u32);
    w.put_codes(&scratch.codes);
    for &(start, len) in scratch.runs.runs() {
        for_each_run_span(image, rect, start, len, |span| w.put_pixels(span));
    }
    Some(EncodedTile {
        payload: w.freeze(),
        non_blank,
        run_codes: scratch.codes.len(),
    })
}

impl EncodedTile {
    /// The pixel run at the payload's tail, still in wire form — with
    /// the scratch run table, the owner-is-self contribution without a
    /// wire round-trip or a copy.
    fn pixels(&self) -> Bytes {
        self.payload
            .slice(8 + self.run_codes * vr_image::BYTES_PER_RUN_CODE..)
    }
}

/// Decodes a streamed tile payload after the tile index has been read:
/// run codes that stay inside a tile of `area` pixels, then exactly the
/// non-blank pixels they announce, kept as a view of the payload.
fn decode_tile(r: &mut MsgReader, area: usize) -> Checked<(MaskRle, Bytes)> {
    let (mask, non_blank) = read_runs(r, area)?;
    let pixels = r.take_pixels(non_blank)?;
    r.finish()?;
    Ok((mask, pixels))
}

/// Walks a run of the tile-local row-major index space, mapping it back
/// to (clipped) image row spans.
fn for_each_run_span(
    image: &Image,
    rect: &Rect,
    start: usize,
    len: usize,
    mut f: impl FnMut(&[Pixel]),
) {
    let w = rect.width() as usize;
    let mut idx = start;
    let mut rem = len;
    while rem > 0 {
        let row = idx / w;
        let col = idx % w;
        let take = rem.min(w - col);
        f(image.row_span(rect.x0 + col as u16, rect.y0 + row as u16, take));
        idx += take;
        rem -= take;
    }
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
pub struct TileAccum {
    rect: Rect,
    acc: Vec<Pixel>,
    slots: Vec<Slot>,
    /// First virtual rank not yet folded into `acc`.
    next_v: usize,
    ops: u64,
}

impl TileAccum {
    /// A blank accumulator for `rect` awaiting `p` contributors.
    pub fn new(rect: Rect, p: usize) -> TileAccum {
        TileAccum {
            rect,
            acc: vec![Pixel::BLANK; rect.area()],
            slots: (0..p).map(|_| Slot::Unknown).collect(),
            next_v: 0,
            ops: 0,
        }
    }

    /// The tile's screen rectangle.
    pub fn rect(&self) -> &Rect {
        &self.rect
    }

    /// The accumulated pixels (final once [`TileAccum::is_complete`]).
    pub fn pixels(&self) -> &[Pixel] {
        &self.acc
    }

    /// `over` operations applied so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// True once every contributor has been folded.
    pub fn is_complete(&self) -> bool {
        self.next_v == self.slots.len()
    }

    /// Whether contributor `v` has already been resolved.
    pub fn is_resolved(&self, v: usize) -> bool {
        v < self.next_v || !matches!(self.slots[v], Slot::Unknown)
    }

    /// Records contributor `v`'s non-blank runs for this tile.
    pub fn resolve_content(&mut self, v: usize, mask: MaskRle, pixels: Bytes) {
        debug_assert!(!self.is_resolved(v), "contributor {v} resolved twice");
        self.slots[v] = Slot::Content { mask, pixels };
        self.advance();
    }

    /// Records that contributor `v` has nothing for this tile (explicit
    /// `DONE`, or the contributor died before sending it).
    pub fn resolve_empty(&mut self, v: usize) {
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

/// Runs tile-streamed compositing with the default tile size.
pub fn run(
    ep: &mut Endpoint,
    image: &mut Image,
    depth: &DepthOrder,
) -> Result<CompositeResult, CompositeError> {
    run_with_tile(ep, image, depth, DEFAULT_STREAM_TILE)
}

/// Runs tile-streamed compositing with an explicit tile size. The final
/// image is invariant to `tile` (only message granularity changes).
pub fn run_with_tile(
    ep: &mut Endpoint,
    image: &mut Image,
    depth: &DepthOrder,
    tile: u16,
) -> Result<CompositeResult, CompositeError> {
    if VirtualTopology::from_depth(ep.rank(), depth).vsize() == 1 {
        let run = Run::begin(ep);
        return Ok(run.finish(ep, OwnedPiece::Rect(image.full_rect())));
    }
    // The bulk path "completes" tiles in index order; the fused
    // render+composite runner in vr-system drives the same state
    // machine out of its render pool instead, offering tiles in
    // whatever order they finish rendering.
    let mut ts = TileStream::begin(ep, image.width(), image.height(), depth, tile);
    for t in 0..ts.tiles().len() {
        let rect = ts.tiles()[t];
        ts.offer(ep, t, image, &rect)?;
    }
    ts.finish(ep, image)
}

/// The streamed-compositing state machine, split out so external
/// drivers (the fused render+composite runner) can interleave tile
/// production with the protocol:
///
/// 1. [`TileStream::begin`] fixes the tile grid and ownership map;
/// 2. [`TileStream::offer`] encodes and ships (or self-resolves) one
///    finished tile — call it once per tile, in *any* order; tiles
///    never offered are treated as blank;
/// 3. [`TileStream::finish`] closes the streams, folds remaining
///    arrivals, writes this rank's owned tiles into the framebuffer and
///    returns the gatherable piece with its statistics.
pub struct TileStream {
    run: Run,
    topo: VirtualTopology,
    v: usize,
    p: usize,
    owners: usize,
    vrank_of: Vec<usize>,
    tiles: Vec<Rect>,
    accums: Vec<TileAccum>,
    progress: Progress,
    stat: StageStat,
    scratch: TileCodec,
    modeled_render: f64,
}

impl TileStream {
    /// Starts a streamed run over a `width` × `height` frame cut into
    /// `tile`-px tiles. Works at any group size, including 1.
    pub fn begin(
        ep: &mut Endpoint,
        width: u16,
        height: u16,
        depth: &DepthOrder,
        tile: u16,
    ) -> TileStream {
        let run = Run::begin(ep);
        let topo = VirtualTopology::from_depth(ep.rank(), depth);
        let (v, p) = (topo.vrank(), topo.vsize());
        let tiles = tile_grid(width, height, tile);
        let owners = p.min(tiles.len());
        let mut vrank_of = vec![0usize; p];
        for (i, &r) in depth.front_to_back().iter().enumerate() {
            vrank_of[r] = i;
        }
        // Accumulators for this rank's owned tiles: tile `t` with
        // `t % p == v` lands in slot `t / p`.
        let accums: Vec<TileAccum> = tiles
            .iter()
            .enumerate()
            .filter(|&(t, _)| t % p == v)
            .map(|(_, r)| TileAccum::new(*r, p))
            .collect();
        let progress = Progress::new(accums.len(), ep.now());
        TileStream {
            run,
            topo,
            v,
            p,
            owners,
            vrank_of,
            tiles,
            accums,
            progress,
            stat: StageStat::default(),
            scratch: TileCodec::default(),
            modeled_render: 0.0,
        }
    }

    /// The row-major tile grid every rank derived identically.
    pub fn tiles(&self) -> &[Rect] {
        &self.tiles
    }

    /// Offers the finished pixels of tile `t`: encodes its non-blank
    /// runs and sends them to the owner (or resolves them locally when
    /// this rank owns the tile). `rect` locates the tile's pixels inside
    /// `img` — the global tile rect when `img` is a full subimage, or
    /// the origin rect when `img` is a tile-local buffer; it must have
    /// the tile's dimensions either way.
    pub fn offer(
        &mut self,
        ep: &mut Endpoint,
        t: usize,
        img: &Image,
        rect: &Rect,
    ) -> Result<(), CompositeError> {
        debug_assert_eq!(
            (rect.width(), rect.height()),
            (self.tiles[t].width(), self.tiles[t].height()),
            "offered rect must have tile {t}'s dimensions"
        );
        let TileStream { run, scratch, .. } = self;
        let enc = run
            .encode
            .time(|| encode_tile(img, rect, t as u32, scratch));
        self.stat.encoded_pixels += rect.area() as u64;
        self.modeled_render += MODELED_TILE_VISIT_SECONDS;
        let owner = t % self.p;
        let Some(enc) = enc else {
            if owner == self.v {
                let (slot, v) = (t / self.p, self.v);
                let TileStream { run, accums, .. } = self;
                run.comp.time(|| accums[slot].resolve_empty(v));
                self.progress.note(&self.accums, slot, ep);
            }
            return Ok(());
        };
        self.modeled_render += MODELED_RENDER_SECONDS_PER_PIXEL * enc.non_blank as f64;
        self.stat.run_codes += enc.run_codes as u64;
        if owner == self.v {
            let (slot, v) = (t / self.p, self.v);
            let (mask, pixels) = (self.scratch.runs.to_rle(), enc.pixels());
            let TileStream { run, accums, .. } = self;
            run.comp
                .time(|| accums[slot].resolve_content(v, mask, pixels));
            self.progress.note(&self.accums, slot, ep);
        } else {
            let bytes = enc.payload.len() as u64;
            if try_send_timed(
                ep,
                self.topo.real(owner),
                tags::TILE,
                enc.payload,
                self.modeled_render,
                &mut self.run.dead,
                "tile stream send",
            )? {
                self.stat.sent_bytes += bytes;
                self.stat.sent_msgs += 1;
            }
        }
        Ok(())
    }

    /// Closes this rank's streams, folds arrivals until every
    /// contributor finishes, writes the owned tiles into `image` and
    /// returns the composited piece. Owned tiles this rank never
    /// offered resolve as blank (the fused runner offers only tiles
    /// inside its block footprint).
    pub fn finish(
        mut self,
        ep: &mut Endpoint,
        image: &mut Image,
    ) -> Result<CompositeResult, CompositeError> {
        {
            let TileStream {
                run,
                accums,
                progress,
                v,
                ..
            } = &mut self;
            run.comp.time(|| {
                for a in accums.iter_mut() {
                    a.resolve_empty(*v);
                }
            });
            progress.note_all(accums, ep);
        }
        // Close our stream to every owner.
        for u in 0..self.owners {
            if u == self.v {
                continue;
            }
            let mut w = MsgWriter::with_capacity(4);
            w.put_u32(DONE);
            if try_send_timed(
                ep,
                self.topo.real(u),
                tags::TILE,
                w.freeze(),
                self.modeled_render,
                &mut self.run.dead,
                "tile stream done",
            )? {
                self.stat.sent_bytes += 4;
                self.stat.sent_msgs += 1;
            }
        }

        // Receive phase: owners fold arrivals until every contributor's
        // stream closes (DONE) or its endpoint drains and disconnects.
        //
        // Every other rank is awaited even if a send to it already
        // failed: its *successfully delivered* messages must still be
        // drained (the transport only reports a disconnect once its
        // queue is empty), or they would surface as tag mismatches in
        // the gather.
        let (v, p) = (self.v, self.p);
        if !self.accums.is_empty() && p > 1 {
            let mut awaiting: Vec<bool> = (0..ep.size()).map(|r| r != ep.rank()).collect();
            let mut remaining = ep.size() - 1;
            while remaining > 0 {
                match try_recv_any(
                    ep,
                    &awaiting,
                    tags::TILE,
                    &mut self.run.dead,
                    "tile stream recv",
                )? {
                    AnyRecv::Message(src, bytes) => {
                        self.stat.recv_bytes += bytes.len() as u64;
                        self.stat.recv_msgs += 1;
                        let malformed = |m: Malformed| m.at("tile stream recv", src);
                        let mut r = MsgReader::new(bytes);
                        let t = r.get_u32().map_err(malformed)?;
                        let sv = self.vrank_of[src];
                        if t == DONE {
                            r.finish().map_err(malformed)?;
                            awaiting[src] = false;
                            remaining -= 1;
                            let TileStream { run, accums, .. } = &mut self;
                            run.comp.time(|| {
                                for a in accums.iter_mut() {
                                    a.resolve_empty(sv);
                                }
                            });
                            self.progress.note_all(&self.accums, ep);
                        } else {
                            // A tile this rank owns, not yet heard from `src`.
                            let slot = t as usize / p;
                            let ours = t as usize % p == v
                                && self.accums.get(slot).is_some_and(|a| !a.is_resolved(sv));
                            Malformed::unless(ours).map_err(malformed)?;
                            let area = self.accums[slot].rect().area();
                            let (mask, pixels) = decode_tile(&mut r, area).map_err(malformed)?;
                            let TileStream { run, accums, .. } = &mut self;
                            run.comp
                                .time(|| accums[slot].resolve_content(sv, mask, pixels));
                            self.progress.note(&self.accums, slot, ep);
                        }
                    }
                    AnyRecv::PeerDied(src) => {
                        awaiting[src] = false;
                        remaining -= 1;
                        let sv = self.vrank_of[src];
                        let TileStream { run, accums, .. } = &mut self;
                        run.comp.time(|| {
                            for a in accums.iter_mut() {
                                a.resolve_empty(sv);
                            }
                        });
                        self.progress.note_all(&self.accums, ep);
                    }
                }
            }
        }
        for a in &self.accums {
            debug_assert!(a.is_complete());
            image.write_rect(a.rect(), a.pixels());
            self.stat.composite_ops += a.ops();
        }

        let piece = if self.accums.is_empty() {
            OwnedPiece::Nothing
        } else {
            OwnedPiece::Rects(self.accums.iter().map(|a| *a.rect()).collect())
        };
        self.run.stages.push(self.stat);
        let (first, last) = self.progress.into_offsets();
        let mut result = self.run.finish(ep, piece);
        result.stats.first_tile_seconds = first;
        result.stats.last_tile_seconds = last;
        Ok(result)
    }
}

/// Tracks when owned tiles finish accumulating, on the transport's own
/// clock ([`Endpoint::now`]: wall seconds on real channels, virtual
/// seconds under a schedule seed — there the offsets replay exactly).
struct Progress {
    done: Vec<bool>,
    start: f64,
    first: Option<f64>,
    last: Option<f64>,
}

impl Progress {
    fn new(n: usize, start: f64) -> Progress {
        Progress {
            done: vec![false; n],
            start,
            first: None,
            last: None,
        }
    }

    fn note(&mut self, accums: &[TileAccum], slot: usize, ep: &Endpoint) {
        if !self.done[slot] && accums[slot].is_complete() {
            self.done[slot] = true;
            let at = ep.now() - self.start;
            self.first.get_or_insert(at);
            self.last = Some(at);
        }
    }

    fn note_all(&mut self, accums: &[TileAccum], ep: &Endpoint) {
        for slot in 0..self.done.len() {
            self.note(accums, slot, ep);
        }
    }

    fn into_offsets(self) -> (Option<f64>, Option<f64>) {
        (self.first, self.last)
    }
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

    #[test]
    fn encode_decode_round_trip() {
        let mut img = Image::blank(40, 20);
        img.set(3, 2, Pixel::gray(0.5, 0.5));
        img.set(4, 2, Pixel::gray(0.25, 1.0));
        img.set(39, 19, Pixel::gray(1.0, 1.0));
        let mut scratch = TileCodec::default();
        for (t, rect) in tile_grid(40, 20, 32).iter().enumerate() {
            let Some(enc) = encode_tile(&img, rect, t as u32, &mut scratch) else {
                continue;
            };
            // The wire payload and the local shortcut must agree.
            let (lmask, lpix) = (scratch.runs.to_rle(), enc.pixels());
            let mut r = MsgReader::new(enc.payload);
            assert_eq!(r.get_u32(), Ok(t as u32));
            let (mask, pixels) = decode_tile(&mut r, rect.area()).unwrap();
            assert_eq!(mask.codes(), lmask.codes());
            assert_eq!(pixels, lpix);
            assert_eq!(pixels.len(), enc.non_blank * vr_image::BYTES_PER_PIXEL);
            assert_eq!(r.remaining(), 0);
        }
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
                let mut scratch = TileCodec::default();
                let enc = encode_tile(&img, &rect, 0, &mut scratch).unwrap();
                let mut r = MsgReader::new(enc.payload);
                r.get_u32().unwrap();
                decode_tile(&mut r, rect.area()).unwrap()
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
                None => reference = Some(acc.pixels().to_vec()),
                Some(r) => assert_eq!(acc.pixels(), &r[..], "order {order:?}"),
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
                crate::gather::gather_image(ep, &img, &result.piece, 0)
            });
            let final_img = out.results[0].clone().expect("root gathers");
            assert_eq!(
                final_img.max_abs_diff(&expect),
                0.0,
                "tile-stream must be bit-identical at P={p}"
            );
        }
    }
}
