//! Rendering-phase acceleration: macrocell empty-space skipping, an exact
//! transfer-function LUT, and tiled footprint traversal.
//!
//! Everything in this module is **bit-identical** to the naive ray caster
//! by construction, not by tolerance:
//!
//! * The sample parameter `t` advances through the *same* sequence of
//!   `t += step` additions as the naive loop, even across skipped cells
//!   (floating-point addition is not associative, so a closed-form jump
//!   would shift later sample positions). A skipped region costs one
//!   `fadd` + `fcmp` per step instead of a trilinear fetch, a transfer
//!   classification and a `powf`.
//! * A macrocell is skipped only when the transfer function's *exact*
//!   maximum over the cell's margin-expanded density range is `<= 0`
//!   (and the opacity cutoff is non-negative). Zero opacity gives
//!   per-sample opacity `1 − 1^step = 0` — `powf(1, s) == 1` exactly in
//!   IEEE 754 — which never passes the `a > cutoff` contribution test, so
//!   no skipped sample could have contributed.
//! * The LUT bins either reproduce the original piecewise-linear formula
//!   with the original operands (`Flat`/`Seg`) or fall back to the
//!   original evaluation (`Dirty`); there is no resampled approximation.
//! * Samples inside active cells whose unit opacity is exactly zero skip
//!   the rest of the sample body (`powf`, intensity, shading test): their
//!   per-sample opacity is `1 − 1^step = 0` exactly, which cannot pass a
//!   non-negative cutoff, so the skipped body is a no-op. Negative
//!   cutoffs disable this shortcut along with cell skipping.
//! * Tiles are culled only when no active macrocell intersecting the clip
//!   box projects into them; rays through culled tiles could only have
//!   produced blank pixels, which the naive path never writes either.
//!
//! The differential proptests in `tests/proptests.rs` enforce the
//! bit-identity end to end.

use std::sync::{Arc, Mutex};

use vr_image::{Image, Pixel, Rect};
use vr_volume::{MacrocellGrid, Subvolume, TransferFunction, Vec3, Volume};

use crate::camera::Camera;
use crate::params::{RenderParams, MAX_SIMD_LANES};
use crate::pool::RenderPool;
use crate::raycast::shade;

/// Default screen-tile edge length, in pixels.
pub const DEFAULT_TILE_SIZE: usize = 32;

// ---------------------------------------------------------------------------
// Transfer-function LUT
// ---------------------------------------------------------------------------

/// One density bin `[b, b+1)` of the LUT.
#[derive(Clone, Copy, Debug)]
enum Bin {
    /// Opacity is constant over the bin (a clamp region).
    Flat(f32),
    /// A single transfer-function segment covers the bin; evaluating it
    /// with these operands is the exact computation the original
    /// interpolation performs.
    Seg { d0: f32, o0: f32, d1: f32, o1: f32 },
    /// A control point lies strictly inside the bin — fall back to the
    /// original evaluation.
    Dirty,
}

/// A 256-bin opacity lookup table that is *bit-identical* to
/// [`TransferFunction::opacity`] for every density a `u8` volume can
/// produce (trilinear interpolation stays within `[0, 255]`).
///
/// Rebuild it whenever the transfer function changes; construction is a
/// few hundred comparisons.
#[derive(Clone, Debug)]
pub struct TfLut {
    bins: Vec<Bin>,
    scale: f32,
    transfer: TransferFunction,
}

impl TfLut {
    /// Precomputes the LUT for `transfer`.
    pub fn new(transfer: &TransferFunction) -> Self {
        let pts = transfer.points();
        let first = pts[0];
        let last = pts[pts.len() - 1];
        let scale = transfer.opacity_scale;
        let bins = (0..256usize)
            .map(|b| {
                let b0 = b as f32;
                let b1 = (b + 1) as f32;
                if b0 >= last.0 {
                    // Every d in [b0, b1) takes the clamp-high branch.
                    Bin::Flat(last.1 * scale)
                } else if b1 <= first.0 {
                    // Every d < b1 <= first density takes clamp-low.
                    Bin::Flat(first.1 * scale)
                } else if b0 > first.0 && b1 <= last.0 && !pts.iter().any(|p| p.0 > b0 && p.0 < b1)
                {
                    // The interior branch runs with the same segment for
                    // the whole bin: partition_point(p.0 <= d) is constant
                    // because no control point lies in (b0, b1).
                    let i = pts.partition_point(|p| p.0 <= b0);
                    Bin::Seg {
                        d0: pts[i - 1].0,
                        o0: pts[i - 1].1,
                        d1: pts[i].0,
                        o1: pts[i].1,
                    }
                } else {
                    Bin::Dirty
                }
            })
            .collect();
        TfLut {
            bins,
            scale,
            transfer: transfer.clone(),
        }
    }

    /// Opacity for a density sample; bit-identical to
    /// [`TransferFunction::opacity`].
    #[inline]
    pub fn opacity(&self, density: f32) -> f32 {
        if !(0.0..256.0).contains(&density) {
            return self.transfer.opacity(density);
        }
        match self.bins[(density as usize).min(255)] {
            Bin::Flat(o) => o,
            Bin::Seg { d0, o0, d1, o1 } => {
                let t = if d1 > d0 {
                    (density - d0) / (d1 - d0)
                } else {
                    0.0
                };
                (o0 + (o1 - o0) * t) * self.scale
            }
            Bin::Dirty => self.transfer.opacity(density),
        }
    }

    /// Classifies a sample into `(intensity, opacity)`; bit-identical to
    /// [`TransferFunction::classify`].
    #[inline]
    pub fn classify(&self, density: f32) -> (f32, f32) {
        (
            self.transfer.intensity(density),
            self.opacity(density).clamp(0.0, 1.0),
        )
    }

    /// Intensity for a density sample; identical to
    /// [`TransferFunction::intensity`].
    #[inline]
    pub fn intensity(&self, density: f32) -> f32 {
        self.transfer.intensity(density)
    }
}

// ---------------------------------------------------------------------------
// Per-cell classification
// ---------------------------------------------------------------------------

/// A reusable acceleration context: a macrocell grid (per volume, built
/// once), its per-cell transparency classification (per transfer function
/// and params — cheap, recompute on TF change) and the TF LUT.
#[derive(Clone, Debug)]
pub struct RenderAccel {
    grid: Arc<MacrocellGrid>,
    lut: TfLut,
    active: Vec<bool>,
    n_active: usize,
}

impl RenderAccel {
    /// Classifies every cell of `grid` under `transfer` and `params`.
    ///
    /// A cell is *inactive* (skippable) only when the exact interval
    /// maximum of the transfer function over the cell's density range is
    /// `<= 0` and `params.opacity_cutoff >= 0` — the conditions under
    /// which no sample attributed to the cell can pass the `a > cutoff`
    /// contribution test, independent of `powf` rounding.
    pub fn new(
        grid: Arc<MacrocellGrid>,
        transfer: &TransferFunction,
        params: &RenderParams,
    ) -> Self {
        let lut = TfLut::new(transfer);
        // A negative cutoff admits zero-opacity samples, so nothing is
        // provably skippable.
        let all_active = params.opacity_cutoff < 0.0;
        let active: Vec<bool> = (0..grid.len())
            .map(|i| {
                if all_active {
                    return true;
                }
                let (mn, mx) = grid.range(i);
                transfer.max_opacity_in(mn as f32, mx as f32) > 0.0
            })
            .collect();
        let n_active = active.iter().filter(|&&a| a).count();
        RenderAccel {
            grid,
            lut,
            active,
            n_active,
        }
    }

    /// The underlying macrocell grid.
    pub fn grid(&self) -> &MacrocellGrid {
        &self.grid
    }

    /// The transfer-function LUT.
    pub fn lut(&self) -> &TfLut {
        &self.lut
    }

    /// Fraction of cells that may contribute (1.0 = nothing skippable).
    pub fn active_fraction(&self) -> f64 {
        if self.active.is_empty() {
            return 0.0;
        }
        self.n_active as f64 / self.active.len() as f64
    }

    #[inline]
    fn is_active(&self, cx: usize, cy: usize, cz: usize) -> bool {
        self.active[self.grid.cell_index(cx, cy, cz)]
    }

    /// Marks every screen tile that an active cell intersecting `clip`
    /// projects into. `grid_origin` is where the grid's volume sits in
    /// global voxel space (non-zero for locally held blocks).
    pub fn tile_mask(
        &self,
        camera: &Camera,
        grid_origin: [usize; 3],
        clip: &Subvolume,
        tile: usize,
    ) -> TileMask {
        let mut mask = TileMask::new(camera.width, camera.height, tile);
        let cs = self.grid.cell_size();
        let cells = self.grid.cells();
        let vdims = self.grid.dims();
        let mut c_lo = [0usize; 3];
        let mut c_hi = [0usize; 3];
        for a in 0..3 {
            let lo_local = clip.origin[a].saturating_sub(grid_origin[a]);
            let hi_local = (clip.origin[a] + clip.dims[a]).saturating_sub(grid_origin[a]);
            c_lo[a] = (lo_local / cs).min(cells[a]);
            c_hi[a] = hi_local.div_ceil(cs).min(cells[a]);
        }
        for cz in c_lo[2]..c_hi[2] {
            for cy in c_lo[1]..c_hi[1] {
                for cx in c_lo[0]..c_hi[0] {
                    if !self.is_active(cx, cy, cz) {
                        continue;
                    }
                    // Global box of (cell ∩ volume) ∩ clip, expanded by one
                    // voxel against sample-attribution slack.
                    let c = [cx, cy, cz];
                    let mut origin = [0usize; 3];
                    let mut dims = [0usize; 3];
                    let mut empty = false;
                    for a in 0..3 {
                        let g0 = (grid_origin[a] + c[a] * cs).max(clip.origin[a]);
                        let g1 = (grid_origin[a] + ((c[a] + 1) * cs).min(vdims[a]))
                            .min(clip.origin[a] + clip.dims[a]);
                        if g0 >= g1 {
                            empty = true;
                            break;
                        }
                        origin[a] = g0.saturating_sub(1);
                        dims[a] = g1 + 1 - origin[a];
                    }
                    if !empty {
                        mask.mark(camera.footprint(origin, dims));
                    }
                }
            }
        }
        mask
    }
}

// ---------------------------------------------------------------------------
// Tile mask
// ---------------------------------------------------------------------------

/// A boolean grid of `tile × tile` pixel tiles over the image.
#[derive(Clone, Debug)]
pub struct TileMask {
    tile: usize,
    tx: usize,
    ty: usize,
    bits: Vec<bool>,
    marked: usize,
}

impl TileMask {
    fn new(width: u16, height: u16, tile: usize) -> Self {
        assert!(tile >= 1, "tile size must be at least 1 pixel");
        let tx = (width as usize).div_ceil(tile).max(1);
        let ty = (height as usize).div_ceil(tile).max(1);
        TileMask {
            tile,
            tx,
            ty,
            bits: vec![false; tx * ty],
            marked: 0,
        }
    }

    /// Marks every tile overlapping `rect`.
    fn mark(&mut self, rect: Rect) {
        if rect.is_empty() {
            return;
        }
        let tx0 = rect.x0 as usize / self.tile;
        let ty0 = rect.y0 as usize / self.tile;
        let tx1 = ((rect.x1 as usize - 1) / self.tile).min(self.tx - 1);
        let ty1 = ((rect.y1 as usize - 1) / self.tile).min(self.ty - 1);
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                let i = ty * self.tx + tx;
                if !self.bits[i] {
                    self.bits[i] = true;
                    self.marked += 1;
                }
            }
        }
    }

    /// Tile edge length in pixels.
    pub fn tile_size(&self) -> usize {
        self.tile
    }

    /// Whether any tile is marked.
    pub fn any(&self) -> bool {
        self.marked > 0
    }

    /// Number of marked tiles (of [`TileMask::len`]).
    pub fn marked_count(&self) -> usize {
        self.marked
    }

    /// Total number of tiles.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the mask has no tiles (images are never zero-sized).
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Whether the tile containing pixel `(x, y)` is marked.
    #[inline]
    pub fn covers(&self, x: u16, y: u16) -> bool {
        let tx = (x as usize / self.tile).min(self.tx - 1);
        let ty = (y as usize / self.tile).min(self.ty - 1);
        self.bits[ty * self.tx + tx]
    }

    #[inline]
    fn tile_marked(&self, tx: usize, ty: usize) -> bool {
        self.bits[ty * self.tx + tx]
    }
}

// ---------------------------------------------------------------------------
// Unified clipped renderer
// ---------------------------------------------------------------------------

/// Renders rays through `clip` (global voxel coordinates), sampling from
/// `volume` which sits at `placement` in the global grid. This is the one
/// integration loop behind both the shared-volume and the local-block
/// render paths; `accel = None, tile = 0` is the naive reference,
/// `Some(accel)` enables macrocell skipping, and `tile >= 1` additionally
/// culls whole screen tiles after a macrocell prescan.
///
/// `pool` is an optional persistent [`RenderPool`] for the banded tile
/// scheduler. With more than one render thread — from the pool, or from
/// `params.render_threads` when no pool is given (a transient pool is
/// spun up) — the live screen tiles (or row bands, when tile culling is
/// off) are fanned across the threads, each item writing only its own
/// disjoint pixel rows. Every configuration is **bit-identical** to the
/// single-threaded render.
#[allow(clippy::too_many_arguments)]
pub fn render_clipped_into_pool(
    volume: &Volume,
    placement: &Subvolume,
    clip: &Subvolume,
    transfer: &TransferFunction,
    camera: &Camera,
    params: &RenderParams,
    accel: Option<&RenderAccel>,
    tile: usize,
    pool: Option<&RenderPool>,
    image: &mut Image,
) {
    // Tiles larger than the image index space degenerate to one tile.
    let tile = tile.min(u16::MAX as usize);
    assert_eq!(
        volume.dims(),
        placement.dims,
        "local volume must match the placement dims"
    );
    for axis in 0..3 {
        assert!(
            clip.origin[axis] >= placement.origin[axis]
                && clip.origin[axis] + clip.dims[axis]
                    <= placement.origin[axis] + placement.dims[axis],
            "clip box must lie inside the placement box"
        );
    }
    if let Some(acc) = accel {
        assert_eq!(
            acc.grid().dims(),
            volume.dims(),
            "acceleration grid was built for a different volume"
        );
    }
    let frame = Vec3::new(
        placement.origin[0] as f32,
        placement.origin[1] as f32,
        placement.origin[2] as f32,
    );
    let lo = Vec3::new(
        clip.origin[0] as f32,
        clip.origin[1] as f32,
        clip.origin[2] as f32,
    );
    let hi = lo
        + Vec3::new(
            clip.dims[0] as f32,
            clip.dims[1] as f32,
            clip.dims[2] as f32,
        );
    let footprint = camera.footprint(clip.origin, clip.dims);

    let cast = |x: u16, y: u16| -> Option<Pixel> {
        let (t0, t1) = camera.ray_box(x, y, lo, hi)?;
        let p = integrate(volume, frame, transfer, camera, params, accel, x, y, t0, t1);
        (!p.is_blank()).then_some(p)
    };

    // Work decomposition: the pixel rect of every live tile in tiled
    // mode, fixed-height row bands otherwise. Threaded or not, the same
    // items are traversed in the same per-item pixel order; threading
    // only changes which thread runs which item, and no two items share
    // a pixel.
    let items = match accel {
        Some(acc) if tile >= 1 => {
            let mask = acc.tile_mask(camera, placement.origin, clip, tile);
            if !mask.any() {
                return;
            }
            tile_items(&footprint, &mask)
        }
        _ => row_bands(&footprint, DEFAULT_TILE_SIZE as u16),
    };

    let transient;
    let pool = match pool {
        Some(p) => Some(p),
        None if params.render_threads > 1 => {
            transient = RenderPool::new(params.render_threads);
            Some(&transient)
        }
        None => None,
    };
    match pool {
        Some(pool) if pool.threads() > 1 && items.len() > 1 => {
            render_items_pooled(image, &items, pool, &cast);
        }
        _ => {
            for r in &items {
                for y in r.y0..r.y1 {
                    for x in r.x0..r.x1 {
                        if let Some(p) = cast(x, y) {
                            image.set(x, y, p);
                        }
                    }
                }
            }
        }
    }
}

/// Collects the pixel rectangle of every *live* screen tile: marked in
/// `mask` and overlapping `footprint`. Every live tile is emitted
/// exactly once, dead tiles are never emitted, and edge tiles are
/// clamped to the footprint (whose width and height need not divide the
/// tile size). The rectangles are pairwise disjoint — the basis of the
/// threaded renderer's lock-free disjoint-write guarantee.
fn tile_items(footprint: &Rect, mask: &TileMask) -> Vec<Rect> {
    let mut items = Vec::new();
    if footprint.is_empty() {
        return items;
    }
    let ts = mask.tile_size() as u16;
    let ty0 = footprint.y0 / ts;
    let tx0 = footprint.x0 / ts;
    for tyi in ty0..=(footprint.y1.saturating_sub(1) / ts) {
        for txi in tx0..=(footprint.x1.saturating_sub(1) / ts) {
            if !mask.tile_marked(txi as usize, tyi as usize) {
                continue;
            }
            let r = footprint.intersect(&Rect::new(
                txi * ts,
                tyi * ts,
                (txi + 1).saturating_mul(ts).min(footprint.x1),
                (tyi + 1).saturating_mul(ts).min(footprint.y1),
            ));
            if !r.is_empty() {
                items.push(r);
            }
        }
    }
    items
}

/// Splits `footprint` into horizontal bands of at most `rows` pixel rows
/// — the work decomposition when tile culling is off. Bands partition
/// the footprint: disjoint, covering, in top-to-bottom order.
fn row_bands(footprint: &Rect, rows: u16) -> Vec<Rect> {
    let mut bands = Vec::new();
    if footprint.is_empty() {
        return bands;
    }
    let rows = rows.max(1);
    let mut y = footprint.y0;
    while y < footprint.y1 {
        let y1 = footprint.y1.min(y.saturating_add(rows));
        bands.push(Rect::new(footprint.x0, y, footprint.x1, y1));
        y = y1;
    }
    bands
}

/// Raw shared view of an image's pixel buffer for the disjoint-rect
/// writers of the threaded render.
struct SharedPixels {
    ptr: *mut Pixel,
    width: usize,
}

// SAFETY: every write targets a pixel owned by exactly one work item
// (the item rects are pairwise disjoint), so concurrent use never
// aliases a pixel.
unsafe impl Sync for SharedPixels {}

impl SharedPixels {
    /// # Safety
    /// `(x, y)` must lie inside the calling work item's own rect.
    unsafe fn write(&self, x: u16, y: u16, p: Pixel) {
        unsafe { *self.ptr.add(y as usize * self.width + x as usize) = p };
    }
}

/// Fans disjoint-rect work items across the pool. Each item writes only
/// its own pixels, so the framebuffer needs no locking: items write
/// through a shared raw pointer, and each records the tight bounds of
/// its non-blank writes. The merged bounds re-arm the image's O(1)
/// bounding-rect hint with exactly the rectangle the sequential render
/// would have grown through `Image::set` (only non-blank pixels are ever
/// written, so bounds only grow and the merge order is immaterial).
fn render_items_pooled(
    image: &mut Image,
    items: &[Rect],
    pool: &RenderPool,
    cast: &(dyn Fn(u16, u16) -> Option<Pixel> + Sync),
) {
    // Tight bounds of any pre-existing content, captured before raw
    // buffer access drops the image's hint.
    let prior = image.bounding_rect();
    let width = image.width() as usize;
    let shared = SharedPixels {
        ptr: image.pixels_mut().as_mut_ptr(),
        width,
    };
    let item_bounds: Vec<Mutex<Rect>> = items.iter().map(|_| Mutex::new(Rect::EMPTY)).collect();
    pool.run(items.len(), &|i| {
        let r = items[i];
        let mut bounds = Rect::EMPTY;
        for y in r.y0..r.y1 {
            for x in r.x0..r.x1 {
                if let Some(p) = cast(x, y) {
                    // SAFETY: (x, y) lies inside item i's rect, and the
                    // item rects are pairwise disjoint, so no other
                    // thread ever touches this pixel.
                    unsafe { shared.write(x, y, p) };
                    bounds.include(x, y);
                }
            }
        }
        *item_bounds[i].lock().unwrap() = bounds;
    });
    let merged = item_bounds
        .into_iter()
        .fold(prior, |acc, b| acc.union(&b.into_inner().unwrap()));
    image.assert_bounds(merged);
}

/// One ray-sample step: classify, shade, accumulate. Returns `true` when
/// early ray termination fires. Shared verbatim by the naive and the
/// accelerated loops so their contributing samples run identical code.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn sample_step(
    volume: &Volume,
    pos: Vec3,
    classify: (f32, f32),
    params: &RenderParams,
    color: &mut [f32; 3],
    alpha: &mut f32,
) -> bool {
    let (intensity, alpha_unit) = classify;
    let a = params.step_opacity(alpha_unit);
    if a > params.opacity_cutoff {
        let shaded = shade(volume, pos, intensity, params);
        let w = (1.0 - *alpha) * a;
        color[0] += w * shaded * params.tint[0];
        color[1] += w * shaded * params.tint[1];
        color[2] += w * shaded * params.tint[2];
        *alpha += w;
        if *alpha >= params.early_termination_alpha {
            return true;
        }
    }
    false
}

/// Integrates one ray over `[t0, t1]` front-to-back, optionally walking
/// macrocells to skip provably transparent stretches.
#[allow(clippy::too_many_arguments)]
fn integrate(
    volume: &Volume,
    frame: Vec3,
    transfer: &TransferFunction,
    camera: &Camera,
    params: &RenderParams,
    accel: Option<&RenderAccel>,
    x: u16,
    y: u16,
    t0: f32,
    t1: f32,
) -> Pixel {
    let (ray_o, dir) = camera.ray(x, y);
    let mut color = [0.0f32; 3];
    let mut alpha = 0.0f32;
    // Start half a step in so samples sit inside the slab.
    let mut t = t0 + params.step * 0.5;
    match accel {
        None => {
            while t < t1 {
                let pos = ray_o + dir * t - frame;
                let c = transfer.classify(volume.sample(pos));
                if sample_step(volume, pos, c, params, &mut color, &mut alpha) {
                    break;
                }
                t += params.step;
            }
        }
        Some(acc) => {
            let grid = acc.grid();
            let lut = acc.lut();
            // Amanatides–Woo DDA over the macrocell grid. The walk is
            // incremental — one add and a three-way min per crossing —
            // instead of re-deriving the cell and its slab exit from
            // scratch each time. Cell attribution therefore comes from
            // the parametric crossing values, whose ulp-level deviation
            // from the geometric cell is covered by the macrocell
            // margins; sample positions are untouched.
            let admit_zero = params.opacity_cutoff < 0.0;
            let lanes = params.simd_lanes.clamp(1, MAX_SIMD_LANES);
            let o = [ray_o.x - frame.x, ray_o.y - frame.y, ray_o.z - frame.z];
            let d = [dir.x, dir.y, dir.z];
            let cs = grid.cell_size() as f32;
            let inv_cs = 1.0 / cs;
            let cells = grid.cells();
            let mut c = [
                cell_at(o[0] + d[0] * t, inv_cs, cells[0]),
                cell_at(o[1] + d[1] * t, inv_cs, cells[1]),
                cell_at(o[2] + d[2] * t, inv_cs, cells[2]),
            ];
            // Per-axis crossing parameter and its per-cell increment.
            let mut t_max = [f32::INFINITY; 3];
            let mut t_delta = [f32::INFINITY; 3];
            let mut c_step = [0isize; 3];
            for axis in 0..3 {
                let dv = d[axis];
                if dv.abs() < 1e-12 {
                    continue;
                }
                let inv = 1.0 / dv;
                c_step[axis] = if dv > 0.0 { 1 } else { -1 };
                t_delta[axis] = cs * inv.abs();
                let bound = if dv > 0.0 {
                    (c[axis] + 1) as f32 * cs
                } else {
                    c[axis] as f32 * cs
                };
                t_max[axis] = (bound - o[axis]) * inv;
            }
            'ray: while t < t1 {
                let t_seg = t_max[0].min(t_max[1]).min(t_max[2]).min(t1);
                if t < t_seg {
                    if acc.is_active(c[0], c[1], c[2]) {
                        if lanes > 1 {
                            // Lane-batched sampling: gather up to `lanes`
                            // sample parameters through the *exact* scalar
                            // `t += step` chain, evaluate density and unit
                            // opacity in fixed-width array lanes the
                            // autovectorizer can lift, then classify and
                            // accumulate strictly in scalar order. Early
                            // termination merely discards the precomputed
                            // (side-effect-free) later lanes, so the
                            // front-to-back `over` chain replays the
                            // scalar chain bit-for-bit.
                            loop {
                                let mut tv = [0.0f32; MAX_SIMD_LANES];
                                let mut n = 0;
                                loop {
                                    tv[n] = t;
                                    n += 1;
                                    t += params.step;
                                    if n == lanes || t >= t_seg {
                                        break;
                                    }
                                }
                                let mut density = [0.0f32; MAX_SIMD_LANES];
                                for (dst, &tl) in density[..n].iter_mut().zip(&tv[..n]) {
                                    *dst = volume.sample(ray_o + dir * tl - frame);
                                }
                                let mut unit = [0.0f32; MAX_SIMD_LANES];
                                for (dst, &dl) in unit[..n].iter_mut().zip(&density[..n]) {
                                    *dst = lut.opacity(dl).clamp(0.0, 1.0);
                                }
                                for i in 0..n {
                                    if unit[i] > 0.0 || admit_zero {
                                        let pos = ray_o + dir * tv[i] - frame;
                                        let cl = (lut.intensity(density[i]), unit[i]);
                                        if sample_step(
                                            volume, pos, cl, params, &mut color, &mut alpha,
                                        ) {
                                            break 'ray;
                                        }
                                    }
                                }
                                if t >= t_seg {
                                    break;
                                }
                            }
                        } else {
                            // Scalar reference: sample through the cell
                            // with the naive body, except that samples
                            // whose unit opacity is exactly zero skip it:
                            // they would compute a per-sample opacity of
                            // `1 − 1^step = 0`, which never passes a
                            // non-negative cutoff, so the naive body is a
                            // no-op for them (negative cutoffs disable the
                            // shortcut via `admit_zero`).
                            loop {
                                let pos = ray_o + dir * t - frame;
                                let density = volume.sample(pos);
                                let alpha_unit = lut.opacity(density).clamp(0.0, 1.0);
                                if alpha_unit > 0.0 || admit_zero {
                                    let cl = (lut.intensity(density), alpha_unit);
                                    if sample_step(volume, pos, cl, params, &mut color, &mut alpha)
                                    {
                                        break 'ray;
                                    }
                                }
                                t += params.step;
                                if t >= t_seg {
                                    break;
                                }
                            }
                        }
                    } else if t_seg >= t1 {
                        // Fast exit: the ray leaves through provably
                        // empty space — no later sample exists, so `t`
                        // need not be replayed to the end.
                        break 'ray;
                    } else {
                        // Replay the naive `t += step` sequence without
                        // sampling, keeping later samples bit-equal.
                        loop {
                            t += params.step;
                            if t >= t_seg {
                                break;
                            }
                        }
                    }
                }
                // Step across the nearest cell boundary (clamped at the
                // grid border; `t_max` still advances, so the walk always
                // terminates).
                let axis = if t_max[0] <= t_max[1] {
                    if t_max[0] <= t_max[2] {
                        0
                    } else {
                        2
                    }
                } else if t_max[1] <= t_max[2] {
                    1
                } else {
                    2
                };
                let nc = c[axis] as isize + c_step[axis];
                c[axis] = nc.clamp(0, cells[axis] as isize - 1) as usize;
                t_max[axis] += t_delta[axis];
            }
        }
    }
    Pixel::new(
        color[0].clamp(0.0, 1.0),
        color[1].clamp(0.0, 1.0),
        color[2].clamp(0.0, 1.0),
        alpha.clamp(0.0, 1.0),
    )
}

/// Maps a grid-local coordinate to a cell index, clamped into the grid.
/// Multiplies by the precomputed reciprocal cell size; any ulp-level
/// divergence from an exact division lands within the macrocell margins.
#[inline]
fn cell_at(coord: f32, inv_cs: f32, n: usize) -> usize {
    let c = (coord * inv_cs).floor();
    if c <= 0.0 {
        0
    } else {
        (c as usize).min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_image::checksum::fnv1a;
    use vr_volume::{Dataset, DatasetKind};

    fn whole(dims: [usize; 3]) -> Subvolume {
        Subvolume {
            rank: 0,
            origin: [0, 0, 0],
            dims,
        }
    }

    #[test]
    fn lut_is_bit_identical_to_transfer() {
        let tfs = vec![
            TransferFunction::engine_low(),
            TransferFunction::engine_high(),
            TransferFunction::head(),
            TransferFunction::cube(),
            // Non-integer control points, interior maxima, duplicates.
            TransferFunction::new(
                vec![
                    (10.7, 0.2),
                    (10.7, 0.5),
                    (55.3, 0.9),
                    (55.9, 0.1),
                    (254.5, 0.8),
                ],
                1.0,
                0.7,
            ),
            TransferFunction::new(vec![(128.0, 0.5)], 1.0, 1.3),
            TransferFunction::window(-3.0, 300.0, 0.4),
        ];
        for tf in &tfs {
            let lut = TfLut::new(tf);
            for k in 0..=255 * 16 {
                let d = k as f32 / 16.0;
                assert_eq!(
                    lut.opacity(d).to_bits(),
                    tf.opacity(d).to_bits(),
                    "lut mismatch at density {d}"
                );
                let (li, lo) = lut.classify(d);
                let (ti, to) = tf.classify(d);
                assert_eq!((li.to_bits(), lo.to_bits()), (ti.to_bits(), to.to_bits()));
            }
        }
    }

    #[test]
    fn accelerated_render_is_bit_identical_on_datasets() {
        let dims = [32, 32, 16];
        for kind in DatasetKind::all() {
            let ds = Dataset::with_dims(kind, dims);
            let cam = Camera::orbit(dims, 64, 64, 20.0, 30.0);
            let params = RenderParams::default();
            let mut naive = Image::blank(64, 64);
            render_clipped_into_pool(
                &ds.volume,
                &whole(dims),
                &whole(dims),
                &ds.transfer,
                &cam,
                &params,
                None,
                0,
                None,
                &mut naive,
            );
            for cell in [4, 8, 16] {
                let acc = RenderAccel::new(ds.macrocell_grid(cell), &ds.transfer, &params);
                for tile in [0, 8, 32] {
                    let mut fast = Image::blank(64, 64);
                    render_clipped_into_pool(
                        &ds.volume,
                        &whole(dims),
                        &whole(dims),
                        &ds.transfer,
                        &cam,
                        &params,
                        Some(&acc),
                        tile,
                        None,
                        &mut fast,
                    );
                    assert_eq!(
                        fnv1a(&naive),
                        fnv1a(&fast),
                        "{kind:?} cell={cell} tile={tile} diverged"
                    );
                    assert_eq!(naive.bounding_rect(), fast.bounding_rect());
                }
            }
        }
    }

    #[test]
    fn inactive_cells_reflect_transfer_window() {
        // The hollow Cube only carries density on its edge frame: with
        // cells fine enough to resolve the interior, most cells must be
        // provably transparent — and a raised window deactivates at least
        // as many cells as a low one.
        let dims = [64, 64, 64];
        let ds = Dataset::with_dims(DatasetKind::Cube, dims);
        let params = RenderParams::default();
        let acc = RenderAccel::new(ds.macrocell_grid(4), &ds.transfer, &params);
        assert!(acc.active_fraction() > 0.0);
        assert!(
            acc.active_fraction() < 0.6,
            "hollow cube should skip most cells, active fraction {}",
            acc.active_fraction()
        );
        let looser = RenderAccel::new(
            ds.macrocell_grid(4),
            &TransferFunction::window(10.0, 200.0, 0.9),
            &params,
        );
        assert!(looser.active_fraction() >= acc.active_fraction());
    }

    #[test]
    fn negative_cutoff_disables_skipping() {
        let dims = [16, 16, 16];
        let ds = Dataset::with_dims(DatasetKind::Cube, dims);
        let params = RenderParams {
            opacity_cutoff: -1.0,
            ..Default::default()
        };
        let acc = RenderAccel::new(ds.macrocell_grid(8), &ds.transfer, &params);
        assert_eq!(acc.active_fraction(), 1.0);
    }

    #[test]
    fn tile_mask_covers_every_non_blank_pixel() {
        let dims = [48, 48, 24];
        let ds = Dataset::with_dims(DatasetKind::Cube, dims);
        let cam = Camera::orbit(dims, 96, 96, 25.0, 40.0);
        let params = RenderParams::default();
        let mut naive = Image::blank(96, 96);
        render_clipped_into_pool(
            &ds.volume,
            &whole(dims),
            &whole(dims),
            &ds.transfer,
            &cam,
            &params,
            None,
            0,
            None,
            &mut naive,
        );
        let acc = RenderAccel::new(ds.macrocell_grid(8), &ds.transfer, &params);
        let mask = acc.tile_mask(&cam, [0, 0, 0], &whole(dims), 16);
        for y in 0..96u16 {
            for x in 0..96u16 {
                if !naive.get(x, y).is_blank() {
                    assert!(
                        mask.covers(x, y),
                        "non-blank pixel ({x},{y}) in culled tile"
                    );
                }
            }
        }
        // The Cube sample is sparse: culling must actually drop tiles.
        assert!(mask.marked_count() < mask.len());
    }

    /// The live-tile work plan for a standard scene: every live tile
    /// scheduled exactly once, dead tiles never scheduled, and the
    /// scheduled rects exactly tile the live part of the footprint.
    #[test]
    fn tile_items_schedules_live_tiles_exactly_once_and_dead_tiles_never() {
        let dims = [48, 48, 24];
        let ds = Dataset::with_dims(DatasetKind::Cube, dims);
        let cam = Camera::orbit(dims, 96, 96, 25.0, 40.0);
        let params = RenderParams::default();
        let acc = RenderAccel::new(ds.macrocell_grid(8), &ds.transfer, &params);
        let mask = acc.tile_mask(&cam, [0, 0, 0], &whole(dims), 16);
        // The Cube is sparse: the plan must really have dead tiles to skip.
        assert!(mask.marked_count() < mask.len());
        let footprint = cam.footprint([0, 0, 0], dims);
        let ts = mask.tile_size() as u16;
        let items = tile_items(&footprint, &mask);

        let mut seen = std::collections::HashSet::new();
        for r in &items {
            assert!(!r.is_empty());
            assert!(footprint.contains_rect(r), "item {r:?} leaks the footprint");
            // Each item lies inside exactly one tile…
            let (txi, tyi) = (r.x0 / ts, r.y0 / ts);
            assert_eq!((txi, tyi), ((r.x1 - 1) / ts, (r.y1 - 1) / ts));
            // …that tile is live…
            assert!(
                mask.tile_marked(txi as usize, tyi as usize),
                "dead tile ({txi},{tyi}) was scheduled"
            );
            // …and is scheduled at most once.
            assert!(
                seen.insert((txi, tyi)),
                "tile ({txi},{tyi}) scheduled twice"
            );
        }
        // Exactly once: every live footprint pixel is covered by exactly
        // one item (disjointness follows from the per-tile uniqueness
        // above), and dead-tile pixels by none.
        for y in footprint.y0..footprint.y1 {
            for x in footprint.x0..footprint.x1 {
                let n = items.iter().filter(|r| r.contains(x, y)).count();
                assert_eq!(n, usize::from(mask.covers(x, y)), "pixel ({x},{y})");
            }
        }
    }

    /// Edge tiles of a footprint whose width/height is not a multiple of
    /// the tile size must come out clamped, not skipped or overflowing.
    #[test]
    fn tile_items_clamps_edge_tiles_on_non_multiple_footprints() {
        let dims = [40, 40, 20];
        let ds = Dataset::with_dims(DatasetKind::EngineLow, dims);
        // 70×54 image: neither side is divisible by the 32-px tile.
        let cam = Camera::orbit(dims, 70, 54, 15.0, 25.0);
        let params = RenderParams::default();
        let acc = RenderAccel::new(ds.macrocell_grid(8), &ds.transfer, &params);
        let mask = acc.tile_mask(&cam, [0, 0, 0], &whole(dims), 32);
        let footprint = cam.footprint([0, 0, 0], dims);
        // The fitted orbit footprint must straddle a 32-px tile boundary
        // and end off-boundary on both axes, or this test would not
        // exercise clamping.
        assert!(
            footprint.x0 < 32 && footprint.x1 > 32 && !footprint.x1.is_multiple_of(32),
            "footprint {footprint:?}"
        );
        assert!(
            footprint.y0 < 32 && footprint.y1 > 32 && !footprint.y1.is_multiple_of(32),
            "footprint {footprint:?}"
        );
        let items = tile_items(&footprint, &mask);
        assert!(!items.is_empty());
        for r in &items {
            assert!(footprint.contains_rect(r), "item {r:?} leaks the footprint");
        }
        // The clamped edge tiles are present (partial width and height).
        assert!(items.iter().any(|r| r.x1 == footprint.x1 && r.width() < 32));
        assert!(items
            .iter()
            .any(|r| r.y1 == footprint.y1 && r.height() < 32));
        // And the plan still covers every live pixel exactly once.
        for y in footprint.y0..footprint.y1 {
            for x in footprint.x0..footprint.x1 {
                let n = items.iter().filter(|r| r.contains(x, y)).count();
                assert_eq!(n, usize::from(mask.covers(x, y)), "pixel ({x},{y})");
            }
        }
    }

    /// The untiled decomposition partitions the footprint into bands with
    /// no gap or overlap at band seams (the `scan_runs` chunk-seam idiom
    /// from `vr_image::kernel`, applied to rows).
    #[test]
    fn row_bands_partition_without_seam_gaps_or_overlaps() {
        for (w, h) in [(1u16, 1u16), (7, 31), (64, 32), (13, 33), (70, 54), (5, 65)] {
            let footprint = Rect::new(3.min(w - 1), 0, w, h);
            let bands = row_bands(&footprint, 32);
            // Bands are in order, disjoint, and exactly cover the rows.
            let mut y = footprint.y0;
            for b in &bands {
                assert_eq!((b.x0, b.x1), (footprint.x0, footprint.x1));
                assert_eq!(b.y0, y, "gap or overlap at band seam y={y}");
                assert!(b.height() >= 1 && b.height() <= 32);
                y = b.y1;
            }
            assert_eq!(y, footprint.y1, "{w}x{h} rows not fully covered");
        }
        assert!(row_bands(&Rect::EMPTY, 32).is_empty());
    }

    /// Threaded rendering at sizes that straddle tile boundaries by one
    /// row/column must not drop or duplicate the seam rows: the banded
    /// image is bit-identical to the sequential one, including the
    /// recorded bounding rectangle.
    #[test]
    fn threaded_render_has_no_seam_rows_at_clamped_edges() {
        let dims = [32, 32, 16];
        let ds = Dataset::with_dims(DatasetKind::EngineLow, dims);
        for (w, h) in [(70u16, 54u16), (33, 33), (64, 65)] {
            let cam = Camera::orbit(dims, w, h, 20.0, 30.0);
            let params = RenderParams::default();
            let acc = RenderAccel::new(ds.macrocell_grid(8), &ds.transfer, &params);
            for tile in [0usize, 32] {
                let mut sequential = Image::blank(w, h);
                render_clipped_into_pool(
                    &ds.volume,
                    &whole(dims),
                    &whole(dims),
                    &ds.transfer,
                    &cam,
                    &params,
                    Some(&acc),
                    tile,
                    None,
                    &mut sequential,
                );
                let threaded_params = RenderParams {
                    render_threads: 3,
                    ..params
                };
                let mut threaded = Image::blank(w, h);
                render_clipped_into_pool(
                    &ds.volume,
                    &whole(dims),
                    &whole(dims),
                    &ds.transfer,
                    &cam,
                    &threaded_params,
                    Some(&acc),
                    tile,
                    None,
                    &mut threaded,
                );
                assert_eq!(
                    fnv1a(&sequential),
                    fnv1a(&threaded),
                    "{w}x{h} tile={tile} diverged"
                );
                assert_eq!(sequential.bounding_rect(), threaded.bounding_rect());
            }
        }
    }

    #[test]
    fn fully_transparent_volume_casts_no_tiles() {
        let dims = [16, 16, 16];
        let v = Volume::from_fn(dims, |_, _, _| 10);
        let tf = TransferFunction::window(100.0, 200.0, 0.9);
        let params = RenderParams::default();
        let grid = Arc::new(MacrocellGrid::build(&v, 8));
        let acc = RenderAccel::new(grid, &tf, &params);
        assert_eq!(acc.active_fraction(), 0.0);
        let cam = Camera::orbit(dims, 32, 32, 0.0, 0.0);
        let mask = acc.tile_mask(&cam, [0, 0, 0], &whole(dims), 8);
        assert!(!mask.any());
    }
}
