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
//! * At `step == 1` the per-sample opacity is `1 − (1 − α)` with no
//!   `powf`: `powf(x, 1.0) == x` for every `x` in [0, 1], which a test
//!   sweeps bit pattern by bit pattern.
//! * A contributing sample is not shaded (no gradient) when its weight
//!   `w = (1 − alpha)·a` provably vanishes: `alpha + w` and every
//!   `color[c] + w·tint[c]` round back to the same bits, so no shade in
//!   [0, 1] could move them (`vanishes`). Only frames whose shading is
//!   finite take this shortcut (`shading_is_finite`), so a NaN shade is
//!   never skipped.
//! * Tiles are culled only when no active macrocell intersecting the clip
//!   box projects into them; rays through culled tiles could only have
//!   produced blank pixels, which the naive path never writes either.
//!
//! The board renders its heaviest items first (tiles by the active cells
//! that mark them, row bands by area); items write disjoint pixels, so
//! their order never shows in an image or its bounds.
//!
//! The differential proptests in `tests/proptests.rs` enforce the
//! bit-identity end to end.

use std::cmp::Reverse;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vr_image::{Image, Pixel, Rect};
use vr_volume::{MacrocellGrid, Subvolume, TransferFunction, Vec3, Volume};

use crate::camera::Camera;
use crate::params::{RenderParams, MAX_SIMD_LANES};
use crate::pool::RenderPool;
use crate::raycast::{shade, shading_is_finite};

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

/// A grid of `tile × tile` pixel tiles over the image, each holding the
/// number of active cells whose footprint marked it (0 = dead tile).
#[derive(Clone, Debug)]
pub struct TileMask {
    tile: usize,
    tx: usize,
    ty: usize,
    counts: Vec<usize>,
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
            counts: vec![0; tx * ty],
            marked: 0,
        }
    }

    /// Counts one more marking cell on every tile overlapping `rect`.
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
                let count = &mut self.counts[ty * self.tx + tx];
                if *count == 0 {
                    self.marked += 1;
                }
                *count += 1;
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
        self.counts.len()
    }

    /// Whether the mask has no tiles (images are never zero-sized).
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Whether the tile containing pixel `(x, y)` is marked.
    #[inline]
    pub fn covers(&self, x: u16, y: u16) -> bool {
        let tx = (x as usize / self.tile).min(self.tx - 1);
        let ty = (y as usize / self.tile).min(self.ty - 1);
        self.counts[ty * self.tx + tx] > 0
    }

    /// The number of active cells that marked tile `(tx, ty)`.
    #[inline]
    fn weight(&self, tx: usize, ty: usize) -> usize {
        self.counts[ty * self.tx + tx]
    }
}

// ---------------------------------------------------------------------------
// Unified clipped renderer
// ---------------------------------------------------------------------------

/// Renders rays through each clip box of `clips` (global voxel
/// coordinates) into its own full-size image, sampling from `volume`,
/// which sits at `placement` in the global grid. This is the one
/// integration loop behind both the shared-volume and the local-block
/// render paths; `accel = None, tile = 0` is the naive reference,
/// `Some(accel)` enables macrocell skipping, and `tile >= 1` additionally
/// culls whole screen tiles after a macrocell prescan.
///
/// One board per call: the pixel rect of every clip's live screen tiles
/// (or row bands, when tile culling is off) goes into one work list,
/// which `pool` drains in a single [`RenderPool::run`] (`None` runs it
/// inline). So the blocks of a frame share the pool's threads tile by
/// tile, and a pool wider than one block's tiles still has work. Every
/// item writes only its own disjoint pixels of its own clip's image, and
/// every pool width and item order is **bit-identical** to the inline
/// render.
///
/// Returns the images in clip order and, per clip, the seconds spent on
/// its prescan plus the summed wall time of its items.
#[allow(clippy::too_many_arguments)]
pub fn render_clips(
    volume: &Volume,
    placement: &Subvolume,
    clips: &[Subvolume],
    transfer: &TransferFunction,
    camera: &Camera,
    params: &RenderParams,
    accel: Option<&RenderAccel>,
    tile: usize,
    pool: Option<&RenderPool>,
) -> (Vec<Image>, Vec<f64>) {
    assert_eq!(
        volume.dims(),
        placement.dims,
        "local volume must match the placement dims"
    );
    if let Some(acc) = accel {
        assert_eq!(
            acc.grid().dims(),
            volume.dims(),
            "acceleration grid was built for a different volume"
        );
    }
    let corner = |v: [usize; 3]| Vec3::new(v[0] as f32, v[1] as f32, v[2] as f32);
    let frame = corner(placement.origin);
    let finite_shading = shading_is_finite(params, transfer);
    let (items, seconds) = board(placement, clips, camera, accel, tile);
    let boxes: Vec<(Vec3, Vec3)> = clips
        .iter()
        .map(|clip| (corner(clip.origin), corner(clip.origin) + corner(clip.dims)))
        .collect();

    // Each clip's image and seconds. An item sets its rect's non-blank
    // pixels into its clip's image as it finishes, so the bounds hint and
    // the extent grow exactly as they do in a sequential render.
    let images: Vec<Mutex<(Image, f64)>> = seconds
        .into_iter()
        .map(|s| Mutex::new((Image::blank(camera.width, camera.height), s)))
        .collect();
    let task = |i: usize| {
        let start = Instant::now();
        let (c, r, _) = items[i];
        let (lo, hi) = boxes[c];
        let mut pixels = Vec::new();
        for y in r.y0..r.y1 {
            for x in r.x0..r.x1 {
                let Some((t0, t1)) = camera.ray_box(x, y, lo, hi) else {
                    continue;
                };
                let p = integrate(
                    volume,
                    frame,
                    transfer,
                    camera,
                    params,
                    finite_shading,
                    accel,
                    x,
                    y,
                    t0,
                    t1,
                );
                if !p.is_blank() {
                    pixels.push((x, y, p));
                }
            }
        }
        let mut clip = images[c].lock().expect("setting pixels never panics");
        for (x, y, p) in pixels {
            clip.0.set(x, y, p);
        }
        clip.1 += start.elapsed().as_secs_f64();
    };
    match pool {
        Some(pool) => pool.run(items.len(), &task),
        None => (0..items.len()).for_each(task),
    }
    images
        .into_iter()
        .map(|clip| clip.into_inner().expect("setting pixels never panics"))
        .unzip()
}

/// The work list of one [`render_clips`] call: `(clip, rect, weight)` for
/// every clip's items, heaviest first, and per clip the seconds its
/// prescan took. A live tile weighs the active cells that marked it, a
/// row band its area. The pool claims items in board order, so the
/// longest start first and the threads finish together; the sort is
/// stable, so equal weights keep clip-then-raster order.
fn board(
    placement: &Subvolume,
    clips: &[Subvolume],
    camera: &Camera,
    accel: Option<&RenderAccel>,
    tile: usize,
) -> (Vec<(usize, Rect, usize)>, Vec<f64>) {
    // Tiles larger than the image index space degenerate to one tile.
    let tile = tile.min(u16::MAX as usize);
    let mut items = Vec::new();
    let mut seconds = Vec::with_capacity(clips.len());
    for (c, clip) in clips.iter().enumerate() {
        let start = Instant::now();
        for axis in 0..3 {
            assert!(
                clip.origin[axis] >= placement.origin[axis]
                    && clip.origin[axis] + clip.dims[axis]
                        <= placement.origin[axis] + placement.dims[axis],
                "clip box must lie inside the placement box"
            );
        }
        let footprint = camera.footprint(clip.origin, clip.dims);
        let weighted = match accel {
            Some(acc) if tile >= 1 => tile_items(
                &footprint,
                &acc.tile_mask(camera, placement.origin, clip, tile),
            ),
            _ => row_bands(&footprint, DEFAULT_TILE_SIZE as u16)
                .into_iter()
                .map(|r| (r, r.area()))
                .collect(),
        };
        items.extend(weighted.into_iter().map(|(r, w)| (c, r, w)));
        seconds.push(start.elapsed().as_secs_f64());
    }
    items.sort_by_key(|&(.., weight)| Reverse(weight));
    (items, seconds)
}

/// The pixel rectangle and weight of every *live* screen tile: marked in
/// `mask` and overlapping `footprint`, in raster order. Every live tile
/// is emitted exactly once, dead tiles are never emitted, and edge tiles
/// are clamped to the footprint (whose width and height need not divide
/// the tile size). The rectangles are pairwise disjoint, so the order
/// the board's threads take them in never shows in the image.
fn tile_items(footprint: &Rect, mask: &TileMask) -> Vec<(Rect, usize)> {
    let mut items = Vec::new();
    if footprint.is_empty() {
        return items;
    }
    let ts = mask.tile_size() as u16;
    let ty0 = footprint.y0 / ts;
    let tx0 = footprint.x0 / ts;
    for tyi in ty0..=(footprint.y1.saturating_sub(1) / ts) {
        for txi in tx0..=(footprint.x1.saturating_sub(1) / ts) {
            let weight = mask.weight(txi as usize, tyi as usize);
            if weight == 0 {
                continue;
            }
            let r = footprint.intersect(&Rect::new(
                txi * ts,
                tyi * ts,
                (txi + 1).saturating_mul(ts).min(footprint.x1),
                (tyi + 1).saturating_mul(ts).min(footprint.y1),
            ));
            if !r.is_empty() {
                items.push((r, weight));
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

/// One ray-sample step: classify, shade, accumulate. Returns `true` when
/// early ray termination fires. Shared verbatim by the naive and the
/// accelerated loops so their contributing samples run identical code.
///
/// With `finite_shading` (`shading_is_finite`), a sample whose weight
/// [`vanishes`] is not shaded: every shade in [0, 1] would leave `color`
/// and `alpha` as they are.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn sample_step(
    volume: &Volume,
    pos: Vec3,
    classify: (f32, f32),
    params: &RenderParams,
    finite_shading: bool,
    color: &mut [f32; 3],
    alpha: &mut f32,
) -> bool {
    let (intensity, alpha_unit) = classify;
    let a = params.step_opacity(alpha_unit);
    if a > params.opacity_cutoff {
        let w = (1.0 - *alpha) * a;
        if !(finite_shading && vanishes(color, *alpha, w, &params.tint)) {
            let shaded = shade(volume, pos, intensity, params);
            accumulate(color, alpha, w, shaded, &params.tint);
        }
        if *alpha >= params.early_termination_alpha {
            return true;
        }
    }
    false
}

/// Whether a sample of weight `w` provably changes nothing: `alpha + w`
/// and every `color[c] + w·tint[c]` round back to the same bits.
///
/// Then `color[c] += w·shaded·tint[c]` keeps its bits too, for every
/// `shaded` in [+0, 1] and finite `tint`: `|fl(w·shaded)| ≤ |w|` with
/// the same sign, so `fl(fl(w·shaded)·tint[c])` lies between 0 and
/// `fl(w·tint[c])`, and rounding is monotone, so the sum lies between
/// `color[c]` and `fl(color[c] + w·tint[c]) = color[c]`. Signed zeros
/// follow the same signs; a ray's `color` starts at +0 and is never −0.
#[inline(always)]
fn vanishes(color: &[f32; 3], alpha: f32, w: f32, tint: &[f32; 3]) -> bool {
    let unchanged = |acc: f32, add: f32| (acc + add).to_bits() == acc.to_bits();
    unchanged(alpha, w) && (0..3).all(|c| unchanged(color[c], w * tint[c]))
}

/// Front-to-back accumulation of one shaded sample of weight `w`.
#[inline(always)]
fn accumulate(color: &mut [f32; 3], alpha: &mut f32, w: f32, shaded: f32, tint: &[f32; 3]) {
    for c in 0..3 {
        color[c] += w * shaded * tint[c];
    }
    *alpha += w;
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
    finite_shading: bool,
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
                if sample_step(
                    volume,
                    pos,
                    c,
                    params,
                    finite_shading,
                    &mut color,
                    &mut alpha,
                ) {
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
                        // Lane-batched sampling, one sample a batch at
                        // `lanes` 1: gather sample parameters through the
                        // *exact* naive `t += step` chain, evaluate
                        // density and unit opacity in fixed-width lanes
                        // the autovectorizer can lift, then classify and
                        // accumulate strictly in sample order. Early
                        // termination merely discards the side-effect-free
                        // later lanes, so the `over` chain replays the
                        // naive one bit-for-bit. A sample of unit opacity
                        // exactly zero skips the naive body: its opacity
                        // `1 − 1^step = 0` never passes a non-negative
                        // cutoff (`admit_zero` covers negative ones).
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
                                        volume,
                                        pos,
                                        cl,
                                        params,
                                        finite_shading,
                                        &mut color,
                                        &mut alpha,
                                    ) {
                                        break 'ray;
                                    }
                                }
                            }
                            if t >= t_seg {
                                break;
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
    use proptest::prelude::*;
    use vr_image::checksum::fnv1a;
    use vr_volume::{kd_partition, Dataset, DatasetKind};

    fn whole(dims: [usize; 3]) -> Subvolume {
        Subvolume {
            rank: 0,
            origin: [0, 0, 0],
            dims,
        }
    }

    /// The whole dataset as one clip on a board of its own.
    fn render_whole(
        ds: &Dataset,
        cam: &Camera,
        accel: Option<&RenderAccel>,
        tile: usize,
        pool: Option<&RenderPool>,
    ) -> Image {
        let dims = ds.volume.dims();
        let params = RenderParams::default();
        let (mut images, _) = render_clips(
            &ds.volume,
            &whole(dims),
            &[whole(dims)],
            &ds.transfer,
            cam,
            &params,
            accel,
            tile,
            pool,
        );
        images.pop().expect("one clip, one image")
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
            let naive = render_whole(&ds, &cam, None, 0, None);
            for cell in [4, 8, 16] {
                let acc = RenderAccel::new(ds.macrocell_grid(cell), &ds.transfer, &params);
                for tile in [0, 8, 32] {
                    let fast = render_whole(&ds, &cam, Some(&acc), tile, None);
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
        let naive = render_whole(&ds, &cam, None, 0, None);
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

    /// The board of a partitioned scene: heaviest first, and per clip
    /// every live tile scheduled exactly once at its mask weight, dead
    /// tiles never scheduled, and the scheduled rects exactly tiling the
    /// live part of the clip's footprint.
    #[test]
    fn board_schedules_live_tiles_once_heaviest_first_and_dead_tiles_never() {
        let dims = [48, 48, 24];
        let ds = Dataset::with_dims(DatasetKind::Cube, dims);
        let cam = Camera::orbit(dims, 96, 96, 25.0, 40.0);
        let params = RenderParams::default();
        let acc = RenderAccel::new(ds.macrocell_grid(8), &ds.transfer, &params);
        let clips = kd_partition(dims, 3).subvolumes().to_vec();
        let (items, seconds) = board(&whole(dims), &clips, &cam, Some(&acc), 16);
        assert_eq!(seconds.len(), clips.len());
        assert!(
            items.windows(2).all(|w| w[0].2 >= w[1].2),
            "weights rise along the board"
        );
        // Unequal weights, or the order is not exercised.
        assert!(items[0].2 > items[items.len() - 1].2);

        for (c, clip) in clips.iter().enumerate() {
            let mask = acc.tile_mask(&cam, [0, 0, 0], clip, 16);
            // The Cube is sparse: the plan must really have dead tiles to skip.
            assert!(mask.marked_count() < mask.len());
            let footprint = cam.footprint(clip.origin, clip.dims);
            let ts = mask.tile_size() as u16;
            let rects: Vec<Rect> = items.iter().filter(|i| i.0 == c).map(|i| i.1).collect();
            let mut seen = std::collections::HashSet::new();
            for &(_, r, weight) in items.iter().filter(|i| i.0 == c) {
                assert!(!r.is_empty());
                assert!(
                    footprint.contains_rect(&r),
                    "item {r:?} leaks the footprint"
                );
                // Each item lies inside exactly one tile…
                let (txi, tyi) = (r.x0 / ts, r.y0 / ts);
                assert_eq!((txi, tyi), ((r.x1 - 1) / ts, (r.y1 - 1) / ts));
                // …that tile is live and weighs what marked it…
                assert!(weight > 0, "dead tile ({txi},{tyi}) was scheduled");
                assert_eq!(weight, mask.weight(txi as usize, tyi as usize));
                // …and is scheduled at most once.
                assert!(
                    seen.insert((txi, tyi)),
                    "tile ({txi},{tyi}) scheduled twice"
                );
            }
            // Exactly once: every live footprint pixel is covered by
            // exactly one item (disjointness follows from the per-tile
            // uniqueness above), and dead-tile pixels by none.
            for y in footprint.y0..footprint.y1 {
                for x in footprint.x0..footprint.x1 {
                    let n = rects.iter().filter(|r| r.contains(x, y)).count();
                    assert_eq!(n, usize::from(mask.covers(x, y)), "pixel ({x},{y})");
                }
            }
        }

        // Without culling, each clip's row bands, weighed by area.
        let (bands, _) = board(&whole(dims), &clips, &cam, None, 0);
        assert!(bands.windows(2).all(|w| w[0].2 >= w[1].2));
        for (c, clip) in clips.iter().enumerate() {
            let mine = bands.iter().filter(|i| i.0 == c);
            assert!(mine.clone().all(|i| i.2 == i.1.area()));
            let area: usize = mine.map(|i| i.2).sum();
            assert_eq!(area, cam.footprint(clip.origin, clip.dims).area());
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
        let items: Vec<Rect> = tile_items(&footprint, &mask)
            .into_iter()
            .map(|(r, _)| r)
            .collect();
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
        let pool = RenderPool::new(3);
        for (w, h) in [(70u16, 54u16), (33, 33), (64, 65)] {
            let cam = Camera::orbit(dims, w, h, 20.0, 30.0);
            let params = RenderParams::default();
            let acc = RenderAccel::new(ds.macrocell_grid(8), &ds.transfer, &params);
            for tile in [0usize, 32] {
                let sequential = render_whole(&ds, &cam, Some(&acc), tile, None);
                let threaded = render_whole(&ds, &cam, Some(&acc), tile, Some(&pool));
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

    /// With termination at or below zero opacity every contributing
    /// sample ends its ray; one that vanishes ends it unshaded, with the
    /// bits a shaded one leaves, including a zero-opacity sample admitted
    /// by a negative cutoff.
    #[test]
    fn a_vanishing_sample_terminates_as_a_shaded_one_at_nonpositive_termination() {
        let v = Volume::from_fn([8, 8, 8], |x, y, z| (x * 29 + y * 7 + z * 13) as u8);
        let pos = Vec3::new(3.3, 4.1, 2.7);
        for ert in [0.0, -1.0] {
            let params = RenderParams {
                early_termination_alpha: ert,
                opacity_cutoff: -1.0,
                ..Default::default()
            };
            // (unit opacity, alpha, color): a fresh ray, a saturated one
            // and one a hair below saturation.
            for (unit, alpha, color) in [
                (0.0, 0.0, [0.0; 3]),
                (0.5, 1.0, [0.7, 0.2, 0.9]),
                (1e-9, 0.9999, [0.5; 3]),
            ] {
                let w = (1.0 - alpha) * params.step_opacity(unit);
                assert!(vanishes(&color, alpha, w, &params.tint));
                let step = |finite_shading| {
                    let (mut color, mut alpha) = (color, alpha);
                    let stop = sample_step(
                        &v,
                        pos,
                        (0.6, unit),
                        &params,
                        finite_shading,
                        &mut color,
                        &mut alpha,
                    );
                    (stop, color.map(f32::to_bits), alpha.to_bits())
                };
                assert_eq!(step(true), step(false), "ert {ert} alpha {alpha}");
                assert!(step(true).0, "ert {ert} must end the ray");
            }
        }
    }

    /// Any finite `f32`: both signs, zeros, subnormals and the extremes.
    fn finite() -> impl Strategy<Value = f32> {
        any::<u32>()
            .prop_map(f32::from_bits)
            .prop_filter("finite", |v| v.is_finite())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Whenever `vanishes` says a weight vanishes, accumulating it at
        /// any shade in [0, 1] leaves every bit of `color` and `alpha`.
        #[test]
        fn a_vanishing_weight_leaves_color_and_alpha_unchanged(
            alpha in prop_oneof![0.0f32..=1.0, 0.999f32..=1.0, Just(1.0f32)],
            color in (
                prop_oneof![finite(), 0.0f32..=1.0, Just(-0.0f32)],
                prop_oneof![finite(), 0.0f32..=1.0, Just(0.0f32)],
                prop_oneof![finite(), 0.0f32..=1.0],
            ),
            a in prop_oneof![0.0f32..=1.0, 0.0f32..1e-6, Just(0.0f32)],
            shaded in prop_oneof![0.0f32..=1.0, Just(0.0f32), Just(1.0f32)],
            tint in (
                prop_oneof![Just(1.0f32), Just(0.0f32), Just(-1.0f32), finite()],
                prop_oneof![Just(1.0f32), Just(-0.0f32), finite()],
                prop_oneof![Just(1.0f32), -2.0f32..2.0, finite()],
            ),
        ) {
            let color = [color.0, color.1, color.2];
            let tint = [tint.0, tint.1, tint.2];
            let w = (1.0 - alpha) * a;
            if vanishes(&color, alpha, w, &tint) {
                let (mut after, mut alpha_after) = (color, alpha);
                accumulate(&mut after, &mut alpha_after, w, shaded, &tint);
                prop_assert_eq!(alpha_after.to_bits(), alpha.to_bits());
                prop_assert_eq!(after.map(f32::to_bits), color.map(f32::to_bits));
            }
        }
    }
}
