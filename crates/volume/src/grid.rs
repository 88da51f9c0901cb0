//! The scalar volume grid.

use crate::vec3::Vec3;

/// A regular 3D grid of 8-bit scalar samples (CT-style density values),
/// stored x-fastest.
#[derive(Clone, Debug, PartialEq)]
pub struct Volume {
    dims: [usize; 3],
    data: Vec<u8>,
}

impl Volume {
    /// Creates a zero-filled volume.
    pub fn zeros(dims: [usize; 3]) -> Self {
        Volume {
            dims,
            data: vec![0; dims[0] * dims[1] * dims[2]],
        }
    }

    /// Creates a volume by evaluating `f(x, y, z)` at every voxel.
    pub fn from_fn(dims: [usize; 3], mut f: impl FnMut(usize, usize, usize) -> u8) -> Self {
        let mut data = Vec::with_capacity(dims[0] * dims[1] * dims[2]);
        for z in 0..dims[2] {
            for y in 0..dims[1] {
                for x in 0..dims[0] {
                    data.push(f(x, y, z));
                }
            }
        }
        Volume { dims, data }
    }

    /// Grid dimensions `[nx, ny, nz]`.
    #[inline]
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Total voxel count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the volume has no voxels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw sample access (panics out of range).
    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> u8 {
        debug_assert!(x < self.dims[0] && y < self.dims[1] && z < self.dims[2]);
        self.data[(z * self.dims[1] + y) * self.dims[0] + x]
    }

    /// Sets a sample.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: u8) {
        debug_assert!(x < self.dims[0] && y < self.dims[1] && z < self.dims[2]);
        self.data[(z * self.dims[1] + y) * self.dims[0] + x] = v;
    }

    /// Sample with clamp-to-edge semantics for out-of-range integer
    /// coordinates.
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize, z: isize) -> u8 {
        let cx = x.clamp(0, self.dims[0] as isize - 1) as usize;
        let cy = y.clamp(0, self.dims[1] as isize - 1) as usize;
        let cz = z.clamp(0, self.dims[2] as isize - 1) as usize;
        self.get(cx, cy, cz)
    }

    /// Trilinearly interpolated sample at a continuous point in voxel
    /// coordinates. Points outside the grid clamp to the boundary.
    ///
    /// Points whose eight corners are all in range — everything but the
    /// one-voxel boundary shell — take a path with no clamps; both paths
    /// blend their corners with the same `trilerp`, so which one ran is
    /// not observable in the result.
    #[inline]
    pub fn sample(&self, p: Vec3) -> f32 {
        let [nx, ny, nz] = self.dims;
        match (interior(p.x, nx), interior(p.y, ny), interior(p.z, nz)) {
            (Some(x), Some(y), Some(z)) => self.sample_interior(x, y, z),
            _ => self.sample_clamped(p),
        }
    }

    /// Trilinear blend of the cell whose low corner is the voxel
    /// `(x.0, y.0, z.0)`, every axis split by [`interior`].
    #[inline]
    fn sample_interior(&self, x: (usize, f32), y: (usize, f32), z: (usize, f32)) -> f32 {
        let [nx, ny, _] = self.dims;
        let base = (z.0 * ny + y.0) * nx + x.0;
        let row = |at: usize| {
            let r = &self.data[at..at + 2];
            [r[0] as f32, r[1] as f32]
        };
        let c = [
            row(base),
            row(base + nx),
            row(base + nx * ny),
            row(base + nx * ny + nx),
        ];
        trilerp(c, x.1, y.1, z.1)
    }

    /// The boundary-shell path: `floor`, and every corner clamped to the
    /// grid. Correct for any point, NaN and infinities included.
    fn sample_clamped(&self, p: Vec3) -> f32 {
        let fx = p.x.floor();
        let fy = p.y.floor();
        let fz = p.z.floor();
        let tx = p.x - fx;
        let ty = p.y - fy;
        let tz = p.z - fz;
        let (x0, y0, z0) = (fx as isize, fy as isize, fz as isize);
        // Saturating: a coordinate of 2⁶³ or more casts to `isize::MAX`.
        let c = |dy: isize, dz: isize| {
            let (y, z) = (y0.saturating_add(dy), z0.saturating_add(dz));
            [
                self.get_clamped(x0, y, z) as f32,
                self.get_clamped(x0.saturating_add(1), y, z) as f32,
            ]
        };
        trilerp([c(0, 0), c(1, 0), c(0, 1), c(1, 1)], tx, ty, tz)
    }

    /// Central-difference gradient at a continuous point, in voxel
    /// coordinates — used for gray-level gradient shading.
    ///
    /// Two branches, with the same bits:
    ///
    /// * **Aligned stencil.** When each of the nine distinct coordinates
    ///   (`p.a − 1`, `p.a`, `p.a + 1`) splits in the interior and the
    ///   three splits of an axis land on consecutive voxels, the six taps
    ///   share one 32-voxel neighbourhood: the four central rows of four
    ///   voxels and eight outer rows of two, read once from one slice.
    ///   Each tap blends its eight corners with the split weights
    ///   [`Self::sample`] would compute for it.
    /// * **`gradient_shell`**, for every other point: a stencil
    ///   that touches the boundary shell, or a `p.a ± 1` that rounded onto
    ///   another voxel (a weight within an ulp of 1).
    #[inline]
    pub fn gradient(&self, p: Vec3) -> Vec3 {
        let h = 1.0;
        let [nx, ny, nz] = self.dims;
        // The guards run on the coordinates actually split: `p.a < n − 2`
        // does not stop `p.a + h` from rounding up onto `n − 1`.
        let split = |v: f32, n: usize| {
            let (lo, c, hi) = (interior(v - h, n)?, interior(v, n)?, interior(v + h, n)?);
            (lo.0 + 1 == c.0 && c.0 + 1 == hi.0).then_some((lo.1, c, hi.1))
        };
        let (Some((txm, (i, tx), txp)), Some((tym, (j, ty), typ)), Some((tzm, (k, tz), tzp))) =
            (split(p.x, nx), split(p.y, ny), split(p.z, nz))
        else {
            return self.gradient_shell(p);
        };
        // Alignment puts voxels i − 1 ..= i + 2 (and likewise on y and z)
        // inside the grid: `interior` split i − 1 and i + 1 as low corners.
        // Offsets below are from voxel (i, j, k − 1).
        let plane = nx * ny;
        let at = (k * ny + j) * nx + i;
        let s = &self.data[at - plane..=at + 2 * plane + nx + 1];
        let quad = |o: usize| {
            let r = &s[o - 1..o + 3];
            [r[0] as f32, r[1] as f32, r[2] as f32, r[3] as f32]
        };
        let pair = |o: usize| {
            let r = &s[o..o + 2];
            [r[0] as f32, r[1] as f32]
        };
        // Rows (j, k), (j + 1, k), (j, k + 1), (j + 1, k + 1), x from i − 1.
        let q = [
            quad(plane),
            quad(plane + nx),
            quad(2 * plane),
            quad(2 * plane + nx),
        ];
        let mid = |r: [f32; 4]| [r[1], r[2]];
        let dx = trilerp(q.map(|r| [r[2], r[3]]), txp, ty, tz)
            - trilerp(q.map(|r| [r[0], r[1]]), txm, ty, tz);
        let dy = trilerp(
            [
                mid(q[1]),
                pair(plane + 2 * nx),
                mid(q[3]),
                pair(2 * plane + 2 * nx),
            ],
            tx,
            typ,
            tz,
        ) - trilerp(
            [pair(plane - nx), mid(q[0]), pair(2 * plane - nx), mid(q[2])],
            tx,
            tym,
            tz,
        );
        let dz = trilerp(
            [mid(q[2]), mid(q[3]), pair(3 * plane), pair(3 * plane + nx)],
            tx,
            ty,
            tzp,
        ) - trilerp([pair(0), pair(nx), mid(q[0]), mid(q[1])], tx, ty, tzm);
        Vec3::new(dx, dy, dz) * 0.5
    }

    /// Six independent taps, for points off the aligned stencil; each
    /// [`Self::sample`] still takes its own interior path where it can.
    fn gradient_shell(&self, p: Vec3) -> Vec3 {
        let h = 1.0;
        let dx =
            self.sample(Vec3::new(p.x + h, p.y, p.z)) - self.sample(Vec3::new(p.x - h, p.y, p.z));
        let dy =
            self.sample(Vec3::new(p.x, p.y + h, p.z)) - self.sample(Vec3::new(p.x, p.y - h, p.z));
        let dz =
            self.sample(Vec3::new(p.x, p.y, p.z + h)) - self.sample(Vec3::new(p.x, p.y, p.z - h));
        Vec3::new(dx, dy, dz) * 0.5
    }

    /// Extracts the sub-block `[origin, origin + dims)` as a standalone
    /// volume — the partitioning phase's "distribute subvolume data".
    pub fn extract_block(&self, origin: [usize; 3], dims: [usize; 3]) -> Volume {
        for i in 0..3 {
            assert!(
                origin[i] + dims[i] <= self.dims[i],
                "block out of range on axis {i}"
            );
        }
        let mut out = Volume::zeros(dims);
        for z in 0..dims[2] {
            for y in 0..dims[1] {
                for x in 0..dims[0] {
                    out.set(
                        x,
                        y,
                        z,
                        self.get(origin[0] + x, origin[1] + y, origin[2] + z),
                    );
                }
            }
        }
        out
    }

    /// Fraction of voxels with a non-zero sample (a crude sparsity probe
    /// used by dataset tests).
    pub fn occupancy(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().filter(|&&v| v > 0).count() as f64 / self.data.len() as f64
    }
}

/// Splits a coordinate into (low voxel index, weight) when both voxels
/// it lies between exist, that is `0 ≤ v < n − 1`; `None` sends the
/// point to the clamped path.
///
/// Both guards run on the `f32` before any cast, and NaN fails them. The
/// bound converts exactly because it is capped at 2²⁴, past which `f32`
/// has no fractional coordinates left to interpolate at. `-0.0` passes
/// and truncates to index 0 with weight `-0.0` where `floor` gives
/// `+0.0`; the blend is the same either way, since `a + (b − a)·±0.0 ==
/// a` for every `a` that is not `-0.0`, and no corner or partial blend
/// of non-negative corners ever is.
#[inline]
fn interior(v: f32, n: usize) -> Option<(usize, f32)> {
    let bound = n.saturating_sub(1).min(1 << 24) as i32 as f32;
    (v >= 0.0 && v < bound).then(|| {
        let i = v as i32;
        (i as usize, v - i as f32)
    })
}

/// Blends the corners of one cell, x first, then y, then z. `c[2·dz + dy]`
/// holds the `(x0, x0 + 1)` pair of row `(y0 + dy, z0 + dz)`. No fused
/// multiply-add: the result is compared bit for bit across paths, hosts
/// and releases.
#[inline]
fn trilerp(c: [[f32; 2]; 4], tx: f32, ty: f32, tz: f32) -> f32 {
    let lerp = |a: f32, b: f32, t: f32| a + (b - a) * t;
    let xy00 = lerp(c[0][0], c[0][1], tx);
    let xy10 = lerp(c[1][0], c[1][1], tx);
    let xy01 = lerp(c[2][0], c[2][1], tx);
    let xy11 = lerp(c[3][0], c[3][1], tx);
    let y0v = lerp(xy00, xy10, ty);
    let y1v = lerp(xy01, xy11, ty);
    lerp(y0v, y1v, tz)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_order_is_x_fastest() {
        let v = Volume::from_fn([3, 2, 2], |x, y, z| (x + 10 * y + 100 * z) as u8);
        assert_eq!(v.get(1, 0, 0), 1);
        assert_eq!(v.get(0, 1, 0), 10);
        assert_eq!(v.get(0, 0, 1), 100);
        assert_eq!(v.get(2, 1, 1), 112);
    }

    #[test]
    fn sample_at_lattice_points_exact() {
        let v = Volume::from_fn([4, 4, 4], |x, y, z| (x + y + z) as u8 * 10);
        assert_eq!(v.sample(Vec3::new(1.0, 2.0, 3.0)), 60.0);
    }

    #[test]
    fn sample_interpolates_linearly() {
        let v = Volume::from_fn([2, 1, 1], |x, _, _| if x == 0 { 0 } else { 100 });
        assert!((v.sample(Vec3::new(0.5, 0.0, 0.0)) - 50.0).abs() < 1e-4);
        assert!((v.sample(Vec3::new(0.25, 0.0, 0.0)) - 25.0).abs() < 1e-4);
    }

    #[test]
    fn sample_clamps_outside() {
        let v = Volume::from_fn([2, 2, 2], |x, _, _| if x == 0 { 10 } else { 20 });
        assert_eq!(v.sample(Vec3::new(-5.0, 0.0, 0.0)), 10.0);
        assert_eq!(v.sample(Vec3::new(9.0, 0.0, 0.0)), 20.0);
    }

    #[test]
    fn gradient_of_linear_ramp() {
        let v = Volume::from_fn([8, 8, 8], |x, _, _| (x * 10) as u8);
        let g = v.gradient(Vec3::new(4.0, 4.0, 4.0));
        assert!((g.x - 10.0).abs() < 1e-4, "{g:?}");
        assert!(g.y.abs() < 1e-4 && g.z.abs() < 1e-4);
    }

    #[test]
    fn extract_block_copies_region() {
        let v = Volume::from_fn([4, 4, 4], |x, y, z| (x + 4 * y + 16 * z) as u8);
        let b = v.extract_block([1, 1, 1], [2, 2, 2]);
        assert_eq!(b.dims(), [2, 2, 2]);
        assert_eq!(b.get(0, 0, 0), v.get(1, 1, 1));
        assert_eq!(b.get(1, 1, 1), v.get(2, 2, 2));
    }

    #[test]
    #[should_panic]
    fn extract_block_out_of_range_panics() {
        let v = Volume::zeros([4, 4, 4]);
        let _ = v.extract_block([3, 0, 0], [2, 1, 1]);
    }

    #[test]
    fn occupancy_counts_nonzero() {
        let mut v = Volume::zeros([2, 2, 2]);
        v.set(0, 0, 0, 5);
        v.set(1, 1, 1, 7);
        assert!((v.occupancy() - 0.25).abs() < 1e-12);
    }
}
