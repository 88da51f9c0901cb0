//! Orthographic camera with the paper's "viewing point rotation" controls.
//!
//! Section 3.2 discusses how the number of non-empty bounding rectangles
//! grows as the viewing point rotates along one or two axes; the
//! [`Camera::orbit`] constructor exposes exactly those two rotation
//! angles so the `view_rotation` example and ablation benches can sweep
//! them.

use vr_volume::Vec3;

/// The projection model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Projection {
    /// Parallel rays along `view_dir` (the paper's "normal orthogonal
    /// projection").
    Orthographic,
    /// Rays diverge from an eye point (voxel coordinates); the image
    /// plane passes through the camera `center`.
    Perspective {
        /// Eye position in voxel coordinates.
        eye: Vec3,
    },
}

/// An orthographic camera over volume (voxel) space.
#[derive(Clone, Copy, Debug)]
pub struct Camera {
    /// Unit direction rays travel (from the eye into the scene).
    pub view_dir: Vec3,
    /// Image-plane "up" basis vector (unit, orthogonal to `view_dir`).
    pub up: Vec3,
    /// Image-plane "right" basis vector (unit).
    pub right: Vec3,
    /// World point that projects to the image center.
    pub center: Vec3,
    /// World units (voxels) per pixel.
    pub scale: f32,
    /// Image width in pixels.
    pub width: u16,
    /// Image height in pixels.
    pub height: u16,
    /// Orthographic or perspective projection.
    pub projection: Projection,
}

impl Camera {
    /// Builds a camera looking at the center of a volume of `dims`,
    /// rotated `rot_x_deg` around the world x axis and `rot_y_deg` around
    /// the world y axis from the canonical front view (rays along +z).
    ///
    /// The whole volume fits inside the image with a small margin.
    pub fn orbit(
        dims: [usize; 3],
        width: u16,
        height: u16,
        rot_x_deg: f32,
        rot_y_deg: f32,
    ) -> Self {
        let rx = rot_x_deg.to_radians();
        let ry = rot_y_deg.to_radians();
        let rot = |v: Vec3| {
            // Rotate around x, then around y.
            let v1 = Vec3::new(
                v.x,
                v.y * rx.cos() - v.z * rx.sin(),
                v.y * rx.sin() + v.z * rx.cos(),
            );
            Vec3::new(
                v1.x * ry.cos() + v1.z * ry.sin(),
                v1.y,
                -v1.x * ry.sin() + v1.z * ry.cos(),
            )
        };
        let view_dir = rot(Vec3::new(0.0, 0.0, 1.0)).normalized();
        let up = rot(Vec3::new(0.0, 1.0, 0.0)).normalized();
        let right = view_dir.cross(up).normalized();
        let center = Vec3::new(
            dims[0] as f32 / 2.0,
            dims[1] as f32 / 2.0,
            dims[2] as f32 / 2.0,
        );
        let diag = (dims[0] as f32).hypot(dims[1] as f32).hypot(dims[2] as f32);
        let scale = diag / (0.92 * width.min(height) as f32);
        Camera {
            view_dir,
            up,
            right,
            center,
            scale,
            width,
            height,
            projection: Projection::Orthographic,
        }
    }

    /// Like [`Camera::orbit`] but with a *perspective* projection: the
    /// eye sits `distance` volume-diagonals in front of the center along
    /// the (rotated) view direction. Smaller distances exaggerate the
    /// perspective; `distance ≳ 50` approaches the orthographic limit.
    pub fn orbit_perspective(
        dims: [usize; 3],
        width: u16,
        height: u16,
        rot_x_deg: f32,
        rot_y_deg: f32,
        distance: f32,
    ) -> Self {
        let mut cam = Camera::orbit(dims, width, height, rot_x_deg, rot_y_deg);
        let diag = (dims[0] as f32).hypot(dims[1] as f32).hypot(dims[2] as f32);
        let eye = cam.center - cam.view_dir * (diag * distance.max(0.6));
        cam.projection = Projection::Perspective { eye };
        cam
    }

    /// Distance from the eye to the image plane along `view_dir`
    /// (perspective only).
    fn plane_dist(&self) -> f32 {
        match self.projection {
            Projection::Orthographic => f32::INFINITY,
            Projection::Perspective { eye } => (self.center - eye).dot(self.view_dir),
        }
    }

    /// Projects a world point to continuous pixel coordinates.
    #[inline]
    pub fn project(&self, p: Vec3) -> (f32, f32) {
        match self.projection {
            Projection::Orthographic => {
                let d = p - self.center;
                let px = d.dot(self.right) / self.scale + self.width as f32 / 2.0;
                let py = d.dot(self.up) / self.scale + self.height as f32 / 2.0;
                (px, py)
            }
            Projection::Perspective { eye } => {
                let v = p - eye;
                let depth = v.dot(self.view_dir).max(1e-4);
                let s = self.plane_dist() / depth;
                let px = v.dot(self.right) * s / self.scale + self.width as f32 / 2.0;
                let py = v.dot(self.up) * s / self.scale + self.height as f32 / 2.0;
                (px, py)
            }
        }
    }

    /// The ray through pixel `(x, y)`: `(origin, unit direction)`.
    ///
    /// Orthographic rays share `view_dir` and differ in origin;
    /// perspective rays share the eye and differ in direction.
    #[inline]
    pub fn ray(&self, x: u16, y: u16) -> (Vec3, Vec3) {
        let plane_point = self.ray_origin(x, y);
        match self.projection {
            Projection::Orthographic => (plane_point, self.view_dir),
            Projection::Perspective { eye } => (eye, (plane_point - eye).normalized()),
        }
    }

    /// The world-space origin of the ray through pixel `(x, y)` (a point
    /// on the image plane through `center`; rays extend along
    /// ±`view_dir`).
    #[inline]
    pub fn ray_origin(&self, x: u16, y: u16) -> Vec3 {
        let u = (x as f32 + 0.5 - self.width as f32 / 2.0) * self.scale;
        let v = (y as f32 + 0.5 - self.height as f32 / 2.0) * self.scale;
        self.center + self.right * u + self.up * v
    }

    /// Screen-space footprint of an axis-aligned voxel box: the pixel
    /// bounding rectangle of its eight projected corners, clamped to the
    /// image and padded by one pixel.
    pub fn footprint(&self, origin: [usize; 3], dims: [usize; 3]) -> vr_image::Rect {
        let corner = |i: usize| {
            Vec3::new(
                (origin[0] + if i & 1 != 0 { dims[0] } else { 0 }) as f32,
                (origin[1] + if i & 2 != 0 { dims[1] } else { 0 }) as f32,
                (origin[2] + if i & 4 != 0 { dims[2] } else { 0 }) as f32,
            )
        };
        if let Projection::Perspective { eye } = self.projection {
            // An eye inside the box sees it on every pixel.
            let inside = (0..3).all(|a| {
                eye.get(a) >= origin[a] as f32 && eye.get(a) <= (origin[a] + dims[a]) as f32
            });
            if inside {
                return vr_image::Rect::of_size(self.width, self.height);
            }
            // Corner projection is only conservative for points in front
            // of the eye. A box entirely behind the eye plane is invisible
            // (perspective rays never sample negative depth); one that
            // straddles the plane projects to an unbounded region, so the
            // whole frame is the only safe answer.
            let behind = (0..8)
                .filter(|&i| (corner(i) - eye).dot(self.view_dir) <= 0.0)
                .count();
            if behind == 8 {
                return vr_image::Rect::EMPTY;
            }
            if behind > 0 {
                return vr_image::Rect::of_size(self.width, self.height);
            }
        }
        let mut min_x = f32::INFINITY;
        let mut min_y = f32::INFINITY;
        let mut max_x = f32::NEG_INFINITY;
        let mut max_y = f32::NEG_INFINITY;
        for i in 0..8 {
            let (px, py) = self.project(corner(i));
            min_x = min_x.min(px);
            min_y = min_y.min(py);
            max_x = max_x.max(px);
            max_y = max_y.max(py);
        }
        let x0 = (min_x.floor() - 1.0).max(0.0) as u16;
        let y0 = (min_y.floor() - 1.0).max(0.0) as u16;
        let x1 = ((max_x.ceil() + 1.0).max(0.0) as u16).min(self.width);
        let y1 = ((max_y.ceil() + 1.0).max(0.0) as u16).min(self.height);
        vr_image::Rect::new(x0, y0, x1, y1)
    }

    /// Intersects the ray through `(x, y)` with an axis-aligned box,
    /// returning the parametric `[t0, t1]` interval along `view_dir`
    /// (negative `t` allowed — the image plane cuts through the volume).
    pub fn ray_box(&self, x: u16, y: u16, lo: Vec3, hi: Vec3) -> Option<(f32, f32)> {
        let (o, d) = self.ray(x, y);
        let mut t0 = f32::NEG_INFINITY;
        let mut t1 = f32::INFINITY;
        for axis in 0..3 {
            let (ov, dv, lv, hv) = (o.get(axis), d.get(axis), lo.get(axis), hi.get(axis));
            if dv.abs() < 1e-12 {
                if ov < lv || ov > hv {
                    return None;
                }
            } else {
                let ta = (lv - ov) / dv;
                let tb = (hv - ov) / dv;
                let (ta, tb) = if ta <= tb { (ta, tb) } else { (tb, ta) };
                t0 = t0.max(ta);
                t1 = t1.min(tb);
                if t0 > t1 {
                    return None;
                }
            }
        }
        // A perspective ray cannot sample behind the eye.
        if matches!(self.projection, Projection::Perspective { .. }) {
            t0 = t0.max(0.0);
            if t0 > t1 {
                return None;
            }
        }
        Some((t0, t1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIMS: [usize; 3] = [64, 64, 32];

    #[test]
    fn basis_is_orthonormal() {
        for (rx, ry) in [(0.0, 0.0), (30.0, 0.0), (0.0, 45.0), (25.0, -60.0)] {
            let c = Camera::orbit(DIMS, 128, 128, rx, ry);
            assert!((c.view_dir.length() - 1.0).abs() < 1e-5);
            assert!((c.up.length() - 1.0).abs() < 1e-5);
            assert!((c.right.length() - 1.0).abs() < 1e-5);
            assert!(c.view_dir.dot(c.up).abs() < 1e-5);
            assert!(c.view_dir.dot(c.right).abs() < 1e-5);
            assert!(c.up.dot(c.right).abs() < 1e-5);
        }
    }

    #[test]
    fn center_projects_to_image_center() {
        let c = Camera::orbit(DIMS, 100, 80, 20.0, 30.0);
        let (px, py) = c.project(c.center);
        assert!((px - 50.0).abs() < 1e-3);
        assert!((py - 40.0).abs() < 1e-3);
    }

    #[test]
    fn whole_volume_fits_in_image() {
        let c = Camera::orbit(DIMS, 128, 128, 33.0, -47.0);
        let fp = c.footprint([0, 0, 0], DIMS);
        assert!(!fp.is_empty());
        assert!(fp.x1 <= 128 && fp.y1 <= 128);
        // The volume occupies a meaningful part of the frame.
        assert!(fp.area() > 128 * 128 / 8);
    }

    #[test]
    fn footprint_of_sub_block_is_smaller() {
        let c = Camera::orbit(DIMS, 128, 128, 0.0, 0.0);
        let whole = c.footprint([0, 0, 0], DIMS);
        let eighth = c.footprint([0, 0, 0], [32, 32, 16]);
        assert!(whole.area() > eighth.area());
        assert!(whole.contains_rect(&eighth));
    }

    #[test]
    fn ray_box_hits_through_center() {
        let c = Camera::orbit(DIMS, 128, 128, 0.0, 0.0);
        let hit = c.ray_box(64, 64, Vec3::ZERO, Vec3::new(64.0, 64.0, 32.0));
        let (t0, t1) = hit.expect("central ray must hit the volume");
        assert!(t1 > t0);
        // The chord through the box along z is its full depth.
        assert!((t1 - t0 - 32.0).abs() < 1e-3);
    }

    #[test]
    fn ray_box_misses_outside() {
        let c = Camera::orbit(DIMS, 128, 128, 0.0, 0.0);
        // A corner pixel ray passes far from the box.
        assert!(c
            .ray_box(0, 0, Vec3::ZERO, Vec3::new(64.0, 64.0, 32.0))
            .is_none());
    }

    #[test]
    fn perspective_projects_near_objects_larger() {
        let cam = Camera::orbit_perspective(DIMS, 128, 128, 0.0, 0.0, 1.0);
        // Two equal boxes, one nearer the eye (smaller z): the nearer
        // one's footprint must be larger.
        let near = cam.footprint([24, 24, 0], [16, 16, 4]);
        let far = cam.footprint([24, 24, 28], [16, 16, 4]);
        assert!(near.area() > far.area(), "near {near:?} vs far {far:?}");
    }

    #[test]
    fn distant_perspective_approaches_orthographic() {
        let ortho = Camera::orbit(DIMS, 128, 128, 15.0, 25.0);
        let persp = Camera::orbit_perspective(DIMS, 128, 128, 15.0, 25.0, 200.0);
        let fp_o = ortho.footprint([8, 8, 8], [16, 16, 8]);
        let fp_p = persp.footprint([8, 8, 8], [16, 16, 8]);
        assert!((fp_o.area() as i64 - fp_p.area() as i64).abs() < fp_o.area() as i64 / 10);
    }

    #[test]
    fn perspective_rays_emanate_from_eye() {
        let cam = Camera::orbit_perspective(DIMS, 64, 64, 0.0, 0.0, 1.5);
        let Projection::Perspective { eye } = cam.projection else {
            panic!("expected perspective");
        };
        let (o1, d1) = cam.ray(0, 0);
        let (o2, d2) = cam.ray(63, 63);
        assert_eq!(o1, eye);
        assert_eq!(o2, eye);
        assert!((d1 - d2).length() > 1e-3, "corner rays must diverge");
        assert!((d1.length() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn perspective_eye_inside_box_sees_full_frame() {
        let mut cam = Camera::orbit(DIMS, 64, 64, 0.0, 0.0);
        let eye = Vec3::new(32.0, 32.0, 16.0);
        cam.projection = Projection::Perspective { eye };
        let fp = cam.footprint([28, 28, 12], [8, 8, 8]);
        assert_eq!(fp, vr_image::Rect::of_size(64, 64));
    }

    #[test]
    fn perspective_ray_box_never_negative() {
        let cam = Camera::orbit_perspective(DIMS, 64, 64, 10.0, 20.0, 0.8);
        for (x, y) in [(32, 32), (0, 0), (50, 12)] {
            if let Some((t0, t1)) = cam.ray_box(
                x,
                y,
                Vec3::ZERO,
                Vec3::new(DIMS[0] as f32, DIMS[1] as f32, DIMS[2] as f32),
            ) {
                assert!(t0 >= 0.0, "perspective t0 must be non-negative, got {t0}");
                assert!(t1 >= t0);
            }
        }
    }

    #[test]
    fn rotation_changes_view_dir() {
        let a = Camera::orbit(DIMS, 64, 64, 0.0, 0.0);
        let b = Camera::orbit(DIMS, 64, 64, 0.0, 90.0);
        assert!((a.view_dir - Vec3::new(0.0, 0.0, 1.0)).length() < 1e-5);
        assert!((b.view_dir - Vec3::new(1.0, 0.0, 0.0)).length() < 1e-5);
    }
}
