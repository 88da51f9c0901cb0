//! Transfer functions: density → (intensity, opacity) classification.
//!
//! The paper renders 8-bit gray-level images with a ray tracer; the
//! *Engine_low* / *Engine_high* pair are the same CT volume classified
//! with a low- vs high-density window, which is what produces their dense
//! vs sparse subimages. We reproduce that knob with a piecewise-linear
//! opacity map over the 8-bit density range.

/// A piecewise-linear opacity transfer function with a gray intensity
/// ramp.
#[derive(Clone, Debug, PartialEq)]
pub struct TransferFunction {
    /// Control points `(density, opacity)`, sorted by density, covering
    /// `[0, 255]` implicitly (clamped outside the listed range).
    points: Vec<(f32, f32)>,
    /// Scales the gray intensity derived from density.
    pub intensity_scale: f32,
    /// Opacity multiplier applied per unit sampling step (resampling
    /// correction is handled by the renderer; this is the base scale).
    pub opacity_scale: f32,
}

impl TransferFunction {
    /// Builds from control points; they are sorted by density.
    pub fn new(mut points: Vec<(f32, f32)>, intensity_scale: f32, opacity_scale: f32) -> Self {
        assert!(
            !points.is_empty(),
            "transfer function needs at least one control point"
        );
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        TransferFunction {
            points,
            intensity_scale,
            opacity_scale,
        }
    }

    /// A hard window: zero opacity below `lo`, ramping to `max_op` at
    /// `hi`, constant above.
    pub fn window(lo: f32, hi: f32, max_op: f32) -> Self {
        TransferFunction::new(vec![(lo - 1.0, 0.0), (lo, 0.0), (hi, max_op)], 1.0, 1.0)
    }

    /// Opacity for a density sample.
    pub fn opacity(&self, density: f32) -> f32 {
        let pts = &self.points;
        if density <= pts[0].0 {
            return pts[0].1 * self.opacity_scale;
        }
        if density >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1 * self.opacity_scale;
        }
        let i = pts.partition_point(|p| p.0 <= density);
        let (d0, o0) = pts[i - 1];
        let (d1, o1) = pts[i];
        let t = if d1 > d0 {
            (density - d0) / (d1 - d0)
        } else {
            0.0
        };
        (o0 + (o1 - o0) * t) * self.opacity_scale
    }

    /// The sorted control points `(density, opacity)`.
    pub fn points(&self) -> &[(f32, f32)] {
        &self.points
    }

    /// Exact maximum of [`opacity`](Self::opacity) over the density
    /// interval `[lo, hi]`.
    ///
    /// The opacity map is piecewise linear, so its maximum over a closed
    /// interval is attained at an interval endpoint or at a control point
    /// inside the interval — no sampling or tolerance involved. This is
    /// what lets macrocell classification *prove* a cell transparent.
    pub fn max_opacity_in(&self, lo: f32, hi: f32) -> f32 {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let mut max = self.opacity(lo).max(self.opacity(hi));
        for &(d, _) in &self.points {
            if d > lo && d < hi {
                max = max.max(self.opacity(d));
            }
        }
        max
    }

    /// Gray intensity for a density sample (before shading).
    pub fn intensity(&self, density: f32) -> f32 {
        (density / 255.0 * self.intensity_scale).clamp(0.0, 1.0)
    }

    /// Classifies a sample into `(intensity, opacity)`.
    pub fn classify(&self, density: f32) -> (f32, f32) {
        (
            self.intensity(density),
            self.opacity(density).clamp(0.0, 1.0),
        )
    }

    // --- Presets for the paper's four test samples -----------------------

    /// Engine with a *low* density threshold: the casing is visible, the
    /// projected image is dense.
    pub fn engine_low() -> Self {
        TransferFunction::new(
            vec![(40.0, 0.0), (80.0, 0.35), (160.0, 0.6), (255.0, 0.9)],
            1.1,
            1.0,
        )
    }

    /// Engine with a *high* density threshold: only the metal internals
    /// remain, the projected image is sparse.
    pub fn engine_high() -> Self {
        TransferFunction::new(vec![(150.0, 0.0), (190.0, 0.5), (255.0, 0.95)], 1.2, 1.0)
    }

    /// Head: skin faintly visible, bone strongly.
    pub fn head() -> Self {
        TransferFunction::new(
            vec![
                (30.0, 0.0),
                (60.0, 0.08),
                (120.0, 0.25),
                (200.0, 0.8),
                (255.0, 0.95),
            ],
            1.0,
            1.0,
        )
    }

    /// Cube edge-frame: fully opaque edges.
    pub fn cube() -> Self {
        TransferFunction::window(100.0, 200.0, 0.9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_is_zero_below_lo() {
        let tf = TransferFunction::window(100.0, 200.0, 0.8);
        assert_eq!(tf.opacity(0.0), 0.0);
        assert_eq!(tf.opacity(99.0), 0.0);
    }

    #[test]
    fn window_ramps_to_max() {
        let tf = TransferFunction::window(100.0, 200.0, 0.8);
        assert!((tf.opacity(150.0) - 0.4).abs() < 1e-5);
        assert!((tf.opacity(200.0) - 0.8).abs() < 1e-5);
        assert!((tf.opacity(255.0) - 0.8).abs() < 1e-5);
    }

    #[test]
    fn interpolation_between_points() {
        let tf = TransferFunction::new(vec![(0.0, 0.0), (100.0, 1.0)], 1.0, 1.0);
        assert!((tf.opacity(25.0) - 0.25).abs() < 1e-6);
        assert!((tf.opacity(75.0) - 0.75).abs() < 1e-6);
    }

    #[test]
    fn intensity_clamped_to_unit() {
        let tf = TransferFunction::window(0.0, 255.0, 1.0);
        assert_eq!(tf.intensity(255.0), 1.0);
        assert_eq!(tf.intensity(0.0), 0.0);
        let boosted = TransferFunction::new(vec![(0.0, 0.0)], 2.0, 1.0);
        assert_eq!(boosted.intensity(255.0), 1.0); // clamped
    }

    #[test]
    fn engine_high_is_sparser_than_engine_low() {
        // Mid-density material visible in the low preset is invisible in
        // the high preset — the source of the paper's dense/sparse pair.
        let lo = TransferFunction::engine_low();
        let hi = TransferFunction::engine_high();
        assert!(lo.opacity(120.0) > 0.0);
        assert_eq!(hi.opacity(120.0), 0.0);
    }

    #[test]
    fn presets_are_monotone() {
        for tf in [
            TransferFunction::engine_low(),
            TransferFunction::engine_high(),
            TransferFunction::head(),
            TransferFunction::cube(),
        ] {
            let mut last = -1.0;
            for d in 0..=255 {
                let o = tf.opacity(d as f32);
                assert!(o >= last - 1e-6, "opacity not monotone at {d}");
                last = o;
            }
        }
    }

    #[test]
    #[should_panic]
    fn empty_points_rejected() {
        let _ = TransferFunction::new(vec![], 1.0, 1.0);
    }

    #[test]
    fn max_opacity_in_matches_dense_scan() {
        // Non-monotone TF with non-integer control points: the interval
        // max must dominate a dense scan of actual opacity evaluations.
        let tf = TransferFunction::new(
            vec![(10.5, 0.0), (50.25, 0.9), (90.0, 0.1), (200.0, 0.6)],
            1.0,
            0.8,
        );
        for (lo, hi) in [
            (0.0, 255.0),
            (0.0, 10.5),
            (10.5, 50.25),
            (40.0, 60.0),
            (51.0, 89.0),
            (95.0, 95.0),
            (201.0, 255.0),
        ] {
            let bound = tf.max_opacity_in(lo, hi);
            let mut scanned: f32 = 0.0;
            let steps = 1000;
            for k in 0..=steps {
                let d = lo + (hi - lo) * k as f32 / steps as f32;
                scanned = scanned.max(tf.opacity(d));
            }
            assert!(
                bound >= scanned,
                "interval [{lo},{hi}]: bound {bound} < scanned {scanned}"
            );
            // And it is attained up to the scan resolution (tight, not
            // just an upper bound).
            assert!(bound <= scanned + 2e-3);
        }
    }

    #[test]
    fn max_opacity_in_zero_iff_window_below_lo() {
        let tf = TransferFunction::window(100.0, 200.0, 0.8);
        assert_eq!(tf.max_opacity_in(0.0, 100.0), 0.0);
        assert!(tf.max_opacity_in(0.0, 101.0) > 0.0);
    }

    #[test]
    fn points_accessor_is_sorted() {
        let tf = TransferFunction::new(vec![(200.0, 0.5), (10.0, 0.1)], 1.0, 1.0);
        assert_eq!(tf.points(), &[(10.0, 0.1), (200.0, 0.5)]);
    }
}
