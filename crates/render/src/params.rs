//! Rendering parameters of the ray caster.

use vr_volume::Vec3;

/// Sampling and shading knobs.
#[derive(Clone, Copy, Debug)]
pub struct RenderParams {
    /// Distance between ray samples, in voxels.
    pub step: f32,
    /// Front-to-back accumulation stops once opacity reaches this
    /// (Levoy's early ray termination). The default of `1.0` is
    /// paper-faithful — every ray integrates its full chord, as in the
    /// original system; set below 1 (e.g. 0.98) to trade a bounded
    /// opacity error for rendering speed.
    pub early_termination_alpha: f32,
    /// Ambient shading term.
    pub ambient: f32,
    /// Diffuse (Lambertian) shading weight.
    pub diffuse: f32,
    /// Unit light direction (towards the scene).
    pub light_dir: Vec3,
    /// Minimum per-sample opacity for a sample to contribute — skips
    /// fully transparent space cheaply.
    pub opacity_cutoff: f32,
    /// Per-channel `[r, g, b]` tint applied to each sample's shaded
    /// contribution. The default `[1, 1, 1]` reproduces the paper's
    /// gray-level images bit-exactly (multiplying by `1.0` is an
    /// identity); other tints exercise color channels independently.
    pub tint: [f32; 3],
    /// Ray-sample batch width inside active macrocells: the integrator
    /// gathers up to this many samples per iteration into fixed-width
    /// array lanes the autovectorizer can lift, then classifies and
    /// accumulates them strictly in sample order — **bit-identical** to
    /// the unaccelerated reference (no macrocell grid) at any width.
    /// `1` (the default) batches one sample at a time; clamped to
    /// `1..=`[`MAX_SIMD_LANES`].
    pub simd_lanes: usize,
}

/// Widest supported `simd_lanes` value (the fixed lane-array width).
pub const MAX_SIMD_LANES: usize = 8;

impl Default for RenderParams {
    fn default() -> Self {
        RenderParams {
            step: 1.0,
            early_termination_alpha: 1.0,
            ambient: 0.35,
            diffuse: 0.65,
            light_dir: Vec3::new(-0.4, -0.6, 0.7).normalized(),
            opacity_cutoff: 1e-4,
            tint: [1.0; 3],
            simd_lanes: 1,
        }
    }
}

impl RenderParams {
    /// A faster, coarser preset for tests.
    pub fn fast() -> Self {
        RenderParams {
            step: 2.0,
            ..Default::default()
        }
    }

    /// Converts a per-unit-length opacity to a per-sample opacity for the
    /// configured step size: `1 − (1 − α)^step`.
    ///
    /// At `step == 1` the power is skipped: `powf(x, 1.0) == x` for every
    /// `x` in [0, 1], bit for bit (the tests sweep every such `f32`).
    #[inline]
    pub fn step_opacity(&self, alpha_unit: f32) -> f32 {
        if alpha_unit >= 1.0 {
            return 1.0;
        }
        let transmitted = 1.0 - alpha_unit;
        if self.step == 1.0 {
            return 1.0 - transmitted;
        }
        1.0 - transmitted.powf(self.step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_opacity_identity_at_unit_step() {
        let p = RenderParams {
            step: 1.0,
            ..Default::default()
        };
        assert!((p.step_opacity(0.3) - 0.3).abs() < 1e-6);
    }

    #[test]
    fn step_opacity_composes() {
        // Two half-steps must equal one full step: (1-a)^0.5 twice.
        let half = RenderParams {
            step: 0.5,
            ..Default::default()
        };
        let a = 0.4f32;
        let h = half.step_opacity(a);
        let two = h + (1.0 - h) * h;
        assert!((two - a).abs() < 1e-5);
    }

    /// Asserts the step-1 shortcut against the `powf` it replaces at every
    /// `stride`-th `f32` bit pattern in [0.0, 1.0], and at 0, 1 and their
    /// neighbours. The exponent is opaque to the optimiser, which would
    /// otherwise fold `powf(x, 1.0)` to `x` and test nothing.
    fn assert_step_one_matches_powf(stride: usize) {
        let p = RenderParams {
            step: 1.0,
            ..Default::default()
        };
        let one = std::hint::black_box(1.0f32);
        let top = 1.0f32.to_bits();
        let edges = [0, 1, 2, top - 2, top - 1, top];
        for bits in (0..=top).step_by(stride).chain(edges) {
            let a = f32::from_bits(bits);
            let powf = 1.0 - (1.0 - a).powf(one);
            assert_eq!(p.step_opacity(a).to_bits(), powf.to_bits(), "alpha {a:e}");
        }
    }

    #[test]
    fn step_one_opacity_matches_powf_at_every_4096th_pattern() {
        assert_step_one_matches_powf(4096);
    }

    /// All 1,065,353,217 patterns: run it in a release build.
    #[test]
    #[ignore]
    fn step_one_opacity_matches_powf_at_every_pattern() {
        assert_step_one_matches_powf(1);
    }

    #[test]
    fn tint_defaults_to_identity() {
        assert_eq!(RenderParams::default().tint, [1.0, 1.0, 1.0]);
        assert_eq!(RenderParams::fast().tint, [1.0, 1.0, 1.0]);
    }

    #[test]
    fn threading_and_lanes_default_to_the_scalar_reference() {
        let p = RenderParams::default();
        assert_eq!(p.simd_lanes, 1);
        assert_eq!(8usize.clamp(1, MAX_SIMD_LANES), 8);
    }

    #[test]
    fn opaque_stays_opaque() {
        let p = RenderParams {
            step: 0.25,
            ..Default::default()
        };
        assert_eq!(p.step_opacity(1.0), 1.0);
    }
}
