//! The drift gate: does a freshly fitted model still agree with the
//! checked-in one?
//!
//! Comparing raw constants across CI runs would gate on host speed —
//! every runner generation would "drift". Instead the gate compares
//! *relative* ratios with `t_over` as the anchor: `t_pack/t_over`,
//! `t_scan/t_over`, …, `(t_c·16)/t_over` (moving one pixel vs
//! compositing one), `t_s/t_over` and `t_render_sample/t_over`. A
//! uniformly faster or slower host cancels out; what remains is the
//! *shape* of the cost model, which only moves when the code or the
//! measurement changes — exactly what the gate is for.
//!
//! Host awareness: ratios against `t_over` are stable on any host that
//! can run the sweep at all, but a 1-core host measures the message
//! framing and render paths under scheduler pressure the model does not
//! describe; such hosts record a `skipped-narrow-host` marker instead
//! of a meaningless verdict (the same policy the bench gates use).

use vr_image::BYTES_PER_PIXEL;

use crate::preset::CostModelPreset;

/// Default per-ratio tolerance for the CI gate, percent. Chosen from
/// measured back-to-back refit stability on an otherwise-idle host
/// (ratios move a few percent run to run; shared CI hosts are noisier)
/// with generous headroom: the gate exists to catch *shape* changes —
/// an operation getting algorithmically cheaper or dearer relative to
/// `over` — which show up as 2x-scale moves, not tens of percent.
pub const DEFAULT_TOLERANCE_PCT: f64 = 60.0;

/// One compared ratio.
#[derive(Clone, Debug, PartialEq)]
pub struct DriftLine {
    /// Ratio name, e.g. `t_pack/t_over`.
    pub name: String,
    /// The checked-in preset's value.
    pub baseline: f64,
    /// The freshly fitted value.
    pub refit: f64,
    /// `|refit/baseline − 1|` in percent.
    pub delta_pct: f64,
    /// Within tolerance?
    pub ok: bool,
}

/// The gate's full verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct DriftReport {
    /// Allowed per-ratio movement, percent.
    pub tolerance_pct: f64,
    /// `true` on hosts too narrow for a meaningful comparison; the gate
    /// passes vacuously and says so.
    pub skipped_narrow_host: bool,
    /// Per-ratio comparisons (empty when skipped).
    pub lines: Vec<DriftLine>,
}

impl DriftReport {
    /// Overall gate outcome.
    pub fn passed(&self) -> bool {
        self.skipped_narrow_host || self.lines.iter().all(|l| l.ok)
    }

    /// Human-readable report (one line per ratio, plus the verdict).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.skipped_narrow_host {
            out.push_str("drift gate: skipped-narrow-host (needs >= 2 cores)\n");
            return out;
        }
        out.push_str(&format!(
            "drift gate (tolerance {:.0}%, t_over-normalized ratios):\n",
            self.tolerance_pct
        ));
        for l in &self.lines {
            out.push_str(&format!(
                "  {:<24} baseline {:>12.5e}  refit {:>12.5e}  delta {:>6.1}%  {}\n",
                l.name,
                l.baseline,
                l.refit,
                l.delta_pct,
                if l.ok { "ok" } else { "DRIFT" }
            ));
        }
        out.push_str(if self.passed() {
            "drift gate: PASS\n"
        } else {
            "drift gate: FAIL\n"
        });
        out
    }
}

/// The `t_over`-anchored ratio vector of a preset: every other constant
/// of [`CostModelPreset::constants`] over `t_over`, `t_c` scaled to one
/// pixel's bytes.
fn anchored_ratios(preset: &CostModelPreset) -> Vec<(String, f64)> {
    let anchor = preset.comp.t_over;
    assert!(anchor > 0.0, "preset '{}' has t_over <= 0", preset.name);
    let others = preset.constants().into_iter().filter(|c| c.0 != "t_over");
    others
        .map(|(label, _, value)| match label {
            "t_c" => (
                "t_c*16/t_over".into(),
                value * BYTES_PER_PIXEL as f64 / anchor,
            ),
            _ => (format!("{label}/t_over"), value / anchor),
        })
        .collect()
}

/// Compares a fresh refit against the checked-in baseline.
///
/// `host_cores` is the *measuring* host's parallelism; below 2 the gate
/// records the skipped-narrow-host marker. `t_s/t_over` is compared
/// only when both models resolved a start-up charge above the
/// measurement floor — a fitted `t_s` of zero means "too small to see",
/// not "the framing got free", and tiny-over-tiny ratios are noise.
pub fn drift_check(
    baseline: &CostModelPreset,
    refit: &CostModelPreset,
    tolerance_pct: f64,
    host_cores: usize,
) -> DriftReport {
    if host_cores < 2 {
        return DriftReport {
            tolerance_pct,
            skipped_narrow_host: true,
            lines: Vec::new(),
        };
    }
    let base = anchored_ratios(baseline);
    let new = anchored_ratios(refit);
    let mut lines = Vec::new();
    for ((name, b), (_, r)) in base.into_iter().zip(new) {
        if name == "t_s/t_over" && (b == 0.0 || r == 0.0) {
            continue;
        }
        let delta_pct = if b == 0.0 {
            if r == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (r / b - 1.0).abs() * 100.0
        };
        lines.push(DriftLine {
            name,
            baseline: b,
            refit: r,
            delta_pct,
            ok: delta_pct <= tolerance_pct,
        });
    }
    DriftReport {
        tolerance_pct,
        skipped_narrow_host: false,
        lines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_presets_never_drift() {
        let p = CostModelPreset::sp2();
        let report = drift_check(&p, &p, 10.0, 8);
        assert!(report.passed());
        assert_eq!(report.lines.len(), 7);
        assert!(report.lines.iter().all(|l| l.delta_pct == 0.0));
    }

    #[test]
    fn uniform_host_speedup_cancels_out() {
        // A host 100x faster in every constant has identical ratios.
        let base = CostModelPreset::sp2();
        let mut fast = base.clone();
        for (_, _, value) in fast.constants_mut() {
            *value *= 1.0 / 100.0;
        }
        let report = drift_check(&base, &fast, 1.0, 8);
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn a_shape_change_is_caught() {
        let base = CostModelPreset::sp2();
        let mut skew = base.clone();
        skew.comp.t_pack *= 2.0; // packing got twice as expensive
        let report = drift_check(&base, &skew, 25.0, 8);
        assert!(!report.passed());
        let bad: Vec<_> = report.lines.iter().filter(|l| !l.ok).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].name, "t_pack/t_over");
        assert!(report.render().contains("DRIFT"));
    }

    #[test]
    fn narrow_host_skips_instead_of_judging() {
        let base = CostModelPreset::sp2();
        let mut skew = base.clone();
        skew.comp.t_pack *= 10.0;
        let report = drift_check(&base, &skew, 10.0, 1);
        assert!(report.skipped_narrow_host);
        assert!(report.passed());
        assert!(report.render().contains("skipped-narrow-host"));
    }

    #[test]
    fn unmeasurable_startup_charge_is_not_compared() {
        let base = CostModelPreset::sp2();
        let mut refit = base.clone();
        refit.network.t_s = 0.0; // below the refit host's floor
        let report = drift_check(&base, &refit, 10.0, 8);
        assert!(report.passed(), "{}", report.render());
        assert!(report.lines.iter().all(|l| l.name != "t_s/t_over"));
    }
}
