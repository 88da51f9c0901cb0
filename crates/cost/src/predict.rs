//! Predictive what-if sweeps: the paper's Equations (1)–(8) evaluated
//! under any [`CostModelPreset`] at any scale.
//!
//! Because the predictions are closed-form ([`predict`] over a
//! [`UniformWorkload`], from `slsvr-core`), nothing here spawns rank
//! threads — `P = 512` costs the same to evaluate as `P = 8`, which is
//! the point: "what would BSBRC cost at 512 ranks on today's network"
//! becomes a table, not a guess. The paper's measured method ranking
//! (sparse workloads: BSLC/BSBRC beat BS/BSBR) doubles as a built-in
//! cross-check under the `sp2` preset.

use slsvr_core::{predict, Method, UniformWorkload};

use crate::preset::CostModelPreset;

/// Nominal ray samples per image pixel for the render-cost estimate
/// (a ~64-step chord through the volume). The render term is identical
/// across compositing methods, so it never affects the ranking — it
/// exists to keep predicted frame times end-to-end honest.
pub const SAMPLES_PER_PIXEL: f64 = 64.0;

/// One cell of a predictive sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct PredictRow {
    /// Compositing method, one of [`Method::paper_methods`].
    pub method: Method,
    /// Processor count (power of two).
    pub p: usize,
    /// Image edge in pixels (the image is `size × size`).
    pub size: u16,
    /// Non-blank pixel fraction of the workload.
    pub density: f64,
    /// Predicted per-rank rendering seconds (method-independent).
    pub render_seconds: f64,
    /// Predicted compositing computation seconds (Equations 1/3/5/7).
    pub comp_seconds: f64,
    /// Predicted communication seconds (Equations 2/4/6/8).
    pub comm_seconds: f64,
}

impl PredictRow {
    /// Predicted compositing total (the paper's `T_comp + T_comm`).
    pub fn composite_seconds(&self) -> f64 {
        self.comp_seconds + self.comm_seconds
    }

    /// Predicted end-to-end frame seconds including the render phase.
    pub fn total_seconds(&self) -> f64 {
        self.render_seconds + self.composite_seconds()
    }
}

/// The uniform workload model a `(size, density)` cell maps to: the
/// bounding rectangle covers `4ρ` of each region (a coherent blob) and
/// run codes follow the random-mixing limit `2ρ(1−ρ)`.
fn uniform_workload(size: u16, density: f64) -> UniformWorkload {
    UniformWorkload {
        a: size as usize * size as usize,
        density,
        rect_fraction: (density * 4.0).min(1.0),
        codes_per_pixel: 2.0 * density * (1.0 - density),
    }
}

/// Evaluates all four methods over the cross product of `procs` ×
/// `sizes` × `densities` under `preset`.
///
/// Panics if any processor count is not a power of two (the binary-swap
/// family is only defined there; the simulator folds other counts, but
/// Equations (1)–(8) do not).
pub fn predict_grid(
    preset: &CostModelPreset,
    procs: &[usize],
    sizes: &[u16],
    densities: &[f64],
) -> Vec<PredictRow> {
    let net = &preset.network;
    let comp = &preset.comp;
    let mut rows = Vec::new();
    for &p in procs {
        assert!(
            p.is_power_of_two() && p >= 2,
            "predictive sweep needs power-of-two P >= 2, got {p}"
        );
        for &size in sizes {
            let a = size as usize * size as usize;
            // Rendering is screen-partitioned across ranks.
            let render_seconds = preset.t_render_sample * a as f64 * SAMPLES_PER_PIXEL / p as f64;
            for &density in densities {
                let w = uniform_workload(size, density);
                for method in Method::paper_methods() {
                    let pred = predict(method, &w, p, net, comp);
                    rows.push(PredictRow {
                        method,
                        p,
                        size,
                        density,
                        render_seconds,
                        comp_seconds: pred.comp_seconds,
                        comm_seconds: pred.comm_seconds,
                    });
                }
            }
        }
    }
    rows
}

/// The paper's headline ordering for sparse workloads: both
/// RLE-compressing methods (BSLC, BSBRC) must beat both
/// non-compressing ones (BS, BSBR) on compositing cost.
///
/// `rows` must be the four method rows of one `(p, size, density)`
/// cell. Returns `None` outside the paper's sparse regime, ρ ∈
/// [0.04, 0.1]: above it the workload is not sparse, and below ~4%
/// the ordering genuinely inverts at large P — the bounding rectangle
/// shrinks with ρ (`4ρ` of the region) so BSBR ships almost nothing,
/// while BSLC still scans the whole region every stage.
pub fn ranking_holds(rows: &[PredictRow]) -> Option<bool> {
    let cost = |m: Method| -> f64 {
        rows.iter()
            .find(|r| r.method == m)
            .map(PredictRow::composite_seconds)
            .unwrap_or(f64::NAN)
    };
    let density = rows.first()?.density;
    if !(0.04..=0.1).contains(&density) {
        return None;
    }
    let compressed = cost(Method::Bslc).max(cost(Method::Bsbrc));
    let plain = cost(Method::Bs).min(cost(Method::Bsbr));
    Some(compressed < plain)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_the_cross_product() {
        let preset = CostModelPreset::sp2();
        let rows = predict_grid(&preset, &[8, 16], &[128, 256], &[0.05, 0.5]);
        assert_eq!(rows.len(), 2 * 2 * 2 * 4);
        assert!(rows.iter().all(|r| r.comp_seconds > 0.0));
        assert!(rows.iter().all(|r| r.comm_seconds > 0.0));
    }

    #[test]
    fn p512_is_just_another_grid_point() {
        let preset = CostModelPreset::sp2();
        let rows = predict_grid(&preset, &[512], &[1024], &[0.05]);
        assert_eq!(rows.len(), 4);
        // 9 swap stages: costs stay finite and positive.
        assert!(rows.iter().all(|r| r.total_seconds().is_finite()));
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_p_is_rejected() {
        predict_grid(&CostModelPreset::sp2(), &[12], &[128], &[0.05]);
    }

    #[test]
    fn sparse_ranking_holds_under_sp2_and_is_skipped_when_dense() {
        let preset = CostModelPreset::sp2();
        let rows = predict_grid(&preset, &[16], &[384], &[0.05]);
        assert_eq!(ranking_holds(&rows), Some(true));
        let dense = predict_grid(&preset, &[16], &[384], &[0.5]);
        assert_eq!(ranking_holds(&dense), None);
    }
}
