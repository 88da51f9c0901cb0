//! Validation suite for the learned cost-model subsystem: the checked-in
//! `COST_MODEL.json` artifact, the paper-ranking cross-check under the
//! `sp2` preset, and the predictive sweep at scales the simulator never
//! runs (P = 512).

use slsvr::compositing::{CompCost, CostKind, Method};
use slsvr::cost::{
    parse_model_file, predict_grid, ranking_holds, render_model_file, resolve_preset,
    CostModelPreset, QUALITY_FLOOR,
};

fn checked_in_presets() -> Vec<CostModelPreset> {
    let text = std::fs::read_to_string("COST_MODEL.json")
        .expect("checked-in COST_MODEL.json at the repo root");
    parse_model_file(&text).expect("COST_MODEL.json parses")
}

fn preset(name: &str) -> CostModelPreset {
    checked_in_presets()
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("COST_MODEL.json carries a '{name}' preset"))
}

/// The serialized `sp2` preset is byte-for-byte the constants the vclock
/// scheduler and the conformance oracle resolve — one source of truth.
#[test]
fn checked_in_sp2_matches_the_schedulers_constants() {
    let sp2 = preset("sp2");
    assert_eq!(sp2.network, CostKind::Sp2.model());
    assert_eq!(sp2.comp, CompCost::power2());
    assert_eq!(sp2, CostModelPreset::sp2());
}

/// Acceptance bar for the fitted artifact: every operation's fit clears
/// the R² quality floor, and the provenance fields are filled in.
#[test]
fn checked_in_local_preset_clears_the_quality_floor() {
    let local = preset("local");
    assert_eq!(local.fits.len(), 7, "all seven modeled ops carry a fit");
    let min = local.min_r2().expect("fitted preset records R²");
    assert!(
        min >= QUALITY_FLOOR,
        "worst per-op R² {min} below the {QUALITY_FLOOR} floor"
    );
    assert!(local.host_cores.is_some(), "fitted preset records its host");
    assert!(local.sweep_grid.is_some(), "fitted preset records its grid");
    // Physicality: the validator enforces finite >= 0; a fitted model
    // must be strictly positive everywhere but t_s (which may sit below
    // the measurement floor and clamp to zero).
    for v in [
        local.comp.t_scan,
        local.comp.t_pack,
        local.comp.t_unpack,
        local.comp.t_over,
        local.comp.t_encode,
        local.network.t_c,
        local.t_render_sample,
    ] {
        assert!(v > 0.0);
    }
}

/// Figure 4/5's headline claim, reproduced from the closed forms under
/// the paper-faithful preset: on sparse workloads the RLE-compressing
/// methods (BSLC, BSBRC) beat the non-compressing ones (BS, BSBR) at
/// every processor count the paper measured.
#[test]
fn sp2_preset_reproduces_the_paper_ranking() {
    let sp2 = CostModelPreset::sp2();
    let rows = predict_grid(&sp2, &[8, 16, 32, 64], &[384], &[0.05, 0.1]);
    let mut cells = 0;
    for cell in rows.chunks(Method::paper_methods().len()) {
        assert_eq!(
            ranking_holds(cell),
            Some(true),
            "paper ranking must hold at P={} density={}",
            cell[0].p,
            cell[0].density
        );
        cells += 1;
    }
    assert_eq!(cells, 8, "4 processor counts x 2 sparse densities");
}

/// The predictive sweep needs no simulator: the fitted `local` preset
/// evaluates at P = 512 (and a 1024² image) in closed form, producing
/// finite, monotonic-in-P communication costs.
#[test]
fn local_preset_predicts_at_p512_without_code_changes() {
    let local = preset("local");
    let rows = predict_grid(&local, &[8, 512], &[1024], &[0.05]);
    assert_eq!(rows.len(), 2 * Method::paper_methods().len());
    for r in &rows {
        assert!(r.comp_seconds.is_finite() && r.comp_seconds > 0.0);
        assert!(r.comm_seconds.is_finite() && r.comm_seconds >= 0.0);
        assert!(r.render_seconds > 0.0);
    }
    // More ranks split the same image: per-rank rendering shrinks.
    let render_at = |p: usize| {
        rows.iter()
            .find(|r| r.p == p)
            .expect("row for every swept P")
            .render_seconds
    };
    assert!(render_at(512) < render_at(8));
}

/// `--preset` resolution: built-ins take priority, fitted names resolve
/// through the model file, and `file#name` picks one of several.
#[test]
fn preset_specs_resolve_against_the_checked_in_model() {
    let builtin = resolve_preset("sp2", "COST_MODEL.json").unwrap();
    assert_eq!(builtin, CostModelPreset::sp2());
    let local = resolve_preset("local", "COST_MODEL.json").unwrap();
    assert_eq!(local.name, "local");
    let by_fragment = resolve_preset("COST_MODEL.json#local", "ignored").unwrap();
    assert_eq!(by_fragment, local);
    let err = resolve_preset("COST_MODEL.json", "ignored").unwrap_err();
    assert!(err.contains("pick one"), "{err}");
    assert!(resolve_preset("no-such-preset", "COST_MODEL.json").is_err());
}

/// The model file is its own canonical form: parsing the checked-in
/// bytes and rendering them again changes nothing — key order, number
/// formatting and the order of the `fits` entries included. Held since
/// `9e6fefe`, before the presets read and wrote their constants through
/// one table.
#[test]
fn checked_in_model_file_round_trips_byte_for_byte() {
    let text = std::fs::read_to_string("COST_MODEL.json").unwrap();
    assert_eq!(render_model_file(&parse_model_file(&text).unwrap()), text);
}

/// `slsvr sweep --preset sp2` is pure arithmetic over Equations (1)–(8)
/// printed at six decimals, so its stdout is the same on every host:
/// `results/predict_sp2.csv` is that output (181 lines), recorded at
/// `9e6fefe` when each method still had its own predictor loop. Never
/// re-record to pass.
#[test]
fn sp2_predictive_sweep_reprints_the_checked_in_csv() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_slsvr"))
        .args(["sweep", "--preset", "sp2"])
        .output()
        .expect("run slsvr sweep");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let want = std::fs::read_to_string("results/predict_sp2.csv").unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout), want);
}
