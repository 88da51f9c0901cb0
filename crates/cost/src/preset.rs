//! Serializable cost-model presets.
//!
//! A [`CostModelPreset`] bundles everything the predictive layer needs:
//! the network constants ([`vr_comm::CostModel`]: `T_s`, `T_c`), the
//! per-operation compute constants ([`slsvr_core::CompCost`]), and a
//! per-ray-sample rendering cost — plus, for fitted presets, the
//! per-operation fit-quality metadata so a checked-in model carries its
//! own evidence. The paper-faithful `sp2` preset delegates to the
//! *same* constructors the vclock scheduler and the conformance traffic
//! oracle already use ([`CostModel::sp2`], [`CompCost::power2`]), which
//! is what keeps the oracle and the simulator structurally unable to
//! disagree: there is one source for the numbers, and this type is how
//! it travels.

use slsvr_core::CompCost;
use vr_comm::CostModel;

use crate::json::{obj, parse, Json};

/// Schema tag for `COST_MODEL.json`.
pub const MODEL_SCHEMA: &str = "slsvr-cost-model/v1";

/// Default model-file path (repo root).
pub const DEFAULT_MODEL_PATH: &str = "COST_MODEL.json";

/// Fit-quality metadata for one modeled operation.
#[derive(Clone, Debug, PartialEq)]
pub struct OpFit {
    /// Operation name (`over`, `pack`, `unpack`, `encode`, `scan`,
    /// `message`, `render`).
    pub op: String,
    /// Coefficient of determination of the fit.
    pub r2: f64,
    /// Adjusted R² (penalized for parameter count).
    pub adjusted_r2: f64,
    /// Number of sweep samples the fit used.
    pub samples: usize,
}

/// A complete, serializable cost model.
#[derive(Clone, Debug, PartialEq)]
pub struct CostModelPreset {
    /// Preset name (`sp2`, `local`, …).
    pub name: String,
    /// Human-readable provenance line.
    pub description: String,
    /// Network half: `time(msg) = t_s + bytes·t_c`.
    pub network: CostModel,
    /// Compute half: per-op constants for Equations (1)/(3)/(5)/(7).
    pub comp: CompCost,
    /// Seconds per ray sample taken by the renderer (outside the
    /// paper's compositing equations, but needed for end-to-end what-if
    /// sweeps).
    pub t_render_sample: f64,
    /// Per-op fit quality; empty for hand-calibrated presets.
    pub fits: Vec<OpFit>,
    /// Cores of the host that fitted this preset (`None` for
    /// hand-calibrated presets). The drift gate uses it to flag models
    /// fitted on unusually narrow hosts.
    pub host_cores: Option<u64>,
    /// Sweep grid this preset was fitted from (`quick`/`full`, `None`
    /// for hand-calibrated presets). Slopes shift systematically with
    /// the grid (larger images leave cache), so a drift comparison is
    /// only meaningful like-for-like.
    pub sweep_grid: Option<String>,
}

impl CostModelPreset {
    /// A hand-calibrated preset carrying the paper's constants
    /// ([`CostModel::sp2`], [`CompCost::power2`]); the fitter and the
    /// parser start from one and overwrite all eight.
    pub(crate) fn calibrated(name: &str, description: String) -> Self {
        CostModelPreset {
            name: name.into(),
            description,
            network: CostModel::sp2(),
            comp: CompCost::power2(),
            // A trilinear fetch + classification + shading per sample is
            // a small multiple of one `over`; ~5 us/sample reproduces
            // the paper's seconds-per-frame rendering times at 384^2.
            t_render_sample: 5.0e-6,
            fits: Vec::new(),
            host_cores: None,
            sweep_grid: None,
        }
    }

    /// The paper-faithful preset: SP2 High Performance Switch network
    /// constants and POWER2 per-op compute constants — byte-for-byte the
    /// same values [`CostKind::Sp2`](slsvr_core::CostKind) and the
    /// default [`ExperimentConfig`](vr_comm::CostModel) resolve to.
    pub fn sp2() -> Self {
        let description = "IBM SP2: HPS network (Ts=40us, 35MB/s), 66.7MHz POWER2 per-op costs \
                           calibrated to Table 1";
        CostModelPreset::calibrated("sp2", description.into())
    }

    /// The model's eight constants in report order, each `(label, the
    /// sweep op whose fit produces it, value)`. `message` fits two: its
    /// intercept is `t_s`, its slope `t_c`. The JSON codec, the fitter,
    /// the drift gate and the CLI's table all walk this list.
    pub fn constants(&self) -> [(&'static str, &'static str, f64); 8] {
        let (mut network, mut comp, mut render) = (self.network, self.comp, self.t_render_sample);
        constant_slots(&mut network, &mut comp, &mut render).map(|(label, op, v)| (label, op, *v))
    }

    /// [`constants`](Self::constants), by reference.
    pub(crate) fn constants_mut(&mut self) -> [(&'static str, &'static str, &mut f64); 8] {
        constant_slots(&mut self.network, &mut self.comp, &mut self.t_render_sample)
    }

    /// Built-in presets by name.
    pub fn builtin(name: &str) -> Option<Self> {
        match name {
            "sp2" => Some(CostModelPreset::sp2()),
            _ => None,
        }
    }

    /// The worst per-op R² recorded in this preset's fit metadata
    /// (`None` when hand-calibrated).
    pub fn min_r2(&self) -> Option<f64> {
        self.fits.iter().map(|f| f.r2).min_by(|a, b| a.total_cmp(b))
    }

    /// Serializes to a JSON value.
    pub fn to_json(&self) -> Json {
        let section = |name: Option<&'static str>| {
            let in_it = self
                .constants()
                .into_iter()
                .filter(move |c| json_section(c.1) == name);
            in_it.map(|(label, _, value)| (label, Json::Num(value)))
        };
        let mut fields = vec![
            ("name", Json::Str(self.name.clone())),
            ("description", Json::Str(self.description.clone())),
            ("network", obj(section(Some("network")))),
            ("comp", obj(section(Some("comp")))),
            (
                "fits",
                Json::Arr(
                    self.fits
                        .iter()
                        .map(|f| {
                            obj([
                                ("op", Json::Str(f.op.clone())),
                                ("r2", Json::Num(f.r2)),
                                ("adjusted_r2", Json::Num(f.adjusted_r2)),
                                ("samples", Json::Num(f.samples as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        fields.extend(section(None));
        if let Some(cores) = self.host_cores {
            fields.push(("host_cores", Json::Num(cores as f64)));
        }
        if let Some(grid) = &self.sweep_grid {
            fields.push(("sweep_grid", Json::Str(grid.clone())));
        }
        obj(fields)
    }

    /// Deserializes from a JSON value, validating every field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("preset missing string field '{key}'"))
        };
        let num_in = |parent: &Json, key: &str| -> Result<f64, String> {
            parent
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("preset missing numeric field '{key}'"))
        };
        let name = str_field("name")?;
        let mut preset = CostModelPreset::calibrated(&name, str_field("description")?);
        for f in v
            .get("fits")
            .and_then(Json::as_arr)
            .ok_or("preset missing 'fits' array")?
        {
            preset.fits.push(OpFit {
                op: f
                    .get("op")
                    .and_then(Json::as_str)
                    .ok_or("fit entry missing 'op'")?
                    .to_string(),
                r2: num_in(f, "r2")?,
                adjusted_r2: num_in(f, "adjusted_r2")?,
                samples: num_in(f, "samples")? as usize,
            });
        }
        preset.host_cores = v.get("host_cores").and_then(Json::as_u64);
        preset.sweep_grid = v
            .get("sweep_grid")
            .and_then(Json::as_str)
            .map(str::to_string);
        for (label, op, value) in preset.constants_mut() {
            let parent = match json_section(op) {
                Some(section) => v
                    .get(section)
                    .ok_or_else(|| format!("preset missing '{section}'"))?,
                None => v,
            };
            *value = num_in(parent, label)?;
            if !value.is_finite() || *value < 0.0 {
                return Err(format!(
                    "preset '{name}': non-physical constant {label} = {value}"
                ));
            }
        }
        Ok(preset)
    }
}

/// The one list of the model's constants (see
/// [`CostModelPreset::constants`]).
fn constant_slots<'a>(
    network: &'a mut CostModel,
    comp: &'a mut CompCost,
    t_render_sample: &'a mut f64,
) -> [(&'static str, &'static str, &'a mut f64); 8] {
    [
        ("t_over", "over", &mut comp.t_over),
        ("t_pack", "pack", &mut comp.t_pack),
        ("t_unpack", "unpack", &mut comp.t_unpack),
        ("t_encode", "encode", &mut comp.t_encode),
        ("t_scan", "scan", &mut comp.t_scan),
        ("t_s", "message", &mut network.t_s),
        ("t_c", "message", &mut network.t_c),
        ("t_render_sample", "render", t_render_sample),
    ]
}

/// The JSON object a constant is stored under, by the op that fits it
/// (`None`: the preset's top level).
fn json_section(op: &str) -> Option<&'static str> {
    match op {
        "message" => Some("network"),
        "render" => None,
        _ => Some("comp"),
    }
}

/// Renders a full `COST_MODEL.json` document from a set of presets.
pub fn render_model_file(presets: &[CostModelPreset]) -> String {
    obj([
        ("schema", Json::Str(MODEL_SCHEMA.into())),
        (
            "presets",
            Json::Arr(presets.iter().map(CostModelPreset::to_json).collect()),
        ),
    ])
    .pretty()
}

/// Parses a `COST_MODEL.json` document.
pub fn parse_model_file(text: &str) -> Result<Vec<CostModelPreset>, String> {
    let doc = parse(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(MODEL_SCHEMA) => {}
        Some(other) => return Err(format!("unsupported model schema '{other}'")),
        None => return Err("model file missing 'schema'".into()),
    }
    doc.get("presets")
        .and_then(Json::as_arr)
        .ok_or("model file missing 'presets' array")?
        .iter()
        .map(CostModelPreset::from_json)
        .collect()
}

/// Resolves a `--preset` spec: the built-in name `sp2`, a
/// preset name looked up in `model_path`, or a path to a model file
/// (taking its sole preset, or `file.json#name` to pick one).
pub fn resolve_preset(spec: &str, model_path: &str) -> Result<CostModelPreset, String> {
    if let Some(p) = CostModelPreset::builtin(spec) {
        return Ok(p);
    }
    if let Some((path, name)) = spec.split_once('#') {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read model file '{path}': {e}"))?;
        let presets = parse_model_file(&text)?;
        return presets
            .into_iter()
            .find(|p| p.name == name)
            .ok_or_else(|| format!("no preset '{name}' in '{path}'"));
    }
    if spec.ends_with(".json") {
        let text = std::fs::read_to_string(spec)
            .map_err(|e| format!("cannot read model file '{spec}': {e}"))?;
        let mut presets = parse_model_file(&text)?;
        return match presets.len() {
            0 => Err(format!("'{spec}' contains no presets")),
            1 => Ok(presets.remove(0)),
            n => Err(format!(
                "'{spec}' contains {n} presets; pick one with '{spec}#NAME'"
            )),
        };
    }
    let text = std::fs::read_to_string(model_path).map_err(|e| {
        format!(
            "unknown preset '{spec}' (not built-in, and cannot read model file \
             '{model_path}': {e})"
        )
    })?;
    let presets = parse_model_file(&text)?;
    let names: Vec<&str> = presets.iter().map(|p| p.name.as_str()).collect();
    presets
        .iter()
        .find(|p| p.name == spec)
        .cloned()
        .ok_or_else(|| {
            format!(
                "no preset '{spec}' in '{model_path}' (available: {}, built-in: sp2)",
                names.join(", ")
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sp2_preset_is_the_papers_constants() {
        // The preset must resolve to the exact same numbers the vclock
        // scheduler and the conformance oracle use — one source.
        let p = CostModelPreset::sp2();
        assert_eq!(p.network, CostModel::sp2());
        assert_eq!(p.comp, CompCost::power2());
        assert_eq!(p.network, slsvr_core::CostKind::Sp2.model());
    }

    #[test]
    fn preset_round_trips_through_json() {
        let p = CostModelPreset {
            name: "local".into(),
            description: "fitted on host X".into(),
            network: CostModel {
                t_s: 1.25e-6,
                t_c: 3.0e-10,
            },
            comp: CompCost {
                t_scan: 1e-9,
                t_pack: 2e-9,
                t_unpack: 3e-9,
                t_over: 4e-9,
                t_encode: 5e-9,
            },
            t_render_sample: 6e-9,
            fits: vec![OpFit {
                op: "over".into(),
                r2: 0.999,
                adjusted_r2: 0.998,
                samples: 12,
            }],
            host_cores: Some(8),
            sweep_grid: Some("full".into()),
        };
        let text = render_model_file(&[CostModelPreset::sp2(), p.clone()]);
        let back = parse_model_file(&text).unwrap();
        assert_eq!(back, vec![CostModelPreset::sp2(), p]);
    }

    #[test]
    fn model_file_rejects_wrong_schema_and_bad_constants() {
        assert!(parse_model_file("{\"schema\": \"nope\", \"presets\": []}").is_err());
        let mut p = CostModelPreset::sp2();
        p.comp.t_over = -1.0;
        let text = render_model_file(&[p]);
        let err = parse_model_file(&text).unwrap_err();
        assert!(err.contains("non-physical"), "{err}");
    }

    #[test]
    fn builtin_resolution_needs_no_model_file() {
        let p = resolve_preset("sp2", "/nonexistent/COST_MODEL.json").unwrap();
        assert_eq!(p.name, "sp2");
        assert!(resolve_preset("nope", "/nonexistent").is_err());
    }

    #[test]
    fn min_r2_reports_the_worst_fit() {
        let mut p = CostModelPreset::sp2();
        assert_eq!(p.min_r2(), None);
        for (op, r2) in [("over", 0.99), ("pack", 0.93), ("scan", 0.97)] {
            p.fits.push(OpFit {
                op: op.into(),
                r2,
                adjusted_r2: r2,
                samples: 10,
            });
        }
        assert_eq!(p.min_r2(), Some(0.93));
    }
}
