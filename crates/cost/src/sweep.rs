//! The parameter-sweep harness: measures every modeled operation across
//! a swept grid and fits the constants.
//!
//! Each modeled operation gets its own micro-benchmark driven at several
//! workload sizes. A sample is the *minimum* time over `reps`
//! repetitions (the usual bench-harness noise floor estimator), with the
//! operation batched enough times inside the timed region that the
//! machine's timer resolution never dominates. Batching does not distort
//! the model: the per-execution time stays affine in the swept
//! parameter, which is exactly the `c_0 + Σ c_i·param_i` shape the
//! fitter learns.
//!
//! The modeled operations and their swept parameter:
//!
//! | op        | measures                                        | param     |
//! |-----------|--------------------------------------------------|-----------|
//! | `over`    | [`Image::composite_rect_over`] (the paper's `T_o`) | pixels  |
//! | `pack`    | [`Image::extract_rect_into`]                     | pixels    |
//! | `unpack`  | [`Image::write_rect`]                            | pixels    |
//! | `encode`  | [`MaskRle::encode_mask`] (the paper's `T_encode`)  | pixels  |
//! | `scan`    | [`scan_runs_into`] run scanning                  | pixels    |
//! | `message` | [`encode_frame`] + [`decode_frame`] round trip   | bytes     |
//! | `render`  | [`render_block_accel`] naive ray casting         | samples   |
//!
//! `message`'s fitted intercept is the per-message start-up charge
//! (`T_s`) and its slope the per-byte charge (`T_c`); every other op
//! contributes its slope as the per-unit constant.

use std::time::Instant;

use vr_comm::frame::{decode_frame, encode_frame};
use vr_image::kernel::scan_runs_into;
use vr_image::rle::RunSet;
use vr_image::{Image, MaskRle, Pixel, Rect};
use vr_render::{render_block_accel, Camera, RenderParams};
use vr_volume::{kd_partition, Dataset, DatasetKind};

use crate::fit::FitResult;
use crate::json::{obj, parse, Json};
use crate::preset::{CostModelPreset, OpFit};

/// Minimum acceptable R² for a fitted operation (the acceptance bar the
/// checked-in `local` preset must clear on every op).
pub const QUALITY_FLOOR: f64 = 0.9;

/// Schema tag for persisted sweep-sample files.
pub const SWEEP_SCHEMA: &str = "slsvr-cost-sweep/v1";

/// Sweep samples for one modeled operation.
#[derive(Clone, Debug, PartialEq)]
pub struct OpSweep {
    /// Operation name (see the module table).
    pub op: String,
    /// Names of the swept parameters, in sample order.
    pub params: Vec<String>,
    /// `(param values, measured seconds per execution)` samples.
    pub samples: Vec<(Vec<f64>, f64)>,
}

/// A full sweep: every op's samples plus host provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepData {
    /// `quick` or `full`.
    pub grid: String,
    /// Repetitions per sample (min is kept).
    pub reps: usize,
    /// `available_parallelism` of the measuring host.
    pub host_cores: usize,
    /// Per-operation samples.
    pub ops: Vec<OpSweep>,
}

impl SweepData {
    /// Serializes to a JSON document string.
    pub fn render(&self) -> String {
        obj([
            ("schema", Json::Str(SWEEP_SCHEMA.into())),
            ("grid", Json::Str(self.grid.clone())),
            ("reps", Json::Num(self.reps as f64)),
            ("host_cores", Json::Num(self.host_cores as f64)),
            (
                "ops",
                Json::Arr(
                    self.ops
                        .iter()
                        .map(|o| {
                            obj([
                                ("op", Json::Str(o.op.clone())),
                                (
                                    "params",
                                    Json::Arr(o.params.iter().cloned().map(Json::Str).collect()),
                                ),
                                (
                                    "samples",
                                    Json::Arr(
                                        o.samples
                                            .iter()
                                            .map(|(xs, y)| {
                                                obj([
                                                    (
                                                        "params",
                                                        Json::Arr(
                                                            xs.iter()
                                                                .map(|&x| Json::Num(x))
                                                                .collect(),
                                                        ),
                                                    ),
                                                    ("seconds", Json::Num(*y)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .pretty()
    }

    /// Parses a persisted sweep document.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = parse(text)?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(SWEEP_SCHEMA) => {}
            other => return Err(format!("bad sweep schema {other:?}")),
        }
        let mut ops = Vec::new();
        for o in doc
            .get("ops")
            .and_then(Json::as_arr)
            .ok_or("sweep missing 'ops'")?
        {
            let mut samples = Vec::new();
            for s in o
                .get("samples")
                .and_then(Json::as_arr)
                .ok_or("op missing 'samples'")?
            {
                let xs = s
                    .get("params")
                    .and_then(Json::as_arr)
                    .ok_or("sample missing 'params'")?
                    .iter()
                    .map(|v| v.as_f64().ok_or("non-numeric param"))
                    .collect::<Result<Vec<f64>, _>>()?;
                let y = s
                    .get("seconds")
                    .and_then(Json::as_f64)
                    .ok_or("sample missing 'seconds'")?;
                samples.push((xs, y));
            }
            ops.push(OpSweep {
                op: o
                    .get("op")
                    .and_then(Json::as_str)
                    .ok_or("op missing 'op'")?
                    .to_string(),
                params: o
                    .get("params")
                    .and_then(Json::as_arr)
                    .ok_or("op missing 'params'")?
                    .iter()
                    .map(|v| {
                        v.as_str()
                            .map(str::to_string)
                            .ok_or("non-string param name")
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                samples,
            });
        }
        Ok(SweepData {
            grid: doc
                .get("grid")
                .and_then(Json::as_str)
                .unwrap_or("quick")
                .to_string(),
            reps: doc.get("reps").and_then(Json::as_u64).unwrap_or(0) as usize,
            host_cores: doc.get("host_cores").and_then(Json::as_u64).unwrap_or(1) as usize,
            ops,
        })
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Min-over-reps timing with in-region batching: returns seconds per
/// single execution of `f`.
fn time_op(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm up caches and lazy allocations
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

/// Batch enough executions that the timed region is far above timer
/// resolution: roughly 256k work units per region.
fn pixel_iters(pixels: usize) -> usize {
    (262_144 / pixels.max(1)).clamp(1, 64)
}

fn dense_image(side: u16) -> Image {
    Image::from_fn(side, side, |x, y| {
        Pixel::gray(0.2 + 0.6 * ((x ^ y) & 1) as f32, 0.7)
    })
}

/// A sparse image with coherent horizontal bands — realistic input for
/// the run scanner and the RLE encoder (all-dense input would make their
/// cost trivially proportional to one run).
fn banded_image(side: u16) -> Image {
    Image::from_fn(side, side, |x, y| {
        let in_band = (y / 4) % 2 == 0;
        let in_span = x >= side / 8 && x < side - side / 8;
        if in_band && in_span {
            Pixel::gray(0.5, 0.5)
        } else {
            Pixel::BLANK
        }
    })
}

/// Runs the full measurement sweep. `quick` trims the grids for CI
/// smoke; `reps` is the min-over repetitions per sample.
pub fn run_sweep(quick: bool, reps: usize) -> SweepData {
    let sides: &[u16] = if quick {
        &[64, 96, 128, 192, 256]
    } else {
        &[64, 96, 128, 192, 256, 384, 512]
    };
    let byte_sizes: &[usize] = if quick {
        &[1 << 10, 1 << 13, 1 << 16, 1 << 18, 1 << 20]
    } else {
        &[
            1 << 10,
            1 << 13,
            1 << 16,
            1 << 18,
            1 << 20,
            1 << 21,
            1 << 22,
        ]
    };
    let render_sides: &[u16] = if quick {
        &[48, 64, 96]
    } else {
        &[48, 64, 96, 128]
    };
    let render_depths: &[usize] = &[24, 40];

    let mut over = op("over", &["pixels"]);
    let mut pack = op("pack", &["pixels"]);
    let mut unpack = op("unpack", &["pixels"]);
    let mut encode = op("encode", &["pixels"]);
    let mut scan = op("scan", &["pixels"]);
    for &side in sides {
        let area = side as usize * side as usize;
        let iters = pixel_iters(area);
        let rect = Rect::of_size(side, side);
        let front = dense_image(side);
        let banded = banded_image(side);

        let mut back = dense_image(side);
        over.samples.push((
            vec![area as f64],
            time_op(reps, iters, || {
                std::hint::black_box(back.composite_rect_over(&rect, front.pixels()));
            }),
        ));

        let mut buf: Vec<Pixel> = Vec::with_capacity(area);
        pack.samples.push((
            vec![area as f64],
            time_op(reps, iters, || {
                front.extract_rect_into(&rect, &mut buf);
                std::hint::black_box(buf.len());
            }),
        ));

        let data = front.extract_rect(&rect);
        let mut target = Image::blank(side, side);
        unpack.samples.push((
            vec![area as f64],
            time_op(reps, iters, || {
                target.write_rect(&rect, &data);
            }),
        ));

        encode.samples.push((
            vec![area as f64],
            time_op(reps, iters, || {
                let rle = MaskRle::encode_mask(banded.pixels().iter().map(|p| !p.is_blank()));
                std::hint::black_box(rle.non_blank_total());
            }),
        ));

        let mut runs = RunSet::new();
        scan.samples.push((
            vec![area as f64],
            time_op(reps, iters, || {
                runs.clear();
                for y in 0..side as usize {
                    let row = &banded.pixels()[y * side as usize..(y + 1) * side as usize];
                    scan_runs_into(row, y * side as usize, &mut runs);
                }
                std::hint::black_box(runs.non_blank_total());
            }),
        ));
    }

    let mut message = op("message", &["bytes"]);
    for &bytes in byte_sizes {
        let payload: Vec<u8> = (0..bytes).map(|i| (i * 31) as u8).collect();
        let iters = (1 << 22) / bytes.max(1);
        message.samples.push((
            vec![bytes as f64],
            time_op(reps, iters.clamp(1, 256), || {
                let framed = encode_frame(7, 42, &payload);
                let back = decode_frame(&framed).expect("frame round trip");
                std::hint::black_box(back.payload.len());
            }),
        ));
    }

    // Per-sample render cost: a straight-on orthographic view samples a
    // constant-length chord through the volume box under every footprint
    // pixel, so total samples ≈ footprint area × depth/step — swept via
    // both image size and volume depth.
    let mut render = op("render", &["samples"]);
    let params = RenderParams {
        step: 1.0,
        ..RenderParams::default()
    };
    for &depth in render_depths {
        let dims = [48, 48, depth];
        let dataset = Dataset::with_dims(DatasetKind::Cube, dims);
        let partition = kd_partition(dims, 1);
        let block = &partition.subvolumes()[0];
        for &side in render_sides {
            let camera = Camera::orbit(dims, side, side, 0.0, 0.0);
            let footprint = camera.footprint([0, 0, 0], dims);
            let samples = footprint.area() as f64 * depth as f64 / params.step as f64;
            render.samples.push((
                vec![samples],
                time_op(reps.min(3), 1, || {
                    let img = render_block_accel(
                        &dataset.volume,
                        block,
                        &dataset.transfer,
                        &camera,
                        &params,
                        None,
                        0,
                    );
                    std::hint::black_box(img.non_blank_count());
                }),
            ));
        }
    }

    SweepData {
        grid: if quick { "quick" } else { "full" }.into(),
        reps,
        host_cores: host_cores(),
        ops: vec![over, pack, unpack, encode, scan, message, render],
    }
}

fn op(name: &str, params: &[&str]) -> OpSweep {
    OpSweep {
        op: name.into(),
        params: params.iter().map(|s| s.to_string()).collect(),
        samples: Vec::new(),
    }
}

fn fit_op(data: &SweepData, name: &str, floor: f64) -> Result<FitResult, String> {
    let sweep = data
        .ops
        .iter()
        .find(|o| o.op == name)
        .ok_or_else(|| format!("sweep has no '{name}' samples"))?;
    let fit = crate::fit::fit_linear_with_floor(&sweep.samples, floor)
        .map_err(|e| format!("op '{name}': {e}"))?;
    for (i, &c) in fit.coefficients.iter().enumerate() {
        if c <= 0.0 {
            return Err(format!(
                "op '{name}': non-physical fitted {} = {c:.3e} s/unit",
                sweep.params.get(i).map(String::as_str).unwrap_or("coef")
            ));
        }
    }
    Ok(fit)
}

/// Fits a [`CostModelPreset`] from sweep data, refusing any operation
/// whose fit falls below `floor`: each constant of
/// [`CostModelPreset::constants`] is the slope of its op's fit, except
/// `t_s`, the intercept of `message`'s.
pub fn fit_preset(data: &SweepData, name: &str, floor: f64) -> Result<CostModelPreset, String> {
    let description = format!(
        "fitted from the {} sweep on a {}-core host (in-process message framing as the wire)",
        data.grid, data.host_cores
    );
    let mut preset = CostModelPreset::calibrated(name, description);
    // `message` fits two constants; it is reported once, after the
    // rest — the order `COST_MODEL.json`'s `fits` has always had.
    let (mut fits, mut message) = (Vec::new(), None);
    for (label, op, value) in preset.constants_mut() {
        let fit = fit_op(data, op, floor)?;
        *value = match label {
            // A negative fitted intercept just means the start-up charge
            // is below this host's measurement floor.
            "t_s" => fit.intercept.max(0.0),
            _ => fit.coefficients[0],
        };
        let report = OpFit {
            op: op.into(),
            r2: fit.r2,
            adjusted_r2: fit.adjusted_r2,
            samples: fit.n,
        };
        match op {
            "message" => message = Some(report),
            _ => fits.push(report),
        }
    }
    fits.extend(message);
    preset.fits = fits;
    preset.host_cores = Some(data.host_cores as u64);
    preset.sweep_grid = Some(data.grid.clone());
    Ok(preset)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sweep() -> SweepData {
        // A synthetic sweep with known affine ground truth per op.
        let mk = |name: &str, param: &str, c0: f64, c1: f64| OpSweep {
            op: name.into(),
            params: vec![param.into()],
            samples: (1..=6u64)
                .map(|i| {
                    let x = (i * 10_000) as f64;
                    (vec![x], c0 + c1 * x)
                })
                .collect(),
        };
        SweepData {
            grid: "quick".into(),
            reps: 3,
            host_cores: 4,
            ops: vec![
                mk("over", "pixels", 1e-7, 2e-9),
                mk("pack", "pixels", 1e-7, 1e-9),
                mk("unpack", "pixels", 1e-7, 1.5e-9),
                mk("encode", "pixels", 1e-7, 0.5e-9),
                mk("scan", "pixels", 1e-7, 0.25e-9),
                mk("message", "bytes", 2e-6, 3e-10),
                mk("render", "samples", 1e-6, 2.5e-8),
            ],
        }
    }

    #[test]
    fn sweep_data_round_trips_through_json() {
        let data = tiny_sweep();
        let back = SweepData::parse(&data.render()).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn fit_preset_recovers_synthetic_constants() {
        let preset = fit_preset(&tiny_sweep(), "local", QUALITY_FLOOR).unwrap();
        assert!((preset.comp.t_over - 2e-9).abs() < 1e-15);
        assert!((preset.comp.t_scan - 0.25e-9).abs() < 1e-15);
        assert!((preset.network.t_c - 3e-10).abs() < 1e-16);
        assert!((preset.network.t_s - 2e-6).abs() < 1e-10);
        assert!((preset.t_render_sample - 2.5e-8).abs() < 1e-14);
        assert_eq!(preset.fits.len(), 7);
        assert!(preset.min_r2().unwrap() > 0.999);
        assert_eq!(preset.host_cores, Some(4));
        assert_eq!(preset.sweep_grid.as_deref(), Some("quick"));
    }

    #[test]
    fn fit_preset_refuses_a_missing_or_degenerate_op() {
        let mut data = tiny_sweep();
        data.ops.retain(|o| o.op != "scan");
        let err = fit_preset(&data, "local", QUALITY_FLOOR).unwrap_err();
        assert!(err.contains("scan"), "{err}");

        let mut flat = tiny_sweep();
        for s in &mut flat.ops[0].samples {
            s.1 = 1e-6; // constant response: nothing to fit
        }
        let err = fit_preset(&flat, "local", QUALITY_FLOOR).unwrap_err();
        assert!(err.contains("over"), "{err}");
    }

    #[test]
    fn micro_sweep_measures_and_fits_on_this_host() {
        // A tiny live run: 1 rep, quick grid. This is the subsystem's
        // end-to-end smoke — real measurements must produce a fittable,
        // physical preset even under test-profile noise (no R² floor
        // here; CI's release-build smoke enforces the real bar).
        let data = run_sweep(true, 1);
        assert_eq!(data.ops.len(), 7);
        for op in &data.ops {
            assert!(
                op.samples.iter().all(|(_, t)| *t > 0.0),
                "op {} produced a zero time",
                op.op
            );
        }
        let preset = fit_preset(&data, "smoke", f64::NEG_INFINITY).unwrap();
        assert!(preset.comp.t_over > 0.0 && preset.comp.t_over < 1e-3);
        assert!(preset.network.t_c > 0.0);
    }
}
