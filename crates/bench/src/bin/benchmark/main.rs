//! The repo benchmark: four workloads, five end-to-end metrics and a
//! per-layer budget measured from outside. See README.md beside this
//! file for what each name means and how to read the output.

mod composite;
mod layers;
mod metrics;
mod ops;
mod probes;
mod runner;
mod serve;
mod spans;
mod stats;
mod traced;
mod verify;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use vr_cost::json::{obj, Json};

use ops::{Kind, Workload};
use verify::Tally;

/// What one untraced run of a workload measured.
pub struct Measured {
    /// Wall time of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Per caller, the latency of every delivered frame, seconds.
    pub latencies: Vec<Vec<f64>>,
    pub wire_bytes_per_frame: f64,
    pub tally: Tally,
}

/// How one run is made: what the command line asked for.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seed: u64,
    /// Length of the measuring window.
    pub seconds: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub set_ups: usize,
    /// Samples the window is held open for.
    pub sample_floor: usize,
}

impl Plan {
    pub fn window(&self, callers: usize) -> Window {
        Window::with_floor(self.seconds, callers, self.sample_floor)
    }
}

/// The measuring window of one run: `seconds` long, held open past that
/// until every caller has its share of the sample floor, and closed for
/// good at four times `seconds`.
pub struct Window {
    deadline: Instant,
    ceiling: Instant,
    samples_per_caller: usize,
}

impl Window {
    /// A window held open until `floor` samples over all callers.
    pub fn with_floor(seconds: f64, callers: usize, floor: usize) -> Window {
        let now = Instant::now();
        Window {
            deadline: now + Duration::from_secs_f64(seconds),
            ceiling: now + Duration::from_secs_f64(seconds * 4.0),
            samples_per_caller: floor.div_ceil(callers),
        }
    }

    /// Whether a caller holding `samples` samples starts another op.
    pub fn open(&self, samples: usize) -> bool {
        let now = Instant::now();
        now < self.deadline || (samples < self.samples_per_caller && now < self.ceiling)
    }
}

/// `run_seconds` of BENCHMARK.json.
pub const DEFAULT_SECONDS: f64 = 12.0;
/// `--smoke` measures this share of the window.
const SMOKE_SHARE: f64 = 1.0 / 30.0;

pub struct Args {
    workload: Option<&'static Workload>,
    plan: Plan,
    trace: bool,
    /// Where a traced run writes its spans as Chrome trace-event JSON.
    trace_out: Option<String>,
    /// Every workload twice, each metric's difference against its bound.
    aa: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        plan: Plan {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            set_ups: 3,
            sample_floor: stats::P95_MIN_SAMPLES,
        },
        trace: false,
        trace_out: None,
        aa: false,
        smoke: false,
    };
    let mut seconds = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(ops::workload(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.plan.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let given: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(given > 0.0 && given <= 60.0) {
                    return Err("--seconds must be within (0, 60]".into());
                }
                seconds = Some(given);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.trace = true,
            "--trace-out" => args.trace_out = Some(value()?),
            "--aa" => args.aa = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.smoke {
        // Same workloads, a thirtieth of the work, no p95 to wait for.
        args.plan = Plan {
            seconds: DEFAULT_SECONDS * SMOKE_SHARE,
            set_ups: 1,
            sample_floor: 8,
            ..args.plan
        };
    }
    if let Some(seconds) = seconds {
        args.plan.seconds = seconds;
    }
    Ok(args)
}

fn metric(value: f64, unit: &'static str) -> Json {
    obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

type RunResult = Result<(Tally, Vec<(&'static str, Json)>), String>;

fn run_untraced(workload: &'static Workload, args: &Args) -> RunResult {
    let plan = &args.plan;
    let measured = match workload.kind {
        Kind::Composite => composite::run(workload, plan)?,
        Kind::Serve { .. } => serve::run(workload, plan)?,
    };
    let summary = stats::summarise(&measured.latencies);
    let setup = stats::median(&measured.setup_s);
    eprintln!(
        "workload {}  seed {}  {:.1} s measured",
        workload.name, plan.seed, plan.seconds
    );
    eprintln!(
        "  setup_s              {setup:>12.4} s   (median of {:.4?})",
        measured.setup_s
    );
    eprintln!("  frames_per_s         {:>12.3} 1/s", summary.frames_per_s);
    eprintln!(
        "  frame_ms_p50         {:>12.4} ms  ({} samples)",
        summary.p50_ms, summary.samples
    );
    match summary.p95_ms {
        Some(p95) => eprintln!("  frame_ms_p95         {p95:>12.4} ms"),
        None => eprintln!(
            "  frame_ms_p95                  n/a     (needs {} samples)",
            stats::P95_MIN_SAMPLES
        ),
    }
    eprintln!(
        "  wire_bytes_per_frame {:>12.1} B",
        measured.wire_bytes_per_frame
    );
    eprintln!(
        "  frames {} attempted, {} failed; output_digest {:016x}",
        measured.tally.attempted,
        measured.tally.failed,
        measured.tally.output_digest()
    );
    let mut listed = vec![
        ("setup_s", metric(setup, "s")),
        ("frames_per_s", metric(summary.frames_per_s, "1/s")),
        ("frame_ms_p50", metric(summary.p50_ms, "ms")),
        (
            "wire_bytes_per_frame",
            metric(measured.wire_bytes_per_frame, "B"),
        ),
    ];
    match summary.p95_ms {
        Some(p95) => listed.push(("frame_ms_p95", metric(p95, "ms"))),
        // Only a smoke run may go without: it is not judged.
        None if args.smoke => {}
        None => {
            return Err(format!(
                "{}: {} samples within four times --seconds are too few for a p95 (needs {})",
                workload.name,
                summary.samples,
                stats::P95_MIN_SAMPLES
            ))
        }
    }
    Ok((measured.tally, listed))
}

fn run_traced(workload: &'static Workload, args: &Args) -> RunResult {
    let traced = traced::run(workload, args.plan.seed, args.plan.seconds)?;
    eprintln!(
        "workload {}  seed {}  traced",
        workload.name, args.plan.seed
    );
    let mut listed = Vec::with_capacity(metrics::PER_LAYER.len());
    for (name, unit, _) in metrics::PER_LAYER {
        let value = *traced.values.get(name).ok_or(format!(
            "{}: the traced run did not measure {name}",
            workload.name
        ))?;
        eprintln!("  {name:<40} {value:>16.4} {unit}");
        listed.push((name, metric(value, unit)));
    }
    eprintln!(
        "  budget against the black-box frame_ms_p50 of {:.4} ms:",
        traced.black_box_ms
    );
    for (step, ms) in traced.budget.lines() {
        eprintln!(
            "    {step:<32} {ms:>10.4} ms  {:>5.1} %",
            ms / traced.black_box_ms * 100.0
        );
    }
    eprintln!("  span self times (median, ms):");
    for (name, ms, count) in spans::self_times_ms(traced.recorder.spans()) {
        eprintln!("    {name:<32} {ms:>10.4} ms  x{count}");
    }
    eprintln!(
        "  frames {} attempted, {} failed; output_digest {:016x}",
        traced.tally.attempted,
        traced.tally.failed,
        traced.tally.output_digest()
    );
    if let Some(path) = &args.trace_out {
        std::fs::write(path, traced.recorder.chrome_trace().pretty())
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "  {} spans written to {path}",
            traced.recorder.spans().len()
        );
    }
    Ok((traced.tally, listed))
}

fn result_line(tally: &Tally, metrics: Vec<(&'static str, Json)>) -> String {
    let line = obj([
        ("correct", Json::Bool(tally.correct())),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", obj(metrics)),
    ])
    .pretty();
    // One line: the driver reads the last line of standard output.
    line.split('\n').map(str::trim).collect::<String>()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // Without --workload this process only runs the others: every
    // workload measures in a fresh process of its own.
    let Some(workload) = args.workload else {
        return runner::run_all(&args);
    };
    let run = if args.trace { run_traced } else { run_untraced };
    match run(workload, &args) {
        Ok((tally, metrics)) => {
            println!("{}", result_line(&tally, metrics));
            ExitCode::from(tally.exit_code() as u8)
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
