//! Running without `--workload`: every workload in a fresh process of
//! its own, so none measures the allocator and page-cache state another
//! left behind (the same 120 composite rows read 156 ms/row in a
//! process's first call and 85 ms/row in its second).

use std::process::{Command, ExitCode, Stdio};

use vr_cost::json::{parse, Json};

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::ops::{Workload, WORKLOADS};
use crate::stats::{anchor_ms, drift_pct};
use crate::Args;

/// A run whose host anchors differ by more than this is discarded.
const MAX_ANCHOR_DRIFT_PCT: f64 = 5.0;
/// How often a discarded run is repeated.
const MAX_RETRIES: usize = 2;

/// What one child process reported.
struct Report {
    correct: bool,
    /// (metric name, value) in the order the child listed them.
    metrics: Vec<(String, f64)>,
    retries: usize,
    drift_pct: f64,
}

impl Report {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// The last line of a child's standard output, as the driver reads it.
fn parse_result_line(stdout: &str) -> Result<(bool, Vec<(String, f64)>), String> {
    let line = stdout.lines().last().ok_or("the run printed no result")?;
    let doc = parse(line)?;
    let correct = doc.get("correct") == Some(&Json::Bool(true));
    let Some(Json::Obj(listed)) = doc.get("metrics") else {
        return Err("the result has no metrics".into());
    };
    let metrics = listed
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("{name} has no value"))?;
            Ok((name.clone(), value))
        })
        .collect::<Result<_, String>>()?;
    Ok((correct, metrics))
}

/// Runs one workload in a child process, between two host anchors;
/// a run the host moved under is discarded and repeated.
fn run_child(workload: &Workload, args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut retries = 0;
    loop {
        let mut command = Command::new(&exe);
        command
            .args(["--workload", workload.name])
            .args(["--seed", &args.plan.seed.to_string()])
            .args(["--seconds", &args.plan.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            command.arg("--smoke");
        }
        if let Some(path) = &args.trace_out {
            command.args(["--trace-out", &format!("{path}.{}.json", workload.name)]);
        }
        let before = anchor_ms();
        // `output` waits for the child and reaps it.
        let output = command
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let drift_pct = drift_pct(before, anchor_ms());
        let stdout = String::from_utf8_lossy(&output.stdout);
        let (correct, metrics) = parse_result_line(&stdout)
            .map_err(|e| format!("{}: {e} (exit status {})", workload.name, output.status))?;
        // A smoke run is not judged, so not worth repeating.
        if drift_pct > MAX_ANCHOR_DRIFT_PCT && retries < MAX_RETRIES && !args.smoke {
            retries += 1;
            eprintln!(
                "  host anchor drifted {drift_pct:.1} % (> {MAX_ANCHOR_DRIFT_PCT} %) during {}: \
                 run discarded, retry {retries} of {MAX_RETRIES}",
                workload.name
            );
            continue;
        }
        return Ok(Report {
            correct: correct && output.status.success(),
            metrics,
            retries,
            drift_pct,
        });
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

fn print_set(title: &str, set: &[(&Workload, Report)]) {
    println!("{title}");
    for (workload, report) in set {
        println!(
            "  {}  ({}; host anchor drift {:.1} %, {} retries)  -- {}",
            workload.name,
            if report.correct {
                "every frame verified"
            } else {
                "VERIFICATION FAILED"
            },
            report.drift_pct,
            report.retries,
            workload
                .why
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" ")
        );
        for (name, value) in &report.metrics {
            println!("    {name:<40} {value:>16.4} {}", unit_of(name));
        }
    }
}

/// How much worse `second` is than `first`, as a share of `first`.
fn worsening(better: &str, first: f64, second: f64) -> f64 {
    match better {
        "higher" => (first - second) / first,
        _ => (second - first) / first,
    }
}

fn run_set(args: &Args) -> Result<Vec<(&'static Workload, Report)>, String> {
    WORKLOADS
        .iter()
        .map(|workload| Ok((workload, run_child(workload, args)?)))
        .collect()
}

pub fn run_all(args: &Args) -> ExitCode {
    let sets = if args.aa { 2 } else { 1 };
    let mut done = Vec::new();
    for set in 0..sets {
        match run_set(args) {
            Ok(reports) => {
                print_set(
                    &format!("set {} of {sets}, seed {}", set + 1, args.plan.seed),
                    &reports,
                );
                done.push(reports);
            }
            Err(e) => {
                eprintln!("benchmark: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let mut ok = done.iter().flatten().all(|(_, report)| report.correct);
    if let [first, second] = &done[..] {
        println!("A/A: second set against the first, same code, same seed");
        for ((workload, a), (_, b)) in first.iter().zip(second) {
            for m in &END_TO_END {
                let (Some(x), Some(y)) = (a.value(m.name), b.value(m.name)) else {
                    continue;
                };
                let worse = worsening(m.better, x, y);
                // A smoke run prints the difference and judges nothing.
                let verdict = match (args.smoke, worse <= m.bound) {
                    (true, _) => "not judged",
                    (false, true) => "PASS",
                    (false, false) => "FAIL",
                };
                ok &= verdict != "FAIL";
                println!(
                    "  {:<18} {:<22} {x:>14.4} -> {y:>14.4}  {:>+7.2} %  (bound {:.0} %)  {verdict}",
                    workload.name,
                    m.name,
                    worse * 100.0,
                    m.bound * 100.0
                );
            }
        }
    }
    ExitCode::from(u8::from(!ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = r#"some chatter
{"attempted": 3,"correct": true,"failed": 0,"metrics": {"frame_ms_p50": {"unit": "ms","value": 1.5},"setup_s": {"unit": "s","value": 0.25}}}"#;
        let (correct, metrics) = parse_result_line(line).unwrap();
        assert!(correct);
        assert_eq!(
            metrics,
            vec![
                ("frame_ms_p50".to_string(), 1.5),
                ("setup_s".to_string(), 0.25)
            ]
        );
        assert!(parse_result_line("").is_err());
        assert!(parse_result_line("not json").is_err());
        let failed = r#"{"attempted": 3,"correct": false,"failed": 1,"metrics": {}}"#;
        assert!(!parse_result_line(failed).unwrap().0);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening("lower", 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening("higher", 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening("higher", 10.0, 11.0) < 0.0);
        assert_eq!(unit_of("frame_ms_p50"), "ms");
        assert_eq!(unit_of("host.cores"), "count");
    }
}
