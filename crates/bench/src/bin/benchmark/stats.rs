//! Sample statistics, the `/proc` readers and the host-noise anchor.

use std::time::Instant;

use vr_image::{kernel::over_slice, Pixel};

/// p95 is only a percentile with at least ten samples beyond it.
pub const P95_MIN_SAMPLES: usize = 200;

/// Rounds a run's samples are cut into; rates and tails are reported as
/// the median over rounds so one burst of hypervisor steal moves one
/// round, not the metric.
pub const ROUNDS: usize = 8;

/// Nearest-rank percentile of `sorted` (ascending), `q` in `[0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples` (any order).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.5)
}

/// What a run's latency samples reduce to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Samples over all callers.
    pub samples: usize,
    /// Median over all samples, ms.
    pub p50_ms: f64,
    /// Median over rounds of each round's 95th percentile, ms; `None`
    /// below [`P95_MIN_SAMPLES`] samples in total.
    pub p95_ms: Option<f64>,
    /// Median over rounds of the closed-loop rate: per caller, frames
    /// over the time spent inside ops, summed over callers.
    pub frames_per_s: f64,
}

/// Reduces per-caller latency samples (seconds, in completion order).
pub fn summarise(callers: &[Vec<f64>]) -> LatencySummary {
    let all_ms: Vec<f64> = callers.iter().flatten().map(|s| s * 1e3).collect();
    let rounds = ROUNDS.min(callers.iter().map(Vec::len).min().unwrap_or(0).max(1));
    let mut rates = Vec::with_capacity(rounds);
    let mut tails = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let mut rate = 0.0;
        let mut pooled = Vec::new();
        for samples in callers {
            let chunk = &samples[samples.len() * r / rounds..samples.len() * (r + 1) / rounds];
            rate += chunk.len() as f64 / chunk.iter().sum::<f64>();
            pooled.extend(chunk.iter().map(|s| s * 1e3));
        }
        rates.push(rate);
        tails.push(percentile(&sorted(&pooled), 0.95));
    }
    LatencySummary {
        samples: all_ms.len(),
        p50_ms: median(&all_ms),
        p95_ms: (all_ms.len() >= P95_MIN_SAMPLES).then(|| median(&tails)),
        frames_per_s: median(&rates),
    }
}

/// The counters of `/proc/self/stat` and `/proc/self/status` the
/// `process.*` metrics are made of.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProcSample {
    /// User-mode CPU, clock ticks.
    pub utime_ticks: u64,
    /// Kernel-mode CPU, clock ticks.
    pub stime_ticks: u64,
    /// Minor page faults.
    pub minor_faults: u64,
    /// Peak resident set (`VmHWM`), kB.
    pub peak_rss_kb: u64,
}

/// Linux reports process times in ticks of `sysconf(_SC_CLK_TCK)`,
/// which is 100 on every Linux ABI this repo builds for.
pub const TICKS_PER_SECOND: f64 = 100.0;

/// Parses the text of `/proc/<pid>/stat` and `/proc/<pid>/status`.
/// The command name (field 2) may hold spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_proc(stat: &str, status: &str) -> Option<ProcSample> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state).
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    let peak_rss_kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())?;
    Some(ProcSample {
        minor_faults: field(10)?,
        utime_ticks: field(14)?,
        stime_ticks: field(15)?,
        peak_rss_kb,
    })
}

/// This process's counters now; all-zero where `/proc` is missing.
pub fn proc_now() -> ProcSample {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    parse_proc(&read("/proc/self/stat"), &read("/proc/self/status")).unwrap_or_default()
}

/// The host-noise anchor: the fastest, ms, of 25 `over_slice` passes over
/// a fixed 512² buffer. Work that never changes, so a change in it is the
/// host; the fastest pass because on this shared host the median of 15
/// reads anywhere from 0.69 to 1.01 ms within seconds and the minimum
/// 0.63 to 0.69.
pub fn anchor_ms() -> f64 {
    const AREA: usize = 512 * 512;
    let front: Vec<Pixel> = (0..AREA)
        .map(|i| Pixel::gray((i % 251) as f32 / 251.0, 0.5))
        .collect();
    let mut back = front.clone();
    (0..25)
        .map(|_| {
            let start = Instant::now();
            over_slice(std::hint::black_box(&front), &mut back);
            std::hint::black_box(&mut back);
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Relative difference of two anchors, percent of the smaller.
pub fn drift_pct(before_ms: f64, after_ms: f64) -> f64 {
    (before_ms - after_ms).abs() / before_ms.min(after_ms) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn p95_refuses_fewer_than_200_samples() {
        let few = vec![1.0; P95_MIN_SAMPLES - 1];
        assert_eq!(summarise(std::slice::from_ref(&few)).p95_ms, None);
        // Two callers' samples count together.
        assert_eq!(
            summarise(&[few[..100].to_vec(), few[..99].to_vec()]).p95_ms,
            None
        );
        assert_eq!(
            summarise(&[few[..100].to_vec(), few[..100].to_vec()]).p95_ms,
            Some(1e3)
        );
    }

    #[test]
    fn summary_sums_caller_rates_and_ignores_one_slow_round() {
        // Two callers at 10 ms per frame are 200 frames/s together.
        let mut a = vec![0.010; 400];
        let b = vec![0.010; 400];
        // One stolen round (the first 50 frames of caller a, 10x slower).
        a[..50].fill(0.100);
        let s = summarise(&[a, b]);
        assert_eq!(s.samples, 800);
        assert!((s.frames_per_s - 200.0).abs() < 1e-9, "{}", s.frames_per_s);
        assert!((s.p50_ms - 10.0).abs() < 1e-12);
        assert!((s.p95_ms.unwrap() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn proc_parser_reads_a_canned_stat_line() {
        // Command name with a space and a parenthesis, as the kernel
        // allows; numbers after it are fields 3.. of proc(5).
        let stat = "4242 (bench mark) x) R 1 4242 4242 0 -1 4194304 \
                    1234 0 5 0 250 50 0 0 20 0 3 0 100 1000000 2000 \
                    18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        let status = "Name:\tbenchmark\nVmPeak:\t  9000 kB\nVmHWM:\t  4321 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(
            parse_proc(stat, status),
            Some(ProcSample {
                utime_ticks: 250,
                stime_ticks: 50,
                minor_faults: 1234,
                peak_rss_kb: 4321,
            })
        );
        assert_eq!(parse_proc("garbage", status), None);
        assert_eq!(parse_proc(stat, "no hwm here"), None);
    }

    #[test]
    fn drift_is_relative_to_the_smaller_anchor() {
        assert!((drift_pct(1.0, 1.05) - 5.0).abs() < 1e-9);
        assert!((drift_pct(1.05, 1.0) - 5.0).abs() < 1e-9);
        assert!(anchor_ms() > 0.0);
    }
}
