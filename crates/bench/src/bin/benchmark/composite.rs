//! The composite workloads: op = one `Experiment::run` (composite +
//! gather to rank 0) on a pose rendered in set-up.

use std::sync::Arc;
use std::time::Instant;

use vr_image::checksum::fnv1a;
use vr_system::{Experiment, Outcome};
use vr_volume::Dataset;

use crate::ops::{pose_set, Workload};
use crate::spans::Recorder;
use crate::verify::Tally;
use crate::{Measured, Plan, Window};

/// The repo's own tolerance between a method's image and the
/// sequential reference (see `vr-system`'s experiment tests).
pub const REFERENCE_TOLERANCE: f32 = 2e-4;

/// A composite workload after set-up.
pub struct Prepared {
    pub workload: &'static Workload,
    pub experiments: Vec<Experiment>,
    /// Cycle the poses are run in.
    pub order: Vec<usize>,
}

/// What the first run of a pose pins for every later one.
pub struct Expected {
    pub hash: u64,
    pub wire_bytes: u64,
}

/// Σ over ranks of bytes sent, compositing stages and gather: the
/// paper's own currency.
pub fn wire_bytes(out: &Outcome) -> u64 {
    out.traffic.iter().map(|t| t.sent_bytes).sum()
}

/// Set-up: dataset and macrocell build, one pre-render per pose, then
/// the warm-up frames.
pub fn set_up(workload: &'static Workload, seed: u64) -> Prepared {
    let (poses, order) = pose_set(seed, workload.poses);
    let dataset = Arc::new(Dataset::paper(workload.dataset));
    let experiments: Vec<Experiment> = poses
        .iter()
        .map(|&pose| Experiment::prepare_with_dataset(&workload.config(pose), Arc::clone(&dataset)))
        .collect();
    let prepared = Prepared {
        workload,
        experiments,
        order,
    };
    for i in 0..workload.warmup {
        std::hint::black_box(prepared.op(i));
    }
    prepared
}

impl Prepared {
    pub fn pose_of(&self, op: usize) -> usize {
        self.order[op % self.order.len()]
    }

    /// The op: composite and gather the `op`-th pose of the cycle.
    pub fn op(&self, op: usize) -> Outcome {
        self.experiments[self.pose_of(op)].run(self.workload.method)
    }

    /// Off the clock: every pose's image against the sequential
    /// reference; its hash and byte count become what every measured
    /// frame of that pose must repeat. `Err` names the pose that is off.
    pub fn expectations(&self) -> Result<Vec<Expected>, String> {
        self.experiments
            .iter()
            .enumerate()
            .map(|(pose, exp)| {
                let out = exp.run(self.workload.method);
                let diff = out.image.max_abs_diff(&exp.reference());
                if diff.is_nan() || diff > REFERENCE_TOLERANCE || out.is_degraded() {
                    return Err(format!(
                        "{}: pose {pose} differs from the reference by {diff}",
                        self.workload.name
                    ));
                }
                Ok(Expected {
                    hash: fnv1a(&out.image),
                    wire_bytes: wire_bytes(&out),
                })
            })
            .collect()
    }
}

/// Measures one closed-loop caller for `window`, timing the op only;
/// hashing the frame is verification and stays off the clock. With
/// `spans`, every op is also recorded as a span.
pub fn measure(
    prepared: &Prepared,
    expected: &[Expected],
    window: &Window,
    mut spans: Option<&mut Recorder>,
) -> (Vec<f64>, Tally) {
    let mut latencies = Vec::new();
    let mut tally = Tally::default();
    let mut op = prepared.workload.warmup;
    while window.open(latencies.len()) {
        let start = Instant::now();
        let out = match spans.as_deref_mut() {
            Some(rec) => rec.span("op", op as u64, |_| prepared.op(op)),
            None => prepared.op(op),
        };
        latencies.push(start.elapsed().as_secs_f64());
        let want = &expected[prepared.pose_of(op)];
        let hash = fnv1a(&out.image);
        tally.check(
            hash,
            hash == want.hash && wire_bytes(&out) == want.wire_bytes,
        );
        op += 1;
    }
    (latencies, tally)
}

/// One untraced run of a composite workload.
pub fn run(workload: &'static Workload, plan: &Plan) -> Result<Measured, String> {
    let mut setup_s = Vec::with_capacity(plan.set_ups);
    let mut prepared = None;
    for _ in 0..plan.set_ups {
        // Free the previous set-up first so each one starts from the
        // same memory.
        drop(prepared.take());
        let start = Instant::now();
        prepared = Some(set_up(workload, plan.seed));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("at least one set-up");
    let expected = prepared.expectations()?;
    let (latencies, tally) = measure(&prepared, &expected, &plan.window(1), None);
    let bytes: u64 = expected.iter().map(|e| e.wire_bytes).sum();
    Ok(Measured {
        setup_s,
        latencies: vec![latencies],
        wire_bytes_per_frame: bytes as f64 / expected.len() as f64,
        tally,
    })
}
