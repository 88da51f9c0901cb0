//! The traced run: the workload's ops through the black box with a span
//! around each, the same frames layer by layer, and the per-layer
//! probes; from them the budget with its unexplained remainder.

use std::sync::Arc;
use std::time::Instant;

use vr_image::checksum::fnv1a;
use vr_render::RenderPool;
use vr_serve::{LruCache, ServiceStats};
use vr_system::{Experiment, ExperimentConfig};
use vr_volume::{Dataset, DEFAULT_CELL_SIZE};

use crate::composite::{self, Expected, Prepared};
use crate::layers::{composite_steps, Budget, Loopback, ServePath};
use crate::ops::{pose_set, Kind, PoseWalk, Workload};
use crate::probes::{self, ms_since, Inputs, Values};
use crate::serve::{self, Requests};
use crate::spans::Recorder;
use crate::stats::{self, median, summarise, ProcSample, TICKS_PER_SECOND};
use crate::verify::Tally;
use crate::Window;

/// Share of `--seconds` each black-box pass and the layered pass get.
const PASS_SHARE: f64 = 0.2;
/// Poses the probes run on where the workload has no pose set.
const COLD_PROBE_POSES: usize = 4;

/// What a traced run hands back.
pub struct Traced {
    pub tally: Tally,
    pub values: Values,
    pub recorder: Recorder,
    pub budget: Budget,
    /// Untraced black-box `frame_ms_p50` the budget is held against.
    pub black_box_ms: f64,
}

/// One black-box pass.
struct Pass {
    latencies: Vec<Vec<f64>>,
    tally: Tally,
}

impl Pass {
    fn p50_ms(&self) -> f64 {
        summarise(&self.latencies).p50_ms
    }
}

/// What the daemon's side of a pass reports.
struct ServeSide {
    wait_ms_p50: f64,
    edge_ms_p50: f64,
    stats: ServiceStats,
}

/// The poses the probes and the layered pass use, and the fresh
/// (never cached) requests of a cold workload.
fn probe_configs(workload: &Workload, seed: u64) -> (Vec<ExperimentConfig>, Vec<ExperimentConfig>) {
    match workload.kind {
        Kind::Serve { hot: false } => {
            // Far from the indices the black-box passes walk.
            let walk = PoseWalk::new(seed);
            let pose = |i: u64| workload.config(walk.pose((1 << 40) + i));
            let probes = (0..COLD_PROBE_POSES as u64).map(pose).collect();
            let fresh = (0..8).map(|i| pose(1000 + i)).collect();
            (probes, fresh)
        }
        _ => {
            let (poses, _) = pose_set(seed, workload.poses);
            (
                poses.iter().map(|&p| workload.config(p)).collect(),
                Vec::new(),
            )
        }
    }
}

fn window(seconds: f64, callers: usize) -> Window {
    Window::with_floor(seconds * PASS_SHARE, callers, 8)
}

/// Black-box passes of a composite workload: untraced, then with a
/// span around every op.
fn composite_passes(
    prepared: &Prepared,
    expected: &[Expected],
    seconds: f64,
    rec: &mut Recorder,
) -> (Vec<Pass>, ProcDelta) {
    let before = stats::proc_now();
    let (latencies, tally) = composite::measure(prepared, expected, &window(seconds, 1), None);
    let proc = ProcDelta::since(before, tally.attempted);
    let untraced = Pass {
        latencies: vec![latencies],
        tally,
    };
    let (latencies, tally) = composite::measure(prepared, expected, &window(seconds, 1), Some(rec));
    let traced = Pass {
        latencies: vec![latencies],
        tally,
    };
    (vec![untraced, traced], proc)
}

/// The process counters a pass moved, per frame.
struct ProcDelta {
    cpu_ms_per_frame: f64,
    sys_cpu_share_pct: f64,
    minor_faults_per_frame: f64,
}

impl ProcDelta {
    fn since(before: ProcSample, frames: u64) -> ProcDelta {
        let after = stats::proc_now();
        let user = (after.utime_ticks - before.utime_ticks) as f64;
        let sys = (after.stime_ticks - before.stime_ticks) as f64;
        let frames = frames.max(1) as f64;
        ProcDelta {
            cpu_ms_per_frame: (user + sys) / TICKS_PER_SECOND * 1e3 / frames,
            sys_cpu_share_pct: if user + sys > 0.0 {
                sys / (user + sys) * 100.0
            } else {
                0.0
            },
            minor_faults_per_frame: (after.minor_faults - before.minor_faults) as f64 / frames,
        }
    }
}

/// Black-box passes through the daemon: untraced and, when `spans` is
/// given, again with a span around every op. Every workload makes the
/// first, the composite ones only for the `serve.*` side.
fn serve_passes(
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    dataset: &Arc<Dataset>,
    frame_hashes: &[u64],
    mut spans: Option<&mut Recorder>,
) -> Result<(Vec<Pass>, ProcDelta, ServeSide), String> {
    let requests = Requests::new(workload, seed);
    let mut serving = serve::set_up(workload, &requests)?;
    let expected_hot = match &requests {
        Requests::Hot { .. } => frame_hashes,
        Requests::Cold { .. } => &[],
    };
    let mut passes = Vec::new();
    let mut first = None;
    for traced in [false, true] {
        if traced && spans.is_none() {
            break;
        }
        let before = stats::proc_now();
        let logs = serve::measure(
            workload,
            &requests,
            expected_hot,
            &mut serving.clients,
            &window(seconds, workload.callers),
            spans.as_ref().filter(|_| traced).map(|rec| rec.epoch()),
        );
        let mut tally = Tally::default();
        let (mut waits, mut edges) = (Vec::new(), Vec::new());
        let mut latencies = Vec::new();
        for (caller, log) in logs.into_iter().enumerate() {
            tally.merge(&log.tally);
            log.recheck_kept(dataset, &mut tally);
            edges.extend(
                log.latencies
                    .iter()
                    .zip(&log.waits)
                    .map(|(l, w)| (l - w) * 1e3),
            );
            waits.extend(log.waits.iter().map(|w| w * 1e3));
            latencies.push(log.latencies);
            if let (Some(rec), Some(caller_rec)) = (spans.as_deref_mut(), log.recorder) {
                rec.absorb(caller_rec, caller as u32);
            }
        }
        if !traced {
            first = Some((ProcDelta::since(before, tally.attempted), waits, edges));
        }
        passes.push(Pass { latencies, tally });
    }
    let stats = serving.clients[0]
        .stats()
        .map_err(|e| format!("stats: {e}"))?;
    serving.shut_down();
    let (proc, waits, edges) = first.expect("the untraced pass ran");
    if waits.is_empty() {
        return Err(format!("{}: the daemon served no frame", workload.name));
    }
    let mut merged = ServiceStats::default();
    for shard in &stats.shards {
        merged.merge(shard);
    }
    let side = ServeSide {
        wait_ms_p50: median(&waits),
        edge_ms_p50: median(&edges),
        stats: merged,
    };
    Ok((passes, proc, side))
}

/// The layered pass of a composite workload: its op, step by step.
fn composite_layers(
    prepared: &Prepared,
    expected: &[Expected],
    configs: &[ExperimentConfig],
    seconds: f64,
    rec: &mut Recorder,
    budget: &mut Budget,
    tally: &mut Tally,
) {
    let window = window(seconds, 1);
    let mut frame = 0;
    while window.open(frame) {
        let pose = prepared.pose_of(frame);
        let exp = &prepared.experiments[pose];
        let group = rec.span("frame", frame as u64, |rec| {
            composite_steps(
                rec,
                budget,
                frame as u64,
                &configs[pose],
                exp.subimages(),
                exp.depth(),
            )
        });
        tally.frame(expected[pose].hash, fnv1a(&group.image));
        frame += 1;
    }
}

/// The layered pass of a serve workload: the path of one request, step
/// by step, without the daemon's threads.
#[allow(clippy::too_many_arguments)]
fn serve_layers(
    workload: &'static Workload,
    dataset: &Arc<Dataset>,
    configs: &[ExperimentConfig],
    frame_hashes: &[u64],
    seed: u64,
    seconds: f64,
    rec: &mut Recorder,
    budget: &mut Budget,
    tally: &mut Tally,
) -> Result<(), String> {
    let threads = serve::serve_config(workload).resolved_render_threads();
    let mut path = ServePath {
        dataset: Arc::clone(dataset),
        cache: LruCache::new(workload.cache_frames),
        loopback: Loopback::open()?,
        pool: (threads > 1).then(|| RenderPool::new(threads)),
    };
    let hot = workload.kind != Kind::Serve { hot: false };
    if hot {
        // Fill the cache off the books, as set-up does.
        let (mut scratch_rec, mut scratch_budget) = (Recorder::new(), Budget::default());
        for (id, config) in configs.iter().enumerate() {
            path.frame(&mut scratch_rec, &mut scratch_budget, id as u64, config)?;
        }
    }
    let walk = PoseWalk::new(seed);
    let window = window(seconds, 1);
    let mut frame = 0;
    while window.open(frame) {
        let id = frame as u64;
        if hot {
            let pose = frame % configs.len();
            let hash = path.frame(rec, budget, id, &configs[pose])?;
            tally.frame(frame_hashes[pose], hash);
        } else {
            let config = workload.config(walk.pose((1 << 41) + id));
            let hash = path.frame(rec, budget, id, &config)?;
            // Every fourth layered frame against an in-process run.
            let ok = frame % 4 != 0 || serve::in_process_hash(&config, dataset) == hash;
            tally.check(hash, ok);
        }
        frame += 1;
    }
    Ok(())
}

pub fn run(workload: &'static Workload, seed: u64, seconds: f64) -> Result<Traced, String> {
    let anchor_before = stats::anchor_ms();
    let local = probes::local_preset()?;
    let mut values = Values::new();
    let mut rec = Recorder::new();
    let mut budget = Budget::default();

    let start = Instant::now();
    let dataset = Arc::new(Dataset::paper(workload.dataset));
    values.insert("volume.dataset.build_ms", ms_since(start));
    let start = Instant::now();
    dataset.macrocell_grid(DEFAULT_CELL_SIZE);
    values.insert("volume.macrocell.build_ms", ms_since(start));

    let (configs, fresh) = probe_configs(workload, seed);
    let mut prepare_ms = Vec::new();
    let experiments: Vec<Experiment> = configs
        .iter()
        .map(|config| {
            let start = Instant::now();
            let exp = Experiment::prepare_with_dataset(config, Arc::clone(&dataset));
            prepare_ms.push(ms_since(start));
            exp
        })
        .collect();
    values.insert("system.experiment.prepare_ms_p50", median(&prepare_ms));

    // Probes first: they need the experiments, which the composite
    // passes then take over.
    let inputs = Inputs {
        workload,
        dataset: &dataset,
        configs: &configs,
        experiments: &experiments,
        local: &local,
    };
    probes::volume(&inputs, &mut values);
    probes::render(&inputs, &mut values);
    probes::image(&inputs, &mut values);
    probes::comm(&inputs, &mut values)?;
    probes::core(&inputs, &mut values);
    probes::system(&inputs, &mut values);
    probes::serve(&inputs, &fresh, &mut values)?;

    let frame_hashes: Vec<u64> = experiments
        .iter()
        .map(|exp| fnv1a(&exp.run(workload.method).image))
        .collect();

    let mut tally = Tally::default();
    let (passes, proc, side) = match workload.kind {
        Kind::Composite => {
            let (daemon_passes, _, side) =
                serve_passes(workload, seed, seconds, &dataset, &frame_hashes, None)?;
            tally.merge(&daemon_passes[0].tally);
            let (_, order) = pose_set(seed, workload.poses);
            let prepared = Prepared {
                workload,
                experiments,
                order,
            };
            let expected = prepared.expectations()?;
            let (passes, proc) = composite_passes(&prepared, &expected, seconds, &mut rec);
            composite_layers(
                &prepared,
                &expected,
                &configs,
                seconds,
                &mut rec,
                &mut budget,
                &mut tally,
            );
            (passes, proc, side)
        }
        Kind::Serve { .. } => {
            let passes = serve_passes(
                workload,
                seed,
                seconds,
                &dataset,
                &frame_hashes,
                Some(&mut rec),
            )?;
            serve_layers(
                workload,
                &dataset,
                &configs,
                &frame_hashes,
                seed,
                seconds,
                &mut rec,
                &mut budget,
                &mut tally,
            )?;
            passes
        }
    };
    for pass in &passes {
        tally.merge(&pass.tally);
    }
    let (black_box_ms, traced_ms) = (passes[0].p50_ms(), passes[1].p50_ms());

    values.insert("process.cpu_ms_per_frame", proc.cpu_ms_per_frame);
    values.insert("process.sys_cpu_share", proc.sys_cpu_share_pct);
    values.insert(
        "process.minor_faults_per_frame",
        proc.minor_faults_per_frame,
    );
    values.insert(
        "process.peak_rss_mb",
        stats::proc_now().peak_rss_kb as f64 / 1024.0,
    );

    values.insert("serve.service.wait_ms_p50", side.wait_ms_p50);
    values.insert("serve.edge.overhead_ms_p50", side.edge_ms_p50);
    values.insert("serve.stats.hit_rate", side.stats.serve_hit_rate() * 100.0);
    values.insert(
        "serve.stats.rendered_frames",
        side.stats.rendered_frames as f64,
    );
    values.insert(
        "serve.stats.cache_evictions",
        side.stats.cache.evictions as f64,
    );
    values.insert(
        "serve.stats.peak_queue_depth",
        side.stats.peak_queue_depth as f64,
    );
    let refused = side.stats.answered() - side.stats.completed();
    values.insert("serve.stats.refused", refused as f64);

    let attributed = budget.attributed_ms();
    values.insert("budget.attributed_ms", attributed);
    values.insert("budget.unattributed_ms", black_box_ms - attributed);
    values.insert(
        "budget.unattributed_share",
        (black_box_ms - attributed) / black_box_ms * 100.0,
    );
    values.insert(
        "budget.trace_overhead_pct",
        (traced_ms / black_box_ms - 1.0) * 100.0,
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    values.insert("host.cores", cores as f64);
    values.insert(
        "host.anchor_drift_pct",
        stats::drift_pct(anchor_before, stats::anchor_ms()),
    );

    Ok(Traced {
        tally,
        values,
        recorder: rec,
        budget,
        black_box_ms,
    })
}
