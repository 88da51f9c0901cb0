//! Per-layer probes: each layer's public functions timed on the
//! workload's own data (its dataset, image size, rank count, method
//! and seeded poses), so every metric is defined on every workload.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use slsvr_core::Method;
use vr_comm::frame::{decode_frame, encode_frame};
use vr_comm::{run_group_with, GroupOptions};
use vr_cost::CostModelPreset;
use vr_image::checksum::fnv1a;
use vr_image::kernel::{over_slice, scan_runs_into};
use vr_image::{Image, RunImage, RunSet};
use vr_render::RenderPool;
use vr_serve::wire;
use vr_serve::{
    frame_key, FrameReply, FrameResponse, FrameService, LruCache, RenderedFrame, ServeSource,
};
use vr_system::{Experiment, ExperimentConfig, FrameRecord, StreamExperiment};
use vr_volume::{Dataset, DatasetKind};

use crate::layers::{accel, composite_group, ms, render_blocks, view, Loopback};
use crate::ops::Workload;
use crate::serve::serve_config;
use crate::stats::median;

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Poses the heavier probes (render, stream) run on.
const HEAVY_POSES: usize = 2;

pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Median wall time, ms, of `reps` calls of `f`.
fn reps_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            ms_since(start)
        })
        .collect();
    median(&samples)
}

/// Wall time, ms, of one call of `f` that loops `iters` times inside,
/// per iteration.
fn per_iter_ms(iters: usize, f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    ms_since(start) / iters as f64
}

/// What the probes run on.
pub struct Inputs<'a> {
    pub workload: &'static Workload,
    pub dataset: &'a Arc<Dataset>,
    pub configs: &'a [ExperimentConfig],
    pub experiments: &'a [Experiment],
    /// The `local` preset of COST_MODEL.json.
    pub local: &'a CostModelPreset,
}

pub fn volume(inputs: &Inputs, out: &mut Values) {
    let config = &inputs.configs[0];
    out.insert("volume.partition.kd_ms", reps_ms(200, || view(config)));
}

/// Sequential single-thread render of every block of `config`:
/// (per-block ms, non-blank pixels, accel build ms, active fraction).
fn render_pose(config: &ExperimentConfig, dataset: &Dataset) -> (Vec<f64>, usize, f64, f64) {
    let view = view(config);
    let start = Instant::now();
    let accel = accel(config, dataset, &view.params);
    let accel_ms = ms_since(start);
    let single = RenderPool::new(1);
    let (images, times) = render_blocks(dataset, &view, &accel, config.tile, Some(&single));
    let block_ms = times.iter().map(|&(start, end)| ms(start, end)).collect();
    let non_blank = images.iter().map(Image::non_blank_count).sum();
    (block_ms, non_blank, accel_ms, accel.active_fraction())
}

pub fn render(inputs: &Inputs, out: &mut Values) {
    let poses = &inputs.configs[..HEAVY_POSES.min(inputs.configs.len())];
    let (mut max_ms, mut sum_ms, mut px, mut accel_ms, mut active) =
        (vec![], vec![], vec![], vec![], vec![]);
    for config in poses {
        let (block_ms, non_blank, new_ms, fraction) = render_pose(config, inputs.dataset);
        max_ms.push(block_ms.iter().copied().fold(0.0, f64::max));
        sum_ms.push(block_ms.iter().sum());
        px.push(non_blank as f64);
        accel_ms.push(new_ms);
        active.push(fraction * 100.0);
    }
    out.insert("render.accel.new_ms", median(&accel_ms));
    out.insert("render.block.max_ms", median(&max_ms));
    out.insert("render.block.sum_ms", median(&sum_ms));
    out.insert(
        "render.block.nonblank_px",
        px.iter().sum::<f64>() / px.len() as f64,
    );
    out.insert("render.accel.active_fraction", median(&active));

    // The same blocks across a pool of one thread and of two.
    let config = &poses[0];
    let view = view(config);
    let accel = accel(config, inputs.dataset, &view.params);
    let with_threads = |threads: usize| {
        let pool = RenderPool::new(threads);
        reps_ms(1, || {
            render_blocks(inputs.dataset, &view, &accel, config.tile, Some(&pool))
        })
    };
    let (one, two) = (with_threads(1), with_threads(2));
    out.insert("render.pool.speedup_t2", one / two);

    // The same poses on the sparse transfer window.
    let sparse_sum = if inputs.workload.dataset == DatasetKind::EngineHigh {
        median(&sum_ms)
    } else {
        let sparse = Dataset::paper(DatasetKind::EngineHigh);
        let sums: Vec<f64> = poses
            .iter()
            .map(|config| {
                let config = ExperimentConfig {
                    dataset: DatasetKind::EngineHigh,
                    ..*config
                };
                render_pose(&config, &sparse).0.iter().sum()
            })
            .collect();
        median(&sums)
    };
    out.insert("render.block.sparse_sum_ms", sparse_sum);
}

pub fn image(inputs: &Inputs, out: &mut Values) {
    let subimages = inputs.experiments[0].subimages();
    let (front, back) = (&subimages[0], &subimages[1 % subimages.len()]);
    let area = front.area() as f64;
    let mut target = back.clone();
    let over = reps_ms(7, || over_slice(front.pixels(), target.pixels_mut()));
    out.insert("image.kernel.over_ns_per_px", over * 1e6 / area);
    out.insert("image.image.clone_ms", reps_ms(9, || front.clone()));
    let mut runs = RunSet::new();
    let scan = reps_ms(9, || {
        runs.clear();
        scan_runs_into(front.pixels(), 0, &mut runs);
    });
    out.insert("image.kernel.scan_runs_ns_per_px", scan * 1e6 / area);
    let encode = reps_ms(9, || RunImage::encode(front.pixels()));
    out.insert("image.rle.encode_ns_per_px", encode * 1e6 / area);
    let reference = inputs.experiments[0].reference();
    out.insert("image.checksum.fnv1a_ms", reps_ms(9, || fnv1a(&reference)));
}

const PROBE_TAG: u32 = 0x5eed;

pub fn comm(inputs: &Inputs, out: &mut Values) -> Result<(), String> {
    let ranks = inputs.workload.processors;
    out.insert(
        "comm.group.spawn_join_ms",
        reps_ms(30, || {
            run_group_with(ranks, GroupOptions::default(), |_| ())
        }),
    );

    const ROUND_TRIPS: usize = 2000;
    let ping = run_group_with(2, GroupOptions::default(), |ep| {
        let peer = 1 - ep.rank();
        per_iter_ms(ROUND_TRIPS, || {
            for _ in 0..ROUND_TRIPS {
                if ep.rank() == 0 {
                    ep.send(peer, PROBE_TAG, vec![0u8; 16].into())
                        .expect("ping");
                    ep.recv(peer, PROBE_TAG).expect("pong");
                } else {
                    let got = ep.recv(peer, PROBE_TAG).expect("ping");
                    ep.send(peer, PROBE_TAG, got).expect("pong");
                }
            }
        })
    });
    out.insert("comm.endpoint.pingpong_us", ping.results[0] * 1e3);

    const BULK_BYTES: usize = 2 << 20;
    const BULK_MESSAGES: usize = 16;
    let bulk = run_group_with(2, GroupOptions::default(), |ep| {
        let peer = 1 - ep.rank();
        let start = Instant::now();
        for _ in 0..BULK_MESSAGES {
            if ep.rank() == 0 {
                ep.send(peer, PROBE_TAG, vec![1u8; BULK_BYTES].into())
                    .expect("bulk send");
            } else {
                std::hint::black_box(ep.recv(peer, PROBE_TAG).expect("bulk recv"));
            }
        }
        start.elapsed().as_secs_f64()
    });
    let megabytes = (BULK_BYTES * BULK_MESSAGES) as f64 / 1e6;
    out.insert("comm.endpoint.bulk_mb_per_s", megabytes / bulk.results[1]);

    let payload = vec![0xa5u8; 1 << 20];
    let framed = encode_frame(wire::KIND_RESPONSE, 0, &payload);
    out.insert(
        "comm.frame.encode_ms",
        reps_ms(9, || encode_frame(wire::KIND_RESPONSE, 0, &payload)),
    );
    out.insert("comm.frame.decode_ms", reps_ms(9, || decode_frame(&framed)));
    let mut loopback = Loopback::open()?;
    out.insert(
        "comm.frame.loopback_ms",
        reps_ms(9, || loopback.round_trip(wire::KIND_RESPONSE, &payload)),
    );
    Ok(())
}

const CORE_METHODS: [(Method, [&str; 4], Option<&str>); 5] = [
    (
        Method::Bs,
        [
            "core.bs.composite_ms_p50",
            "core.bs.comp_cpu_ms",
            "core.bs.sent_bytes",
            "core.bs.msgs",
        ],
        Some("cost.local.residual_pct_bs"),
    ),
    (
        Method::Bsbr,
        [
            "core.bsbr.composite_ms_p50",
            "core.bsbr.comp_cpu_ms",
            "core.bsbr.sent_bytes",
            "core.bsbr.msgs",
        ],
        Some("cost.local.residual_pct_bsbr"),
    ),
    (
        Method::Bslc,
        [
            "core.bslc.composite_ms_p50",
            "core.bslc.comp_cpu_ms",
            "core.bslc.sent_bytes",
            "core.bslc.msgs",
        ],
        Some("cost.local.residual_pct_bslc"),
    ),
    (
        Method::Bsbrc,
        [
            "core.bsbrc.composite_ms_p50",
            "core.bsbrc.comp_cpu_ms",
            "core.bsbrc.sent_bytes",
            "core.bsbrc.msgs",
        ],
        Some("cost.local.residual_pct_bsbrc"),
    ),
    (
        Method::TileStream,
        [
            "core.tstream.composite_ms_p50",
            "core.tstream.comp_cpu_ms",
            "core.tstream.sent_bytes",
            "core.tstream.msgs",
        ],
        None,
    ),
];

/// Runs of each method per pose.
const CORE_REPS: usize = 3;

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// `core.*`, `cost.*` and the `comm.traffic.*` counts, from the
/// benchmark's own compositing group on the workload's subimages.
pub fn core(inputs: &Inputs, out: &mut Values) {
    for (method, [composite_name, cpu_name, bytes_name, msgs_name], residual_name) in CORE_METHODS {
        let (mut composite_ms, mut cpu_ms, mut bytes, mut msgs, mut residual) =
            (vec![], vec![], vec![], vec![], vec![]);
        let (mut gather_ms, mut gather_bytes, mut traffic_msgs, mut traffic_bytes, mut peak) =
            (vec![], vec![], vec![], vec![], vec![]);
        for (config, exp) in inputs.configs.iter().zip(inputs.experiments) {
            for rep in 0..CORE_REPS {
                let group = composite_group(config, method, exp.subimages(), exp.depth());
                composite_ms.push(group.composite_max_ms());
                // The rank with the most measured compute, raw thread CPU.
                let busiest = group
                    .ranks
                    .iter()
                    .map(|r| &r.stats)
                    .max_by(|a, b| a.comp_seconds.total_cmp(&b.comp_seconds))
                    .expect("ranks");
                cpu_ms.push(busiest.comp_seconds * 1e3);
                let modeled = inputs.local.comp.modeled_seconds(busiest);
                if modeled > 0.0 {
                    residual.push((busiest.comp_seconds / modeled - 1.0) * 100.0);
                }
                if rep == 0 {
                    let sent: u64 = group.ranks.iter().map(|r| r.stats.sent_bytes()).sum();
                    bytes.push(sent as f64);
                    msgs.push(group.ranks.iter().map(|r| r.stats.sent_msgs()).sum::<u64>() as f64);
                    if method == inputs.workload.method {
                        let on_wire: u64 = group.traffic.iter().map(|t| t.sent_bytes).sum();
                        gather_bytes.push((on_wire - sent) as f64);
                        traffic_bytes.push(on_wire as f64);
                        traffic_msgs.push(group.traffic.iter().map(|t| t.sent_messages).sum::<u64>() as f64);
                        peak.push(
                            group
                                .traffic
                                .iter()
                                .map(|t| t.peak_pixel_buffer_bytes)
                                .max()
                                .unwrap_or(0) as f64,
                        );
                    }
                }
                if method == inputs.workload.method {
                    gather_ms.push(group.gather_max_ms());
                }
            }
        }
        out.insert(composite_name, median(&composite_ms));
        out.insert(cpu_name, median(&cpu_ms));
        out.insert(bytes_name, mean(&bytes));
        out.insert(msgs_name, mean(&msgs));
        if let Some(name) = residual_name {
            out.insert(
                name,
                if residual.is_empty() {
                    0.0
                } else {
                    median(&residual)
                },
            );
        }
        if method == inputs.workload.method {
            out.insert("core.gather.ms_p50", median(&gather_ms));
            out.insert("core.gather.bytes", mean(&gather_bytes));
            out.insert("comm.traffic.msgs_per_frame", mean(&traffic_msgs));
            out.insert("comm.traffic.bytes_per_frame", mean(&traffic_bytes));
            out.insert(
                "comm.traffic.peak_pixel_buffer_bytes",
                peak.iter().copied().fold(0.0, f64::max),
            );
        }
    }
    let reference_ms: Vec<f64> = inputs
        .experiments
        .iter()
        .map(|exp| reps_ms(1, || exp.reference()))
        .collect();
    out.insert("core.reference.ms", median(&reference_ms));
}

/// `system.*` apart from `prepare_ms_p50`, which the traced run takes
/// while it prepares the poses. Needs `comm` and `core` done.
pub fn system(inputs: &Inputs, out: &mut Values) {
    let method = inputs.workload.method;
    // The first runs in a process pay for the allocator's growth; the op
    // of a workload is the steady state, so three runs per pose go first.
    let runs: Vec<f64> = inputs
        .experiments
        .iter()
        .flat_map(|exp| (0..8).map(move |_| reps_ms(1, || exp.run(method))).skip(3))
        .collect();
    let run_ms = median(&runs);
    out.insert("system.experiment.run_ms_p50", run_ms);
    let method_composite = CORE_METHODS
        .iter()
        .find(|(m, ..)| *m == method)
        .map(|(_, names, _)| out[names[0]])
        .expect("the workload's method is probed");
    out.insert(
        "system.experiment.run_overhead_ms",
        run_ms - (out["comm.group.spawn_join_ms"] + method_composite + out["core.gather.ms_p50"]),
    );

    let (mut frame_ms, mut first_tile_ms) = (vec![], vec![]);
    for config in &inputs.configs[..HEAVY_POSES.min(inputs.configs.len())] {
        let stream = StreamExperiment::prepare_with_dataset(config, Arc::clone(inputs.dataset));
        let outcome = stream.run();
        frame_ms.push(outcome.total_seconds * 1e3);
        first_tile_ms.push(outcome.first_tile_seconds.unwrap_or(outcome.total_seconds) * 1e3);
    }
    out.insert("system.stream.frame_ms_p50", median(&frame_ms));
    out.insert("system.stream.first_tile_ms_p50", median(&first_tile_ms));
}

/// The serve layer's codecs and cache on the workload's own frame, and
/// the service without a socket.
pub fn serve(inputs: &Inputs, fresh: &[ExperimentConfig], out: &mut Values) -> Result<(), String> {
    let config = inputs.configs[0];
    let image = inputs.experiments[0].run(config.method).image;
    let rendered = Arc::new(RenderedFrame {
        key: frame_key(&config),
        image_hash: fnv1a(&image),
        image,
        record: FrameRecord::default(),
    });
    let reply = FrameResponse::Frame(FrameReply {
        frame: Arc::clone(&rendered),
        source: ServeSource::Cache,
        wait_seconds: 0.0,
    });
    let encoded = wire::encode_response(1, &reply);
    out.insert(
        "serve.wire.encode_response_ms",
        reps_ms(9, || wire::encode_response(1, &reply)),
    );
    out.insert(
        "serve.wire.decode_response_ms",
        reps_ms(9, || wire::decode_response(&encoded)),
    );

    const SMALL: usize = 2000;
    let request = wire::encode_request(1, &config);
    let encode_request = per_iter_ms(SMALL, || {
        for i in 0..SMALL {
            std::hint::black_box(wire::encode_request(
                i as u64,
                std::hint::black_box(&config),
            ));
        }
    });
    out.insert("serve.wire.encode_request_us", encode_request * 1e3);
    let decode_request = per_iter_ms(SMALL, || {
        for _ in 0..SMALL {
            std::hint::black_box(wire::decode_request(std::hint::black_box(&request)).is_ok());
        }
    });
    out.insert("serve.wire.decode_request_us", decode_request * 1e3);
    let key = per_iter_ms(SMALL, || {
        for _ in 0..SMALL {
            std::hint::black_box(frame_key(std::hint::black_box(&config)));
        }
    });
    out.insert("serve.cache.frame_key_us", key * 1e3);

    // A full cache: hits on resident keys, then inserts that each evict.
    let capacity = inputs.workload.cache_frames;
    let mut cache = LruCache::new(capacity);
    for k in 0..capacity as u64 {
        cache.insert(k, Arc::clone(&rendered));
    }
    let get = per_iter_ms(SMALL, || {
        for i in 0..SMALL {
            std::hint::black_box(cache.get((i % capacity) as u64));
        }
    });
    out.insert("serve.cache.get_us", get * 1e3);
    let insert = per_iter_ms(SMALL, || {
        for i in 0..SMALL {
            cache.insert((capacity + i) as u64, Arc::clone(&rendered));
        }
    });
    out.insert("serve.cache.insert_us", insert * 1e3);

    // The service without the socket: the workload's request mix
    // through `SessionHandle::request_blocking`.
    let service = FrameService::start(serve_config(inputs.workload));
    let session = service.open_session(config);
    let mut frame_ms = Vec::new();
    let request_ms = |config: &ExperimentConfig| -> Result<f64, String> {
        let start = Instant::now();
        match session.request_blocking(*config) {
            FrameResponse::Frame(_) => Ok(ms_since(start)),
            other => Err(format!("in-process request not served: {other:?}")),
        }
    };
    if fresh.is_empty() {
        for config in inputs.configs {
            request_ms(config)?;
        }
        for i in 0..200 {
            frame_ms.push(request_ms(&inputs.configs[i % inputs.configs.len()])?);
        }
    } else {
        for config in fresh {
            frame_ms.push(request_ms(config)?);
        }
    }
    drop(session);
    service.shutdown();
    out.insert("serve.service.inproc_frame_ms_p50", median(&frame_ms));
    Ok(())
}

/// The `local` preset the repo's cost model was last fitted to.
pub fn local_preset() -> Result<CostModelPreset, String> {
    vr_cost::preset::resolve_preset("local", vr_cost::preset::DEFAULT_MODEL_PATH)
}
