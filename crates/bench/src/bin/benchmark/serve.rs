//! The serve workloads: op = one request through a TCP [`Client`] to an
//! in-process [`Daemon`], socket request in → hash-verified pixels out.

use std::sync::Arc;
use std::time::Instant;

use vr_comm::frame::{HEADER_LEN, LEN_PREFIX_LEN};
use vr_image::checksum::fnv1a;
use vr_serve::wire::{encode_response, WireFrame, WireResponse};
use vr_serve::{
    Client, Daemon, DaemonConfig, FrameReply, FrameResponse, RenderedFrame, ServeConfig,
};
use vr_system::{Experiment, ExperimentConfig};
use vr_volume::Dataset;

use crate::ops::{pose_set, Kind, PoseWalk, Workload};
use crate::spans::Recorder;
use crate::verify::Tally;
use crate::{Measured, Plan, Window};

/// Every how many cold frames (from the first on) one is re-rendered
/// in process and compared, off the clock.
pub const COLD_CHECK_EVERY: usize = 16;

/// Where a caller's next request comes from.
pub enum Requests {
    /// A cached pose set, cycled in seeded order.
    Hot {
        configs: Vec<ExperimentConfig>,
        order: Vec<usize>,
    },
    /// Poses that never repeat.
    Cold { walk: PoseWalk },
}

impl Requests {
    pub fn new(workload: &Workload, seed: u64) -> Requests {
        match workload.kind {
            Kind::Serve { hot: false } => Requests::Cold {
                walk: PoseWalk::new(seed),
            },
            // A composite workload asks the daemon for its pose set too
            // (the traced run's serve-side probes).
            _ => {
                let (poses, order) = pose_set(seed, workload.poses);
                Requests::Hot {
                    configs: poses.iter().map(|&p| workload.config(p)).collect(),
                    order,
                }
            }
        }
    }

    /// The `op`-th request of `caller` out of `callers`; with it, for a
    /// hot request, the index of its pose.
    pub fn request(
        &self,
        workload: &Workload,
        caller: usize,
        callers: usize,
        op: usize,
    ) -> (ExperimentConfig, Option<usize>) {
        match self {
            Requests::Hot { configs, order } => {
                // Callers start at different points of the same cycle.
                let at = op + caller * order.len() / callers;
                let pose = order[at % order.len()];
                (configs[pose], Some(pose))
            }
            Requests::Cold { walk } => (
                workload.config(walk.pose((op * callers + caller) as u64)),
                None,
            ),
        }
    }
}

/// A serve workload after set-up: the daemon and one connection per
/// caller.
pub struct Serving {
    pub daemon: Daemon,
    pub clients: Vec<Client>,
}

impl Serving {
    /// Closes the connections, then stops the daemon and joins its
    /// threads.
    pub fn shut_down(self) {
        drop(self.clients);
        self.daemon.shutdown();
    }
}

pub fn serve_config(workload: &Workload) -> ServeConfig {
    ServeConfig {
        workers: 2,
        cache_frames: workload.cache_frames,
        ..Default::default()
    }
}

/// The op: request, receive, decode and hash-check one frame, as any
/// client of the daemon does. `None` when no intact frame came back.
pub fn op(client: &mut Client, config: &ExperimentConfig) -> Option<WireFrame> {
    match client.request_blocking(config) {
        Ok(WireResponse::Frame(frame)) if fnv1a(&frame.image) == frame.image_hash => Some(frame),
        _ => None,
    }
}

/// Bytes the client read from the socket for this response: length
/// prefix, frame header and the response payload, whose length is
/// taken by encoding the received reply again with the server's own
/// encoder.
pub fn response_wire_bytes(frame: &WireFrame) -> u64 {
    let reply = FrameResponse::Frame(FrameReply {
        frame: Arc::new(RenderedFrame {
            key: 0,
            image: frame.image.clone(),
            image_hash: frame.image_hash,
            record: frame.record,
        }),
        source: frame.source,
        wait_seconds: frame.wait_seconds,
    });
    (LEN_PREFIX_LEN + HEADER_LEN + encode_response(0, &reply).len()) as u64
}

/// Set-up: daemon start, one connection per caller, cache warm (hot)
/// and the warm-up requests, which include the first request's dataset
/// and macrocell build.
pub fn set_up(workload: &'static Workload, requests: &Requests) -> Result<Serving, String> {
    let daemon = Daemon::start(
        "127.0.0.1:0",
        DaemonConfig {
            shards: 1,
            serve: serve_config(workload),
            ..Default::default()
        },
    )
    .map_err(|e| format!("daemon start: {e}"))?;
    let mut clients = (0..workload.callers)
        .map(|_| Client::connect(daemon.local_addr()).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    if let Requests::Hot { configs, .. } = requests {
        for config in configs {
            op(&mut clients[0], config).ok_or("cache warm request failed")?;
        }
    }
    let callers = clients.len();
    let warmed = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(caller, client)| {
                scope.spawn(move || {
                    (0..workload.warmup).all(|i| {
                        let (config, _) = requests.request(workload, caller, callers, i);
                        op(client, &config).is_some()
                    })
                })
            })
            .collect();
        handles.into_iter().all(|h| h.join().unwrap_or(false))
    });
    if !warmed {
        return Err("warm-up request failed".into());
    }
    Ok(Serving { daemon, clients })
}

/// One caller's measured frames.
#[derive(Default)]
pub struct CallerLog {
    pub latencies: Vec<f64>,
    pub tally: Tally,
    /// Frames kept for the off-clock comparison with an in-process run.
    pub to_check: Vec<(ExperimentConfig, WireFrame)>,
    /// Server-side wait of each delivered frame, seconds.
    pub waits: Vec<f64>,
    /// The caller's op spans, on a traced pass.
    pub recorder: Option<Recorder>,
}

impl CallerLog {
    /// Off the clock: the kept frames against an in-process run; one
    /// that differs turns an already counted frame into a failed one.
    pub fn recheck_kept(&self, dataset: &Arc<Dataset>, tally: &mut Tally) {
        for (config, frame) in &self.to_check {
            if in_process_hash(config, dataset) != frame.image_hash {
                tally.fail_counted(1);
            }
        }
    }
}

/// Measures for `window`: every caller its own closed loop on its own
/// connection. The clock covers request to hash-checked frame. With
/// `spans_epoch`, every caller also records each op as a span.
pub fn measure(
    workload: &'static Workload,
    requests: &Requests,
    expected_hot: &[u64],
    clients: &mut [Client],
    window: &Window,
    spans_epoch: Option<Instant>,
) -> Vec<CallerLog> {
    let callers = clients.len();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(caller, client)| {
                scope.spawn(move || {
                    let mut log = CallerLog {
                        recorder: spans_epoch.map(Recorder::with_epoch),
                        ..Default::default()
                    };
                    let mut i = workload.warmup;
                    while window.open(log.latencies.len()) {
                        let (config, pose) = requests.request(workload, caller, callers, i);
                        let start = Instant::now();
                        let served = match log.recorder.as_mut() {
                            Some(rec) => rec.span("op", i as u64, |_| op(client, &config)),
                            None => op(client, &config),
                        };
                        let elapsed = start.elapsed().as_secs_f64();
                        match served {
                            None => log.tally.lost(),
                            Some(served) => {
                                log.latencies.push(elapsed);
                                log.waits.push(served.wait_seconds);
                                match pose {
                                    Some(pose) => {
                                        log.tally.frame(expected_hot[pose], served.image_hash)
                                    }
                                    None => {
                                        log.tally.check(served.image_hash, true);
                                        if log.latencies.len() % COLD_CHECK_EVERY == 1 {
                                            log.to_check.push((config, served));
                                        }
                                    }
                                }
                            }
                        }
                        i += 1;
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread"))
            .collect()
    })
}

/// The hash of `config`'s frame run in process, the way a batch user
/// would: `Experiment::prepare_with_dataset` + `run`.
pub fn in_process_hash(config: &ExperimentConfig, dataset: &Arc<Dataset>) -> u64 {
    let exp = Experiment::prepare_with_dataset(config, Arc::clone(dataset));
    fnv1a(&exp.run(config.method).image)
}

/// One untraced run of a serve workload.
pub fn run(workload: &'static Workload, plan: &Plan) -> Result<Measured, String> {
    let requests = Requests::new(workload, plan.seed);
    let mut setup_s = Vec::with_capacity(plan.set_ups);
    let mut serving: Option<Serving> = None;
    for _ in 0..plan.set_ups {
        if let Some(previous) = serving.take() {
            previous.shut_down();
        }
        let start = Instant::now();
        serving = Some(set_up(workload, &requests)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut serving = serving.expect("at least one set-up");

    // Off the clock: what the cached poses must hash to, from a run
    // that never touched the daemon.
    let dataset = Arc::new(Dataset::paper(workload.dataset));
    let mut wire_bytes = Vec::new();
    let mut expected_hot = Vec::new();
    if let Requests::Hot { configs, .. } = &requests {
        for config in configs {
            expected_hot.push(in_process_hash(config, &dataset));
            let served = op(&mut serving.clients[0], config).ok_or("hot pose request failed")?;
            wire_bytes.push(response_wire_bytes(&served));
        }
    }

    let window = plan.window(workload.callers);
    let logs = measure(
        workload,
        &requests,
        &expected_hot,
        &mut serving.clients,
        &window,
        None,
    );
    serving.shut_down();

    let mut tally = Tally::default();
    for log in &logs {
        tally.merge(&log.tally);
        log.recheck_kept(&dataset, &mut tally);
        wire_bytes.extend(
            log.to_check
                .iter()
                .map(|(_, frame)| response_wire_bytes(frame)),
        );
    }
    if wire_bytes.is_empty() {
        return Err(format!("{}: too few frames to check any", workload.name));
    }
    Ok(Measured {
        setup_s,
        latencies: logs.into_iter().map(|l| l.latencies).collect(),
        wire_bytes_per_frame: wire_bytes.iter().sum::<u64>() as f64 / wire_bytes.len() as f64,
        tally,
    })
}
