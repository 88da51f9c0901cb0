//! The frame pipeline performed step by step by the benchmark itself,
//! through each layer's public functions, with a span around every
//! call. Nothing in the layer crates is instrumented: every time here
//! is taken from outside.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use slsvr_core::{composite, gather_image_tolerant, virtual_completion, Method, MethodStats};
use vr_comm::{read_frame, run_group_with, write_frame, Frame, TrafficStats};
use vr_image::checksum::fnv1a;
use vr_image::Image;
use vr_render::{
    render_block_accel, render_block_accel_pool, Camera, RenderAccel, RenderParams, RenderPool,
};
use vr_serve::wire::{self, WireResponse};
use vr_serve::{frame_key, FrameReply, FrameResponse, LruCache, RenderedFrame, ServeSource};
use vr_system::{CompTiming, ExperimentConfig, FrameRecord};
use vr_volume::{kd_partition, Dataset, DepthOrder};

use crate::spans::Recorder;
use crate::stats::median;

/// Samples, ms, of the steps that block a frame, by step name in order
/// of first use. The budget is the sum of their medians.
#[derive(Default)]
pub struct Budget {
    lines: Vec<(&'static str, Vec<f64>)>,
}

impl Budget {
    pub fn add(&mut self, name: &'static str, ms: f64) {
        match self.lines.iter_mut().find(|(n, _)| *n == name) {
            Some((_, samples)) => samples.push(ms),
            None => self.lines.push((name, vec![ms])),
        }
    }

    /// Median per step, ms.
    pub fn lines(&self) -> Vec<(&'static str, f64)> {
        self.lines.iter().map(|(n, s)| (*n, median(s))).collect()
    }

    pub fn attributed_ms(&self) -> f64 {
        self.lines().iter().map(|(_, ms)| ms).sum()
    }
}

/// `to − from`, ms.
pub fn ms(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

/// Times `f` as a span and as a budget step of the same name.
fn step<R>(
    rec: &mut Recorder,
    budget: &mut Budget,
    name: &'static str,
    frame: u64,
    f: impl FnOnce() -> R,
) -> R {
    let start = Instant::now();
    let result = rec.span(name, frame, |_| f());
    budget.add(name, ms(start, Instant::now()));
    result
}

/// One rank's timestamps through the compositing closure.
pub struct RankTimes {
    pub start: Instant,
    pub cloned: Instant,
    pub composited: Instant,
    pub gathered: Instant,
    /// Raw statistics as `composite()` returned them (`comp_seconds`
    /// is measured thread CPU, not yet modeled).
    pub stats: MethodStats,
}

/// One compositing group run, seen from outside.
pub struct GroupTimes {
    pub start: Instant,
    pub end: Instant,
    pub ranks: Vec<RankTimes>,
    pub traffic: Vec<TrafficStats>,
    pub image: Image,
}

impl GroupTimes {
    /// The rank the frame waited for: the last to finish its gather.
    pub fn critical(&self) -> &RankTimes {
        self.ranks
            .iter()
            .max_by_key(|r| r.gathered)
            .expect("a group has ranks")
    }

    /// Max over ranks of the time inside `composite()`, ms.
    pub fn composite_max_ms(&self) -> f64 {
        self.ranks
            .iter()
            .map(|r| ms(r.cloned, r.composited))
            .fold(0.0, f64::max)
    }

    /// Max over ranks of the time inside the gather, ms.
    pub fn gather_max_ms(&self) -> f64 {
        self.ranks
            .iter()
            .map(|r| ms(r.composited, r.gathered))
            .fold(0.0, f64::max)
    }
}

/// What `Experiment::run` does inside its group, with a timestamp
/// between the steps: clone the subimage, `composite`, gather to rank 0.
pub fn composite_group(
    config: &ExperimentConfig,
    method: Method,
    subimages: &[Image],
    depth: &DepthOrder,
) -> GroupTimes {
    let start = Instant::now();
    let out = run_group_with(config.processors, config.group_options(), |ep| {
        let start = Instant::now();
        let mut img = subimages[ep.rank()].clone();
        let cloned = Instant::now();
        let result =
            composite(method, ep, &mut img, depth).unwrap_or_else(|e| panic!("composite: {e}"));
        let composited = Instant::now();
        let gathered_image = gather_image_tolerant(ep, &img, &result.piece, 0)
            .unwrap_or_else(|e| panic!("gather: {e}"));
        let times = RankTimes {
            start,
            cloned,
            composited,
            gathered: Instant::now(),
            stats: result.stats,
        };
        (times, gathered_image.map(|g| g.image))
    });
    let end = Instant::now();
    let mut ranks = Vec::with_capacity(config.processors);
    let mut image = None;
    for (times, gathered) in out.results {
        ranks.push(times);
        image = image.or(gathered);
    }
    GroupTimes {
        start,
        end,
        ranks,
        traffic: out.stats,
        image: image.expect("rank 0 gathers the frame"),
    }
}

/// The compositing steps of one frame as spans and budget steps: the
/// group around the rank the frame waited for, then the aggregation
/// `Experiment::run` does after the join.
pub fn composite_steps(
    rec: &mut Recorder,
    budget: &mut Budget,
    frame: u64,
    config: &ExperimentConfig,
    subimages: &[Image],
    depth: &DepthOrder,
) -> GroupTimes {
    let group = rec.span("comm.group", frame, |rec| {
        let group = composite_group(config, config.method, subimages, depth);
        for (rank, r) in group.ranks.iter().enumerate() {
            let lane = rank as u32 + 1;
            rec.record("image.clone", frame, lane, r.start, r.cloned);
            rec.record("core.composite", frame, lane, r.cloned, r.composited);
            rec.record("core.gather", frame, lane, r.composited, r.gathered);
        }
        group
    });
    let critical = group.critical();
    budget.add(
        "comm.group.spawn_join",
        ms(group.start, group.end) - ms(critical.start, critical.gathered),
    );
    budget.add("image.clone", ms(critical.start, critical.cloned));
    budget.add("core.composite", ms(critical.cloned, critical.composited));
    budget.add("core.gather", ms(critical.composited, critical.gathered));
    step(rec, budget, "system.aggregate", frame, || {
        let mut per_rank: Vec<MethodStats> = group.ranks.iter().map(|r| r.stats.clone()).collect();
        for stats in &mut per_rank {
            config.comp_timing.apply(stats);
        }
        if let CompTiming::Modeled(cost) = config.comp_timing {
            std::hint::black_box(virtual_completion(&per_rank, &config.cost, &cost));
        }
        std::hint::black_box(per_rank);
    });
    group
}

/// What `Experiment::prepare_with_dataset_pool` does before it renders.
pub struct View {
    pub camera: Camera,
    pub blocks: Vec<vr_volume::Subvolume>,
    pub depth: DepthOrder,
    pub params: RenderParams,
}

pub fn view(config: &ExperimentConfig) -> View {
    let dims = config.resolved_dims();
    let camera = Camera::orbit(
        dims,
        config.image_size,
        config.image_size,
        config.rot_x_deg,
        config.rot_y_deg,
    );
    let partition = kd_partition(dims, config.processors);
    let depth = partition.depth_order(camera.view_dir);
    View {
        camera,
        blocks: partition.subvolumes().to_vec(),
        depth,
        params: RenderParams {
            step: config.step,
            early_termination_alpha: config.early_termination_alpha,
            simd_lanes: config.simd_lanes,
            ..Default::default()
        },
    }
}

pub fn accel(config: &ExperimentConfig, dataset: &Dataset, params: &RenderParams) -> RenderAccel {
    RenderAccel::new(
        dataset.macrocell_grid(config.macrocell),
        &dataset.transfer,
        params,
    )
}

/// Renders every rank's block the way a serve worker does: with one
/// render thread per worker, one scoped thread per rank; with more, the
/// ranks one after another across the worker's pool. Returns the
/// subimages and each rank's (start, end).
pub fn render_blocks(
    dataset: &Dataset,
    view: &View,
    accel: &RenderAccel,
    tile: usize,
    pool: Option<&RenderPool>,
) -> (Vec<Image>, Vec<(Instant, Instant)>) {
    let render = |block: &vr_volume::Subvolume| {
        let start = Instant::now();
        let image = match pool {
            Some(pool) => render_block_accel_pool(
                &dataset.volume,
                block,
                &dataset.transfer,
                &view.camera,
                &view.params,
                Some(accel),
                tile,
                Some(pool),
            ),
            None => render_block_accel(
                &dataset.volume,
                block,
                &dataset.transfer,
                &view.camera,
                &view.params,
                Some(accel),
                tile,
            ),
        };
        (image, (start, Instant::now()))
    };
    if pool.is_some() {
        view.blocks.iter().map(render).unzip()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = view
                .blocks
                .iter()
                .map(|block| scope.spawn(move || render(block)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("render thread"))
                .unzip()
        })
    }
}

/// A loopback TCP pair with a reader thread on the far end, standing in
/// for the socket between client and daemon.
pub struct Loopback {
    near: Option<TcpStream>,
    frames: mpsc::Receiver<Frame>,
    reader: Option<JoinHandle<()>>,
}

impl Loopback {
    pub fn open() -> Result<Loopback, String> {
        let err = |e: std::io::Error| format!("loopback: {e}");
        let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
        let near = TcpStream::connect(listener.local_addr().map_err(err)?).map_err(err)?;
        let (mut far, _) = listener.accept().map_err(err)?;
        near.set_nodelay(true).map_err(err)?;
        let (tx, frames) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            while let Ok(frame) = read_frame(&mut far, wire::MAX_WIRE_FRAME) {
                if tx.send(frame).is_err() {
                    break;
                }
            }
        });
        Ok(Loopback {
            near: Some(near),
            frames,
            reader: Some(reader),
        })
    }

    /// `write_frame` on one end, `read_frame` on the other.
    pub fn round_trip(&mut self, kind: u8, payload: &[u8]) -> Frame {
        let near = self.near.as_mut().expect("loopback is open");
        write_frame(near, kind, 0, payload).expect("loopback write");
        near.flush().expect("loopback flush");
        self.frames.recv().expect("loopback read")
    }
}

impl Drop for Loopback {
    fn drop(&mut self) {
        // Closing the near end ends the reader's loop.
        drop(self.near.take());
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// The serve path of one frame, step by step, in the order the client,
/// the daemon's connection thread, a worker and the client again
/// perform it — without the daemon's threads, queue and channels, which
/// is what the unattributed remainder then holds.
pub struct ServePath {
    pub dataset: Arc<Dataset>,
    pub cache: LruCache<Arc<RenderedFrame>>,
    pub loopback: Loopback,
    /// The worker's render pool when its share of the cores is more
    /// than one thread.
    pub pool: Option<RenderPool>,
}

impl ServePath {
    pub fn frame(
        &mut self,
        rec: &mut Recorder,
        budget: &mut Budget,
        id: u64,
        request: &ExperimentConfig,
    ) -> Result<u64, String> {
        rec.span("frame", id, |rec| {
            self.frame_steps(rec, budget, id, request)
        })
    }

    fn frame_steps(
        &mut self,
        rec: &mut Recorder,
        budget: &mut Budget,
        id: u64,
        request: &ExperimentConfig,
    ) -> Result<u64, String> {
        let submitted = Instant::now();
        let payload = step(rec, budget, "serve.wire.encode_request", id, || {
            wire::encode_request(id, request)
        });
        let frame = step(rec, budget, "comm.frame.request", id, || {
            self.loopback.round_trip(wire::KIND_REQUEST, &payload)
        });
        let (_, config) = step(rec, budget, "serve.wire.decode_request", id, || {
            wire::decode_request(&frame.payload)
        })
        .map_err(|e| format!("decode request: {e}"))?;
        let key = step(rec, budget, "serve.cache.frame_key", id, || {
            frame_key(&config)
        });
        let cached = step(rec, budget, "serve.cache.get", id, || self.cache.get(key));
        let (rendered, source) = match cached {
            Some(frame) => (frame, ServeSource::Cache),
            None => (
                self.render(rec, budget, id, key, &config),
                ServeSource::Fresh,
            ),
        };
        let reply = FrameResponse::Frame(FrameReply {
            frame: rendered,
            source,
            wait_seconds: submitted.elapsed().as_secs_f64(),
        });
        let payload = step(rec, budget, "serve.wire.encode_response", id, || {
            wire::encode_response(id, &reply)
        });
        let frame = step(rec, budget, "comm.frame.response", id, || {
            self.loopback.round_trip(wire::KIND_RESPONSE, &payload)
        });
        let decoded = step(rec, budget, "serve.wire.decode_response", id, || {
            wire::decode_response(&frame.payload)
        });
        let Ok((_, WireResponse::Frame(received))) = decoded else {
            return Err("decode response: not a frame".into());
        };
        let hash = step(rec, budget, "image.checksum.fnv1a_client", id, || {
            fnv1a(&received.image)
        });
        if hash != received.image_hash {
            return Err(format!("frame {id}: hash differs across the loopback"));
        }
        Ok(hash)
    }

    /// A cache miss: what a worker does (`prepare_with_dataset_pool`,
    /// `run`, hash, insert), step by step.
    fn render(
        &mut self,
        rec: &mut Recorder,
        budget: &mut Budget,
        id: u64,
        key: u64,
        config: &ExperimentConfig,
    ) -> Arc<RenderedFrame> {
        let dataset = Arc::clone(&self.dataset);
        let view = step(rec, budget, "volume.partition.kd", id, || view(config));
        let accel = step(rec, budget, "render.accel.new", id, || {
            accel(config, &dataset, &view.params)
        });
        let started = Instant::now();
        let subimages = rec.span("render.blocks", id, |rec| {
            let (subimages, times) =
                render_blocks(&dataset, &view, &accel, config.tile, self.pool.as_ref());
            for (rank, (start, end)) in times.into_iter().enumerate() {
                rec.record("render.block", id, rank as u32 + 1, start, end);
            }
            subimages
        });
        budget.add("render.blocks", ms(started, Instant::now()));
        let group = composite_steps(rec, budget, id, config, &subimages, &view.depth);
        let image_hash = step(rec, budget, "image.checksum.fnv1a_server", id, || {
            fnv1a(&group.image)
        });
        // The worker copies the attempt's image into the shared frame.
        let image = step(rec, budget, "image.clone_frame", id, || group.image.clone());
        let rendered = Arc::new(RenderedFrame {
            key,
            image,
            image_hash,
            record: FrameRecord::default(),
        });
        step(rec, budget, "serve.cache.insert", id, || {
            self.cache.insert(key, Arc::clone(&rendered))
        });
        rendered
    }
}
