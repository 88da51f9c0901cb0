//! The frame service: resident sessions, a bounded work queue, and a
//! std-thread worker pool in front of the `vr-system` runtime.
//!
//! The serving path is *self-healing*: a bounded retry loop for transient
//! failures, a PSNR-floor policy for degraded frames, worker-pool panic
//! safety and idle-TTL eviction of resident datasets. A frame is rendered
//! under its request's config and nothing else: faults, reliable delivery
//! and the receive deadline are request fields, so a request's failures
//! are its own and never refuse another request. Every submitted request
//! still resolves to exactly one explicit [`FrameResponse`].

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vr_image::checksum::fnv1a;
use vr_image::Image;
use vr_system::{Experiment, ExperimentConfig, FrameRecord, RenderPool};
use vr_volume::{Dataset, DatasetKind};

use crate::cache::{frame_key, LruCache};
use crate::metrics::ServiceStats;
use crate::policy::{DegradedDecision, DegradedFramePolicy};
use crate::queue::{admit, Admission, Job, Waiter};

/// Serving knobs. Defaults suit an interactive small-frame workload;
/// every field maps to a `slsvr serve` flag.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads rendering frames concurrently (the pool's
    /// concurrency limit; each worker renders on its own render pool,
    /// see [`ServeConfig::render_threads`]).
    pub workers: usize,
    /// Maximum queued (admitted, not yet running) frame jobs. Beyond
    /// this, requests get an explicit [`FrameResponse::Overloaded`] —
    /// backpressure instead of unbounded memory.
    pub queue_depth: usize,
    /// LRU frame-cache capacity in frames; 0 disables caching.
    pub cache_frames: usize,
    /// Collapse a burst of requests from one session to the newest
    /// camera ("latest wins"), answering superseded requests from the
    /// fresh result.
    pub coalesce: bool,
    /// Drop queued jobs whose age exceeds this when they reach a worker
    /// (`None` = never shed on age).
    pub deadline: Option<Duration>,
    /// Extra render attempts after the first for a transiently failed
    /// or below-floor frame (0 = answer the first bad attempt). Each
    /// retry re-salts the request's fault decisions and starts at once.
    pub max_retries: u32,
    /// What to do with degraded (hole-punched) frames.
    pub degraded: DegradedFramePolicy,
    /// Evict a resident dataset once no session holds it and it has
    /// been idle this long (`None` = datasets stay resident forever).
    pub session_ttl: Option<Duration>,
    /// The width of each worker's render pool: every rank of a frame
    /// puts its tiles on one board that the worker's pool drains, on
    /// threads that start and end with the board, so this is the
    /// frame's render thread count, whatever P is. `0` (the default)
    /// means auto — the host's cores, capped at 8, resolved once at
    /// service start. Not divided by `workers`: a one-thread pool would
    /// render a whole frame on one thread, and frames from concurrent
    /// workers share the cores as any threads do. Bit-identical at every
    /// value; requests carry no thread count.
    pub render_threads: usize,
}

impl ServeConfig {
    /// Each worker's render-pool width (see
    /// [`ServeConfig::render_threads`]).
    pub fn resolved_render_threads(&self) -> usize {
        vr_system::resolve_threads(self.render_threads)
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_depth: 32,
            cache_frames: 64,
            coalesce: true,
            deadline: None,
            max_retries: 2,
            degraded: DegradedFramePolicy::default(),
            session_ttl: None,
            render_threads: 0,
        }
    }
}

/// One rendered, cacheable frame with its machine-readable metrics.
#[derive(Clone, Debug)]
pub struct RenderedFrame {
    /// The frame key this image was rendered under.
    pub key: u64,
    /// The composited image.
    pub image: Image,
    /// Bit-exact FNV-1a digest of `image` (the determinism witness: it
    /// must equal the digest of the same config run through
    /// `Experiment::run`).
    pub image_hash: u64,
    /// Per-frame metrics: phase timers and traffic maxima (see
    /// [`FrameRecord`]).
    pub record: FrameRecord,
}

/// Where a successful reply came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ServeSource {
    /// Rendered for this request.
    Fresh,
    /// Served from the LRU frame cache.
    Cache,
    /// Superseded by a newer same-session request; answered with that
    /// newer frame.
    Coalesced,
    /// Degraded by faults (`Outcome::is_degraded`), served because its
    /// quality cleared [`DegradedFramePolicy::psnr_floor_db`].
    /// Degraded frames are never cached.
    Degraded {
        /// PSNR (dB) against the fault-free reference composite.
        psnr_db: f64,
        /// Fraction of image pixels covered by gathered pieces.
        coverage: f64,
    },
}

/// A successful frame reply.
#[derive(Clone, Debug)]
pub struct FrameReply {
    /// The frame (shared, not copied, between coalesced waiters and the
    /// cache).
    pub frame: Arc<RenderedFrame>,
    /// How this request was satisfied.
    pub source: ServeSource,
    /// Seconds from this request's submission to its reply.
    pub wait_seconds: f64,
}

/// Why a request was rejected by the robustness layer.
#[derive(Clone, Debug)]
pub enum RejectReason {
    /// Every attempt failed: a rank's `CompositeError` other than
    /// `Killed`, read through `Outcome::into_result` (a communication
    /// error such as a receive timeout, or a malformed payload), or a
    /// caught worker panic. A reliable link that spends its retry budget
    /// closes and degrades the frame instead of failing it. The last
    /// error is reported.
    Failed {
        /// Human-readable description of the final failure.
        error: String,
    },
    /// Attempts completed but every frame scored below the PSNR floor.
    QualityFloor {
        /// The best PSNR (dB) any attempt achieved.
        best_psnr_db: f64,
    },
    /// The service is shutting down: queued waiters are drained with
    /// this answer instead of being left blocked, and submissions after
    /// the queue closed get it immediately.
    Shutdown,
}

/// Every request is answered with exactly one of these.
#[derive(Clone, Debug)]
pub enum FrameResponse {
    /// An image (fresh, cached, coalesced, or degraded-above-floor).
    Frame(FrameReply),
    /// Rejected at admission: the queue was at capacity.
    Overloaded {
        /// Queue depth observed at rejection.
        queue_depth: usize,
    },
    /// Dropped because the job's deadline passed while it was queued.
    Shed {
        /// Seconds the request waited before being shed.
        waited_seconds: f64,
    },
    /// Rejected by the robustness layer: attempts failed or stayed
    /// below the quality floor, or the service is shutting down.
    Rejected {
        /// Render attempts spent before giving up (0 for shutdown).
        attempts: u32,
        /// Why the request could not be served.
        reason: RejectReason,
    },
}

struct QueueState {
    jobs: VecDeque<Job>,
    open: bool,
}

struct Shared {
    /// The config the service was started with, `render_threads` already
    /// resolved.
    cfg: ServeConfig,
    queue: Mutex<QueueState>,
    ready: Condvar,
    cache: Mutex<LruCache<Arc<RenderedFrame>>>,
    stats: Mutex<ServiceStats>,
}

/// One resident dataset plus its idle-eviction bookkeeping.
struct Resident {
    dataset: Arc<Dataset>,
    /// Last time a session was opened on this entry.
    last_used: Instant,
}

/// One dataset build: its kind and voxel dimensions.
type DatasetKey = (DatasetKind, [usize; 3]);

/// Registry of resident datasets, keyed by build so every session on the
/// same data shares one.
type DatasetRegistry = HashMap<DatasetKey, Resident>;

/// A long-lived, multi-session frame service over the `vr-system`
/// runtime. See the crate docs for the architecture.
pub struct FrameService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next_session: AtomicU64,
    datasets: Mutex<DatasetRegistry>,
}

/// A client session bound to one resident dataset. Requests carry full
/// `ExperimentConfig`s (camera, method, P, …) but must stay on the
/// session's dataset and volume dimensions.
pub struct SessionHandle {
    shared: Arc<Shared>,
    /// This session's id (the coalescing scope).
    pub id: u64,
    dataset: Arc<Dataset>,
    base: ExperimentConfig,
}

impl FrameService {
    /// Starts the worker pool.
    pub fn start(cfg: ServeConfig) -> FrameService {
        let mut service = FrameService::paused(cfg);
        service.spawn_workers();
        service
    }

    /// The service with admission open and no worker running yet, so a
    /// test can pile up a queue before anything drains it.
    fn paused(cfg: ServeConfig) -> FrameService {
        assert!(cfg.workers >= 1, "need at least one worker");
        assert!(cfg.queue_depth >= 1, "queue depth must be at least 1");
        // `available_parallelism` re-reads the affinity mask and the
        // cgroup quota files on every call, and two reads can disagree.
        let cfg = ServeConfig {
            render_threads: cfg.resolved_render_threads(),
            ..cfg
        };
        let shared = Arc::new(Shared {
            cfg,
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                open: true,
            }),
            ready: Condvar::new(),
            cache: Mutex::new(LruCache::new(cfg.cache_frames)),
            stats: Mutex::new(ServiceStats::default()),
        });
        FrameService {
            shared,
            workers: Vec::new(),
            next_session: AtomicU64::new(1),
            datasets: Mutex::new(HashMap::new()),
        }
    }

    fn spawn_workers(&mut self) {
        self.workers = (0..self.shared.cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&self.shared);
                std::thread::Builder::new()
                    .name(format!("vr-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
    }

    /// Opens a session on `base`'s dataset, building the volume on first
    /// use and keeping it (plus its lazily built macrocell grids)
    /// resident for every later session and frame on the same dataset.
    pub fn open_session(&self, base: ExperimentConfig) -> SessionHandle {
        self.evict_idle();
        let dims = base.resolved_dims();
        let now = Instant::now();
        let dataset = {
            let mut map = self.datasets.lock().unwrap();
            let entry = map.entry((base.dataset, dims)).or_insert_with(|| Resident {
                dataset: Arc::new(Dataset::with_dims(base.dataset, dims)),
                last_used: now,
            });
            entry.last_used = now;
            Arc::clone(&entry.dataset)
        };
        SessionHandle {
            shared: Arc::clone(&self.shared),
            id: self.next_session.fetch_add(1, Ordering::Relaxed),
            dataset,
            base,
        }
    }

    /// Evicts resident datasets idle past [`ServeConfig::session_ttl`]
    /// (no-op when the TTL is unset). Runs automatically on
    /// [`open_session`](Self::open_session); exposed for periodic
    /// housekeeping.
    pub fn evict_idle(&self) {
        self.evict_idle_at(Instant::now());
    }

    /// Like [`evict_idle`](Self::evict_idle) at an explicit `now` — the
    /// virtual-clock-friendly form tests drive with manufactured
    /// `Instant`s instead of sleeping out the TTL.
    ///
    /// An entry is evicted only when it is both idle past the TTL and
    /// unreferenced (no live session and no in-flight job holds its
    /// `Arc`), so eviction never invalidates work in progress.
    pub fn evict_idle_at(&self, now: Instant) {
        let Some(ttl) = self.shared.cfg.session_ttl else {
            return;
        };
        let mut map = self.datasets.lock().unwrap();
        let before = map.len();
        map.retain(|_, entry| {
            now.duration_since(entry.last_used) < ttl || Arc::strong_count(&entry.dataset) > 1
        });
        let evicted = (before - map.len()) as u64;
        if evicted > 0 {
            self.shared.stats.lock().unwrap().datasets_evicted += evicted;
        }
    }

    /// Number of datasets currently resident in the registry.
    pub fn resident_datasets(&self) -> usize {
        self.datasets.lock().unwrap().len()
    }

    /// A snapshot of the service counters (cache counters included).
    pub fn stats(&self) -> ServiceStats {
        let mut stats = *self.shared.stats.lock().unwrap();
        stats.cache = self.shared.cache.lock().unwrap().counters();
        stats
    }

    /// Counts a request the daemon's connection window refused before
    /// it reached this shard: submitted here and answered `response`,
    /// so `answered()` still meets `submitted`.
    pub(crate) fn count_refusal(&self, response: &FrameResponse) {
        let mut stats = self.shared.stats.lock().unwrap();
        stats.submitted += 1;
        stats.count(response);
    }

    /// Currently queued (admitted, not yet running) jobs.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().unwrap().jobs.len()
    }

    /// Stops admitting work, drains the queue, joins the workers and
    /// returns the final counters.
    pub fn shutdown(mut self) -> ServiceStats {
        self.close();
        self.stats()
    }

    fn close(&mut self) {
        // Close admission and drain still-queued jobs in one critical
        // section: every drained waiter is answered with a typed
        // `Rejected{Shutdown}` instead of being left blocked on a
        // channel whose sender just vanished.
        let drained: Vec<Job> = {
            let mut q = self.shared.queue.lock().unwrap();
            q.open = false;
            self.shared.ready.notify_all();
            q.jobs.drain(..).collect()
        };
        let waiters = drained.into_iter().flat_map(|job| job.waiters);
        answer(&self.shared, waiters.map(|w| (w.tx, REFUSED_AT_SHUTDOWN)));
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for FrameService {
    fn drop(&mut self) {
        self.close();
    }
}

impl SessionHandle {
    /// The configuration this session was opened with.
    pub fn base(&self) -> &ExperimentConfig {
        &self.base
    }

    /// Submits a frame request; the receiver yields exactly one
    /// [`FrameResponse`]. Cache hits and admission rejections are
    /// answered before this returns; everything else is answered by the
    /// worker pool.
    ///
    /// Panics if `config` leaves the session's dataset or volume
    /// dimensions (open another session for that).
    pub fn request(&self, config: ExperimentConfig) -> mpsc::Receiver<FrameResponse> {
        assert_eq!(
            config.dataset, self.base.dataset,
            "request must stay on the session's dataset"
        );
        assert_eq!(
            config.resolved_dims(),
            self.base.resolved_dims(),
            "request must keep the session's volume dimensions"
        );
        let submitted = Instant::now();
        let key = frame_key(&config);
        let (tx, rx) = mpsc::channel();
        let shared = &self.shared;
        shared.stats.lock().unwrap().submitted += 1;

        // Fast path: an identical frame is already cached.
        if shared.cfg.cache_frames > 0 {
            if let Some(frame) = shared.cache.lock().unwrap().get(key) {
                let reply = FrameReply {
                    frame,
                    source: ServeSource::Cache,
                    wait_seconds: submitted.elapsed().as_secs_f64(),
                };
                answer(shared, [(tx, FrameResponse::Frame(reply))]);
                return rx;
            }
        }

        let mut q = shared.queue.lock().unwrap();
        if !q.open {
            // Shutting down: refuse new work with the typed reason.
            answer(shared, [(tx, REFUSED_AT_SHUTDOWN)]);
            return rx;
        }
        match admit(
            &q.jobs,
            self.id,
            shared.cfg.queue_depth,
            shared.cfg.coalesce,
        ) {
            Admission::Coalesce(idx) => {
                // Latest wins: re-aim the queued job at the newest
                // camera; everyone already waiting is superseded and
                // will be answered from the fresh result.
                let job = &mut q.jobs[idx];
                job.config = config;
                job.key = key;
                job.deadline = shared.cfg.deadline.map(|d| submitted + d);
                for w in &mut job.waiters {
                    w.superseded = true;
                }
                job.waiters.push(Waiter {
                    tx,
                    submitted,
                    superseded: false,
                });
            }
            Admission::Reject => {
                let queue_depth = q.jobs.len();
                answer(shared, [(tx, FrameResponse::Overloaded { queue_depth })]);
            }
            Admission::Enqueue => {
                q.jobs.push_back(Job {
                    session: self.id,
                    config,
                    key,
                    dataset: Arc::clone(&self.dataset),
                    deadline: shared.cfg.deadline.map(|d| submitted + d),
                    waiters: vec![Waiter {
                        tx,
                        submitted,
                        superseded: false,
                    }],
                });
                let depth = q.jobs.len();
                let mut stats = shared.stats.lock().unwrap();
                stats.peak_queue_depth = stats.peak_queue_depth.max(depth);
                drop(stats);
                self.shared.ready.notify_one();
            }
        }
        rx
    }

    /// Submits and waits for the single response.
    pub fn request_blocking(&self, config: ExperimentConfig) -> FrameResponse {
        self.request(config)
            .recv()
            .expect("service answered before dropping the channel")
    }
}

/// One completed render attempt: no rank failed and nothing panicked.
struct Attempt {
    image: Image,
    record: FrameRecord,
    /// `Some((psnr_db, coverage))` when faults degraded the frame.
    degraded: Option<(f64, f64)>,
}

/// Renders one attempt through the exact batch path. A rank's typed
/// failure (a receive timeout, a malformed payload) comes back in the
/// outcome as `(message, is_transient)`; a real panic is caught too, so
/// a crash can never kill the worker.
fn run_attempt(
    cfg: &ExperimentConfig,
    dataset: &Arc<Dataset>,
    pool: &RenderPool,
) -> Result<Attempt, (String, bool)> {
    let dataset = Arc::clone(dataset);
    let cfg = *cfg;
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let exp = Experiment::prepare_with_dataset_pool(&cfg, dataset, Some(pool));
        let out = exp
            .run(cfg.method)
            .into_result()
            .map_err(|error| (error.to_string(), error.is_transient()))?;
        // The reference is rendered only to score a degraded frame.
        let degraded = out
            .is_degraded()
            .then(|| (out.psnr_vs(&exp.reference()), out.coverage));
        Ok(Attempt {
            record: out.record(),
            image: out.image,
            degraded,
        })
    }))
    .unwrap_or_else(|payload| Err((describe_panic(&*payload), false)))
}

/// The message of a caught panic. A panic is structural: retrying an
/// unknown crash is not safe.
fn describe_panic(payload: &(dyn std::any::Any + Send)) -> String {
    match payload.downcast_ref::<String>() {
        Some(s) => s.clone(),
        None => payload
            .downcast_ref::<&str>()
            .unwrap_or(&"unknown panic")
            .to_string(),
    }
}

/// How a job left the retry loop.
enum JobOutcome {
    /// A servable frame; `degraded` carries `(psnr_db, coverage)` when
    /// it was rendered under faults with holes.
    Served {
        frame: Arc<RenderedFrame>,
        degraded: Option<(f64, f64)>,
    },
    /// Out of attempts (or structurally failed): answer `Rejected`.
    Rejected { attempts: u32, reason: RejectReason },
}

/// The per-job retry loop: attempt, classify, re-salt, repeat. Bounded by
/// [`ServeConfig::max_retries`] and by the job's deadline: no attempt
/// starts after it.
fn render_with_retries(shared: &Shared, job: &Job, pool: &RenderPool) -> JobOutcome {
    let mut attempt: u32 = 0;
    let mut best_psnr = f64::NEG_INFINITY;
    loop {
        if attempt > 0 {
            shared.stats.lock().unwrap().frame_retries += 1;
        }
        // Attempt 0 runs the exactly-original config (the bit-identity
        // guarantee); later attempts re-draw transient fault decisions.
        let cfg = job.config.with_attempt_salt(attempt);
        let attempts_spent = attempt + 1;
        let result = run_attempt(&cfg, &job.dataset, pool);
        // Whether another attempt may start: within the retry budget and
        // not past the job's deadline.
        let attempts_left =
            attempt < shared.cfg.max_retries && job.deadline.is_none_or(|d| Instant::now() <= d);
        match result {
            Ok(att) => {
                shared.stats.lock().unwrap().rendered_frames += 1;
                let degraded = att.degraded;
                let frame = move || {
                    Arc::new(RenderedFrame {
                        key: job.key,
                        image_hash: fnv1a(&att.image),
                        image: att.image,
                        record: att.record,
                    })
                };
                match degraded {
                    None => {
                        return JobOutcome::Served {
                            frame: frame(),
                            degraded: None,
                        }
                    }
                    Some((psnr_db, coverage)) => {
                        best_psnr = best_psnr.max(psnr_db);
                        match shared.cfg.degraded.decide(psnr_db, attempts_left) {
                            DegradedDecision::Serve => {
                                return JobOutcome::Served {
                                    frame: frame(),
                                    degraded: Some((psnr_db, coverage)),
                                }
                            }
                            DegradedDecision::Reject => {
                                return JobOutcome::Rejected {
                                    attempts: attempts_spent,
                                    reason: RejectReason::QualityFloor {
                                        best_psnr_db: best_psnr,
                                    },
                                }
                            }
                            DegradedDecision::Retry => {}
                        }
                    }
                }
            }
            Err((error, transient)) => {
                shared.stats.lock().unwrap().failed_attempts += 1;
                if !(transient && attempts_left) {
                    return JobOutcome::Rejected {
                        attempts: attempts_spent,
                        reason: RejectReason::Failed { error },
                    };
                }
            }
        }
        attempt += 1;
    }
}

fn worker_loop(shared: &Shared) {
    // Each worker renders every frame on one pool of the configured
    // width; all of a frame's ranks share its board. A panic inside a
    // render thread re-raises typed on this thread and is caught by
    // `run_attempt`.
    let pool = RenderPool::new(shared.cfg.render_threads);
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if !q.open {
                    return;
                }
                q = shared.ready.wait(q).unwrap();
            }
        };

        let now = Instant::now();
        // Deadline shedding: a stale interactive frame is worthless, so
        // answer `Shed` instead of burning a worker on it.
        if job.deadline.is_some_and(|d| now > d) {
            let shed = job.waiters.into_iter().map(|w| {
                let waited_seconds = w.submitted.elapsed().as_secs_f64();
                (w.tx, FrameResponse::Shed { waited_seconds })
            });
            answer(shared, shed);
            continue;
        }

        // Second cache probe: an identical frame may have been rendered
        // (by another worker or session) while this job sat queued.
        if shared.cfg.cache_frames > 0 {
            if let Some(frame) = shared.cache.lock().unwrap().get(job.key) {
                let waiters = job.waiters.into_iter();
                answer(
                    shared,
                    waiters.map(|w| frame_for(w, &frame, ServeSource::Cache)),
                );
                continue;
            }
        }

        // Render through the exact batch path (`prepare_with_dataset` on
        // the session's resident dataset plus `Experiment::run`) under
        // the retry loop — the determinism guarantee is that attempt 0
        // is the very same code and config the one-shot experiment runs.
        match render_with_retries(shared, &job, &pool) {
            JobOutcome::Served { frame, degraded } => {
                // Degraded frames are never cached: a later identical
                // request deserves a fresh shot at a clean frame.
                if shared.cfg.cache_frames > 0 && degraded.is_none() {
                    shared
                        .cache
                        .lock()
                        .unwrap()
                        .insert(job.key, Arc::clone(&frame));
                }
                let served = job.waiters.into_iter().map(|w| {
                    let source = match degraded {
                        Some((psnr_db, coverage)) => ServeSource::Degraded { psnr_db, coverage },
                        None if w.superseded => ServeSource::Coalesced,
                        None => ServeSource::Fresh,
                    };
                    frame_for(w, &frame, source)
                });
                answer(shared, served);
            }
            JobOutcome::Rejected { attempts, reason } => {
                let rejected = job.waiters.into_iter().map(|w| {
                    let reason = reason.clone();
                    (w.tx, FrameResponse::Rejected { attempts, reason })
                });
                answer(shared, rejected);
            }
        }
    }
}

/// Answers requests: counts each response under the one disposition
/// it names ([`ServiceStats::count`]), all under one lock, then sends
/// them. Every answer the service gives goes through here, so the
/// counters partition exactly what was sent, and a waiter that holds its
/// answer finds every answer of its job already counted.
fn answer(
    shared: &Shared,
    answers: impl IntoIterator<Item = (mpsc::Sender<FrameResponse>, FrameResponse)>,
) {
    let answers: Vec<_> = answers.into_iter().collect();
    let mut stats = shared.stats.lock().unwrap();
    for (_, response) in &answers {
        stats.count(response);
    }
    drop(stats);
    for (tx, response) in answers {
        let _ = tx.send(response);
    }
}

/// `w`'s answer: `frame` from `source`, timed from its submission.
fn frame_for(
    w: Waiter,
    frame: &Arc<RenderedFrame>,
    source: ServeSource,
) -> (mpsc::Sender<FrameResponse>, FrameResponse) {
    let reply = FrameReply {
        frame: Arc::clone(frame),
        source,
        wait_seconds: w.submitted.elapsed().as_secs_f64(),
    };
    (w.tx, FrameResponse::Frame(reply))
}

/// The answer to a request the closing service will not render.
const REFUSED_AT_SHUTDOWN: FrameResponse = FrameResponse::Rejected {
    attempts: 0,
    reason: RejectReason::Shutdown,
};

#[cfg(test)]
mod tests {
    use super::*;
    use slsvr_core::Method;

    fn small() -> ExperimentConfig {
        ExperimentConfig::small_test(DatasetKind::Cube, 2, Method::Bsbrc)
    }

    fn frame(resp: FrameResponse) -> FrameReply {
        match resp {
            FrameResponse::Frame(reply) => reply,
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn serves_a_frame_and_counts_it() {
        let service = FrameService::start(ServeConfig {
            workers: 1,
            ..Default::default()
        });
        let session = service.open_session(small());
        let reply = frame(session.request_blocking(small()));
        assert_eq!(reply.source, ServeSource::Fresh);
        assert!(reply.frame.image.non_blank_count() > 0);
        assert!(reply.frame.record.t_total_ms > 0.0);
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed_fresh, 1);
        assert_eq!(stats.rendered_frames, 1);
        assert_eq!(stats.answered(), 1);
    }

    #[test]
    fn repeated_view_hits_the_cache() {
        let service = FrameService::start(ServeConfig {
            workers: 1,
            ..Default::default()
        });
        let session = service.open_session(small());
        let a = frame(session.request_blocking(small()));
        let b = frame(session.request_blocking(small()));
        assert_eq!(b.source, ServeSource::Cache);
        assert_eq!(a.frame.image_hash, b.frame.image_hash);
        let stats = service.shutdown();
        assert_eq!(stats.rendered_frames, 1, "second request must not render");
        assert_eq!(stats.completed_cached, 1);
    }

    #[test]
    fn cache_disabled_renders_every_request() {
        let service = FrameService::start(ServeConfig {
            workers: 1,
            cache_frames: 0,
            coalesce: false,
            ..Default::default()
        });
        let session = service.open_session(small());
        let a = frame(session.request_blocking(small()));
        let b = frame(session.request_blocking(small()));
        assert_eq!(
            a.frame.image_hash, b.frame.image_hash,
            "still deterministic"
        );
        assert_eq!(b.source, ServeSource::Fresh);
        let stats = service.shutdown();
        assert_eq!(stats.rendered_frames, 2);
    }

    #[test]
    fn camera_burst_coalesces_to_the_newest_frame() {
        // The worker starts only after the whole burst is queued, so
        // the five camera moves must collapse into one job aimed at the
        // newest pose — whatever the host's scheduling.
        let cfg = ServeConfig {
            workers: 1,
            cache_frames: 0,
            ..Default::default()
        };
        let mut service = FrameService::paused(cfg);
        let session = service.open_session(small());
        let view = |rot_y_deg: f32| ExperimentConfig {
            rot_x_deg: 20.0,
            rot_y_deg,
            ..small()
        };
        let burst: Vec<_> = (0..5)
            .map(|i| session.request(view(30.0 + i as f32 * 3.0)))
            .collect();
        assert_eq!(service.queue_depth(), 1, "one session, one queued job");
        service.spawn_workers();
        let replies: Vec<FrameReply> = burst
            .into_iter()
            .map(|rx| frame(rx.recv().unwrap()))
            .collect();
        // The newest pose on its own (cache off: a separate render).
        let newest = frame(session.request(view(42.0)).recv().unwrap());
        let stats = service.shutdown();
        assert_eq!(stats.completed(), 6);
        // The burst rendered once (plus the standalone newest pose).
        assert_eq!(stats.rendered_frames, 2);
        assert_eq!(stats.completed_coalesced, 4);
        // Superseded waiters and the last submitter all got the newest
        // pose's frame.
        let (last, superseded) = replies.split_last().unwrap();
        assert_eq!(last.source, ServeSource::Fresh);
        assert_eq!(last.frame.image_hash, newest.frame.image_hash);
        for r in superseded {
            assert_eq!(r.source, ServeSource::Coalesced);
            assert_eq!(r.frame.image_hash, last.frame.image_hash);
        }
    }

    #[test]
    fn full_queue_answers_overloaded_not_oom() {
        // Depth 1, no coalescing (distinct sessions), one worker: the
        // third+ concurrent request must be rejected explicitly.
        let service = FrameService::start(ServeConfig {
            workers: 1,
            queue_depth: 1,
            cache_frames: 0,
            coalesce: false,
            ..Default::default()
        });
        let sessions: Vec<_> = (0..6).map(|_| service.open_session(small())).collect();
        let pending: Vec<_> = sessions.iter().map(|s| s.request(small())).collect();
        let mut overloaded = 0;
        let mut served = 0;
        for rx in pending {
            match rx.recv().unwrap() {
                FrameResponse::Overloaded { queue_depth } => {
                    overloaded += 1;
                    assert!(queue_depth <= 1);
                }
                FrameResponse::Frame(_) => served += 1,
                FrameResponse::Shed { .. } | FrameResponse::Rejected { .. } => {}
            }
        }
        let stats = service.shutdown();
        assert!(overloaded > 0, "admission control must reject some");
        assert!(served > 0, "admitted work must still complete");
        assert_eq!(stats.rejected_overload, overloaded);
        assert!(stats.peak_queue_depth <= 1);
        assert_eq!(stats.answered(), 6);
    }

    #[test]
    fn expired_deadline_sheds_instead_of_rendering() {
        let service = FrameService::start(ServeConfig {
            workers: 1,
            cache_frames: 0,
            coalesce: false,
            deadline: Some(Duration::ZERO),
            ..Default::default()
        });
        let session = service.open_session(small());
        // A zero deadline is always exceeded by the time a worker pops
        // the job.
        let rx = session.request(small());
        match rx.recv().unwrap() {
            FrameResponse::Shed { waited_seconds } => assert!(waited_seconds >= 0.0),
            other => panic!("expected Shed, got {other:?}"),
        }
        let stats = service.shutdown();
        assert_eq!(stats.shed_deadline, 1);
        assert_eq!(stats.rendered_frames, 0);
    }

    #[test]
    fn sessions_share_one_resident_dataset() {
        let service = FrameService::start(ServeConfig::default());
        let a = service.open_session(small());
        let b = service.open_session(small());
        assert!(Arc::ptr_eq(&a.dataset, &b.dataset));
        assert_ne!(a.id, b.id);
        let mut other = small();
        other.dataset = DatasetKind::Head;
        let c = service.open_session(other);
        assert!(!Arc::ptr_eq(&a.dataset, &c.dataset));
    }

    #[test]
    fn requests_after_shutdown_are_refused() {
        let service = FrameService::start(ServeConfig::default());
        let session = service.open_session(small());
        let shared = Arc::clone(&session.shared);
        drop(service); // joins workers, closes the queue
        assert!(!shared.queue.lock().unwrap().open);
        match session.request_blocking(small()) {
            FrameResponse::Rejected {
                attempts: 0,
                reason: RejectReason::Shutdown,
            } => {}
            other => panic!("expected Rejected{{Shutdown}} after shutdown, got {other:?}"),
        }
        assert_eq!(shared.stats.lock().unwrap().rejected_shutdown, 1);
    }

    #[test]
    fn shutdown_drains_queued_waiters_with_typed_rejection() {
        // Stack several jobs from distinct sessions behind one worker,
        // then shut down immediately — any job still queued when
        // `close` runs must answer its waiters with `Rejected{Shutdown}`
        // rather than leaving them blocked on a dead channel.
        let service = FrameService::start(ServeConfig {
            workers: 1,
            queue_depth: 16,
            cache_frames: 0,
            coalesce: false,
            ..Default::default()
        });
        let sessions: Vec<_> = (0..4).map(|_| service.open_session(small())).collect();
        let pending: Vec<_> = sessions.iter().map(|s| s.request(small())).collect();
        let stats = service.shutdown();
        // Every waiter resolves: served before the close, or drained
        // with the typed shutdown rejection — never a hung channel.
        for rx in pending {
            match rx.recv().expect("every waiter must be answered") {
                FrameResponse::Frame(_) => {}
                FrameResponse::Rejected {
                    attempts: 0,
                    reason: RejectReason::Shutdown,
                } => {}
                other => panic!("expected Frame or Rejected{{Shutdown}}, got {other:?}"),
            }
        }
        assert_eq!(stats.answered(), stats.submitted);
    }

    #[test]
    fn idle_sessions_evict_after_ttl_with_counters() {
        let ttl = Duration::from_secs(3600);
        let service = FrameService::start(ServeConfig {
            workers: 1,
            session_ttl: Some(ttl),
            ..Default::default()
        });
        let session = service.open_session(small());
        assert_eq!(service.resident_datasets(), 1);

        // While a session holds the dataset, even a long-idle entry
        // survives (eviction must not invalidate live work).
        service.evict_idle_at(Instant::now() + ttl * 2);
        assert_eq!(service.resident_datasets(), 1);

        // Before the TTL, an unreferenced entry stays resident…
        drop(session);
        service.evict_idle_at(Instant::now());
        assert_eq!(service.resident_datasets(), 1);
        // …past the TTL it goes, and the counter records it.
        service.evict_idle_at(Instant::now() + ttl * 2);
        assert_eq!(service.resident_datasets(), 0);
        assert_eq!(service.stats().datasets_evicted, 1);

        // Re-opening after eviction rebuilds transparently.
        let again = service.open_session(small());
        assert_eq!(service.resident_datasets(), 1);
        drop(again);
        let stats = service.shutdown();
        assert_eq!(stats.datasets_evicted, 1);
    }

    #[test]
    fn no_ttl_means_datasets_stay_resident() {
        let service = FrameService::start(ServeConfig {
            workers: 1,
            session_ttl: None,
            ..Default::default()
        });
        drop(service.open_session(small()));
        service.evict_idle_at(Instant::now() + Duration::from_secs(1 << 20));
        assert_eq!(service.resident_datasets(), 1);
        assert_eq!(service.stats().datasets_evicted, 0);
    }

    #[test]
    fn render_thread_budget_is_resolved_once_at_start() {
        let service = FrameService::paused(ServeConfig::default());
        let threads = service.shared.cfg.render_threads;
        assert!((1..=8).contains(&threads), "auto resolved to {threads}");
        // The auto width is the host's, not a share of it per worker.
        assert_eq!(threads, vr_system::resolve_threads(0));
    }

    #[test]
    fn a_panic_payload_reads_as_its_message() {
        assert_eq!(describe_panic(&"plain panic"), "plain panic");
        assert_eq!(describe_panic(&String::from("boom")), "boom");
        assert_eq!(describe_panic(&7u32), "unknown panic");
    }
}
