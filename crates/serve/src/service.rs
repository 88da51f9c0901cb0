//! The frame service: resident sessions, a bounded work queue, and a
//! std-thread worker pool in front of the `vr-system` runtime.
//!
//! PR 6 makes the serving path *self-healing*: per-request fault
//! injection plumbed from [`ServeConfig`], a retry-with-backoff loop for
//! transient failures, a PSNR-floor policy for degraded frames, a
//! per-(dataset, dims) circuit breaker, worker-pool panic safety and
//! idle-TTL eviction of resident datasets. Every submitted request still
//! resolves to exactly one explicit [`FrameResponse`].

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use slsvr_core::CompositeError;
use vr_comm::{FaultConfig, ReliabilityConfig};
use vr_image::checksum::fnv1a;
use vr_image::Image;
use vr_system::{Experiment, ExperimentConfig, FrameRecord, RenderPool};
use vr_volume::{Dataset, DatasetKind};

use crate::cache::{frame_key, LruCache};
use crate::health::{BreakerConfig, BreakerDecision, CircuitBreaker};
use crate::metrics::ServiceStats;
use crate::policy::{DegradedDecision, DegradedFramePolicy, RetryPolicy};
use crate::queue::{admit, Admission, Job, Waiter};

/// Serving knobs. Defaults suit an interactive small-frame workload;
/// every field maps to a `slsvr serve` flag.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads rendering frames concurrently (the pool's
    /// concurrency limit; each worker still fans out one render thread
    /// per simulated rank).
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
    /// Service-level fault campaign injected into every request that
    /// does not carry its own `faults` (`None` = healthy network). The
    /// chaos-harness entry point.
    pub faults: Option<FaultConfig>,
    /// Service-level reliable-delivery policy applied to requests whose
    /// own reliability is disabled (`None` = leave requests as-is).
    pub reliability: Option<ReliabilityConfig>,
    /// Service-level receive deadline for requests that don't set one
    /// (`None` = the transport default).
    pub recv_deadline: Option<Duration>,
    /// Retry-with-backoff policy for failed or below-floor frame
    /// attempts.
    pub retry: RetryPolicy,
    /// What to do with degraded (hole-punched) frames.
    pub degraded: DegradedFramePolicy,
    /// Per-(dataset, dims) consecutive-failure circuit breaker
    /// (`failure_threshold == 0` disables health tracking).
    pub breaker: BreakerConfig,
    /// Evict a resident dataset once no session holds it and it has
    /// been idle this long (`None` = datasets stay resident forever).
    pub session_ttl: Option<Duration>,
    /// Intra-rank render threads *per worker* (the banded tile
    /// scheduler): each worker owns a persistent render pool of this
    /// size, reused across frames, so the service's total render
    /// threads are bounded by `workers × render_threads`. `0` (the
    /// default) means auto — the host's cores divided across the
    /// workers, clamped to `1..=8`, resolved at service start (one read
    /// of the host's parallelism sizes both the pools and every frame's
    /// config). Bit-identical at every value; this is a resource knob,
    /// so the service value overrides per-request configs.
    pub render_threads: usize,
    /// Ray-sample lanes in the render inner loop (1 = scalar reference;
    /// bit-identical at any width). Overrides per-request configs like
    /// `render_threads`.
    pub simd_lanes: usize,
}

impl ServeConfig {
    /// The per-worker render-thread count this config resolves to (see
    /// [`ServeConfig::render_threads`]).
    pub fn resolved_render_threads(&self) -> usize {
        vr_system::resolve_threads(self.render_threads, self.workers)
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
            faults: None,
            reliability: None,
            recv_deadline: None,
            retry: RetryPolicy::default(),
            degraded: DegradedFramePolicy::default(),
            breaker: BreakerConfig::default(),
            session_ttl: None,
            render_threads: 0,
            simd_lanes: 4,
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
    /// Per-frame metrics: phase timers, traffic maxima, memory
    /// watermark (see [`FrameRecord`]).
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
    /// Rendered under faults with holes from dead ranks, served because
    /// its quality cleared [`DegradedFramePolicy::psnr_floor_db`].
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
    /// Every attempt crashed (receive timeout, reliable-delivery budget
    /// exhausted, worker panic); the last error is reported.
    Failed {
        /// Human-readable description of the final failure.
        error: String,
    },
    /// Attempts completed but every frame scored below the PSNR floor.
    QualityFloor {
        /// The best PSNR (dB) any attempt achieved.
        best_psnr_db: f64,
    },
    /// The (dataset, dims) circuit breaker is open: shed without
    /// rendering.
    CircuitOpen,
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
    /// below the quality floor, or the circuit breaker is open.
    Rejected {
        /// Render attempts spent before giving up (0 for breaker sheds).
        attempts: u32,
        /// Why the request could not be served.
        reason: RejectReason,
    },
}

struct QueueState {
    jobs: VecDeque<Job>,
    open: bool,
}

/// Health-tracker key: one breaker per dataset build.
type HealthKey = (DatasetKind, [usize; 3]);

struct Shared {
    /// The config the service was started with, `render_threads` already
    /// resolved.
    cfg: ServeConfig,
    queue: Mutex<QueueState>,
    ready: Condvar,
    cache: Mutex<LruCache<Arc<RenderedFrame>>>,
    stats: Mutex<ServiceStats>,
    breakers: Mutex<HashMap<HealthKey, CircuitBreaker>>,
}

/// One resident dataset plus its idle-eviction bookkeeping.
struct Resident {
    dataset: Arc<Dataset>,
    /// Last time a session was opened on this entry.
    last_used: Instant,
}

/// Registry of resident datasets, keyed by kind and voxel dimensions so
/// every session on the same data shares one build.
type DatasetRegistry = HashMap<HealthKey, Resident>;

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
            breakers: Mutex::new(HashMap::new()),
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
        let mut refused = 0u64;
        for job in drained {
            for w in job.waiters {
                refused += 1;
                let _ = w.tx.send(FrameResponse::Rejected {
                    attempts: 0,
                    reason: RejectReason::Shutdown,
                });
            }
        }
        if refused > 0 {
            self.shared.stats.lock().unwrap().rejected_shutdown += refused;
        }
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
    /// [`FrameResponse`]. Cache hits, breaker sheds and admission
    /// rejections are answered before this returns; everything else is
    /// answered by the worker pool.
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
                shared.stats.lock().unwrap().completed_cached += 1;
                let _ = tx.send(FrameResponse::Frame(FrameReply {
                    frame,
                    source: ServeSource::Cache,
                    wait_seconds: submitted.elapsed().as_secs_f64(),
                }));
                return rx;
            }
        }

        // Health gate: an open breaker sheds before the queue, so a
        // poisoned dataset costs an admission check instead of a render.
        if !shared.cfg.breaker.disabled() {
            let hkey = (config.dataset, config.resolved_dims());
            let mut breakers = shared.breakers.lock().unwrap();
            let breaker = breakers
                .entry(hkey)
                .or_insert_with(|| CircuitBreaker::new(shared.cfg.breaker));
            if breaker.admit(submitted) == BreakerDecision::Shed {
                drop(breakers);
                shared.stats.lock().unwrap().rejected_circuit += 1;
                let _ = tx.send(FrameResponse::Rejected {
                    attempts: 0,
                    reason: RejectReason::CircuitOpen,
                });
                return rx;
            }
            // Allow and Probe both proceed; the probe's outcome is
            // reported back to the breaker by the worker.
        }

        let mut q = shared.queue.lock().unwrap();
        if !q.open {
            // Shutting down: refuse new work with the typed reason.
            shared.stats.lock().unwrap().rejected_shutdown += 1;
            let _ = tx.send(FrameResponse::Rejected {
                attempts: 0,
                reason: RejectReason::Shutdown,
            });
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
                let depth = q.jobs.len();
                shared.stats.lock().unwrap().rejected_overload += 1;
                let _ = tx.send(FrameResponse::Overloaded { queue_depth: depth });
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

    /// Convenience: request the session's base config at new camera
    /// angles (the interactive camera-move path).
    pub fn request_view(&self, rot_x_deg: f32, rot_y_deg: f32) -> mpsc::Receiver<FrameResponse> {
        self.request(ExperimentConfig {
            rot_x_deg,
            rot_y_deg,
            ..self.base
        })
    }
}

/// The request config with the service-level robustness knobs folded in:
/// per-request settings win; service-level faults / reliability /
/// receive deadline fill the gaps. Render *resource* knobs are the one
/// exception: the service owns its thread budget (total render threads
/// = workers × render_threads), so `render_threads`/`simd_lanes` are
/// always taken from the service config (`serve` is [`Shared::cfg`],
/// whose thread count is resolved) — safe because both are bit-identical
/// to the scalar reference and never change the frame.
fn effective_config(req: &ExperimentConfig, serve: &ServeConfig) -> ExperimentConfig {
    let mut cfg = *req;
    if cfg.faults.is_none() {
        cfg.faults = serve.faults;
    }
    if let Some(rel) = serve.reliability {
        if !cfg.reliability.enabled {
            cfg.reliability = rel;
        }
    }
    if cfg.recv_deadline.is_none() {
        cfg.recv_deadline = serve.recv_deadline;
    }
    cfg.render_threads = serve.render_threads;
    cfg.simd_lanes = serve.simd_lanes;
    cfg
}

/// One completed (non-panicked) render attempt.
struct Attempt {
    image: Image,
    record: FrameRecord,
    /// `Some((psnr_db, coverage))` when faults degraded the frame.
    degraded: Option<(f64, f64)>,
}

/// Renders one attempt through the exact batch path, catching panics
/// from the distributed run (receive timeouts, reliable-delivery budget
/// exhaustion) so a fault storm can never kill the worker.
fn run_attempt(
    cfg: &ExperimentConfig,
    dataset: &Arc<Dataset>,
    pool: &RenderPool,
) -> Result<Attempt, (String, bool)> {
    let dataset = Arc::clone(dataset);
    let cfg = *cfg;
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let exp = Experiment::prepare_with_dataset_pool(&cfg, dataset, Some(pool));
        let out = exp.run(cfg.method);
        // The reference is rendered only to score a degraded frame.
        let degraded = out
            .is_degraded()
            .then(|| (out.psnr_vs(&exp.reference()), out.coverage));
        Attempt {
            record: FrameRecord::from_outcome(&out),
            image: out.image,
            degraded,
        }
    }))
    .map_err(describe_panic)
}

/// Turns a caught panic payload into `(message, is_transient)`.
/// `Experiment::run` panics with the typed `CompositeError`, which
/// classifies itself; anything else (plain `panic!`) is treated as
/// structural — retrying an unknown crash is not safe.
fn describe_panic(payload: Box<dyn Any + Send>) -> (String, bool) {
    match payload.downcast::<CompositeError>() {
        Ok(e) => (e.to_string(), e.is_transient()),
        Err(payload) => match payload.downcast::<String>() {
            Ok(s) => (*s, false),
            Err(payload) => match payload.downcast::<&'static str>() {
                Ok(s) => ((*s).to_string(), false),
                Err(_) => ("unknown panic".to_string(), false),
            },
        },
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

/// The per-job retry loop: attempt, classify, back off, re-salt, repeat.
/// Bounded by `retry.max_retries` and by the job's deadline — the loop
/// never sleeps past it.
fn render_with_retries(shared: &Shared, job: &Job, pool: &RenderPool) -> JobOutcome {
    let retry = &shared.cfg.retry;
    let base = effective_config(&job.config, &shared.cfg);
    let mut attempt: u32 = 0;
    let mut best_psnr = f64::NEG_INFINITY;
    loop {
        if attempt > 0 {
            shared.stats.lock().unwrap().frame_retries += 1;
        }
        // Attempt 0 runs the exactly-original config (the bit-identity
        // guarantee); later attempts re-draw transient fault decisions.
        let cfg = base.with_attempt_salt(attempt);
        let attempts_spent = attempt + 1;
        // Whether another attempt is even possible: within the retry
        // budget and its backoff would not overshoot the deadline.
        let next_delay = retry.backoff_delay(attempt + 1, job.key);
        let attempts_left = attempt < retry.max_retries
            && job
                .deadline
                .is_none_or(|d| Instant::now() + next_delay <= d);
        match run_attempt(&cfg, &job.dataset, pool) {
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
                shared.stats.lock().unwrap().panics_caught += 1;
                if !(transient && attempts_left) {
                    return JobOutcome::Rejected {
                        attempts: attempts_spent,
                        reason: RejectReason::Failed { error },
                    };
                }
            }
        }
        std::thread::sleep(next_delay);
        attempt += 1;
    }
}

/// Reports a job's terminal outcome to its (dataset, dims) breaker.
fn report_health(shared: &Shared, job: &Job, success: bool) {
    if shared.cfg.breaker.disabled() {
        return;
    }
    let hkey = (job.config.dataset, job.config.resolved_dims());
    let mut breakers = shared.breakers.lock().unwrap();
    let breaker = breakers
        .entry(hkey)
        .or_insert_with(|| CircuitBreaker::new(shared.cfg.breaker));
    if success {
        breaker.on_success();
    } else {
        breaker.on_failure(Instant::now());
    }
}

fn worker_loop(shared: &Shared) {
    // Each worker owns one persistent banded-render pool, spawned here
    // and reused across every frame it renders — the service's total
    // render threads stay bounded at workers × render_threads. A panic
    // inside a pool worker re-raises typed on this thread and is caught
    // by `run_attempt`; the pool itself survives and serves the next
    // job.
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
            let mut stats = shared.stats.lock().unwrap();
            stats.shed_deadline += job.waiters.len() as u64;
            drop(stats);
            for w in job.waiters {
                let _ = w.tx.send(FrameResponse::Shed {
                    waited_seconds: w.submitted.elapsed().as_secs_f64(),
                });
            }
            continue;
        }

        // Second cache probe: an identical frame may have been rendered
        // (by another worker or session) while this job sat queued.
        if shared.cfg.cache_frames > 0 {
            if let Some(frame) = shared.cache.lock().unwrap().get(job.key) {
                let mut stats = shared.stats.lock().unwrap();
                stats.completed_cached += job.waiters.len() as u64;
                drop(stats);
                respond_all(job.waiters, &frame, ServeSource::Cache);
                continue;
            }
        }

        // Render through the exact batch path (`prepare_with_dataset` on
        // the session's resident dataset plus `Experiment::run`) under
        // the retry loop — the determinism guarantee is that attempt 0
        // is the very same code and config the one-shot experiment runs.
        match render_with_retries(shared, &job, &pool) {
            JobOutcome::Served { frame, degraded } => {
                report_health(shared, &job, true);
                // Degraded frames are never cached: a later identical
                // request deserves a fresh shot at a clean frame.
                if shared.cfg.cache_frames > 0 && degraded.is_none() {
                    shared
                        .cache
                        .lock()
                        .unwrap()
                        .insert(job.key, Arc::clone(&frame));
                }
                {
                    let mut stats = shared.stats.lock().unwrap();
                    match degraded {
                        Some((psnr_db, _)) => {
                            stats.completed_degraded += job.waiters.len() as u64;
                            stats.min_degraded_psnr_db = stats.min_degraded_psnr_db.min(psnr_db);
                        }
                        None => {
                            for w in &job.waiters {
                                if w.superseded {
                                    stats.completed_coalesced += 1;
                                } else {
                                    stats.completed_fresh += 1;
                                }
                            }
                        }
                    }
                }
                for w in job.waiters {
                    let source = match degraded {
                        Some((psnr_db, coverage)) => ServeSource::Degraded { psnr_db, coverage },
                        None if w.superseded => ServeSource::Coalesced,
                        None => ServeSource::Fresh,
                    };
                    let _ = w.tx.send(FrameResponse::Frame(FrameReply {
                        frame: Arc::clone(&frame),
                        source,
                        wait_seconds: w.submitted.elapsed().as_secs_f64(),
                    }));
                }
            }
            JobOutcome::Rejected { attempts, reason } => {
                report_health(shared, &job, false);
                shared.stats.lock().unwrap().rejected_failed += job.waiters.len() as u64;
                for w in job.waiters {
                    let _ = w.tx.send(FrameResponse::Rejected {
                        attempts,
                        reason: reason.clone(),
                    });
                }
            }
        }
    }
}

fn respond_all(waiters: Vec<Waiter>, frame: &Arc<RenderedFrame>, source: ServeSource) {
    for w in waiters {
        let _ = w.tx.send(FrameResponse::Frame(FrameReply {
            frame: Arc::clone(frame),
            source,
            wait_seconds: w.submitted.elapsed().as_secs_f64(),
        }));
    }
}

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
        let burst: Vec<_> = (0..5)
            .map(|i| session.request_view(20.0, 30.0 + i as f32 * 3.0))
            .collect();
        assert_eq!(service.queue_depth(), 1, "one session, one queued job");
        service.spawn_workers();
        let replies: Vec<FrameReply> = burst
            .into_iter()
            .map(|rx| frame(rx.recv().unwrap()))
            .collect();
        // The newest pose on its own (cache off: a separate render).
        let newest = frame(session.request_view(20.0, 42.0).recv().unwrap());
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
    fn service_level_knobs_fill_request_gaps_but_never_override() {
        let serve = ServeConfig {
            faults: Some(FaultConfig {
                drop: 0.25,
                seed: 9,
                ..Default::default()
            }),
            reliability: Some(ReliabilityConfig::on()),
            recv_deadline: Some(Duration::from_millis(123)),
            ..Default::default()
        };
        // A plain request inherits all three service-level knobs.
        let plain = small();
        let eff = effective_config(&plain, &serve);
        assert_eq!(eff.faults.unwrap().drop, 0.25);
        assert!(eff.reliability.enabled);
        assert_eq!(eff.recv_deadline, Some(Duration::from_millis(123)));
        // A request with its own settings keeps them.
        let mut custom = small();
        custom.faults = Some(FaultConfig {
            drop: 0.5,
            ..Default::default()
        });
        custom.recv_deadline = Some(Duration::from_millis(7));
        let eff = effective_config(&custom, &serve);
        assert_eq!(eff.faults.unwrap().drop, 0.5);
        assert_eq!(eff.recv_deadline, Some(Duration::from_millis(7)));
    }

    #[test]
    fn render_thread_budget_is_resolved_once_at_start() {
        let service = FrameService::paused(ServeConfig::default());
        let threads = service.shared.cfg.render_threads;
        assert!((1..=8).contains(&threads), "auto resolved to {threads}");
        let eff = effective_config(&small(), &service.shared.cfg);
        assert_eq!(eff.render_threads, threads);
    }

    #[test]
    fn panic_payloads_classify_transience() {
        let comm = CompositeError::Comm {
            during: "bs stage",
            source: vr_comm::CommError::Recv(vr_comm::RecvError::Disconnected { from: 1 }),
        };
        let (msg, transient) = describe_panic(Box::new(comm));
        assert!(msg.contains("bs stage"), "{msg}");
        assert!(transient);
        let (msg, transient) = describe_panic(Box::new("plain panic"));
        assert_eq!(msg, "plain panic");
        assert!(!transient);
        let (msg, transient) = describe_panic(Box::new(String::from("boom")));
        assert_eq!(msg, "boom");
        assert!(!transient);
    }
}
