//! # vr-serve — the concurrent frame-serving layer
//!
//! Turns the one-shot batch runtime (`vr-system`) into a long-lived,
//! multi-session frame service — the interactive-exploration scenario
//! the paper motivates ("users interactively explore the volume data in
//! real time"), grown into a serving architecture:
//!
//! * **Session manager** — [`FrameService::open_session`] keeps one
//!   [`Dataset`](vr_volume::Dataset) (and its lazily built, `Arc`-cached
//!   macrocell grids) resident per `(dataset, dims)` across frames and
//!   sessions, instead of rebuilding the simulator per request.
//! * **Admission control** — a bounded queue ([`ServeConfig::queue_depth`]):
//!   beyond capacity requests get an explicit
//!   [`FrameResponse::Overloaded`], never unbounded memory. Queued jobs
//!   whose [`deadline`](ServeConfig::deadline) expires are shed.
//! * **Request coalescing** — a burst of camera moves from one session
//!   collapses to the newest frame ("latest wins"); superseded requests
//!   are answered from the fresh result ([`ServeSource::Coalesced`]).
//! * **LRU frame cache** — keyed by a digest of the *complete*
//!   experiment configuration ([`cache::frame_key`]); repeated views are
//!   served without re-rendering, with hit/miss/evict counters.
//! * **Worker pool** — [`ServeConfig::workers`] std threads drain the
//!   queue; each renders through the exact batch path
//!   (`Experiment::prepare_with_dataset` + `Experiment::run`), so a
//!   served frame is **bit-identical** to the same config run as a
//!   one-shot experiment.
//!
//! The service is also **self-healing** — faults injected anywhere in
//! the stack produce explicit, bounded, policy-controlled outcomes:
//!
//! * **The request is the frame's only settings** — a seeded fault plan,
//!   reliable delivery and the receive deadline are request fields
//!   (`ExperimentConfig::faults` / `reliable` / `recv_deadline`, all
//!   on the wire); the service adds none of its own, so a frame renders
//!   under exactly the config its key digests, and a request's failures
//!   are its own — no other request is refused for them.
//! * **Bounded retries** — a rank's typed failure is a value in the
//!   frame's outcome (`Outcome::failures`); transient ones (receive
//!   timeouts, malformed payloads) retry up to
//!   [`ServeConfig::max_retries`] times, never past the job's deadline;
//!   each retry re-salts the fault and schedule seeds so it re-draws the
//!   faults instead of replaying them.
//! * **Degraded-frame policy** — a degraded frame (a dead rank, a missing
//!   piece, or a partner lost to a dead rank or closed link) is scored
//!   by PSNR against the fault-free reference composite and served
//!   tagged [`ServeSource::Degraded`], retried, or rejected per the
//!   configured floor ([`DegradedFramePolicy`]).
//! * **Panic safety** — a run that really panics is caught
//!   (`catch_unwind`) and never retried; its waiters get an explicit
//!   [`FrameResponse::Rejected`] and the worker survives.
//! * **Session lifecycle** — resident datasets idle past
//!   [`ServeConfig::session_ttl`] are evicted (never while referenced).
//!
//! And it has a **network edge** — the service scales horizontally
//! behind a real socket front door:
//!
//! * **Wire protocol** — [`wire`] defines a versioned, magic-prefixed
//!   handshake and CRC-framed request/response/stats codecs over the
//!   shared [`vr_comm::frame`] codec; malformed, truncated, or
//!   oversized input decodes to typed errors, never panics.
//! * **Daemon** — [`Daemon`] accepts TCP connections (thread per
//!   connection, bounded budget with a typed busy refusal) and applies
//!   a per-connection in-flight window before the shard queues see a
//!   request; shutdown drains in-flight work to
//!   [`service::RejectReason::Shutdown`].
//! * **Shard router** — [`ShardRouter`] hashes `(dataset, dims)` across
//!   N independent [`FrameService`] shards, each with its own queue,
//!   cache, and workers, and reports per-shard stats plus a
//!   load-imbalance metric.
//! * **Client** — [`Client`] pipelines requests over one connection and
//!   hash-verifies every transported frame; [`run_load`] drives the
//!   open-loop load generator through it, one connection per session.
//!   It is `slsvr serve`'s one driver, against a running daemon or a
//!   one-shard loopback daemon sized by [`LoadConfig::daemon_config`].
//!
//! Concurrency is std threads + channels + mutex/condvar, matching the
//! workspace's existing style (no async runtime).
//!
//! ```no_run
//! use vr_serve::{FrameService, FrameResponse, ServeConfig};
//! use vr_system::ExperimentConfig;
//!
//! let service = FrameService::start(ServeConfig::default());
//! let session = service.open_session(ExperimentConfig::default());
//! match session.request_blocking(*session.base()) {
//!     FrameResponse::Frame(reply) => {
//!         println!("frame in {:.1} ms ({:?})", reply.wait_seconds * 1e3, reply.source);
//!         println!("T_total {:.2} ms", reply.frame.record.t_total_ms);
//!     }
//!     FrameResponse::Overloaded { queue_depth } => eprintln!("busy ({queue_depth} queued)"),
//!     FrameResponse::Shed { .. } => eprintln!("deadline missed"),
//!     FrameResponse::Rejected { attempts, reason } => {
//!         eprintln!("rejected after {attempts} attempts: {reason:?}")
//!     }
//! }
//! ```

pub mod cache;
pub mod client;
pub mod loadgen;
pub mod metrics;
pub mod policy;
mod queue;
pub mod server;
pub mod service;
pub mod shard;
pub mod wire;

pub use cache::{frame_key, CacheCounters, LruCache};
pub use client::{Client, ClientError, ClientReceiver, ClientSender};
pub use loadgen::{run_load, LoadConfig, LoadReport};
pub use metrics::ServiceStats;
pub use policy::{DegradedDecision, DegradedFramePolicy};
pub use server::{Daemon, DaemonConfig};
pub use service::{
    FrameReply, FrameResponse, FrameService, RejectReason, RenderedFrame, ServeConfig, ServeSource,
    SessionHandle,
};
pub use shard::ShardRouter;
pub use wire::{StatsReply, Welcome, WireFrame, WireResponse, WIRE_VERSION};
