//! The network front door: a TCP daemon exposing the shard router
//! over the wire protocol of [`crate::wire`].
//!
//! Architecture (std threads, no async runtime, matching the rest of
//! the workspace):
//!
//! * **Acceptor** — one thread owns the listener. Each accepted
//!   connection gets its own handler thread, bounded by
//!   [`DaemonConfig::max_conns`]; beyond the budget the acceptor
//!   answers a typed [`wire::ERR_BUSY`] frame and closes, so overload
//!   at the edge is explicit, never a silent hang.
//! * **Per-connection demux** — the handler speaks the versioned
//!   handshake, then demuxes pipelined requests into per-(dataset,
//!   dims) sessions on the owning shard. Responses are correlated by
//!   the client-chosen request id and may return out of order.
//! * **Backpressure** — at most [`DaemonConfig::window`] requests are
//!   in flight per connection; excess requests are answered
//!   `Overloaded` immediately without touching a shard queue, and
//!   counted as submitted and `rejected_overload` on the shard that
//!   owns their `(dataset, dims)`. Once
//!   admitted, a request the shard answers on the spot (cache hit or
//!   admission reject) is not counted in flight: the connection thread
//!   encodes it itself; only a queued request gets a forwarder thread. (The window check runs first, so such a request
//!   is still shed while `window` renders are in flight.) All
//!   writes funnel through one writer thread behind a *bounded*
//!   channel: a client that stops reading stalls its own connection
//!   (TCP pushback) instead of growing server memory.
//! * **Shutdown** — [`Daemon::shutdown`] stops the acceptor, joins
//!   every connection, and drains the shards; queued waiters get typed
//!   `Rejected{Shutdown}` answers (see `FrameService::close`).

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use vr_comm::frame::{read_frame, write_frame, Frame, StreamError};
use vr_volume::DatasetKind;

use crate::metrics::ServiceStats;
use crate::service::{FrameResponse, ServeConfig};
use crate::shard::ShardRouter;
use crate::wire::{self, StatsReply, Welcome, MAX_WIRE_FRAME, WIRE_VERSION};

/// How often a blocked connection read wakes to check the shutdown
/// flag.
const TICK: Duration = Duration::from_millis(100);
/// Once a frame has started arriving, how long the rest may take.
const FRAME_DEADLINE: Duration = Duration::from_secs(10);

/// Daemon knobs; every field maps to a `slsvr daemon` flag.
#[derive(Clone, Copy, Debug)]
pub struct DaemonConfig {
    /// Independent `FrameService` shards behind the router.
    pub shards: usize,
    /// Concurrent connections accepted; beyond this the acceptor
    /// refuses with a typed busy error.
    pub max_conns: usize,
    /// Per-connection in-flight request window; excess requests are
    /// answered `Overloaded` without queueing.
    pub window: usize,
    /// Per-shard service configuration.
    pub serve: ServeConfig,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            shards: 1,
            max_conns: 64,
            window: 8,
            serve: ServeConfig::default(),
        }
    }
}

struct DaemonState {
    shutting_down: AtomicBool,
    active_conns: AtomicUsize,
    accepted: AtomicU64,
    refused_busy: AtomicU64,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

/// A running daemon: listener, acceptor thread and shard router.
pub struct Daemon {
    /// `Some` until [`Daemon::shutdown`] takes the router out to drain it.
    router: Option<Arc<ShardRouter>>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    state: Arc<DaemonState>,
}

impl Daemon {
    /// Binds `listen` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the acceptor and the shard router.
    pub fn start(listen: impl ToSocketAddrs, cfg: DaemonConfig) -> io::Result<Daemon> {
        assert!(cfg.shards >= 1, "need at least one shard");
        assert!(cfg.window >= 1, "window must admit at least one request");
        assert!(cfg.max_conns >= 1, "must accept at least one connection");
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let router = Arc::new(ShardRouter::start(cfg.serve, cfg.shards));
        let state = Arc::new(DaemonState {
            shutting_down: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            refused_busy: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let router = Arc::clone(&router);
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("vr-serve-acceptor".to_string())
                .spawn(move || accept_loop(listener, router, state, cfg))
                .expect("spawn acceptor")
        };
        Ok(Daemon {
            router: Some(router),
            addr,
            acceptor: Some(acceptor),
            state,
        })
    }

    /// The bound address (resolves `:0` to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The router behind the front door (stats and tests).
    pub fn router(&self) -> &ShardRouter {
        self.router
            .as_ref()
            .expect("router is only taken by shutdown, which consumes the daemon")
    }

    /// Connections refused over the budget so far.
    pub fn refused_busy(&self) -> u64 {
        self.state.refused_busy.load(Ordering::Relaxed)
    }

    /// Connections accepted so far.
    pub fn accepted(&self) -> u64 {
        self.state.accepted.load(Ordering::Relaxed)
    }

    fn close(&mut self) {
        self.state.shutting_down.store(true, Ordering::SeqCst);
        // The acceptor blocks in `accept`; a throwaway connection wakes
        // it so it can observe the flag and exit.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *self.state.conns.lock().unwrap());
        for h in conns {
            let _ = h.join();
        }
    }

    /// Stops accepting, joins every connection, shuts the shards down
    /// (draining queued waiters with typed answers) and returns the
    /// merged counters.
    pub fn shutdown(mut self) -> ServiceStats {
        self.close();
        let router = self
            .router
            .take()
            .expect("router is only taken here, and shutdown runs once");
        match Arc::try_unwrap(router) {
            Ok(router) => router.shutdown(),
            // A handler thread outlived the join (should not happen);
            // fall back to a snapshot — services still drain on Drop.
            Err(router) => router.stats(),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.close();
    }
}

fn accept_loop(
    listener: TcpListener,
    router: Arc<ShardRouter>,
    state: Arc<DaemonState>,
    cfg: DaemonConfig,
) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if state.shutting_down.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if state.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        if state.active_conns.load(Ordering::SeqCst) >= cfg.max_conns {
            state.refused_busy.fetch_add(1, Ordering::Relaxed);
            refuse_busy(stream, cfg.max_conns);
            continue;
        }
        state.active_conns.fetch_add(1, Ordering::SeqCst);
        state.accepted.fetch_add(1, Ordering::Relaxed);
        let router = Arc::clone(&router);
        let conn_state = Arc::clone(&state);
        let handle = std::thread::Builder::new()
            .name("vr-serve-conn".to_string())
            .spawn(move || {
                handle_conn(stream, &router, &conn_state, &cfg);
                conn_state.active_conns.fetch_sub(1, Ordering::SeqCst);
            })
            .expect("spawn connection handler");
        let mut conns = state.conns.lock().unwrap();
        // Prune finished handlers so the vec tracks live connections,
        // not connection history.
        conns.retain(|h| !h.is_finished());
        conns.push(handle);
    }
}

/// Best-effort typed refusal for an over-budget connection. Drains the
/// client's (unread) HELLO after signalling EOF: closing with unread
/// inbound data would RST the socket and can destroy the error frame
/// before the client reads it.
fn refuse_busy(mut stream: TcpStream, max_conns: usize) {
    let payload = wire::encode_error(&wire::ErrorInfo {
        code: wire::ERR_BUSY,
        version: WIRE_VERSION,
        message: format!("connection budget ({max_conns}) exhausted"),
    });
    let _ = write_frame(&mut stream, wire::KIND_ERROR, 0, &payload);
    let _ = stream.flush();
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut sink = [0u8; 256];
    use std::io::Read as _;
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

/// Reads one frame, waking every [`TICK`] to check the shutdown flag.
/// `Ok(None)` means the daemon is shutting down. The tick only governs
/// the *gap between frames*: once the first byte of a frame has
/// arrived, the whole frame gets [`FRAME_DEADLINE`] — a mid-frame
/// timeout would desynchronize the stream, so it closes the
/// connection instead.
fn read_frame_or_shutdown(
    stream: &mut TcpStream,
    state: &DaemonState,
) -> Result<Option<Frame>, StreamError> {
    loop {
        if state.shutting_down.load(Ordering::SeqCst) {
            return Ok(None);
        }
        stream
            .set_read_timeout(Some(TICK))
            .map_err(StreamError::Io)?;
        let mut probe = [0u8; 1];
        match stream.peek(&mut probe) {
            Ok(0) => return Err(StreamError::Closed),
            Ok(_) => {
                stream
                    .set_read_timeout(Some(FRAME_DEADLINE))
                    .map_err(StreamError::Io)?;
                return read_frame(stream, MAX_WIRE_FRAME).map(Some);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => return Err(StreamError::Io(e)),
        }
    }
}

/// What the writer thread sends: an already-encoded payload plus its
/// frame kind.
struct Outgoing {
    kind: u8,
    payload: Vec<u8>,
}

impl Outgoing {
    fn response(id: u64, resp: &FrameResponse) -> Outgoing {
        Outgoing {
            kind: wire::KIND_RESPONSE,
            payload: wire::encode_response(id, resp),
        }
    }
}

fn handle_conn(
    mut stream: TcpStream,
    router: &Arc<ShardRouter>,
    state: &Arc<DaemonState>,
    cfg: &DaemonConfig,
) {
    let _ = stream.set_nodelay(true);

    // Handshake: HELLO in, WELCOME (or a typed refusal) out.
    let hello = match read_frame_or_shutdown(&mut stream, state) {
        Ok(Some(frame)) if frame.kind == wire::KIND_HELLO => {
            match wire::decode_hello(&frame.payload) {
                Ok(hello) => hello,
                Err(_) => return, // not our protocol; close
            }
        }
        _ => return,
    };
    if hello.version != WIRE_VERSION {
        let payload = wire::encode_error(&wire::ErrorInfo {
            code: wire::ERR_VERSION,
            version: WIRE_VERSION,
            message: format!(
                "server speaks wire version {WIRE_VERSION}, client sent {}",
                hello.version
            ),
        });
        let _ = write_frame(&mut stream, wire::KIND_ERROR, 0, &payload);
        return;
    }
    let welcome = Welcome {
        version: WIRE_VERSION,
        shards: router.shard_count() as u16,
        window: cfg.window as u32,
    };
    if write_frame(
        &mut stream,
        wire::KIND_WELCOME,
        0,
        &wire::encode_welcome(&welcome),
    )
    .is_err()
    {
        return;
    }

    // One writer thread owns the write half; every producer (request
    // forwarders, the demux loop itself) goes through this *bounded*
    // channel, so a non-reading client exerts backpressure instead of
    // growing buffers.
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (out_tx, out_rx) = mpsc::sync_channel::<Outgoing>(cfg.window * 2 + 4);
    let writer = std::thread::Builder::new()
        .name("vr-serve-conn-writer".to_string())
        .spawn(move || writer_loop(writer_stream, out_rx))
        .expect("spawn connection writer");

    // Demux loop state: lazily opened sessions per (dataset, dims) and
    // the in-flight window.
    let mut sessions: HashMap<(DatasetKind, [usize; 3]), crate::service::SessionHandle> =
        HashMap::new();
    let in_flight = Arc::new(AtomicUsize::new(0));
    let mut forwarders: Vec<JoinHandle<()>> = Vec::new();

    // Read frames until shutdown, clean EOF, or a stream error
    // (truncated frame, CRC mismatch, oversized prefix). In-flight
    // requests still get their responses written before the writer
    // closes.
    while let Ok(Some(frame)) = read_frame_or_shutdown(&mut stream, state) {
        match frame.kind {
            wire::KIND_REQUEST => {
                let (id, config) = match wire::decode_request(&frame.payload) {
                    Ok(parsed) => parsed,
                    // The frame passed its CRC, so this is a version
                    // skew or a hostile payload — bytes that do not
                    // parse, or values outside the bounds of the
                    // request table — not line noise; the stream itself
                    // is still in sync. Drop the connection deliberately,
                    // before a session, a volume or a worker sees it.
                    Err(_) => break,
                };
                let key = (config.dataset, config.resolved_dims());
                // Per-connection window: admission control before the
                // shard queue ever sees the request. The refusal is
                // counted on the shard that owns the key, with no session
                // opened and no dataset built.
                if in_flight.load(Ordering::SeqCst) >= cfg.window {
                    let resp = FrameResponse::Overloaded {
                        queue_depth: in_flight.load(Ordering::SeqCst),
                    };
                    router
                        .shard(router.shard_for(key.0, key.1))
                        .count_refusal(&resp);
                    if out_tx.send(Outgoing::response(id, &resp)).is_err() {
                        break;
                    }
                    continue;
                }
                let session = sessions
                    .entry(key)
                    .or_insert_with(|| router.open_session(config));
                let rx = session.request(config);
                // Cache hits and admission rejections are answered
                // before `request` returns: encode them on this thread
                // and never count them in flight. Only a request the
                // shard will answer later gets a forwarder.
                if let Ok(resp) = rx.try_recv() {
                    if out_tx.send(Outgoing::response(id, &resp)).is_err() {
                        break;
                    }
                    continue;
                }
                in_flight.fetch_add(1, Ordering::SeqCst);
                // Forward the (single) response when the shard answers;
                // at most `window` forwarders are alive per connection.
                let out_tx = out_tx.clone();
                let in_flight = Arc::clone(&in_flight);
                forwarders.retain(|h| !h.is_finished());
                let forwarder = std::thread::Builder::new()
                    .name("vr-serve-conn-fwd".to_string())
                    .spawn(move || {
                        let resp = rx.recv().unwrap_or(FrameResponse::Rejected {
                            attempts: 0,
                            reason: crate::service::RejectReason::Shutdown,
                        });
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                        let _ = out_tx.send(Outgoing::response(id, &resp));
                    })
                    .expect("spawn response forwarder");
                forwarders.push(forwarder);
            }
            wire::KIND_STATS => {
                let reply = StatsReply {
                    shards: router.shard_stats(),
                    imbalance: router.imbalance(),
                };
                if out_tx
                    .send(Outgoing {
                        kind: wire::KIND_STATS_REPLY,
                        payload: wire::encode_stats_reply(&reply),
                    })
                    .is_err()
                {
                    break;
                }
            }
            // Unknown kinds on an established connection: protocol
            // skew — close rather than guess.
            _ => break,
        }
    }

    // Drain: wait for in-flight responses, then let the writer flush
    // and exit (it stops when every sender is gone).
    for h in forwarders {
        let _ = h.join();
    }
    drop(out_tx);
    let _ = writer.join();
}

fn writer_loop(mut stream: TcpStream, rx: mpsc::Receiver<Outgoing>) {
    let mut seq: u32 = 0;
    while let Ok(msg) = rx.recv() {
        if write_frame(&mut stream, msg.kind, seq, &msg.payload).is_err() {
            // The peer is gone; keep draining so senders never block
            // forever on a dead connection.
            for _ in rx.iter() {}
            return;
        }
        seq = seq.wrapping_add(1);
    }
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use slsvr_core::Method;
    use vr_system::ExperimentConfig;

    use super::*;
    use crate::client::Client;
    use crate::service::ServeSource;
    use crate::wire::WireResponse;

    #[test]
    fn pipelined_cache_hits_never_trip_the_window() {
        // A hit is answered inside `SessionHandle::request`, so it must
        // never occupy a window slot: 3 × window of them pipelined on
        // one connection all come back as frames, in order.
        let window = 4;
        let daemon = Daemon::start(
            "127.0.0.1:0",
            DaemonConfig {
                window,
                serve: ServeConfig {
                    workers: 1,
                    render_threads: 1,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .expect("bind loopback");
        let config = ExperimentConfig::small_test(DatasetKind::Cube, 2, Method::Bsbrc);
        let mut client = Client::connect(daemon.local_addr()).expect("connect");
        let WireResponse::Frame(rendered) = client.request_blocking(&config).expect("prime") else {
            panic!("priming request must render a frame");
        };

        let ids: Vec<u64> = (0..3 * window)
            .map(|_| client.submit(&config).expect("submit"))
            .collect();
        for want in ids {
            let (id, resp) = client.recv_response().expect("response");
            assert_eq!(id, want, "inline answers keep submission order");
            match resp {
                WireResponse::Frame(frame) => {
                    assert_eq!(frame.source, ServeSource::Cache);
                    assert_eq!(frame.image_hash, rendered.image_hash);
                }
                other => panic!("cache hit answered {other:?}"),
            }
        }
        let stats = daemon.shutdown();
        assert_eq!(stats.completed_cached, 3 * window as u64);
        assert_eq!(stats.rendered_frames, 1);
    }

    /// Every request the connection window refuses shows in the
    /// daemon's own counters: the client's `Overloaded` answers are the
    /// shards' `rejected_overload`, and the daemon answered exactly the
    /// responses the client read.
    #[test]
    fn window_refusals_are_counted_on_the_owning_shard() {
        let daemon = Daemon::start(
            "127.0.0.1:0",
            DaemonConfig {
                shards: 2,
                window: 1,
                serve: ServeConfig {
                    workers: 1,
                    render_threads: 1,
                    cache_frames: 0,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .expect("bind loopback");
        let base = ExperimentConfig::small_test(DatasetKind::Head, 4, Method::Bsbrc);
        let mut client = Client::connect(daemon.local_addr()).expect("connect");
        // Distinct poses, pipelined: one renders while the window
        // refuses the ones behind it.
        let requests = 8;
        for pose in 0..requests {
            let config = ExperimentConfig {
                rot_y_deg: 10.0 * pose as f32,
                ..base
            };
            client.submit(&config).expect("submit");
        }
        let mut overloaded = 0;
        for _ in 0..requests {
            let (_, resp) = client.recv_response().expect("response");
            if matches!(resp, WireResponse::Overloaded { .. }) {
                overloaded += 1;
            }
        }
        assert!(overloaded > 0, "a window of one refused nothing");
        let per_shard = daemon.router().shard_stats();
        let owner = daemon
            .router()
            .shard_for(base.dataset, base.resolved_dims());
        assert_eq!(per_shard[owner].submitted, requests);
        assert_eq!(per_shard[1 - owner].submitted, 0);
        let stats = daemon.shutdown();
        assert_eq!(stats.rejected_overload, overloaded);
        assert_eq!(stats.submitted, requests);
        assert_eq!(stats.answered(), requests);
    }
}
