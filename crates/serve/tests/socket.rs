//! The network edge's contract, over real loopback sockets:
//!
//! * a frame served through the daemon is **bit-identical** to the
//!   same config served by an in-process `FrameService` (and to the
//!   batch run, transitively — see `serve_matches_batch.rs`);
//! * every submitted request is answered exactly once, even through a
//!   daemon shutdown (zero leaked waiters);
//! * protocol violations — version skew, garbage bytes, truncated
//!   frames, hostile length prefixes, well-formed requests naming
//!   hostile values — produce typed errors or clean closes, never
//!   hangs, and never take the daemon (or one of its shards) down for
//!   other connections.

use std::io::Write;
use std::net::TcpStream;

use slsvr_core::Method;
use vr_comm::frame::{write_frame, StreamError};
use vr_image::checksum::fnv1a;
use vr_serve::wire::{self, MAX_WIRE_FRAME};
use vr_serve::{
    run_load, Client, ClientError, Daemon, DaemonConfig, FrameResponse, FrameService, LoadConfig,
    ServeConfig, ServiceStats, WireResponse,
};
use vr_system::ExperimentConfig;
use vr_volume::DatasetKind;

fn base() -> ExperimentConfig {
    ExperimentConfig::small_test(DatasetKind::Cube, 2, Method::Bsbrc)
}

fn quiet_serve() -> ServeConfig {
    ServeConfig {
        workers: 1,
        render_threads: 1,
        ..Default::default()
    }
}

fn start_daemon(cfg: DaemonConfig) -> Daemon {
    Daemon::start("127.0.0.1:0", cfg).expect("bind loopback")
}

fn expect_frame(resp: WireResponse) -> vr_serve::WireFrame {
    match resp {
        WireResponse::Frame(frame) => frame,
        other => panic!("expected a frame, got {other:?}"),
    }
}

#[test]
fn socket_served_frame_is_bit_identical_to_in_process() {
    let config = base();
    let daemon = start_daemon(DaemonConfig {
        serve: quiet_serve(),
        ..Default::default()
    });
    let mut client = Client::connect(daemon.local_addr()).expect("connect");
    let over_the_wire = expect_frame(client.request_blocking(&config).expect("request"));

    let service = FrameService::start(quiet_serve());
    let session = service.open_session(config);
    let in_process = match session.request_blocking(config) {
        FrameResponse::Frame(reply) => reply,
        other => panic!("expected a frame, got {other:?}"),
    };
    service.shutdown();

    // Same server-side hash, and the transported pixels really carry
    // those bits.
    assert_eq!(over_the_wire.image_hash, in_process.frame.image_hash);
    assert_eq!(fnv1a(&over_the_wire.image), over_the_wire.image_hash);
    // Modeled metrics are deterministic and must survive the wire;
    // render_max is measured wall-clock and legitimately differs between
    // the two runs.
    let modeled = |r: vr_system::FrameRecord| vr_system::FrameRecord {
        render_max_ms: 0.0,
        ..r
    };
    assert_eq!(
        modeled(over_the_wire.record),
        modeled(in_process.frame.record),
        "modeled per-frame metrics must survive the wire"
    );
    daemon.shutdown();
}

#[test]
fn socket_load_answers_everything_and_verifies_hashes() {
    let daemon = start_daemon(DaemonConfig {
        shards: 2,
        serve: quiet_serve(),
        ..Default::default()
    });
    let load = LoadConfig {
        sessions: 2,
        requests_per_session: 6,
        poses: 3,
        inter_arrival: std::time::Duration::from_millis(1),
        seed: 9,
    };
    // Two bases with distinct dims spread sessions across both shards.
    let mut spread = base();
    let dims = spread.resolved_dims();
    spread.volume_dims = Some([dims[0], dims[1], dims[2] + 1]);
    let (report, stats) =
        run_load(daemon.local_addr(), &[base(), spread], &load).expect("socket load");

    assert_eq!(report.replies.submitted, 12);
    assert_eq!(
        report.replies.answered(),
        12,
        "every request answered exactly once: {report:?}"
    );
    // The load generator is the daemon's only client, so both sides
    // count the same answers under the same dispositions.
    let dispositions = |s: &ServiceStats| {
        [
            s.submitted,
            s.completed_fresh,
            s.completed_cached,
            s.completed_coalesced,
            s.completed_degraded,
            s.shed_deadline,
            s.rejected_overload,
            s.rejected_failed,
            s.rejected_shutdown,
        ]
    };
    assert_eq!(
        dispositions(&report.replies),
        dispositions(&report.service),
        "client and daemon disagree: {report:?}"
    );
    assert_eq!(
        report.hash_mismatches, 0,
        "transported frames must be bit-exact"
    );
    assert_eq!(stats.shards.len(), 2);
    assert!(
        stats.shards.iter().all(|s| s.submitted > 0),
        "both shards saw traffic: {stats:?}"
    );

    let final_stats = daemon.shutdown();
    assert_eq!(
        final_stats.submitted,
        final_stats.answered(),
        "zero leaked waiters: {final_stats:?}"
    );
}

#[test]
fn version_mismatch_gets_a_typed_refusal() {
    let daemon = start_daemon(DaemonConfig {
        serve: quiet_serve(),
        ..Default::default()
    });
    let mut stream = TcpStream::connect(daemon.local_addr()).expect("connect");
    // A HELLO claiming a future protocol version.
    let mut payload = Vec::new();
    payload.extend_from_slice(&wire::MAGIC);
    payload.extend_from_slice(&99u16.to_le_bytes());
    write_frame(&mut stream, wire::KIND_HELLO, 0, &payload).expect("send hello");
    let frame = vr_comm::frame::read_frame(&mut stream, MAX_WIRE_FRAME).expect("read refusal");
    assert_eq!(frame.kind, wire::KIND_ERROR);
    let info = wire::decode_error(&frame.payload).expect("typed error");
    assert_eq!(info.code, wire::ERR_VERSION);
    assert_eq!(info.version, wire::WIRE_VERSION);
    daemon.shutdown();
}

#[test]
fn connection_budget_refuses_with_typed_busy_error() {
    let daemon = start_daemon(DaemonConfig {
        max_conns: 1,
        serve: quiet_serve(),
        ..Default::default()
    });
    let _held = Client::connect(daemon.local_addr()).expect("first connection fits");
    // Budget exhausted: the handshake must fail typed, not hang.
    match Client::connect(daemon.local_addr()) {
        Err(ClientError::Busy { .. }) => {}
        other => panic!("expected a typed busy refusal, got {other:?}"),
    }
    assert_eq!(daemon.refused_busy(), 1);
    daemon.shutdown();
}

#[test]
fn garbage_and_truncation_do_not_take_the_daemon_down() {
    let daemon = start_daemon(DaemonConfig {
        serve: quiet_serve(),
        ..Default::default()
    });
    let addr = daemon.local_addr();

    // Raw garbage instead of a handshake.
    let mut garbage = TcpStream::connect(addr).expect("connect");
    garbage.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write");
    drop(garbage);

    // A frame that stops mid-payload.
    let mut truncated = TcpStream::connect(addr).expect("connect");
    let full = {
        let mut buf = Vec::new();
        write_frame(&mut buf, wire::KIND_HELLO, 0, &wire::encode_hello()).unwrap();
        buf
    };
    truncated.write_all(&full[..full.len() - 3]).expect("write");
    drop(truncated);

    // A hostile length prefix claiming a 4 GiB frame: the daemon must
    // reject it before allocating, not buffer it.
    let mut hostile = TcpStream::connect(addr).expect("connect");
    hostile.write_all(&u32::MAX.to_le_bytes()).expect("write");
    drop(hostile);

    // A handshaken connection that then sends a frame with a bad CRC:
    // the daemon drops that connection, nothing more.
    let mut half_good = TcpStream::connect(addr).expect("connect");
    write_frame(&mut half_good, wire::KIND_HELLO, 0, &wire::encode_hello()).expect("hello");
    let welcome = vr_comm::frame::read_frame(&mut half_good, MAX_WIRE_FRAME).expect("welcome");
    assert_eq!(welcome.kind, wire::KIND_WELCOME);
    let mut corrupt = Vec::new();
    write_frame(&mut corrupt, wire::KIND_REQUEST, 1, b"corrupt-me").unwrap();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xFF;
    half_good.write_all(&corrupt).expect("write corrupt frame");
    drop(half_good);

    let config = base();

    // After all of that, a well-behaved client still gets served.
    let mut client = Client::connect(addr).expect("daemon still accepting");
    let frame = expect_frame(client.request_blocking(&config).expect("still serving"));
    assert_eq!(fnv1a(&frame.image), frame.image_hash);
    daemon.shutdown();
}

#[test]
fn hostile_request_values_do_not_take_the_shard_down() {
    // Each request is well-formed and CRC-valid; only a value is hostile.
    // None may reach `FrameService::open_session`: it builds the volume
    // while holding the shard's dataset map, so a panic there (2^63
    // voxels: `capacity overflow`) poisons the lock for every later
    // client of that shard.
    // The last is legal field by field: 512 ranks, each with a 2047²
    // subimage, 34 GB that a worker would abort allocating.
    let hostile: [fn(&mut ExperimentConfig); 6] = [
        |c| c.volume_dims = Some([1 << 21; 3]),
        |c| c.image_size = 0,
        |c| c.processors = 0,
        |c| c.step = 0.0,
        |c| c.rot_x_deg = f32::NAN,
        |c| (c.image_size, c.processors) = (2047, 512),
    ];
    let daemon = start_daemon(DaemonConfig {
        serve: quiet_serve(),
        ..Default::default()
    });
    for edit in hostile {
        let mut config = base();
        edit(&mut config);
        let mut client = Client::connect(daemon.local_addr()).expect("connect");
        // A closed connection or a typed refusal — never pixels.
        match client.request_blocking(&config) {
            Err(_) | Ok(WireResponse::Rejected { .. }) => {}
            Ok(other) => panic!("{config:?} was answered with {other:?}"),
        }
    }

    // One shard, so this honest client lands where the hostile ones did.
    let mut client = Client::connect(daemon.local_addr()).expect("daemon still accepting");
    let frame = expect_frame(client.request_blocking(&base()).expect("still serving"));
    assert_eq!(fnv1a(&frame.image), frame.image_hash);
    let stats = client.stats().expect("stats still answer");
    assert_eq!(stats.shards.len(), 1);
    assert_eq!(
        stats.shards[0].submitted, 1,
        "no hostile request reached the shard: {stats:?}"
    );
    let final_stats = daemon.shutdown();
    assert_eq!(final_stats.submitted, final_stats.answered());
}

#[test]
fn oversized_reply_prefix_is_typed_on_the_client_too() {
    // A fake "server" that sends a hostile length prefix after a valid
    // welcome-less read: the client's framing layer must fail typed.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut peer, _) = listener.accept().expect("accept");
        // Swallow the HELLO, then claim an absurd frame.
        let _ = vr_comm::frame::read_frame(&mut peer, MAX_WIRE_FRAME);
        peer.write_all(&u32::MAX.to_le_bytes()).expect("write");
        peer.flush().expect("flush");
        // Hold the socket open so the client fails on the prefix, not
        // on EOF.
        std::thread::sleep(std::time::Duration::from_millis(200));
    });
    match Client::connect(addr) {
        Err(ClientError::Stream(StreamError::Oversized { len, max })) => {
            assert_eq!(len, u32::MAX);
            assert_eq!(max, MAX_WIRE_FRAME);
        }
        other => panic!("expected a typed oversized error, got {other:?}"),
    }
    server.join().expect("fake server");
}

#[test]
fn shutdown_drains_in_flight_socket_requests() {
    // One worker and a deep window: queue several renders, shut the
    // daemon down mid-flight, and require every request to come back
    // answered — a frame or a typed shutdown rejection, never a hang
    // (the runtime bounds the test; a leak would block recv forever).
    let daemon = start_daemon(DaemonConfig {
        window: 8,
        serve: quiet_serve(),
        ..Default::default()
    });
    let config = base();
    let client = Client::connect(daemon.local_addr()).expect("connect");
    let (mut tx, mut rx) = client.into_split().expect("split");
    let mut pending = Vec::new();
    for i in 0..4 {
        let mut c = config;
        c.rot_y_deg += i as f32; // distinct frames so nothing coalesces away
        pending.push(tx.submit(&c).expect("submit"));
    }
    let collector = std::thread::spawn(move || {
        let mut outcomes = Vec::new();
        for _ in 0..4 {
            match rx.recv_response() {
                Ok((id, resp)) => outcomes.push((id, resp)),
                // The daemon may close the connection after draining;
                // anything already answered counts.
                Err(_) => break,
            }
        }
        outcomes
    });
    let stats = daemon.shutdown();
    let outcomes = collector.join().expect("collector");
    assert_eq!(
        stats.submitted,
        stats.answered(),
        "every admitted request answered: {stats:?}"
    );
    for (id, resp) in &outcomes {
        assert!(pending.contains(id), "unknown response id {id}");
        match resp {
            WireResponse::Frame(_)
            | WireResponse::Rejected { .. }
            | WireResponse::Overloaded { .. }
            | WireResponse::Shed { .. } => {}
        }
    }
}
