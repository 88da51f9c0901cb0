//! One rank's communication endpoint: the shell around the transport
//! stack.
//!
//! ```text
//! Endpoint   bounds asserts, kill-at-op, TrafficStats, tag check
//!    |
//! reliable   per-peer links: raw passthrough, or stop-and-wait ARQ
//!    |
//! fault      drop / corrupt / duplicate / delay each physical transmission
//!    |
//! transport  { real-time channels | virtual-time network }
//! ```
//!
//! Nothing in this file reads a clock, sleeps or touches a channel:
//! point-to-point calls check their arguments, count one operation
//! against the kill threshold, hand the message to the link layer
//! ([`crate::reliable`]) and account what comes back. Which wire mode
//! runs (raw or reliable), whether a [`FaultPlan`] is in the way and
//! whether time is real or virtual are all decided below.

use std::time::Duration;

use bytes::Bytes;

use crate::cost::CostModel;
use crate::fault::FaultPlan;
use crate::reliable::{Links, ReliabilityConfig};
use crate::stats::TrafficStats;
use crate::transport::Transport;

/// Message tags, used to assert protocol agreement between matched
/// send/receive pairs (like MPI tags, but mismatches are hard errors).
pub type Tag = u32;

/// A message in flight: payload plus its tag.
#[derive(Clone, Debug)]
pub struct Message {
    /// Protocol tag supplied by the sender.
    pub tag: Tag,
    /// Payload bytes (cheaply cloneable).
    pub payload: Bytes,
}

/// Error from a receive operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvError {
    /// No message arrived before the deadline — almost always a protocol
    /// deadlock in the compositing schedule.
    Timeout { from: usize, waited: Duration },
    /// A message arrived with an unexpected tag.
    TagMismatch {
        from: usize,
        expected: Tag,
        got: Tag,
    },
    /// The peer's endpoint was dropped (its rank function returned or
    /// panicked before sending).
    Disconnected { from: usize },
    /// This rank itself was killed by fault injection; the operation was
    /// not performed.
    Killed { rank: usize },
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Timeout { from, waited } => {
                write!(
                    f,
                    "timed out after {waited:?} waiting for a message from rank {from}"
                )
            }
            RecvError::TagMismatch {
                from,
                expected,
                got,
            } => {
                write!(
                    f,
                    "tag mismatch from rank {from}: expected {expected}, got {got}"
                )
            }
            RecvError::Disconnected { from } => {
                write!(f, "rank {from} disconnected before sending")
            }
            RecvError::Killed { rank } => {
                write!(f, "rank {rank} was killed by fault injection")
            }
        }
    }
}

impl std::error::Error for RecvError {}

/// Error from a send operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendError {
    /// The destination rank.
    pub to: usize,
    /// Why the send failed.
    pub kind: SendErrorKind,
}

/// Why a send failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendErrorKind {
    /// The destination's endpoint was dropped (it exited or died), or a
    /// reliable send to it gave up and closed the link.
    Disconnected,
    /// This rank itself was killed by fault injection; nothing was sent.
    Killed,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            SendErrorKind::Disconnected => {
                write!(f, "link to rank {} closed", self.to)
            }
            SendErrorKind::Killed => {
                write!(f, "send to rank {} aborted: this rank was killed", self.to)
            }
        }
    }
}

impl std::error::Error for SendError {}

/// Error from a combined send+receive operation ([`Endpoint::exchange`],
/// the [collectives](crate::collectives)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommError {
    /// The sending half failed.
    Send(SendError),
    /// The receiving half failed.
    Recv(RecvError),
}

impl From<SendError> for CommError {
    fn from(e: SendError) -> Self {
        CommError::Send(e)
    }
}

impl From<RecvError> for CommError {
    fn from(e: RecvError) -> Self {
        CommError::Recv(e)
    }
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Send(e) => e.fmt(f),
            CommError::Recv(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CommError {}

impl CommError {
    /// True when *this* rank was killed by fault injection and must stop
    /// participating.
    pub fn is_self_killed(&self) -> bool {
        matches!(
            self,
            CommError::Send(SendError {
                kind: SendErrorKind::Killed,
                ..
            }) | CommError::Recv(RecvError::Killed { .. })
        )
    }
}

/// Default deadline a blocking receive waits before declaring a deadlock.
pub const DEFAULT_RECV_DEADLINE: Duration = Duration::from_secs(60);

/// Per-endpoint wiring handed over by the group runner.
pub(crate) struct EndpointConfig {
    pub cost: CostModel,
    pub recv_deadline: Duration,
    pub reliability: ReliabilityConfig,
    pub faults: Option<FaultPlan>,
    pub kill_at: Option<u64>,
}

/// A rank's private endpoint into the group.
///
/// Sends are buffered (never block in raw mode); receives are selective
/// by source rank, which matches how every compositing schedule here
/// names its communication partner explicitly.
pub struct Endpoint {
    rank: usize,
    size: usize,
    /// The wire: real-time channels or the virtual-time network. Dropped
    /// with the endpoint, which is how partners learn this rank is gone.
    net: Transport,
    /// Per-peer link state (raw or reliable) and the fault plan.
    links: Links,
    cost: CostModel,
    stats: TrafficStats,
    recv_deadline: Duration,
    /// Application-level operations (sends + receives) completed.
    ops: u64,
    /// Op count at which this rank dies, if the fault plan kills it.
    kill_at: Option<u64>,
    /// Set once the kill threshold is crossed; every further op fails.
    dead: bool,
    /// Set by [`Endpoint::give_up`]; read by the group's linger rule.
    pub(crate) given_up: bool,
}

impl Endpoint {
    pub(crate) fn new(rank: usize, size: usize, net: Transport, config: EndpointConfig) -> Self {
        Endpoint {
            rank,
            size,
            net,
            links: Links::new(rank, size, config.reliability, config.faults, config.cost),
            cost: config.cost,
            stats: TrafficStats::default(),
            recv_deadline: config.recv_deadline,
            ops: 0,
            kill_at: config.kill_at,
            dead: false,
            given_up: false,
        }
    }

    /// This rank's id in `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the group (the paper's `P`).
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Traffic recorded so far by this rank.
    #[inline]
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// True once fault injection has killed this rank: every further
    /// send/receive fails with a `Killed` error.
    #[inline]
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Marks this rank as failed: like a killed or panicking rank, it
    /// closes at once instead of lingering for the group, so a partner
    /// waiting on it sees `Disconnected` now rather than at its deadline.
    pub fn give_up(&mut self) {
        self.given_up = true;
    }

    /// Consumes the endpoint, yielding its final traffic stats.
    pub fn into_stats(self) -> TrafficStats {
        self.stats
    }

    /// Marks this rank's work done. With `linger`, a reliable link layer
    /// then keeps answering retransmissions until the whole group is
    /// done (see [`Links::linger_until_group_done`]).
    pub(crate) fn finish(&mut self, linger: bool) {
        self.net.finish_rank();
        if linger {
            self.links
                .linger_until_group_done(&self.net, &mut self.stats);
        }
    }

    /// Accounts one application-level operation against the kill
    /// threshold. Returns false when the rank is (now) dead.
    fn consume_op(&mut self) -> bool {
        if self.dead {
            return false;
        }
        if let Some(kill_at) = self.kill_at {
            if self.ops >= kill_at {
                self.dead = true;
                return false;
            }
        }
        self.ops += 1;
        true
    }

    /// This rank's transport clock, seconds: wall time since the group
    /// started on real channels, the rank's virtual clock under a
    /// schedule seed. Reading it neither parks the rank nor advances the
    /// clock.
    pub fn now(&self) -> f64 {
        self.net.now()
    }

    /// Sends `payload` to `dst` with `tag`.
    ///
    /// In raw mode this never blocks; in reliable mode it blocks until
    /// the frame is acknowledged (retransmitting on timeout). A send that
    /// gives up — the peer gone, or silent through the whole retry
    /// budget — closes the link and fails with
    /// [`SendErrorKind::Disconnected`]; the peer, once it has taken what
    /// arrived, sees this rank disconnected.
    pub fn send(&mut self, dst: usize, tag: Tag, payload: Bytes) -> Result<(), SendError> {
        assert!(
            dst < self.size,
            "send to rank {dst} out of range (size {})",
            self.size
        );
        if !self.consume_op() {
            return Err(SendError {
                to: dst,
                kind: SendErrorKind::Killed,
            });
        }
        self.stats.on_send(payload.len());
        let msg = Message { tag, payload };
        self.links
            .send(&mut self.net, &mut self.stats, dst, msg)
            .map_err(|kind| SendError { to: dst, kind })
    }

    /// Receives the next message from `src`, requiring `tag`.
    ///
    /// Blocks up to the group's receive deadline, then returns
    /// [`RecvError::Timeout`] so schedule deadlocks surface as test
    /// failures instead of hangs.
    pub fn recv(&mut self, src: usize, tag: Tag) -> Result<Bytes, RecvError> {
        assert!(
            src < self.size,
            "recv from rank {src} out of range (size {})",
            self.size
        );
        if !self.consume_op() {
            return Err(RecvError::Killed { rank: self.rank });
        }
        let msg = self
            .links
            .recv(&self.net, &mut self.stats, src, self.recv_deadline)?;
        self.deliver(src, tag, msg).map(|(payload, _)| payload)
    }

    /// Receives the next message carrying `tag` from *any* rank whose
    /// `await_from` slot is true — the streamed-compositing primitive,
    /// where an owner consumes tile contributions in arrival order
    /// instead of naming one partner.
    ///
    /// Returns the source rank and the modeled seconds the delivery
    /// charged to [`TrafficStats::modeled_comm_seconds`] alongside the
    /// payload: `T_s + bytes · T_c` on a raw link, zero on a reliable
    /// one, whose frames are charged as they land. A caller that must
    /// not depend on arrival order sums these per source. When an
    /// awaited peer disconnects (and its frames are drained), the error
    /// names that peer via [`RecvError::Disconnected`] so the caller can
    /// mark it dead, clear its slot and keep receiving from the others —
    /// a dead producer never hangs the receiver. Messages arriving from
    /// non-awaited sources are buffered and served to later receives.
    pub fn recv_any(
        &mut self,
        await_from: &[bool],
        tag: Tag,
    ) -> Result<(usize, Bytes, f64), RecvError> {
        assert_eq!(
            await_from.len(),
            self.size,
            "await_from must have one slot per rank"
        );
        assert!(
            await_from.iter().any(|&w| w),
            "recv_any needs at least one awaited source"
        );
        if !self.consume_op() {
            return Err(RecvError::Killed { rank: self.rank });
        }
        let (src, msg) = self.links.recv_any(
            &self.net,
            &mut self.stats,
            |src| await_from[src],
            None,
            self.recv_deadline,
        )?;
        let (payload, charged) = self.deliver(src, tag, msg)?;
        Ok((src, payload, charged))
    }

    /// Tag-checks and accounts one application message; returns its
    /// payload and the modeled seconds charged for it.
    fn deliver(&mut self, src: usize, tag: Tag, msg: Message) -> Result<(Bytes, f64), RecvError> {
        if msg.tag != tag {
            return Err(RecvError::TagMismatch {
                from: src,
                expected: tag,
                got: msg.tag,
            });
        }
        // The reliable link layer already charged wire time per physical
        // frame; charge it here only for raw delivery.
        let modeled = if self.links.is_reliable() {
            0.0
        } else {
            self.cost.message_seconds(msg.payload.len())
        };
        self.stats.on_recv(msg.payload.len(), modeled);
        Ok((msg.payload, modeled))
    }

    /// Full-duplex exchange with `peer`: buffered send, then blocking
    /// receive. Deadlock-free for any pairing where both sides call it.
    ///
    /// This is the binary-swap primitive: "each PE sends the half subimage
    /// it keeps to PE'; each PE receives the half subimage from PE'".
    pub fn exchange(&mut self, peer: usize, tag: Tag, payload: Bytes) -> Result<Bytes, CommError> {
        self.send(peer, tag, payload)?;
        Ok(self.recv(peer, tag)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultAction, FaultConfig, KillSpec, StreamClass, TargetedFault};
    use crate::group::{run_group, run_group_with, GroupOptions};
    use crate::reliable::HEADER_LEN;
    use std::time::Instant;

    #[test]
    fn ring_pass() {
        let out = run_group(4, CostModel::free(), |ep| {
            let next = (ep.rank() + 1) % ep.size();
            let prev = (ep.rank() + ep.size() - 1) % ep.size();
            ep.send(next, 7, Bytes::from(vec![ep.rank() as u8]))
                .unwrap();
            let got = ep.recv(prev, 7).unwrap();
            got[0] as usize
        });
        assert_eq!(out.results, vec![3, 0, 1, 2]);
    }

    #[test]
    fn exchange_swaps_payloads() {
        let out = run_group(2, CostModel::free(), |ep| {
            let peer = 1 - ep.rank();
            let got = ep
                .exchange(peer, 0, Bytes::from(vec![ep.rank() as u8; 3]))
                .unwrap();
            got[0]
        });
        assert_eq!(out.results, vec![1, 0]);
    }

    #[test]
    fn tag_mismatch_detected() {
        let out = run_group(2, CostModel::free(), |ep| {
            let peer = 1 - ep.rank();
            ep.send(peer, 1, Bytes::new()).unwrap();
            matches!(ep.recv(peer, 2), Err(RecvError::TagMismatch { .. }))
        });
        assert!(out.results.iter().all(|&ok| ok));
    }

    #[test]
    fn stats_count_bytes_and_model_time() {
        let cost = CostModel {
            t_s: 1e-3,
            t_c: 1e-6,
        };
        let out = run_group(2, cost, |ep| {
            let peer = 1 - ep.rank();
            let _ = ep.exchange(peer, 0, Bytes::from(vec![0u8; 1000])).unwrap();
        });
        for s in &out.stats {
            assert_eq!(s.sent_bytes, 1000);
            assert_eq!(s.recv_bytes, 1000);
            assert_eq!(s.sent_messages, 1);
            assert_eq!(s.recv_messages, 1);
            assert!((s.modeled_comm_seconds - (1e-3 + 1000.0 * 1e-6)).abs() < 1e-12);
        }
    }

    #[test]
    fn self_send_works() {
        let out = run_group(1, CostModel::free(), |ep| {
            ep.send(0, 9, Bytes::from_static(b"hi")).unwrap();
            ep.recv(0, 9).unwrap()
        });
        assert_eq!(&out.results[0][..], b"hi");
    }

    #[test]
    fn send_to_exited_peer_returns_error_not_panic() {
        let out = run_group(2, CostModel::free(), |ep| {
            if ep.rank() == 1 {
                return true; // exit immediately; rank 0 sends into the void
            }
            // Retry until rank 1's endpoint is actually dropped.
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                match ep.send(1, 0, Bytes::from_static(b"x")) {
                    Err(SendError {
                        to: 1,
                        kind: SendErrorKind::Disconnected,
                    }) => return true,
                    Ok(()) => {
                        if Instant::now() > deadline {
                            return false;
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => return false,
                }
            }
        });
        assert!(out.results.iter().all(|&ok| ok), "expected SendError");
    }

    #[test]
    fn configurable_recv_deadline_times_out_fast() {
        let options = GroupOptions {
            cost: CostModel::free(),
            recv_deadline: Duration::from_millis(100),
            ..Default::default()
        };
        let started = Instant::now();
        let out = run_group_with(2, options, |ep| {
            if ep.rank() == 1 {
                // Stay alive past rank 0's deadline so the channel
                // remains open and the timeout (not a disconnect) fires.
                std::thread::sleep(Duration::from_millis(400));
                return None;
            }
            Some(ep.recv(1, 0))
        });
        assert_eq!(
            out.results[0],
            Some(Err(RecvError::Timeout {
                from: 1,
                waited: Duration::from_millis(100),
            }))
        );
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "short deadline must not fall back to the 60s default"
        );
    }

    #[test]
    fn reliable_mode_delivers_like_raw() {
        let options = GroupOptions {
            cost: CostModel::free(),
            reliability: ReliabilityConfig::on(),
            ..Default::default()
        };
        let out = run_group_with(4, options, |ep| {
            let next = (ep.rank() + 1) % ep.size();
            let prev = (ep.rank() + ep.size() - 1) % ep.size();
            ep.send(next, 7, Bytes::from(vec![ep.rank() as u8; 128]))
                .unwrap();
            let got = ep.recv(prev, 7).unwrap();
            got[0] as usize
        });
        assert_eq!(out.results, vec![3, 0, 1, 2]);
        for s in &out.stats {
            // Logical counters see the app payload, not the framing.
            assert_eq!(s.sent_bytes, 128);
            assert_eq!(s.recv_bytes, 128);
            assert_eq!(s.retransmits, 0);
            assert_eq!(s.corruptions_detected, 0);
            // Each rank received one data frame header + one ack frame.
            assert_eq!(s.overhead_bytes, (HEADER_LEN + HEADER_LEN) as u64);
        }
    }

    #[test]
    fn dropped_data_frame_is_retransmitted() {
        let faults = FaultConfig {
            target: Some(TargetedFault {
                src: 0,
                dst: 1,
                class: StreamClass::Data,
                index: 0, // seq 0, attempt 0: the very first transmission
                action: FaultAction::Drop,
            }),
            ..Default::default()
        };
        let options = GroupOptions {
            cost: CostModel::free(),
            reliability: ReliabilityConfig {
                enabled: true,
                ack_timeout: Duration::from_millis(2),
                ..Default::default()
            },
            faults: Some(faults),
            ..Default::default()
        };
        let out = run_group_with(2, options, |ep| {
            if ep.rank() == 0 {
                ep.send(1, 3, Bytes::from_static(b"precious")).unwrap();
                Bytes::new()
            } else {
                ep.recv(0, 3).unwrap()
            }
        });
        assert_eq!(&out.results[1][..], b"precious");
        assert!(out.stats[0].retransmits >= 1, "drop must force a retry");
        assert!(out.stats[0].ack_timeouts >= 1);
        assert!(out.stats[0].retransmit_bytes >= (HEADER_LEN + 8) as u64);
    }

    #[test]
    fn corrupted_data_frame_is_detected_and_retransmitted() {
        let faults = FaultConfig {
            target: Some(TargetedFault {
                src: 0,
                dst: 1,
                class: StreamClass::Data,
                index: 0,
                action: FaultAction::Corrupt,
            }),
            ..Default::default()
        };
        let options = GroupOptions {
            cost: CostModel::free(),
            reliability: ReliabilityConfig {
                enabled: true,
                ack_timeout: Duration::from_millis(2),
                ..Default::default()
            },
            faults: Some(faults),
            ..Default::default()
        };
        let out = run_group_with(2, options, |ep| {
            if ep.rank() == 0 {
                ep.send(1, 3, Bytes::from_static(b"precious")).unwrap();
                Bytes::new()
            } else {
                ep.recv(0, 3).unwrap()
            }
        });
        assert_eq!(&out.results[1][..], b"precious", "payload must heal");
        assert!(out.stats[1].corruptions_detected >= 1);
        assert!(out.stats[0].retransmits >= 1);
    }

    #[test]
    fn duplicated_data_frame_is_deduplicated() {
        let faults = FaultConfig {
            target: Some(TargetedFault {
                src: 0,
                dst: 1,
                class: StreamClass::Data,
                index: 0,
                action: FaultAction::Duplicate,
            }),
            ..Default::default()
        };
        let options = GroupOptions {
            cost: CostModel::free(),
            reliability: ReliabilityConfig::on(),
            faults: Some(faults),
            ..Default::default()
        };
        let out = run_group_with(2, options, |ep| {
            if ep.rank() == 0 {
                ep.send(1, 3, Bytes::from_static(b"once")).unwrap();
                ep.send(1, 3, Bytes::from_static(b"twice")).unwrap();
                (Bytes::new(), Bytes::new())
            } else {
                let a = ep.recv(0, 3).unwrap();
                let b = ep.recv(0, 3).unwrap();
                (a, b)
            }
        });
        assert_eq!(&out.results[1].0[..], b"once");
        assert_eq!(&out.results[1].1[..], b"twice");
        assert_eq!(out.stats[1].recv_messages, 2, "duplicate must not surface");
    }

    #[test]
    fn silent_peer_exhausts_retry_budget() {
        // Every data frame from 0 to 1 is dropped; rank 1 stays alive
        // (pumping inside its own recv) but never sees anything, so the
        // sender burns its whole retry budget and the link closes.
        let faults = FaultConfig {
            drop: 1.0,
            ..Default::default()
        };
        let options = GroupOptions {
            cost: CostModel::free(),
            recv_deadline: Duration::from_millis(500),
            reliability: ReliabilityConfig {
                enabled: true,
                ack_timeout: Duration::from_millis(1),
                max_retries: 3,
                backoff: 2.0,
                max_backoff: Duration::from_millis(4),
            },
            faults: Some(faults),
            ..Default::default()
        };
        let out = run_group_with(2, options, |ep| {
            if ep.rank() == 0 {
                ep.send(1, 0, Bytes::from_static(b"lost")).err()
            } else {
                // The link closes long before our deadline: rank 1 sees
                // a hang-up, never a timeout.
                assert_eq!(ep.recv(0, 0), Err(RecvError::Disconnected { from: 0 }));
                None
            }
        });
        let closed = SendError {
            to: 1,
            kind: SendErrorKind::Disconnected,
        };
        assert_eq!(out.results[0], Some(closed));
        // Initial send + 3 retries.
        assert_eq!(out.stats[0].retransmits, 3);
        assert_eq!(out.stats[0].ack_timeouts, 4);
    }

    #[test]
    fn killed_rank_errors_on_every_operation() {
        let faults = FaultConfig {
            kill: Some(KillSpec {
                rank: 0,
                after_ops: 1,
            }),
            ..Default::default()
        };
        let options = GroupOptions {
            cost: CostModel::free(),
            recv_deadline: Duration::from_secs(5),
            faults: Some(faults),
            ..Default::default()
        };
        let out = run_group_with(2, options, |ep| {
            if ep.rank() == 0 {
                // First op succeeds, second hits the kill threshold.
                ep.send(1, 0, Bytes::from_static(b"last words")).unwrap();
                let first = ep.recv(1, 0);
                let second = ep.send(1, 0, Bytes::new());
                assert_eq!(first, Err(RecvError::Killed { rank: 0 }));
                assert_eq!(
                    second,
                    Err(SendError {
                        to: 1,
                        kind: SendErrorKind::Killed
                    })
                );
                assert!(ep.is_dead());
                0
            } else {
                // The dying rank's buffered message still arrives...
                let got = ep.recv(0, 0).unwrap();
                assert_eq!(&got[..], b"last words");
                // ...and once its endpoint drops, we observe disconnect
                // rather than hanging.
                match ep.recv(0, 0) {
                    Err(RecvError::Disconnected { from: 0 }) => 1,
                    other => panic!("expected disconnect, got {other:?}"),
                }
            }
        });
        assert_eq!(out.results, vec![0, 1]);
        assert_eq!(out.dead_ranks, vec![0]);
    }

    #[test]
    fn raw_mode_probabilistic_drops_are_deterministic() {
        let run = || {
            let faults = FaultConfig {
                drop: 0.5,
                seed: 99,
                ..Default::default()
            };
            let options = GroupOptions {
                cost: CostModel::free(),
                recv_deadline: Duration::from_millis(50),
                faults: Some(faults),
                ..Default::default()
            };
            run_group_with(2, options, |ep| {
                if ep.rank() == 0 {
                    for i in 0..32u8 {
                        ep.send(1, 0, Bytes::from(vec![i])).unwrap();
                    }
                    Vec::new()
                } else {
                    let mut got = Vec::new();
                    while let Ok(b) = ep.recv(0, 0) {
                        got.push(b[0]);
                    }
                    got
                }
            })
            .results[1]
                .clone()
        };
        let first = run();
        assert!(
            !first.is_empty() && first.len() < 32,
            "drop=0.5 should lose some but not all of 32 messages, kept {}",
            first.len()
        );
        assert_eq!(first, run(), "same seed must drop the same messages");
    }

    #[test]
    fn lost_ack_does_not_fake_a_dead_peer() {
        // Regression: rank 1 receives the data frame but its ack is
        // dropped; rank 1 then finishes its (only) receive. Rank 0's
        // retransmission must be re-acked by the lingering rank 1
        // instead of hitting a closed channel and reporting the peer
        // dead.
        let faults = FaultConfig {
            target: Some(TargetedFault {
                src: 1,
                dst: 0,
                class: StreamClass::Ack,
                index: 0, // (seq 0) << 16 | (first ack)
                action: FaultAction::Drop,
            }),
            ..Default::default()
        };
        let options = GroupOptions {
            reliability: ReliabilityConfig {
                enabled: true,
                ack_timeout: Duration::from_millis(5),
                ..ReliabilityConfig::on()
            },
            recv_deadline: Duration::from_secs(2),
            faults: Some(faults),
            ..Default::default()
        };
        let out = run_group_with(2, options, |ep| {
            if ep.rank() == 0 {
                ep.send(1, 7, Bytes::from_static(b"payload")).is_ok()
            } else {
                ep.recv(0, 7).is_ok()
            }
        });
        assert!(out.results[0], "sender must not see a dead peer");
        assert!(out.results[1], "receiver got the data");
        assert!(out.dead_ranks.is_empty());
        assert!(
            out.stats[0].retransmits >= 1,
            "the lost ack must force at least one retransmission"
        );
    }

    /// Collects `n` any-source messages at rank 0 and returns
    /// `(src, first_payload_byte)` pairs in arrival order. A source that
    /// finishes (disconnects after draining) is dropped from the await
    /// set — the caller discipline `recv_any` is designed for.
    fn collect_any(ep: &mut Endpoint, n: usize, tag: Tag) -> Vec<(usize, u8)> {
        let mut awaiting: Vec<bool> = (0..ep.size()).map(|r| r != 0).collect();
        let mut got = Vec::new();
        while got.len() < n {
            match ep.recv_any(&awaiting, tag) {
                Ok((src, bytes, _)) => got.push((src, bytes[0])),
                Err(RecvError::Disconnected { from }) => awaiting[from] = false,
                Err(e) => panic!("unexpected recv_any error: {e:?}"),
            }
        }
        got
    }

    #[test]
    fn recv_any_collects_from_every_source_on_the_real_transport() {
        let out = run_group(4, CostModel::free(), |ep| {
            if ep.rank() == 0 {
                let mut got = collect_any(ep, 3, 9);
                got.sort();
                got
            } else {
                ep.send(0, 9, Bytes::from(vec![ep.rank() as u8 * 2]))
                    .unwrap();
                Vec::new()
            }
        });
        assert_eq!(out.results[0], vec![(1, 2), (2, 4), (3, 6)]);
    }

    #[test]
    fn recv_any_collects_under_the_virtual_clock_and_replays() {
        let run = |seed: u64| {
            let options = GroupOptions {
                cost: CostModel::sp2(),
                schedule: Some(crate::vclock::ScheduleSpec::seeded(seed)),
                ..Default::default()
            };
            run_group_with(4, options, |ep| {
                if ep.rank() == 0 {
                    collect_any(ep, 6, 9)
                } else {
                    for i in 0..2u8 {
                        ep.send(0, 9, Bytes::from(vec![ep.rank() as u8 * 10 + i]))
                            .unwrap();
                    }
                    Vec::new()
                }
            })
            .results[0]
                .clone()
        };
        let a = run(3);
        assert_eq!(a.len(), 6);
        // Per-link FIFO: each source's two messages arrive in send order.
        for src in 1..4usize {
            let from_src: Vec<u8> = a
                .iter()
                .filter(|(s, _)| *s == src)
                .map(|(_, b)| *b)
                .collect();
            assert_eq!(from_src, vec![src as u8 * 10, src as u8 * 10 + 1]);
        }
        // Same seed ⇒ same interleave, bit for bit.
        assert_eq!(a, run(3));
    }

    #[test]
    fn a_delay_fault_is_virtual_latency_that_reorders_delivery() {
        // Rank 1's message is held back 5 s by a targeted delay; rank 2's
        // is not. Under the virtual clock the delay rides on the message
        // as extra latency, costs no wall time, and rank 2's lands first
        // under every schedule seed.
        for seed in 0..4 {
            let faults = FaultConfig {
                target: Some(TargetedFault {
                    src: 1,
                    dst: 0,
                    class: StreamClass::Raw,
                    index: 0,
                    action: FaultAction::Delay,
                }),
                delay_ms: 5_000,
                ..Default::default()
            };
            let options = GroupOptions {
                cost: CostModel::sp2(),
                schedule: Some(crate::vclock::ScheduleSpec::seeded(seed)),
                faults: Some(faults),
                ..Default::default()
            };
            let started = Instant::now();
            let out = run_group_with(3, options, |ep| match ep.rank() {
                0 => (collect_any(ep, 2, 4), ep.now()),
                r => {
                    ep.send(0, 4, Bytes::from(vec![r as u8])).unwrap();
                    (Vec::new(), ep.now())
                }
            });
            let (order, clock) = &out.results[0];
            assert_eq!(order, &[(2, 2), (1, 1)], "seed {seed}");
            assert!(*clock >= 5.0, "the delay is virtual latency: {clock}");
            assert!(
                started.elapsed() < Duration::from_secs(4),
                "no wall-time stall"
            );
        }
    }

    /// `recv_any` reports what each delivery charged: `T_s + bytes · T_c`
    /// on a raw link, exactly the endpoint's own increment, and nothing
    /// on a reliable link, which charges its frames as they land.
    #[test]
    fn recv_any_reports_the_charge_of_each_delivery() {
        for reliable in [false, true] {
            let options = GroupOptions {
                cost: CostModel::sp2(),
                reliability: ReliabilityConfig {
                    enabled: reliable,
                    ..Default::default()
                },
                ..Default::default()
            };
            let out = run_group_with(2, options, |ep| {
                if ep.rank() == 1 {
                    ep.send(0, 4, Bytes::from(vec![7u8; 100])).unwrap();
                    return 0.0;
                }
                let (_, payload, charged) = ep.recv_any(&[false, true], 4).unwrap();
                assert_eq!(payload.len(), 100);
                charged
            });
            let charged = out.results[0];
            if reliable {
                assert_eq!(charged, 0.0);
            } else {
                assert_eq!(charged, CostModel::sp2().message_seconds(100));
                assert_eq!(out.stats[0].modeled_comm_seconds, charged);
            }
        }
    }

    #[test]
    fn recv_any_drains_then_reports_a_dead_awaited_peer() {
        for schedule in [None, Some(crate::vclock::ScheduleSpec::seeded(7))] {
            let options = GroupOptions {
                cost: CostModel::free(),
                recv_deadline: Duration::from_secs(5),
                schedule,
                ..Default::default()
            };
            let out = run_group_with(2, options, |ep| {
                if ep.rank() == 1 {
                    // Send one message, then exit (disconnect).
                    ep.send(0, 4, Bytes::from_static(b"x")).unwrap();
                    return (0, false);
                }
                let awaiting = vec![false, true];
                // The buffered message must arrive before the disconnect.
                let (src, _, _) = ep.recv_any(&awaiting, 4).unwrap();
                let disc = matches!(
                    ep.recv_any(&awaiting, 4),
                    Err(RecvError::Disconnected { from: 1 })
                );
                (src, disc)
            });
            assert_eq!(out.results[0], (1, true));
        }
    }

    #[test]
    fn recv_any_interleaves_with_selective_recv_without_losing_messages() {
        // recv_any takes whatever has arrived off the wire into per-link
        // pending buffers; a later *selective* recv must still find
        // those messages — on either transport, since both share the body.
        for schedule in [None, Some(crate::vclock::ScheduleSpec::seeded(1))] {
            let options = GroupOptions {
                cost: CostModel::sp2(),
                recv_deadline: Duration::from_secs(5),
                schedule,
                ..Default::default()
            };
            let out = run_group_with(3, options, |ep| {
                if ep.rank() == 0 {
                    // Rank 1 sends tag 4 (any-source phase) and tag 5
                    // (selective phase); rank 2 sends tag 4 only. Each
                    // source is dropped from the await set after its one
                    // tag-4 message (the stream-close discipline), so rank
                    // 1's tag-5 message is never misread by `recv_any`.
                    let mut awaiting = vec![false, true, true];
                    let mut any = Vec::new();
                    while any.len() < 2 {
                        match ep.recv_any(&awaiting, 4) {
                            Ok((src, _, _)) => {
                                awaiting[src] = false;
                                any.push(src);
                            }
                            Err(RecvError::Disconnected { from }) => awaiting[from] = false,
                            Err(e) => panic!("unexpected: {e:?}"),
                        }
                    }
                    any.sort();
                    let selective = ep.recv(1, 5).unwrap();
                    (any, selective[0])
                } else {
                    ep.send(0, 4, Bytes::from_static(b"a")).unwrap();
                    if ep.rank() == 1 {
                        ep.send(0, 5, Bytes::from_static(b"z")).unwrap();
                    }
                    (Vec::new(), 0)
                }
            });
            assert_eq!(out.results[0], (vec![1, 2], b'z'));
        }
    }
}
