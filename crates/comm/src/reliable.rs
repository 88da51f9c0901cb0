//! The link layer between [`Endpoint`](crate::Endpoint) and the
//! `Transport`: per-peer state, and the stop-and-wait ARQ that runs
//! over it when reliability is enabled.
//!
//! * **Raw** (default): a message is one physical transmission, handed
//!   to the fault plan and the transport unframed — byte-identical
//!   behaviour and stats to a build without this layer. A selective
//!   receive is one blocking receive on that source.
//! * **Reliable**: every message is wrapped in a sequence-numbered,
//!   CRC-protected frame and delivered by stop-and-wait: the sender
//!   retransmits on ack timeout with bounded exponential backoff. A send
//!   that gives up — its retry budget spent, or the peer gone — closes
//!   its link (`Transport::close_link`), so both ends see `Disconnected`,
//!   as for a dead peer. The receiver CRC-checks, deduplicates by
//!   sequence number and acks every accepted or duplicate frame. Every
//!   wait pumps *all* incoming links, so acks and frames of other
//!   conversations keep moving — what makes ring and exchange schedules
//!   deadlock-free under ARQ.
//!
//! Each wait loop here (`Links`' `await_ack`, `recv_any` — which a
//! reliable `recv` runs too — and `linger_until_group_done`) is written
//! once, against the transport's clock, `drain` and `wait_any`; none of
//! them knows whether time is real or virtual. The byte layout and
//! integrity check live in the shared codec ([`crate::frame`]); this
//! module pins down the reliable link's closed kind set ([`FRAME_DATA`]
//! / [`FRAME_ACK`]) and the retry policy. Acks carry the sequence number
//! they acknowledge and an empty payload.

use std::collections::VecDeque;
use std::time::Duration;

use bytes::Bytes;

use crate::cost::CostModel;
use crate::endpoint::{Message, RecvError, SendErrorKind, Tag};
use crate::fault::{FaultPlan, StreamClass};
pub use crate::frame::{crc32, encode_frame, Frame, FrameError, HEADER_LEN};
use crate::stats::TrafficStats;
use crate::transport::Transport;
use crate::vclock::{LingerOutcome, VRecvError};

/// Application data frame.
pub const FRAME_DATA: u8 = 1;
/// Acknowledgement frame.
pub const FRAME_ACK: u8 = 2;

/// Parses and integrity-checks a reliable-link frame off the wire.
///
/// On top of the shared codec's CRC check, rejects any kind byte
/// outside the reliable link's closed set with [`FrameError::BadKind`].
pub fn decode_frame(raw: &Bytes) -> Result<Frame, FrameError> {
    let frame = crate::frame::decode_frame(raw)?;
    if frame.kind != FRAME_DATA && frame.kind != FRAME_ACK {
        return Err(FrameError::BadKind);
    }
    Ok(frame)
}

/// Retry policy of the stop-and-wait ARQ.
///
/// Disabled by default: the endpoint then sends unframed messages with
/// zero per-message overhead, byte-identical to a build without the
/// reliability layer at all.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReliabilityConfig {
    /// Whether framing/ack/retransmit is active.
    pub enabled: bool,
    /// How long the sender waits for an ack before the first retransmit.
    pub ack_timeout: Duration,
    /// Retransmissions attempted before the link to the peer closes and
    /// the send fails with [`SendErrorKind::Disconnected`].
    ///
    /// [`SendErrorKind::Disconnected`]: crate::SendErrorKind::Disconnected
    pub max_retries: u32,
    /// Multiplier applied to the ack timeout after each failed attempt.
    pub backoff: f64,
    /// Ceiling on the backed-off wait between retransmits.
    pub max_backoff: Duration,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            enabled: false,
            ack_timeout: Duration::from_millis(10),
            max_retries: 8,
            backoff: 2.0,
            max_backoff: Duration::from_millis(200),
        }
    }
}

impl ReliabilityConfig {
    /// The default policy with reliability switched on.
    pub fn on() -> Self {
        ReliabilityConfig {
            enabled: true,
            ..Default::default()
        }
    }

    /// How long to wait for an ack on retransmission `attempt`
    /// (0 = the initial send): exponential backoff, capped.
    pub fn retry_delay(&self, attempt: u32) -> Duration {
        let base = self.ack_timeout.as_secs_f64() * self.backoff.powi(attempt.min(32) as i32);
        Duration::from_secs_f64(base.min(self.max_backoff.as_secs_f64()))
    }
}

/// Per-peer link state.
#[derive(Debug, Default)]
struct Link {
    // --- send side ---
    /// Next data sequence number for frames to this peer.
    next_seq: u32,
    /// Highest data seq this peer has acknowledged.
    acked: Option<u32>,
    /// Raw-mode transmission counter (fault keying).
    raw_index: u64,
    // --- receive side ---
    /// Next data seq expected from this peer.
    expected_seq: u32,
    /// Messages taken off the wire from this peer, awaiting `recv`.
    pending: VecDeque<Message>,
    /// The peer has closed and the wire from it is drained (no more
    /// frames ever).
    peer_closed: bool,
    /// Last data seq this rank acked to this peer, with how many acks
    /// it has sent for it (fault keying for re-acks of duplicates).
    last_ack: Option<(u32, u64)>,
}

/// What ended one retry window of a reliable send.
enum AckWait {
    /// The peer acknowledged the frame.
    Acked,
    /// The peer is gone and drained; the ack can never arrive.
    PeerClosed,
    /// The retry window elapsed silently; retransmit.
    TimedOut,
}

/// One rank's links to every peer: raw passthrough or stop-and-wait ARQ
/// (see the module docs), with the fault plan applied to every physical
/// transmission on the way down. Methods borrow the rank's [`Transport`]
/// and its [`TrafficStats`]; the protocol costs land in the latter.
pub(crate) struct Links {
    rank: usize,
    config: ReliabilityConfig,
    faults: Option<FaultPlan>,
    cost: CostModel,
    peers: Vec<Link>,
}

impl Links {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        config: ReliabilityConfig,
        faults: Option<FaultPlan>,
        cost: CostModel,
    ) -> Self {
        Links {
            rank,
            config,
            faults,
            cost,
            peers: (0..size).map(|_| Link::default()).collect(),
        }
    }

    /// Whether messages travel framed and acknowledged.
    pub(crate) fn is_reliable(&self) -> bool {
        self.config.enabled
    }

    /// Sends one message to `dst`. Raw: a single buffered transmission.
    /// Reliable: blocks until the frame is acknowledged.
    pub(crate) fn send(
        &mut self,
        net: &mut Transport,
        stats: &mut TrafficStats,
        dst: usize,
        msg: Message,
    ) -> Result<(), SendErrorKind> {
        if self.config.enabled {
            return self.send_reliable(net, stats, dst, msg);
        }
        let index = self.peers[dst].raw_index;
        self.peers[dst].raw_index += 1;
        self.transmit(net, dst, msg, StreamClass::Raw, index)
            .map_err(|()| SendErrorKind::Disconnected)
    }

    /// Pushes one physical transmission onto the wire through the fault
    /// plan. `Err` means the destination has closed.
    fn transmit(
        &self,
        net: &Transport,
        dst: usize,
        msg: Message,
        class: StreamClass,
        index: u64,
    ) -> Result<(), ()> {
        match &self.faults {
            None => net.send(dst, msg, 0.0),
            Some(plan) => plan.transmit(net, self.rank, dst, msg, class, index),
        }
    }

    /// Stop-and-wait reliable send: frame, transmit, await ack, retry
    /// with exponential backoff. A send that gives up closes the link.
    fn send_reliable(
        &mut self,
        net: &mut Transport,
        stats: &mut TrafficStats,
        dst: usize,
        msg: Message,
    ) -> Result<(), SendErrorKind> {
        let seq = self.peers[dst].next_seq;
        self.peers[dst].next_seq = seq.wrapping_add(1);
        let frame = Message {
            tag: msg.tag,
            payload: encode_frame(FRAME_DATA, seq, &msg.payload),
        };
        let mut attempt: u32 = 0;
        loop {
            if attempt > 0 {
                stats.retransmits += 1;
                stats.retransmit_bytes += frame.payload.len() as u64;
            }
            let key = ((seq as u64) << 16) | (attempt as u64 & 0xFFFF);
            if self
                .transmit(net, dst, frame.clone(), StreamClass::Data, key)
                .is_err()
            {
                break;
            }
            match self.await_ack(net, stats, dst, seq, attempt) {
                AckWait::Acked => return Ok(()),
                // The peer has hung up: the ack can never arrive.
                AckWait::PeerClosed => break,
                AckWait::TimedOut => {}
            }
            stats.ack_timeouts += 1;
            attempt += 1;
            if attempt > self.config.max_retries {
                break;
            }
        }
        // Given up — the peer is gone or has hung up, or the retry
        // budget ran out. The link closes, so a live peer learns it as
        // it would learn of this rank's death, not at its own deadline.
        net.close_link(dst);
        Err(SendErrorKind::Disconnected)
    }

    /// Waits for an ack of `seq` from `dst` through one retry window,
    /// pumping the links the whole time.
    fn await_ack(
        &mut self,
        net: &Transport,
        stats: &mut TrafficStats,
        dst: usize,
        seq: u32,
        attempt: u32,
    ) -> AckWait {
        let deadline = net.now() + self.config.retry_delay(attempt).as_secs_f64();
        loop {
            self.pump(net, stats);
            if self.peers[dst].acked.is_some_and(|a| a >= seq) {
                return AckWait::Acked;
            }
            if self.peers[dst].peer_closed {
                return AckWait::PeerClosed;
            }
            if net.now() >= deadline {
                return AckWait::TimedOut;
            }
            net.wait_any(Some(dst), deadline);
        }
    }

    /// Takes everything that has arrived off the wire without blocking.
    /// Raw messages go straight to their source's queue; reliable frames
    /// are CRC-checked, deduplicated and acked first.
    fn pump(&mut self, net: &Transport, stats: &mut TrafficStats) {
        let (arrived, closed) = net.drain();
        for (src, msg) in arrived {
            if self.config.enabled {
                self.process_frame(net, stats, src, msg);
            } else {
                self.peers[src].pending.push_back(msg);
            }
        }
        for (peer, closed) in self.peers.iter_mut().zip(closed) {
            peer.peer_closed |= closed;
        }
    }

    /// Handles one physical frame off the wire (reliable mode only).
    fn process_frame(
        &mut self,
        net: &Transport,
        stats: &mut TrafficStats,
        src: usize,
        msg: Message,
    ) {
        let raw_len = msg.payload.len();
        // Every physical frame costs modeled wire time at the receiver.
        stats.modeled_comm_seconds += self.cost.message_seconds(raw_len);
        match decode_frame(&msg.payload) {
            Err(_) => {
                // Corrupted in transit; drop it and let the sender's ack
                // timeout drive a retransmission.
                stats.corruptions_detected += 1;
                stats.overhead_bytes += raw_len as u64;
            }
            Ok(frame) if frame.kind == FRAME_ACK => {
                stats.overhead_bytes += raw_len as u64;
                let link = &mut self.peers[src];
                link.acked = Some(link.acked.map_or(frame.seq, |a| a.max(frame.seq)));
            }
            Ok(frame) => {
                let expected = self.peers[src].expected_seq;
                if frame.seq == expected {
                    self.peers[src].expected_seq = expected.wrapping_add(1);
                    stats.overhead_bytes += HEADER_LEN as u64;
                    self.send_ack(net, src, msg.tag, frame.seq);
                    self.peers[src].pending.push_back(Message {
                        tag: msg.tag,
                        payload: frame.payload,
                    });
                } else {
                    // A duplicate (retransmission of something already
                    // accepted): discard, but re-ack so the sender can
                    // make progress if the first ack was lost.
                    stats.overhead_bytes += raw_len as u64;
                    if frame.seq < expected {
                        self.send_ack(net, src, msg.tag, frame.seq);
                    }
                }
            }
        }
    }

    /// Acks `seq` back to `src`. Failures are ignored: a peer that
    /// already exited no longer needs the ack.
    fn send_ack(&mut self, net: &Transport, src: usize, tag: Tag, seq: u32) {
        let link = &mut self.peers[src];
        let attempt = match link.last_ack {
            Some((s, n)) if s == seq => n + 1,
            _ => 0,
        };
        link.last_ack = Some((seq, attempt));
        let ack = Message {
            tag,
            payload: encode_frame(FRAME_ACK, seq, &[]),
        };
        let key = ((seq as u64) << 16) | (attempt & 0xFFFF);
        let _ = self.transmit(net, src, ack, StreamClass::Ack, key);
    }

    /// The next message from `src`, waiting at most `wait`.
    pub(crate) fn recv(
        &mut self,
        net: &Transport,
        stats: &mut TrafficStats,
        src: usize,
        wait: Duration,
    ) -> Result<Message, RecvError> {
        if self.config.enabled {
            let only_src = |s| s == src;
            let got = self.recv_any(net, stats, only_src, Some(src), wait);
            return got.map(|(_, msg)| msg);
        }
        // An earlier pump (a `recv_any`) may already have taken this
        // source's messages off the wire.
        if let Some(msg) = self.peers[src].pending.pop_front() {
            return Ok(msg);
        }
        // Raw: park on this one source — a single blocking receive, no
        // sweep of the other links.
        net.recv_from(src, wait).map_err(|e| match e {
            VRecvError::Timeout => RecvError::Timeout {
                from: src,
                waited: wait,
            },
            VRecvError::Disconnected => RecvError::Disconnected { from: src },
        })
    }

    /// The next message from any source `awaited` accepts (lowest rank
    /// first among those with one queued; arrival order within a
    /// source), pumping every link meanwhile; the wait also wakes when
    /// `watch` hangs up. Messages from other sources stay queued for
    /// later receives. An awaited peer that hung up with nothing queued
    /// is reported only when no awaited source has a message.
    pub(crate) fn recv_any(
        &mut self,
        net: &Transport,
        stats: &mut TrafficStats,
        awaited: impl Fn(usize) -> bool,
        watch: Option<usize>,
        wait: Duration,
    ) -> Result<(usize, Message), RecvError> {
        if let Some(found) = self.pop_any_pending(&awaited) {
            return Ok(found);
        }
        let deadline = net.now() + wait.as_secs_f64();
        loop {
            self.pump(net, stats);
            if let Some(found) = self.pop_any_pending(&awaited) {
                return Ok(found);
            }
            let closed = |src: &usize| awaited(*src) && self.peers[*src].peer_closed;
            if let Some(from) = (0..self.peers.len()).find(closed) {
                return Err(RecvError::Disconnected { from });
            }
            if net.now() >= deadline {
                let from = (0..self.peers.len()).find(|&src| awaited(src)).unwrap_or(0);
                return Err(RecvError::Timeout { from, waited: wait });
            }
            net.wait_any(watch, deadline);
        }
    }

    fn pop_any_pending(&mut self, awaited: &impl Fn(usize) -> bool) -> Option<(usize, Message)> {
        let src =
            (0..self.peers.len()).find(|&s| awaited(s) && !self.peers[s].pending.is_empty())?;
        Some((src, self.peers[src].pending.pop_front()?))
    }

    /// Keeps the link layer responsive after this rank's work is done:
    /// answers retransmissions (re-acking duplicates) until the whole
    /// group has finished.
    ///
    /// Without this, a peer whose ack was lost in transit would
    /// retransmit into a closed link and wrongly conclude this rank
    /// died — a healthy transport's protocol state outlives the
    /// application's last receive. No-op in raw mode.
    pub(crate) fn linger_until_group_done(&mut self, net: &Transport, stats: &mut TrafficStats) {
        if !self.config.enabled {
            return;
        }
        loop {
            self.pump(net, stats);
            if net.linger() == LingerOutcome::GroupDone {
                // Re-ack anything that raced in with completion.
                self.pump(net, stats);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let payload = b"subimage bytes".as_slice();
        let wire = encode_frame(FRAME_DATA, 7, payload);
        assert_eq!(wire.len(), HEADER_LEN + payload.len());
        let frame = decode_frame(&wire).unwrap();
        assert_eq!(frame.kind, FRAME_DATA);
        assert_eq!(frame.seq, 7);
        assert_eq!(&frame.payload[..], payload);
    }

    #[test]
    fn ack_frame_round_trips_empty() {
        let wire = encode_frame(FRAME_ACK, 12, &[]);
        assert_eq!(wire.len(), HEADER_LEN);
        let frame = decode_frame(&wire).unwrap();
        assert_eq!(frame.kind, FRAME_ACK);
        assert_eq!(frame.seq, 12);
        assert!(frame.payload.is_empty());
    }

    #[test]
    fn flipped_bit_is_detected_anywhere() {
        let wire = encode_frame(FRAME_DATA, 3, b"payload");
        for i in 0..wire.len() {
            let mut bad: Vec<u8> = wire.to_vec();
            bad[i] ^= 0x40;
            let got = decode_frame(&Bytes::from(bad));
            assert!(got.is_err(), "corruption at byte {i} went undetected");
        }
    }

    #[test]
    fn truncated_frame_rejected() {
        let wire = encode_frame(FRAME_DATA, 1, b"x");
        let short = wire.slice(..HEADER_LEN - 1);
        assert_eq!(decode_frame(&short), Err(FrameError::Truncated));
    }

    #[test]
    fn unknown_kind_rejected_on_reliable_link() {
        // The shared codec accepts any CRC-valid kind; the reliable
        // link's closed set must still reject it.
        let wire = encode_frame(0x77, 1, b"x");
        assert_eq!(decode_frame(&wire), Err(FrameError::BadKind));
    }

    #[test]
    fn backoff_grows_and_caps() {
        let cfg = ReliabilityConfig::on();
        assert_eq!(cfg.retry_delay(0), Duration::from_millis(10));
        assert_eq!(cfg.retry_delay(1), Duration::from_millis(20));
        assert_eq!(cfg.retry_delay(2), Duration::from_millis(40));
        assert_eq!(cfg.retry_delay(10), cfg.max_backoff);
        assert_eq!(cfg.retry_delay(1_000_000), cfg.max_backoff);
    }
}
