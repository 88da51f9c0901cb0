//! Per-rank traffic accounting.

/// Message and byte counters for one rank, plus the modeled communication
/// time accumulated from the group's [`CostModel`](crate::CostModel).
///
/// `recv_bytes` is the paper's `m_i = Σ_k R_i^k` over every phase the
/// rank took part in. The paper's `M_max` (Section 4, used to validate
/// Equation 9) counts compositing stages only, so it is taken from the
/// stage statistics instead (`vr_system::FrameRecord::m_max`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrafficStats {
    /// Messages sent by this rank.
    pub sent_messages: u64,
    /// Payload bytes sent by this rank.
    pub sent_bytes: u64,
    /// Messages received by this rank.
    pub recv_messages: u64,
    /// Payload bytes received by this rank (the paper's `m_i`).
    pub recv_bytes: u64,
    /// Modeled communication seconds: `Σ over received messages of
    /// (T_s + bytes · T_c)`.
    pub modeled_comm_seconds: f64,
    /// Data frames retransmitted by this rank (reliable mode).
    pub retransmits: u64,
    /// Wire bytes of those retransmitted frames (header + payload).
    pub retransmit_bytes: u64,
    /// Incoming frames this rank discarded for CRC mismatch.
    pub corruptions_detected: u64,
    /// Ack waits that expired before the ack arrived.
    pub ack_timeouts: u64,
    /// Wire bytes received beyond the application payload: frame
    /// headers, ack frames, and discarded duplicate/corrupt frames.
    pub overhead_bytes: u64,
    /// Always 0: no compositing path stages pixels any more, so nothing
    /// raises it. The field stays only because the benchmark package
    /// reads it.
    pub peak_pixel_buffer_bytes: u64,
}

impl TrafficStats {
    /// Records a sent message.
    pub fn on_send(&mut self, bytes: usize) {
        self.sent_messages += 1;
        self.sent_bytes += bytes as u64;
    }

    /// Records a received message and its modeled delivery time.
    pub fn on_recv(&mut self, bytes: usize, modeled_seconds: f64) {
        self.recv_messages += 1;
        self.recv_bytes += bytes as u64;
        self.modeled_comm_seconds += modeled_seconds;
    }

    /// Merges another rank's counters into this one (for aggregates).
    pub fn merge(&mut self, other: &TrafficStats) {
        self.sent_messages += other.sent_messages;
        self.sent_bytes += other.sent_bytes;
        self.recv_messages += other.recv_messages;
        self.recv_bytes += other.recv_bytes;
        self.modeled_comm_seconds += other.modeled_comm_seconds;
        self.retransmits += other.retransmits;
        self.retransmit_bytes += other.retransmit_bytes;
        self.corruptions_detected += other.corruptions_detected;
        self.ack_timeouts += other.ack_timeouts;
        self.overhead_bytes += other.overhead_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = TrafficStats::default();
        s.on_send(100);
        s.on_send(50);
        s.on_recv(30, 0.001);
        assert_eq!(s.sent_messages, 2);
        assert_eq!(s.sent_bytes, 150);
        assert_eq!(s.recv_messages, 1);
        assert_eq!(s.recv_bytes, 30);
        assert!((s.modeled_comm_seconds - 0.001).abs() < 1e-12);
    }

    #[test]
    fn merge_adds() {
        let mut a = TrafficStats::default();
        a.on_send(10);
        let mut b = TrafficStats::default();
        b.on_recv(20, 0.5);
        a.merge(&b);
        assert_eq!(a.sent_bytes, 10);
        assert_eq!(a.recv_bytes, 20);
    }

    #[test]
    fn merge_adds_reliability_counters() {
        let mut a = TrafficStats {
            retransmits: 1,
            retransmit_bytes: 100,
            corruptions_detected: 2,
            ack_timeouts: 3,
            overhead_bytes: 40,
            ..Default::default()
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.retransmits, 2);
        assert_eq!(a.retransmit_bytes, 200);
        assert_eq!(a.corruptions_detected, 4);
        assert_eq!(a.ack_timeouts, 6);
        assert_eq!(a.overhead_bytes, 80);
    }
}
