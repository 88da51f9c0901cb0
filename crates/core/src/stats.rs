//! Per-method, per-rank statistics mirroring the paper's cost terms.

use crate::analysis::stage_terms;

/// Counters for one compositing stage on one rank.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageStat {
    /// Payload bytes sent this stage.
    pub sent_bytes: u64,
    /// Payload bytes received this stage (the paper's `R_i^k`).
    pub recv_bytes: u64,
    /// Messages sent this stage (with `sent_bytes`, the per-stage
    /// traffic timeline printed under `--verbose`).
    pub sent_msgs: u64,
    /// Messages received this stage.
    pub recv_msgs: u64,
    /// Pixels scanned by run-length encoding this stage (`A_send^k` for
    /// BSBRC, `A/2^k` for BSLC).
    pub encoded_pixels: u64,
    /// Run codes produced this stage (`R_code^k`).
    pub run_codes: u64,
    /// `over` operations applied this stage (`A_rec^k` or `A_opaque^k`).
    pub composite_ops: u64,
    /// Whether the *receiving* bounding rectangle was empty (`[B(k)] = 0`
    /// in Equation (4)).
    pub recv_rect_empty: bool,
    /// The partner rank this stage exchanged with (`None` for a round
    /// with more than one peer, radix-k at `r > 2`).
    pub peer: Option<u16>,
}

/// Per-operation computation costs used to *model* `T_comp` from the
/// exact operation counts, mirroring the paper's Equations (1), (3),
/// (5) and (7).
///
/// The simulator's host measures thread-CPU time too, but with `P`
/// rank threads oversubscribing the host's cores those measurements pick
/// up cache-thrash noise that the paper's one-rank-per-node SP2 never
/// saw. Modeling from counts is deterministic and keeps the
/// `T_comp : T_comm` balance faithful to the 66.7 MHz POWER2 nodes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompCost {
    /// Seconds per pixel scanned by a bounding-rectangle search
    /// (`T_bound` is this times the scanned area).
    pub t_scan: f64,
    /// Seconds per pixel packed into a send buffer.
    pub t_pack: f64,
    /// Seconds per pixel unpacked from a receive buffer.
    pub t_unpack: f64,
    /// Seconds per `over` operation (the paper's `T_o`).
    pub t_over: f64,
    /// Seconds per pixel visited by run-length encoding (the paper's
    /// `T_encode`).
    pub t_encode: f64,
}

impl CompCost {
    /// Constants calibrated to the paper's POWER2 measurements (Table 1,
    /// Engine_low): `T_comp(BS, P=2) ≈ 298 ms` for packing, unpacking
    /// and compositing `A/2 = 73 728` pixels, and
    /// `T_comp(BSLC) − T_o`-terms consistent with ≈ 0.6 µs per encoded
    /// pixel.
    pub fn power2() -> Self {
        CompCost {
            t_scan: 0.25e-6,
            t_pack: 1.1e-6,
            t_unpack: 1.1e-6,
            t_over: 1.8e-6,
            t_encode: 0.65e-6,
        }
    }

    /// Models one rank's `T_comp` in seconds from its counters.
    pub fn modeled_seconds(&self, stats: &MethodStats) -> f64 {
        let mut t = self.modeled_bound_seconds(stats);
        for k in 0..stats.stages.len() {
            let s = stage_terms(self, stats, k);
            t += s.pack + s.unpack + s.over + s.encode;
        }
        t
    }

    /// Models `T_bound` in seconds.
    pub fn modeled_bound_seconds(&self, stats: &MethodStats) -> f64 {
        stage_terms(self, stats, 0).bound
    }

    /// Models the encoding portion in seconds: one product over the
    /// rank's whole encoded-pixel count, as if a single pass visited it.
    pub fn modeled_encode_seconds(&self, stats: &MethodStats) -> f64 {
        let encoded: u64 = stats.stages.iter().map(|s| s.encoded_pixels).sum();
        self.t_encode * encoded as f64
    }
}

impl Default for CompCost {
    fn default() -> Self {
        CompCost::power2()
    }
}

/// Aggregated statistics for one rank's run of a compositing method.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MethodStats {
    /// Measured thread-CPU computation time (the paper's `T_comp`),
    /// seconds. May be replaced by a counter-based model at the
    /// experiment level (see `CompCost`).
    pub comp_seconds: f64,
    /// Portion of `comp_seconds` spent on the initial bounding-rectangle
    /// scan (the paper's `T_bound`), seconds.
    pub bound_seconds: f64,
    /// Portion of `comp_seconds` spent run-length encoding, seconds.
    pub encode_seconds: f64,
    /// Modeled communication time (the paper's `T_comm`), seconds,
    /// derived from exact byte counts via the group's cost model.
    pub comm_seconds: f64,
    /// Pixels scanned by bounding-rectangle searches (`A` in the first
    /// BSBR/BSBRC stage; 0 for methods without a scan).
    pub bound_pixels: u64,
    /// Per-stage counters, `stages[k-1]` for the paper's stage `k`.
    pub stages: Vec<StageStat>,
    /// Seconds from composite start until this rank's *first* owned tile
    /// finished accumulating (tile-stream only; `None` elsewhere), on the
    /// transport's clock: wall time on real channels, the rank's virtual
    /// clock under a schedule seed, where it replays exactly. Unlike the
    /// modeled cost terms above, these two exist to expose
    /// progressive-delivery latency, not the paper's cost model.
    pub first_tile_seconds: Option<f64>,
    /// Seconds until this rank's *last* owned tile finished accumulating
    /// (tile-stream only), on the same clock.
    pub last_tile_seconds: Option<f64>,
}

impl MethodStats {
    /// `T_total = T_comp + T_comm` (the quantity in Tables 1 and 2).
    pub fn total_seconds(&self) -> f64 {
        self.comp_seconds + self.comm_seconds
    }

    /// Total bytes received over all stages (the paper's `m_i`).
    pub fn recv_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.recv_bytes).sum()
    }

    /// Total bytes sent over all stages.
    pub fn sent_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.sent_bytes).sum()
    }

    /// Total `over` operations across stages.
    pub fn composite_ops(&self) -> u64 {
        self.stages.iter().map(|s| s.composite_ops).sum()
    }

    /// Total run codes produced across stages.
    pub fn run_codes(&self) -> u64 {
        self.stages.iter().map(|s| s.run_codes).sum()
    }

    /// Number of stages whose receiving bounding rectangle was empty.
    pub fn empty_recv_rects(&self) -> usize {
        self.stages.iter().filter(|s| s.recv_rect_empty).count()
    }

    /// Total messages sent over all stages.
    pub fn sent_msgs(&self) -> u64 {
        self.stages.iter().map(|s| s.sent_msgs).sum()
    }

    /// Total messages received over all stages.
    pub fn recv_msgs(&self) -> u64 {
        self.stages.iter().map(|s| s.recv_msgs).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_over_stages() {
        let stats = MethodStats {
            comp_seconds: 0.2,
            comm_seconds: 0.3,
            stages: vec![
                StageStat {
                    sent_bytes: 10,
                    recv_bytes: 20,
                    composite_ops: 5,
                    ..Default::default()
                },
                StageStat {
                    sent_bytes: 1,
                    recv_bytes: 2,
                    composite_ops: 3,
                    recv_rect_empty: true,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        assert!((stats.total_seconds() - 0.5).abs() < 1e-12);
        assert_eq!(stats.recv_bytes(), 22);
        assert_eq!(stats.sent_bytes(), 11);
        assert_eq!(stats.composite_ops(), 8);
        assert_eq!(stats.empty_recv_rects(), 1);
    }
}
