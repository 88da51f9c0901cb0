//! Linear communication cost models.
//!
//! The paper's communication equations (2), (4), (6), (8) are all of the
//! form `Σ_k (T_s + bytes_k · T_c)`: a fixed start-up charge per message
//! plus a per-byte transmission charge. [`CostModel`] evaluates exactly
//! that, so the simulator's modeled `T_comm` matches the paper's analysis
//! given identical byte counts.

/// A linear message cost model: `time(msg) = t_s + bytes · t_c`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Start-up time per message, in seconds (the paper's `T_s`).
    pub t_s: f64,
    /// Transmission time per byte, in seconds (the paper's `T_c`).
    pub t_c: f64,
}

impl CostModel {
    /// IBM SP2 High Performance Switch: ≈ 40 µs start-up, ≈ 35 MB/s
    /// sustained point-to-point bandwidth (mid-1990s POWER2 nodes).
    pub fn sp2() -> Self {
        CostModel {
            t_s: 40e-6,
            t_c: 1.0 / 35e6,
        }
    }

    /// Zero-cost model (useful for tests asserting byte counts only).
    pub fn free() -> Self {
        CostModel { t_s: 0.0, t_c: 0.0 }
    }

    /// Time to deliver one message of `bytes` bytes, in seconds.
    #[inline]
    pub fn message_seconds(&self, bytes: usize) -> f64 {
        self.t_s + bytes as f64 * self.t_c
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::sp2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_time_is_affine() {
        let m = CostModel { t_s: 1.0, t_c: 0.5 };
        assert_eq!(m.message_seconds(0), 1.0);
        assert_eq!(m.message_seconds(10), 6.0);
    }

    #[test]
    fn sp2_magnitudes() {
        let m = CostModel::sp2();
        // A 384×384 full frame of 16-byte pixels ≈ 2.36 MB → ~67 ms on HPS.
        let t = m.message_seconds(384 * 384 * 16);
        assert!(t > 0.05 && t < 0.08, "{t}");
    }

    #[test]
    fn free_model_is_zero() {
        assert_eq!(CostModel::free().message_seconds(12345), 0.0);
    }
}
