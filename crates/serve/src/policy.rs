//! The degraded-frame quality floor.
//!
//! The policy is pure data + a pure decision function, so the state
//! machine is unit-testable without threads or rendering. The worker
//! pool consults it between attempts:
//!
//! 1. A **clean** attempt (no dead rank, missing piece or lost partner)
//!    is served immediately.
//! 2. A **degraded** attempt (holes from dead ranks, lost pieces, or
//!    partners lost to a dead rank or a closed link) is scored by PSNR
//!    against the sequential reference composite of the same prepared
//!    subimages. At or above
//!    [`DegradedFramePolicy::psnr_floor_db`] the frame is served tagged
//!    [`ServeSource::Degraded`](crate::ServeSource::Degraded); below the
//!    floor the service retries — with a fresh fault-seed salt, so the
//!    retry re-draws transmission faults instead of replaying the
//!    failure — until [`ServeConfig::max_retries`](crate::ServeConfig::max_retries)
//!    or the request deadline runs out, then rejects explicitly.
//! 3. A **crashed** attempt (a rank failed: a receive timeout, a
//!    malformed payload) retries if the failure is transient, else
//!    rejects immediately.
//!
//! A retry starts as soon as the attempt before it ends. Every attempt
//! runs a fresh rank group whose fault decisions are seeded hashes, so
//! the salt gives it a fresh draw and a wait in between would not.

/// What to do with a degraded (hole-punched) frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradedDecision {
    /// Quality is above the floor: serve it tagged `Degraded`.
    Serve,
    /// Below the floor with attempts left: try again with a fresh
    /// fault-seed salt.
    Retry,
    /// Below the floor and out of attempts (or past the deadline):
    /// answer `Rejected` explicitly.
    Reject,
}

/// The degraded-frame quality policy: a configurable PSNR floor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegradedFramePolicy {
    /// Minimum PSNR (dB, against the sequential reference composite) a
    /// degraded frame must reach to be served. `f64::INFINITY` serves
    /// only bit-perfect frames (degraded output is always retried or
    /// rejected); `f64::NEG_INFINITY` serves any degraded frame.
    pub psnr_floor_db: f64,
}

impl Default for DegradedFramePolicy {
    fn default() -> Self {
        DegradedFramePolicy {
            psnr_floor_db: 20.0,
        }
    }
}

impl DegradedFramePolicy {
    /// Never serve a degraded frame (retry, then reject).
    pub fn reject_all() -> Self {
        DegradedFramePolicy {
            psnr_floor_db: f64::INFINITY,
        }
    }

    /// Serve every degraded frame, whatever its quality.
    pub fn accept_all() -> Self {
        DegradedFramePolicy {
            psnr_floor_db: f64::NEG_INFINITY,
        }
    }

    /// Decides the fate of a degraded frame scoring `psnr_db`.
    pub fn decide(&self, psnr_db: f64, attempts_left: bool) -> DegradedDecision {
        if psnr_db >= self.psnr_floor_db {
            DegradedDecision::Serve
        } else if attempts_left {
            DegradedDecision::Retry
        } else {
            DegradedDecision::Reject
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_decides_serve_retry_reject() {
        let p = DegradedFramePolicy {
            psnr_floor_db: 25.0,
        };
        assert_eq!(p.decide(30.0, true), DegradedDecision::Serve);
        assert_eq!(p.decide(25.0, false), DegradedDecision::Serve);
        assert_eq!(p.decide(24.9, true), DegradedDecision::Retry);
        assert_eq!(p.decide(24.9, false), DegradedDecision::Reject);
    }

    #[test]
    fn floor_extremes_behave_as_named() {
        let reject = DegradedFramePolicy::reject_all();
        assert_eq!(reject.decide(1e9, false), DegradedDecision::Reject);
        // A bit-perfect "degraded" frame (PSNR = ∞, e.g. a dead rank
        // whose piece was empty anyway) is still servable.
        assert_eq!(reject.decide(f64::INFINITY, false), DegradedDecision::Serve);
        let accept = DegradedFramePolicy::accept_all();
        assert_eq!(accept.decide(-1e9, false), DegradedDecision::Serve);
    }
}
