//! Per-request robustness policies: retry-with-backoff and the
//! degraded-frame quality floor.
//!
//! Both policies are pure data + pure decision functions so the whole
//! state machine is unit-testable without threads or rendering. The
//! worker pool consults them between attempts:
//!
//! 1. A **clean** attempt (no dead ranks, full coverage) is served
//!    immediately.
//! 2. A **degraded** attempt (holes from dead ranks or lost pieces) is
//!    scored by PSNR against the sequential reference composite of the
//!    same prepared subimages. At or above
//!    [`DegradedFramePolicy::psnr_floor_db`] the frame is served tagged
//!    [`ServeSource::Degraded`](crate::ServeSource::Degraded); below the
//!    floor the service retries — with a fresh fault-seed salt, so the
//!    retry re-draws transmission faults instead of replaying the
//!    failure — until attempts or the request deadline run out, then
//!    rejects explicitly.
//! 3. A **crashed** attempt (the distributed run panicked: receive
//!    timeout, retry-budget exhaustion) retries if the failure is
//!    transient, else rejects immediately.
//!
//! Backoff between attempts is exponential with a seeded, deterministic
//! jitter (same seed and salt ⇒ same delays) and is deadline-aware: the
//! worker never sleeps past the request's deadline.

use std::time::Duration;

/// Retry-with-exponential-backoff knobs for failed frame attempts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Extra attempts after the first (0 = fail on the first bad
    /// attempt).
    pub max_retries: u32,
    /// Delay before the first retry.
    pub base_backoff: Duration,
    /// Multiplier applied to the delay after each failed attempt.
    pub backoff_factor: f64,
    /// Ceiling on the backed-off delay.
    pub max_backoff: Duration,
    /// Fraction of each delay randomized away, in `[0, 1]` (0 = fixed
    /// delays; 0.5 = delays uniformly in `[d/2, d]`). The draw is a
    /// deterministic hash of `(seed, salt, attempt)`.
    pub jitter: f64,
    /// Seed for the jitter hash.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(5),
            backoff_factor: 2.0,
            max_backoff: Duration::from_millis(200),
            jitter: 0.5,
            seed: 0x7E57_A110,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            ..Default::default()
        }
    }

    /// The delay before retry `attempt` (1-based: `attempt = 1` is the
    /// first retry). Deterministic in `(seed, salt, attempt)`; `salt`
    /// is the frame key, so concurrent retries of different frames
    /// don't thunder in lockstep.
    pub fn backoff_delay(&self, attempt: u32, salt: u64) -> Duration {
        debug_assert!(attempt >= 1, "attempt is 1-based");
        let exp = self.base_backoff.as_secs_f64() * self.backoff_factor.powi(attempt as i32 - 1);
        let capped = exp.min(self.max_backoff.as_secs_f64());
        // A 53-bit uniform draw in [0, 1).
        let hash = vr_comm::splitmix64(self.seed ^ salt ^ u64::from(attempt), 0);
        let u = (hash >> 11) as f64 / (1u64 << 53) as f64;
        let jitter = self.jitter.clamp(0.0, 1.0);
        Duration::from_secs_f64((capped * (1.0 - jitter * u)).max(0.0))
    }
}

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
    fn backoff_grows_exponentially_to_the_cap_without_jitter() {
        let p = RetryPolicy {
            max_retries: 10,
            base_backoff: Duration::from_millis(10),
            backoff_factor: 2.0,
            max_backoff: Duration::from_millis(50),
            jitter: 0.0,
            seed: 1,
        };
        assert_eq!(p.backoff_delay(1, 0), Duration::from_millis(10));
        assert_eq!(p.backoff_delay(2, 0), Duration::from_millis(20));
        assert_eq!(p.backoff_delay(3, 0), Duration::from_millis(40));
        // Capped from the fourth retry on.
        assert_eq!(p.backoff_delay(4, 0), Duration::from_millis(50));
        assert_eq!(p.backoff_delay(9, 0), Duration::from_millis(50));
    }

    #[test]
    fn jitter_is_seeded_bounded_and_deterministic() {
        let p = RetryPolicy {
            jitter: 0.5,
            ..Default::default()
        };
        for attempt in 1..6 {
            for salt in [0u64, 7, 0xDEAD] {
                let d = p.backoff_delay(attempt, salt);
                let full = p.backoff_delay(attempt, salt).max(Duration::ZERO);
                assert_eq!(d, full, "same inputs must give the same delay");
                let nominal = (p.base_backoff.as_secs_f64()
                    * p.backoff_factor.powi(attempt as i32 - 1))
                .min(p.max_backoff.as_secs_f64());
                let secs = d.as_secs_f64();
                assert!(
                    secs <= nominal + 1e-12 && secs >= nominal * 0.5 - 1e-12,
                    "attempt {attempt} salt {salt}: {secs} outside [{}, {nominal}]",
                    nominal * 0.5
                );
            }
        }
        // Different salts decorrelate the delays (not all equal).
        let delays: Vec<Duration> = (0u64..8).map(|s| p.backoff_delay(1, s)).collect();
        assert!(delays.iter().any(|d| *d != delays[0]));
    }

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

    #[test]
    fn none_never_retries() {
        assert_eq!(RetryPolicy::none().max_retries, 0);
    }
}
