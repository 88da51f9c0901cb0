//! Degraded-mode error handling for compositing runs.
//!
//! Under fault injection a rank can die mid-schedule. The methods treat a
//! *dead peer* as survivable — and a reliable link that gave up is one:
//! vr-comm closes it, so both ends see `Disconnected`. The survivor
//! keeps its own partial image and the dead rank's contribution becomes
//! a transparent hole in the final image (each rank's `dead_partners`,
//! and the tolerant gather's missing pieces). Three conditions remain
//! hard errors: *this* rank being killed (it must stop participating),
//! protocol-level failures such as receive timeouts or tag mismatches,
//! which indicate a broken schedule rather than a dead peer, and a
//! received payload that does not parse ([`CompositeError::Malformed`]):
//! every receive path checks its header, counts and lengths against the
//! region it expects *before* touching the image, so bytes damaged in
//! transit become a typed, retryable error instead of a panic. (A flipped
//! bit *inside* a pixel still parses — detecting that is what the
//! reliable transport's CRC is for.)

use std::collections::BTreeSet;

use bytes::Bytes;
use vr_comm::{CommError, Endpoint, Tag};

/// Why a compositing run could not produce this rank's piece.
#[derive(Clone, Debug, PartialEq)]
pub enum CompositeError {
    /// This rank was killed by fault injection; its partial image is
    /// abandoned.
    Killed {
        /// The killed rank (this rank).
        rank: usize,
    },
    /// An unsurvivable communication failure — a receive timeout or tag
    /// mismatch, meaning the schedule itself broke down.
    Comm {
        /// Which protocol step failed (e.g. `"fold"`, `"bs stage"`).
        during: &'static str,
        /// The underlying transport error.
        source: CommError,
    },
    /// A received payload failed validation: a rectangle outside the
    /// region it must lie in, counts that do not fit the bytes that
    /// arrived, or trailing bytes.
    Malformed {
        /// Which protocol step was parsing (e.g. `"fold"`, `"BSBR stage"`).
        during: &'static str,
        /// The rank the payload came from.
        from: usize,
    },
}

/// Why a payload was refused — it ended early, or a header, count or
/// length does not fit — before the caller adds who sent it and during
/// which step ([`CompositeError::Malformed`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Malformed;

/// The result of reading or checking a received payload.
pub type Checked<T> = Result<T, Malformed>;

impl Malformed {
    /// `Ok` when `ok` holds — the payload checks read as a list of
    /// conditions.
    pub(crate) fn unless(ok: bool) -> Checked<()> {
        if ok {
            Ok(())
        } else {
            Err(Malformed)
        }
    }

    /// The typed error for a payload from `from` refused `during` a step.
    pub(crate) fn at(self, during: &'static str, from: usize) -> CompositeError {
        CompositeError::Malformed { during, from }
    }
}

impl CompositeError {
    /// True when a retry with a fresh fault-seed could plausibly
    /// succeed. `Comm` failures (timeouts and tag mismatches under
    /// fault storms) re-draw their fault decisions on the next
    /// attempt, and so does the corruption behind a
    /// `Malformed` payload; a `Killed` rank is structural — the kill
    /// spec fires deterministically regardless of seed, so retrying
    /// replays the same death.
    pub fn is_transient(&self) -> bool {
        !matches!(self, CompositeError::Killed { .. })
    }

    /// The frame error for a transport failure `during` a step: this
    /// rank's death is `Killed`, anything else `Comm`.
    pub fn from_comm(during: &'static str, source: CommError) -> CompositeError {
        match source {
            CommError::Killed { rank } => CompositeError::Killed { rank },
            source => CompositeError::Comm { during, source },
        }
    }
}

impl std::fmt::Display for CompositeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompositeError::Killed { rank } => {
                write!(f, "rank {rank} was killed by fault injection")
            }
            CompositeError::Comm { during, source } => {
                write!(f, "communication failed during {during}: {source}")
            }
            CompositeError::Malformed { during, from } => {
                write!(f, "malformed payload from rank {from} during {during}")
            }
        }
    }
}

impl std::error::Error for CompositeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompositeError::Killed { .. } | CompositeError::Malformed { .. } => None,
            CompositeError::Comm { source, .. } => Some(source),
        }
    }
}

/// Sends `payload` to `peer`, tolerating a dead peer.
///
/// Returns `Ok(true)` if the message was handed to the transport,
/// `Ok(false)` if the peer is (or just turned out to be) dead, or the
/// link to it gave up — the caller should skip that peer's slot. Errors
/// only when this rank itself was killed.
pub(crate) fn try_send(
    ep: &mut Endpoint,
    peer: usize,
    tag: Tag,
    payload: Bytes,
    dead: &mut BTreeSet<usize>,
) -> Result<bool, CompositeError> {
    if dead.contains(&peer) {
        return Ok(false);
    }
    match ep.send(peer, tag, payload) {
        Ok(()) => Ok(true),
        Err(CommError::Killed { rank }) => Err(CompositeError::Killed { rank }),
        // Disconnected: the peer is gone, or the link to it gave up.
        Err(_) => {
            dead.insert(peer);
            Ok(false)
        }
    }
}

/// One survivable outcome of an any-source receive.
pub(crate) enum AnyRecv {
    /// A message arrived from `src`, with the modeled seconds its
    /// delivery charged (see `Endpoint::recv_any`).
    Message(usize, Bytes, f64),
    /// Awaited peer `src` disconnected (already added to `dead`); the
    /// caller should clear its await slot and keep going.
    PeerDied(usize),
}

/// Receives the next message from *any* awaited peer, tolerating dead
/// peers. Timeouts and tag mismatches remain hard errors.
pub(crate) fn try_recv_any(
    ep: &mut Endpoint,
    await_from: &[bool],
    tag: Tag,
    dead: &mut BTreeSet<usize>,
    during: &'static str,
) -> Result<AnyRecv, CompositeError> {
    match ep.recv_any(await_from, tag) {
        Ok((src, bytes, charged)) => Ok(AnyRecv::Message(src, bytes, charged)),
        Err(CommError::Disconnected { peer }) => {
            dead.insert(peer);
            Ok(AnyRecv::PeerDied(peer))
        }
        Err(e) => Err(CompositeError::from_comm(during, e)),
    }
}

/// Receives from `peer`, tolerating a dead peer.
///
/// Returns `Ok(None)` when the peer is dead (already known dead, or its
/// endpoint disconnected while we waited) — the caller keeps its own
/// partial and moves on. Timeouts and tag mismatches are hard errors.
pub(crate) fn try_recv(
    ep: &mut Endpoint,
    peer: usize,
    tag: Tag,
    dead: &mut BTreeSet<usize>,
    during: &'static str,
) -> Result<Option<Bytes>, CompositeError> {
    if dead.contains(&peer) {
        return Ok(None);
    }
    match ep.recv(peer, tag) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(CommError::Disconnected { peer }) => {
            dead.insert(peer);
            Ok(None)
        }
        Err(e) => Err(CompositeError::from_comm(during, e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_comm::{run_group, CostModel};

    #[test]
    fn display_names_the_step() {
        let e = CompositeError::Comm {
            during: "fold",
            source: CommError::Disconnected { peer: 3 },
        };
        let msg = format!("{e}");
        assert!(msg.contains("fold"), "{msg}");
        let k = CompositeError::Killed { rank: 2 };
        assert!(format!("{k}").contains("rank 2"));
    }

    #[test]
    fn comm_is_transient_killed_is_structural() {
        let comm = CompositeError::Comm {
            during: "bs stage",
            source: CommError::Disconnected { peer: 1 },
        };
        assert!(comm.is_transient());
        assert!(!CompositeError::Killed { rank: 0 }.is_transient());
        let malformed = Malformed.at("BSBR stage", 3);
        assert!(malformed.is_transient());
        let msg = format!("{malformed}");
        assert!(
            msg.contains("rank 3") && msg.contains("BSBR stage"),
            "{msg}"
        );
    }

    #[test]
    fn exchange_with_dead_peer_returns_none_and_marks_dead() {
        let out = run_group(2, CostModel::free(), |ep| {
            if ep.rank() == 1 {
                // Exit immediately: rank 0 sees a disconnected peer.
                return (true, true);
            }
            let mut dead = BTreeSet::new();
            let half = Bytes::from_static(b"half");
            try_send(ep, 1, 7, half, &mut dead).unwrap();
            let got = try_recv(ep, 1, 7, &mut dead, "test stage").unwrap();
            (got.is_none(), dead.contains(&1))
        });
        assert_eq!(out.results[0], (true, true));
    }

    #[test]
    fn try_send_skips_already_dead_peer() {
        let out = run_group(1, CostModel::free(), |ep| {
            let mut dead = BTreeSet::new();
            dead.insert(5);
            // Peer index is never touched when already marked dead.
            try_send(ep, 5, 0, Bytes::new(), &mut dead).unwrap()
        });
        assert_eq!(out.results, vec![false]);
    }
}
