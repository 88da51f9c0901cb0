//! Collective operations built on point-to-point messages.
//!
//! The sort-last system needs a handful of collectives: the partitioning
//! phase *scatters* subvolume blocks from the input rank, the final
//! image is *gathered* at the root and experiment setup *broadcasts*
//! small configuration blobs. All are built on the flat [`Endpoint`] send/recv primitives (binomial
//! trees where a tree helps), so their traffic is accounted like any
//! other message and [`Endpoint`] itself ends at point-to-point.

use bytes::Bytes;

use crate::endpoint::{CommError, Endpoint, Tag};

/// Scatters one payload per rank from `root`; returns this rank's
/// payload. The root sends `P−1` messages directly (the natural pattern
/// when only the root holds the data, as in volume distribution).
pub fn scatter(
    ep: &mut Endpoint,
    root: usize,
    tag: Tag,
    payloads: Option<Vec<Bytes>>,
) -> Result<Bytes, CommError> {
    if ep.rank() == root {
        let payloads = payloads.expect("root must supply one payload per rank");
        assert_eq!(
            payloads.len(),
            ep.size(),
            "scatter needs exactly one payload per rank"
        );
        let mut own = None;
        for (dst, payload) in payloads.into_iter().enumerate() {
            if dst == ep.rank() {
                own = Some(payload);
            } else {
                ep.send(dst, tag, payload)?;
            }
        }
        Ok(own.expect("root keeps its own payload"))
    } else {
        ep.recv(root, tag)
    }
}

/// Gathers every rank's payload at `root`, handing each slot to
/// `slot(rank, payload)` in rank order as it arrives, so the root can
/// consume a piece while later ones are still on the way. A contributor
/// that died or disconnected yields `None` in its slot instead of
/// failing the whole gather; only the root sees slots. Only `Killed`
/// (this rank is dead) and a timeout remain hard errors, and end the
/// gather at that slot.
///
/// A message with another tag ahead of a source's contribution is
/// discarded and the source read again: on the raw wire a rank killed
/// right after a send leaves that message in flight, and the partner it
/// was meant for — having already found the rank dead at its own send —
/// never reads it. Behind it the link is `Disconnected`.
pub fn gather_tolerant(
    ep: &mut Endpoint,
    root: usize,
    tag: Tag,
    payload: Bytes,
    mut slot: impl FnMut(usize, Option<Bytes>),
) -> Result<(), CommError> {
    if ep.rank() == root {
        let mut own = Some(payload);
        for src in 0..ep.size() {
            if src == ep.rank() {
                slot(src, own.take());
                continue;
            }
            let got = loop {
                match ep.recv(src, tag) {
                    Ok(bytes) => break Some(bytes),
                    Err(CommError::Disconnected { .. }) => break None,
                    Err(CommError::TagMismatch { .. }) => continue,
                    Err(e) => return Err(e),
                }
            };
            slot(src, got);
        }
        Ok(())
    } else {
        match ep.send(root, tag, payload) {
            // A dead root cannot collect, and a closed link to it has
            // already told it this piece is lost; nothing left to do.
            Ok(()) | Err(CommError::Disconnected { .. }) => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// Broadcasts `payload` from `root` to every rank along a binomial tree
/// (`⌈log2 P⌉` rounds); returns the payload everywhere.
pub fn broadcast(
    ep: &mut Endpoint,
    root: usize,
    tag: Tag,
    payload: Option<Bytes>,
) -> Result<Bytes, CommError> {
    let p = ep.size();
    // Work in a rotated space where the root is rank 0.
    let me = (ep.rank() + p - root) % p;
    let data = if me == 0 {
        payload.expect("root must supply the broadcast payload")
    } else {
        // Receive from the parent: clear the lowest set bit.
        let parent = me & (me - 1);
        ep.recv((parent + root) % p, tag)?
    };
    // Forward to children: set each bit above our lowest set bit (or all
    // bits for the root) while staying in range.
    let lowest = if me == 0 {
        usize::BITS as usize
    } else {
        me.trailing_zeros() as usize
    };
    for b in (0..lowest.min(usize::BITS as usize - 1)).rev() {
        let child = me | (1 << b);
        if child < p && child != me {
            ep.send((child + root) % p, tag, data.clone())?;
        }
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::fault::{FaultConfig, KillSpec};
    use crate::group::{run_group, run_group_with, GroupOptions};
    use std::time::Duration;

    /// The slots [`gather_tolerant`] hands the root, collected by rank:
    /// `Some` at the root, `None` elsewhere.
    fn gather_slots(
        ep: &mut Endpoint,
        root: usize,
        tag: Tag,
        payload: Bytes,
    ) -> Result<Option<Vec<Option<Bytes>>>, CommError> {
        let mut slots = Vec::new();
        gather_tolerant(ep, root, tag, payload, |_, slot| slots.push(slot))?;
        Ok((ep.rank() == root).then_some(slots))
    }

    #[test]
    fn gather_collects_at_root() {
        let out = run_group(4, CostModel::free(), |ep| {
            let payload = Bytes::from(vec![ep.rank() as u8 * 10]);
            gather_slots(ep, 2, 5, payload).unwrap()
        });
        for (rank, res) in out.results.iter().enumerate() {
            if rank == 2 {
                let all = res.as_ref().unwrap();
                let vals: Vec<u8> = all.iter().map(|b| b.as_ref().unwrap()[0]).collect();
                assert_eq!(vals, vec![0, 10, 20, 30]);
            } else {
                assert!(res.is_none());
            }
        }
    }

    #[test]
    fn gather_tolerant_skips_dead_contributor() {
        let faults = FaultConfig {
            kill: Some(KillSpec {
                rank: 1,
                after_ops: 0,
            }),
            ..Default::default()
        };
        let options = GroupOptions {
            cost: CostModel::free(),
            recv_deadline: Duration::from_secs(5),
            faults: Some(faults),
            ..Default::default()
        };
        let out = run_group_with(3, options, |ep| {
            let payload = Bytes::from(vec![ep.rank() as u8]);
            gather_slots(ep, 0, 4, payload)
        });
        let root = out.results[0].as_ref().unwrap().as_ref().unwrap();
        assert_eq!(root.len(), 3);
        assert_eq!(root[0].as_ref().unwrap()[0], 0);
        assert!(root[1].is_none(), "killed rank contributes nothing");
        assert_eq!(root[2].as_ref().unwrap()[0], 2);
        assert_eq!(out.dead_ranks, vec![1]);
    }

    #[test]
    fn gather_tolerant_discards_a_dead_contributors_stale_message() {
        // Rank 1 gets one send out under another tag, then dies; nobody
        // reads that message before the gather does.
        let faults = FaultConfig {
            kill: Some(KillSpec {
                rank: 1,
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
        let out = run_group_with(3, options, |ep| {
            if ep.rank() == 1 {
                ep.send(0, 9, Bytes::from_static(b"stage")).unwrap();
            }
            gather_slots(ep, 0, 4, Bytes::from(vec![ep.rank() as u8]))
        });
        let root = out.results[0].as_ref().unwrap().as_ref().unwrap();
        assert_eq!(root[0].as_ref().unwrap()[0], 0);
        assert!(root[1].is_none(), "stale message is not a contribution");
        assert_eq!(root[2].as_ref().unwrap()[0], 2);
        assert_eq!(out.dead_ranks, vec![1]);
    }

    #[test]
    fn scatter_delivers_per_rank_payloads() {
        for p in [1, 2, 5, 8] {
            let out = run_group(p, CostModel::free(), |ep| {
                let payloads = (ep.rank() == 2.min(p - 1)).then(|| {
                    (0..p)
                        .map(|r| Bytes::from(vec![r as u8; r + 1]))
                        .collect::<Vec<_>>()
                });
                let got = scatter(ep, 2.min(p - 1), 10, payloads).unwrap();
                (got.len(), got.first().copied())
            });
            for (rank, &(len, first)) in out.results.iter().enumerate() {
                assert_eq!(len, rank + 1);
                assert_eq!(first, Some(rank as u8));
            }
        }
    }

    #[test]
    fn broadcast_reaches_every_rank() {
        for p in [1, 2, 3, 4, 7, 8, 13] {
            for root in [0, p - 1, p / 2] {
                let out = run_group(p, CostModel::free(), |ep| {
                    let payload = (ep.rank() == root).then(|| Bytes::from_static(b"hello fleet"));
                    broadcast(ep, root, 11, payload).unwrap()
                });
                for got in &out.results {
                    assert_eq!(&got[..], b"hello fleet");
                }
            }
        }
    }

    #[test]
    fn broadcast_uses_log_rounds_per_rank() {
        // No rank should send more than ⌈log2 P⌉ messages.
        let p = 16;
        let out = run_group(p, CostModel::free(), |ep| {
            let payload = (ep.rank() == 0).then(|| Bytes::from_static(b"x"));
            let _ = broadcast(ep, 0, 12, payload).unwrap();
            ep.stats().sent_messages
        });
        for &sent in &out.results {
            assert!(sent <= 4, "a rank sent {sent} messages");
        }
    }
}
