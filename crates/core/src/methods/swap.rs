//! The stage loop, written once.
//!
//! Ma et al.'s binary swap pairs processors over `log P` stages; at each
//! stage a pair splits what it owns, each member keeps one half, sends
//! the other and composites what arrives in front of or behind the half
//! it kept. The paper's methods (Section 3) are this schedule with a
//! different encoding of the sent half each — Section 3.4 defines BSBRC
//! as BSBR's rectangle ∘ BSLC's run-length codes — so [`run`] drives any
//! [`StageCodec`] and never learns which method it is running.
//!
//! A stage is the radix-2 case of a *round*: groups of `r` ranks split
//! their region into `r` parts, every member keeps one, sends the other
//! `r − 1` to their owners and composites what arrives in depth order. A
//! method is a codec plus a round vector ([`Rounds`]). Binary swap folds
//! `P` onto a power of two `Q` and runs `[2; log Q]`. Radix-k (Peterka et
//! al.'s generalization of binary swap, which descends from the methods
//! this paper studies) runs [`round_radices`]`(P)` with no fold: fewer
//! rounds and more messages per round, the trade that pays where `T_s` is
//! cheap and that the paper's SP2 charged for.
//!
//! The driver owns the fold, the rounds, the sends and receives, dead
//! peers, the message counters and the stopwatches; a codec owns how its
//! region is cut, the bytes of a sent part, the check and merge of a
//! received one and the piece left at the end. `super::composite` is the
//! table of method → codec and round vector.

use bytes::Bytes;
use vr_comm::Endpoint;
use vr_image::{Image, Rect};
use vr_volume::DepthOrder;

use crate::error::{try_recv, try_send, Checked, CompositeError};
use crate::runner::Canvas;
use crate::schedule::{fold_on, tags, FoldOutcome, VirtualTopology};
use crate::stats::StageStat;
use crate::timer::Stopwatch;

use super::{CompositeResult, OwnedPiece, Run};

/// Picks the stopwatch of a [`Run`] that a codec's encode is charged to.
pub(crate) type Charge = fn(&mut Run) -> &mut Stopwatch;

/// What differs between the methods: one round's split, encode and
/// merge, plus the state carried from round to round. The counters a
/// codec fills add up over a round's parts and arrivals.
pub(crate) trait StageCodec: Sized {
    /// `comp` for a plain copy, `encode` for run-length coding.
    const CHARGE: Charge;
    /// Whether a dead peer reads as an empty receiving rectangle
    /// (`[B(k)] = 0`): true for the codecs that send one. Either way the
    /// kept part stands alone that round.
    const DEAD_IS_EMPTY: bool;

    /// One-time setup on a rank that takes part in the rounds, after the
    /// fold: the scans a method pays once (`T_bound`, BSLC's run table).
    fn begin(image: &Image, run: &mut Run) -> Self;

    /// Cuts what this rank owns into `radix` parts for round `round` and
    /// keeps part `digit`.
    fn split(&mut self, round: usize, radix: usize, digit: usize);

    /// The rectangle that holds every pixel this rank reads or writes
    /// after the latest split: the working frame copies only this much of
    /// the subimage. The whole frame unless the codec knows better.
    fn kept(&self, image: &Image) -> Rect {
        image.full_rect()
    }

    /// The wire bytes of part `part` of the latest split, never the kept
    /// one; adds to `encoded_pixels` and `run_codes`.
    fn encode(&mut self, image: &Image, part: usize, stat: &mut StageStat) -> Bytes;

    /// Checks `received` against the kept part — every header, count and
    /// length — and only then composites it in front of (`front`) or
    /// behind the local pixels; adds to `composite_ops` and ORs into
    /// `recv_rect_empty`.
    fn merge(
        &mut self,
        image: &mut Image,
        received: Bytes,
        front: bool,
        stat: &mut StageStat,
    ) -> Checked<()>;

    /// What this rank owns now.
    fn piece(&self) -> OwnedPiece;
}

/// A method's round vector.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Rounds {
    /// Binary swap: fold onto the largest power of two `Q ≤ P`, then
    /// `log Q` rounds of radix 2.
    Swap,
    /// Radix-k: [`round_radices`]`(P)`, no fold.
    RadixK,
}

/// Factors `p` into per-round radices: greedy factors of 4, 3, 2; any
/// remaining prime becomes its own round.
pub(crate) fn round_radices(mut p: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for f in [4usize, 3, 2] {
        while p.is_multiple_of(f) && p > 1 {
            out.push(f);
            p /= f;
        }
    }
    if p > 1 {
        out.push(p);
    }
    out
}

/// Runs codec `C` over the round vector `rounds`; `during` names a round
/// in errors (`"BSBR stage"`).
///
/// The canvas's subimage is read in place until the first round's parts
/// are sent; only then is the working frame made, holding the part the
/// codec kept ([`StageCodec::kept`]), and the first merge writes it.
pub(crate) fn run<C: StageCodec>(
    ep: &mut Endpoint,
    canvas: &mut Canvas,
    depth: &DepthOrder,
    rounds: Rounds,
    during: &'static str,
) -> Result<CompositeResult, CompositeError> {
    let mut run = Run::begin(ep);
    let topo = VirtualTopology::from_depth(ep.rank(), depth);
    let (topo, radices) = match rounds {
        Rounds::Swap => {
            let folded = fold_on(
                ep,
                canvas,
                &topo,
                &mut run.comp,
                &mut run.stages,
                &mut run.dead,
            )?;
            let FoldOutcome::Active(topo) = folded else {
                return Ok(run.finish(ep, OwnedPiece::Nothing));
            };
            let radices = vec![2; topo.stages()];
            (topo, radices)
        }
        Rounds::RadixK => {
            let radices = round_radices(topo.vsize());
            (topo, radices)
        }
    };

    let mut codec = C::begin(canvas.image(), &mut run);
    let v = topo.vrank();
    // After round `j` a rank's partial covers a contiguous block of
    // `stride` virtual ranks, so digit order is depth order.
    let mut stride = 1;
    let mut outgoing: Vec<(usize, Bytes)> = Vec::new();
    let mut arrivals: Vec<(usize, Bytes)> = Vec::new();
    for (round, &radix) in radices.iter().enumerate() {
        let digit = (v / stride) % radix;
        let peer = |d: usize| topo.real(v - digit * stride + d * stride);
        let foreign = (0..radix).filter(|&d| d != digit);
        let tag = tags::STAGE_BASE + round as u32;
        let mut stat = StageStat {
            sent_msgs: radix as u64 - 1,
            peer: (radix == 2).then(|| peer(1 - digit) as u16),
            ..Default::default()
        };
        // The round's send side is one section: a stopwatch read is a
        // system call.
        let image = canvas.image();
        C::CHARGE(&mut run).time(|| {
            codec.split(round, radix, digit);
            for d in foreign.clone() {
                outgoing.push((d, codec.encode(image, d, &mut stat)));
            }
        });

        // Every part is sent (an empty one is still a header) before any
        // is read; a dead peer contributes nothing and leaves a hole.
        for (d, payload) in outgoing.drain(..) {
            stat.sent_bytes += payload.len() as u64;
            try_send(ep, peer(d), tag, payload, &mut run.dead)?;
        }
        // Past the first round's encodes the rank reads only what it
        // kept: the working frame is made of that (once).
        canvas.keep(&codec.kept(canvas.image()));
        for d in foreign {
            match try_recv(ep, peer(d), tag, &mut run.dead, during)? {
                Some(received) => {
                    stat.recv_bytes += received.len() as u64;
                    stat.recv_msgs += 1;
                    arrivals.push((d, received));
                }
                None => stat.recv_rect_empty |= C::DEAD_IS_EMPTY,
            }
        }

        // Depth order: what lies behind in ascending digit order with
        // `under`, then what lies in front in descending order with `over`.
        let fronts = arrivals.partition_point(|&(d, _)| d < digit);
        arrivals[..fronts].reverse();
        arrivals.rotate_left(fronts);
        let image = canvas.frame();
        for (d, received) in arrivals.drain(..) {
            run.comp
                .time(|| codec.merge(image, received, d < digit, &mut stat))
                .map_err(|m| m.at(during, peer(d)))?;
        }
        stride *= radix;
        run.stages.push(stat);
    }

    Ok(run.finish(ep, codec.piece()))
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{check_against_reference, run_method, test_images};
    use super::round_radices;
    use crate::error::CompositeError;
    use crate::methods::composite;
    use crate::methods::Method::{self, *};
    use vr_comm::{run_group, run_group_with, CostModel, GroupOptions};
    use vr_image::{Image, Pixel};
    use vr_volume::DepthOrder;

    /// Every method the driver runs against the sequential reference:
    /// `(method, width, height, group sizes)` under the identity depth
    /// order — powers of two and, through the fold or radix-k's rounds,
    /// the rest.
    const IDENTITY_DEPTH: &[(Method, u16, u16, &[usize])] = &[
        (Bs, 32, 24, &[2, 4, 8]),
        (Bs, 24, 24, &[3, 5, 6, 7]),
        (Bsbr, 32, 24, &[2, 4, 8, 16]),
        (Bsbr, 24, 24, &[3, 6, 12]),
        (Bslc, 32, 24, &[2, 4, 8, 16]),
        (Bslc, 24, 24, &[3, 5, 6]),
        (Bsbrc, 32, 24, &[2, 4, 8, 16, 32]),
        (Bsbrc, 24, 24, &[3, 5, 6, 7, 12]),
        (Bsrl, 32, 24, &[2, 4, 8, 16]),
        (RadixK, 32, 24, &[2, 4, 8, 16]),
        (RadixK, 36, 24, &[3, 6, 9, 12]),
        (RadixK, 33, 22, &[5, 7, 11]),
    ];

    /// `(method, width, height, front-to-back order)`: shuffled depth
    /// orders, three of them on non-power-of-two groups.
    const SHUFFLED_DEPTH: &[(Method, u16, u16, &[usize])] = &[
        (Bs, 20, 20, &[3, 1, 0, 2]),
        (Bsbr, 28, 36, &[5, 2, 7, 0, 3, 6, 1, 4]),
        // Designed to move the bounds: the local bounding rectangle must
        // still cover every non-blank kept pixel without a rescan.
        (Bsbr, 40, 40, &[1, 3, 5, 7, 0, 2, 4, 6]),
        (Bslc, 36, 28, &[2, 6, 0, 4, 1, 5, 3, 7]),
        (Bsbrc, 40, 32, &[7, 3, 5, 1, 6, 2, 4, 0]),
        (Bsrl, 24, 28, &[4, 1, 3, 0, 2]),
        (Bsbrc, 28, 20, &[4, 1, 5, 0, 2, 3]),
        (Bsbr, 28, 20, &[4, 1, 5, 0, 2, 3]),
        (RadixK, 32, 32, &[5, 2, 7, 0, 3, 6, 1, 4]),
    ];

    #[test]
    fn swap_methods_match_reference() {
        for &(method, w, h, sizes) in IDENTITY_DEPTH {
            for &p in sizes {
                check_against_reference(method, p, w, h, &DepthOrder::identity(p));
            }
        }
        for &(method, w, h, order) in SHUFFLED_DEPTH {
            let depth = DepthOrder::from_sequence(order.to_vec());
            check_against_reference(method, order.len(), w, h, &depth);
        }
    }

    #[test]
    fn radices_factorize() {
        assert_eq!(round_radices(1), Vec::<usize>::new());
        assert_eq!(round_radices(2), vec![2]);
        assert_eq!(round_radices(8), vec![4, 2]);
        assert_eq!(round_radices(64), vec![4, 4, 4]);
        assert_eq!(round_radices(12), vec![4, 3]);
        assert_eq!(round_radices(6), vec![3, 2]);
        assert_eq!(round_radices(7), vec![7]);
        assert_eq!(round_radices(10), vec![2, 5]);
        for p in 1..=64usize {
            assert_eq!(round_radices(p).iter().product::<usize>().max(1), p.max(1));
        }
    }

    #[test]
    fn radix_uses_fewer_rounds_than_binary_swap() {
        let p = 16;
        let images = test_images(p, 32, 32);
        let depth = DepthOrder::identity(p);
        let rounds = |m: Method| {
            run_group(p, CostModel::free(), |ep| {
                let mut img = images[ep.rank()].clone();
                composite(m, ep, &mut img, &depth)
                    .unwrap()
                    .stats
                    .stages
                    .len()
            })
            .results[0]
        };
        assert_eq!(rounds(RadixK), 2); // 16 = 4 × 4
        assert_eq!(rounds(Bs), 4); // log2 16
    }

    /// A radix-4 round: three parts out, three arrivals in, every counter
    /// summed over them and no single peer to record.
    #[test]
    fn a_wide_round_sums_its_counters_over_every_arrival() {
        let images = vec![Image::from_fn(16, 8, |_, _| Pixel::gray(0.5, 0.5)); 4];
        for res in run_method(RadixK, &images, &DepthOrder::identity(4)) {
            let [stage] = res.stats.stages[..] else {
                panic!("P = 4 is one round of 4");
            };
            // Dense: every strip is 4 × 8 pixels behind an 8-byte header.
            let part = 8 + 4 * 8 * 16;
            assert_eq!((stage.sent_msgs, stage.recv_msgs), (3, 3));
            assert_eq!((stage.sent_bytes, stage.recv_bytes), (3 * part, 3 * part));
            assert_eq!(stage.composite_ops, 3 * 4 * 8);
            assert_eq!(stage.peer, None);
            assert!(!stage.recv_rect_empty);
        }
    }

    /// Radix-k at P = 8 runs `[4, 2]`: its pair round records the peer,
    /// symmetrically, and its wide round records none.
    #[test]
    fn only_pair_rounds_record_a_peer() {
        let out = run_method(RadixK, &test_images(8, 32, 24), &DepthOrder::identity(8));
        for (rank, res) in out.iter().enumerate() {
            assert_eq!(res.stats.stages[0].peer, None);
            let peer = res.stats.stages[1].peer.expect("a pair round") as usize;
            assert_eq!(out[peer].stats.stages[1].peer, Some(rank as u16));
        }
    }

    /// A peer killed before a radix-4 round: each survivor still counts
    /// three parts sent, receives two, reads the missing arrival as an
    /// empty rectangle and names the dead peer.
    #[test]
    fn a_dead_peer_in_a_wide_round_is_a_hole() {
        let images = test_images(4, 16, 8);
        let options = GroupOptions {
            cost: CostModel::free(),
            faults: Some("kill=3@0".parse().unwrap()),
            ..Default::default()
        };
        let out = run_group_with(4, options, |ep| {
            let mut img = images[ep.rank()].clone();
            composite(RadixK, ep, &mut img, &DepthOrder::identity(4))
        });
        for res in &out.results[..3] {
            let res = res.as_ref().expect("a survivor");
            assert_eq!(res.dead_partners, [3]);
            let stage = res.stats.stages[0];
            assert_eq!((stage.sent_msgs, stage.recv_msgs), (3, 2));
            assert!(stage.recv_rect_empty);
        }
        assert!(matches!(
            out.results[3],
            Err(CompositeError::Killed { rank: 3 })
        ));
    }
}
