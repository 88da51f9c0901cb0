//! The binary-swap schedule, written once.
//!
//! Ma et al.'s binary swap pairs processors over `log P` stages; at each
//! stage a pair splits what it owns, each member keeps one half, sends
//! the other and composites what arrives in front of or behind the half
//! it kept. The paper's methods (Section 3) are this schedule with a
//! different encoding of the sent half each — Section 3.4 defines BSBRC
//! as BSBR's rectangle ∘ BSLC's run-length codes — so [`run`] drives any
//! [`StageCodec`] and never learns which method it is running. It owns
//! the fold, the stage loop, the exchange, dead partners, the message
//! counters and the stopwatches; a codec owns how the halves are derived,
//! the bytes of the sent half, the check and merge of the received ones
//! and the piece left at the end. `super::composite` is the table of
//! method → codec.

use bytes::Bytes;
use vr_comm::Endpoint;
use vr_image::{Image, MaskRle};
use vr_volume::DepthOrder;

use crate::error::{try_exchange, Checked, CompositeError, Malformed};
use crate::schedule::{fold_into_pow2, tags, FoldOutcome, VirtualTopology};
use crate::stats::StageStat;
use crate::timer::Stopwatch;
use crate::wire::MsgReader;

use super::{CompositeResult, OwnedPiece, Run};

/// Picks the stopwatch of a [`Run`] that a codec's encode is charged to.
pub(crate) type Charge = fn(&mut Run) -> &mut Stopwatch;

/// What differs between the binary-swap methods: one stage's split,
/// encode and merge, plus the state carried from stage to stage.
pub(crate) trait StageCodec: Sized {
    /// `comp` for a plain copy, `encode` for run-length coding.
    const CHARGE: Charge;
    /// Whether a dead partner reads as an empty receiving rectangle
    /// (`[B(k)] = 0`): true for the codecs that send one. Either way the
    /// kept half stands alone that stage.
    const DEAD_IS_EMPTY: bool;

    /// One-time setup on a rank that takes part in the swap, after the
    /// fold: the scans a method pays once (`T_bound`, BSLC's run table).
    fn begin(image: &Image, run: &mut Run) -> Self;

    /// Splits what this rank owns once more, keeps the low or the high
    /// half and returns the other as wire bytes; fills `encoded_pixels`
    /// and `run_codes`.
    fn encode(&mut self, image: &Image, keep_low: bool, stat: &mut StageStat) -> Bytes;

    /// Checks `received` against the kept half — every header, count and
    /// length — and only then composites it in front of (`front`) or
    /// behind the local pixels; fills `composite_ops` and
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

    /// Peak bytes of pixel staging held (zero for the codecs that write
    /// and composite straight from image rows and wire bytes).
    fn staging_peak_bytes(&self) -> u64 {
        0
    }
}

/// Runs binary swap with codec `C`: fold to a power of two, then `log Q`
/// exchange stages; `during` names a stage in errors (`"BSBR stage"`).
pub(crate) fn run<C: StageCodec>(
    ep: &mut Endpoint,
    image: &mut Image,
    depth: &DepthOrder,
    during: &'static str,
) -> Result<CompositeResult, CompositeError> {
    let mut run = Run::begin(ep);
    let topo = VirtualTopology::from_depth(ep.rank(), depth);
    let folded = fold_into_pow2(
        ep,
        image,
        &topo,
        &mut run.comp,
        &mut run.stages,
        &mut run.dead,
    )?;
    let FoldOutcome::Active(topo) = folded else {
        return Ok(run.finish(ep, OwnedPiece::Nothing));
    };

    let mut codec = C::begin(image, &mut run);
    for stage in 0..topo.stages() {
        let vpartner = topo.partner(stage);
        let partner = topo.real(vpartner);
        let mut stat = StageStat {
            sent_msgs: 1,
            peer: Some(partner as u16),
            ..Default::default()
        };
        let keep_low = topo.keeps_low(stage);
        let payload = C::CHARGE(&mut run).time(|| codec.encode(image, keep_low, &mut stat));
        stat.sent_bytes = payload.len() as u64;

        // The exchange always happens (an empty half is still a header);
        // a dead partner contributes nothing and leaves a hole.
        let tag = tags::STAGE_BASE + stage as u32;
        match try_exchange(ep, partner, tag, payload, &mut run.dead, during)? {
            Some(received) => {
                stat.recv_bytes = received.len() as u64;
                stat.recv_msgs = 1;
                let front = topo.received_is_front(vpartner);
                run.comp
                    .time(|| codec.merge(image, received, front, &mut stat))
                    .map_err(|m| m.at(during, partner))?;
            }
            None => stat.recv_rect_empty = C::DEAD_IS_EMPTY,
        }
        run.stages.push(stat);
    }

    ep.note_pixel_buffer_peak(codec.staging_peak_bytes());
    Ok(run.finish(ep, codec.piece()))
}

/// Reads a run-length header — `u32` code count, then the 2-byte codes —
/// whose runs must lie inside a sequence of `domain` pixels; returns the
/// codes and the number of non-blank pixels they announce.
pub(crate) fn read_runs(r: &mut MsgReader, domain: usize) -> Checked<(MaskRle, usize)> {
    let ncodes = r.get_u32()? as usize;
    let rle = MaskRle::from_codes(r.get_codes(ncodes)?);
    let (total, end) = rle
        .non_blank_runs()
        .fold((0, 0), |(total, _), (start, len)| {
            (total + len, start + len)
        });
    Malformed::unless(end <= domain)?;
    Ok((rle, total))
}

#[cfg(test)]
mod tests {
    use super::super::testutil::check_against_reference;
    use crate::methods::Method::{self, *};
    use vr_volume::DepthOrder;

    /// Every swap method against the sequential reference: `(method,
    /// width, height, group sizes)` under the identity depth order —
    /// powers of two and, through the fold, the rest.
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
}
