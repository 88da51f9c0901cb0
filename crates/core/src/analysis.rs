//! Closed-form cost analysis — the paper's Equations (1)–(8), each
//! stated once.
//!
//! * `stage_terms`: the per-stage compute products of Equations
//!   (1)/(3)/(5)/(7). [`CompCost`]'s `modeled_*` sums and
//!   [`virtual_completion`] add them up.
//! * `message_bytes`: the message sizes of Equations (2)/(4)/(6)/(8).
//!   The traffic oracle ([`crate::conformance::expected_traffic`]) feeds
//!   it exact counts, [`predict`] expected ones.
//! * [`predict`]: both, for the four paper methods over a
//!   [`UniformWorkload`]. Plain BS depends on no workload quantity, so its
//!   prediction is *exact* and a test pins it against the simulator; for
//!   BSBR, BSLC and BSBRC the uniform-density estimates of `A_rec^k`,
//!   `A_opaque^k` and `R_code^k` track the simulator's trends — a sanity
//!   instrument for the evaluation, not a replacement for it.

use vr_comm::CostModel;
use vr_image::rect::BYTES_PER_RECT;
use vr_image::{BYTES_PER_PIXEL, BYTES_PER_RUN_CODE};

use crate::methods::Method;
use crate::stats::{CompCost, MethodStats};

/// A predicted cost split, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Prediction {
    /// Predicted computation time (the paper's `T_comp`).
    pub comp_seconds: f64,
    /// Predicted communication time (the paper's `T_comm`).
    pub comm_seconds: f64,
}

impl Prediction {
    /// `T_total`.
    pub fn total_seconds(&self) -> f64 {
        self.comp_seconds + self.comm_seconds
    }
}

/// The modeled compute products of one stage of one rank, in seconds:
/// Equations (1)/(3)/(5)/(7) term by term. Consumers only add fields up,
/// each in its own order (float addition does not re-associate).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct StageTerms {
    /// `t_scan · bound_pixels` (`T_bound`); zero after the first stage.
    pub(crate) bound: f64,
    /// `t_encode · encoded_pixels`.
    pub(crate) encode: f64,
    /// `t_pack · sent_bytes / 16`.
    pub(crate) pack: f64,
    /// `t_unpack · recv_bytes / 16`.
    pub(crate) unpack: f64,
    /// `t_over · composite_ops` (the paper's `T_o` per `over`).
    pub(crate) over: f64,
}

/// The products of `rank`'s stage `k` under `comp`. The rank's one-time
/// scan is charged ahead of its first stage, so `k = 0` carries it even
/// for a rank that recorded no stage at all.
pub(crate) fn stage_terms(comp: &CompCost, rank: &MethodStats, k: usize) -> StageTerms {
    let stage = rank.stages.get(k).copied().unwrap_or_default();
    let once = |pixels: u64| if k == 0 { pixels as f64 } else { 0.0 };
    let pixels = |bytes: u64| bytes as f64 / BYTES_PER_PIXEL as f64;
    StageTerms {
        bound: comp.t_scan * once(rank.bound_pixels),
        encode: comp.t_encode * stage.encoded_pixels as f64,
        pack: comp.t_pack * pixels(stage.sent_bytes),
        unpack: comp.t_unpack * pixels(stage.recv_bytes),
        over: comp.t_over * stage.composite_ops as f64,
    }
}

/// Payload bytes of one binary-swap stage message: Equations
/// (2)/(4)/(6)/(8), plus BSRL, which encodes the same halves.
///
/// | method     | bytes                                                  |
/// |------------|--------------------------------------------------------|
/// | BS         | `16·pixels`                                            |
/// | BSBR       | `8 + 16·pixels`                                        |
/// | BSLC, BSRL | `4 + 2·codes + 16·non_blank`                           |
/// | BSBRC      | `8 + 4 + 2·codes + 16·non_blank`; 8 when `pixels = 0`  |
///
/// `pixels` is what the message spans (the sent half; for BSBR and BSBRC
/// its part inside the bounding rectangle, `A_send^k`), `codes` the run
/// codes (`R_code^k`), `non_blank` the pixels a run codec ships
/// (`A_opaque^k`). `None` for any other method. Counts are `f64`,
/// each term rounding down to whole bytes: exact for the oracle's
/// integral counts, and where the predictor's fractional ones truncate.
pub(crate) fn message_bytes(
    method: Method,
    pixels: f64,
    codes: f64,
    non_blank: f64,
) -> Option<usize> {
    let bytes = |count: f64, each: usize| (count * each as f64) as usize;
    let runs = 4 + bytes(codes, BYTES_PER_RUN_CODE) + bytes(non_blank, BYTES_PER_PIXEL);
    Some(match method {
        Method::Bs => bytes(pixels, BYTES_PER_PIXEL),
        Method::Bsbr => BYTES_PER_RECT + bytes(pixels, BYTES_PER_PIXEL),
        Method::Bslc | Method::Bsrl => runs,
        Method::Bsbrc if pixels == 0.0 => BYTES_PER_RECT,
        Method::Bsbrc => BYTES_PER_RECT + runs,
        _ => return None,
    })
}

/// A uniform-density workload model: non-blank pixels cover fraction
/// `density` of the image and are spread uniformly inside a bounding
/// rectangle covering fraction `rect_fraction` of each exchanged
/// region.
#[derive(Clone, Copy, Debug)]
pub struct UniformWorkload {
    /// Image pixels (`A`).
    pub a: usize,
    /// Fraction of pixels that are non-blank, in `[0, 1]`.
    pub density: f64,
    /// Fraction of each region covered by the bounding rectangle.
    pub rect_fraction: f64,
    /// Expected run codes per encoded pixel (2·ρ·(1−ρ)-ish for random
    /// scatter; much lower for coherent content).
    pub codes_per_pixel: f64,
}

/// Equations (1)–(8): `method` (a paper method) over workload `w` on `p`
/// (power-of-two) processors. Stage `k` sends a half of `A/2^k` pixels:
/// `T_comp += t_encode·encoded + (t_pack + t_unpack + t_over)·shipped`
/// and `T_comm += T_s + message_bytes·T_c`, after one `t_scan·A` scan for
/// BSBR and BSBRC. BS reads nothing of `w` but `a`.
///
/// Interleaving destroys spatial coherence, so BSLC's run codes sit at
/// the random-mixing limit `2ρ(1−ρ)` per pixel however coherent the
/// content — the effect behind the paper's observation that "the BSLC
/// method has more run-length code than the BSBRC method".
pub fn predict(
    method: Method,
    w: &UniformWorkload,
    p: usize,
    net: &CostModel,
    comp: &CompCost,
) -> Prediction {
    assert!(p.is_power_of_two());
    let mut pred = Prediction::default();
    if matches!(method, Method::Bsbr | Method::Bsbrc) {
        pred.comp_seconds += comp.t_scan * w.a as f64;
    }
    let mut half = w.a as f64 / 2.0;
    for _ in 0..p.trailing_zeros() {
        // `A_rec^k` = `A_send^k`, and `A_opaque^k`.
        let (in_rect, opaque) = (half * w.rect_fraction, half * w.density);
        let (encoded, shipped, spans, codes) = match method {
            Method::Bs => (0.0, half, half, 0.0),
            Method::Bsbr => (0.0, in_rect, in_rect, 0.0),
            Method::Bslc => {
                let mixed = 2.0 * w.density * (1.0 - w.density);
                (half, opaque, half, half * mixed.max(w.codes_per_pixel))
            }
            Method::Bsbrc => (in_rect, opaque, in_rect, in_rect * w.codes_per_pixel),
            _ => panic!("{} has no closed-form prediction", method.name()),
        };
        pred.comp_seconds +=
            comp.t_encode * encoded + (comp.t_pack + comp.t_unpack + comp.t_over) * shipped;
        let bytes = message_bytes(method, spans, codes, shipped).expect("a paper method");
        pred.comm_seconds += net.message_seconds(bytes);
        half /= 2.0;
    }
    pred
}

/// Reconstructs a **virtual-time schedule** from recorded per-stage
/// counters: each rank's completion time accounting for *waiting on its
/// partner*, not just its own work — a fidelity step beyond the paper's
/// per-processor sums (Equations (2)/(4)/(6)/(8) charge each rank only
/// for its own messages).
///
/// Supported for stage-paired schedules (the binary-swap family):
/// every stage must record its `peer`. Returns `None` when any rank has
/// a round with more than one peer (radix-k at `r > 2`) — its schedule
/// is not pairwise.
///
/// Model per stage: a rank first computes its pre-send work (scan on
/// stage 0, encoding, packing), then its message becomes available at
/// `send_time + T_s + bytes·T_c`; it resumes at
/// `max(own send_time, partner's message arrival)` and performs its
/// post-receive work (unpacking, compositing). Ranks that stop early
/// (folded ranks) simply stop advancing.
pub fn virtual_completion(
    per_rank: &[MethodStats],
    net: &CostModel,
    comp: &CompCost,
) -> Option<Vec<f64>> {
    let p = per_rank.len();
    let max_stages = per_rank.iter().map(|s| s.stages.len()).max()?;
    let mut vt = vec![0.0f64; p];
    let (mut own_send, mut avail, mut post) = (vt.clone(), vt.clone(), vt.clone());
    for k in 0..max_stages {
        // First pass: when every rank issues its send (after its scan on
        // stage 0, encoding and packing), when that
        // message is available to the partner, and the post-receive work.
        avail.fill(f64::INFINITY);
        for (r, rank) in per_rank.iter().enumerate() {
            let Some(stage) = rank.stages.get(k) else {
                continue;
            };
            let t = stage_terms(comp, rank, k);
            own_send[r] = vt[r] + (t.bound + t.encode + t.pack);
            avail[r] = match stage.sent_bytes {
                0 => own_send[r],
                sent => own_send[r] + net.message_seconds(sent as usize),
            };
            post[r] = t.unpack + t.over;
        }
        // Second pass: resume times after the exchange.
        for (r, rank) in per_rank.iter().enumerate() {
            let Some(stage) = rank.stages.get(k) else {
                continue;
            };
            let resume = if stage.recv_bytes > 0 {
                let peer = stage.peer? as usize;
                if peer >= p {
                    return None;
                }
                own_send[r].max(avail[peer])
            } else {
                own_send[r]
            };
            vt[r] = resume + post[r];
        }
    }
    Some(vt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_comm::run_group;
    use vr_image::{Image, Pixel};
    use vr_volume::DepthOrder;

    /// BS reads only `a`; the other fields say "everything is shipped".
    fn bs_workload(a: usize) -> UniformWorkload {
        UniformWorkload {
            a,
            density: 1.0,
            rect_fraction: 1.0,
            codes_per_pixel: 0.0,
        }
    }

    /// Equation (9) under the uniform model: the two robust ordering
    /// links plus near-equality of the BSBRC/BSLC pair.
    ///
    /// A *uniform* workload has no spatial load imbalance, which is the
    /// very thing that puts `M_max(BSLC)` below `M_max(BSBRC)` in the
    /// paper's measurements; without it the two are within run-code
    /// noise of each other (the paper's own P = 2 caveat). The code
    /// overhead is bounded by `2·2ρ(1−ρ)` bytes against a `16ρ` payload,
    /// i.e. at most `(1−ρ)/4 ≤ 25%`, so the third component reports
    /// "within 25%" rather than `≥`.
    fn m_max_ordering(
        w: &UniformWorkload,
        p: usize,
        net: &CostModel,
        comp: &CompCost,
    ) -> (bool, bool, bool) {
        let [bs, bsbr, bslc, bsbrc] =
            Method::paper_methods().map(|m| predict(m, w, p, net, comp).comm_seconds);
        let near = (bsbrc - bslc).abs() <= 0.25 * bslc.max(bsbrc);
        // When the bounding rectangle degenerates to the full half, BSBR
        // equals BS plus its 8-byte headers, which Equation (9)'s model
        // does not charge.
        let header_slack = p.trailing_zeros() as f64 * 8.0 * net.t_c;
        (
            bs + header_slack >= bsbr,
            bsbr >= bsbrc,
            bsbrc >= bslc || near,
        )
    }

    #[test]
    fn bs_prediction_matches_simulation_exactly() {
        let (p, size) = (8usize, 32u16);
        let a = size as usize * size as usize;
        let net = CostModel::sp2();
        let comp = CompCost::power2();
        let images: Vec<Image> = (0..p)
            .map(|r| {
                Image::from_fn(size, size, |x, y| {
                    if (x + y * 3 + r as u16).is_multiple_of(7) {
                        Pixel::gray(0.4, 0.6)
                    } else {
                        Pixel::BLANK
                    }
                })
            })
            .collect();
        let depth = DepthOrder::identity(p);
        let out = run_group(p, net, |ep| {
            let mut img = images[ep.rank()].clone();
            crate::methods::composite(Method::Bs, ep, &mut img, &depth)
                .unwrap()
                .stats
        });
        let predicted = predict(Method::Bs, &bs_workload(a), p, &net, &comp);
        for stats in &out.results {
            assert!((stats.comm_seconds - predicted.comm_seconds).abs() < 1e-12);
            assert!((comp.modeled_seconds(stats) - predicted.comp_seconds).abs() < 1e-9);
        }
    }

    #[test]
    fn predictor_and_oracle_charge_an_all_blank_bsbrc_half_its_header_alone() {
        // Equation (8) with `A_send = 0`: the 8-byte rectangle, no code
        // count behind it — what the codec sends and the oracle expects.
        use crate::conformance::{expected_traffic, non_blank_masks};
        let masks = non_blank_masks(&[Image::blank(8, 8), Image::blank(8, 8)]);
        let depth = DepthOrder::identity(2);
        let net = CostModel::sp2();
        let oracle = expected_traffic(Method::Bsbrc, &masks, 8, &depth, net).unwrap();
        let sent: Vec<u64> = oracle
            .per_rank
            .iter()
            .map(MethodStats::sent_bytes)
            .collect();
        assert_eq!(sent, [8, 8]);
        let blank = UniformWorkload {
            a: 64,
            density: 0.0,
            rect_fraction: 0.0,
            codes_per_pixel: 0.0,
        };
        let predicted = predict(Method::Bsbrc, &blank, 2, &net, &CompCost::power2());
        assert_eq!(predicted.comm_seconds, net.message_seconds(8));
        assert!(oracle
            .per_rank
            .iter()
            .all(|s| s.comm_seconds == predicted.comm_seconds));
    }

    #[test]
    fn uniform_model_reproduces_equation_9_ordering() {
        let net = CostModel::sp2();
        let comp = CompCost::power2();
        for density in [0.05, 0.2, 0.5] {
            let w = UniformWorkload {
                a: 384 * 384,
                density,
                rect_fraction: (density * 4.0).min(1.0),
                codes_per_pixel: 2.0 * density * (1.0 - density),
            };
            let (a, b, c) = m_max_ordering(&w, 16, &net, &comp);
            assert!(
                a && b && c,
                "ordering broken at density {density}: {a} {b} {c}"
            );
        }
    }

    #[test]
    fn sparse_workload_favors_bsbrc_over_bsbr() {
        // The Cube regime: large sparse rectangle.
        let net = CostModel::sp2();
        let comp = CompCost::power2();
        let w = UniformWorkload {
            a: 384 * 384,
            density: 0.05,
            rect_fraction: 0.8,
            codes_per_pixel: 0.02,
        };
        let bsbr = predict(Method::Bsbr, &w, 16, &net, &comp);
        let bsbrc = predict(Method::Bsbrc, &w, 16, &net, &comp);
        assert!(bsbrc.total_seconds() < bsbr.total_seconds());
    }

    #[test]
    fn dense_workload_makes_bslc_comp_dominate() {
        // The paper's Table 1 story: BSLC's encode of the full half
        // dominates its total despite the smallest comm.
        let net = CostModel::sp2();
        let comp = CompCost::power2();
        let w = UniformWorkload {
            a: 384 * 384,
            density: 0.35,
            rect_fraction: 0.5,
            codes_per_pixel: 0.05,
        };
        let bslc = predict(Method::Bslc, &w, 16, &net, &comp);
        let bsbrc = predict(Method::Bsbrc, &w, 16, &net, &comp);
        assert!(bslc.comp_seconds > bsbrc.comp_seconds);
        assert!(bslc.total_seconds() > bsbrc.total_seconds());
    }

    #[test]
    fn virtual_completion_bounds_per_rank_sums() {
        // Completion with waiting must be at least each rank's own
        // comp+comm sum, and at most the group-wide serial sum.
        let (p, size) = (8usize, 32u16);
        let net = CostModel::sp2();
        let comp = CompCost::power2();
        let images: Vec<Image> = (0..p)
            .map(|r| {
                Image::from_fn(size, size, |x, y| {
                    if (x * 3 + y + r as u16 * 5).is_multiple_of(9) {
                        Pixel::gray(0.5, 0.5)
                    } else {
                        Pixel::BLANK
                    }
                })
            })
            .collect();
        let depth = DepthOrder::identity(p);
        for method in [Method::Bs, Method::Bsbrc, Method::Bslc] {
            let out = run_group(p, net, |ep| {
                let mut img = images[ep.rank()].clone();
                crate::methods::composite(method, ep, &mut img, &depth)
                    .unwrap()
                    .stats
            });
            let stats = out.results;
            let vt = virtual_completion(&stats, &net, &comp)
                .unwrap_or_else(|| panic!("{method:?} should support virtual time"));
            assert_eq!(vt.len(), p);
            let serial: f64 = stats
                .iter()
                .map(|s| comp.modeled_seconds(s) + s.comm_seconds)
                .sum();
            for (r, &t) in vt.iter().enumerate() {
                let own = comp.modeled_seconds(&stats[r]);
                assert!(
                    t >= own - 1e-12,
                    "{method:?} rank {r}: {t} < own work {own}"
                );
                assert!(
                    t <= serial + 1e-9,
                    "{method:?} rank {r}: {t} > serial {serial}"
                );
            }
        }
    }

    #[test]
    fn virtual_completion_rejects_multi_peer_schedules() {
        // Radix-k's rounds are [4] at P = 4 and [4, 2] at P = 8: the first
        // has three peers.
        let size = 16u16;
        let net = CostModel::sp2();
        let comp = CompCost::power2();
        for p in [4usize, 8] {
            let image = Image::from_fn(size, size, |_, _| Pixel::gray(0.5, 0.5));
            let depth = DepthOrder::identity(p);
            let out = run_group(p, net, |ep| {
                let mut img = image.clone();
                crate::methods::composite(Method::RadixK, ep, &mut img, &depth)
                    .unwrap()
                    .stats
            });
            assert!(virtual_completion(&out.results, &net, &comp).is_none());
        }
    }

    #[test]
    fn balanced_exchange_waits_for_the_slower_partner() {
        // Rank 1 has far more content → rank 0's completion includes
        // waiting for rank 1's bigger message.
        let net = CostModel {
            t_s: 1e-3,
            t_c: 1e-6,
        };
        let comp = CompCost::power2();
        let images = [
            Image::blank(32, 32),
            Image::from_fn(32, 32, |_, _| Pixel::gray(0.5, 0.5)),
        ];
        let depth = DepthOrder::identity(2);
        let out = run_group(2, net, |ep| {
            let mut img = images[ep.rank()].clone();
            crate::methods::composite(Method::Bsbrc, ep, &mut img, &depth)
                .unwrap()
                .stats
        });
        let vt = virtual_completion(&out.results, &net, &comp).unwrap();
        // Rank 0 received rank 1's dense half: its completion exceeds
        // its own tiny work by roughly the partner's encode+message.
        let own0 = comp.modeled_seconds(&out.results[0]);
        assert!(
            vt[0] > own0 + 1e-3,
            "rank 0 must wait on rank 1: {} vs {}",
            vt[0],
            own0
        );
    }

    #[test]
    fn bs_prediction_saturates_with_p() {
        let net = CostModel::sp2();
        let comp = CompCost::power2();
        let a = 384 * 384;
        let w = bs_workload(a);
        let t2 = predict(Method::Bs, &w, 2, &net, &comp).total_seconds();
        let t64 = predict(Method::Bs, &w, 64, &net, &comp).total_seconds();
        // Σ A/2^k grows from A/2 towards A: less than 2× total growth.
        assert!(t64 > t2 && t64 < 2.2 * t2, "t2={t2}, t64={t64}");
    }
}
