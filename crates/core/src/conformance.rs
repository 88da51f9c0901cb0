//! Differential conformance harness: every compositing method against
//! the sequential reference, under deterministic virtual-time schedules.
//!
//! The paper's central claim is that BSBR/BSLC/BSBRC produce the *same
//! image* as plain binary-swap while moving fewer bytes (Equations (2),
//! (4), (6) and (8)). This module packages that claim as a reusable
//! oracle:
//!
//! * [`run_case`] executes one `(method, P, workload, depth, schedule,
//!   faults)` configuration through the pipeline's own frame runner
//!   ([`crate::runner`]) and reports the gathered image, its hash, the
//!   deviation from [`reference_composite`], every rank's typed failure
//!   and the schedule trace;
//! * [`expected_traffic`] computes, *without running the methods* and
//!   from the ranks' non-blank masks alone, the exact per-stage byte
//!   counts the four paper methods (plus BSRL) must put on the wire —
//!   bounding rectangles evolve by pure rectangle algebra and non-blank
//!   masks by `OR`. That `OR`, like BSLC's `kept ∪ recv`, is the paper's
//!   accounting, which execution and the oracle share; it is not an exact
//!   record of the merged bits (a blank pixel over a `(-0.0, 0, 0, 0)`
//!   one is `Pixel::BLANK`);
//! * [`CorpusEntry`] round-trips a failing `(case, seed, prefix)` into
//!   one line of a checked-in regression corpus that replays the exact
//!   schedule and asserts the exact image hash.

use std::fmt;
use std::str::FromStr;

use vr_comm::{
    CostModel, FaultConfig, GroupOptions, ReliabilityConfig, ScheduleSpec, ScheduleTrace,
};
use vr_image::{Image, MaskRle, Pixel, Rect, StridedSeq};
use vr_volume::DepthOrder;

use crate::analysis::message_bytes;
use crate::methods::Method;
use crate::reference::reference_composite;
use crate::runner::{composite_frame, Outcome};
use crate::schedule::strip;
use crate::stats::{MethodStats, StageStat};

/// Deterministic synthetic workloads for conformance runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Each rank covers a diagonal stripe plus a small blob — the sparse
    /// regime the paper's methods are designed for.
    Sparse,
    /// Every pixel of every rank is non-blank — the worst case where
    /// BSBR/BSLC/BSBRC degenerate to (slightly worse than) plain BS.
    Dense,
    /// Each rank fills one horizontal band — disjoint footprints with
    /// empty-rectangle stages, exercising the `[B(k)] = 0` branches.
    Bands,
}

impl Workload {
    /// All workloads, in corpus-name order.
    pub fn all() -> [Workload; 3] {
        [Workload::Sparse, Workload::Dense, Workload::Bands]
    }

    /// The corpus token for this workload.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sparse => "sparse",
            Workload::Dense => "dense",
            Workload::Bands => "bands",
        }
    }

    /// Builds the `P` per-rank subimages for this workload.
    ///
    /// Non-blank pixels always carry strictly positive alpha, which is
    /// what makes the non-blank mask of any `over` composition the exact
    /// `OR` of the contributing masks (see [`expected_traffic`]).
    pub fn images(self, p: usize, width: u16, height: u16) -> Vec<Image> {
        (0..p)
            .map(|r| {
                Image::from_fn(width, height, |x, y| match self {
                    Workload::Sparse => {
                        let stripe = (x as usize + y as usize * 3 + r * 7) % (p * 4) < 3;
                        let blob = {
                            let cx = (r * 13 + 5) % width as usize;
                            let cy = (r * 29 + 11) % height as usize;
                            let dx = x as i32 - cx as i32;
                            let dy = y as i32 - cy as i32;
                            dx * dx + dy * dy < 30
                        };
                        if stripe || blob {
                            Pixel::gray(
                                0.2 + 0.6 * (r as f32 / p as f32),
                                0.25 + 0.5 * (r as f32 / p as f32),
                            )
                        } else {
                            Pixel::BLANK
                        }
                    }
                    Workload::Dense => Pixel::gray(
                        0.1 + 0.8 * ((x as usize + y as usize + r) % 17) as f32 / 17.0,
                        0.3 + 0.4 * (r as f32 / p.max(1) as f32),
                    ),
                    Workload::Bands => {
                        let h = height as usize;
                        let y0 = r * h / p;
                        let y1 = (r + 1) * h / p;
                        if (y as usize) >= y0 && (y as usize) < y1 {
                            Pixel::gray(0.15 + 0.7 * (r as f32 / p as f32), 0.9)
                        } else {
                            Pixel::BLANK
                        }
                    }
                })
            })
            .collect()
    }
}

/// The communication cost model of a conformance case, by name (the
/// corpus stores names, not floats).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostKind {
    /// Zero latency and bandwidth cost: every send is ready at the same
    /// virtual instant, maximising schedule choice points.
    Free,
    /// The paper's SP2 High Performance Switch calibration.
    Sp2,
}

impl CostKind {
    /// The corpus token.
    pub fn name(self) -> &'static str {
        match self {
            CostKind::Free => "free",
            CostKind::Sp2 => "sp2",
        }
    }

    /// The actual cost model.
    pub fn model(self) -> CostModel {
        match self {
            CostKind::Free => CostModel::free(),
            CostKind::Sp2 => CostModel::sp2(),
        }
    }
}

/// One fully-specified conformance configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ConformanceCase {
    /// Compositing method under test.
    pub method: Method,
    /// Number of ranks.
    pub p: usize,
    /// Image width.
    pub width: u16,
    /// Image height.
    pub height: u16,
    /// Synthetic workload.
    pub workload: Workload,
    /// Front-to-back visibility order over the ranks.
    pub depth: DepthOrder,
    /// Run the reliable (framed, acked) transport instead of raw.
    pub reliable: bool,
    /// Fault-injection campaign, if any.
    pub faults: Option<FaultConfig>,
    /// Communication cost model.
    pub cost: CostKind,
    /// Virtual-time schedule; `None` runs in real time.
    pub schedule: Option<ScheduleSpec>,
}

impl ConformanceCase {
    /// A healthy raw-mode case under a seeded virtual schedule.
    pub fn new(method: Method, p: usize, workload: Workload, seed: u64) -> Self {
        ConformanceCase {
            method,
            p,
            width: 32,
            height: 24,
            workload,
            depth: DepthOrder::identity(p),
            reliable: false,
            faults: None,
            cost: CostKind::Free,
            schedule: Some(ScheduleSpec::seeded(seed)),
        }
    }

    /// The per-rank input subimages for this case.
    pub fn images(&self) -> Vec<Image> {
        self.workload.images(self.p, self.width, self.height)
    }

    /// The group options this case runs under.
    fn group_options(&self) -> GroupOptions {
        GroupOptions {
            cost: self.cost.model(),
            faults: self.faults,
            reliability: if self.reliable {
                ReliabilityConfig::on()
            } else {
                ReliabilityConfig::default()
            },
            schedule: self.schedule.clone(),
            ..Default::default()
        }
    }
}

/// What one conformance run produced: the frame's one record and what
/// the oracle reads off its image.
#[derive(Clone, Debug)]
pub struct ConformanceOutcome {
    /// The frame, as every pipeline reports it.
    pub frame: Outcome,
    /// FNV-1a hash of the gathered image bytes (0 when the root was
    /// lost) — the bit-exactness witness used for schedule-independence
    /// and corpus replay.
    pub image_hash: u64,
    /// Maximum absolute channel difference against the sequential
    /// reference (`f32::INFINITY` when the root was lost).
    pub max_diff: f32,
}

/// Runs one conformance case through the pipeline's frame runner: the
/// two-phase rank body ([`composite_frame`]) over the case's images,
/// under the case's transport options, schedule prefix included.
pub fn run_case(case: &ConformanceCase) -> ConformanceOutcome {
    let images = case.images();
    let frame = composite_frame(case.method, &images, &case.depth, case.group_options());
    // The root's own piece is missing only when the root was lost.
    let (image_hash, max_diff) = if frame.missing_ranks.contains(&0) {
        (0, f32::INFINITY)
    } else {
        let reference = reference_composite(&images, &case.depth);
        (
            vr_image::checksum::fnv1a(&frame.image),
            frame.image.max_abs_diff(&reference),
        )
    };
    ConformanceOutcome {
        frame,
        image_hash,
        max_diff,
    }
}

/// What the paper's four methods (and the BSRL encoding of the same
/// halves) must do on each rank, derived without running them.
#[derive(Clone, Debug, PartialEq)]
pub struct ExpectedTraffic {
    /// Each rank's counts as the run records them, by real rank: every
    /// stage's bytes and messages (one each way), the pixels a run codec
    /// encodes (its span; 0 for BS and BSBR), its run codes (`R_code^k`)
    /// and the `over`s applied to the partner's message (its span,
    /// `A_rec^k`, or its non-blank pixels under a run codec,
    /// `A_opaque^k`); the bound scan (`A` for BSBR and BSBRC); and
    /// `comm_seconds`, one `T_s + bytes · T_c` per received message as
    /// the endpoint charges. The compute timers are `CompCost`'s to
    /// model, and `peer` and `recv_rect_empty` the run's to decide.
    pub per_rank: Vec<MethodStats>,
    /// `gather[rank]`: bytes of the rank's gather payload — its owned
    /// domain's header, code count, run codes and non-blank pixels. The
    /// root's own payload never leaves it.
    pub gather: Vec<u64>,
}

/// One row-major non-blank mask per image (`!Pixel::is_blank` at each
/// pixel): the input [`expected_traffic`] reads.
pub fn non_blank_masks(images: &[Image]) -> Vec<Vec<bool>> {
    images
        .iter()
        .map(|img| img.pixels().iter().map(|px| !px.is_blank()).collect())
        .collect()
}

/// Computes the exact bytes each rank sends and receives per binary-swap
/// stage for BS, BSBR, BSLC and BSBRC — Equations (2), (4), (6) and (8)
/// — from each rank's row-major non-blank mask (`masks[rank]`, frames
/// `width` pixels wide; see [`non_blank_masks`]), plus BSRL, which
/// reuses the same state (runs over the whole spatial half), the encode,
/// run-code, `over` and scan counts of Equations (1)/(3)/(5)/(7), and
/// each rank's modeled `T_comm` under `cost`. This function derives the
/// counts; `analysis::message_bytes` turns them into sizes.
///
/// The derivation reads no pixel. Its precondition: every input pixel is
/// blank or has positive alpha. Then the non-blank mask of any partial
/// composite is the exact `OR` of its contributors' masks (`over` keeps
/// a pixel blank iff both inputs are blank), so both partners of a
/// stage end with the same `OR`, and after the last stage every rank's
/// mask is the final composite's. BSBR's rectangles evolve by the
/// algorithm's own O(1) rule `bounds ← (bounds ∩ keep) ∪ recv_rect`.
/// The gather's bytes come from each rank's final mask over its owned
/// domain, coded by the reference [`MaskRle::encode_mask`].
///
/// Returns `None` for any other method or when `P` is
/// not a power of two (the fold prologue would add a non-equation
/// stage).
pub fn expected_traffic(
    method: Method,
    masks: &[Vec<bool>],
    width: u16,
    depth: &DepthOrder,
    cost: CostModel,
) -> Option<ExpectedTraffic> {
    let p = masks.len();
    if !p.is_power_of_two() {
        return None;
    }
    let stages = p.trailing_zeros() as usize;
    let order = depth.front_to_back();
    assert_eq!(order.len(), p, "depth order must cover the group");
    let (w, area) = (width as usize, masks[0].len());
    assert!(
        w > 0 && area % w == 0 && masks.iter().all(|m| m.len() == area),
        "every mask must be one frame `width` pixels wide"
    );
    let index = |(x, y): (u16, u16)| y as usize * w + x as usize;

    // Per-VIRTUAL-rank evolving state.
    let mut regions = vec![Rect::of_size(width, (area / w) as u16); p];
    let mut masks: Vec<Vec<bool>> = order.iter().map(|&rank| masks[rank].clone()).collect();
    let mut bounds: Vec<Rect> = masks
        .iter()
        .map(|mask| {
            let mut bounds = Rect::EMPTY;
            for i in (0..area).filter(|&i| mask[i]) {
                bounds.include((i % w) as u16, (i / w) as u16);
            }
            bounds
        })
        .collect();
    let mut seqs: Vec<StridedSeq> = (0..p).map(|_| StridedSeq::dense(area)).collect();

    // Indexed by virtual rank until the end.
    let exchange = StageStat {
        sent_msgs: 1,
        recv_msgs: 1,
        ..StageStat::default()
    };
    let scan = area as u64 * u64::from(matches!(method, Method::Bsbr | Method::Bsbrc));
    let mut stats = vec![
        MethodStats {
            bound_pixels: scan,
            stages: vec![exchange; stages],
            ..MethodStats::default()
        };
        p
    ];
    let run_codec = !matches!(method, Method::Bs | Method::Bsbr);

    for k in 0..stages {
        // Phase 1: every rank's send bytes from its PRE-stage state.
        let mut keeps: Vec<(Rect, StridedSeq)> = Vec::with_capacity(p);
        for v in 0..p {
            // The driver's radix-2 round: digit `v`'s bit `k`, strips
            // along axis `k % 2`.
            let digit = (v >> k) & 1;
            let (keep, send) = (
                strip(regions[v], 2, k % 2, digit),
                strip(regions[v], 2, k % 2, 1 - digit),
            );
            let (even, odd) = seqs[v].split();
            let (kseq, sseq) = if digit == 0 { (even, odd) } else { (odd, even) };
            keeps.push((keep, kseq));
            // The counts each size form reads, from the pre-stage masks
            // and rectangles alone; the forms are `message_bytes`'.
            let sb = bounds[v].intersect(&send);
            let mask = &masks[v];
            let runs = |domain: &mut dyn Iterator<Item = usize>| {
                let rle = MaskRle::encode_mask(domain.map(|i| mask[i]));
                (rle.num_codes(), rle.non_blank_total())
            };
            let (pixels, (codes, non_blank)) = match method {
                Method::Bs => (send.area(), (0, 0)),
                Method::Bsbr => (sb.area(), (0, 0)),
                Method::Bslc => (sseq.count, runs(&mut sseq.iter())),
                Method::Bsrl => (send.area(), runs(&mut send.iter().map(index))),
                Method::Bsbrc => (sb.area(), runs(&mut sb.iter().map(index))),
                _ => return None,
            };
            let stage = &mut stats[v].stages[k];
            stage.sent_bytes =
                message_bytes(method, pixels as f64, codes as f64, non_blank as f64)? as u64;
            stage.encoded_pixels = if run_codec { pixels as u64 } else { 0 };
            stage.run_codes = codes as u64;
            // What this message costs its receiver, the partner `v ^ 2^k`.
            stats[v ^ (1 << k)].stages[k].composite_ops =
                if run_codec { non_blank } else { pixels } as u64;
        }
        // Phase 2: each pair `(v, u)` updates from both partners'
        // pre-stage state.
        for v in (0..p).filter(|v| v & (1 << k) == 0) {
            let u = v | (1 << k);
            let (bv, bu) = (bounds[v], bounds[u]);
            for (a, b) in [(v, u), (u, v)] {
                stats[a].stages[k].recv_bytes = stats[b].stages[k].sent_bytes;
                let (keep, kseq) = keeps[a];
                regions[a] = keep;
                seqs[a] = kseq;
                bounds[a] = bv.intersect(&keep).union(&bu.intersect(&keep));
            }
            // Full-mask OR is sound: positions outside a rank's kept
            // region are never read by any later stage.
            let (low, high) = masks.split_at_mut(u);
            for (m, o) in low[v].iter_mut().zip(&mut high[0]) {
                *m |= *o;
                *o = *m;
            }
        }
    }

    // The gather: a kind tag, the domain's header (a rect, or a
    // sequence's start, stride and count), a code count, the codes over
    // the domain and its non-blank pixels, read off the rank's final
    // mask.
    let piece_bytes = |mask: &[bool], header: u64, domain: &mut dyn Iterator<Item = usize>| {
        let rle = MaskRle::encode_mask(domain.map(|i| mask[i]));
        4 + header + 4 + rle.wire_bytes() as u64 + 16 * rle.non_blank_total() as u64
    };
    let gather: Vec<u64> = (0..p)
        .map(|v| match method {
            Method::Bslc => piece_bytes(&masks[v], 12, &mut seqs[v].iter()),
            _ => piece_bytes(&masks[v], 8, &mut regions[v].iter().map(index)),
        })
        .collect();

    // Re-index by REAL rank.
    let mut expect = ExpectedTraffic {
        per_rank: vec![MethodStats::default(); p],
        gather: vec![0; p],
    };
    for ((mut rank_stats, bytes), &rank) in stats.into_iter().zip(gather).zip(order) {
        rank_stats.comm_seconds = rank_stats
            .stages
            .iter()
            .map(|s| cost.message_seconds(s.recv_bytes as usize))
            .sum();
        expect.per_rank[rank] = rank_stats;
        expect.gather[rank] = bytes;
    }
    Some(expect)
}

/// One line of the conformance regression corpus: a complete case plus
/// the exact image hash and schedule-decision digest it must reproduce.
#[derive(Clone, Debug, PartialEq)]
pub struct CorpusEntry {
    /// The case to replay: its schedule holds the seed and the forced
    /// prefix, and its faults are `faults` parsed.
    pub case: ConformanceCase,
    /// Fault spec in the CLI grammar (`drop=..,seed=..,kill=R@N`), as the
    /// line writes it.
    pub faults: Option<String>,
    /// Required FNV-1a hash of the gathered image.
    pub expect_image: u64,
    /// Required [`ScheduleTrace::digest`] of the decision log.
    pub expect_decisions: u64,
}

/// The keys of a corpus line, in the order it is written.
#[rustfmt::skip]
const CORPUS_KEYS: [&str; 13] = [
    "method", "p", "w", "h", "workload", "depth", "reliable", "faults", "cost", "seed",
    "prefix", "expect_image", "expect_decisions",
];

impl CorpusEntry {
    /// Captures a finished run of `case` as a corpus entry whose faults
    /// are `faults_spec` (hashes filled in).
    pub fn from_run(
        case: &ConformanceCase,
        faults_spec: Option<&str>,
        out: &ConformanceOutcome,
    ) -> Self {
        CorpusEntry {
            case: ConformanceCase {
                faults: faults_spec.map(|s| s.parse().expect("a valid fault spec")),
                schedule: Some(case.schedule.clone().unwrap_or_default()),
                ..case.clone()
            },
            faults: faults_spec.map(str::to_owned),
            expect_image: out.image_hash,
            expect_decisions: out.frame.schedule.as_ref().map_or(0, ScheduleTrace::digest),
        }
    }

    /// Replays the entry and checks both digests. `Ok` means the exact
    /// image bytes and the exact schedule path were reproduced.
    pub fn verify(&self) -> Result<(), String> {
        let out = run_case(&self.case);
        let decisions = out.frame.schedule.as_ref().map_or(0, ScheduleTrace::digest);
        if out.image_hash != self.expect_image {
            return Err(format!(
                "image hash {:016x} != expected {:016x} for `{self}`",
                out.image_hash, self.expect_image
            ));
        }
        if decisions != self.expect_decisions {
            return Err(format!(
                "decision digest {decisions:016x} != expected {:016x} for `{self}`",
                self.expect_decisions
            ));
        }
        Ok(())
    }
}

impl fmt::Display for CorpusEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let case = &self.case;
        let schedule = case.schedule.clone().unwrap_or_default();
        let words = |w: Vec<String>| {
            if w.is_empty() {
                "-".to_owned()
            } else {
                w.join(":")
            }
        };
        let depth = case.depth.front_to_back().iter().map(usize::to_string);
        write!(
            f,
            "method={} p={} w={} h={} workload={} depth={} reliable={} faults={} cost={} \
             seed={} prefix={} expect_image={:016x} expect_decisions={:016x}",
            case.method.name(),
            case.p,
            case.width,
            case.height,
            case.workload.name(),
            words(depth.collect()),
            u8::from(case.reliable),
            self.faults.as_deref().unwrap_or("-"),
            case.cost.name(),
            schedule.seed,
            words(schedule.prefix.iter().map(u32::to_string).collect()),
            self.expect_image,
            self.expect_decisions,
        )
    }
}

/// `value` parsed as the `key` of a corpus line.
fn parse_value<T: FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid {key} `{value}`"))
}

/// A `:`-separated list, as `depth` and `prefix` are written.
fn parse_list<T: FromStr>(key: &str, value: &str) -> Result<Vec<T>, String> {
    value.split(':').map(|t| parse_value(key, t)).collect()
}

impl FromStr for CorpusEntry {
    type Err = String;

    /// Reads a line as [`fmt::Display`] writes it. `depth`, `reliable`,
    /// `faults`, `cost`, `seed` and `prefix` may be left out (the
    /// identity order, raw, none, `free`, 0, none); `-` is none.
    fn from_str(line: &str) -> Result<Self, String> {
        let mut values = [None; CORPUS_KEYS.len()];
        for token in line.split_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("token `{token}` is not key=value"))?;
            let slot = CORPUS_KEYS.iter().position(|&k| k == key);
            values[slot.ok_or_else(|| format!("unknown corpus key `{key}`"))?] = Some(value);
        }
        let get = |key: &str| values[CORPUS_KEYS.iter().position(|&k| k == key).unwrap()];
        let need = |key: &str| get(key).ok_or_else(|| format!("missing {key}"));
        let hex = |key: &str| {
            let value = need(key)?;
            u64::from_str_radix(value, 16).map_err(|_| format!("invalid {key} `{value}`"))
        };
        let p: usize = parse_value("p", need("p")?)?;
        let depth = match get("depth") {
            Some(value) => parse_list("depth", value)?,
            None => (0..p).collect(),
        };
        let mut ranks = depth.clone();
        ranks.sort_unstable();
        if !ranks.into_iter().eq(0..p) {
            return Err(format!("invalid depth: not an order of {p} ranks"));
        }
        let faults = get("faults").filter(|&v| v != "-");
        let workload = need("workload")?;
        let case = ConformanceCase {
            method: parse_value("method", need("method")?)?,
            p,
            width: parse_value("w", need("w")?)?,
            height: parse_value("h", need("h")?)?,
            workload: Workload::all()
                .into_iter()
                .find(|w| w.name() == workload)
                .ok_or_else(|| format!("invalid workload `{workload}`"))?,
            depth: DepthOrder::from_sequence(depth),
            reliable: get("reliable") == Some("1"),
            // Parsed here, so a corrupt line fails at parse time, not at
            // replay time.
            faults: faults
                .map(|v| v.parse().map_err(|e| format!("invalid faults `{v}`: {e}")))
                .transpose()?,
            cost: match get("cost") {
                None | Some("free") => CostKind::Free,
                Some("sp2") => CostKind::Sp2,
                Some(v) => return Err(format!("invalid cost `{v}`")),
            },
            schedule: Some(ScheduleSpec {
                seed: get("seed").map_or(Ok(0), |v| parse_value("seed", v))?,
                prefix: match get("prefix") {
                    None | Some("-") => Vec::new(),
                    Some(v) => parse_list("prefix", v)?,
                },
            }),
        };
        Ok(CorpusEntry {
            case,
            faults: faults.map(str::to_owned),
            expect_image: hex("expect_image")?,
            expect_decisions: hex("expect_decisions")?,
        })
    }
}

/// Parses every corpus entry in a file's contents, skipping blank lines
/// and `#` comments.
pub fn parse_corpus(contents: &str) -> Result<Vec<CorpusEntry>, String> {
    contents
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.parse().map_err(|e| format!("{e} (line: `{l}`)")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_expected_sparsity() {
        for p in [2, 4] {
            let dense = Workload::Dense.images(p, 16, 12);
            assert!(dense.iter().all(|img| img.non_blank_count() == img.area()));
            let sparse = Workload::Sparse.images(p, 16, 12);
            assert!(sparse
                .iter()
                .all(|img| img.non_blank_count() > 0 && img.non_blank_count() < img.area()));
            let bands = Workload::Bands.images(p, 16, 12);
            let total: usize = bands.iter().map(Image::non_blank_count).sum();
            assert_eq!(total, 16 * 12, "bands tile the image disjointly");
        }
    }

    #[test]
    fn run_case_healthy_bsbrc_matches_reference() {
        let case = ConformanceCase::new(Method::Bsbrc, 4, Workload::Sparse, 1);
        let out = run_case(&case);
        assert!(out.max_diff < 2e-4, "diff {}", out.max_diff);
        assert_eq!(out.frame.coverage, 1.0);
        assert!(out.frame.dead_ranks.is_empty());
        assert!(out.frame.schedule.is_some());
        assert_ne!(out.image_hash, 0);
    }

    #[test]
    fn expected_traffic_matches_bs_closed_form() {
        // Equation (2): stage k of BS moves 16·A/2^(k+1) bytes per rank.
        let images = Workload::Dense.images(8, 32, 16);
        let depth = DepthOrder::identity(8);
        let masks = non_blank_masks(&images);
        let t = expected_traffic(Method::Bs, &masks, 32, &depth, CostModel::free()).unwrap();
        let area = 32usize * 16;
        for rank in &t.per_rank {
            for (k, stage) in rank.stages.iter().enumerate() {
                assert_eq!(stage.sent_bytes, (16 * area / (1 << (k + 1))) as u64);
            }
        }
    }

    #[test]
    fn expected_traffic_matches_real_runs_for_paper_methods_and_encodings() {
        let methods = Method::paper_methods().into_iter().chain([Method::Bsrl]);
        for method in methods {
            for workload in Workload::all() {
                let case = ConformanceCase {
                    depth: DepthOrder::from_sequence(vec![2, 0, 3, 1]),
                    ..ConformanceCase::new(method, 4, workload, 3)
                };
                let masks = non_blank_masks(&case.images());
                let expect =
                    expected_traffic(method, &masks, case.width, &case.depth, case.cost.model())
                        .unwrap();
                let out = run_case(&case);
                for (rank, stats) in out.frame.per_rank.iter().enumerate() {
                    let bytes = |s: &MethodStats| -> Vec<(u64, u64)> {
                        s.stages
                            .iter()
                            .map(|s| (s.sent_bytes, s.recv_bytes))
                            .collect()
                    };
                    assert_eq!(
                        bytes(stats.as_ref().unwrap()),
                        bytes(&expect.per_rank[rank]),
                        "{method:?} {workload:?} rank {rank} (sent, recv) bytes"
                    );
                }
            }
        }
    }

    #[test]
    fn corpus_entry_round_trips() {
        let spec = "drop=0.1,seed=9";
        let entry = CorpusEntry {
            case: ConformanceCase {
                width: 32,
                height: 24,
                depth: DepthOrder::from_sequence(vec![7, 3, 5, 1, 6, 2, 4, 0]),
                reliable: true,
                faults: Some(spec.parse().unwrap()),
                cost: CostKind::Sp2,
                schedule: Some(ScheduleSpec {
                    seed: 42,
                    prefix: vec![1, 0, 2],
                }),
                ..ConformanceCase::new(Method::Bslc, 8, Workload::Sparse, 0)
            },
            faults: Some(spec.to_owned()),
            expect_image: 0xDEAD_BEEF_0BAD_F00D,
            expect_decisions: 0x0123_4567_89AB_CDEF,
        };
        let line = entry.to_string();
        assert_eq!(
            line,
            "method=BSLC p=8 w=32 h=24 workload=sparse depth=7:3:5:1:6:2:4:0 reliable=1 \
             faults=drop=0.1,seed=9 cost=sp2 seed=42 prefix=1:0:2 \
             expect_image=deadbeef0badf00d expect_decisions=0123456789abcdef"
        );
        let parsed: CorpusEntry = line.parse().unwrap();
        assert_eq!(parsed, entry);
    }

    #[test]
    fn corpus_rejects_garbage() {
        assert!("method=BS p=2".parse::<CorpusEntry>().is_err());
        assert!("nonsense".parse::<CorpusEntry>().is_err());
        assert!(parse_corpus("# comment\n\nmethod=NOPE p=2").is_err());
        let line = "method=BS p=2 w=4 h=4 workload=dense expect_image=0 expect_decisions=0";
        assert!(line.parse::<CorpusEntry>().is_ok());
        assert!(format!("{line} depth=0:0").parse::<CorpusEntry>().is_err());
    }
}
