//! Differential conformance harness: every compositing method against
//! the sequential reference, under deterministic virtual-time schedules.
//!
//! The paper's central claim is that BSBR/BSLC/BSBRC produce the *same
//! image* as plain binary-swap while moving fewer bytes (Equations (2),
//! (4), (6) and (8)). This module packages that claim as a reusable
//! oracle:
//!
//! * [`run_case`] executes one `(method, P, workload, depth, schedule,
//!   faults)` configuration through the real distributed runtime and
//!   reports the gathered image, its hash, the deviation from
//!   [`reference_composite`], and the schedule trace;
//! * [`expected_traffic`] computes, *without running the methods*, the
//!   exact per-stage byte counts the four paper methods (plus BSRL) must
//!   put on the wire — bounding rectangles evolve by pure rectangle
//!   algebra and non-blank masks by exact `OR` (the `over` operator
//!   never blanks a non-blank pixel, and never un-blanks a blank one);
//! * [`CorpusEntry`] round-trips a failing `(case, seed, prefix)` into
//!   one line of a checked-in regression corpus that replays the exact
//!   schedule and asserts the exact image hash.

use std::fmt;
use std::str::FromStr;

use vr_comm::{
    run_group_with, CostModel, FaultConfig, GroupOptions, ReliabilityConfig, ScheduleSpec,
    ScheduleTrace, TrafficStats,
};
use vr_image::{Image, MaskRle, Pixel, Rect, StridedSeq};
use vr_volume::DepthOrder;

use crate::analysis::message_bytes;
use crate::gather::gather_image_tolerant;
use crate::methods::{composite, Method};
use crate::reference::reference_composite;
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
#[derive(Clone, Debug)]
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

    /// The sequential reference image for this case.
    pub fn reference(&self) -> Image {
        reference_composite(&self.images(), &self.depth)
    }
}

/// What one conformance run produced.
#[derive(Clone, Debug)]
pub struct ConformanceOutcome {
    /// The image gathered at rank 0 (`None` when rank 0 died).
    pub image: Option<Image>,
    /// FNV-1a hash of the gathered image bytes (0 when absent) — the
    /// bit-exactness witness used for schedule-independence and corpus
    /// replay.
    pub image_hash: u64,
    /// Maximum absolute channel difference against the sequential
    /// reference (`f32::INFINITY` when no image was gathered).
    pub max_diff: f32,
    /// Fraction of pixels covered by surviving pieces.
    pub coverage: f64,
    /// Ranks whose pieces never reached the gather root.
    pub missing_ranks: Vec<usize>,
    /// Ranks killed by fault injection.
    pub dead_ranks: Vec<usize>,
    /// Per-rank method statistics (`None` for ranks whose composite
    /// errored out, e.g. killed ranks).
    pub per_rank: Vec<Option<MethodStats>>,
    /// Per-rank transport counters (compositing and gather), by rank.
    pub traffic: Vec<TrafficStats>,
    /// The schedule the run took, when it ran under virtual time.
    pub schedule: Option<ScheduleTrace>,
}

/// Runs one conformance case through the real distributed runtime.
pub fn run_case(case: &ConformanceCase) -> ConformanceOutcome {
    let images = case.images();
    let reference = reference_composite(&images, &case.depth);
    let options = GroupOptions {
        cost: case.cost.model(),
        faults: case.faults,
        reliability: if case.reliable {
            ReliabilityConfig::on()
        } else {
            ReliabilityConfig::default()
        },
        schedule: case.schedule.clone(),
        ..Default::default()
    };
    let depth = &case.depth;
    let out = run_group_with(case.p, options, |ep| {
        let mut img = images[ep.rank()].clone();
        match composite(case.method, ep, &mut img, depth) {
            Ok(result) => {
                let stats = result.stats.clone();
                let gathered = gather_image_tolerant(ep, &img, &result.piece, 0)
                    .ok()
                    .flatten();
                (Some(stats), gathered)
            }
            // Killed mid-composite (or schedule breakdown): this rank
            // contributes nothing; survivors keep going.
            Err(_) => (None, None),
        }
    });

    let mut per_rank = Vec::with_capacity(case.p);
    let mut gathered = None;
    for (rank, (stats, g)) in out.results.into_iter().enumerate() {
        per_rank.push(stats);
        if rank == 0 {
            gathered = g;
        }
    }
    let (image, coverage, missing_ranks) = match gathered {
        Some(g) => {
            let coverage = g.coverage();
            (Some(g.image), coverage, g.missing_ranks)
        }
        None => (None, 0.0, (0..case.p).collect()),
    };
    let image_hash = image.as_ref().map_or(0, vr_image::checksum::fnv1a);
    let max_diff = image
        .as_ref()
        .map_or(f32::INFINITY, |img| img.max_abs_diff(&reference));
    ConformanceOutcome {
        image,
        image_hash,
        max_diff,
        coverage,
        missing_ranks,
        dead_ranks: out.dead_ranks,
        per_rank,
        traffic: out.stats,
        schedule: out.schedule,
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

/// Computes the exact bytes each rank sends and receives per binary-swap
/// stage for BS, BSBR, BSLC and BSBRC — Equations (2), (4), (6) and (8)
/// — from the subimages alone, plus BSRL, which reuses the same state
/// (runs over the whole spatial half), the encode, run-code, `over`
/// and scan counts of Equations (1)/(3)/(5)/(7), and each rank's
/// modeled `T_comm` under `cost`. This function derives the counts;
/// `analysis::message_bytes` turns them into sizes. The
/// gather's bytes come from the final composite's bit mask over each
/// rank's owned domain, coded by the reference [`MaskRle::encode_mask`].
///
/// The derivation never composites a pixel: the non-blank mask of any
/// partial composite is the exact `OR` of its contributors' masks
/// (`over` keeps `alpha = 0` iff both inputs are blank, given non-blank
/// pixels carry positive alpha), and BSBR's rectangles evolve by the
/// algorithm's own O(1) rule `bounds ← (bounds ∩ keep) ∪ recv_rect`.
///
/// Returns `None` for any other method or when `P` is
/// not a power of two (the fold prologue would add a non-equation
/// stage).
pub fn expected_traffic(
    method: Method,
    images: &[Image],
    depth: &DepthOrder,
    cost: CostModel,
) -> Option<ExpectedTraffic> {
    let p = images.len();
    if !p.is_power_of_two() {
        return None;
    }
    let stages = p.trailing_zeros() as usize;
    let order = depth.front_to_back();
    assert_eq!(order.len(), p, "depth order must cover the group");
    let width = images[0].width();
    let area = images[0].area();
    let full = images[0].full_rect();

    // Per-VIRTUAL-rank evolving state.
    let mut regions = vec![full; p];
    let mut bounds: Vec<Rect> = (0..p).map(|v| images[order[v]].bounding_rect()).collect();
    let mut masks: Vec<Vec<bool>> = (0..p)
        .map(|v| {
            images[order[v]]
                .pixels()
                .iter()
                .map(|px| !px.is_blank())
                .collect()
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
        let mut halves: Vec<(Rect, Rect)> = Vec::with_capacity(p); // (keep, send)
        let mut seq_halves: Vec<(StridedSeq, StridedSeq)> = Vec::with_capacity(p);
        for v in 0..p {
            // The driver's radix-2 round: digit `v`'s bit `k`, strips
            // along axis `k % 2`.
            let digit = (v >> k) & 1;
            let (keep, send) = (
                strip(regions[v], 2, k % 2, digit),
                strip(regions[v], 2, k % 2, 1 - digit),
            );
            halves.push((keep, send));
            let (even, odd) = seqs[v].split();
            let (kseq, sseq) = if digit == 0 { (even, odd) } else { (odd, even) };
            seq_halves.push((kseq, sseq));
            // The counts each size form reads, from the pre-stage masks
            // and rectangles alone; the forms are `message_bytes`'.
            let sb = bounds[v].intersect(&send);
            let at = |(x, y): (u16, u16)| masks[v][y as usize * width as usize + x as usize];
            let runs = |mask: &mut dyn Iterator<Item = bool>| {
                let rle = MaskRle::encode_mask(mask);
                (rle.num_codes(), rle.non_blank_total())
            };
            let (pixels, (codes, non_blank)) = match method {
                Method::Bs => (send.area(), (0, 0)),
                Method::Bsbr => (sb.area(), (0, 0)),
                Method::Bslc => (sseq.count, runs(&mut sseq.iter().map(|i| masks[v][i]))),
                Method::Bsrl => (send.area(), runs(&mut send.iter().map(at))),
                Method::Bsbrc => (sb.area(), runs(&mut sb.iter().map(at))),
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
        // Phase 2: simultaneous state update from both partners'
        // pre-stage state.
        let prev_bounds = bounds.clone();
        let prev_masks = masks.clone();
        for v in 0..p {
            let u = v ^ (1 << k);
            stats[v].stages[k].recv_bytes = stats[u].stages[k].sent_bytes;
            let (keep, _) = halves[v];
            regions[v] = keep;
            bounds[v] = prev_bounds[v]
                .intersect(&keep)
                .union(&prev_bounds[u].intersect(&keep));
            // Full-mask OR is sound: positions outside this rank's kept
            // region are never read by any later stage.
            for (m, o) in masks[v].iter_mut().zip(&prev_masks[u]) {
                *m = *m || *o;
            }
            seqs[v] = seq_halves[v].0;
        }
    }

    // The gather: a kind tag, the domain's header (a rect, or a
    // sequence's start, stride and count), a code count, the codes over
    // the domain and its non-blank pixels — blank meaning bitwise
    // `Pixel::BLANK` in the final composite.
    let reference = reference_composite(images, depth);
    let blank = Pixel::BLANK.to_le_bytes();
    let has_bits = |i: usize| reference.pixels()[i].to_le_bytes() != blank;
    let piece_bytes = |header: u64, domain: &mut dyn Iterator<Item = usize>| {
        let rle = MaskRle::encode_mask(domain.map(has_bits));
        4 + header + 4 + rle.wire_bytes() as u64 + 16 * rle.non_blank_total() as u64
    };
    let gather: Vec<u64> = (0..p)
        .map(|v| match method {
            Method::Bslc => piece_bytes(12, &mut seqs[v].iter()),
            _ => piece_bytes(
                8,
                &mut regions[v]
                    .iter()
                    .map(|(x, y)| y as usize * width as usize + x as usize),
            ),
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
    /// Method under test.
    pub method: Method,
    /// Rank count.
    pub p: usize,
    /// Image width.
    pub width: u16,
    /// Image height.
    pub height: u16,
    /// Workload name.
    pub workload: Workload,
    /// Front-to-back depth permutation.
    pub depth: Vec<usize>,
    /// Reliable transport on.
    pub reliable: bool,
    /// Fault spec in the CLI grammar (`drop=..,seed=..,kill=R@N`), if any.
    pub faults: Option<String>,
    /// Cost model name.
    pub cost: CostKind,
    /// Schedule seed.
    pub seed: u64,
    /// Forced schedule prefix.
    pub prefix: Vec<u32>,
    /// Required FNV-1a hash of the gathered image.
    pub expect_image: u64,
    /// Required [`ScheduleTrace::digest`] of the decision log.
    pub expect_decisions: u64,
}

impl CorpusEntry {
    /// Builds the runnable case this entry describes.
    pub fn to_case(&self) -> ConformanceCase {
        ConformanceCase {
            method: self.method,
            p: self.p,
            width: self.width,
            height: self.height,
            workload: self.workload,
            depth: DepthOrder::from_sequence(self.depth.clone()),
            reliable: self.reliable,
            faults: self.faults.as_deref().map(|s| {
                s.parse::<FaultConfig>()
                    .expect("corpus entry carries an invalid fault spec")
            }),
            cost: self.cost,
            schedule: Some(ScheduleSpec {
                seed: self.seed,
                prefix: self.prefix.clone(),
            }),
        }
    }

    /// Captures a finished run as a corpus entry (hashes filled in).
    pub fn from_run(
        case: &ConformanceCase,
        faults_spec: Option<&str>,
        out: &ConformanceOutcome,
    ) -> Self {
        let spec = case.schedule.clone().unwrap_or_default();
        CorpusEntry {
            method: case.method,
            p: case.p,
            width: case.width,
            height: case.height,
            workload: case.workload,
            depth: case.depth.front_to_back().to_vec(),
            reliable: case.reliable,
            faults: faults_spec.map(str::to_owned),
            cost: case.cost,
            seed: spec.seed,
            prefix: spec.prefix,
            expect_image: out.image_hash,
            expect_decisions: out.schedule.as_ref().map_or(0, ScheduleTrace::digest),
        }
    }

    /// Replays the entry and checks both digests. `Ok` means the exact
    /// image bytes and the exact schedule path were reproduced.
    pub fn verify(&self) -> Result<(), String> {
        let out = run_case(&self.to_case());
        let decisions = out.schedule.as_ref().map_or(0, ScheduleTrace::digest);
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
        let depth: Vec<String> = self.depth.iter().map(|r| r.to_string()).collect();
        let prefix = if self.prefix.is_empty() {
            "-".to_owned()
        } else {
            self.prefix
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(":")
        };
        write!(
            f,
            "method={} p={} w={} h={} workload={} depth={} reliable={} faults={} cost={} \
             seed={} prefix={} expect_image={:016x} expect_decisions={:016x}",
            self.method.name(),
            self.p,
            self.width,
            self.height,
            self.workload.name(),
            depth.join(":"),
            u8::from(self.reliable),
            self.faults.as_deref().unwrap_or("-"),
            self.cost.name(),
            self.seed,
            prefix,
            self.expect_image,
            self.expect_decisions,
        )
    }
}

impl FromStr for CorpusEntry {
    type Err = String;

    fn from_str(line: &str) -> Result<Self, String> {
        let mut method = None;
        let mut p = None;
        let mut width = None;
        let mut height = None;
        let mut workload = None;
        let mut depth = None;
        let mut reliable = false;
        let mut faults = None;
        let mut cost = CostKind::Free;
        let mut seed = 0u64;
        let mut prefix = Vec::new();
        let mut expect_image = None;
        let mut expect_decisions = None;
        for token in line.split_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("token `{token}` is not key=value"))?;
            let bad = |what: &str| format!("invalid {what} `{value}`");
            match key {
                "method" => method = Some(value.parse().map_err(|_| bad("method"))?),
                "p" => p = Some(value.parse().map_err(|_| bad("p"))?),
                "w" => width = Some(value.parse().map_err(|_| bad("w"))?),
                "h" => height = Some(value.parse().map_err(|_| bad("h"))?),
                "workload" => {
                    workload = Some(
                        Workload::all()
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| bad("workload"))?,
                    );
                }
                "depth" => {
                    depth = Some(
                        value
                            .split(':')
                            .map(|t| t.parse().map_err(|_| bad("depth")))
                            .collect::<Result<Vec<usize>, _>>()?,
                    );
                }
                "reliable" => reliable = value == "1",
                "faults" => {
                    if value != "-" {
                        // Validate eagerly so a corrupt corpus line fails
                        // at parse time, not replay time.
                        value
                            .parse::<FaultConfig>()
                            .map_err(|e| format!("invalid faults `{value}`: {e}"))?;
                        faults = Some(value.to_owned());
                    }
                }
                "cost" => {
                    cost = match value {
                        "free" => CostKind::Free,
                        "sp2" => CostKind::Sp2,
                        _ => return Err(bad("cost")),
                    };
                }
                "seed" => seed = value.parse().map_err(|_| bad("seed"))?,
                "prefix" => {
                    if value != "-" {
                        prefix = value
                            .split(':')
                            .map(|t| t.parse().map_err(|_| bad("prefix")))
                            .collect::<Result<Vec<u32>, _>>()?;
                    }
                }
                "expect_image" => {
                    expect_image =
                        Some(u64::from_str_radix(value, 16).map_err(|_| bad("expect_image"))?);
                }
                "expect_decisions" => {
                    expect_decisions =
                        Some(u64::from_str_radix(value, 16).map_err(|_| bad("expect_decisions"))?);
                }
                other => return Err(format!("unknown corpus key `{other}`")),
            }
        }
        let p = p.ok_or("missing p")?;
        Ok(CorpusEntry {
            method: method.ok_or("missing method")?,
            p,
            width: width.ok_or("missing w")?,
            height: height.ok_or("missing h")?,
            workload: workload.ok_or("missing workload")?,
            depth: depth.unwrap_or_else(|| (0..p).collect()),
            reliable,
            faults,
            cost,
            seed,
            prefix,
            expect_image: expect_image.ok_or("missing expect_image")?,
            expect_decisions: expect_decisions.ok_or("missing expect_decisions")?,
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
        assert_eq!(out.coverage, 1.0);
        assert!(out.dead_ranks.is_empty());
        assert!(out.schedule.is_some());
        assert_ne!(out.image_hash, 0);
    }

    #[test]
    fn expected_traffic_matches_bs_closed_form() {
        // Equation (2): stage k of BS moves 16·A/2^(k+1) bytes per rank.
        let images = Workload::Dense.images(8, 32, 16);
        let depth = DepthOrder::identity(8);
        let t = expected_traffic(Method::Bs, &images, &depth, CostModel::free()).unwrap();
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
                let expect =
                    expected_traffic(method, &case.images(), &case.depth, case.cost.model())
                        .unwrap();
                let out = run_case(&case);
                for (rank, stats) in out.per_rank.iter().enumerate() {
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
        let entry = CorpusEntry {
            method: Method::Bslc,
            p: 8,
            width: 32,
            height: 24,
            workload: Workload::Sparse,
            depth: vec![7, 3, 5, 1, 6, 2, 4, 0],
            reliable: true,
            faults: Some("drop=0.1,seed=9".to_owned()),
            cost: CostKind::Sp2,
            seed: 42,
            prefix: vec![1, 0, 2],
            expect_image: 0xDEAD_BEEF_0BAD_F00D,
            expect_decisions: 0x0123_4567_89AB_CDEF,
        };
        let line = entry.to_string();
        let parsed: CorpusEntry = line.parse().unwrap();
        assert_eq!(parsed, entry);
    }

    #[test]
    fn corpus_rejects_garbage() {
        assert!("method=BS p=2".parse::<CorpusEntry>().is_err());
        assert!("nonsense".parse::<CorpusEntry>().is_err());
        assert!(parse_corpus("# comment\n\nmethod=NOPE p=2").is_err());
    }
}
