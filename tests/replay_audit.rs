//! Replay audit: a frame run again in the same process gives the same
//! frame, whatever ran before it.
//!
//! Seeded grid: every method × every fault class, on the raw wire and
//! over the reliable transport, under two virtual schedules at P = 4
//! and P = 6. Each frame runs three
//! times back to back, and runs 2 and 3 must equal run 1 bit for bit:
//! every rank's `MethodStats` and `TrafficStats`, the dead and missing
//! ranks, the schedule the virtual clock took and the gathered image.
//!
//! Real channels: fault-free frames of every method at P = 16, where the
//! arrival order is the host's. Runs 2 and 3 must equal run 1 on the
//! image and on every byte and message counter.
//!
//! Runs 2 and 3 start on whatever runs 1 and 2 left behind in the
//! process — the rank threads, the working frames, the allocator — so
//! this is the witness that reusing them carries nothing from one frame
//! to the next.

use slsvr::comm::{FaultConfig, TrafficStats};
use slsvr::compositing::conformance::{
    run_case, ConformanceCase, ConformanceOutcome, CostKind, Workload,
};
use slsvr::compositing::{Method, MethodStats};
use slsvr::volume::DepthOrder;

/// Everything a seeded run is compared on.
#[derive(Debug, PartialEq)]
struct Replayed {
    image: u64,
    coverage: u64,
    per_rank: Vec<Option<MethodStats>>,
    traffic: Vec<TrafficStats>,
    dead_ranks: Vec<usize>,
    missing_ranks: Vec<usize>,
    /// Decision digest, event count and final virtual clock.
    schedule: Option<(u64, u64, u64)>,
}

/// `comp_seconds`, `bound_seconds` and `encode_seconds` are read from
/// the thread's CPU clock, so no two runs agree on them; every other
/// field of a rank's stats is a count or a virtual-clock reading.
fn counted(stats: Option<MethodStats>) -> Option<MethodStats> {
    stats.map(|s| MethodStats {
        comp_seconds: 0.0,
        bound_seconds: 0.0,
        encode_seconds: 0.0,
        ..s
    })
}

impl Replayed {
    fn new(out: ConformanceOutcome) -> Replayed {
        Replayed {
            image: out.image_hash,
            coverage: out.frame.coverage.to_bits(),
            per_rank: out.frame.per_rank.into_iter().map(counted).collect(),
            traffic: out.frame.traffic,
            dead_ranks: out.frame.dead_ranks,
            missing_ranks: out.frame.missing_ranks,
            schedule: out
                .frame
                .schedule
                .map(|t| (t.digest(), t.events, t.virtual_seconds.to_bits())),
        }
    }
}

/// A fixed but non-trivial front-to-back permutation of `0..p`.
fn shuffled_depth(p: usize) -> DepthOrder {
    let mut order: Vec<usize> = (0..p).collect();
    for i in (1..p).rev() {
        order.swap(i, (i * 2654435761 + 5 * 40503) % (i + 1));
    }
    DepthOrder::from_sequence(order)
}

/// Every fault class, in the corpus grammar. Each runs on the raw wire
/// and over the reliable transport: raw, a drop is a receive timeout and
/// a duplicate a message the codecs never asked for, and those failures
/// must replay too.
fn fault_classes(p: usize) -> [Option<String>; 6] {
    [
        None,
        Some("drop=0.1,seed=5".into()),
        Some("corrupt=0.1,seed=4".into()),
        Some("dup=0.1,seed=7".into()),
        // Longer than the 10 ms ack timeout: spurious retransmits.
        Some("delay=0.2,delay_ms=15,seed=8".into()),
        Some(format!("kill={}@2,seed=9", p - 1)),
    ]
}

/// Runs `case` three times in a row; runs 2 and 3 must equal run 1.
fn assert_replays<T: PartialEq + std::fmt::Debug>(
    case: &ConformanceCase,
    label: &str,
    observe: impl Fn(ConformanceOutcome) -> T,
) {
    let first = observe(run_case(case));
    for run in 2..=3 {
        assert_eq!(observe(run_case(case)), first, "{label}: run {run}");
    }
}

#[test]
fn seeded_frames_replay_bit_for_bit_three_times_over() {
    let mut frames = 0;
    for p in [4usize, 6] {
        for method in Method::all() {
            // TSTREAM at 32×24 is one tile: 80×56 spreads a 3×2 grid of
            // 32-px tiles over the owners.
            let (width, height) = if method == Method::TileStream {
                (80, 56)
            } else {
                (32, 24)
            };
            for spec in fault_classes(p) {
                let faults: Option<FaultConfig> = spec
                    .as_deref()
                    .map(|s| s.parse().expect("valid fault spec"));
                for reliable in [false, true] {
                    for seed in [11, 29] {
                        let case = ConformanceCase {
                            width,
                            height,
                            depth: shuffled_depth(p),
                            cost: CostKind::Sp2,
                            reliable,
                            faults,
                            ..ConformanceCase::new(method, p, Workload::Sparse, seed)
                        };
                        let label = format!(
                            "{} P={p} reliable={reliable} faults={} seed={seed}",
                            method.name(),
                            spec.as_deref().unwrap_or("-"),
                        );
                        assert_replays(&case, &label, Replayed::new);
                        frames += 1;
                    }
                }
            }
        }
    }
    assert_eq!(frames, 2 * Method::all().len() * 6 * 2 * 2);
}

/// The counters of a real-channel run: every rank's traffic but the
/// modeled seconds (summed in arrival order, so its last bit moves), and
/// every rank's stage counters and scanned pixels.
type Counted = (u64, Vec<[u64; 10]>, Vec<Option<(u64, Vec<[u64; 7]>)>>);

fn counters(out: ConformanceOutcome) -> Counted {
    let traffic = out
        .frame
        .traffic
        .iter()
        .map(|t| {
            [
                t.sent_messages,
                t.sent_bytes,
                t.recv_messages,
                t.recv_bytes,
                t.retransmits,
                t.retransmit_bytes,
                t.corruptions_detected,
                t.ack_timeouts,
                t.overhead_bytes,
                t.peak_pixel_buffer_bytes,
            ]
        })
        .collect();
    let per_rank = out
        .frame
        .per_rank
        .iter()
        .map(|stats| {
            stats.as_ref().map(|s| {
                let stages = s
                    .stages
                    .iter()
                    .map(|st| {
                        [
                            st.sent_bytes,
                            st.recv_bytes,
                            st.sent_msgs,
                            st.recv_msgs,
                            st.encoded_pixels,
                            st.run_codes,
                            st.composite_ops,
                        ]
                    })
                    .collect();
                (s.bound_pixels, stages)
            })
        })
        .collect();
    (out.image_hash, traffic, per_rank)
}

#[test]
fn real_channel_frames_at_sixteen_ranks_replay_their_counters() {
    for method in Method::all() {
        for workload in [Workload::Sparse, Workload::Dense] {
            let case = ConformanceCase {
                width: 96,
                height: 64,
                depth: shuffled_depth(16),
                schedule: None,
                ..ConformanceCase::new(method, 16, workload, 0)
            };
            let label = format!("{} P=16 {} real channels", method.name(), workload.name());
            assert_replays(&case, &label, counters);
        }
    }
}
