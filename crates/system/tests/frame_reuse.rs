//! Regression tests for the serving loop's hot path: repeated frames on
//! one configuration must not leak state between runs.
//!
//! The group runner builds fresh `TrafficStats` per run, the compositing
//! scratch pools are per-run, and renderer bounds hints are recomputed
//! with every prepared frame — so two identical back-to-back frames must
//! produce identical images *and* identical per-frame statistics. These
//! tests pin that invariant, which the `vr-serve` session manager relies
//! on when it keeps datasets (and their macrocell grids) resident across
//! requests.
//!
//! One thing *is* carried from frame to frame, on purpose: the `W×H`
//! buffer a rank composites in is leased from a process-wide stack and
//! comes back holding whatever its last user — any rank of any earlier
//! frame, of any method, healthy or not — left in it. The second half of
//! this file holds that to the same standard: frame N equals what a
//! freshly allocated working copy produces, whatever frames 0..N were,
//! and concurrent experiments never wait on each other's frames.

use std::collections::HashMap;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slsvr_core::{composite, gather_image_tolerant, CompositeError, Method, MethodStats};
use vr_comm::{run_group_with, FaultConfig, KillSpec, TrafficStats};
use vr_image::checksum::fnv1a;
use vr_image::Image;
use vr_system::{Experiment, ExperimentConfig, RenderPool};
use vr_volume::{Dataset, DatasetKind};

fn config() -> ExperimentConfig {
    ExperimentConfig::small_test(DatasetKind::EngineHigh, 4, Method::Bsbrc)
}

#[test]
fn back_to_back_frames_on_a_shared_dataset_are_identical() {
    let config = config();
    let dataset = Arc::new(Dataset::with_dims(config.dataset, config.resolved_dims()));

    // Frame 1 warms the dataset's macrocell-grid cache; frame 2 reuses
    // it — exactly what a resident serving session does.
    let run = || {
        let exp = Experiment::prepare_with_dataset(&config, Arc::clone(&dataset));
        let out = exp.run(config.method);
        (out, exp)
    };
    let (first, exp_a) = run();
    let (second, exp_b) = run();

    // Identical images, bit for bit.
    assert_eq!(
        fnv1a(&first.image),
        fnv1a(&second.image),
        "repeated frames must be bit-identical"
    );
    for (rank, (a, b)) in exp_a.subimages().iter().zip(exp_b.subimages()).enumerate() {
        assert_eq!(fnv1a(a), fnv1a(b), "rank {rank} subimage drifted");
    }

    // Identical per-frame statistics: method counters (bounds scans,
    // encodes, per-stage bytes) and transport counters must not carry
    // residue between frames.
    assert_eq!(first.per_rank, second.per_rank, "MethodStats drifted");
    assert_eq!(first.traffic, second.traffic, "TrafficStats drifted");
    let (a, b) = (first.record(), second.record());
    assert_eq!((a.m_max, a.total_bytes), (b.m_max, b.total_bytes));
    assert_eq!((a.t_comp_ms, a.t_comm_ms), (b.t_comp_ms, b.t_comm_ms));
}

#[test]
fn rerunning_one_prepared_experiment_does_not_mutate_it() {
    // `Experiment::run` composites on working copies of the prepared
    // subimages; running the same experiment twice (as a coalesced burst
    // served from one prepared frame would) must be exactly repeatable.
    let config = config();
    let exp = Experiment::prepare(&config);
    let before: Vec<u64> = exp.subimages().iter().map(fnv1a).collect();
    let first = exp.run(config.method);
    let second = exp.run(config.method);
    let after: Vec<u64> = exp.subimages().iter().map(fnv1a).collect();
    assert_eq!(before, after, "run() must not mutate prepared subimages");
    assert_eq!(fnv1a(&first.image), fnv1a(&second.image));
    assert_eq!(first.per_rank, second.per_rank);
    assert_eq!(first.traffic, second.traffic);
}

#[test]
fn shared_dataset_path_matches_cold_prepare() {
    // A resident session (shared Arc<Dataset>, cached macrocell grid)
    // must serve the same bits as a from-scratch batch run.
    let config = config();
    let cold = Experiment::prepare(&config).run(config.method);
    let dataset = Arc::new(Dataset::with_dims(config.dataset, config.resolved_dims()));
    // Warm the grid cache with an unrelated frame first.
    let mut warm_cfg = config;
    warm_cfg.rot_y_deg += 45.0;
    let _ = Experiment::prepare_with_dataset(&warm_cfg, Arc::clone(&dataset)).run(config.method);
    let warm = Experiment::prepare_with_dataset(&config, dataset).run(config.method);
    assert_eq!(fnv1a(&cold.image), fnv1a(&warm.image));
    assert_eq!(cold.per_rank, warm.per_rank);
}

#[test]
fn different_methods_share_one_prepared_frame_without_interference() {
    // Serving different methods from one prepared frame (working copies
    // of the same subimages) must leave each method's result unchanged
    // relative to a dedicated run.
    let config = config();
    let exp = Experiment::prepare(&config);
    let solo_bs = Experiment::prepare(&config).run(Method::Bs);
    let _ = exp.run(Method::Bsbrc);
    let shared_bs = exp.run(Method::Bs);
    assert_eq!(fnv1a(&solo_bs.image), fnv1a(&shared_bs.image));
    assert_eq!(solo_bs.per_rank, shared_bs.per_rank);
}

/// What a frame is compared on: the image digest, every rank's method
/// counters and transport counters, and who died.
#[derive(Debug, PartialEq)]
struct Observed {
    image: u64,
    per_rank: Vec<MethodStats>,
    traffic: Vec<TrafficStats>,
    dead_ranks: Vec<usize>,
}

impl Observed {
    fn new(
        image: &Image,
        mut per_rank: Vec<MethodStats>,
        traffic: Vec<TrafficStats>,
        dead_ranks: Vec<usize>,
    ) -> Observed {
        // Tile-stream's two wall-clock readings: the only fields that
        // differ between two runs of one frame on one schedule.
        for stats in &mut per_rank {
            stats.first_tile_seconds = None;
            stats.last_tile_seconds = None;
        }
        Observed {
            image: fnv1a(image),
            per_rank,
            traffic,
            dead_ranks,
        }
    }
}

/// A frame through the pipeline: every rank composites in a leased frame.
/// A rank's typed failure is the frame's error.
fn leased(exp: &Experiment, method: Method) -> Result<Observed, CompositeError> {
    let out = exp.run(method).into_result()?;
    Ok(Observed::new(
        &out.image,
        out.per_rank,
        out.traffic,
        out.dead_ranks,
    ))
}

/// The same frame with no frame carried over: the rank body as it was
/// before frames were leased, a fresh `Image::clone` per rank.
fn pool_free(exp: &Experiment, config: &ExperimentConfig, method: Method) -> Observed {
    let run = run_group_with(config.processors, config.group_options(), |ep| {
        let mut img = exp.subimages()[ep.rank()].clone();
        let result = match composite(method, ep, &mut img, exp.depth()) {
            Ok(result) => result,
            Err(CompositeError::Killed { .. }) => return (None, None),
            Err(e) => panic_any(e),
        };
        match gather_image_tolerant(ep, &img, &result.piece, 0) {
            Ok(gathered) => (Some(result.stats), gathered),
            Err(CompositeError::Killed { .. }) => (Some(result.stats), None),
            Err(e) => panic_any(e),
        }
    });
    let mut image = Image::blank(config.image_size, config.image_size);
    let mut per_rank = Vec::new();
    for (stats, gathered) in run.results {
        let mut stats = stats.unwrap_or_default();
        config.comp_timing.apply(&mut stats);
        per_rank.push(stats);
        if let Some(gathered) = gathered {
            image = gathered.image;
        }
    }
    Observed::new(&image, per_rank, run.stats, run.dead_ranks)
}

/// Runs `frame`, which reports a typed failure as its error; a frame
/// whose rank body panics (the pool-free body raises its error) must
/// unwind with the typed error as its payload.
fn or_unwound(
    frame: impl FnOnce() -> Result<Observed, CompositeError>,
) -> Result<Observed, CompositeError> {
    catch_unwind(AssertUnwindSafe(frame)).unwrap_or_else(|payload| {
        Err(*payload
            .downcast::<CompositeError>()
            .expect("a rank body unwinds with a typed CompositeError"))
    })
}

#[derive(Clone, Copy, Debug)]
enum Fault {
    None,
    /// `kill=RANK@2`: the rank dies two operations in.
    Kill(usize),
    /// `corrupt=0.9,seed=N` on the raw transport: a damaged header
    /// fails the frame, a damaged pixel goes through.
    Corrupt(u64),
}

#[derive(Clone, Copy, Debug)]
struct FrameSpec {
    size: u16,
    procs: usize,
    pose: usize,
    method: Method,
    fault: Fault,
}

impl FrameSpec {
    fn config(&self) -> ExperimentConfig {
        let mut config =
            ExperimentConfig::small_test(DatasetKind::EngineHigh, self.procs, self.method);
        config.image_size = self.size;
        config.rot_y_deg += 50.0 * self.pose as f32;
        // Faulted frames run under the virtual clock: deadlines cost no
        // wall time and both sides of the comparison take one schedule.
        // So do tile-stream frames: on the real transport an owner's
        // endpoint sums its modeled receive times in arrival order, and
        // the last bit of `TrafficStats::modeled_comm_seconds` moves from
        // run to run (the method's own `comm_seconds` does not).
        if !matches!(self.fault, Fault::None) || self.method == Method::TileStream {
            config.schedule_seed = Some(11);
            config.recv_deadline = Some(Duration::from_millis(200));
        }
        let faults = match self.fault {
            Fault::None => return config,
            Fault::Kill(rank) => FaultConfig {
                kill: Some(KillSpec { rank, after_ops: 2 }),
                ..Default::default()
            },
            Fault::Corrupt(seed) => FaultConfig {
                corrupt: 0.9,
                seed,
                ..Default::default()
            },
        };
        config.faults = Some(faults);
        config
    }
}

#[test]
fn frame_n_does_not_depend_on_frames_before_it() {
    const SIZES: [u16; 2] = [64, 40];
    const PROCS: [usize; 3] = [3, 4, 8];
    let mut frames = Vec::new();
    for (m, method) in Method::all().into_iter().enumerate() {
        for (p, procs) in PROCS.into_iter().enumerate() {
            for (s, size) in SIZES.into_iter().enumerate() {
                frames.push(FrameSpec {
                    size,
                    procs,
                    pose: (m + p + s) % 2,
                    method,
                    fault: Fault::None,
                });
            }
        }
    }
    let faulted = |size, procs, method, fault| FrameSpec {
        size,
        procs,
        pose: 0,
        method,
        fault,
    };
    // Pair exchanges and the methods that receive from several peers at
    // once (radix-k's round of 4 at P = 8 and of 3 at P = 6, and the tile
    // stream): a dead peer's close reaches a rank at a quiescent point of
    // the virtual clock, so the kill replays either way.
    for (procs, method) in [
        (4, Method::Bsbrc),
        (8, Method::Bs),
        (8, Method::Bslc),
        (8, Method::RadixK),
        (6, Method::RadixK),
        (8, Method::TileStream),
    ] {
        frames.push(faulted(64, procs, method, Fault::Kill(procs - 1)));
    }
    for seed in 1..=6 {
        frames.push(faulted(40, 8, Method::Bsbr, Fault::Corrupt(seed)));
    }
    // Fisher–Yates under a fixed seed: methods, widths, sizes and faults
    // interleave, so every lease follows some other kind of frame.
    let mut rng = StdRng::seed_from_u64(20);
    for i in (1..frames.len()).rev() {
        frames.swap(i, rng.gen_range(0..=i));
    }

    // One render per (size, width, pose), on a one-thread pool; a faulted
    // frame composites the same subimages under its own config.
    let inline = RenderPool::new(1);
    let mut rendered: HashMap<(u16, usize, usize), Experiment> = HashMap::new();
    let (mut failed, mut degraded, mut size_changes) = (0, 0, 0);
    for (n, spec) in frames.iter().enumerate() {
        let config = spec.config();
        let base = rendered
            .entry((spec.size, spec.procs, spec.pose))
            .or_insert_with(|| {
                let clean = ExperimentConfig {
                    faults: None,
                    schedule_seed: None,
                    ..config
                };
                let dataset = Arc::new(Dataset::with_dims(clean.dataset, clean.resolved_dims()));
                Experiment::prepare_with_dataset_pool(&clean, dataset, Some(&inline))
            });
        let exp =
            Experiment::from_subimages(config, base.subimages().to_vec(), base.depth().clone());
        let got = or_unwound(|| leased(&exp, spec.method));
        let want = or_unwound(|| Ok(pool_free(&exp, &config, spec.method)));
        match (got, want) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got, want, "frame {n}: {spec:?}");
                degraded += usize::from(!got.dead_ranks.is_empty());
            }
            (Err(got), Err(want)) => {
                assert_eq!(got.to_string(), want.to_string(), "frame {n}: {spec:?}");
                failed += 1;
            }
            (got, want) => panic!("frame {n}: {spec:?}: leased {got:?}, pool-free {want:?}"),
        }
        size_changes += usize::from(n > 0 && frames[n - 1].size != spec.size);
    }
    assert!(failed > 0, "no corrupt= frame failed a rank");
    assert!(degraded >= 3, "the kill= frames did not kill");
    assert!(
        size_changes > 10,
        "the shuffle did not interleave the sizes"
    );
}

#[test]
fn concurrent_experiments_share_the_working_frames_without_waiting() {
    // Two groups of different widths, released together, each leasing P
    // frames per run from the one stack. A design with a slot per rank,
    // or one that waits for a frame to come back, stops here.
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        for (procs, method) in [(8, Method::Bsbrc), (4, Method::Bslc)] {
            let barrier = &barrier;
            scope.spawn(move || {
                let config = ExperimentConfig::small_test(DatasetKind::EngineHigh, procs, method);
                let exp = Experiment::prepare(&config);
                let want = pool_free(&exp, &config, method);
                barrier.wait();
                for run in 0..24 {
                    assert_eq!(
                        leased(&exp, method).as_ref(),
                        Ok(&want),
                        "P={procs} run {run}"
                    );
                }
            });
        }
    });
}
