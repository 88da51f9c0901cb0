//! The four workloads and the seeded poses their ops are made of.
//!
//! The program under test receives only the generated
//! [`ExperimentConfig`]s; the seed never reaches it.

use slsvr_core::Method;
use vr_system::ExperimentConfig;
use vr_volume::DatasetKind;

/// How a workload drives the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Op = one `Experiment::run` on a pre-rendered pose (composite +
    /// gather to rank 0), one caller.
    Composite,
    /// Op = one request through a TCP `Client` to an in-process
    /// `Daemon`; `hot` cycles a cached pose set, cold never repeats a
    /// pose.
    Serve { hot: bool },
}

/// One workload's fixed configuration.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub dataset: DatasetKind,
    pub image_size: u16,
    pub processors: usize,
    pub method: Method,
    /// Size of the cycled pose set (composite and hot workloads).
    pub poses: usize,
    /// Closed-loop callers (= connections on the serve workloads).
    pub callers: usize,
    /// Warm-up ops per caller, part of set-up.
    pub warmup: usize,
    /// Daemon frame-cache capacity. The composite workloads' ops never
    /// touch a daemon; their traced runs' serve-side probes do.
    pub cache_frames: usize,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "composite_fanout",
        kind: Kind::Composite,
        dataset: DatasetKind::EngineHigh,
        image_size: 512,
        processors: 16,
        method: Method::Bsbrc,
        poses: 4,
        callers: 1,
        warmup: 20,
        cache_frames: 64,
        why: "sparse 512x512 image over 16 ranks with BSBRC: many small rect+RLE messages, \
              so group spawn/join, per-message cost, allocation and the codec set the time",
    },
    Workload {
        name: "composite_bulk",
        kind: Kind::Composite,
        dataset: DatasetKind::EngineLow,
        image_size: 512,
        processors: 4,
        method: Method::Bs,
        poses: 4,
        callers: 1,
        warmup: 20,
        cache_frames: 64,
        why: "dense 512x512 image over 4 ranks with plain BS: 2 MB raw halves, so bytes \
              copied, the over kernel and image clones set the time and codecs do nothing",
    },
    Workload {
        name: "serve_cold",
        kind: Kind::Serve { hot: false },
        dataset: DatasetKind::Head,
        image_size: 128,
        processors: 4,
        method: Method::Bsbrc,
        poses: 0,
        // Two callers put two frames' rank threads on this host's two
        // cores at once and the same seed then reads 68 to 88 ms; one
        // caller holds within a few percent (README, "serve_cold").
        callers: 1,
        // Past the cache's capacity, so the measured frames all evict.
        warmup: 20,
        cache_frames: 16,
        why: "TCP request in, verified pixels out, every pose new (0 % cache hits): the \
              whole stack runs and nearly all of the frame is vr-render",
    },
    Workload {
        name: "serve_hot",
        kind: Kind::Serve { hot: true },
        dataset: DatasetKind::Head,
        image_size: 256,
        processors: 4,
        method: Method::Bsbrc,
        poses: 8,
        callers: 2,
        warmup: 50,
        cache_frames: 64,
        why: "same daemon, 8 cached poses (100 % hits): render and compositing idle, the \
              frame is wire codec, CRC framing, loopback, frame key, LRU get and client hash",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The request for one pose: paper dims, step 1.0 and default
    /// `macrocell`/`tile`/`simd_lanes`, nothing else set.
    pub fn config(&self, pose: Pose) -> ExperimentConfig {
        ExperimentConfig {
            dataset: self.dataset,
            image_size: self.image_size,
            processors: self.processors,
            method: self.method,
            rot_x_deg: pose.rot_x_deg,
            rot_y_deg: pose.rot_y_deg,
            ..Default::default()
        }
    }
}

/// One viewing direction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pose {
    pub rot_x_deg: f32,
    pub rot_y_deg: f32,
}

/// splitmix64: the one generator every seeded choice is drawn from.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn pose_at(unit_y: f64, unit_x: f64) -> Pose {
    Pose {
        rot_y_deg: (unit_y * 360.0) as f32,
        rot_x_deg: (-30.0 + unit_x * 60.0) as f32,
    }
}

/// A set of `n` poses and the order they are cycled in. `rot_y` is
/// uniform in [0, 360) and `rot_x` in [−30, 30], from one seeded offset
/// per axis: `rot_y` advances by a quarter turn plus `1/n` of one, so the
/// poses stand all the way round the volume *and* evenly within the
/// quarter turn over which a box-shaped volume's outline repeats;
/// `rot_x` takes `n` evenly spaced values in seeded order. Two seeds so
/// differ in where the poses stand and little in how much of the volume
/// they see (4 poses: 2.5 % seed-to-seed spread in bytes per frame,
/// against 8 % for poses a plain quarter turn apart).
pub fn pose_set(seed: u64, n: usize) -> (Vec<Pose>, Vec<usize>) {
    let mut rng = SplitMix64::new(seed);
    let (shift_y, shift_x) = (rng.next_unit(), rng.next_unit());
    let bands = shuffled(&mut rng, n);
    let step_y = 0.25 * (1.0 + 1.0 / n as f64);
    let poses = (0..n)
        .map(|i| {
            pose_at(
                (shift_y + i as f64 * step_y).fract(),
                (bands[i] as f64 + shift_x) / n as f64,
            )
        })
        .collect();
    (poses, shuffled(&mut rng, n))
}

fn shuffled(rng: &mut SplitMix64, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    v
}

/// An endless walk of poses that never repeats one: two seeded offsets
/// advanced by irrational steps (the golden ratio and √2 − 1), which
/// fills [0, 360) × [−30, 30] evenly from any start.
pub struct PoseWalk {
    y0: f64,
    x0: f64,
}

impl PoseWalk {
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        PoseWalk {
            y0: rng.next_unit(),
            x0: rng.next_unit(),
        }
    }

    pub fn pose(&self, index: u64) -> Pose {
        const GOLDEN: f64 = 0.618_033_988_749_894_9;
        const SQRT2_M1: f64 = 0.414_213_562_373_095_03;
        let i = index as f64;
        pose_at(
            (self.y0 + i * GOLDEN).fract(),
            (self.x0 + i * SQRT2_M1).fract(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(p: &Pose) -> (u32, u32) {
        (p.rot_x_deg.to_bits(), p.rot_y_deg.to_bits())
    }

    #[test]
    fn same_seed_same_ops_and_another_seed_other_ops() {
        let (poses_a, order_a) = pose_set(7, 8);
        let (poses_b, order_b) = pose_set(7, 8);
        assert_eq!(poses_a, poses_b);
        assert_eq!(order_a, order_b);
        let (poses_c, _) = pose_set(8, 8);
        assert_ne!(poses_a, poses_c);

        let walk = |seed| -> Vec<Pose> { (0..64).map(|i| PoseWalk::new(seed).pose(i)).collect() };
        assert_eq!(walk(7), walk(7));
        assert_ne!(walk(7), walk(8));
    }

    #[test]
    fn pose_sets_stay_in_range_and_spread_round_the_volume() {
        for seed in 0..20 {
            let (poses, order) = pose_set(seed, 8);
            let mut octants = [false; 8];
            for p in &poses {
                assert!((-30.0..=30.0).contains(&p.rot_x_deg), "{p:?}");
                assert!((0.0..=360.0).contains(&p.rot_y_deg), "{p:?}");
                octants[(p.rot_y_deg / 45.0) as usize % 8] = true;
            }
            assert!(octants.iter().filter(|&&hit| hit).count() >= 7, "{poses:?}");
            let mut seen = order.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn the_walk_never_repeats_a_pose() {
        let walk = PoseWalk::new(1);
        let mut seen = std::collections::HashSet::new();
        for i in 0..20_000 {
            let p = walk.pose(i);
            assert!((0.0..360.0).contains(&p.rot_y_deg) && (-30.0..=30.0).contains(&p.rot_x_deg));
            assert!(seen.insert(bits(&p)), "pose {i} repeats");
        }
    }

    #[test]
    fn workload_names_are_unique_and_found() {
        for w in &WORKLOADS {
            assert_eq!(workload(w.name).unwrap().name, w.name);
        }
        assert!(workload("nope").is_none());
        let cfg = WORKLOADS[0].config(Pose {
            rot_x_deg: 1.0,
            rot_y_deg: 2.0,
        });
        assert_eq!(cfg.volume_dims, None);
        assert_eq!(cfg.step, 1.0);
    }
}
