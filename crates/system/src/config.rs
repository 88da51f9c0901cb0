//! Experiment configuration.

use std::time::Duration;

use serde::{Deserialize, Serialize};
use slsvr_core::stats::CompCost;
use slsvr_core::Method;
use vr_comm::{CostModel, FaultConfig, GroupOptions, ReliabilityConfig, ScheduleSpec};
use vr_volume::DatasetKind;

/// Everything needed to run one paper experiment cell.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Which test sample to render.
    pub dataset: DatasetKind,
    /// Square image side in pixels (the paper uses 384 and 768).
    pub image_size: u16,
    /// Number of simulated processors (the paper uses 2…64).
    pub processors: usize,
    /// Compositing method under test.
    pub method: Method,
    /// Viewing-point rotation around the x axis, degrees.
    pub rot_x_deg: f32,
    /// Viewing-point rotation around the y axis, degrees.
    pub rot_y_deg: f32,
    /// Communication cost model (defaults to the SP2 preset).
    pub cost: CostModel,
    /// Optional reduced volume dimensions (tests); `None` = paper dims.
    pub volume_dims: Option<[usize; 3]>,
    /// Ray sampling step in voxels.
    pub step: f32,
    /// Early-ray-termination opacity threshold passed to the renderer.
    /// `1.0` (the default) is paper-faithful: rays integrate their full
    /// chord; lower values stop saturated rays early.
    pub early_termination_alpha: f32,
    /// Perspective projection: `Some(distance)` places the eye that many
    /// volume-diagonals in front of the center (smaller = stronger
    /// perspective); `None` keeps the paper's orthogonal projection.
    /// The depth order switches to the exact eye-based BSP traversal.
    pub perspective_distance: Option<f32>,
    /// Balance the partition by *visible voxels* (classified opacity
    /// non-zero) instead of raw extents — the paper's rendering-phase
    /// load-balancing future-work item.
    pub balanced_partition: bool,
    /// Ghost voxels added around each scattered block in the distributed
    /// pipeline (0 = the paper's plain block decomposition; 2 removes
    /// rendering seams exactly: 1 for trilinear support + 1 for the
    /// gradient stencil).
    pub ghost_voxels: usize,
    /// How `T_comp` is obtained — see [`CompTiming`]. The default models
    /// computation from exact operation counts with POWER2-calibrated
    /// per-op costs, the computation-side counterpart of the network
    /// cost model.
    pub comp_timing: CompTiming,
    /// Fault-injection campaign applied to the compositing group
    /// (`None` = the paper's perfect network, zero overhead).
    pub faults: Option<FaultConfig>,
    /// Reliable-delivery (framing + ack/retransmit) policy. Disabled by
    /// default so healthy runs stay byte-identical to the paper model.
    pub reliability: ReliabilityConfig,
    /// How long a blocking receive waits before declaring the group
    /// stuck (`None` = the transport default of 60 s).
    pub recv_deadline: Option<Duration>,
    /// When set, the compositing group runs under the deterministic
    /// virtual clock with this schedule seed: timeouts and fault delays
    /// become simulated time and message-delivery order is a seeded
    /// permutation, so the whole run is bit-reproducible.
    pub schedule_seed: Option<u64>,
    /// Macrocell edge length (voxels) for render-phase empty-space
    /// skipping; `0` disables the acceleration structure entirely. The
    /// accelerated path is bit-identical to the naive integrator, so
    /// this knob only trades build cost against skip granularity.
    #[serde(default = "default_macrocell")]
    pub macrocell: usize,
    /// Screen-tile edge length (pixels) for tile culling inside each
    /// block footprint; `0` casts every footprint pixel. Only effective
    /// when `macrocell >= 1` (the tile mask is derived from active
    /// macrocells).
    #[serde(default = "default_tile")]
    pub tile: usize,
    /// Intra-rank render threads for the banded tile scheduler: each
    /// rank's live screen tiles are fanned across this many threads.
    /// `0` (the default) means *auto* — the host's available
    /// parallelism, capped at 8; `1` is the single-threaded reference.
    /// Bit-identical at every value, so this knob only trades threads
    /// for wall-clock time (see [`Self::resolved_render_threads`]).
    #[serde(default = "default_render_threads")]
    pub render_threads: usize,
    /// Ray-sample batch width inside active macrocells (autovectorized
    /// fixed-width lanes); `1` is the scalar reference, wider values
    /// are bit-identical to it. Clamped to `vr_render::MAX_SIMD_LANES`.
    #[serde(default = "default_simd_lanes")]
    pub simd_lanes: usize,
}

fn default_macrocell() -> usize {
    vr_volume::DEFAULT_CELL_SIZE
}

fn default_tile() -> usize {
    vr_render::DEFAULT_TILE_SIZE
}

fn default_render_threads() -> usize {
    0
}

fn default_simd_lanes() -> usize {
    4
}

/// Source of the reported computation time.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub enum CompTiming {
    /// Use raw thread-CPU measurements from the host, optionally scaled
    /// by a constant slowdown factor. Subject to oversubscription noise
    /// when `P` exceeds the host's cores.
    Measured {
        /// Multiplier applied to every measured computation time.
        slowdown: f64,
    },
    /// Model computation from operation counts via per-op costs — the
    /// approach of the paper's Equations (1), (3), (5), (7). Exact and
    /// deterministic regardless of host load.
    Modeled(CompCost),
}

impl CompTiming {
    /// Resolves a rank's computation times in place per this policy.
    pub fn apply(&self, stats: &mut slsvr_core::MethodStats) {
        match self {
            CompTiming::Measured { slowdown } => {
                stats.comp_seconds *= slowdown;
                stats.bound_seconds *= slowdown;
                stats.encode_seconds *= slowdown;
            }
            CompTiming::Modeled(cost) => {
                stats.comp_seconds = cost.modeled_seconds(stats);
                stats.bound_seconds = cost.modeled_bound_seconds(stats);
                stats.encode_seconds = cost.modeled_encode_seconds(stats);
            }
        }
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            dataset: DatasetKind::EngineLow,
            image_size: 384,
            processors: 8,
            method: Method::Bsbrc,
            // A generic oblique view so subvolume footprints overlap and
            // bounding rectangles are non-trivial.
            rot_x_deg: 20.0,
            rot_y_deg: 30.0,
            cost: CostModel::sp2(),
            volume_dims: None,
            step: 1.0,
            early_termination_alpha: 1.0,
            perspective_distance: None,
            balanced_partition: false,
            ghost_voxels: 0,
            comp_timing: CompTiming::Modeled(CompCost::power2()),
            faults: None,
            reliability: ReliabilityConfig::default(),
            recv_deadline: None,
            schedule_seed: None,
            macrocell: default_macrocell(),
            tile: default_tile(),
            render_threads: default_render_threads(),
            simd_lanes: default_simd_lanes(),
        }
    }
}

impl ExperimentConfig {
    /// A small, fast configuration for tests.
    pub fn small_test(dataset: DatasetKind, processors: usize, method: Method) -> Self {
        ExperimentConfig {
            dataset,
            image_size: 64,
            processors,
            method,
            volume_dims: Some([32, 32, 16]),
            step: 2.0,
            cost: CostModel::sp2(),
            ..Default::default()
        }
    }

    /// The render-thread count this configuration resolves to, the host
    /// to itself (see [`vr_render::resolve_threads`]).
    pub fn resolved_render_threads(&self) -> usize {
        vr_render::resolve_threads(self.render_threads, 1)
    }

    /// The volume dimensions this configuration resolves to.
    pub fn resolved_dims(&self) -> [usize; 3] {
        self.volume_dims
            .unwrap_or_else(|| self.dataset.paper_dims())
    }

    /// A copy of this configuration re-seeded for retry `attempt`.
    ///
    /// Attempt 0 is the identity — the first attempt must stay
    /// bit-identical to a batch run of the original config. Later
    /// attempts salt the fault seed and the schedule seed so transient
    /// fault decisions (drops, corruption, delivery order) are re-drawn
    /// instead of replayed; the kill plan is left untouched because
    /// kills are structural and fire on every attempt by design.
    pub fn with_attempt_salt(&self, attempt: u32) -> ExperimentConfig {
        if attempt == 0 {
            return *self;
        }
        // Attempt `k` draws output `k − 1` of the stream its seed starts.
        let mix = |seed: u64| vr_comm::splitmix64(seed, u64::from(attempt) - 1);
        let mut salted = *self;
        if let Some(faults) = salted.faults.as_mut() {
            faults.seed = mix(faults.seed);
        }
        if let Some(seed) = salted.schedule_seed.as_mut() {
            *seed = mix(*seed);
        }
        salted
    }

    /// The transport options this configuration resolves to.
    pub fn group_options(&self) -> GroupOptions {
        let mut options = GroupOptions {
            cost: self.cost,
            faults: self.faults,
            reliability: self.reliability,
            schedule: self.schedule_seed.map(ScheduleSpec::seeded),
            ..Default::default()
        };
        if let Some(deadline) = self.recv_deadline {
            options.recv_deadline = deadline;
        }
        options
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = ExperimentConfig::default();
        assert_eq!(c.image_size, 384);
        assert_eq!(c.cost, CostModel::sp2());
        assert_eq!(c.resolved_dims(), [256, 256, 110]);
    }

    #[test]
    fn schedule_seed_maps_to_group_schedule() {
        let mut c = ExperimentConfig::default();
        assert!(c.group_options().schedule.is_none());
        c.schedule_seed = Some(9);
        assert_eq!(c.group_options().schedule, Some(ScheduleSpec::seeded(9)));
    }

    #[test]
    fn small_test_overrides_dims() {
        let c = ExperimentConfig::small_test(DatasetKind::Head, 4, Method::Bs);
        assert_eq!(c.resolved_dims(), [32, 32, 16]);
        assert_eq!(c.processors, 4);
    }

    #[test]
    fn attempt_salt_is_identity_at_zero_and_redraws_later() {
        let mut c = ExperimentConfig::small_test(DatasetKind::Head, 4, Method::Bs);
        c.faults = Some(FaultConfig {
            seed: 42,
            drop: 0.5,
            ..Default::default()
        });
        c.schedule_seed = Some(7);

        let a0 = c.with_attempt_salt(0);
        assert_eq!(a0.faults.unwrap().seed, 42);
        assert_eq!(a0.schedule_seed, Some(7));

        let a1 = c.with_attempt_salt(1);
        let a2 = c.with_attempt_salt(2);
        assert_ne!(a1.faults.unwrap().seed, 42);
        assert_ne!(a1.faults.unwrap().seed, a2.faults.unwrap().seed);
        assert_ne!(a1.schedule_seed, Some(7));
        assert_ne!(a1.schedule_seed, a2.schedule_seed);
        // Fault *probabilities* and the kill plan are untouched.
        assert_eq!(a1.faults.unwrap().drop, 0.5);
        assert_eq!(a1.faults.unwrap().kill, c.faults.unwrap().kill);
        // Deterministic: same attempt ⇒ same salted config.
        assert_eq!(
            a1.faults.unwrap().seed,
            c.with_attempt_salt(1).faults.unwrap().seed
        );
    }

    #[test]
    fn acceleration_is_on_by_default() {
        let c = ExperimentConfig::default();
        assert_eq!(c.macrocell, vr_volume::DEFAULT_CELL_SIZE);
        assert_eq!(c.tile, vr_render::DEFAULT_TILE_SIZE);
        assert!(c.macrocell >= 1 && c.tile >= 1);
    }

    #[test]
    fn render_threading_is_on_by_default_and_bounded() {
        let c = ExperimentConfig::default();
        // Auto mode: threading on by default (the whole test battery
        // re-proves bit-identity with it), capped at 8 threads.
        assert_eq!(c.render_threads, 0);
        let resolved = c.resolved_render_threads();
        assert!((1..=8).contains(&resolved));
        assert_eq!(c.simd_lanes, 4);
        // Explicit values pass through but are bounded at 64.
        let mut c = c;
        c.render_threads = 3;
        assert_eq!(c.resolved_render_threads(), 3);
        c.render_threads = 10_000;
        assert_eq!(c.resolved_render_threads(), 64);
    }
}
