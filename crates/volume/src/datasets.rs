//! Procedural analogues of the paper's four test samples.
//!
//! | Paper sample  | Dims            | Analogue here                               |
//! |---------------|-----------------|---------------------------------------------|
//! | `Engine_low`  | 256×256×110     | engine block + cylinder bores, low window   |
//! | `Engine_high` | 256×256×110     | same volume, high-density window            |
//! | `Head`        | 256×256×113     | skin/skull/brain ellipsoid shells           |
//! | `Cube`        | 256×256×110     | hollow cube *edge frame* (sparse, wide)     |
//!
//! The geometry is evaluated in normalized `[0,1]³` coordinates with a
//! deterministic integer-hash noise, so builds are reproducible across
//! runs and platforms without carrying data files.

use crate::grid::Volume;
use crate::macrocell::MacrocellGrid;
use crate::transfer::TransferFunction;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Which test sample to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Engine volume with the low-density transfer window (dense image).
    EngineLow,
    /// Engine volume with the high-density transfer window (sparse image).
    EngineHigh,
    /// Head volume (dense, roundish image).
    Head,
    /// Hollow cube edge frame (large, sparse bounding rectangle).
    Cube,
}

impl DatasetKind {
    /// All four paper samples, in the paper's presentation order.
    pub fn all() -> [DatasetKind; 4] {
        [
            DatasetKind::EngineLow,
            DatasetKind::EngineHigh,
            DatasetKind::Head,
            DatasetKind::Cube,
        ]
    }

    /// The paper's name for the sample.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::EngineLow => "Engine_low",
            DatasetKind::EngineHigh => "Engine_high",
            DatasetKind::Head => "Head",
            DatasetKind::Cube => "Cube",
        }
    }

    /// The paper's volume dimensions for the sample.
    pub fn paper_dims(self) -> [usize; 3] {
        match self {
            DatasetKind::Head => [256, 256, 113],
            _ => [256, 256, 110],
        }
    }

    /// The transfer function preset the sample is classified with.
    pub fn transfer(self) -> TransferFunction {
        match self {
            DatasetKind::EngineLow => TransferFunction::engine_low(),
            DatasetKind::EngineHigh => TransferFunction::engine_high(),
            DatasetKind::Head => TransferFunction::head(),
            DatasetKind::Cube => TransferFunction::cube(),
        }
    }
}

/// Parses a sample by its paper name ([`DatasetKind::name`]), any case,
/// with or without the underscore (`engine_low`, `EngineLow`, `HEAD`).
impl std::str::FromStr for DatasetKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let all = DatasetKind::all();
        all.into_iter()
            .find(|d| {
                let name = d.name();
                s.eq_ignore_ascii_case(name) || s.eq_ignore_ascii_case(&name.replace('_', ""))
            })
            .ok_or_else(|| {
                let names = all.map(|d| d.name().to_ascii_lowercase());
                format!(
                    "unknown dataset `{}` (try {})",
                    s.to_ascii_lowercase(),
                    names.join("/")
                )
            })
    }
}

/// A test sample: a volume plus the transfer function to classify it.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Which sample this is.
    pub kind: DatasetKind,
    /// The scalar volume.
    pub volume: Volume,
    /// Classification used during rendering.
    pub transfer: TransferFunction,
    /// Macrocell grids built over `volume`, keyed by cell size. Shared
    /// across clones so animation frames reuse the build; cleared lazily
    /// never — mutate `volume` only before the first render.
    grids: Arc<Mutex<HashMap<usize, Arc<MacrocellGrid>>>>,
}

impl Dataset {
    /// Builds the sample at the paper's full resolution.
    pub fn paper(kind: DatasetKind) -> Self {
        Dataset::with_dims(kind, kind.paper_dims())
    }

    /// Builds the sample at reduced resolution (for fast tests); geometry
    /// is resolution-independent.
    pub fn with_dims(kind: DatasetKind, dims: [usize; 3]) -> Self {
        let volume = match kind {
            DatasetKind::EngineLow | DatasetKind::EngineHigh => engine_volume(dims),
            DatasetKind::Head => head_volume(dims),
            DatasetKind::Cube => cube_volume(dims),
        };
        Dataset {
            kind,
            volume,
            transfer: kind.transfer(),
            grids: Arc::default(),
        }
    }

    /// The macrocell grid for `cell`-voxel cells, built on first use and
    /// cached for the dataset's lifetime (clones share the cache, so an
    /// animation pays the build cost once, not per frame).
    pub fn macrocell_grid(&self, cell: usize) -> Arc<MacrocellGrid> {
        let mut grids = self.grids.lock().unwrap();
        Arc::clone(
            grids
                .entry(cell)
                .or_insert_with(|| Arc::new(MacrocellGrid::build(&self.volume, cell))),
        )
    }
}

/// Deterministic integer-hash noise in `[0, 1)` (no RNG state, so voxel
/// evaluation order never matters).
fn hash_noise(x: usize, y: usize, z: usize, seed: u32) -> f32 {
    let mut h = seed
        .wrapping_mul(0x9E3779B1)
        .wrapping_add(x as u32)
        .wrapping_mul(0x85EBCA6B)
        .wrapping_add(y as u32)
        .wrapping_mul(0xC2B2AE35)
        .wrapping_add(z as u32);
    h ^= h >> 16;
    h = h.wrapping_mul(0x7FEB352D);
    h ^= h >> 15;
    h = h.wrapping_mul(0x846CA68B);
    h ^= h >> 16;
    (h as f32) / (u32::MAX as f32)
}

fn normalized(dims: [usize; 3], x: usize, y: usize, z: usize) -> (f32, f32, f32) {
    (
        (x as f32 + 0.5) / dims[0] as f32,
        (y as f32 + 0.5) / dims[1] as f32,
        (z as f32 + 0.5) / dims[2] as f32,
    )
}

/// Engine block: a shell casing with four cylinder bores and a crank rod.
/// Casing density ≈ 90 (visible only in the low window); bores and rod ≈
/// 210–230 (visible in both windows).
fn engine_volume(dims: [usize; 3]) -> Volume {
    Volume::from_fn(dims, |xi, yi, zi| {
        let (x, y, z) = normalized(dims, xi, yi, zi);
        let mut d: f32 = 0.0;

        // Outer casing block with hollow interior.
        let inside_block =
            (0.08..=0.92).contains(&x) && (0.12..=0.88).contains(&y) && (0.06..=0.94).contains(&z);
        if inside_block {
            let wall = (x - 0.08)
                .min(0.92 - x)
                .min(y - 0.12)
                .min(0.88 - y)
                .min(z - 0.06)
                .min(0.94 - z);
            d = if wall < 0.05 { 95.0 } else { 30.0 };

            // Four cylinder bores along z.
            for (cx, cy) in [(0.30, 0.35), (0.70, 0.35), (0.30, 0.65), (0.70, 0.65)] {
                let r = ((x - cx).powi(2) + (y - cy).powi(2)).sqrt();
                if (r - 0.11).abs() < 0.035 && (0.15..=0.85).contains(&z) {
                    d = 215.0;
                } else if r < 0.11 - 0.035 && (0.15..=0.85).contains(&z) {
                    d = 12.0; // bore interior
                }
            }

            // Crank rod along x.
            let rr = ((y - 0.5).powi(2) + (z - 0.28).powi(2)).sqrt();
            if rr < 0.055 && (0.12..=0.88).contains(&x) {
                d = 230.0;
            }
        }

        if d > 0.0 {
            d += (hash_noise(xi, yi, zi, 0xE6617E) - 0.5) * 14.0;
        }
        d.clamp(0.0, 255.0) as u8
    })
}

/// Head: nested skin / skull / brain ellipsoids with carved eye sockets.
fn head_volume(dims: [usize; 3]) -> Volume {
    // Ellipsoid helper: squared normalized radius.
    let ell = |x: f32, y: f32, z: f32, cx: f32, cy: f32, cz: f32, rx: f32, ry: f32, rz: f32| {
        ((x - cx) / rx).powi(2) + ((y - cy) / ry).powi(2) + ((z - cz) / rz).powi(2)
    };
    Volume::from_fn(dims, |xi, yi, zi| {
        let (x, y, z) = normalized(dims, xi, yi, zi);
        let outer = ell(x, y, z, 0.5, 0.5, 0.5, 0.40, 0.47, 0.43);
        let mut d: f32 = 0.0;
        if outer <= 1.0 {
            let skull_outer = ell(x, y, z, 0.5, 0.5, 0.5, 0.355, 0.42, 0.385);
            let skull_inner = ell(x, y, z, 0.5, 0.5, 0.5, 0.31, 0.37, 0.335);
            if skull_outer > 1.0 {
                d = 58.0; // skin / soft tissue
            } else if skull_inner > 1.0 {
                d = 218.0; // bone shell
            } else {
                // Brain with mild internal structure.
                let wob = hash_noise(xi / 4, yi / 4, zi / 4, 0x4EAD) * 30.0;
                d = 86.0 + wob;
            }
            // Eye sockets carved through skin and bone.
            for sx in [0.36, 0.64] {
                if ell(x, y, z, sx, 0.30, 0.55, 0.09, 0.09, 0.09) <= 1.0 {
                    d = 25.0;
                }
            }
        }
        if d > 0.0 {
            d += (hash_noise(xi, yi, zi, 0x6EAD) - 0.5) * 10.0;
        }
        d.clamp(0.0, 255.0) as u8
    })
}

/// Cube: only the 12 edges of a cube carry density — the projected image
/// has a large, very sparse bounding rectangle (BSBR's worst case).
fn cube_volume(dims: [usize; 3]) -> Volume {
    const LO: f32 = 0.15;
    const HI: f32 = 0.85;
    const W: f32 = 0.035;
    let near_face = |c: f32| (c - LO).abs() < W || (c - HI).abs() < W;
    let in_range = |c: f32| (LO - W..=HI + W).contains(&c);
    Volume::from_fn(dims, |xi, yi, zi| {
        let (x, y, z) = normalized(dims, xi, yi, zi);
        if !(in_range(x) && in_range(y) && in_range(z)) {
            return 0;
        }
        let near = [near_face(x), near_face(y), near_face(z)];
        let count = near.iter().filter(|&&b| b).count();
        if count >= 2 {
            let base = 200.0 + (hash_noise(xi, yi, zi, 0xC0BE) - 0.5) * 30.0;
            base.clamp(0.0, 255.0) as u8
        } else {
            0
        }
    })
}

/// A randomized blob volume with tunable occupancy, for controlled-density
/// ablation workloads (not a paper sample).
pub fn random_blobs(dims: [usize; 3], blobs: usize, radius: f32, seed: u64) -> Volume {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let centers: Vec<(f32, f32, f32, f32)> = (0..blobs)
        .map(|_| {
            (
                rng.gen_range(0.1..0.9),
                rng.gen_range(0.1..0.9),
                rng.gen_range(0.1..0.9),
                radius * rng.gen_range(0.5..1.5),
            )
        })
        .collect();
    Volume::from_fn(dims, |xi, yi, zi| {
        let (x, y, z) = normalized(dims, xi, yi, zi);
        let mut d: f32 = 0.0;
        for &(cx, cy, cz, r) in &centers {
            let dist = ((x - cx).powi(2) + (y - cy).powi(2) + (z - cz).powi(2)).sqrt();
            if dist < r {
                d = d.max(255.0 * (1.0 - dist / r));
            }
        }
        d as u8
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIMS: [usize; 3] = [48, 48, 24];

    #[test]
    fn names_parse_back_in_the_spellings_the_cli_accepts() {
        for kind in DatasetKind::all() {
            let name = kind.name();
            for spelling in [
                name.to_string(),
                name.to_ascii_lowercase(),
                name.to_ascii_uppercase(),
                name.replace('_', ""),
            ] {
                assert_eq!(spelling.parse(), Ok(kind), "{spelling}");
            }
        }
        assert_eq!("enginelow".parse(), Ok(DatasetKind::EngineLow));
        assert_eq!(
            "Teapot".parse::<DatasetKind>(),
            Err("unknown dataset `teapot` (try engine_low/engine_high/head/cube)".to_string())
        );
        assert!("engine-low".parse::<DatasetKind>().is_err());
        assert!("".parse::<DatasetKind>().is_err());
    }

    #[test]
    fn builds_are_deterministic() {
        let a = Dataset::with_dims(DatasetKind::EngineLow, DIMS);
        let b = Dataset::with_dims(DatasetKind::EngineLow, DIMS);
        assert_eq!(a.volume, b.volume);
    }

    #[test]
    fn engine_low_and_high_share_volume() {
        let lo = Dataset::with_dims(DatasetKind::EngineLow, DIMS);
        let hi = Dataset::with_dims(DatasetKind::EngineHigh, DIMS);
        assert_eq!(lo.volume, hi.volume);
        assert_ne!(lo.transfer, hi.transfer);
    }

    #[test]
    fn engine_high_classification_is_sparser() {
        let ds = Dataset::with_dims(DatasetKind::EngineLow, DIMS);
        let count_visible = |tf: &TransferFunction| {
            let mut n = 0usize;
            for z in 0..DIMS[2] {
                for y in 0..DIMS[1] {
                    for x in 0..DIMS[0] {
                        if tf.opacity(ds.volume.get(x, y, z) as f32) > 0.01 {
                            n += 1;
                        }
                    }
                }
            }
            n
        };
        let low = count_visible(&TransferFunction::engine_low());
        let high = count_visible(&TransferFunction::engine_high());
        assert!(high * 2 < low, "high={high}, low={low}");
        assert!(high > 0);
    }

    #[test]
    fn cube_interior_is_empty() {
        let v = cube_volume(DIMS);
        // Center of the cube must be empty (hollow) …
        assert_eq!(v.get(DIMS[0] / 2, DIMS[1] / 2, DIMS[2] / 2), 0);
        // … and overall occupancy must be small (edge frame only).
        assert!(v.occupancy() < 0.12, "occupancy {}", v.occupancy());
        assert!(v.occupancy() > 0.0);
    }

    #[test]
    fn head_has_bone_shell_denser_than_skin() {
        let v = head_volume([64, 64, 32]);
        // Sample along the middle row: must encounter skin (< 100) before
        // bone (> 180) scanning inward from the boundary.
        let y = 32;
        let z = 16;
        let mut saw_skin_before_bone = false;
        let mut saw_bone = false;
        for x in 0..64 {
            let d = v.get(x, y, z);
            if d > 180 {
                saw_bone = true;
                break;
            }
            if d > 30 && d < 100 {
                saw_skin_before_bone = true;
            }
        }
        assert!(saw_bone, "no bone shell found");
        assert!(saw_skin_before_bone, "no skin layer before bone");
    }

    #[test]
    fn paper_dims_match_paper() {
        assert_eq!(DatasetKind::EngineLow.paper_dims(), [256, 256, 110]);
        assert_eq!(DatasetKind::Head.paper_dims(), [256, 256, 113]);
    }

    #[test]
    fn random_blobs_controlled_by_count() {
        let sparse = random_blobs(DIMS, 1, 0.1, 42);
        let dense = random_blobs(DIMS, 20, 0.2, 42);
        assert!(dense.occupancy() > sparse.occupancy());
    }

    #[test]
    fn random_blobs_deterministic_per_seed() {
        assert_eq!(random_blobs(DIMS, 5, 0.2, 7), random_blobs(DIMS, 5, 0.2, 7));
        assert_ne!(random_blobs(DIMS, 5, 0.2, 7), random_blobs(DIMS, 5, 0.2, 8));
    }

    #[test]
    fn macrocell_grid_is_cached_and_shared_across_clones() {
        let ds = Dataset::with_dims(DatasetKind::Cube, DIMS);
        let g1 = ds.macrocell_grid(8);
        let clone = ds.clone();
        let g2 = clone.macrocell_grid(8);
        assert!(Arc::ptr_eq(&g1, &g2), "clone rebuilt the grid");
        let g4 = ds.macrocell_grid(4);
        assert!(!Arc::ptr_eq(&g1, &g4));
        assert_eq!(g4.cell_size(), 4);
    }

    #[test]
    fn hash_noise_in_unit_range() {
        for i in 0..1000 {
            let n = hash_noise(i, i * 7, i * 13, 0xABCD);
            assert!((0.0..=1.0).contains(&n));
        }
    }
}
