//! Frame keys and the LRU frame cache.
//!
//! A frame is identified by a 64-bit FNV-1a digest of its complete
//! [`ExperimentConfig`] — dataset, resolution, processor count, method,
//! camera angles, transfer window (implied by the dataset), sampling
//! step, fault plan, schedule seed and every other semantic knob. The
//! digest is computed over the config's canonical wire encoding
//! ([`wire::encode_config`]), which carries every field bit for bit, so
//! *any* field change produces a new key: the cache can never serve a
//! frame rendered under different settings. (The acceleration knobs
//! `macrocell`/`tile` are part of the key too even though they are
//! bit-exact — a miss there costs one re-render, never correctness.)

use std::collections::HashMap;

use vr_image::checksum::{fnv1a_bytes, FNV_OFFSET};
use vr_system::ExperimentConfig;

use crate::wire;

/// The cache key for a frame request: FNV-1a over the canonical wire
/// encoding of the full configuration.
pub fn frame_key(config: &ExperimentConfig) -> u64 {
    fnv1a_bytes(FNV_OFFSET, wire::encode_config(config))
}

/// Hit/miss/evict accounting for one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// `get` calls that found the key.
    pub hits: u64,
    /// `get` calls that did not.
    pub misses: u64,
    /// Entries displaced to make room (never counts key overwrites).
    pub evictions: u64,
    /// `insert` calls that stored a value.
    pub insertions: u64,
}

impl CacheCounters {
    /// Hit fraction over all lookups, 0.0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A least-recently-used cache keyed by `u64` frame keys.
///
/// Recency is a monotone logical tick bumped on every hit and insert;
/// eviction removes the entry with the smallest tick. Capacity 0
/// disables the cache entirely (every `get` misses, `insert` is a
/// no-op) so the serving layer can turn caching off with one knob.
#[derive(Clone, Debug)]
pub struct LruCache<V> {
    capacity: usize,
    tick: u64,
    map: HashMap<u64, Entry<V>>,
    counters: CacheCounters,
}

#[derive(Clone, Debug)]
struct Entry<V> {
    value: V,
    last_used: u64,
}

impl<V: Clone> LruCache<V> {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            tick: 0,
            map: HashMap::with_capacity(capacity),
            counters: CacheCounters::default(),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: u64) -> Option<V> {
        if self.capacity == 0 {
            self.counters.misses += 1;
            return None;
        }
        self.tick += 1;
        match self.map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.counters.hits += 1;
                Some(entry.value.clone())
            }
            None => {
                self.counters.misses += 1;
                None
            }
        }
    }

    /// Non-counting, non-refreshing lookup (tests and introspection).
    pub fn peek(&self, key: u64) -> Option<&V> {
        self.map.get(&key).map(|e| &e.value)
    }

    /// Stores `key → value`, evicting the least-recently-used entry when
    /// the cache is full and `key` is new. Overwriting an existing key
    /// refreshes it in place without an eviction.
    pub fn insert(&mut self, key: u64, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            // Evict the stalest entry (smallest tick).
            if let Some(&victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                self.map.remove(&victim);
                self.counters.evictions += 1;
            }
        }
        self.map.insert(
            key,
            Entry {
                value,
                last_used: self.tick,
            },
        );
        self.counters.insertions += 1;
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A copy of the hit/miss/evict counters.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slsvr_core::Method;
    use vr_volume::DatasetKind;

    #[test]
    fn frame_key_depends_on_every_camera_field() {
        let base = ExperimentConfig::small_test(DatasetKind::Cube, 4, Method::Bsbrc);
        let k0 = frame_key(&base);
        assert_eq!(k0, frame_key(&base), "key must be deterministic");
        let mut rot = base;
        rot.rot_y_deg += 0.5;
        assert_ne!(k0, frame_key(&rot));
        let mut method = base;
        method.method = Method::Bs;
        assert_ne!(k0, frame_key(&method));
        let mut procs = base;
        procs.processors = 8;
        assert_ne!(k0, frame_key(&procs));
        let mut ds = base;
        ds.dataset = DatasetKind::Head;
        assert_ne!(k0, frame_key(&ds));
        let mut step = base;
        step.step = 1.0;
        assert_ne!(k0, frame_key(&step));
    }

    #[test]
    fn frame_key_changes_with_each_of_the_22_config_fields() {
        use std::time::Duration;
        use vr_system::CompTiming;
        fn ulp(v: &mut f32) {
            *v = f32::from_bits(v.to_bits() + 1);
        }
        fn ulp64(v: &mut f64) {
            *v = f64::from_bits(v.to_bits() + 1);
        }
        // One edit per field, in declaration order; floats move by one
        // ULP, options flip between `None` and `Some`.
        let edits: [fn(&mut ExperimentConfig); 22] = [
            |c| c.dataset = DatasetKind::Head,
            |c| c.image_size += 1,
            |c| c.processors += 1,
            |c| c.method = Method::Bs,
            |c| ulp(&mut c.rot_x_deg),
            |c| ulp(&mut c.rot_y_deg),
            |c| ulp64(&mut c.cost.t_c),
            |c| c.volume_dims = None,
            |c| ulp(&mut c.step),
            |c| ulp(&mut c.early_termination_alpha),
            |c| c.perspective_distance = Some(2.0),
            |c| c.balanced_partition = true,
            |c| c.ghost_voxels += 1,
            |c| c.comp_timing = CompTiming::Measured { slowdown: 1.0 },
            |c| c.faults = Some(Default::default()),
            |c| c.reliability.max_retries += 1,
            |c| c.recv_deadline = Some(Duration::from_millis(250)),
            |c| c.schedule_seed = Some(0),
            |c| c.macrocell += 1,
            |c| c.tile += 1,
            |c| c.render_threads += 1,
            |c| c.simd_lanes += 1,
        ];
        let base = ExperimentConfig::small_test(DatasetKind::Cube, 4, Method::Bsbrc);
        let mut keys = vec![frame_key(&base)];
        for edit in edits {
            let mut c = base;
            edit(&mut c);
            keys.push(frame_key(&c));
        }
        let distinct: std::collections::HashSet<u64> = keys.iter().copied().collect();
        assert_eq!(distinct.len(), keys.len(), "some field left the key alone");
        // Inside the nested structs too.
        let mut c = base;
        ulp64(&mut c.cost.t_s);
        assert_ne!(frame_key(&c), keys[0]);
        c = base;
        if let CompTiming::Modeled(cost) = &mut c.comp_timing {
            ulp64(&mut cost.t_over);
        }
        assert_ne!(frame_key(&c), keys[0]);
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(c.get(1), Some("a")); // refresh 1; 2 is now stalest
        c.insert(3, "c"); // evicts 2
        assert_eq!(c.len(), 2);
        assert!(c.peek(2).is_none());
        assert_eq!(c.get(1), Some("a"));
        assert_eq!(c.get(3), Some("c"));
        assert_eq!(c.counters().evictions, 1);
    }

    #[test]
    fn overwrite_does_not_evict() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        c.insert(1, "a2");
        assert_eq!(c.len(), 2);
        assert_eq!(c.counters().evictions, 0);
        assert_eq!(c.get(1), Some("a2"));
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let mut c = LruCache::new(0);
        c.insert(1, "a");
        assert_eq!(c.get(1), None);
        assert_eq!(c.len(), 0);
        assert_eq!(c.counters().insertions, 0);
        assert_eq!(c.counters().misses, 1);
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let mut c = LruCache::new(4);
        assert_eq!(c.get(7), None);
        c.insert(7, "x");
        assert_eq!(c.get(7), Some("x"));
        assert_eq!(c.get(8), None);
        let n = c.counters();
        assert_eq!((n.hits, n.misses, n.insertions, n.evictions), (1, 2, 1, 0));
        assert!((n.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }
}
