//! A sharded LRU cache for prediction results.
//!
//! Keys are typed [`CacheKey`]s built from a request's fields, so a
//! lookup writes no JSON. Each engine owns its own cache, so a key needs
//! no model-version prefix. Sharding by key hash keeps lock contention
//! low when a batch's cache fills run on `gpm-par` workers. Each shard
//! tracks recency with a monotonic tick and evicts its least-recently-used
//! entry on overflow.

use crate::request::{Request, Response};
use gpm_dvfs::Objective;
use gpm_spec::FreqConfig;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cache hit/miss/eviction counters (monotonic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Requests computed because no lookup answered them, counted once
    /// per request where it is computed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

/// A request as a cache key: its fields, each float by its bit pattern.
///
/// For the values the wire protocol carries losslessly (finite floats,
/// integers below 2^53) two requests share a key exactly when their
/// canonical JSON is equal: the writer prints each finite float in its
/// shortest round-trip form, so distinct bit patterns (`0.0` and `-0.0`
/// among them) print differently. Beyond those, typed keys are finer
/// than JSON ones: `inf` and `-inf`, both written as `null`, stay apart.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum CacheKey {
    Power {
        utilizations: [u64; 7],
        config: FreqConfig,
    },
    Energy {
        kernel: String,
        config: FreqConfig,
    },
    BestConfig {
        kernel: String,
        objective: ObjectiveKey,
    },
    Pareto {
        kernel: String,
        max_points: usize,
    },
}

impl CacheKey {
    pub(crate) fn of(request: &Request) -> Self {
        match request {
            Request::Power {
                utilizations,
                config,
            } => CacheKey::Power {
                utilizations: utilizations.as_array().map(f64::to_bits),
                config: *config,
            },
            Request::Energy { kernel, config } => CacheKey::Energy {
                kernel: kernel.clone(),
                config: *config,
            },
            Request::BestConfig { kernel, objective } => CacheKey::BestConfig {
                kernel: kernel.clone(),
                objective: ObjectiveKey::of(objective),
            },
            Request::Pareto { kernel, max_points } => CacheKey::Pareto {
                kernel: kernel.clone(),
                max_points: *max_points,
            },
        }
    }
}

/// An [`Objective`] as a key: its variant and its payload's bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ObjectiveKey(u8, u64);

impl ObjectiveKey {
    pub(crate) fn of(objective: &Objective) -> Self {
        match *objective {
            Objective::MinPower => ObjectiveKey(0, 0),
            Objective::MinEnergy => ObjectiveKey(1, 0),
            Objective::MinEdp => ObjectiveKey(2, 0),
            Objective::MinEnergyWithSlowdown(ratio) => ObjectiveKey(3, ratio.to_bits()),
            Objective::PowerCap(watts) => ObjectiveKey(4, watts.to_bits()),
        }
    }
}

struct Entry {
    value: Response,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<CacheKey, Entry>,
    tick: u64,
}

/// A sharded least-recently-used map from request keys to computed
/// [`Response`]s. Interior-mutable: lookups and inserts take `&self` so
/// parallel workers can share it.
pub(crate) struct ShardedLru {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Resident entries over all shards, updated under the inserting
    /// shard's lock so that [`ShardedLru::stats`] takes none.
    entries: AtomicU64,
}

impl std::fmt::Debug for ShardedLru {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLru")
            .field("shards", &self.shards.len())
            .field("capacity_per_shard", &self.capacity_per_shard)
            .finish_non_exhaustive()
    }
}

impl ShardedLru {
    /// Creates a cache with `capacity` total entries spread over
    /// `shards` locks (both floored at 1).
    pub(crate) fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let capacity_per_shard = capacity.max(1).div_ceil(shards);
        ShardedLru {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            capacity_per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            entries: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        let idx = (hasher.finish() as usize) % self.shards.len();
        &self.shards[idx]
    }

    /// Looks a key up, marking it most-recently-used and counting a hit
    /// when it is present. An absent key counts nothing: a request may
    /// be looked up again before it is computed, so the caller counts
    /// its miss once, where it computes it ([`ShardedLru::note_misses`]).
    pub(crate) fn get(&self, key: &CacheKey) -> Option<Response> {
        let mut shard = self.shard(key).lock().expect("cache shard lock");
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.value.clone())
            }
            None => None,
        }
    }

    /// Counts `n` requests computed after every lookup for them missed.
    pub(crate) fn note_misses(&self, n: u64) {
        self.misses.fetch_add(n, Ordering::Relaxed);
    }

    /// Inserts (or refreshes) a computed response, evicting the shard's
    /// least-recently-used entry on overflow.
    pub(crate) fn put(&self, key: CacheKey, value: Response) {
        let mut shard = self.shard(&key).lock().expect("cache shard lock");
        shard.tick += 1;
        let tick = shard.tick;
        let mut evicted = false;
        if !shard.map.contains_key(&key) && shard.map.len() >= self.capacity_per_shard {
            if let Some(oldest) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                shard.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                evicted = true;
            }
        }
        let entry = Entry {
            value,
            last_used: tick,
        };
        if shard.map.insert(key, entry).is_none() && !evicted {
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_core::Utilizations;
    use gpm_json::ToJson;

    fn power(watts: f64) -> Response {
        Response::Power { watts }
    }

    fn key(name: &str) -> CacheKey {
        CacheKey::of(&Request::Pareto {
            kernel: name.to_string(),
            max_points: 0,
        })
    }

    #[test]
    fn hit_miss_and_eviction_accounting() {
        let cache = ShardedLru::new(1, 1); // single slot: every insert evicts
        assert!(cache.get(&key("a")).is_none());
        assert!(cache.get(&key("a")).is_none(), "a re-check misses silently");
        cache.note_misses(1);
        cache.put(key("a"), power(1.0));
        assert_eq!(cache.get(&key("a")), Some(power(1.0)));
        cache.put(key("b"), power(2.0));
        assert!(cache.get(&key("a")).is_none(), "a was evicted by b");
        cache.note_misses(1);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn recency_decides_the_victim() {
        let cache = ShardedLru::new(2, 1);
        cache.put(key("a"), power(1.0));
        cache.put(key("b"), power(2.0));
        assert!(cache.get(&key("a")).is_some()); // refresh a; b is now LRU
        cache.put(key("c"), power(3.0));
        assert!(cache.get(&key("a")).is_some());
        assert!(cache.get(&key("b")).is_none());
        assert!(cache.get(&key("c")).is_some());
    }

    #[test]
    fn shards_partition_the_capacity() {
        let cache = ShardedLru::new(64, 8);
        for i in 0..64 {
            cache.put(key(&format!("key-{i}")), power(i as f64));
        }
        // All entries fit: capacity is spread, not multiplied.
        let stats = cache.stats();
        assert!(stats.entries <= 64);
        assert!(stats.entries > 0);
    }

    /// The resident count `stats` reports without locking matches the
    /// shards' maps after any mix of lookups, new keys, refreshes of
    /// resident keys and evictions.
    #[test]
    fn entry_count_matches_the_resident_entries() {
        gpm_check::check("entry_count_matches_the_resident_entries", |g| {
            let cache = ShardedLru::new(g.usize_in(1..24), g.usize_in(1..5));
            let keys = g.usize_in(1..48);
            for _ in 0..g.usize_in(0..200) {
                let k = key(&format!("k{}", g.usize_in(0..keys)));
                if g.bool() {
                    cache.get(&k);
                } else {
                    cache.put(k, power(1.0));
                }
            }
            let resident: usize = cache
                .shards
                .iter()
                .map(|s| s.lock().expect("cache shard lock").map.len())
                .sum();
            assert_eq!(cache.stats().entries, resident as u64);
        });
    }

    /// The key before typed keys: the request's canonical JSON.
    fn json_key(request: &Request) -> String {
        gpm_json::write(&request.to_json())
    }

    /// A finite float from a small pool that holds both zeros and values
    /// that print alike at low precision, or a fresh random one.
    fn float(g: &mut gpm_check::Gen, lo: f64, hi: f64) -> f64 {
        const POOL: [f64; 6] = [0.0, -0.0, 0.1, 0.1 + 1e-17, 1.0, 0.30000000000000004];
        if g.bool() {
            *g.choose(&POOL)
        } else {
            g.f64_in(lo, hi)
        }
    }

    fn request(g: &mut gpm_check::Gen) -> Request {
        const KERNELS: [&str; 5] = ["LBM", "GEMM", "lbm", "Ωmega-κ", "名前\"\\"];
        const CONFIGS: [(u32, u32); 3] = [(975, 3505), (595, 810), (975, 810)];
        let (core, mem) = *g.choose(&CONFIGS);
        let config = FreqConfig::from_mhz(core, mem);
        let kernel = g.choose(&KERNELS).to_string();
        match g.usize_in(0..4) {
            0 => {
                // Few distinct utilization vectors, so that equal ones
                // meet at different configurations.
                let mut values = [0.5; 7];
                for v in values.iter_mut().take(g.usize_in(0..3)) {
                    *v = float(g, 0.0, 1.0);
                }
                Request::Power {
                    utilizations: Utilizations::from_values(values).expect("values in [0, 1]"),
                    config,
                }
            }
            1 => Request::Energy { kernel, config },
            2 => {
                let objective = match g.usize_in(0..5) {
                    0 => Objective::MinPower,
                    1 => Objective::MinEnergy,
                    2 => Objective::MinEdp,
                    3 => Objective::MinEnergyWithSlowdown(float(g, 1.0, 2.0)),
                    _ => Objective::PowerCap(float(g, -300.0, 300.0)),
                };
                Request::BestConfig { kernel, objective }
            }
            _ => Request::Pareto {
                kernel,
                max_points: g.usize_in(0..4),
            },
        }
    }

    /// Typed keys tell requests apart exactly as their canonical JSON
    /// did, including `-0.0` against `0.0`, equal utilizations at
    /// different configurations and non-ASCII kernel names.
    #[test]
    fn typed_keys_are_equal_exactly_when_the_request_json_is() {
        gpm_check::check(
            "typed_keys_are_equal_exactly_when_the_request_json_is",
            |g| {
                let a = request(g);
                let b = if g.bool() { a.clone() } else { request(g) };
                assert_eq!(
                    CacheKey::of(&a) == CacheKey::of(&b),
                    json_key(&a) == json_key(&b),
                    "{a:?} vs {b:?}"
                );
            },
        );
    }

    #[test]
    fn typed_keys_keep_apart_what_json_writes_as_null() {
        let cap = |watts| Request::BestConfig {
            kernel: "LBM".to_string(),
            objective: Objective::PowerCap(watts),
        };
        let (up, down) = (cap(f64::INFINITY), cap(f64::NEG_INFINITY));
        assert_eq!(json_key(&up), json_key(&down));
        assert_ne!(CacheKey::of(&up), CacheKey::of(&down));
    }
}
