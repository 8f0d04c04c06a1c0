//! A sharded LRU cache for prediction results.
//!
//! Keys are `(model version, canonical request JSON)` strings; sharding
//! by key hash keeps lock contention low when a batch's cache fills run
//! on `gpm-par` workers. Each shard tracks recency with a monotonic tick
//! and evicts its least-recently-used entry on overflow.

use crate::request::Response;
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
    /// Requests computed because no lookup answered them, as reported
    /// through [`ShardedLru::note_misses`].
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

struct Entry {
    value: Response,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<String, Entry>,
    tick: u64,
}

/// A sharded least-recently-used map from request keys to computed
/// [`Response`]s. Interior-mutable: lookups and inserts take `&self` so
/// parallel workers can share it.
pub struct ShardedLru {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
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
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let capacity_per_shard = capacity.max(1).div_ceil(shards);
        ShardedLru {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            capacity_per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        let idx = (hasher.finish() as usize) % self.shards.len();
        &self.shards[idx]
    }

    /// Looks a key up, marking it most-recently-used and counting a hit
    /// when it is present. An absent key counts nothing: a request may
    /// be looked up again before it is computed, so the caller counts
    /// its miss once, where it computes it ([`ShardedLru::note_misses`]).
    pub fn get(&self, key: &str) -> Option<Response> {
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
    pub fn note_misses(&self, n: u64) {
        self.misses.fetch_add(n, Ordering::Relaxed);
    }

    /// Inserts (or refreshes) a computed response, evicting the shard's
    /// least-recently-used entry on overflow.
    pub fn put(&self, key: String, value: Response) {
        let mut shard = self.shard(&key).lock().expect("cache shard lock");
        shard.tick += 1;
        let tick = shard.tick;
        if !shard.map.contains_key(&key) && shard.map.len() >= self.capacity_per_shard {
            if let Some(oldest) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                shard.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.map.insert(
            key,
            Entry {
                value,
                last_used: tick,
            },
        );
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().expect("cache shard lock").map.len() as u64)
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn power(watts: f64) -> Response {
        Response::Power { watts }
    }

    #[test]
    fn hit_miss_and_eviction_accounting() {
        let cache = ShardedLru::new(1, 1); // single slot: every insert evicts
        assert!(cache.get("a").is_none());
        assert!(cache.get("a").is_none(), "a re-check misses silently");
        cache.note_misses(1);
        cache.put("a".to_string(), power(1.0));
        assert_eq!(cache.get("a"), Some(power(1.0)));
        cache.put("b".to_string(), power(2.0));
        assert!(cache.get("a").is_none(), "a was evicted by b");
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
        cache.put("a".to_string(), power(1.0));
        cache.put("b".to_string(), power(2.0));
        assert!(cache.get("a").is_some()); // refresh a; b is now LRU
        cache.put("c".to_string(), power(3.0));
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none());
        assert!(cache.get("c").is_some());
    }

    #[test]
    fn shards_partition_the_capacity() {
        let cache = ShardedLru::new(64, 8);
        for i in 0..64 {
            cache.put(format!("key-{i}"), power(i as f64));
        }
        // All entries fit: capacity is spread, not multiplied.
        let stats = cache.stats();
        assert!(stats.entries <= 64);
        assert!(stats.entries > 0);
    }
}
