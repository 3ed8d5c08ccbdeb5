//! Node-side LRU key cache with a byte budget.
//!
//! Nodes hold expanded key material (typically an `Arc<Bootstrapper>`)
//! keyed by [`KeyId`] so repeated sessions against the same key skip the
//! upload. Reuse accounting (hits/misses/evictions/inserts plus resident
//! gauges) lives in a `heap-telemetry` registry so the node's metrics
//! endpoint and stats frames expose it alongside the stage histograms.

use std::sync::Arc;

use heap_telemetry::Registry;

use crate::KeyId;

struct Entry<V> {
    id: KeyId,
    value: V,
    bytes: usize,
    /// Logical clock of the last touch (insert or hit).
    stamp: u64,
}

heap_telemetry::metric_table! {
    /// The cache's reuse accounting.
    struct CacheMetrics in "keycache";
    hits: Counter "heap_keycache_hits_total", "key cache lookups served from cache";
    misses: Counter "heap_keycache_misses_total", "key cache lookups requiring an upload";
    evictions: Counter "heap_keycache_evictions_total", "entries evicted to fit the byte budget";
    inserts: Counter "heap_keycache_inserts_total", "entries inserted after upload/expansion";
    resident_bytes: Gauge "heap_keycache_resident_bytes", "bytes of cached key material";
    resident_keys: Gauge "heap_keycache_resident_keys", "number of cached key sets";
}

/// Byte-budgeted LRU cache of expanded key sets.
///
/// Eviction policy: on insert, least-recently-used entries are dropped
/// until the resident total fits the budget. A single entry larger than
/// the whole budget still inserts (the node cannot serve the batch
/// without it) — it just evicts everything else and the next insert
/// evicts it.
pub struct KeyCache<V> {
    entries: Vec<Entry<V>>,
    budget_bytes: usize,
    clock: u64,
    metrics: CacheMetrics,
}

impl<V> KeyCache<V> {
    /// Creates an empty cache holding at most `budget_bytes` of encoded
    /// key material.
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            entries: Vec::new(),
            budget_bytes,
            clock: 0,
            metrics: CacheMetrics::new(),
        }
    }

    /// The telemetry registry (scope `keycache`) backing the counters.
    pub fn registry(&self) -> &Arc<Registry> {
        self.metrics.registry()
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Counted lookup: bumps recency and the hit/miss counters. This is
    /// the entry point a `KeyOffer` drives — reuse accounting must match
    /// the driven workload exactly, so nothing else counts.
    pub fn lookup(&mut self, id: KeyId) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.iter_mut().find(|e| e.id == id) {
            Some(e) => {
                e.stamp = clock;
                self.metrics.hits.inc();
                Some(&e.value)
            }
            None => {
                self.metrics.misses.inc();
                None
            }
        }
    }

    /// Uncounted read: no counters, no recency bump (work execution after
    /// the offer/ack exchange already accounted the lookup).
    pub fn peek(&self, id: KeyId) -> Option<&V> {
        self.entries.iter().find(|e| e.id == id).map(|e| &e.value)
    }

    /// Inserts (or replaces) an entry of `bytes` encoded size, evicting
    /// least-recently-used entries until the budget holds.
    ///
    /// Returns the displaced values instead of dropping them: an expanded
    /// key set is thousands of allocations to free, and the caller holds
    /// the node's key lock — it drops them after releasing it.
    #[must_use = "drop the displaced values after releasing the cache lock"]
    pub fn insert(&mut self, id: KeyId, value: V, bytes: usize) -> Vec<V> {
        self.clock += 1;
        let mut displaced = Vec::new();
        if let Some(pos) = self.entries.iter().position(|e| e.id == id) {
            // The displaced entry leaves residency, so it must count as an
            // eviction — otherwise `inserts - evictions` drifts away from
            // the resident-keys gauge on every replace.
            displaced.push(self.entries.remove(pos).value);
            self.metrics.evictions.inc();
        }
        self.entries.push(Entry {
            id,
            value,
            bytes,
            stamp: self.clock,
        });
        self.metrics.inserts.inc();
        while self.resident() > self.budget_bytes && self.entries.len() > 1 {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                .expect("non-empty");
            displaced.push(self.entries.remove(lru).value);
            self.metrics.evictions.inc();
        }
        self.update_gauges();
        displaced
    }

    /// Ids currently resident, most recently used first (what a node
    /// advertises in its handshake).
    pub fn ids(&self) -> Vec<KeyId> {
        let mut with_stamp: Vec<(u64, KeyId)> =
            self.entries.iter().map(|e| (e.stamp, e.id)).collect();
        with_stamp.sort_by_key(|e| std::cmp::Reverse(e.0));
        with_stamp.into_iter().map(|(_, id)| id).collect()
    }

    /// Total encoded bytes resident.
    pub fn resident(&self) -> usize {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn update_gauges(&self) {
        self.metrics.resident_bytes.set(self.resident() as i64);
        self.metrics.resident_keys.set(self.entries.len() as i64);
    }
}

impl<V> std::fmt::Debug for KeyCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyCache")
            .field("entries", &self.entries.len())
            .field("resident", &self.resident())
            .field("budget_bytes", &self.budget_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot_counter(cache: &KeyCache<u32>, name: &str) -> u64 {
        cache.registry().snapshot().counter(name).unwrap_or(0)
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let mut c = KeyCache::new(1000);
        assert!(c.lookup(KeyId(1)).is_none());
        drop(c.insert(KeyId(1), 10, 100));
        assert_eq!(c.lookup(KeyId(1)), Some(&10));
        assert_eq!(snapshot_counter(&c, "heap_keycache_hits_total"), 1);
        assert_eq!(snapshot_counter(&c, "heap_keycache_misses_total"), 1);
        // peek counts nothing.
        assert_eq!(c.peek(KeyId(1)), Some(&10));
        assert_eq!(snapshot_counter(&c, "heap_keycache_hits_total"), 1);
    }

    #[test]
    fn eviction_is_lru_under_byte_budget() {
        let mut c = KeyCache::new(250);
        drop(c.insert(KeyId(1), 1, 100));
        drop(c.insert(KeyId(2), 2, 100));
        // Touch 1 so 2 is now least recent.
        assert!(c.lookup(KeyId(1)).is_some());
        drop(c.insert(KeyId(3), 3, 100)); // 300 > 250: evict id 2
        assert!(c.peek(KeyId(2)).is_none());
        assert!(c.peek(KeyId(1)).is_some());
        assert!(c.peek(KeyId(3)).is_some());
        assert_eq!(snapshot_counter(&c, "heap_keycache_evictions_total"), 1);
        assert_eq!(c.resident(), 200);
    }

    #[test]
    fn oversized_entry_still_inserts_alone() {
        let mut c = KeyCache::new(50);
        drop(c.insert(KeyId(1), 1, 40));
        drop(c.insert(KeyId(2), 2, 400));
        assert_eq!(c.len(), 1);
        assert!(c.peek(KeyId(2)).is_some());
    }

    #[test]
    fn ids_are_most_recent_first() {
        let mut c = KeyCache::new(1000);
        drop(c.insert(KeyId(1), 1, 10));
        drop(c.insert(KeyId(2), 2, 10));
        assert!(c.lookup(KeyId(1)).is_some());
        assert_eq!(c.ids(), vec![KeyId(1), KeyId(2)]);
    }

    #[test]
    fn reinsert_replaces_without_double_count() {
        let mut c = KeyCache::new(1000);
        drop(c.insert(KeyId(1), 1, 100));
        drop(c.insert(KeyId(1), 2, 120));
        assert_eq!(c.len(), 1);
        assert_eq!(c.resident(), 120);
        assert_eq!(c.peek(KeyId(1)), Some(&2));
        // The displaced first copy counts as an eviction.
        assert_eq!(snapshot_counter(&c, "heap_keycache_evictions_total"), 1);
        assert_eq!(snapshot_counter(&c, "heap_keycache_inserts_total"), 2);
    }

    /// A value that records its own drop.
    struct Tracked<'a>(u32, &'a std::cell::RefCell<Vec<u32>>);

    impl Drop for Tracked<'_> {
        fn drop(&mut self) {
            self.1.borrow_mut().push(self.0);
        }
    }

    /// `insert` hands every displaced value back — replaced and evicted —
    /// and drops none itself, so the caller frees them outside its lock.
    #[test]
    fn insert_returns_displaced_values_undropped() {
        let dropped = std::cell::RefCell::new(Vec::new());
        let mut c = KeyCache::new(250);
        assert!(c.insert(KeyId(1), Tracked(1, &dropped), 100).is_empty());
        assert!(c.insert(KeyId(2), Tracked(2, &dropped), 100).is_empty());
        // Replacing 2 displaces its old value; 300 > 250 then evicts 1.
        let displaced = c.insert(KeyId(2), Tracked(20, &dropped), 200);
        assert!(dropped.borrow().is_empty(), "dropped under the lock");
        let mut ids: Vec<u32> = displaced.iter().map(|t| t.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, [1, 2]);
        assert_eq!(c.len(), 1);
        drop(displaced);
        assert_eq!(dropped.borrow().len(), 2);
        drop(c);
        assert_eq!(dropped.borrow().last(), Some(&20));
    }

    /// `inserts - evictions == resident_keys` must hold through any mix of
    /// replaces and budget evictions (the ledger a dashboard reconciles).
    #[test]
    fn insert_eviction_ledger_matches_residency() {
        let mut c = KeyCache::new(250);
        let check = |c: &KeyCache<u32>| {
            let inserts = snapshot_counter(c, "heap_keycache_inserts_total");
            let evictions = snapshot_counter(c, "heap_keycache_evictions_total");
            assert_eq!(
                inserts - evictions,
                c.len() as u64,
                "ledger drift: {inserts} inserts, {evictions} evictions, {} resident",
                c.len()
            );
        };
        drop(c.insert(KeyId(1), 1, 100));
        check(&c);
        drop(c.insert(KeyId(2), 2, 100));
        check(&c);
        drop(c.insert(KeyId(1), 10, 100)); // replace
        check(&c);
        drop(c.insert(KeyId(3), 3, 100)); // budget eviction
        check(&c);
        drop(c.insert(KeyId(3), 30, 240)); // replace that also forces evictions
        check(&c);
        drop(c.insert(KeyId(4), 4, 400)); // oversized: evicts everything else
        check(&c);
    }
}
