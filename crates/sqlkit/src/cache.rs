//! What a statement cache is built from, on either side of the wire: the
//! one bounded LRU every cache of the workspace instantiates — the
//! mediator's plan and result caches and each vendor server's prepared
//! statements. The key the mediator's caches share is
//! [`crate::lexer::cache_key`] (DESIGN.md §4.4, "Plan once").

use std::collections::HashMap;

/// Bounded LRU map keyed by statement text. Each entry carries the tick of
/// its last use; when the map is full, the entry with the smallest tick
/// goes. A linear min-scan is O(capacity) but the capacity is small (at
/// most a few hundred) and eviction only runs on insert-when-full, so it
/// is not worth an intrusive list here.
#[derive(Debug)]
pub struct Lru<V> {
    capacity: usize,
    tick: u64,
    map: HashMap<String, (u64, V)>,
}

impl<V> Lru<V> {
    /// An empty map holding at most `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Lru<V> {
        Lru {
            capacity: capacity.max(1),
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// Look up a key, refreshing its recency on a hit.
    pub fn get(&mut self, key: &str) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(used, value)| {
            *used = tick;
            &*value
        })
    }

    /// Insert (or replace) a value, evicting least-recently-used entries
    /// if the map is at capacity. Returns how many entries were evicted.
    pub fn insert(&mut self, key: String, value: V) -> usize {
        self.tick += 1;
        let mut evicted = 0;
        while self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            let Some(lru) = self
                .map
                .iter()
                .min_by_key(|(_, (used, _))| *used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.map.remove(&lru);
            evicted += 1;
        }
        self.map.insert(key, (self.tick, value));
        evicted
    }

    /// Drop one entry.
    pub fn remove(&mut self, key: &str) {
        self.map.remove(key);
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// The values held, in no particular order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.map.values().map(|(_, value)| value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let mut lru = Lru::new(2);
        assert_eq!(lru.insert("a".into(), 1), 0);
        assert_eq!(lru.insert("b".into(), 2), 0);
        assert_eq!(lru.get("a"), Some(&1));
        // Replacing a present key displaces nothing…
        assert_eq!(lru.insert("a".into(), 10), 0);
        // …a new key displaces the least recently used one.
        assert_eq!(lru.insert("c".into(), 3), 1);
        assert_eq!(lru.get("b"), None);
        assert_eq!(lru.get("a"), Some(&10));
        assert_eq!(lru.get("c"), Some(&3));
        assert_eq!(lru.values().count(), 2);
        lru.remove("a");
        assert_eq!(lru.get("a"), None);
        lru.clear();
        assert_eq!(lru.get("c"), None);
        assert_eq!(lru.values().count(), 0);
    }
}
