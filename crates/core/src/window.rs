//! Per-height bookkeeping bounded by a commit window.
//!
//! A replica remembers per-height facts — the first proposal seen for a
//! slot, the blocks it relayed or voted for — only to dedup copies and to
//! catch equivocation while a height is live. Below `b_com_height − W`
//! (the *floor*, [`WINDOW`]) no such fact is read again: every proposal,
//! vote or upload below the floor is dropped before any lookup. A
//! [`WindowMap`] is such a table kept in *bands* of `W` heights, each band
//! its own hash table: an entry is filed in the band of the height it is
//! about, and a band goes whole, table and all, once the floor has passed
//! its last height. Nothing is iterated and no key is removed one by one.
//!
//! A lookup names only the key, never a height, and asks every band held:
//! a height a message names is the sender's word, and the lookup must find
//! a key however wrong the height a copy of it claims (an equivocating
//! leader's twin may name any height). Bands are few — the floor's, the
//! tip's, and rarely one above — so a lookup is a handful of probes.
//!
//! Until something is filed at height `W` or above, a map is its first
//! band's table alone, the size of a plain table: a run shorter than the
//! window keeps and allocates exactly what unpruned bookkeeping would.

use std::collections::hash_map::Entry;
use std::hash::Hash;

use eesmr_crypto::KeyMap;

use crate::smr::WINDOW;

/// A per-height table whose bands below a floor are dropped.
#[derive(Debug, Clone)]
pub struct WindowMap<K, V>(Held<K, V>);

/// What a [`WindowMap`] holds.
#[derive(Debug, Clone)]
enum Held<K, V> {
    /// Nothing filed at height [`WINDOW`] or above yet: the first band's
    /// table.
    First(KeyMap<K, V>),
    /// The bands' tables with their band indices, ascending. The first is
    /// the floor's band, held even when empty: a height below it is filed
    /// there. A far-ahead height opens its own band, never the ones in
    /// between.
    Banded(Vec<(u64, KeyMap<K, V>)>),
}

/// A per-height set whose bands below a floor are dropped.
pub type WindowSet<K> = WindowMap<K, ()>;

impl<K, V> Default for WindowMap<K, V> {
    fn default() -> Self {
        WindowMap(Held::First(KeyMap::default()))
    }
}

impl<K: Hash + Eq, V> WindowMap<K, V> {
    /// The table at `at` in the band list (the first band's, unbanded).
    fn table_at(&mut self, at: usize) -> &mut KeyMap<K, V> {
        match &mut self.0 {
            Held::First(table) => table,
            Held::Banded(bands) => &mut bands[at].1,
        }
    }

    /// The index of the band `height` falls in, opened if need be (0
    /// while unbanded).
    fn band_for(&mut self, height: u64) -> usize {
        let band = height / WINDOW;
        if let Held::First(first) = &mut self.0 {
            if band == 0 {
                return 0;
            }
            self.0 = Held::Banded(vec![(0, std::mem::take(first))]);
        }
        let Held::Banded(bands) = &mut self.0 else { unreachable!("banded above") };
        let band = band.max(bands[0].0);
        let at = bands.partition_point(|(b, _)| *b < band);
        if bands.get(at).is_none_or(|(b, _)| *b != band) {
            bands.insert(at, (band, KeyMap::default()));
        }
        at
    }

    /// The entry for `key`, in whichever band holds it. Bands are asked
    /// newest first: a lookup is most often about a recent height.
    pub fn get(&self, key: &K) -> Option<&V> {
        match &self.0 {
            Held::First(table) => table.get(key),
            Held::Banded(bands) => bands.iter().rev().find_map(|(_, t)| t.get(key)),
        }
    }

    /// Whether `key` is held.
    pub fn contains(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// The entry for `key`, inserting `make()` in the band of `height` if
    /// there is none.
    pub fn get_or_insert_with(&mut self, height: u64, key: K, make: impl FnOnce() -> V) -> &mut V {
        let held = match &self.0 {
            Held::First(first) => (height >= WINDOW && first.contains_key(&key)).then_some(0),
            Held::Banded(bands) => bands.iter().rposition(|(_, t)| t.contains_key(&key)),
        };
        let at = held.unwrap_or_else(|| self.band_for(height));
        self.table_at(at).entry(key).or_insert_with(make)
    }

    /// Inserts `value` for `key` in the band of `height` unless `key` is
    /// held; returns whether it was inserted.
    pub fn insert_new(&mut self, height: u64, key: K, value: V) -> bool {
        let at = self.band_for(height);
        if let Held::Banded(bands) = &self.0 {
            let mut others = bands.iter().enumerate().filter(|(i, _)| *i != at);
            if others.any(|(_, (_, table))| table.contains_key(&key)) {
                return false;
            }
        }
        match self.table_at(at).entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(value);
                true
            }
        }
    }

    /// Files `value` for `key`, which no band holds, in the band of
    /// `height`.
    pub fn insert(&mut self, height: u64, key: K, value: V) {
        let at = self.band_for(height);
        self.table_at(at).insert(key, value);
    }

    /// Removes `key`'s entry.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        match &mut self.0 {
            Held::First(table) => table.remove(key),
            Held::Banded(bands) => bands.iter_mut().rev().find_map(|(_, t)| t.remove(key)),
        }
    }

    /// Drops every band whose heights all lie below `floor`.
    pub fn prune_below(&mut self, floor: u64) {
        let keep = floor / WINDOW;
        match &mut self.0 {
            Held::First(_) if keep > 0 => self.0 = Held::Banded(vec![(keep, KeyMap::default())]),
            Held::Banded(bands) if keep > bands[0].0 => {
                let below = bands.partition_point(|(band, _)| *band < keep);
                bands.drain(..below);
                if bands.first().is_none_or(|(band, _)| *band != keep) {
                    bands.insert(0, (keep, KeyMap::default()));
                }
            }
            _ => {}
        }
    }

    /// The entries held.
    pub fn len(&self) -> usize {
        match &self.0 {
            Held::First(table) => table.len(),
            Held::Banded(bands) => bands.iter().map(|(_, t)| t.len()).sum(),
        }
    }

    /// Whether no entry is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_map_is_one_plain_table_until_the_window_fills() {
        assert_eq!(size_of::<WindowSet<u64>>(), size_of::<eesmr_crypto::KeySet<u64>>());
        let mut m: WindowSet<u64> = WindowMap::default();
        assert!(m.insert_new(WINDOW - 1, 1, ()));
        assert!(matches!(m.0, Held::First(_)));
        assert!(m.insert_new(WINDOW, 2, ()));
        assert!(matches!(m.0, Held::Banded(_)) && m.contains(&1) && m.contains(&2));
        let mut first: WindowMap<u64, u64> = WindowMap::default();
        *first.get_or_insert_with(1, 7, || 1) += 1;
        *first.get_or_insert_with(WINDOW, 7, || 1) += 1;
        assert_eq!((first.get(&7), first.len()), (Some(&3), 1), "one entry, found first");
    }

    #[test]
    fn lookups_find_a_key_in_any_band_and_pruning_drops_whole_bands() {
        let w = WINDOW;
        let mut m: WindowMap<u64, &str> = WindowMap::default();
        for (height, key) in [(3, 30), (w + 1, 10), (3 * w, 50), (2, 20)] {
            assert!(m.insert_new(height, key, "v"));
        }
        assert!(!m.insert_new(5 * w, 30, "again"), "a held key is not filed again");
        assert!(m.contains(&30) && m.contains(&50) && !m.contains(&31));
        assert_eq!(m.get(&10), Some(&"v"));
        *m.get_or_insert_with(0, 50, || "new") = "set";
        assert_eq!(m.get(&50), Some(&"set"), "found in its own band, not filed again");
        assert_eq!(m.len(), 4);
        assert_eq!(m.remove(&20), Some("v"));
        assert_eq!(m.remove(&20), None);
        m.prune_below(w - 1);
        assert!(m.contains(&30), "a band goes only once the floor passes all of it");
        m.prune_below(w);
        assert!(!m.contains(&30) && m.contains(&10) && m.contains(&50));
        assert!(m.insert_new(0, 60, "v"), "a height below the lowest band files there");
        m.prune_below(3 * w);
        assert!(!m.contains(&10) && !m.contains(&60) && m.contains(&50));
        m.prune_below(4 * w);
        assert!(m.is_empty());
        let mut first: WindowSet<u64> = WindowMap::default();
        assert!(first.insert_new(1, 1, ()));
        first.prune_below(w);
        assert!(first.is_empty(), "the first band goes once the floor passes it");
    }
}
