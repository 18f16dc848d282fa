//! String interning with stable, insertion-ordered ids, over one arena of
//! names.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use largeea_common::names::Names;

/// Marks a free slot of the lookup table.
const EMPTY: u32 = u32::MAX;

/// Interns strings to dense `u32` ids.
///
/// Ids are assigned in insertion order, so [`Interner::names`] holds the
/// strings in id order. This keeps every derived array (names,
/// embeddings, partitions) aligned by index.
///
/// Each string is stored once, in one [`Names`] arena; lookups go through
/// an open-addressed `(hash, id)` table that never owns a key. The
/// hasher is std's randomly keyed default (keys come from input files);
/// its keys move table slots, never ids.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    /// String `id` is `names.get(id)`.
    names: Names,
    /// Linear-probed, power-of-two sized (or empty), at most 3/4 full.
    slots: Vec<(u32, u32)>,
    hasher: RandomState,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty interner with capacity for `n` strings.
    pub fn with_capacity(n: usize) -> Self {
        let slots = match n {
            0 => 0,
            n => (n * 4 / 3 + 1).next_power_of_two(),
        };
        Self {
            names: Names::with_capacity(n, 0),
            slots: vec![(0, EMPTY); slots],
            ..Self::default()
        }
    }

    fn hash(&self, name: &str) -> u32 {
        self.hasher.hash_one(name) as u32
    }

    /// The id of `name`, or the free slot where it belongs. The table must
    /// have a free slot.
    fn probe(&self, hash: u32, name: &str) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let (h, id) = self.slots[at];
            if id == EMPTY {
                return Err(at);
            }
            if h == hash && self.resolve(id) == name {
                return Ok(id);
            }
            at = (at + 1) & mask;
        }
    }

    /// Doubles the table, re-placing every id by its stored hash.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![(0, EMPTY); len]);
        for (hash, id) in old.into_iter().filter(|&(_, id)| id != EMPTY) {
            let mut at = hash as usize & (len - 1);
            while self.slots[at].1 != EMPTY {
                at = (at + 1) & (len - 1);
            }
            self.slots[at] = (hash, id);
        }
    }

    /// Interns `name`, returning its id (existing or freshly assigned).
    /// Panics past `u32::MAX - 1` strings or `u32::MAX` bytes of them.
    pub fn intern(&mut self, name: &str) -> u32 {
        self.try_intern(name)
            .expect("an interner holds fewer than 2^32 - 1 strings, in at most 4 GiB")
    }

    /// Interns `name`, returning its id (existing or freshly assigned), or
    /// `None` when a new id would pass `u32::MAX - 1` or the arena would
    /// pass `u32::MAX` bytes; nothing is interned then.
    pub(crate) fn try_intern(&mut self, name: &str) -> Option<u32> {
        if (self.len() + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let hash = self.hash(name);
        match self.probe(hash, name) {
            Ok(id) => Some(id),
            Err(slot) => {
                let id = u32::try_from(self.len()).ok().filter(|&id| id != EMPTY)?;
                self.names.push(name)?;
                self.slots[slot] = (hash, id);
                Some(id)
            }
        }
    }

    /// Looks up the id of `name` without interning it.
    pub fn get(&self, name: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(self.hash(name), name).ok()
    }

    /// Resolves `id` back to its string. Panics if `id` was never assigned.
    pub fn resolve(&self, id: u32) -> &str {
        self.names.get(id as usize)
    }

    /// Resolves `id` back to its string, or `None` if out of range.
    pub fn try_resolve(&self, id: u32) -> Option<&str> {
        ((id as usize) < self.len()).then(|| self.resolve(id))
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Drops the arena's capacity growth; the lookup table keeps its size.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.names.shrink_to_fit();
    }

    /// The interned strings, in id order.
    pub fn names(&self) -> &Names {
        &self.names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_assigns_dense_ids_in_order() {
        let mut it = Interner::new();
        assert_eq!(it.intern("a"), 0);
        assert_eq!(it.intern("b"), 1);
        assert_eq!(it.intern("a"), 0);
        assert_eq!(it.len(), 2);
        assert_eq!(it.resolve(1), "b");
    }

    #[test]
    fn get_does_not_intern() {
        let mut it = Interner::new();
        assert_eq!(it.get("x"), None);
        it.intern("x");
        assert_eq!(it.get("x"), Some(0));
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn iter_is_id_ordered() {
        let mut it = Interner::with_capacity(3);
        for s in ["z", "y", "x"] {
            it.intern(s);
        }
        let order: Vec<_> = it.names().as_slice().iter().collect();
        assert_eq!(order, vec!["z", "y", "x"]);
    }

    #[test]
    fn try_resolve_out_of_range() {
        let it = Interner::new();
        assert_eq!(it.try_resolve(0), None);
    }

    #[test]
    fn empty_checks() {
        let mut it = Interner::new();
        assert!(it.is_empty());
        it.intern("");
        assert!(!it.is_empty());
        assert_eq!(it.resolve(0), "");
    }

    #[test]
    fn ids_survive_table_growth_and_a_clone() {
        // far past several doublings, with keys that share long prefixes,
        // differ only in trailing NULs, or are empty
        let keys: Vec<String> = (0..5000u32)
            .map(|i| match i % 4 {
                0 => format!("http://dbpedia.org/resource/E{i}"),
                1 => "\0".repeat(i as usize / 4 % 20),
                2 => format!("{i}"),
                _ => format!("é{i}→"),
            })
            .collect();
        let mut it = Interner::with_capacity(7);
        let mut first_seen: Vec<&str> = Vec::new();
        for k in &keys {
            let id = it.intern(k) as usize;
            if id == first_seen.len() {
                first_seen.push(k);
            }
            assert_eq!(first_seen[id], k, "an id resolves to its own key");
        }
        assert_eq!(it.len(), first_seen.len());
        // a clone (same hasher keys) and a fresh interner (other keys) agree
        let clone = it.clone();
        let mut fresh = Interner::new();
        for (id, k) in first_seen.iter().enumerate() {
            assert_eq!(clone.get(k), Some(id as u32));
            assert_eq!(clone.resolve(id as u32), *k);
            assert_eq!(fresh.intern(k), id as u32);
        }
        assert_eq!(it.get("never interned"), None);
        assert_eq!(it.try_resolve(it.len() as u32), None);
    }
}
