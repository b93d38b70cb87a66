//! The [`Database`] — a named collection of relation instances.

use std::collections::HashMap;

use crate::relation::{Relation, Value};

/// A database instance: a mapping from relation symbols to relation
/// instances, plus a small string-interning dictionary so callers can build
/// instances from symbolic data.
///
/// Because [`Relation`] storage is `Arc`-shared, cloning a `Database` is
/// O(relations), not O(tuples): every clone hands out zero-copy views that
/// share tuple data and cached indexes until a relation is mutated or
/// replaced.  The PANDA evaluators lean on this when they fan a database
/// out into per-branch copies that differ in a single partitioned relation.
///
/// # Examples
///
/// ```
/// use panda_relation::{Database, Relation};
///
/// let mut db = Database::new();
/// db.insert("R", Relation::from_rows(2, vec![[1, 2], [2, 3]]));
/// assert_eq!(db.relation("R").unwrap().len(), 2);
/// assert_eq!(db.total_tuples(), 2);
///
/// // interning arbitrary labels:
/// let alice = db.intern("alice");
/// let bob = db.intern("bob");
/// assert_ne!(alice, bob);
/// assert_eq!(db.intern("alice"), alice);
/// assert_eq!(db.label_of(alice), Some("alice"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Database {
    relations: HashMap<String, Relation>,
    dictionary: HashMap<String, Value>,
    reverse_dictionary: Vec<String>,
    /// Statistics epoch: bumped on every operation that can change the
    /// measured statistics of the instance (insert/replace, removal, or
    /// handing out a mutable relation reference).  Plan caches key on the
    /// epoch (or on [`Database::statistics_fingerprint`]) so a plan built
    /// against pre-mutation statistics can never be served post-mutation.
    epoch: u64,
}

impl Database {
    /// Creates an empty database.
    #[must_use]
    pub fn new() -> Self {
        Database::default()
    }

    /// Inserts (or replaces) a relation instance under the given symbol.
    pub fn insert(&mut self, name: impl Into<String>, relation: Relation) -> &mut Self {
        self.epoch += 1;
        self.relations.insert(name.into(), relation);
        self
    }

    /// The statistics epoch: a counter bumped by every mutation entry point
    /// ([`Database::insert`], [`Database::relation_mut`],
    /// [`Database::remove`]).  Two equal epochs on the *same* instance
    /// guarantee the measured statistics are unchanged; the epoch is not
    /// comparable across instances (clones inherit the current value).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// A deterministic fingerprint of the per-relation statistics the
    /// planner consumes: for every relation (in sorted name order) the
    /// name, arity, tuple count and distinct count are folded into an
    /// FNV-1a hash.  Unlike [`Database::epoch`] this is content-derived, so
    /// it is stable across clones and across process runs; a mutation that
    /// leaves all statistics unchanged leaves the fingerprint unchanged
    /// too.
    #[must_use]
    pub fn statistics_fingerprint(&self) -> u64 {
        // FNV-1a, 64-bit: a fixed, dependency-free hash so fingerprints do
        // not vary with the process's SipHash keys.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        for name in self.relation_names() {
            // panda-lint: allow(P1) -- `relation_names` enumerates exactly
            // the keys of this map, so the lookup cannot miss.
            let rel = &self.relations[&name];
            eat(name.as_bytes());
            eat(&[0xff]);
            eat(&(rel.arity() as u64).to_le_bytes());
            eat(&(rel.len() as u64).to_le_bytes());
            eat(&(rel.distinct_count() as u64).to_le_bytes());
        }
        h
    }

    /// Looks up a relation instance by symbol.
    #[must_use]
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Looks up a relation instance mutably.  Conservatively bumps the
    /// statistics epoch: the caller may mutate through the reference.
    pub fn relation_mut(&mut self, name: &str) -> Option<&mut Relation> {
        let rel = self.relations.get_mut(name);
        if rel.is_some() {
            self.epoch += 1;
        }
        rel
    }

    /// Removes a relation, returning it if present.
    pub fn remove(&mut self, name: &str) -> Option<Relation> {
        let rel = self.relations.remove(name);
        if rel.is_some() {
            self.epoch += 1;
        }
        rel
    }

    /// Iterates over `(symbol, relation)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Relation)> + '_ {
        self.relations.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The relation symbols present, sorted (stable for reporting).
    #[must_use]
    pub fn relation_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.relations.keys().cloned().collect();
        names.sort();
        names
    }

    /// The number of relations.
    #[must_use]
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// The input size `N = ‖D‖`: the total number of tuples across all
    /// relations (the paper's Section 3.1).
    #[must_use]
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// The size of the largest single relation.
    #[must_use]
    pub fn max_relation_size(&self) -> usize {
        self.relations.values().map(Relation::len).max().unwrap_or(0)
    }

    /// Interns a string label, returning a stable `u64` value for it.
    pub fn intern(&mut self, label: &str) -> Value {
        if let Some(&v) = self.dictionary.get(label) {
            return v;
        }
        let v = self.reverse_dictionary.len() as Value;
        self.dictionary.insert(label.to_string(), v);
        self.reverse_dictionary.push(label.to_string());
        v
    }

    /// Returns the label previously interned as `value`, if any.
    #[must_use]
    pub fn label_of(&self, value: Value) -> Option<&str> {
        self.reverse_dictionary.get(value as usize).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove() {
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(2, vec![[1, 2]]));
        db.insert("S", Relation::from_rows(2, vec![[2, 3], [3, 4]]));
        assert_eq!(db.num_relations(), 2);
        assert_eq!(db.total_tuples(), 3);
        assert_eq!(db.max_relation_size(), 2);
        assert_eq!(db.relation_names(), vec!["R".to_string(), "S".to_string()]);
        assert!(db.relation("R").is_some());
        assert!(db.relation("T").is_none());
        let removed = db.remove("R").unwrap();
        assert_eq!(removed.len(), 1);
        assert_eq!(db.num_relations(), 1);
    }

    #[test]
    fn replace_overwrites() {
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(1, vec![[1]]));
        db.insert("R", Relation::from_rows(1, vec![[1], [2]]));
        assert_eq!(db.relation("R").unwrap().len(), 2);
    }

    #[test]
    fn interning_is_stable_and_reversible() {
        let mut db = Database::new();
        let a = db.intern("a");
        let b = db.intern("b");
        assert_ne!(a, b);
        assert_eq!(db.intern("a"), a);
        assert_eq!(db.label_of(a), Some("a"));
        assert_eq!(db.label_of(b), Some("b"));
        assert_eq!(db.label_of(999), None);
    }

    #[test]
    fn database_clones_share_relation_storage() {
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(2, vec![[1, 2], [2, 3]]));
        let branch = db.clone();
        assert!(branch.relation("R").unwrap().shares_storage_with(db.relation("R").unwrap()));
        // Replacing a relation in the branch leaves the original untouched.
        let mut branch = branch;
        branch.insert("R", Relation::from_rows(2, vec![[9, 9]]));
        assert_eq!(db.relation("R").unwrap().len(), 2);
        assert_eq!(branch.relation("R").unwrap().len(), 1);
    }

    #[test]
    fn relation_mut_allows_in_place_updates() {
        let mut db = Database::new();
        db.insert("R", Relation::new(2));
        db.relation_mut("R").unwrap().push_row(&[7, 8]);
        assert_eq!(db.relation("R").unwrap().len(), 1);
    }

    #[test]
    fn epoch_bumps_on_every_mutation_entry_point() {
        let mut db = Database::new();
        assert_eq!(db.epoch(), 0);
        db.insert("R", Relation::from_rows(2, vec![[1, 2]]));
        let e1 = db.epoch();
        assert!(e1 > 0);
        // Mutable access bumps even if nothing is written.
        let _ = db.relation_mut("R");
        assert!(db.epoch() > e1);
        let e2 = db.epoch();
        // Missing relations don't bump.
        assert!(db.relation_mut("nope").is_none());
        assert!(db.remove("nope").is_none());
        assert_eq!(db.epoch(), e2);
        db.remove("R");
        assert!(db.epoch() > e2);
        // Reads never bump.
        let e3 = db.epoch();
        let _ = db.relation("R");
        let _ = db.total_tuples();
        let _ = db.statistics_fingerprint();
        assert_eq!(db.epoch(), e3);
    }

    #[test]
    fn statistics_fingerprint_tracks_content_not_identity() {
        let mut a = Database::new();
        a.insert("R", Relation::from_rows(2, vec![[1, 2], [2, 3]]));
        a.insert("S", Relation::from_rows(1, vec![[5]]));
        let mut b = Database::new();
        // Insertion order must not matter (sorted names drive the hash).
        b.insert("S", Relation::from_rows(1, vec![[5]]));
        b.insert("R", Relation::from_rows(2, vec![[1, 2], [2, 3]]));
        assert_eq!(a.statistics_fingerprint(), b.statistics_fingerprint());
        // Clones agree even though epochs are merely inherited.
        assert_eq!(a.clone().statistics_fingerprint(), a.statistics_fingerprint());
        // Changing the data changes the fingerprint.
        b.insert("R", Relation::from_rows(2, vec![[1, 2], [2, 3], [3, 4]]));
        assert_ne!(a.statistics_fingerprint(), b.statistics_fingerprint());
        // Renaming a relation changes the fingerprint.
        let mut c = Database::new();
        c.insert("R2", Relation::from_rows(2, vec![[1, 2], [2, 3]]));
        c.insert("S", Relation::from_rows(1, vec![[5]]));
        assert_ne!(a.statistics_fingerprint(), c.statistics_fingerprint());
    }
}
