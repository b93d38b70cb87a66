//! The [`Database`] — a named collection of relation instances.

use std::collections::HashMap;

use crate::relation::Relation;

/// A database instance: a mapping from relation symbols to relation
/// instances.
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
/// ```
#[derive(Debug, Clone, Default)]
pub struct Database {
    relations: HashMap<String, Relation>,
}

impl Database {
    /// Creates an empty database.
    #[must_use]
    pub fn new() -> Self {
        Database::default()
    }

    /// Inserts (or replaces) a relation instance under the given symbol.
    pub fn insert(&mut self, name: impl Into<String>, relation: Relation) -> &mut Self {
        self.relations.insert(name.into(), relation);
        self
    }

    /// Looks up a relation instance by symbol.
    #[must_use]
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Removes a relation, returning it if present.
    pub fn remove(&mut self, name: &str) -> Option<Relation> {
        self.relations.remove(name)
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
}
