//! Relations bound to query variables.

use std::collections::HashMap;

use panda_query::{Atom, ConjunctiveQuery, Var, VarSet};
use panda_relation::{operators, Database, Relation, Value};

/// A relation whose columns are bound to query variables: column `i` holds
/// the values of `vars[i]`.  All evaluators operate on `VarRelation`s so
/// that joins and projections can be expressed by variable rather than by
/// positional column index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarRelation {
    /// The variable bound to each column.
    pub vars: Vec<Var>,
    /// The underlying tuples.
    pub rel: Relation,
}

impl VarRelation {
    /// Creates a binding; the number of variables must match the arity.
    ///
    /// # Panics
    ///
    /// Panics if `vars.len() != rel.arity()` or a variable repeats.
    #[must_use]
    pub fn new(vars: Vec<Var>, rel: Relation) -> Self {
        assert_eq!(vars.len(), rel.arity(), "schema/arity mismatch");
        for (i, v) in vars.iter().enumerate() {
            assert!(!vars[..i].contains(v), "repeated variable {v:?} in VarRelation schema");
        }
        VarRelation { vars, rel }
    }

    /// Binds a query atom to its relation instance in the database — an
    /// O(1) operation for the common case: the stored relation is handed
    /// out as a zero-copy clone sharing tuple storage and cached indexes.
    /// Repeated variables in the atom (e.g. `R(X,X)`) are handled by
    /// selecting the rows where the corresponding columns are equal and
    /// keeping a single column per variable.
    ///
    /// Missing relations are treated as empty.
    ///
    /// # Panics
    ///
    /// Panics if the stored relation's arity differs from the atom's — a
    /// mismatched `db.insert` would otherwise surface as a confusing
    /// schema panic or row-index error much deeper in evaluation.
    #[must_use]
    pub fn from_atom(atom: &Atom, db: &Database) -> Self {
        let rel = match db.relation(&atom.relation) {
            Some(stored) => {
                assert_eq!(
                    stored.arity(),
                    atom.arity(),
                    "atom {}/{} is bound to a stored relation of arity {}",
                    atom.relation,
                    atom.arity(),
                    stored.arity()
                );
                stored.clone()
            }
            None => Relation::new(atom.arity()),
        };
        // Detect repeated variables.
        let mut kept_cols: Vec<usize> = Vec::new();
        let mut kept_vars: Vec<Var> = Vec::new();
        let mut first_col_of: HashMap<Var, usize> = HashMap::new();
        let mut equality_pairs: Vec<(usize, usize)> = Vec::new();
        for (col, v) in atom.vars.iter().enumerate() {
            if let Some(&first) = first_col_of.get(v) {
                equality_pairs.push((first, col));
            } else {
                first_col_of.insert(*v, col);
                kept_cols.push(col);
                kept_vars.push(*v);
            }
        }
        let mut filtered = if equality_pairs.is_empty() {
            rel
        } else {
            operators::select_where(&rel, |row| {
                // panda-lint: allow(P1) -- `a`, `b` are first-occurrence
                // columns of the atom, and the arity assert above pins
                // every row to exactly `atom.arity()` values.
                equality_pairs.iter().all(|&(a, b)| row[a] == row[b])
            })
        };
        if kept_cols.len() != atom.arity() {
            filtered = operators::reorder(&filtered, &kept_cols);
        }
        VarRelation::new(kept_vars, filtered)
    }

    /// Binds every atom of a query.  Thanks to `Arc`-shared relation
    /// storage this hands out zero-copy views of the database — no tuple
    /// data is duplicated per query.
    #[must_use]
    pub fn bind_all(query: &ConjunctiveQuery, db: &Database) -> Vec<VarRelation> {
        query.atoms().iter().map(|a| VarRelation::from_atom(a, db)).collect()
    }

    /// The schema as a variable set.
    #[must_use]
    pub fn var_set(&self) -> VarSet {
        self.vars.iter().copied().collect()
    }

    /// The number of tuples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rel.len()
    }

    /// `true` iff there are no tuples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rel.is_empty()
    }

    /// The column index of a variable, if bound.
    #[must_use]
    pub fn column_of(&self, v: Var) -> Option<usize> {
        self.vars.iter().position(|w| *w == v)
    }

    /// Projects onto the given variables (which must all be bound),
    /// deduplicating.
    ///
    /// # Panics
    ///
    /// Panics if a variable is not in the schema — use
    /// [`VarRelation::try_project_onto`] for the non-panicking form.
    #[must_use]
    pub fn project_onto(&self, vars: &[Var]) -> VarRelation {
        // panda-lint: allow(P1) -- the panic is this method's documented
        // contract; the graceful path is `try_project_onto`.
        self.try_project_onto(vars).expect("projection variable not in schema")
    }

    /// Projects onto the given variables, deduplicating; `None` when a
    /// variable is not bound by the schema.
    #[must_use]
    pub fn try_project_onto(&self, vars: &[Var]) -> Option<VarRelation> {
        let cols: Vec<usize> =
            vars.iter().map(|v| self.column_of(*v)).collect::<Option<Vec<usize>>>()?;
        Some(VarRelation::new(vars.to_vec(), operators::project(&self.rel, &cols)))
    }

    /// Projects onto the intersection of the schema with `keep` (in schema
    /// order).
    #[must_use]
    pub fn project_to_set(&self, keep: VarSet) -> VarRelation {
        let vars: Vec<Var> = self.vars.iter().copied().filter(|v| keep.contains(*v)).collect();
        self.project_onto(&vars)
    }

    /// Natural join on the shared variables.  The output schema is `self`'s
    /// variables followed by `other`'s non-shared variables.
    #[must_use]
    pub fn natural_join(&self, other: &VarRelation) -> VarRelation {
        let shared: Vec<(usize, usize)> = self
            .vars
            .iter()
            .enumerate()
            .filter_map(|(i, v)| other.column_of(*v).map(|j| (i, j)))
            .collect();
        let out_rel = operators::join(&self.rel, &other.rel, &shared);
        let mut out_vars = self.vars.clone();
        let shared_other: Vec<usize> = shared.iter().map(|&(_, j)| j).collect();
        for (j, v) in other.vars.iter().enumerate() {
            if !shared_other.contains(&j) {
                out_vars.push(*v);
            }
        }
        VarRelation::new(out_vars, out_rel)
    }

    /// Semijoin: keep the tuples of `self` that agree with some tuple of
    /// `other` on the shared variables.
    #[must_use]
    pub fn semijoin(&self, other: &VarRelation) -> VarRelation {
        let shared: Vec<(usize, usize)> = self
            .vars
            .iter()
            .enumerate()
            .filter_map(|(i, v)| other.column_of(*v).map(|j| (i, j)))
            .collect();
        if shared.is_empty() {
            return if other.is_empty() {
                VarRelation::new(self.vars.clone(), Relation::new(self.vars.len()))
            } else {
                self.clone()
            };
        }
        VarRelation::new(self.vars.clone(), operators::semijoin(&self.rel, &other.rel, &shared))
    }

    /// The Cartesian product (schemas must be disjoint).
    #[must_use]
    pub fn cross_product(&self, other: &VarRelation) -> VarRelation {
        assert!(
            self.var_set().is_disjoint_from(other.var_set()),
            "cross product requires disjoint schemas"
        );
        self.natural_join(other)
    }

    /// Returns the canonical rows re-ordered so that columns follow the
    /// given variable order — used to compare evaluator outputs in tests.
    #[must_use]
    pub fn canonical_rows_ordered(&self, order: &[Var]) -> Vec<Vec<Value>> {
        let projected = self.project_onto(order);
        projected.rel.canonical_rows()
    }

    /// A relation over no variables representing "true" (one empty tuple)
    /// or "false" (no tuples) — the result shape of a Boolean query.
    #[must_use]
    pub fn boolean(value: bool) -> VarRelation {
        let mut rel = Relation::new(0);
        if value {
            rel.push_row(&[]);
        }
        VarRelation::new(Vec::new(), rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_query::parse_query;

    fn db_edges() -> Database {
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(2, vec![[1, 2], [2, 3], [3, 4]]));
        db.insert("S", Relation::from_rows(2, vec![[2, 10], [3, 10], [9, 9]]));
        db
    }

    #[test]
    fn bind_atoms_and_join() {
        let q = parse_query("Q(X,Y,Z) :- R(X,Y), S(Y,Z)").unwrap();
        let db = db_edges();
        let bound = VarRelation::bind_all(&q, &db);
        assert_eq!(bound.len(), 2);
        assert_eq!(bound[0].vars, vec![Var(0), Var(1)]);
        let joined = bound[0].natural_join(&bound[1]);
        assert_eq!(joined.vars, vec![Var(0), Var(1), Var(2)]);
        assert_eq!(joined.rel.canonical_rows(), vec![vec![1, 2, 10], vec![2, 3, 10]]);
    }

    #[test]
    fn try_project_onto_rejects_unknown_variables() {
        let q = parse_query("Q(X,Y,Z) :- R(X,Y), S(Y,Z)").unwrap();
        let db = db_edges();
        let bound = VarRelation::bind_all(&q, &db);
        assert!(bound[0].try_project_onto(&[Var(0)]).is_some());
        // Var(2) = Z is not in R(X,Y)'s schema.
        assert!(bound[0].try_project_onto(&[Var(0), Var(2)]).is_none());
    }

    #[test]
    fn missing_relation_is_empty() {
        let q = parse_query("Q(X) :- Missing(X)").unwrap();
        let db = Database::new();
        let bound = VarRelation::bind_all(&q, &db);
        assert!(bound[0].is_empty());
    }

    #[test]
    fn repeated_variables_become_selections() {
        // E(X,X) keeps only loops and a single column.
        let q = parse_query("Q(X) :- E(X,X)").unwrap();
        let mut db = Database::new();
        db.insert("E", Relation::from_rows(2, vec![[1, 1], [1, 2], [3, 3]]));
        let bound = VarRelation::from_atom(&q.atoms()[0], &db);
        assert_eq!(bound.vars, vec![Var(0)]);
        assert_eq!(bound.rel.canonical_rows(), vec![vec![1], vec![3]]);
    }

    #[test]
    fn projections_and_semijoins() {
        let q = parse_query("Q(X,Y,Z) :- R(X,Y), S(Y,Z)").unwrap();
        let db = db_edges();
        let bound = VarRelation::bind_all(&q, &db);
        let r = &bound[0];
        let s = &bound[1];
        let ry = r.project_onto(&[Var(1)]);
        assert_eq!(ry.rel.canonical_rows(), vec![vec![2], vec![3], vec![4]]);
        let reduced = r.semijoin(s);
        assert_eq!(reduced.rel.canonical_rows(), vec![vec![1, 2], vec![2, 3]]);
        let set_proj = r.project_to_set(VarSet::singleton(Var(0)));
        assert_eq!(set_proj.vars, vec![Var(0)]);
    }

    #[test]
    fn semijoin_with_disjoint_schema_checks_emptiness() {
        let a = VarRelation::new(vec![Var(0)], Relation::from_rows(1, vec![[1], [2]]));
        let b_nonempty = VarRelation::new(vec![Var(1)], Relation::from_rows(1, vec![[5]]));
        let b_empty = VarRelation::new(vec![Var(1)], Relation::new(1));
        assert_eq!(a.semijoin(&b_nonempty).len(), 2);
        assert_eq!(a.semijoin(&b_empty).len(), 0);
    }

    #[test]
    fn cross_product_and_boolean() {
        let a = VarRelation::new(vec![Var(0)], Relation::from_rows(1, vec![[1], [2]]));
        let b = VarRelation::new(vec![Var(1)], Relation::from_rows(1, vec![[7]]));
        let p = a.cross_product(&b);
        assert_eq!(p.len(), 2);
        assert_eq!(p.vars, vec![Var(0), Var(1)]);
        assert_eq!(VarRelation::boolean(true).len(), 1);
        assert_eq!(VarRelation::boolean(false).len(), 0);
    }

    #[test]
    #[should_panic(expected = "repeated variable")]
    fn repeated_schema_variable_panics() {
        let _ = VarRelation::new(vec![Var(0), Var(0)], Relation::new(2));
    }

    #[test]
    fn bind_all_shares_storage_with_the_database() {
        let q = parse_query("Q(X,Y,Z) :- R(X,Y), S(Y,Z)").unwrap();
        let db = db_edges();
        let bound = VarRelation::bind_all(&q, &db);
        assert!(bound[0].rel.shares_storage_with(db.relation("R").unwrap()));
        assert!(bound[1].rel.shares_storage_with(db.relation("S").unwrap()));
    }

    #[test]
    #[should_panic(expected = "atom R/3 is bound to a stored relation of arity 2")]
    fn arity_mismatch_is_reported_at_binding_time() {
        // Regression: a mismatched insert used to surface as a confusing
        // "schema/arity mismatch" panic deep inside VarRelation::new.
        let q = parse_query("Q(X,Y,Z) :- R(X,Y,Z)").unwrap();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(2, vec![[1, 2]]));
        let _ = VarRelation::from_atom(&q.atoms()[0], &db);
    }
}
