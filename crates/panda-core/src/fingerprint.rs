//! Canonical fingerprints for cross-query plan caching.
//!
//! Two queries that differ only in variable *identity* — variable names,
//! the order in which variables first occur, the order of body atoms, the
//! query name — have identical planning problems: the widths, tree
//! decompositions and degree partitions of one are those of the other with
//! the variables renamed.  The plan cache therefore keys on a **canonical
//! encoding** of the query computed here: a byte string invariant under
//! variable renaming, so structurally-isomorphic queries share a cache
//! slot.
//!
//! The canonical form is found by colour refinement (a 1-dimensional
//! Weisfeiler–Leman pass over the variable/atom incidence structure)
//! followed by a bounded backtracking search over the refinement classes;
//! the encoding chosen is the lexicographic minimum over all explored
//! complete labelings.  When the search space exceeds
//! [`MAX_LABELINGS`], the minimum over the explored prefix is used — still
//! deterministic for a given query, and **miss-safe**: a truncated search
//! can only make two isomorphic queries miss each other in the cache,
//! never make two non-isomorphic queries collide (equal encodings always
//! exhibit a concrete variable bijection mapping one query onto the
//! other).
//!
//! Statistics are canonicalised under the same renaming by
//! [`canonical_statistics_encoding`]: each constraint is encoded with its
//! variable sets renamed and its human-readable label **excluded** (labels
//! embed raw variable indices and never influence planning), and the
//! per-constraint encodings are sorted so the measurement order does not
//! matter.
//!
//! Everything here is pure computation on the query structure: no global
//! state, no hashing randomness, no clocks.

// panda-lint: allow-file(P1) -- dense canonicalisation kernel: every
// index is a variable id `< num_vars` or a colour id minted from the
// per-variable key vector, both in range by construction, and the two
// `expect`s sit behind exhaustiveness guarantees stated at their sites.

use panda_entropy::{StatKind, StatisticsSet};
use panda_query::{ConjunctiveQuery, Var, VarSet};

/// Cap on the number of complete variable labelings the canonical search
/// explores.  Queries whose refinement classes stay small (every practical
/// query: distinct relation symbols separate the variables quickly) never
/// come close; highly symmetric self-join queries fall back to the minimum
/// over the explored prefix, which is deterministic and miss-safe.
pub const MAX_LABELINGS: usize = 5_000;

/// A query reduced to canonical form: the renaming-invariant encoding and
/// the variable renaming that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalQuery {
    /// The canonical byte encoding: equal for two queries iff the explored
    /// search found the same minimal labeling — in particular, equal
    /// encodings imply the queries are isomorphic.
    pub encoding: Vec<u8>,
    /// `renaming[v]` is the canonical id assigned to variable `Var(v)`; a
    /// bijection from the query's variables onto `0..num_vars`.
    pub renaming: Vec<u32>,
}

/// Applies a canonical renaming to a variable set: bit `v` maps to bit
/// `renaming[v]`.  Variables outside the renaming (never the case for sets
/// drawn from the fingerprinted query) are dropped.
#[must_use]
pub fn rename_set(set: VarSet, renaming: &[u32]) -> VarSet {
    let mut out = VarSet::EMPTY;
    for v in set.iter() {
        if let Some(&canonical) = renaming.get(v.index()) {
            out = out.with(Var(canonical));
        }
    }
    out
}

/// Computes the canonical form of a query: colour refinement over the
/// variable/atom incidence structure, then a bounded search over the
/// refinement classes for the lexicographically minimal encoding.
///
/// The encoding covers exactly what planning consumes: the number of
/// variables, the free-variable set, and the multiset of atoms (relation
/// symbol plus positional variable ids).  The query *name* and the
/// variable *names* are excluded — they never influence a plan.
#[must_use]
pub fn canonicalize_query(query: &ConjunctiveQuery) -> CanonicalQuery {
    let n = query.num_vars();
    if n == 0 {
        return CanonicalQuery { encoding: encode_labeling(query, &[]), renaming: Vec::new() };
    }

    // --- Colour refinement -------------------------------------------------
    // Initial colour: free/existential status plus the sorted multiset of
    // (relation, position, arity) occurrences of the variable.
    let free = query.free_vars();
    let mut keys: Vec<Vec<u8>> = (0..n)
        .map(|v| {
            let var = Var(v as u32);
            let mut key = vec![u8::from(free.contains(var))];
            let mut occurrences: Vec<(String, usize, usize)> = Vec::new();
            for atom in query.atoms() {
                for (pos, w) in atom.vars.iter().enumerate() {
                    if *w == var {
                        occurrences.push((atom.relation.clone(), pos, atom.arity()));
                    }
                }
            }
            occurrences.sort();
            for (rel, pos, arity) in occurrences {
                key.extend_from_slice(rel.as_bytes());
                key.push(0);
                key.push(pos as u8);
                key.push(arity as u8);
            }
            key
        })
        .collect();
    let mut colours = colours_from_keys(&keys);
    // Refine until the partition stabilises: a variable's new colour folds
    // in, per occurrence, the colours at every position of that atom.
    loop {
        let num_colours = distinct_count(&colours);
        for v in 0..n {
            let var = Var(v as u32);
            let mut key = vec![colours[v] as u8, (colours[v] >> 8) as u8];
            let mut occurrences: Vec<Vec<u8>> = Vec::new();
            for atom in query.atoms() {
                if !atom.vars.contains(&var) {
                    continue;
                }
                let mut occ: Vec<u8> = atom.relation.as_bytes().to_vec();
                occ.push(0);
                for w in &atom.vars {
                    occ.push(colours[w.index()] as u8);
                    occ.push((colours[w.index()] >> 8) as u8);
                }
                occurrences.push(occ);
            }
            occurrences.sort();
            for occ in occurrences {
                key.extend_from_slice(&occ);
            }
            keys[v] = key;
        }
        colours = colours_from_keys(&keys);
        if distinct_count(&colours) == num_colours {
            break;
        }
    }

    // --- Bounded search over refinement classes ----------------------------
    // Variables are labelled class by class (classes ordered by colour id,
    // which is derived from sorted keys and therefore isomorphism-
    // invariant); within a class every remaining variable is tried.  The
    // lexicographically smallest complete encoding wins.
    let mut classes: Vec<Vec<usize>> = vec![Vec::new(); distinct_count(&colours)];
    for (v, &c) in colours.iter().enumerate() {
        classes[c].push(v);
    }
    let mut order: Vec<usize> = Vec::with_capacity(n); // order[k] = variable with canonical id k
    let mut best: Option<(Vec<u8>, Vec<u32>)> = None;
    let mut explored = 0usize;
    search(query, &classes, 0, &mut order, &mut best, &mut explored);
    let (encoding, renaming) = best.expect("at least one labeling is always explored");
    CanonicalQuery { encoding, renaming }
}

/// Recursive labeling search: position `class_idx` in the class list;
/// `order` holds the variables already labelled (canonical id = index).
fn search(
    query: &ConjunctiveQuery,
    classes: &[Vec<usize>],
    class_idx: usize,
    order: &mut Vec<usize>,
    best: &mut Option<(Vec<u8>, Vec<u32>)>,
    explored: &mut usize,
) {
    if *explored >= MAX_LABELINGS {
        return;
    }
    if class_idx == classes.len() {
        *explored += 1;
        let n = order.len();
        let mut renaming = vec![0u32; n];
        for (canonical, &v) in order.iter().enumerate() {
            renaming[v] = canonical as u32;
        }
        let encoding = encode_labeling(query, &renaming);
        match best {
            Some((current, _)) if *current <= encoding => {}
            _ => *best = Some((encoding, renaming)),
        }
        return;
    }
    let class = &classes[class_idx];
    let start = order.len();
    // Permute the current class: pick each not-yet-placed member in turn.
    permute_class(query, classes, class_idx, class, start, order, best, explored);
}

#[allow(clippy::too_many_arguments)]
fn permute_class(
    query: &ConjunctiveQuery,
    classes: &[Vec<usize>],
    class_idx: usize,
    class: &[usize],
    start: usize,
    order: &mut Vec<usize>,
    best: &mut Option<(Vec<u8>, Vec<u32>)>,
    explored: &mut usize,
) {
    if order.len() - start == class.len() {
        search(query, classes, class_idx + 1, order, best, explored);
        return;
    }
    for &v in class {
        if order[start..].contains(&v) {
            continue;
        }
        order.push(v);
        permute_class(query, classes, class_idx, class, start, order, best, explored);
        order.pop();
        if *explored >= MAX_LABELINGS {
            return;
        }
    }
}

/// Encodes the query under a complete renaming: variable count, renamed
/// free set, then the sorted multiset of renamed atoms.
fn encode_labeling(query: &ConjunctiveQuery, renaming: &[u32]) -> Vec<u8> {
    let mut out = vec![renaming.len() as u8];
    out.extend_from_slice(&rename_set(query.free_vars(), renaming).bits().to_le_bytes());
    let mut atoms: Vec<Vec<u8>> = query
        .atoms()
        .iter()
        .map(|atom| {
            let mut enc: Vec<u8> = atom.relation.as_bytes().to_vec();
            enc.push(0);
            enc.push(atom.arity() as u8);
            for v in &atom.vars {
                enc.push(renaming[v.index()] as u8);
            }
            enc
        })
        .collect();
    atoms.sort();
    for atom in atoms {
        out.push(0xff);
        out.extend_from_slice(&atom);
    }
    out
}

/// Maps per-variable keys to dense colour ids, ordered by sorted key — an
/// isomorphism-invariant numbering.
fn colours_from_keys(keys: &[Vec<u8>]) -> Vec<usize> {
    let mut sorted: Vec<&Vec<u8>> = keys.iter().collect();
    sorted.sort();
    sorted.dedup();
    keys.iter().map(|k| sorted.binary_search(&k).expect("own key is present")).collect()
}

fn distinct_count(colours: &[usize]) -> usize {
    colours.iter().max().map_or(0, |m| m + 1)
}

/// Encodes a statistics set canonically under a query renaming: the log
/// base, then the sorted multiset of per-constraint encodings (guard
/// symbol, kind, renamed variable sets, count, exact log value).  The
/// human-readable `label` is excluded — it embeds raw variable indices and
/// never influences planning.
#[must_use]
pub fn canonical_statistics_encoding(stats: &StatisticsSet, renaming: &[u32]) -> Vec<u8> {
    let mut out = stats.base().to_le_bytes().to_vec();
    let mut encoded: Vec<Vec<u8>> = stats
        .stats()
        .iter()
        .map(|stat| {
            let mut enc: Vec<u8> = Vec::new();
            match &stat.guard {
                Some(g) => {
                    enc.push(1);
                    enc.extend_from_slice(g.as_bytes());
                }
                None => enc.push(0),
            }
            enc.push(0);
            match stat.kind {
                StatKind::Degree { cond, subj } => {
                    enc.push(1);
                    enc.extend_from_slice(&rename_set(cond, renaming).bits().to_le_bytes());
                    enc.extend_from_slice(&rename_set(subj, renaming).bits().to_le_bytes());
                }
                StatKind::LpNorm { cond, subj, k } => {
                    enc.push(2);
                    enc.extend_from_slice(&rename_set(cond, renaming).bits().to_le_bytes());
                    enc.extend_from_slice(&rename_set(subj, renaming).bits().to_le_bytes());
                    enc.extend_from_slice(&k.to_le_bytes());
                }
            }
            enc.extend_from_slice(&stat.count.to_le_bytes());
            enc.extend_from_slice(&stat.log_value.numer().to_le_bytes());
            enc.extend_from_slice(&stat.log_value.denom().to_le_bytes());
            enc
        })
        .collect();
    encoded.sort();
    for enc in encoded {
        out.push(0xff);
        out.extend_from_slice(&enc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_query::parse_query;
    use panda_relation::{Database, Relation};

    fn canon(text: &str) -> CanonicalQuery {
        canonicalize_query(&parse_query(text).unwrap())
    }

    #[test]
    fn renamed_and_reordered_queries_share_an_encoding() {
        let base = canon("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)");
        // Variable names changed.
        assert_eq!(base.encoding, canon("Q(A,B) :- R(A,B), S(B,C), T(C,D), U(D,A)").encoding);
        // Body atoms permuted.
        assert_eq!(base.encoding, canon("Q(X,Y) :- U(W,X), T(Z,W), S(Y,Z), R(X,Y)").encoding);
        // Query name changed.
        assert_eq!(base.encoding, canon("P(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").encoding);
        // Existential variables introduced in a different first-occurrence
        // order: still isomorphic, still equal.
        assert_eq!(base.encoding, canon("Q(X,Y) :- T(Z,W), U(W,X), R(X,Y), S(Y,Z)").encoding);
    }

    #[test]
    fn non_isomorphic_queries_differ() {
        let base = canon("Q(X,Y) :- R(X,Y), S(Y,Z)");
        // Different free set.
        assert_ne!(base.encoding, canon("Q(X,Z) :- R(X,Y), S(Y,Z)").encoding);
        // Different relation symbol.
        assert_ne!(base.encoding, canon("Q(X,Y) :- R(X,Y), T(Y,Z)").encoding);
        // Different join structure.
        assert_ne!(base.encoding, canon("Q(X,Y) :- R(X,Y), S(X,Z)").encoding);
        // Extra atom.
        assert_ne!(base.encoding, canon("Q(X,Y) :- R(X,Y), S(Y,Z), S(Z,X)").encoding);
    }

    #[test]
    fn renaming_is_a_bijection_witnessing_the_encoding() {
        let c = canon("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)");
        let mut seen = vec![false; c.renaming.len()];
        for &id in &c.renaming {
            assert!(!seen[id as usize], "renaming must be injective");
            seen[id as usize] = true;
        }
        // Re-encoding under the returned renaming reproduces the encoding.
        let q = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
        assert_eq!(encode_labeling(&q, &c.renaming), c.encoding);
    }

    #[test]
    fn symmetric_self_join_queries_stay_deterministic() {
        // Every atom uses the same symbol: colour refinement cannot fully
        // separate the variables, so the bounded search does the work.
        let a = canon("Tri() :- E(A,B), E(B,C), E(C,A)");
        let b = canon("Tri() :- E(X,Y), E(Y,Z), E(Z,X)");
        assert_eq!(a.encoding, b.encoding);
        // Deterministic across calls.
        assert_eq!(a, canon("Tri() :- E(A,B), E(B,C), E(C,A)"));
    }

    #[test]
    fn statistics_encodings_are_order_insensitive_and_label_free() {
        let q1 = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z)").unwrap();
        let q2 = parse_query("Q(A,B) :- S(B,C), R(A,B)").unwrap();
        let c1 = canonicalize_query(&q1);
        let c2 = canonicalize_query(&q2);
        assert_eq!(c1.encoding, c2.encoding);
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(2, vec![[1, 2], [2, 3]]));
        db.insert("S", Relation::from_rows(2, vec![[2, 5], [3, 5], [3, 6]]));
        let s1 = StatisticsSet::measure(&q1, &db);
        let s2 = StatisticsSet::measure(&q2, &db);
        assert_eq!(
            canonical_statistics_encoding(&s1, &c1.renaming),
            canonical_statistics_encoding(&s2, &c2.renaming),
        );
        // Different data, different encoding.
        db.insert("S", Relation::from_rows(2, vec![[2, 5]]));
        let s3 = StatisticsSet::measure(&q1, &db);
        assert_ne!(
            canonical_statistics_encoding(&s1, &c1.renaming),
            canonical_statistics_encoding(&s3, &c1.renaming),
        );
    }
}
