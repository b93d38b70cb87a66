//! The Yannakakis algorithm for free-connex acyclic joins.
//!
//! Given relations whose schemas form an α-acyclic hypergraph with a join
//! tree, the algorithm runs four passes:
//!
//! 1. bottom-up semijoins (children filter parents);
//! 2. top-down semijoins (parents filter children), after which every
//!    remaining tuple of every node extends to a tuple of the full join;
//! 3. a bottom-up assembly that joins a child into its parent only when
//!    their separator (the variables they share) holds a variable that is
//!    not free.  The assembly projects *before* it joins: a node first
//!    drops every variable that is neither free nor shared with a
//!    neighbour, and after joining each child it drops the variables only
//!    that child read.  A child whose separator is entirely free is left
//!    unjoined: it and the nodes joined into it form a *factor*, whose
//!    columns are all free;
//! 4. a nested cursor over the factors (`cursor.rs`, the one the
//!    generic join runs on): in preorder from the factor that holds the
//!    first free variable, each factor's cached adjacency `(separator |
//!    rest)` lists the rows that extend the answer prefix written so far,
//!    and every combination of factor rows is one answer row.  No join
//!    crosses a free separator and nothing is deduplicated or projected at
//!    the end; when the preorder visits the free variables in their own
//!    order (the full 3-path does), the rows come out sorted.
//!
//! That keeps the tail at the `O(Σ|R_i| + |output|)` the paper invokes for
//! the final step of every static and adaptive plan (Eq. 12 and Eq. 29):
//! on the double star each degree branch joins `N/2` rows for an answer of
//! `N/2`, where joining first and projecting after would build the product
//! of two leaf sets, `N²/4` rows.  [`yannakakis_profiled`] reports the rows
//! pass 3 joins.
//!
//! Both semijoin passes go through [`panda_relation::operators::semijoin`],
//! which probes the filter side's adjacency from the relation's shared
//! cache — so repeated runs over the same database (across PANDA branches
//! or bench iterations) re-sort no leaf, and semijoins that filter nothing
//! return O(1) clones whose cached adjacencies pass 4 reads as they are.

// panda-lint: allow-file(P1) -- semijoin passes index per-node slots by
// the tree decomposition's own node ids, and the take()/expect pairs
// encode the bottom-up visit order (children strictly before parents).

use panda_query::hypergraph::{join_tree_of, JoinTree};
use panda_query::{Var, VarSet};
use panda_relation::Relation;

use crate::binding::VarRelation;
use crate::cursor::{Cursor, Level, Reader};

/// What one run of [`yannakakis_profiled`] built, in rows: exact counts,
/// the same at every thread count, so tests can pin them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct YannakakisProfile {
    /// The rows of every join the assembly built, summed.
    pub assembly_rows: usize,
    /// The rows of the largest join the assembly built.
    pub assembly_rows_max: usize,
}

/// Evaluates the join of `relations` projected onto `free`, assuming their
/// schemas form an acyclic hypergraph.  Returns `None` if they do not, or
/// if some free variable occurs in no relation (the caller should fall
/// back to a different strategy).  The answer's columns are `free` in
/// variable order, one row per answer.
#[must_use]
pub fn yannakakis_free_connex(relations: &[VarRelation], free: VarSet) -> Option<VarRelation> {
    yannakakis_profiled(relations, free).map(|(answer, _)| answer)
}

/// [`yannakakis_free_connex`], with the rows its assembly built.
#[must_use]
pub fn yannakakis_profiled(
    relations: &[VarRelation],
    free: VarSet,
) -> Option<(VarRelation, YannakakisProfile)> {
    let schemas: Vec<VarSet> = relations.iter().map(VarRelation::var_set).collect();
    let covered: VarSet = schemas.iter().fold(VarSet::EMPTY, |acc, s| acc.union(*s));
    if !free.is_subset_of(covered) {
        return None;
    }
    if relations.is_empty() {
        return Some((VarRelation::boolean(true), YannakakisProfile::default()));
    }
    let tree = join_tree_of(&schemas)?;
    let nodes = full_reducer(&tree, relations);
    let mut profile = YannakakisProfile::default();
    let factors = assemble(&tree, &nodes, free, &mut profile);
    Some((enumerate(&tree, &nodes, &factors, free), profile))
}

/// Passes 1 and 2: the bottom-up semijoins (children filter parents), then
/// the top-down ones (parents filter children).  Afterwards every remaining
/// tuple of every node extends to a tuple of the full join.
fn full_reducer(tree: &JoinTree, relations: &[VarRelation]) -> Vec<VarRelation> {
    let mut nodes: Vec<VarRelation> = relations.to_vec();
    for &node in &tree.bottom_up {
        if let Some(parent) = tree.parent[node] {
            nodes[parent] = nodes[parent].semijoin(&nodes[node]);
        }
    }
    for &node in &tree.top_down() {
        let parent_rel = tree.parent[node].map(|p| nodes[p].clone());
        if let Some(parent_rel) = parent_rel {
            nodes[node] = nodes[node].semijoin(&parent_rel);
        }
    }
    nodes
}

/// Pass 3: assembles the reduced `nodes` bottom-up into factors.  A child
/// is joined into its parent only when their separator holds a non-free
/// variable.  A node keeps the free variables, the variables it shares
/// with its parent, and those it shares with the children it has yet to
/// join; everything else is projected away before the node's first join
/// and after each child's.  Returns, per node, the factor it heads: the
/// root and every child left unjoined head one (all its columns are free
/// variables and separator variables, which are free); a joined node
/// heads none.
fn assemble(
    tree: &JoinTree,
    nodes: &[VarRelation],
    free: VarSet,
    profile: &mut YannakakisProfile,
) -> Vec<Option<VarRelation>> {
    let mut partial: Vec<Option<VarRelation>> = vec![None; nodes.len()];
    for &node in &tree.bottom_up {
        let vars = nodes[node].var_set();
        let shared = |other: usize| vars.intersect(nodes[other].var_set());
        let up = tree.parent[node].map_or(free, |parent| free.union(shared(parent)));
        let joined: Vec<usize> = tree.children[node]
            .iter()
            .copied()
            .filter(|&child| !shared(child).is_subset_of(free))
            .collect();
        // `needed[k]`: what the node must still carry once it has joined
        // its first `k` children.
        let mut needed = vec![up; joined.len() + 1];
        for k in (0..joined.len()).rev() {
            needed[k] = needed[k + 1].union(shared(joined[k]));
        }
        let mut acc = drop_unneeded(nodes[node].clone(), needed[0]);
        for (k, &child) in joined.iter().enumerate() {
            let child_rel = partial[child].take().expect("children processed before parents");
            acc = acc.natural_join(&child_rel);
            profile.assembly_rows += acc.len();
            profile.assembly_rows_max = profile.assembly_rows_max.max(acc.len());
            acc = drop_unneeded(acc, needed[k + 1]);
        }
        partial[node] = Some(acc);
    }
    partial
}

/// Projects `rel` onto its variables in `needed`, or returns it as it is
/// when it carries nothing else.
fn drop_unneeded(rel: VarRelation, needed: VarSet) -> VarRelation {
    if rel.var_set().is_subset_of(needed) {
        rel
    } else {
        rel.project_to_set(needed)
    }
}

/// Pass 4: enumerates the answer from the factors of [`assemble`], which
/// form a tree linked by the unjoined children's separators.  In preorder
/// from the factor holding the first free variable (children by the first
/// variable they add) each factor is a `cursor.rs` level reading its
/// `(separator | rest)` group; the root's keys come first.  A factor adding
/// no variable is skipped: after the full reducer every prefix finds its
/// separator there.
fn enumerate(
    tree: &JoinTree,
    nodes: &[VarRelation],
    factors: &[Option<VarRelation>],
    free: VarSet,
) -> VarRelation {
    let order = free.to_vec();
    let Some(&first) = order.first() else {
        return VarRelation::boolean(factors.iter().flatten().all(|f| !f.is_empty()));
    };
    // The factor each node belongs to, and each factor's links to its
    // neighbours with their separators.
    let mut owner = vec![0; nodes.len()];
    let mut links: Vec<Vec<(usize, VarSet)>> = vec![Vec::new(); nodes.len()];
    for node in tree.top_down() {
        owner[node] = match tree.parent[node] {
            Some(parent) if factors[node].is_none() => owner[parent],
            Some(parent) => {
                let sep = nodes[node].var_set().intersect(nodes[parent].var_set());
                links[owner[parent]].push((node, sep));
                links[node].push((owner[parent], sep));
                node
            }
            None => node,
        };
    }
    let factor = |node: usize| factors[node].as_ref().expect("a factor heads its own group");
    let root = (0..nodes.len())
        .find(|&node| factors[node].as_ref().is_some_and(|f| f.column_of(first).is_some()))
        .expect("every free variable is in some factor");
    let slot = |v: Var| order.iter().position(|w| *w == v).expect("a factor's columns are free");
    // The level reading `factor`'s group of the variables in `key`.
    let level = |factor: &VarRelation, key: VarSet| {
        let (key_cols, value_cols): (Vec<usize>, Vec<usize>) =
            (0..factor.vars.len()).partition(|&c| key.contains(factor.vars[c]));
        let adjacency = factor.rel.adjacency(&key_cols, &value_cols);
        let key = key_cols.iter().map(|&c| slot(factor.vars[c])).collect();
        let writes = value_cols.iter().map(|&c| slot(factor.vars[c])).collect();
        Level { readers: vec![Reader { adjacency, key }], writes }
    };

    // The root's first level lists its keys: the first variable's values.
    let mut groups = level(factor(root), VarSet::singleton(first));
    let keys = Reader { adjacency: groups.readers.swap_remove(0).adjacency, key: Vec::new() };
    let mut levels = vec![Level { readers: vec![keys], writes: vec![slot(first)] }];
    let mut stack = vec![(root, None, VarSet::singleton(first))];
    while let Some((at, from, key)) = stack.pop() {
        if !factor(at).var_set().is_subset_of(key) {
            levels.push(level(factor(at), key));
        }
        let mut next: Vec<(Option<Var>, usize, VarSet)> = links[at]
            .iter()
            .filter(|&&(to, _)| Some(to) != from)
            .map(|&(to, sep)| (factor(to).var_set().difference(sep).iter().next(), to, sep))
            .collect();
        next.sort_unstable_by_key(|&(added, to, _)| (added, to));
        stack.extend(next.into_iter().rev().map(|(_, to, sep)| (to, Some(at), sep)));
    }
    let cursor = Cursor { output_levels: levels.len(), levels, output: (0..order.len()).collect() };
    VarRelation::new(order, cursor.run(1))
}

/// Convenience wrapper: evaluates a free-connex acyclic *query* directly
/// from its atoms (used as the fast path of the end-to-end evaluator and as
/// the E13 baseline).  Returns `None` when the atom schemas are not
/// acyclic.
#[must_use]
pub fn yannakakis_query(
    query: &panda_query::ConjunctiveQuery,
    db: &panda_relation::Database,
) -> Option<VarRelation> {
    let bound = VarRelation::bind_all(query, db);
    yannakakis_free_connex(&bound, query.free_vars())
}

/// Builds an empty result with the given free variables — shared helper for
/// evaluators that detect an empty input early.
#[must_use]
pub fn empty_result(free: VarSet) -> VarRelation {
    let vars = free.to_vec();
    let arity = vars.len();
    VarRelation::new(vars, Relation::new(arity))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic_join::GenericJoin;
    use panda_query::parse_query;
    use panda_relation::Database;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::binary::left_deep_join;

    /// The textbook assembly that joins first and projects after: join
    /// every child into its node, then keep the free variables plus what
    /// the parent shares.  The differential oracle of [`assemble`]; returns
    /// the answer and the largest join it built.
    fn materialising_assembly(
        tree: &JoinTree,
        nodes: &[VarRelation],
        free: VarSet,
    ) -> (VarRelation, usize) {
        let mut largest = 0;
        let mut partial: Vec<Option<VarRelation>> = vec![None; nodes.len()];
        for &node in &tree.bottom_up {
            let mut acc = nodes[node].clone();
            for &child in &tree.children[node] {
                let child_rel = partial[child].take().expect("children processed before parents");
                acc = acc.natural_join(&child_rel);
                largest = largest.max(acc.len());
            }
            let keep: VarSet = match tree.parent[node] {
                Some(parent) => free.union(acc.var_set().intersect(nodes[parent].var_set())),
                None => free,
            };
            partial[node] = Some(acc.project_to_set(keep.intersect(acc.var_set())));
        }
        let root = partial[tree.root].take().expect("root processed last");
        (root.project_onto(&free.to_vec()), largest)
    }

    fn vars(ids: &[u32]) -> Vec<Var> {
        ids.iter().map(|&v| Var(v)).collect()
    }

    /// A random relation over `schema`, with values below `domain`.
    fn random_relation(rng: &mut StdRng, schema: &[Var], rows: usize, domain: u64) -> VarRelation {
        let mut rel = Relation::new(schema.len());
        for _ in 0..rows {
            let row: Vec<u64> = schema.iter().map(|_| rng.gen_range(0..domain)).collect();
            rel.push_row(&row);
        }
        VarRelation::new(schema.to_vec(), rel.deduped())
    }

    /// Random acyclic schemas: each node after the first takes a random
    /// subset of an earlier node's variables (possibly none, which makes
    /// the hypergraph disconnected) plus fresh ones, so the generating
    /// tree has the running-intersection property.
    fn random_acyclic_schemas(rng: &mut StdRng) -> Vec<Vec<Var>> {
        let mut next = 0u32;
        let mut fresh = |count: usize| {
            let out: Vec<u32> = (next..next + count as u32).collect();
            next += count as u32;
            out
        };
        let mut schemas: Vec<Vec<u32>> = vec![fresh(rng.gen_range(1..4usize))];
        for _ in 1..rng.gen_range(1..6usize) {
            let parent = schemas[rng.gen_range(0..schemas.len())].clone();
            let mut schema: Vec<u32> =
                parent.into_iter().filter(|_| rng.gen_range(0..3u32) > 0).collect();
            let extra = rng.gen_range(usize::from(schema.is_empty())..3);
            schema.extend(fresh(extra));
            schemas.push(schema);
        }
        schemas.iter().map(|s| vars(s)).collect()
    }

    #[test]
    fn projecting_before_joining_answers_what_the_materialising_assembly_answers() {
        let mut rng = StdRng::seed_from_u64(29);
        let mut smaller = 0;
        for case in 0..400 {
            let schemas = random_acyclic_schemas(&mut rng);
            let domain = rng.gen_range(2..5u64);
            let relations: Vec<VarRelation> = schemas
                .iter()
                .map(|s| {
                    let rows = rng.gen_range(0..12usize);
                    random_relation(&mut rng, s, rows, domain)
                })
                .collect();
            let covered: Vec<Var> =
                relations.iter().fold(VarSet::EMPTY, |acc, r| acc.union(r.var_set())).to_vec();
            let free: VarSet =
                covered.into_iter().filter(|_| rng.gen_range(0..2u32) == 0).collect();

            let (answer, profile) = yannakakis_profiled(&relations, free).expect("acyclic");
            let set_schemas: Vec<VarSet> = relations.iter().map(VarRelation::var_set).collect();
            let tree = join_tree_of(&set_schemas).expect("acyclic");
            let nodes = full_reducer(&tree, &relations);
            let (oracle, oracle_largest) = materialising_assembly(&tree, &nodes, free);
            let order = free.to_vec();
            assert_eq!(answer.vars, order, "case {case}");
            // Pass 4 does not dedup: each answer must come out once.
            assert_eq!(answer.len(), answer.rel.distinct_count(), "case {case}");
            assert_eq!(answer.rel.canonical_rows(), oracle.rel.canonical_rows(), "case {case}");
            let joined = left_deep_join(relations.clone(), free);
            assert_eq!(
                answer.rel.canonical_rows(),
                joined.canonical_rows_ordered(&order),
                "case {case}"
            );
            assert!(profile.assembly_rows_max <= oracle_largest, "case {case}");
            assert!(profile.assembly_rows >= profile.assembly_rows_max, "case {case}");
            smaller += usize::from(profile.assembly_rows_max < oracle_largest);
        }
        // The cases exercise the projections, not only the answers.
        assert!(smaller >= 20, "only {smaller} cases built a smaller join");
    }

    /// The double star's two bags for the 4-cycle `Q(X,Y)` under the TD
    /// `{X,Y,W} – {Y,Z,W}`, on the branch where `Y` and `W` are the hub:
    /// `U ⋈ R` over `{W,X,Y}` and `S ⋈ T` over `{Y,Z,W}`, `half` rows each.
    fn double_star_branch_bags(half: u64) -> Vec<VarRelation> {
        let (x, y, z, w) = (Var(0), Var(1), Var(2), Var(3));
        let hub = 1;
        let leaves = || (0..half).map(|i| i + 2);
        let xyw = Relation::from_rows(3, leaves().map(|leaf| [leaf, hub, hub]));
        let yzw = Relation::from_rows(3, leaves().map(|leaf| [hub, leaf, hub]));
        vec![VarRelation::new(vec![x, y, w], xyw), VarRelation::new(vec![y, z, w], yzw)]
    }

    #[test]
    fn a_double_star_branch_assembles_in_linear_rows() {
        let free = VarSet::from_iter([Var(0), Var(1)]);
        for half in [16u64, 64, 256] {
            let bags = double_star_branch_bags(half);
            let (answer, profile) = yannakakis_profiled(&bags, free).unwrap();
            assert_eq!(answer.len() as u64, half);
            let half = half as usize;
            assert_eq!(profile, YannakakisProfile { assembly_rows: half, assembly_rows_max: half });

            // Joining first builds the product of the leaf sets when the
            // join tree is rooted at `{Y,Z,W}`, as the given order roots it.
            let mut largests = Vec::new();
            for reversed in [false, true] {
                let mut bags = bags.clone();
                if reversed {
                    bags.reverse();
                }
                let schemas: Vec<VarSet> = bags.iter().map(VarRelation::var_set).collect();
                let tree = join_tree_of(&schemas).unwrap();
                let (oracle, largest) =
                    materialising_assembly(&tree, &full_reducer(&tree, &bags), free);
                assert_eq!(oracle.rel.canonical_rows(), answer.rel.canonical_rows());
                let (_, profile) = yannakakis_profiled(&bags, free).unwrap();
                assert_eq!(profile.assembly_rows_max, half);
                largests.push(largest);
            }
            assert_eq!(largests, [half * half, half]);
        }
    }

    #[test]
    fn uncovered_free_variables_are_rejected_before_any_work() {
        let r = VarRelation::new(vec![Var(0)], Relation::from_rows(1, vec![[1]]));
        assert!(yannakakis_free_connex(&[r], VarSet::from_iter([Var(0), Var(1)])).is_none());
        // No relations cover no variable: only the Boolean query has an answer.
        assert!(yannakakis_free_connex(&[], VarSet::singleton(Var(0))).is_none());
        assert_eq!(yannakakis_free_connex(&[], VarSet::EMPTY).unwrap().len(), 1);
    }

    fn path_db(n: u64, fanout: u64) -> Database {
        let mut db = Database::new();
        let mut r = Relation::new(2);
        let mut s = Relation::new(2);
        let mut t = Relation::new(2);
        for i in 0..n {
            r.push_row(&[i, i % fanout]);
            s.push_row(&[i % fanout, i % 7]);
            t.push_row(&[i % 7, i]);
        }
        db.insert("R", r.deduped());
        db.insert("S", s.deduped());
        db.insert("T", t.deduped());
        db
    }

    #[test]
    fn path_query_matches_generic_join() {
        let q = parse_query("Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D)").unwrap();
        let db = path_db(40, 5);
        let yann = yannakakis_query(&q, &db).expect("acyclic");
        let wcoj = GenericJoin::evaluate(&q, &db);
        assert_eq!(
            yann.canonical_rows_ordered(&q.free_vars().to_vec()),
            wcoj.canonical_rows_ordered(&q.free_vars().to_vec())
        );
    }

    #[test]
    fn projected_path_query() {
        let q = parse_query("Q(A,D) :- R(A,B), S(B,C), T(C,D)").unwrap();
        let db = path_db(40, 5);
        let yann = yannakakis_query(&q, &db).expect("acyclic");
        let wcoj = GenericJoin::evaluate(&q, &db);
        assert_eq!(
            yann.canonical_rows_ordered(&[Var(0), Var(3)]),
            wcoj.canonical_rows_ordered(&[Var(0), Var(3)])
        );
    }

    #[test]
    fn boolean_acyclic_query() {
        let q = parse_query("Q() :- R(A,B), S(B,C)").unwrap();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(2, vec![[1, 2]]));
        db.insert("S", Relation::from_rows(2, vec![[9, 9]]));
        let out = yannakakis_query(&q, &db).unwrap();
        assert_eq!(out.len(), 0);
        db.insert("S", Relation::from_rows(2, vec![[2, 5]]));
        let out = yannakakis_query(&q, &db).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn cyclic_queries_are_rejected() {
        let q = parse_query("Tri(A,B,C) :- R(A,B), S(B,C), T(A,C)").unwrap();
        let db = path_db(10, 3);
        let mut db = db;
        db.insert("T", Relation::from_rows(2, vec![[1, 2]]));
        assert!(yannakakis_query(&q, &db).is_none());
    }

    #[test]
    fn star_query_with_dangling_tuples() {
        // Star: center A joined with three satellites; dangling tuples in
        // the satellites must not appear.
        let q = parse_query("Q(A,B,C,D) :- R(A,B), S(A,C), T(A,D)").unwrap();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(2, vec![[1, 10], [2, 20], [3, 30]]));
        db.insert("S", Relation::from_rows(2, vec![[1, 100], [2, 200]]));
        db.insert("T", Relation::from_rows(2, vec![[1, 1000], [9, 9000]]));
        let out = yannakakis_query(&q, &db).unwrap();
        assert_eq!(out.rel.canonical_rows(), vec![vec![1, 10, 100, 1000]]);
    }

    #[test]
    fn the_full_path_enumerates_sorted_rows_without_a_join() {
        let q = parse_query("Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D)").unwrap();
        let db = path_db(60, 5);
        let bound = VarRelation::bind_all(&q, &db);
        let (answer, profile) = yannakakis_profiled(&bound, q.free_vars()).unwrap();
        assert_eq!(profile.assembly_rows, 0);
        assert_eq!(answer.vars, q.free_vars().to_vec());
        let rows: Vec<&[u64]> = answer.rel.iter().collect();
        assert!(rows.len() > 60, "{} rows", rows.len());
        assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows strictly increasing");
        let wcoj = GenericJoin::evaluate(&q, &db);
        assert_eq!(answer.rel.canonical_rows(), wcoj.canonical_rows_ordered(&answer.vars));
    }

    #[test]
    fn a_preorder_out_of_variable_order_gives_unsorted_rows_of_the_same_answer() {
        // From `R(A,B)` the preorder visits `S`, `T` (adding `C`, `E`)
        // before the second `R` (adding `D`): within one `(A,B,C)` prefix
        // `E` varies slowest, so the rows are not in column order.
        let q = parse_query("Q(A,B,C,D,E) :- R(A,B), S(B,C), R(A,D), T(C,E)").unwrap();
        let mut rng = StdRng::seed_from_u64(35);
        let mut db = Database::new();
        for name in ["R", "S", "T"] {
            let rows = (0..20).map(|_| [rng.gen_range(0..4u64), rng.gen_range(0..4u64)]);
            db.insert(name, Relation::from_rows(2, rows).deduped());
        }
        let bound = VarRelation::bind_all(&q, &db);
        let answer = yannakakis_free_connex(&bound, q.free_vars()).unwrap();
        let rows: Vec<&[u64]> = answer.rel.iter().collect();
        assert!(!rows.windows(2).all(|w| w[0] < w[1]), "rows out of column order");
        assert_eq!(answer.len(), answer.rel.distinct_count());
        let wcoj = GenericJoin::evaluate(&q, &db);
        assert_eq!(answer.rel.canonical_rows(), wcoj.canonical_rows_ordered(&answer.vars));
    }

    #[test]
    fn a_free_centre_star_enumerates_every_combination_of_its_arms() {
        // Every separator is free, so nothing is joined.  The star's arms
        // form a chain of factors.  In the second query the root factor
        // `R(A,B)` has two children, `S` (adding `C`) and `T` (adding
        // `D`), and `T` has `U`: taken in that order, the rows come out
        // sorted.
        let star = parse_query("Q(A,B,C,D) :- R(A,B), S(A,C), T(A,D)").unwrap();
        let q = parse_query("Q(A,B,C,D,E) :- R(A,B), S(A,C), T(B,D), U(D,E)").unwrap();
        let mut rng = StdRng::seed_from_u64(35);
        for _ in 0..10 {
            let mut db = Database::new();
            for name in ["R", "S", "T", "U"] {
                let rows = (0..30).map(|_| [rng.gen_range(0..5u64), rng.gen_range(0..5u64)]);
                db.insert(name, Relation::from_rows(2, rows).deduped());
            }
            for q in [&star, &q] {
                let bound = VarRelation::bind_all(q, &db);
                let (answer, profile) = yannakakis_profiled(&bound, q.free_vars()).unwrap();
                assert_eq!(profile.assembly_rows, 0);
                let rows: Vec<&[u64]> = answer.rel.iter().collect();
                assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows strictly increasing");
                let wcoj = GenericJoin::evaluate(q, &db);
                assert_eq!(answer.rel.canonical_rows(), wcoj.canonical_rows_ordered(&answer.vars));
            }
        }
    }

    #[test]
    fn random_acyclic_queries_agree_with_wcoj() {
        let q = parse_query("Q(A,C) :- R(A,B), S(B,C), U(B,D)").unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let mut db = Database::new();
            for name in ["R", "S", "U"] {
                let rel = Relation::from_rows(
                    2,
                    (0..50).map(|_| [rng.gen_range(0..6u64), rng.gen_range(0..6u64)]),
                )
                .deduped();
                db.insert(name, rel);
            }
            let yann = yannakakis_query(&q, &db).unwrap();
            let wcoj = GenericJoin::evaluate(&q, &db);
            assert_eq!(
                yann.canonical_rows_ordered(&[Var(0), Var(2)]),
                wcoj.canonical_rows_ordered(&[Var(0), Var(2)])
            );
        }
    }

    #[test]
    fn empty_inputs_give_empty_or_true() {
        assert_eq!(yannakakis_free_connex(&[], VarSet::EMPTY).unwrap().len(), 1);
        let r = VarRelation::new(vec![Var(0)], Relation::new(1));
        let out = yannakakis_free_connex(&[r], VarSet::singleton(Var(0))).unwrap();
        assert!(out.is_empty());
        assert_eq!(empty_result(VarSet::singleton(Var(3))).len(), 0);
    }
}
