//! FMM-based Boolean 4-cycle detection (experiment E12).
//!
//! The Boolean 4-cycle query `Q□^bool() :- R(X,Y),S(Y,Z),T(Z,W),U(W,X)`
//! (Eq. 76) can be answered by two matrix products: `A = R·S` records which
//! `(x,z)` pairs are connected through some `y`, `B = T·U` records which
//! `(z,x)` pairs are connected through some `w`, and the query is true iff
//! `A` and `Bᵀ` share a `true` entry.  With fast matrix multiplication this
//! is the `O(N^{(4ω−1)/(2ω+1)})`-style strategy of Section 9.3; here the
//! products are combinatorial (bit-parallel Boolean), so the experiment
//! compares *strategies* rather than asymptotics.

// panda-lint: allow-file(P1) -- shape detection indexes variables and
// atoms by positions the pattern match itself established.

use std::collections::HashMap;

use panda_relation::{Database, Relation, Value};

use crate::matrix::BoolMatrix;

/// Adds every row/column value of a binary relation to the two
/// dictionaries.
fn fill_dicts(rel: &Relation, rows: &mut HashMap<Value, usize>, cols: &mut HashMap<Value, usize>) {
    for row in rel.iter() {
        let next = rows.len();
        rows.entry(row[0]).or_insert(next);
        let next = cols.len();
        cols.entry(row[1]).or_insert(next);
    }
}

/// Builds the Boolean matrix of a binary relation under fixed dictionaries.
fn build_matrix(
    rel: &Relation,
    rows: &HashMap<Value, usize>,
    cols: &HashMap<Value, usize>,
) -> BoolMatrix {
    let mut m = BoolMatrix::zeros(rows.len().max(1), cols.len().max(1));
    for row in rel.iter() {
        m.set(rows[&row[0]], cols[&row[1]]);
    }
    m
}

/// Detects whether the database contains a 4-cycle
/// `R(x,y), S(y,z), T(z,w), U(w,x)` using two Boolean matrix products:
/// `A = R·S` (pairs `(x,z)` connected through `y`), `B = T·U` (pairs
/// `(z,x)` connected through `w`), and a cycle exists iff `A ∩ Bᵀ ≠ ∅`.
///
/// The relations `R`, `S`, `T`, `U` must be binary; missing relations are
/// treated as empty (no cycle).
#[must_use]
pub fn detect_four_cycle_fmm(db: &Database) -> bool {
    let empty = Relation::new(2);
    let r = db.relation("R").unwrap_or(&empty);
    let s = db.relation("S").unwrap_or(&empty);
    let t = db.relation("T").unwrap_or(&empty);
    let u = db.relation("U").unwrap_or(&empty);
    if r.is_empty() || s.is_empty() || t.is_empty() || u.is_empty() {
        return false;
    }
    // Shared dictionaries so the inner dimensions line up: X between R's
    // rows and U's columns, Y between R's columns and S's rows, Z between
    // S's columns and T's rows, W between T's columns and U's rows.
    let mut x_ids: HashMap<Value, usize> = HashMap::new();
    let mut y_ids: HashMap<Value, usize> = HashMap::new();
    let mut z_ids: HashMap<Value, usize> = HashMap::new();
    let mut w_ids: HashMap<Value, usize> = HashMap::new();
    fill_dicts(r, &mut x_ids, &mut y_ids);
    fill_dicts(s, &mut y_ids, &mut z_ids);
    fill_dicts(t, &mut z_ids, &mut w_ids);
    fill_dicts(u, &mut w_ids, &mut x_ids);
    let a = build_matrix(r, &x_ids, &y_ids).multiply(&build_matrix(s, &y_ids, &z_ids)); // X × Z through Y
    let b = build_matrix(t, &z_ids, &w_ids).multiply(&build_matrix(u, &w_ids, &x_ids)); // Z × X through W
    a.intersects(&b.transpose())
}

/// Reference combinatorial detector: a straightforward hash-join pipeline
/// (`R ⋈ S` probed against `T ⋈ U`).  Used as the baseline in E12 and to
/// cross-check the FMM detector in tests.
#[must_use]
pub fn detect_four_cycle_join(db: &Database) -> bool {
    let empty = Relation::new(2);
    let r = db.relation("R").unwrap_or(&empty);
    let s = db.relation("S").unwrap_or(&empty);
    let t = db.relation("T").unwrap_or(&empty);
    let u = db.relation("U").unwrap_or(&empty);
    // x→z pairs through y.
    let mut s_by_y: HashMap<Value, Vec<Value>> = HashMap::new();
    for row in s.iter() {
        s_by_y.entry(row[0]).or_default().push(row[1]);
    }
    let mut xz: std::collections::HashSet<(Value, Value)> = std::collections::HashSet::new();
    for row in r.iter() {
        if let Some(zs) = s_by_y.get(&row[1]) {
            for &z in zs {
                xz.insert((row[0], z));
            }
        }
    }
    // z→x pairs through w, probed against xz.
    let mut u_by_w: HashMap<Value, Vec<Value>> = HashMap::new();
    for row in u.iter() {
        u_by_w.entry(row[0]).or_default().push(row[1]);
    }
    for row in t.iter() {
        if let Some(xs) = u_by_w.get(&row[1]) {
            for &x in xs {
                if xz.contains(&(x, row[0])) {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn db_with_cycle() -> Database {
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(2, vec![[1, 2], [5, 6]]));
        db.insert("S", Relation::from_rows(2, vec![[2, 3], [6, 9]]));
        db.insert("T", Relation::from_rows(2, vec![[3, 4]]));
        db.insert("U", Relation::from_rows(2, vec![[4, 1]]));
        db
    }

    fn db_without_cycle() -> Database {
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(2, vec![[1, 2]]));
        db.insert("S", Relation::from_rows(2, vec![[2, 3]]));
        db.insert("T", Relation::from_rows(2, vec![[3, 4]]));
        db.insert("U", Relation::from_rows(2, vec![[4, 99]]));
        db
    }

    #[test]
    fn detects_a_planted_cycle() {
        assert!(detect_four_cycle_fmm(&db_with_cycle()));
        assert!(detect_four_cycle_join(&db_with_cycle()));
    }

    #[test]
    fn rejects_when_no_cycle_exists() {
        assert!(!detect_four_cycle_fmm(&db_without_cycle()));
        assert!(!detect_four_cycle_join(&db_without_cycle()));
    }

    #[test]
    fn empty_relations_mean_no_cycle() {
        let mut db = db_with_cycle();
        db.insert("T", Relation::new(2));
        assert!(!detect_four_cycle_fmm(&db));
        assert!(!detect_four_cycle_join(&db));
    }

    #[test]
    fn fmm_and_join_detectors_agree_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(17);
        for round in 0..20 {
            let n = 8 + round % 5;
            let edges = 10 + 3 * round;
            let mut db = Database::new();
            for name in ["R", "S", "T", "U"] {
                db.insert(
                    name,
                    Relation::from_rows(
                        2,
                        (0..edges)
                            .map(|_| [rng.gen_range(0..n as u64), rng.gen_range(0..n as u64)]),
                    )
                    .deduped(),
                );
            }
            assert_eq!(detect_four_cycle_fmm(&db), detect_four_cycle_join(&db), "round {round}");
        }
    }
}
