//! EXPLAIN: observable strategy selection, reason codes, and budget
//! downgrades.
//!
//! ```text
//! cargo run --release --example explain
//! ```
//!
//! The output is **deterministic and byte-stable**: CI runs this example
//! twice and diffs the two outputs with each other and with the committed
//! `examples/explain.expected`, so every line printed here must come from
//! the deterministic planner (no clocks, no addresses, no hash-map
//! iteration order).  A change that means to alter the output regenerates
//! that file with the command above.

use panda::prelude::*;

fn main() {
    // 1. A free-connex acyclic query: the acyclic fast path fires and no
    //    LP is ever solved.
    let query = parse_query("Q(A,B) :- R(A,B), S(B,C)").unwrap();
    let mut db = Database::new();
    db.insert("R", panda::relation::Relation::from_rows(2, vec![[1, 2], [3, 4]]));
    db.insert("S", panda::relation::Relation::from_rows(2, vec![[2, 5], [4, 6]]));
    println!("== acyclic fast path ==");
    print!("{}", Panda::new(query).explain(&db).unwrap());

    // 2. The paper's projected 4-cycle under identical cardinalities:
    //    subw = 3/2 < 2 = fhtw, so the gap rule picks the adaptive plan
    //    and every bag selector's bound is certified by a Shannon flow.
    let query = panda::workloads::four_cycle_projected();
    let stats = StatisticsSet::identical_cardinalities(&query, 1 << 12);
    let db = panda::workloads::double_star_db(16);
    println!();
    println!("== subw/fhtw gap: the adaptive plan ==");
    print!("{}", Panda::new(query.clone()).with_statistics(stats.clone()).explain(&db).unwrap());

    // 3. The same query under a starvation-level LP pivot budget: the
    //    budget dies during the subw computation, and the selection
    //    fail-soft downgrades to the single-TD plan fhtw already paid for,
    //    whose bag bounds keep the certificates that chain verified.
    //    The pivot threshold is measured (not hard-coded) so the output
    //    stays stable across solver changes.
    let tds = TreeDecomposition::enumerate(&query);
    let mut probe = panda::entropy::PivotBudget::unlimited();
    panda::entropy::fhtw_with_tds_budgeted(&query, &tds, &stats, &mut probe).unwrap();
    let budgets = Budgets::unlimited().with_lp_pivot_budget(probe.used() + 1);
    println!();
    println!("== LP budget exhausted mid-subw: fail-soft downgrade ==");
    print!(
        "{}",
        Panda::new(query.clone())
            .with_statistics(stats.clone())
            .with_budgets(budgets)
            .explain(&db)
            .unwrap()
    );

    // 4. A branch budget of 1 on a skewed instance: the adaptive plan's
    //    degree branches cannot fit, so execution downgrades to the
    //    binary-join baseline (and says so).
    let budgets = Budgets::unlimited().with_branch_budget(1);
    println!();
    println!("== branch budget exceeded: downgrade to binary join ==");
    print!(
        "{}",
        Panda::new(query.clone())
            .with_statistics(stats)
            .with_budgets(budgets)
            .explain(&db)
            .unwrap()
    );

    // Whatever the budgets forced, the answers are identical.
    let reference = Panda::new(query.clone()).evaluate(&db);
    let downgraded = Panda::new(query.clone()).with_budgets(budgets).evaluate(&db);
    let order = query.free_vars().to_vec();
    assert_eq!(downgraded.canonical_rows_ordered(&order), reference.canonical_rows_ordered(&order),);
    println!();
    println!(
        "downgraded and reference plans agree on all {} output rows",
        reference.canonical_rows_ordered(&order).len()
    );
}
