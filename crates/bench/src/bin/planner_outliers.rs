//! The planner's outliers: the queries whose full `subw` chain the served
//! benchmark leaves out of its loop, measured chain by chain, then the
//! single largest Γ₅ LP.  The 5-cycle and the 4-path each solve 21
//! selector LPs, the minimal transversals of their 5 TDs' bag sets (Eq. 41),
//! and about 1 000–1 200 pivots over both chains; the 5-path solves 174 Γ₆
//! selector LPs over 14 TDs, which takes nearly all of the run.
//!
//! ```text
//! cargo run --release -p panda-bench --bin planner_outliers   # about 20 seconds
//! ```
//!
//! All queries run over the same random instance (`erdos_renyi_db` with 30
//! vertices, 120 edges per relation, seed 7).  Each row is one
//! [`plan_chains`] call: statistics measured, tree decompositions
//! enumerated, then the `fhtw` and `subw` chains under one unlimited pivot
//! budget.  The `decision` columns are what a cold `Auto` plan pays instead:
//! the `fhtw` chain's pivots plus those of deciding `subw < fhtw`, and the
//! seconds of the decision alone.  The last column is the LP kernel's
//! throughput over both chains: `pivots / (fhtw s + subw s)`.

use panda_bench::{plan_chains, render_table, time_it};
use panda_entropy::polymatroid_bound;
use panda_query::parse_query;
use panda_workloads::{erdos_renyi_db, five_cycle_projected, s_pentagon_statistics};

fn main() {
    let outliers = [
        ("5-cycle Q(A,B)", five_cycle_projected(), vec!["R", "S", "T", "U", "V"]),
        (
            "4-path Q(A,E)",
            parse_query("Q(A,E) :- R(A,B), S(B,C), T(C,D), U(D,E)").expect("valid query"),
            vec!["R", "S", "T", "U"],
        ),
        (
            "5-path Q(A,F)",
            parse_query("Q(A,F) :- R(A,B), S(B,C), T(C,D), U(D,E), V(E,F)").expect("valid query"),
            vec!["R", "S", "T", "U", "V"],
        ),
    ];
    let rows: Vec<Vec<String>> = outliers
        .iter()
        .map(|(name, query, relations)| {
            let row = plan_chains(query, &erdos_renyi_db(relations, 30, 120, 7));
            vec![
                (*name).to_string(),
                row.tds.to_string(),
                row.selector_lps.to_string(),
                row.pivots.to_string(),
                row.fhtw.to_string(),
                row.subw.to_string(),
                format!("{:.3}", row.fhtw_s),
                format!("{:.3}", row.subw_s),
                row.decision_pivots.to_string(),
                format!("{:.3}", row.decision_s),
                format!("{:.0}", row.pivots as f64 / (row.fhtw_s + row.subw_s)),
            ]
        })
        .collect();
    println!("Cold planning outliers (erdos_renyi_db(_, 30, 120, 7))\n");
    print!(
        "{}",
        render_table(
            &[
                "query",
                "TDs",
                "selector LPs",
                "pivots",
                "fhtw",
                "subw",
                "fhtw s",
                "subw s",
                "decision pivots",
                "decision s",
                "pivots/s",
            ],
            &rows,
        )
    );

    let query = five_cycle_projected();
    let stats = s_pentagon_statistics(1 << 20);
    let (report, secs) = time_it(|| {
        polymatroid_bound(query.all_vars(), query.all_vars(), &stats).expect("Γ₅ bound")
    });
    println!(
        "\nΓ₅ full-target polymatroid bound (5-cycle, N = 2^20): exponent {}, {secs:.3} s",
        report.log_bound
    );
}
