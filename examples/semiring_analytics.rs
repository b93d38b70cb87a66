//! FAQ-style analytics over semirings (Section 9.1 of the paper): the same
//! conjunctive body answers counting, reachability and minimum-weight
//! questions by switching the semiring.
//!
//! ```text
//! cargo run --release --example semiring_analytics
//! ```

use panda::core::faq;
use panda::prelude::*;
use panda::workloads::{erdos_renyi_db, four_cycle_boolean, path_instance};

fn main() {
    // An acyclic "supply chain": supplier → warehouse → store → customer.
    let chain = parse_query("Q() :- R(A,B), S(B,C), T(C,D)").unwrap();
    let db = path_instance(5_000, 5, 1);
    println!("acyclic chain body: {chain}");
    println!("  input tuples          = {}", db.total_tuples());
    println!("  #assignments (ℕ,+,×)  = {}", faq::count_assignments(&chain, &db));
    println!("  satisfiable (𝔹,∨,∧)   = {}", faq::is_satisfiable(&chain, &db));
    // Minimum total "shipping cost" where each hop (a, b) costs |a − b| mod 17.
    let cost = |_: &str, row: &[u64]| (row[0].abs_diff(row[1]) % 17) as i64;
    println!("  min total cost (min,+) = {:?}", faq::min_weight(&chain, &db, &cost));

    // The cyclic 4-cycle body: every semiring enumerates the full join.
    let cycle = four_cycle_boolean();
    let graph = erdos_renyi_db(&["R", "S", "T", "U"], 80, 900, 3);
    println!("\ncyclic body: {cycle}");
    println!("  #4-cycle assignments   = {}", faq::count_assignments(&cycle, &graph));
    println!("  any 4-cycle at all     = {}", faq::is_satisfiable(&cycle, &graph));
    println!(
        "  lightest 4-cycle       = {:?}",
        faq::min_weight(&cycle, &graph, &|_, row| (row[0] + row[1]) as i64)
    );
}
