//! The paper's headline scenario: on the "double star" instance every
//! single-tree-decomposition plan materialises Ω(N²) intermediate tuples,
//! while the adaptive (submodular-width) plan partitions one relation by
//! degree and finishes in ~N^{3/2}.
//!
//! ```text
//! cargo run --release --example four_cycle_adaptive
//! ```

use std::time::Instant;

use panda::core::{BinaryJoinPlan, Engine, PandaEvaluator, StaticTdPlan};
use panda::workloads::{double_star_db, four_cycle_projected, s_square_statistics};

fn main() {
    let query = four_cycle_projected();
    let stats = s_square_statistics(1 << 20);

    let fhtw = panda::entropy::fhtw(&query, &stats).expect("fhtw is finite");
    let subw = panda::entropy::subw(&query, &stats).expect("subw is finite");
    let adaptive = PandaEvaluator::from_reports(&query, &subw, &fhtw);
    let static_plan = StaticTdPlan::new(fhtw.best_td().clone());
    println!("tree decompositions: {}", adaptive.tds.len());
    for spec in &adaptive.partitions {
        println!(
            "proof-sequence partition: relation {} by degree of {:?} given {:?}",
            spec.relation, spec.value_vars, spec.group_vars
        );
    }

    println!(
        "\n{:>8} {:>10} {:>14} {:>14} {:>14}",
        "N", "|output|", "adaptive", "static TD", "binary joins"
    );
    for half in [256u64, 512, 1024, 2048] {
        let db = double_star_db(half);
        let n = db.relation("R").unwrap().len();

        let t = Instant::now();
        let a = adaptive.evaluate(&query, &db, Engine::Sequential);
        let adaptive_time = t.elapsed();

        let t = Instant::now();
        let s = static_plan.evaluate(&query, &db, Engine::Sequential);
        let static_time = t.elapsed();

        let t = Instant::now();
        let b = BinaryJoinPlan::new().evaluate(&query, &db);
        let binary_time = t.elapsed();

        assert_eq!(a.rel.canonical_rows(), s.rel.canonical_rows());
        assert_eq!(a.rel.canonical_rows(), b.rel.canonical_rows());
        println!(
            "{:>8} {:>10} {:>12.1?} {:>12.1?} {:>12.1?}",
            n,
            a.len(),
            adaptive_time,
            static_time,
            binary_time
        );
    }
    println!("\nThe adaptive plan's advantage grows with N: it is the O(N^subw) = O(N^1.5)");
    println!("behaviour of PANDA, versus the Ω(N²) of any single tree decomposition.");
}
