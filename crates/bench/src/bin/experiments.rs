//! The experiment harness: regenerates every table and figure of the paper
//! (experiment index E1–E15; EXPERIMENTS.md at the workspace root holds
//! the recorded results, and PAPER.md's design summary maps the pipeline
//! the experiments exercise).
//!
//! ```text
//! cargo run --release -p panda-bench --bin experiments            # all experiments
//! cargo run --release -p panda-bench --bin experiments -- e4 e8   # a subset
//! ```

use panda_bench::{log_log_slope, render_table, time_it};
use panda_core::{
    faq, BinaryJoinPlan, DdrEvaluator, Engine, EvaluationStrategy, GenericJoin, Panda,
    PandaEvaluator, StaticTdPlan,
};
use panda_entropy::{
    agm_bound, ddr_polymatroid_bound, fhtw, omega_subw_square, polymatroid_bound, subw,
    StatisticsSet, MATRIX_MULT_OMEGA,
};
use panda_fmm::{detect_four_cycle_fmm, detect_four_cycle_join};
use panda_proof::{reset_drop_source, ProofSequence, TermIdentity};
use panda_query::{BagSelector, DisjunctiveRule, TreeDecomposition, Var, VarSet};
use panda_rational::Rat;
use panda_workloads::{
    double_star_db, erdos_renyi_db, figure2_db, four_cycle_boolean, four_cycle_full,
    four_cycle_projected, path_instance, s_full_statistics, s_square_statistics, triangle_query,
    zipf_graph_db,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let run = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    println!("panda-rs experiment harness — reproducing the paper's tables and figures\n");
    if run("e1") {
        e1_figure2();
    }
    if run("e14") {
        e14_figure1();
    }
    if run("e2") {
        e2_polymatroid_bound_full();
    }
    if run("e3") {
        e3_fhtw();
    }
    if run("e4") {
        e4_subw();
    }
    if run("e5") {
        e5_shannon_flow();
    }
    if run("e6") {
        e6_proof_sequence();
    }
    if run("e15") {
        e15_reset_lemma();
    }
    if run("e7") {
        e7_ddr_evaluation();
    }
    if run("e8") {
        e8_four_cycle_scaling();
    }
    if run("e9") {
        e9_agm_wcoj();
    }
    if run("e10") {
        e10_semirings();
    }
    if run("e11") {
        e11_lp_norms();
    }
    if run("e12") {
        e12_omega_subw();
    }
    if run("e13") {
        e13_yannakakis();
    }
}

fn header(id: &str, title: &str) {
    println!("==============================================================");
    println!("{id}: {title}");
    println!("==============================================================");
}

/// E1 — Figure 2: the example instance and the output of Q□^full.
fn e1_figure2() {
    header("E1", "Figure 2 — example instance and the output of Qfull");
    let db = figure2_db();
    let q = four_cycle_full();
    let out = GenericJoin::evaluate(&q, &db);
    let mut rows = Vec::new();
    for row in out.rel.canonical_rows() {
        rows.push(vec![
            row[0].to_string(),
            row[1].to_string(),
            row[2].to_string(),
            row[3].to_string(),
        ]);
    }
    println!("{}", render_table(&["X", "Y", "Z", "W"], &rows));
    println!(
        "output size = {} (paper: 3 tuples; letters p,q,i,j,k encoded as 101,102,201,202,203)\n",
        out.len()
    );
}

/// E14 — Figure 1: TD(Q□) consists of exactly the two decompositions T1, T2.
fn e14_figure1() {
    header("E14", "Figure 1 — the free-connex tree decompositions of Q□");
    let q = four_cycle_projected();
    let tds = TreeDecomposition::enumerate(&q);
    let rows: Vec<Vec<String>> = tds
        .iter()
        .enumerate()
        .map(|(i, td)| vec![format!("T{}", i + 1), td.display_with(&q)])
        .collect();
    println!("{}", render_table(&["TD", "bags"], &rows));
    println!("number of non-redundant free-connex TDs = {} (paper: 2)\n", tds.len());
}

/// E2 — Eq. (16)/(19): the polymatroid bound of Qfull under S_full.
fn e2_polymatroid_bound_full() {
    header("E2", "Eq. (19) — polymatroid bound of Qfull under S_full = {N, FD, deg ≤ C}");
    let q = four_cycle_full();
    let n: u64 = 1 << 20;
    let mut rows = Vec::new();
    for c_exp in [0u32, 5, 10, 15, 20] {
        let c = 1u64 << c_exp;
        let stats = s_full_statistics(n, c);
        let report = polymatroid_bound(q.all_vars(), q.all_vars(), &stats).unwrap();
        let paper_exponent = 1.5 + 0.5 * (c_exp as f64) / 20.0; // 3/2 + ½·log_N C
        rows.push(vec![
            format!("2^{c_exp}"),
            format!("{}", report.log_bound),
            format!("{:.4}", report.log_bound.to_f64()),
            format!("{paper_exponent:.4}"),
            format!("{:.3e}", report.tuple_bound()),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["C", "LP bound (exact)", "LP bound", "paper ineq. (3/2 + ½log_N C)", "tuples"],
            &rows
        )
    );
    println!("The LP bound is never above the paper's Shannon inequality (20), and both\ncoincide with the AGM bound 2 once C reaches N.\n");
}

/// E3 — Section 4.3: cost(T1) = cost(T2) = 2 and fhtw(Q□, S□) = 2.
fn e3_fhtw() {
    header("E3", "Section 4.3 — static plan costs and fhtw(Q□, S□)");
    let q = four_cycle_projected();
    let stats = s_square_statistics(1 << 20);
    let report = fhtw(&q, &stats).unwrap();
    let mut rows = Vec::new();
    for (td, cost, per_bag) in &report.per_td {
        let bags: Vec<String> = per_bag
            .iter()
            .map(|(b, r)| format!("{}:{}", b.display_with(q.var_names()), r.log_bound))
            .collect();
        rows.push(vec![td.display_with(&q), cost.to_string(), bags.join("  ")]);
    }
    println!("{}", render_table(&["TD", "cost", "per-bag polymatroid bounds"], &rows));
    println!("fhtw(Q□, S□) = {} (paper: 2)\n", report.value);
}

/// E4 — Eq. (44)/(45): the four bag-selector LPs and subw(Q□, S□) = 3/2.
fn e4_subw() {
    header("E4", "Eq. (44) — the four bag-selector DDR bounds and subw(Q□, S□)");
    let q = four_cycle_projected();
    let stats = s_square_statistics(1 << 20);
    let report = subw(&q, &stats).unwrap();
    let mut rows = Vec::new();
    for sel in &report.per_selector {
        let bags: Vec<String> =
            sel.selector.bags().iter().map(|b| b.display_with(q.var_names())).collect();
        rows.push(vec![bags.join(" ∨ "), sel.report.log_bound.to_string()]);
    }
    println!("{}", render_table(&["bag selector (DDR head)", "max_h min_B h(B)"], &rows));
    println!(
        "subw(Q□, S□) = {} (paper: 3/2);  fhtw = {}\n",
        report.value,
        fhtw(&q, &stats).unwrap().value
    );
}

/// E5 — Eq. (55): the Shannon-flow inequality behind the 3/2 bound.
fn e5_shannon_flow() {
    header("E5", "Eq. (55) — the Shannon-flow dual certificate of the DDR bound");
    let q = four_cycle_projected();
    let stats = s_square_statistics(1 << 20);
    let xyz = VarSet::from_iter([Var(0), Var(1), Var(2)]);
    let yzw = VarSet::from_iter([Var(1), Var(2), Var(3)]);
    let report = ddr_polymatroid_bound(&[xyz, yzw], q.all_vars(), &stats).unwrap();
    let flow = &report.flow;
    println!("inequality: {}", flow.display_with(q.var_names()));
    println!(
        "λ-total = {}   Σw·log_N N_c = {}   verified: {:?}",
        flow.lambda_total(),
        flow.log_bound(),
        flow.verify_identity().is_ok()
    );
    let mut rows = Vec::new();
    for (stat, w) in &flow.sources {
        rows.push(vec![stat.label.clone(), w.to_string()]);
    }
    println!("{}", render_table(&["statistic", "weight w"], &rows));
    println!("(paper: λ1 = λ2 = 1/2, w = (1/2, 1/2, 1/2, 0))\n");
}

/// E6 — Table 1: the proof sequence of Eq. (62)/(63).
fn e6_proof_sequence() {
    header("E6", "Table 1 — proof sequence for h(XYZ) + h(YZW) ≤ h(XY) + h(YZ) + h(ZW)");
    let q = four_cycle_projected();
    let stats = s_square_statistics(1 << 20);
    let xyz = VarSet::from_iter([Var(0), Var(1), Var(2)]);
    let yzw = VarSet::from_iter([Var(1), Var(2), Var(3)]);
    let report = ddr_polymatroid_bound(&[xyz, yzw], q.all_vars(), &stats).unwrap();
    let integral = report.flow.to_integral().unwrap();
    let identity = TermIdentity::from_flow(&integral);
    let seq = ProofSequence::derive(&identity).unwrap();
    println!("{}", seq.display_with(q.var_names()));
    let (d, c, m, s) = seq.step_counts();
    println!(
        "\n{} steps: {d} decomposition(s), {c} composition(s), {m} monotonicity(ies), {s} submodularity(ies); replay check: {:?}\n",
        seq.len(),
        seq.verify().is_ok()
    );
}

/// E15 — Section 7.2: the Reset Lemma example.
fn e15_reset_lemma() {
    header("E15", "Section 7.2 — Reset Lemma: dropping h(XY) from Eq. (62)");
    let q = four_cycle_projected();
    let stats = s_square_statistics(1 << 20);
    let xyz = VarSet::from_iter([Var(0), Var(1), Var(2)]);
    let yzw = VarSet::from_iter([Var(1), Var(2), Var(3)]);
    let report = ddr_polymatroid_bound(&[xyz, yzw], q.all_vars(), &stats).unwrap();
    let identity = TermIdentity::from_flow(&report.flow.to_integral().unwrap());
    for drop in
        identity.sources.keys().filter(|t| t.is_unconditional()).map(|t| t.subj).collect::<Vec<_>>()
    {
        let outcome = reset_drop_source(&identity, drop).unwrap();
        println!(
            "drop h{}  ⇒  lost target: {}   remaining identity valid: {:?}",
            drop.display_with(q.var_names()),
            outcome
                .lost_target
                .map_or("none".to_string(), |t| format!("h{}", t.display_with(q.var_names()))),
            outcome.identity.verify().is_ok()
        );
    }
    println!("(paper: dropping h(XY) loses only h(XYZ), never both targets)\n");
}

/// E7 — Eq. (61) / Table 2: DDR evaluation with heavy/light partitioning.
fn e7_ddr_evaluation() {
    header("E7", "Eq. (61)/Table 2 — evaluating the DDR A11(X,Y,Z) ∨ A21(Y,Z,W)");
    let q = four_cycle_projected();
    let selector = BagSelector::new(vec![
        VarSet::from_iter([Var(0), Var(1), Var(2)]),
        VarSet::from_iter([Var(1), Var(2), Var(3)]),
    ]);
    let rule = DisjunctiveRule::for_bag_selector(&q, &selector);
    let mut rows = Vec::new();
    for half in [64u64, 128, 256, 512] {
        let db = double_star_db(half);
        let n = db.relation("R").unwrap().len() as f64;
        let stats = StatisticsSet::measure(&q, &db);
        let evaluator = DdrEvaluator::plan(&rule, &stats).unwrap();
        let (model, secs) = time_it(|| evaluator.evaluate(&db, Engine::Sequential));
        rows.push(vec![
            format!("{}", n as u64),
            format!("{}", model.max_target_size()),
            format!("{:.0}", n.powf(1.5)),
            format!("{:.0}", n * n / 4.0),
            format!("{secs:.4}s"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["N = |R|", "max target size", "N^1.5", "single-TD worst case ~N²/4", "time"],
            &rows
        )
    );
    println!("The model size tracks N^1.5, far below the quadratic single-decomposition cost.\n");
}

/// E8 — Sections 5.1/8.2: runtime scaling of adaptive vs static vs binary
/// plans on the fhtw-hard instance.
fn e8_four_cycle_scaling() {
    header("E8", "Sections 5.1/8.2 — adaptive O(N^1.5) vs single-TD Ω(N²) on the double star");
    let q = four_cycle_projected();
    let stats = s_square_statistics(1 << 20);
    let fhtw_report = fhtw(&q, &stats).unwrap();
    let adaptive = PandaEvaluator::from_reports(&q, &subw(&q, &stats).unwrap(), &fhtw_report);
    let static_plan = StaticTdPlan::new(fhtw_report.best_td().clone());
    let binary = BinaryJoinPlan::new();
    let mut adaptive_pts = Vec::new();
    let mut static_pts = Vec::new();
    let mut binary_pts = Vec::new();
    let mut rows = Vec::new();
    for half in [128u64, 256, 512, 1024, 2048] {
        let db = double_star_db(half);
        let n = db.relation("R").unwrap().len() as f64;
        let (out_a, ta) = time_it(|| adaptive.evaluate(&q, &db, Engine::Sequential));
        let (out_s, ts) = time_it(|| static_plan.evaluate(&q, &db, Engine::Sequential));
        let (out_b, tb) = time_it(|| binary.evaluate(&q, &db));
        assert_eq!(out_a.rel.canonical_rows(), out_s.rel.canonical_rows());
        assert_eq!(out_a.rel.canonical_rows(), out_b.rel.canonical_rows());
        adaptive_pts.push((n, ta));
        static_pts.push((n, ts));
        binary_pts.push((n, tb));
        rows.push(vec![
            format!("{}", n as u64),
            format!("{}", out_a.len()),
            format!("{ta:.4}"),
            format!("{ts:.4}"),
            format!("{tb:.4}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["N", "|output|", "adaptive (s)", "static fhtw-TD (s)", "binary joins (s)"],
            &rows
        )
    );
    println!(
        "fitted log-log slopes:  adaptive ≈ {:.2}   static ≈ {:.2}   binary ≈ {:.2}",
        log_log_slope(&adaptive_pts),
        log_log_slope(&static_pts),
        log_log_slope(&binary_pts)
    );
    println!("(paper: the adaptive plan runs in ~N^1.5, single-TD plans in ~N².)\n");
}

/// E9 — Section 2.1: AGM bound + worst-case-optimal joins on the triangle.
fn e9_agm_wcoj() {
    header("E9", "Section 2.1 — AGM bound and worst-case-optimal join (triangle query)");
    let q = triangle_query();
    let mut rows = Vec::new();
    for (label, db) in [
        ("Erdős–Rényi n=300", erdos_renyi_db(&["R", "S", "T"], 300, 3000, 1)),
        ("Erdős–Rényi n=150", erdos_renyi_db(&["R", "S", "T"], 150, 3000, 2)),
        ("Zipf-skewed", zipf_graph_db(&["R", "S", "T"], 300, 3000, 1.1, 3)),
    ] {
        let n = db.relation("R").unwrap().len() as u64;
        let report = agm_bound(&q, &[("R", n), ("S", n), ("T", n)], n).unwrap();
        let (out, secs) = time_it(|| GenericJoin::evaluate(&q, &db));
        let (_, secs_binary) = time_it(|| BinaryJoinPlan::new().evaluate(&q, &db));
        rows.push(vec![
            label.to_string(),
            n.to_string(),
            format!("{}", out.len()),
            format!("{:.0}", report.tuple_bound()),
            format!("{secs:.4}"),
            format!("{secs_binary:.4}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["instance", "N", "|triangles|", "AGM bound N^1.5", "WCOJ (s)", "binary (s)"],
            &rows
        )
    );
    println!("The output never exceeds the AGM bound and the WCOJ never enumerates more\nthan that many partial assignments.\n");
}

/// E10 — Section 9.1: FAQ / semiring aggregates.
fn e10_semirings() {
    header("E10", "Section 9.1 — FAQ aggregates over semirings");
    let boolean = four_cycle_boolean();
    let db = erdos_renyi_db(&["R", "S", "T", "U"], 60, 700, 7);
    let count = faq::count_assignments(&boolean, &db);
    let sat = faq::is_satisfiable(&boolean, &db);
    let min_w = faq::min_weight(&boolean, &db, &|_, row| (row[0] + row[1]) as i64);
    assert_eq!(sat, count > 0, "the 4-cycle is satisfiable iff it has an assignment");
    println!(
        "Boolean 4-cycle on an Erdős–Rényi instance (N ≈ {}):",
        db.relation("R").unwrap().len()
    );
    println!("  #CQ  (counting semiring, ℕ,+,×)   = {count}");
    println!("  SAT  (Boolean semiring, ∨,∧)      = {sat}");
    println!("  min-weight cycle (min,+ semiring) = {min_w:?}");
    let path = panda_query::parse_query("P() :- R(A,B), S(B,C), T(C,D)").unwrap();
    let path_db = path_instance(2000, 4, 11);
    let (cnt, secs) = time_it(|| faq::count_assignments(&path, &path_db));
    let full = GenericJoin::evaluate(&path.with_free(path.all_vars()), &path_db);
    assert_eq!(cnt, full.len() as u64, "the join-tree count is the full join's size");
    println!(
        "acyclic 3-path #CQ over N = {}: {} assignments in {:.4}s (join-tree DP)",
        path_db.total_tuples(),
        cnt,
        secs
    );
    println!("(Counting uses a non-idempotent semiring, so it runs on a single TD — the\npaper's open problem is whether subw time is achievable for #CQ.)\n");
}

/// E11 — Section 9.2: ℓ_k-norm constraints tighten the bound.
fn e11_lp_norms() {
    header("E11", "Section 9.2 — ℓ2-norm degree-sequence constraints");
    let q = panda_query::parse_query("P(X,Y,Z) :- R(X,Y), S(Y,Z)").unwrap();
    let n: u64 = 1 << 20;
    let x = q.var_by_name("X").unwrap();
    let y = q.var_by_name("Y").unwrap();
    let z = q.var_by_name("Z").unwrap();
    let mut rows = Vec::new();
    for l2_exp in [20u32, 15, 10, 5] {
        let l2 = 1u64 << l2_exp;
        let mut stats = StatisticsSet::identical_cardinalities(&q, n);
        stats.add_lp_norm("R", VarSet::singleton(y), VarSet::singleton(x), 2, l2);
        stats.add_lp_norm("S", VarSet::singleton(y), VarSet::singleton(z), 2, l2);
        let bound = polymatroid_bound(q.all_vars(), q.all_vars(), &stats).unwrap();
        rows.push(vec![
            format!("2^{l2_exp}"),
            bound.log_bound.to_string(),
            format!("{:.3}", bound.log_bound.to_f64()),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["ℓ2 bound on deg(·|Y)", "output exponent (exact)", "output exponent"],
            &rows
        )
    );
    println!("With only cardinalities the bound is N²; Cauchy–Schwarz-style ℓ2 constraints\npull it down towards N (exponent 1).\n");
}

/// E12 — Section 9.3: the ω-submodular width and FMM-based detection.
fn e12_omega_subw() {
    header("E12", "Section 9.3 — ω-submodular width of the Boolean 4-cycle and FMM detection");
    let mut rows = Vec::new();
    for (label, omega) in [
        ("ω = 3 (naive)", Rat::from_int(3)),
        ("ω = 2.807 (Strassen)", Rat::new(2807, 1000)),
        ("ω = 2.371552 (paper)", MATRIX_MULT_OMEGA),
        ("ω = 2 (lower limit)", Rat::from_int(2)),
    ] {
        let w = omega_subw_square(omega);
        rows.push(vec![label.to_string(), w.to_string(), format!("{:.5}", w.to_f64())]);
    }
    println!(
        "{}",
        render_table(&["matrix-multiplication exponent", "ω-subw(Q□^bool) exact", "value"], &rows)
    );
    println!("combinatorial subw = 3/2; the crossover is at ω = 5/2 (Section 9.3).");
    let mut rows = Vec::new();
    for n in [200u64, 400, 800] {
        let db = erdos_renyi_db(&["R", "S", "T", "U"], n, (n * 4) as usize, 13);
        let (via_fmm, t_fmm) = time_it(|| detect_four_cycle_fmm(&db));
        let (via_join, t_join) = time_it(|| detect_four_cycle_join(&db));
        assert_eq!(via_fmm, via_join);
        rows.push(vec![
            db.relation("R").unwrap().len().to_string(),
            via_fmm.to_string(),
            format!("{t_fmm:.4}"),
            format!("{t_join:.4}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["N", "cycle found", "matrix-product detection (s)", "hash-join detection (s)"],
            &rows
        )
    );
    println!();
}

/// E13 — Yannakakis O(N + OUT) on a free-connex acyclic query.
fn e13_yannakakis() {
    header("E13", "Section 3.4 — Yannakakis runs in O(N + OUT) on acyclic queries");
    let q = panda_query::parse_query("P(A,B,C,D) :- R(A,B), S(B,C), T(C,D)").unwrap();
    let panda = Panda::new(q.clone());
    let mut rows = Vec::new();
    let mut pts = Vec::new();
    for n in [2_000u64, 4_000, 8_000, 16_000] {
        let db = path_instance(n, 4, 3);
        let (out, secs) = time_it(|| panda.evaluate_with(&db, EvaluationStrategy::Yannakakis));
        let total = db.total_tuples() + out.len();
        pts.push((total as f64, secs));
        rows.push(vec![db.total_tuples().to_string(), out.len().to_string(), format!("{secs:.4}")]);
    }
    println!("{}", render_table(&["N (input tuples)", "OUT", "Yannakakis (s)"], &rows));
    println!("fitted slope of time vs (N + OUT) ≈ {:.2} (linear ⇒ ≈ 1.0)\n", log_log_slope(&pts));
}
