//! End-to-end differential tests: every evaluation strategy must agree with
//! a reference worst-case-optimal join on randomized instances, and the
//! DDR evaluator must always produce valid models.

use panda::core::faq;
use panda::core::yannakakis::yannakakis_profiled;
use panda::core::DdrEvaluator;
use panda::prelude::*;
use panda::workloads::{double_star_db, erdos_renyi_db, four_cycle_projected, zipf_graph_db};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_db_for(query: &ConjunctiveQuery, n: u64, tuples: usize, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    for atom in query.atoms() {
        if db.relation(&atom.relation).is_some() {
            continue;
        }
        let rel = Relation::from_rows(
            atom.arity(),
            (0..tuples).map(|_| (0..atom.arity()).map(|_| rng.gen_range(0..n)).collect::<Vec<_>>()),
        )
        .deduped();
        db.insert(atom.relation.clone(), rel);
    }
    db
}

#[test]
fn differential_testing_across_strategies_and_queries() {
    let queries = [
        "Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)",
        "Q(X) :- R(X,Y), S(Y,Z), T(Z,X)",
        "Q(A,D) :- R(A,B), S(B,C), T(C,D)",
        "Q() :- R(A,B), S(B,C), T(C,A)",
        "Q(A,B,C) :- R(A,B), S(B,C), T(C,A)",
        "Q(X,Y) :- R(X,Z), S(Z,Y)",
    ];
    for (qi, text) in queries.iter().enumerate() {
        let q = parse_query(text).unwrap();
        for seed in 0..3u64 {
            let db = random_db_for(&q, 8, 45, seed * 31 + qi as u64);
            let panda = Panda::new(q.clone());
            let order: Vec<Var> = q.free_vars().to_vec();
            let reference = panda
                .evaluate_with(&db, EvaluationStrategy::GenericJoin)
                .canonical_rows_ordered(&order);
            for strategy in [
                EvaluationStrategy::Auto,
                EvaluationStrategy::StaticTd,
                EvaluationStrategy::Adaptive,
                EvaluationStrategy::BinaryJoin,
            ] {
                let got = panda.evaluate_with(&db, strategy).canonical_rows_ordered(&order);
                assert_eq!(got, reference, "query `{text}`, seed {seed}, {strategy:?}");
            }
        }
    }
}

#[test]
fn ddr_models_are_valid_on_random_and_skewed_instances() {
    let q = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
    let tds = TreeDecomposition::enumerate(&q);
    let selectors = BagSelector::enumerate(&tds);
    for (i, db) in [
        erdos_renyi_db(&["R", "S", "T", "U"], 15, 90, 5),
        zipf_graph_db(&["R", "S", "T", "U"], 30, 150, 1.4, 6),
    ]
    .iter()
    .enumerate()
    {
        let stats = StatisticsSet::measure(&q, db);
        for selector in &selectors {
            let rule = DisjunctiveRule::for_bag_selector(&q, selector);
            let evaluator = DdrEvaluator::plan(&rule, &stats).unwrap();
            let model = evaluator.evaluate(db, Engine::Sequential);
            assert!(model.is_valid_model(&rule, db), "instance {i}, selector {selector:?}");
        }
    }
}

/// FNV-1a over a target's sorted rows: order-free, so it pins the model's
/// contents and not how they were assembled.
fn sorted_rows_checksum(rel: &VarRelation) -> u64 {
    rel.rel
        .canonical_rows()
        .iter()
        .flatten()
        .fold(0xcbf2_9ce4_8422_2325, |h, &v| (h ^ v).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The DDR models of E7's rule on two double stars, and of every 4-cycle
/// bag selector's rule on the two instances above: each target's exact size
/// and the checksum of its sorted rows.
#[test]
fn ddr_models_are_pinned_target_by_target() {
    let q = four_cycle_projected();
    let tds = TreeDecomposition::enumerate(&q);
    let e7 = BagSelector::new(vec![
        VarSet::from_iter([Var(0), Var(1), Var(2)]),
        VarSet::from_iter([Var(1), Var(2), Var(3)]),
    ]);
    let mut cases: Vec<(String, DisjunctiveRule, Database)> = [64, 128]
        .into_iter()
        .map(|half| {
            let rule = DisjunctiveRule::for_bag_selector(&q, &e7);
            (format!("e7/double_star({half})"), rule, double_star_db(half))
        })
        .collect();
    for (label, db) in [
        ("erdos_renyi", erdos_renyi_db(&["R", "S", "T", "U"], 15, 90, 5)),
        ("zipf", zipf_graph_db(&["R", "S", "T", "U"], 30, 150, 1.4, 6)),
    ] {
        for (i, selector) in BagSelector::enumerate(&tds).iter().enumerate() {
            let rule = DisjunctiveRule::for_bag_selector(&q, selector);
            cases.push((format!("{label}/selector {i}"), rule, db.clone()));
        }
    }
    let got: Vec<(String, Vec<(usize, u64)>)> = cases
        .iter()
        .map(|(label, rule, db)| {
            let stats = StatisticsSet::measure(&q, db);
            let model = DdrEvaluator::plan(rule, &stats).unwrap().evaluate(db, Engine::Sequential);
            assert!(model.is_valid_model(rule, db), "{label}");
            let targets =
                model.targets.iter().map(|(_, r)| (r.len(), sorted_rows_checksum(r))).collect();
            (label.clone(), targets)
        })
        .collect();
    // An empty target's checksum is the FNV offset basis.
    let expected: Vec<(&str, Vec<(usize, u64)>)> = vec![
        ("e7/double_star(64)", vec![(128, 5652449959146753317), (64, 14760202119951619621)]),
        ("e7/double_star(128)", vec![(256, 7050867232851947813), (128, 2254223715265979685)]),
        ("erdos_renyi/selector 0", vec![(184, 8244432398740674093), (164, 6231359118662866241)]),
        ("erdos_renyi/selector 1", vec![(353, 13555067106180836713), (14, 12660131559298234176)]),
        ("erdos_renyi/selector 2", vec![(366, 5911677642712166642), (0, 14695981039346656037)]),
        ("erdos_renyi/selector 3", vec![(0, 14695981039346656037), (414, 2649021852700543554)]),
        ("zipf/selector 0", vec![(112, 14192245943651443414), (220, 763677358414232275)]),
        ("zipf/selector 1", vec![(0, 14695981039346656037), (400, 198870467951962025)]),
        ("zipf/selector 2", vec![(135, 14346126771826911578), (151, 13872927544441882030)]),
        ("zipf/selector 3", vec![(254, 15525252566167469659), (57, 4988230695661410858)]),
    ];
    let got: Vec<(&str, Vec<(usize, u64)>)> =
        got.iter().map(|(label, targets)| (label.as_str(), targets.clone())).collect();
    assert_eq!(got, expected);
}

/// The bags of one branch under `td`, built as the executor builds them:
/// every atom joins the first bag containing it (Eq. 13), and each
/// non-empty bag is the worst-case-optimal join of its atoms.
fn branch_bags(q: &ConjunctiveQuery, db: &Database, td: &TreeDecomposition) -> Vec<VarRelation> {
    let inputs = VarRelation::bind_all(q, db);
    let mut assigned: Vec<Vec<VarRelation>> = vec![Vec::new(); td.num_bags()];
    for (atom, input) in q.atoms().iter().zip(inputs) {
        let bag = td.bags().iter().position(|b| atom.var_set().is_subset_of(*b)).unwrap();
        assigned[bag].push(input);
    }
    assigned
        .into_iter()
        .filter(|atoms| !atoms.is_empty())
        .map(|atoms| {
            let vars = atoms.iter().fold(VarSet::EMPTY, |acc, r| acc.union(r.var_set()));
            GenericJoin::new(vars).join(&atoms, &vars.to_vec())
        })
        .collect()
}

/// The Yannakakis tail of the adaptive plan on the double star (E8's
/// instance, `N = 2·half` rows a relation): the degree branches whose bags
/// are non-empty, each with the rows its assembly joined in total and at
/// most.  Each joins `half` rows, the size of its answer.  Joining first
/// and projecting after builds `half²` rows in both branches.
#[test]
fn adaptive_branches_on_the_double_star_assemble_in_linear_rows() {
    let q = four_cycle_projected();
    for half in [64u64, 512] {
        let db = double_star_db(half);
        let stats = StatisticsSet::measure(&q, &db);
        let (fhtw, subw) = (fhtw(&q, &stats).unwrap(), subw(&q, &stats).unwrap());
        let evaluator = PandaEvaluator::from_reports(&q, &subw, &fhtw);
        let mut answer = Relation::new(2);
        let mut assembled = Vec::new();
        for (i, branch) in evaluator.build_branches(&q, &db).iter().enumerate() {
            let bags = branch_bags(&q, branch, &evaluator.choose_td_for(&q, branch));
            let (out, profile) = yannakakis_profiled(&bags, q.free_vars()).unwrap();
            answer.extend_from(&out.rel);
            if profile.assembly_rows > 0 {
                assembled.push((i, profile.assembly_rows, profile.assembly_rows_max));
            }
        }
        let h = half as usize;
        assert_eq!(assembled, [(4, h, h), (11, h, h)], "half {half}");
        let expected = Panda::new(q.clone()).evaluate_with(&db, EvaluationStrategy::Adaptive);
        assert_eq!(answer.canonical_rows(), expected.rel.canonical_rows(), "half {half}");
        assert_eq!(expected.len(), 2 * h, "half {half}");
    }
}

#[test]
fn counting_matches_full_enumeration_on_random_instances() {
    // The triangle enumerates its full join; the 3-path runs the join-tree
    // messages.
    for body in ["Q() :- R(X,Y), S(Y,Z), T(Z,X)", "Q() :- R(X,Y), S(Y,Z), T(Z,W)"] {
        let q = parse_query(body).unwrap();
        let full = q.with_free(q.all_vars());
        let enumerate = |db: &Database| {
            Panda::new(full.clone()).evaluate_with(db, EvaluationStrategy::GenericJoin).len() as u64
        };
        for seed in 0..4u64 {
            let db = random_db_for(&q, 7, 40, seed);
            assert_eq!(faq::count_assignments(&q, &db), enumerate(&db), "{body}, seed {seed}");
        }
        // Every row stored twice: an assignment still counts once.
        let mut db = random_db_for(&q, 7, 40, 4);
        for atom in q.atoms() {
            let mut doubled = db.relation(&atom.relation).unwrap().clone();
            doubled.extend_from(db.relation(&atom.relation).unwrap());
            db.insert(atom.relation.clone(), doubled);
        }
        assert_eq!(faq::count_assignments(&q, &db), enumerate(&db), "{body}, duplicated rows");
    }
}

#[test]
fn plan_reports_are_consistent_with_theory() {
    let q = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
    let db = erdos_renyi_db(&["R", "S", "T", "U"], 12, 70, 9);
    let report = Panda::new(q.clone())
        .with_statistics(StatisticsSet::identical_cardinalities(&q, 1 << 16))
        .plan_report(&db)
        .unwrap();
    assert!(report.subw <= report.fhtw);
    assert_eq!(report.strategy, EvaluationStrategy::Adaptive);
    assert_eq!(report.tds.len(), 2);
    assert!(!report.partitions.is_empty());
}
