//! Measurement substrate for the paper's experiments (Sections 4–9).
//!
//! This crate carries no algorithms of its own; it is the workspace's
//! instrumentation layer:
//!
//! * the **`experiments` binary** (`src/bin/experiments.rs`) regenerates
//!   the paper's tables and figures (experiment index E1–E15), from the
//!   Figure 2 worked example through the width computations, DDR
//!   evaluation, adaptive-vs-static scaling and the FMM comparison of
//!   Section 9.3,
//! * the **`planner_outliers` binary** (`src/bin/planner_outliers.rs`)
//!   times the cold plans too slow for the served benchmark's loop — the
//!   projected 5-cycle and the non-free-connex 4- and 5-paths — chain by
//!   chain through [`plan_chains`], then the Γ₅ full-target polymatroid
//!   bound,
//! * this library holds the shared helpers: [`time_it`], the power-law
//!   slope fit [`log_log_slope`] used to check `N^{3/2}` vs `N²` scaling
//!   (E8), and the [`render_table`] text-table renderer.
//!
//! Recorded numbers live in `EXPERIMENTS.md` at the workspace root; the
//! served system is measured end to end by the `benchmark/` package.

#![forbid(unsafe_code)]
use std::time::Instant;

use panda_entropy::{
    fhtw_with_tds_budgeted, subw_against_fhtw, subw_with_tds_budgeted, PivotBudget, StatisticsSet,
};
use panda_query::{ConjunctiveQuery, TreeDecomposition};
use panda_rational::Rat;
use panda_relation::Database;

/// One cold plan's width chains, as [`plan_chains`] measured them.
#[derive(Debug, Clone)]
pub struct ChainRow {
    /// Tree decompositions enumerated.
    pub tds: usize,
    /// Bag-selector LPs the `subw` chain solved.
    pub selector_lps: usize,
    /// Simplex pivots of both chains, charged to one budget.
    pub pivots: u64,
    /// The fractional hypertree width.
    pub fhtw: Rat,
    /// The submodular width.
    pub subw: Rat,
    /// Seconds spent in the `fhtw` chain.
    pub fhtw_s: f64,
    /// Seconds spent in the `subw` chain.
    pub subw_s: f64,
    /// Simplex pivots of the `fhtw` chain and of deciding `subw` against it
    /// ([`subw_against_fhtw`]), charged to one budget: what a cold `Auto`
    /// plan pays, to compare with [`ChainRow::pivots`].
    pub decision_pivots: u64,
    /// Seconds spent deciding `subw` against `fhtw`.
    pub decision_s: f64,
}

/// Plans `query` over `db` the way a cold request does: measures the
/// statistics, enumerates the tree decompositions and runs the `fhtw`
/// chain under one unlimited [`PivotBudget`].  Then `subw` is computed both
/// ways a request may: decided against `fhtw`, as a cold `Auto` plan does,
/// on a copy of the budget; and as the full chain an explicit adaptive plan
/// runs, on the budget itself.
///
/// # Panics
///
/// Panics if a chain or the decision returns an error.
#[must_use]
pub fn plan_chains(query: &ConjunctiveQuery, db: &Database) -> ChainRow {
    let stats = StatisticsSet::measure(query, db);
    let tds = TreeDecomposition::enumerate(query);
    let mut budget = PivotBudget::unlimited();
    let (fhtw, fhtw_s) =
        time_it(|| fhtw_with_tds_budgeted(query, &tds, &stats, &mut budget).expect("fhtw chain"));
    let mut decision_budget = budget.clone();
    let (_, decision_s) = time_it(|| {
        subw_against_fhtw(query, &tds, &stats, &fhtw, &mut decision_budget).expect("decision")
    });
    let (subw, subw_s) =
        time_it(|| subw_with_tds_budgeted(query, &tds, &stats, &mut budget).expect("subw chain"));
    ChainRow {
        tds: tds.len(),
        selector_lps: subw.per_selector.len(),
        pivots: budget.used(),
        fhtw: fhtw.value,
        subw: subw.value,
        fhtw_s,
        subw_s,
        decision_pivots: decision_budget.used(),
        decision_s,
    }
}

/// Times a closure, returning `(result, seconds)`.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

/// Fits the slope of `log(y)` against `log(x)` by least squares — the
/// empirical exponent of a power law `y ≈ c · x^slope`.  Used to check that
/// runtimes scale like `N^{3/2}` vs `N^2` (experiment E8).
#[must_use]
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return 0.0;
    }
    let sx: f64 = pts.iter().map(|(x, _)| x).sum();
    let sy: f64 = pts.iter().map(|(_, y)| y).sum();
    let sxx: f64 = pts.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = pts.iter().map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return 0.0;
    }
    (n * sxy - sx * sy) / denom
}

/// Renders a simple aligned text table (used by the `experiments` binary to
/// print paper-style tables).
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|s| (*s).to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_entropy::{fhtw, subw};
    use panda_workloads::{erdos_renyi_db, four_cycle_projected};

    #[test]
    fn plan_chains_matches_the_width_entry_points() {
        let query = four_cycle_projected();
        let db = erdos_renyi_db(&["R", "S", "T", "U"], 30, 120, 7);
        let row = plan_chains(&query, &db);
        let stats = StatisticsSet::measure(&query, &db);
        let subw_report = subw(&query, &stats).unwrap();
        assert_eq!(row.fhtw, fhtw(&query, &stats).unwrap().value);
        assert_eq!(row.subw, subw_report.value);
        assert_eq!(row.selector_lps, subw_report.per_selector.len());
        assert_eq!(row.tds, TreeDecomposition::enumerate(&query).len());
        assert!(row.pivots > 0);
        assert!(row.decision_pivots <= row.pivots, "the decision costs at most the chain");
    }

    #[test]
    fn slope_of_a_perfect_power_law() {
        let pts: Vec<(f64, f64)> = (1..=6)
            .map(|i| {
                let x = (1 << i) as f64;
                (x, 3.0 * x.powf(1.5))
            })
            .collect();
        let slope = log_log_slope(&pts);
        assert!((slope - 1.5).abs() < 1e-9, "slope {slope}");
        assert_eq!(log_log_slope(&[]), 0.0);
        assert_eq!(log_log_slope(&[(2.0, 4.0)]), 0.0);
    }

    #[test]
    fn timing_returns_result_and_elapsed() {
        let (v, secs) = time_it(|| (0..1000u64).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(secs >= 0.0);
    }

    #[test]
    fn table_renders_all_rows() {
        let t = render_table(
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(t.contains("bbbb"));
        assert_eq!(t.lines().count(), 4);
    }
}
