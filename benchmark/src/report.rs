//! Order statistics and the result line.

use std::fmt::Write as _;

/// The median of `values` (sorted in place); 0 for no values.
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// The nearest-rank `p`-quantile of `values` (sorted in place); 0 for none.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (p * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one run of one workload in one mode reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Guard failures: the workload did not exercise what it exists for.
    pub guard_failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.guard_failures.is_empty()
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The one-line JSON object the driver reads off the end of stdout.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// A table for people: one `name value unit` row per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<42} {:>16.6} {}", m.name, m.value, m.unit);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&mut v), 5.0);
        assert_eq!(percentile(&mut v, 0.9), 9.0);
        assert_eq!(percentile(&mut [], 0.9), 0.0);
        assert_eq!(median(&mut [3.0]), 3.0);
    }
}
