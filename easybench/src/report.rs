//! What one benchmark run found: the operation tallies, the metrics, and
//! the JSON result line that ends every run's output.

use std::fmt::Write as _;

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one workload run.
#[derive(Default)]
pub struct Report {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output was wrong or that did not complete.
    pub failed: u64,
    /// One line per failure, for the log.
    pub failures: Vec<String>,
    /// Lines printed above the table (sample counts).
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Tallies one checked operation; `err` is `Some(why)` when it failed.
    pub fn check(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(why) = err {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable metric table; metrics outside `keys` are
    /// marked as table-only.
    pub fn table(&self, keys: Option<&[&str]>) -> String {
        let mut out = String::new();
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        for m in &self.metrics {
            let note = if keys.is_some_and(|k| !k.contains(&m.name.as_str())) {
                "  (table only)"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  {:<width$}  {:>14.6}  {}{note}",
                m.name, m.value, m.unit
            );
        }
        let _ = writeln!(
            out,
            "  {:<width$}  {:>14.6}  ratio  (table only: {} failed of {} attempted)",
            "fail_ratio",
            self.fail_ratio(),
            self.failed,
            self.attempted
        );
        out
    }

    /// The single-line JSON result: `correct`, `attempted`, `failed`,
    /// `metrics` (each `{"value", "unit"}`), restricted to `keys` if given.
    pub fn json_line(&self, keys: Option<&[&str]>) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        let shown = self
            .metrics
            .iter()
            .filter(|m| keys.is_none_or(|k| k.contains(&m.name.as_str())));
        for (i, m) in shown.enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // non-finite values are not JSON; they also make the run
            // incorrect (see `correct`), so null is never read as a value
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".into()
            };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
