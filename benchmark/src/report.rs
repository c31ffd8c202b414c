//! Metric lists: printed by name with unit, then as the one-line JSON
//! result the driver reads.

use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.0.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// `metric <name> <value> <unit>` lines: what a person reads, and what
    /// the suite runner parses back from a child's output.
    pub fn print(&self) {
        for m in &self.0 {
            println!("metric {} {} {}", m.name, fmt_value(m.value), m.unit);
        }
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
        }
        out.push('}');
        out
    }
}

/// Every digit as measured; JSON has no NaN or infinity, so those (a
/// metric whose denominator was 0) read as 0.
pub fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Parses the `metric` lines of a child's output back into `(name,
/// value)` pairs.
pub fn parse_metric_lines(output: &str) -> Vec<(String, f64)> {
    output
        .lines()
        .filter_map(|l| {
            let mut f = l.strip_prefix("metric ")?.split_whitespace();
            Some((f.next()?.to_string(), f.next()?.parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn printed_lines_parse_back_and_json_has_no_nan() {
        let mut m = Metrics::default();
        m.push("a.b_c", 1.25, "ms");
        m.push("ratio", f64::NAN, "frac");
        assert_eq!(
            m.to_json(),
            r#"{"a.b_c": {"value": 1.25, "unit": "ms"}, "ratio": {"value": 0, "unit": "frac"}}"#
        );
        let parsed = parse_metric_lines("info x\nmetric a.b_c 1.25 ms\nstatus ok\n");
        assert_eq!(parsed, vec![("a.b_c".to_string(), 1.25)]);
    }
}
