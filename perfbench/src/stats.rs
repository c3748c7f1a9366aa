//! Order statistics and the JSON result line.

use std::fmt::Write as _;

/// Sorted copy of `v`, ignoring NaN.
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s: Vec<f64> = v.iter().copied().filter(|x| !x.is_nan()).collect();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank quantile `q` in `[0, 1]`; NaN for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return f64::NAN;
    }
    let k = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1;
    s[k]
}

/// Median; NaN for an empty sample.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The 99th percentile, or, when the sample is too small for that, the
/// highest percentile that still has at least ten samples beyond it.
pub fn tail(v: &[f64]) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return f64::NAN;
    }
    let p99 = ((0.99 * s.len() as f64).ceil() as usize).max(1) - 1;
    s[p99.min(s.len().saturating_sub(11))]
}

/// Named metrics in the order they were recorded.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, _)| v)
    }

    /// Names whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&'static str> {
        self.0
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|&(n, _, _)| n)
            .collect()
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    /// Non-finite values are written as `null`.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".into()
            };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples: p99 would leave one beyond, so fall back to rank 90.
        assert_eq!(tail(&v), 90.0);
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v), 1980.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn result_line_is_json_with_full_digits() {
        let mut m = Metrics::default();
        m.put("a.b", 0.1 + 0.2, "ms");
        m.put("c", f64::NAN, "s");
        let line = m.result_json(true, 3, 0);
        assert!(line.contains("\"a.b\": {\"value\": 0.30000000000000004, \"unit\": \"ms\"}"));
        assert!(line.contains("\"c\": {\"value\": null"));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
    }
}
