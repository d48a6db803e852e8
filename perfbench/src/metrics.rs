//! Named metrics with units, and the benchmark's result line.

use serde::Value;

/// An ordered list of `(name, value, unit)` measurements.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Record one metric. Names must be unique.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(self.get(&name).is_none(), "metric {name} recorded twice");
        self.entries.push((name, value, unit));
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// The recorded metric names, in recording order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _, _)| n.as_str())
    }

    /// The recorded entries, in recording order.
    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.entries
    }
}

/// `num / den`, or 0 when the base is empty (a ratio over no events).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// each metric as `{"value", "unit"}`. Non-finite values become `null`,
/// which the reader refuses, so a broken derivation cannot pass silently.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let metrics = metrics
        .entries
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() {
                Value::Float(*value)
            } else {
                Value::Null
            };
            (
                name.clone(),
                Value::Object(vec![
                    ("value".into(), v),
                    ("unit".into(), Value::Str((*unit).into())),
                ]),
            )
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("a Value tree always serializes")
}
