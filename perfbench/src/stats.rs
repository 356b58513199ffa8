//! Order statistics over nanosecond samples, and the result line.

/// The nearest-rank `q`-quantile of `xs` (sorted in place); 0 when empty.
pub fn quantile(xs: &mut [u64], q: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    xs.sort_unstable();
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// The median of `xs` (sorted in place).
pub fn median(xs: &mut [u64]) -> u64 {
    quantile(xs, 0.5)
}

/// The mean of the samples between the 10th and the 90th percentile
/// (sorted in place): smooth in the share of slow samples, like a mean,
/// and blind to the rare stall, like a median. 0 when empty.
pub fn tmean(xs: &mut [u64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable();
    let (lo, hi) = (xs.len() / 10, xs.len() - xs.len() / 10);
    let mid = &xs[lo..hi];
    mid.iter().sum::<u64>() as f64 / mid.len() as f64
}

/// `sum / n`, or 0 when `n` is 0.
pub fn ratio(sum: f64, n: f64) -> f64 {
    if n == 0.0 {
        0.0
    } else {
        sum / n
    }
}

/// A running sum and count of nanosecond durations.
#[derive(Default, Clone, Copy)]
pub struct Acc {
    pub ns: u64,
    pub n: u64,
}

impl Acc {
    pub fn add(&mut self, ns: u64) {
        self.ns += ns;
        self.n += 1;
    }

    pub fn mean_us(&self) -> f64 {
        ratio(self.ns as f64, self.n as f64) / 1e3
    }
}

/// Named metrics with units, in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// The result line: one JSON object.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON number with every digit Rust keeps (shortest round-trip form).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
