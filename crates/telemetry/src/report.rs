//! Perf-regression reports: compare a fresh run against committed
//! baselines.
//!
//! A [`MetricSet`] is a named bag of metrics loaded from either kind of
//! machine-readable artifact this workspace produces:
//!
//! * a JSONL **run manifest** (`--metrics-out`): `counter`, `gauge`,
//!   and `histogram` records become metrics (histograms contribute
//!   their p50/p90/p95/p99/max/mean);
//! * a **bench baseline** (`BENCH_*.json` from `scripts/bench.sh`):
//!   every result contributes `<bench>/mean_ns` and `<bench>/median_ns`.
//!
//! [`compare`] lines a current set up against a baseline set over their
//! shared metric names and classifies each latency-valued metric by the
//! ratio `current / baseline`: above `threshold` is a **regression**,
//! below `1 / threshold` an improvement, anything else unchanged.
//! Counters and unit-less gauges are reported as informational deltas
//! only — request counts legitimately differ between runs, so they
//! never fail a report. The CLI (`perfpredict perf-report`) renders the
//! table and exits nonzero (typed, code 6) when any regression
//! survives.
//!
//! Latency units are normalized to nanoseconds at load time: metric
//! names ending in `_ms` are scaled by 10⁶, `_ns` taken verbatim, so a
//! manifest gauge can be compared against a bench mean when both
//! describe the same quantity.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::hist::Histogram;
use crate::json::{parse, JsonObject, Value};

/// One metric value, tagged with how it may be compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Metric {
    /// A wall-time quantity in nanoseconds; eligible for the
    /// regression-threshold check (higher is worse).
    LatencyNs(f64),
    /// A monotonic count; informational only.
    Count(u64),
    /// Any other numeric reading; informational only.
    Value(f64),
}

/// A named bag of metrics from one or more artifacts.
#[derive(Debug, Default, Clone)]
pub struct MetricSet {
    /// Paths (or labels) the metrics were loaded from.
    pub sources: Vec<String>,
    /// Metric name → value. Later loads overwrite on collision.
    pub metrics: BTreeMap<String, Metric>,
}

impl MetricSet {
    /// An empty set.
    pub fn new() -> MetricSet {
        MetricSet::default()
    }

    /// Load a file, auto-detecting its kind: a single JSON object with
    /// a `results` array is a bench baseline, anything else is treated
    /// as a JSONL run manifest.
    pub fn load(&mut self, path: &Path) -> Result<(), String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let label = path.display().to_string();
        if let Ok(v) = parse(&text) {
            if matches!(v.get("results"), Some(Value::Arr(_))) {
                self.add_bench(&label, &v)?;
                self.sources.push(label);
                return Ok(());
            }
        }
        self.add_manifest(&label, &text)?;
        self.sources.push(label);
        Ok(())
    }

    /// Fold a bench baseline document in.
    fn add_bench(&mut self, label: &str, doc: &Value) -> Result<(), String> {
        let Some(Value::Arr(results)) = doc.get("results") else {
            return Err(format!("{label}: bench document has no 'results' array"));
        };
        for r in results {
            let name = r
                .get("bench")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{label}: bench result missing 'bench' name"))?;
            for field in ["mean_ns", "median_ns"] {
                if let Some(x) = r.get(field).and_then(Value::as_f64) {
                    self.metrics
                        .insert(format!("{name}/{field}"), Metric::LatencyNs(x));
                }
            }
        }
        Ok(())
    }

    /// Fold a JSONL run manifest in, line by line.
    fn add_manifest(&mut self, label: &str, text: &str) -> Result<(), String> {
        let mut any = false;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = parse(line).map_err(|e| format!("{label}:{}: {e}", i + 1))?;
            match v.get("type").and_then(Value::as_str) {
                Some("counter") => {
                    let name = v
                        .get("name")
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("{label}:{}: counter missing name", i + 1))?;
                    let value = v
                        .get("value")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| format!("{label}:{}: counter missing value", i + 1))?;
                    self.metrics.insert(name.to_string(), Metric::Count(value));
                }
                Some("gauge") => {
                    let name = v
                        .get("name")
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("{label}:{}: gauge missing name", i + 1))?;
                    let value = v
                        .get("value")
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("{label}:{}: gauge missing value", i + 1))?;
                    let metric = if name.ends_with("_ms") {
                        Metric::LatencyNs(value * 1e6)
                    } else if name.ends_with("_ns") {
                        Metric::LatencyNs(value)
                    } else {
                        Metric::Value(value)
                    };
                    self.metrics.insert(name.to_string(), metric);
                }
                Some("histogram") => {
                    let (name, h) = Histogram::from_manifest(&v)
                        .map_err(|e| format!("{label}:{}: {e}", i + 1))?;
                    self.add_histogram(&name, &h);
                }
                // meta / span / point / progress / profile / summary
                // lines carry no comparable metrics.
                Some(_) => {}
                None => return Err(format!("{label}:{}: line has no 'type' field", i + 1)),
            }
            any = true;
        }
        if !any {
            return Err(format!("{label}: empty manifest"));
        }
        Ok(())
    }

    /// Add the comparable projections of one histogram.
    pub(crate) fn add_histogram(&mut self, name: &str, h: &Histogram) {
        for (suffix, value) in [
            ("p50", h.quantile(0.50) as f64),
            ("p90", h.quantile(0.90) as f64),
            ("p95", h.quantile(0.95) as f64),
            ("p99", h.quantile(0.99) as f64),
            ("max", h.max() as f64),
            ("mean", h.mean()),
        ] {
            self.metrics
                .insert(format!("{name}/{suffix}"), Metric::LatencyNs(value));
        }
        self.metrics
            .insert(format!("{name}/count"), Metric::Count(h.count()));
    }
}

/// Verdict for one compared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Latency within `[baseline/threshold, baseline*threshold]`.
    Unchanged,
    /// Latency below `baseline / threshold`.
    Improved,
    /// Latency above `baseline * threshold` — fails the report.
    Regressed,
    /// Count/value metric: reported, never a failure.
    Info,
}

impl Status {
    /// Short machine tag (`ok` / `improved` / `regressed` / `info`).
    pub fn tag(&self) -> &'static str {
        match self {
            Status::Unchanged => "ok",
            Status::Improved => "improved",
            Status::Regressed => "regressed",
            Status::Info => "info",
        }
    }
}

/// One row of a report: a metric present in both sets.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Metric name.
    pub name: String,
    /// Baseline reading (ns for latency metrics).
    pub baseline: f64,
    /// Current reading (ns for latency metrics).
    pub current: f64,
    /// `current / baseline`; `f64::INFINITY` when the baseline is 0
    /// and the current value is not.
    pub ratio: f64,
    /// Classification under the report threshold.
    pub status: Status,
}

/// The full comparison: per-metric rows plus the pass/fail rollup.
#[derive(Debug, Clone)]
pub struct Report {
    /// Regression threshold the rows were classified under.
    pub threshold: f64,
    /// All shared metrics, latency rows first, each group name-sorted.
    pub rows: Vec<Delta>,
}

impl Report {
    /// Rows classified as regressions.
    pub fn regressions(&self) -> Vec<&Delta> {
        self.rows
            .iter()
            .filter(|d| d.status == Status::Regressed)
            .collect()
    }

    /// True when no latency metric regressed.
    pub fn passed(&self) -> bool {
        self.rows.iter().all(|d| d.status != Status::Regressed)
    }

    /// Number of latency metrics actually compared.
    pub(crate) fn compared(&self) -> usize {
        self.rows
            .iter()
            .filter(|d| d.status != Status::Info)
            .count()
    }

    /// Human-readable table plus a one-line verdict.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perf-report (threshold {:.2}x): {} latency metrics compared",
            self.threshold,
            self.compared(),
        );
        let _ = writeln!(
            out,
            "  {:<44} {:>14} {:>14} {:>8}  status",
            "metric", "baseline", "current", "ratio"
        );
        for d in &self.rows {
            let ratio = if d.ratio.is_finite() {
                format!("{:.3}", d.ratio)
            } else {
                "inf".to_string()
            };
            let _ = writeln!(
                out,
                "  {:<44} {:>14.0} {:>14.0} {:>8}  {}",
                d.name,
                d.baseline,
                d.current,
                ratio,
                d.status.tag()
            );
        }
        let regressed = self.regressions();
        if regressed.is_empty() {
            let _ = writeln!(out, "verdict: PASS");
        } else {
            let _ = writeln!(
                out,
                "verdict: REGRESSED ({} metric(s) beyond {:.2}x)",
                regressed.len(),
                self.threshold
            );
        }
        out
    }

    /// One JSON object summarizing the report (the CLI's `--json` mode).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|d| {
                JsonObject::new()
                    .str("metric", &d.name)
                    .num("baseline", d.baseline)
                    .num("current", d.current)
                    .num("ratio", d.ratio)
                    .str("status", d.status.tag())
                    .finish()
            })
            .collect();
        JsonObject::new()
            .str("type", "perf_report")
            .num("threshold", self.threshold)
            .usize("compared", self.compared())
            .usize("regressed", self.regressions().len())
            .bool("passed", self.passed())
            .raw("rows", &format!("[{}]", rows.join(",")))
            .finish()
    }
}

/// Compare `current` against `baseline` over their shared metric names.
///
/// `threshold` must be ≥ 1 (a 1.5 means "fail if 50 % slower").
/// Returns an error when the two sets share no latency metric — a
/// report that compares nothing must not report a pass.
pub fn compare(
    current: &MetricSet,
    baseline: &MetricSet,
    threshold: f64,
) -> Result<Report, String> {
    if !(threshold.is_finite() && threshold >= 1.0) {
        return Err(format!(
            "threshold must be a finite ratio >= 1, got {threshold}"
        ));
    }
    let mut latency = Vec::new();
    let mut info = Vec::new();
    for (name, cur) in &current.metrics {
        let Some(base) = baseline.metrics.get(name) else {
            continue;
        };
        match (base, cur) {
            (Metric::LatencyNs(b), Metric::LatencyNs(c)) => {
                let ratio = if *b > 0.0 {
                    c / b
                } else if *c > 0.0 {
                    f64::INFINITY
                } else {
                    1.0
                };
                let status = if ratio > threshold {
                    Status::Regressed
                } else if ratio < 1.0 / threshold {
                    Status::Improved
                } else {
                    Status::Unchanged
                };
                latency.push(Delta {
                    name: name.clone(),
                    baseline: *b,
                    current: *c,
                    ratio,
                    status,
                });
            }
            (Metric::Count(b), Metric::Count(c)) => {
                let (b, c) = (*b as f64, *c as f64);
                info.push(Delta {
                    name: name.clone(),
                    baseline: b,
                    current: c,
                    ratio: if b > 0.0 { c / b } else { 1.0 },
                    status: Status::Info,
                });
            }
            (Metric::Value(b), Metric::Value(c)) => {
                info.push(Delta {
                    name: name.clone(),
                    baseline: *b,
                    current: *c,
                    ratio: if *b != 0.0 { c / b } else { 1.0 },
                    status: Status::Info,
                });
            }
            // Mismatched kinds under the same name: skip rather than
            // invent a comparison.
            _ => {}
        }
    }
    if latency.is_empty() {
        return Err(format!(
            "no latency metrics shared between current ({}) and baseline ({})",
            current.sources.join(", "),
            baseline.sources.join(", ")
        ));
    }
    let mut rows = latency;
    rows.extend(info);
    Ok(Report { threshold, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_doc(mean: u64) -> String {
        format!(
            "{{\"mode\":\"quick\",\"results\":[\n\
             {{\"bench\":\"serve/replay_cached\",\"mean_ns\":{mean},\"median_ns\":{mean},\"samples\":10,\"iters_per_sample\":9}}\n\
             ]}}"
        )
    }

    fn load_str(text: &str, name: &str) -> MetricSet {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("perf_report_test_{}_{name}", std::process::id()));
        std::fs::write(&path, text).expect("write temp");
        let mut set = MetricSet::new();
        set.load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        set
    }

    #[test]
    fn bench_vs_bench_pass_and_regress() {
        let base = load_str(&bench_doc(1_000_000), "base.json");
        let same = load_str(&bench_doc(1_100_000), "same.json");
        let report = compare(&same, &base, 1.5).expect("comparable");
        assert!(report.passed());
        assert_eq!(report.compared(), 2); // mean + median

        let slow = load_str(&bench_doc(10_000_000), "slow.json");
        let report = compare(&slow, &base, 1.5).expect("comparable");
        assert!(!report.passed());
        assert_eq!(report.regressions().len(), 2);
        assert!(report.render_text().contains("REGRESSED"));
    }

    #[test]
    fn improvement_is_not_a_failure() {
        let base = load_str(&bench_doc(10_000_000), "ibase.json");
        let fast = load_str(&bench_doc(1_000_000), "ifast.json");
        let report = compare(&fast, &base, 1.5).expect("comparable");
        assert!(report.passed());
        assert!(report.rows.iter().any(|d| d.status == Status::Improved));
    }

    #[test]
    fn manifest_metrics_compare_against_manifest() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.observe(v * 10_000);
        }
        let manifest = format!(
            "{}\n{}\n{}\n{}\n",
            r#"{"type":"meta","schema":"perfpredict.telemetry/v1","label":"t"}"#,
            r#"{"type":"counter","name":"serve/requests","value":100}"#,
            r#"{"type":"gauge","name":"serve/p95_ms","value":2.5}"#,
            h.to_manifest_record("serve/latency_ns"),
        );
        let base = load_str(&manifest, "mbase.jsonl");
        let cur = load_str(&manifest, "mcur.jsonl");
        let report = compare(&cur, &base, 1.2).expect("comparable");
        assert!(report.passed());
        // Histogram quantiles and the _ms gauge all became latency rows.
        assert!(report.rows.iter().any(|d| d.name == "serve/latency_ns/p99"));
        assert!(report
            .rows
            .iter()
            .any(|d| d.name == "serve/p95_ms" && d.baseline == 2.5e6));
        // The counter shows up as info, never a verdict.
        let req = report
            .rows
            .iter()
            .find(|d| d.name == "serve/requests/count" || d.name == "serve/requests")
            .expect("counter row");
        assert_eq!(req.status, Status::Info);
    }

    #[test]
    fn disjoint_sets_are_an_error_not_a_pass() {
        let a = load_str(&bench_doc(1_000), "da.json");
        let manifest = format!(
            "{}\n{}\n",
            r#"{"type":"meta","schema":"perfpredict.telemetry/v1","label":"t"}"#,
            r#"{"type":"counter","name":"x","value":1}"#,
        );
        let b = load_str(&manifest, "db.jsonl");
        assert!(compare(&b, &a, 1.5).is_err());
    }

    #[test]
    fn bad_threshold_is_rejected() {
        let a = load_str(&bench_doc(1_000), "ta.json");
        for bad in [0.5, 0.0, -1.0, f64::NAN] {
            assert!(compare(&a, &a, bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn zero_baseline_with_nonzero_current_regresses() {
        let mut base = MetricSet::new();
        base.sources.push("b".into());
        base.metrics.insert("x_ns".into(), Metric::LatencyNs(0.0));
        let mut cur = MetricSet::new();
        cur.sources.push("c".into());
        cur.metrics.insert("x_ns".into(), Metric::LatencyNs(5.0));
        let report = compare(&cur, &base, 2.0).expect("comparable");
        assert!(!report.passed());
    }

    #[test]
    fn report_json_is_parseable() {
        let base = load_str(&bench_doc(1_000_000), "jb.json");
        let cur = load_str(&bench_doc(9_000_000), "jc.json");
        let report = compare(&cur, &base, 1.5).expect("comparable");
        let v = parse(&report.to_json()).expect("parses");
        assert_eq!(v.get("passed"), Some(&Value::Bool(false)));
        assert_eq!(v.get("regressed").and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn malformed_inputs_error() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("perf_report_bad_{}", std::process::id()));
        std::fs::write(&path, "not json at all\n").expect("write");
        let mut set = MetricSet::new();
        assert!(set.load(&path).is_err());
        std::fs::remove_file(&path).ok();
        let mut missing = MetricSet::new();
        assert!(missing.load(Path::new("/nonexistent/nope.json")).is_err());
    }
}
