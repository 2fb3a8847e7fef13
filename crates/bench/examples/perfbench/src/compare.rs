//! `perfbench compare <dirA> <dirB>`: judge two sets of result files
//! (written with `--out`) metric by metric.
//!
//! For every (workload, end-to-end metric) pair present in both sets it
//! prints each set's median and quartiles and a verdict against the
//! metric's bound: `same`, `worse`, or `unresolved` when a set's spread
//! is wider than the bound. Metrics with a zero bound are deterministic
//! per seed (accuracies, fail fractions) and are also compared seed by
//! seed, as are the identity notes (sweep and replay digests).

use crate::catalogue::{self, Metric};
use crate::stats::{self, Verdict};
use crate::{ctx, Res};
use std::collections::BTreeMap;
use telemetry::json::{self, Value};

/// One untraced result file.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// Metric medians of the run.
    pub metrics: BTreeMap<String, f64>,
    /// Identity notes.
    pub notes: BTreeMap<String, String>,
}

fn parse_run(text: &str) -> Res<Option<Run>> {
    let v = json::parse(text.trim()).map_err(ctx("parse"))?;
    if v.get("trace") == Some(&Value::Bool(true)) {
        return Ok(None);
    }
    let obj = |key: &str| match v.get(key) {
        Some(Value::Obj(m)) => Ok(m.clone()),
        _ => Err(format!("missing object '{key}'")),
    };
    Ok(Some(Run {
        workload: v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("missing workload")?
            .to_string(),
        seed: v
            .get("seed")
            .and_then(Value::as_u64)
            .ok_or("missing seed")?,
        metrics: obj("metrics")?
            .into_iter()
            .filter_map(|(k, x)| x.as_f64().map(|f| (k, f)))
            .collect(),
        notes: obj("notes")?
            .into_iter()
            .filter_map(|(k, x)| x.as_str().map(|s| (k, s.to_string())))
            .collect(),
    }))
}

/// Every untraced result file in `dir`.
fn load(dir: &str) -> Res<Vec<Run>> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(ctx(dir))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut runs = Vec::new();
    for p in paths {
        let text = std::fs::read_to_string(&p).map_err(ctx(&p.display().to_string()))?;
        if let Some(r) = parse_run(&text).map_err(ctx(&p.display().to_string()))? {
            runs.push(r);
        }
    }
    if runs.is_empty() {
        return Err(format!("no untraced result files in {dir}"));
    }
    Ok(runs)
}

/// Render the comparison of set `b` against baseline set `a`.
pub fn render(a: &[Run], b: &[Run]) -> String {
    let mut out = String::new();
    let workloads: Vec<&str> = catalogue::WORKLOADS
        .iter()
        .copied()
        .filter(|w| a.iter().any(|r| r.workload == *w) && b.iter().any(|r| r.workload == *w))
        .collect();
    let metrics: Vec<&Metric> = catalogue::END_TO_END
        .iter()
        .chain(catalogue::DETAILS)
        .collect();
    out.push_str(&format!(
        "{:<8} {:<22} {:>8} {:>34} {:>34} {:>6}  verdict\n",
        "workload", "metric", "unit", "A median [q1, q3] n", "B median [q1, q3] n", "bound"
    ));
    let (mut worse, mut unresolved) = (0, 0);
    for w in workloads {
        let of = |set: &[Run], name: &str| -> Vec<f64> {
            set.iter()
                .filter(|r| r.workload == w)
                .filter_map(|r| r.metrics.get(name).copied())
                .filter(|v| v.is_finite())
                .collect()
        };
        for m in &metrics {
            let (va, vb) = (of(a, m.name), of(b, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = stats::verdict(&va, &vb, m.higher_better, m.bound);
            match v {
                Verdict::Worse => worse += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Same => {}
            }
            let cell = |xs: &[f64]| {
                let (q1, q3) = stats::quartiles(xs);
                format!("{:.4} [{q1:.4}, {q3:.4}] {}", stats::median(xs), xs.len())
            };
            out.push_str(&format!(
                "{w:<8} {:<22} {:>8} {:>34} {:>34} {:>6.2}  {}\n",
                m.name,
                m.unit,
                cell(&va),
                cell(&vb),
                m.bound,
                v.label()
            ));
        }
        out.push_str(&identity_lines(w, a, b, &metrics));
    }
    out.push_str(&format!("{worse} worse, {unresolved} unresolved\n"));
    out
}

/// Seed-by-seed identity of deterministic metrics and notes.
fn identity_lines(w: &str, a: &[Run], b: &[Run], metrics: &[&Metric]) -> String {
    let mut out = String::new();
    let exact: Vec<&str> = metrics
        .iter()
        .filter(|m| m.bound == 0.0)
        .map(|m| m.name)
        .collect();
    let mut keys: Vec<String> = exact.iter().map(|s| s.to_string()).collect();
    for r in a.iter().chain(b).filter(|r| r.workload == w) {
        keys.extend(r.notes.keys().cloned());
    }
    keys.sort();
    keys.dedup();
    for key in keys {
        let value = |r: &Run| -> Option<String> {
            r.notes.get(&key).cloned().or_else(|| {
                r.metrics
                    .get(&key)
                    .filter(|_| exact.contains(&key.as_str()))
                    .map(|v| v.to_bits().to_string())
            })
        };
        let (mut same, mut differ) = (0, 0);
        for ra in a.iter().filter(|r| r.workload == w) {
            for rb in b.iter().filter(|r| r.workload == w && r.seed == ra.seed) {
                match (value(ra), value(rb)) {
                    (Some(x), Some(y)) if x == y => same += 1,
                    (Some(_), Some(_)) => differ += 1,
                    _ => {}
                }
            }
        }
        if same + differ > 0 {
            out.push_str(&format!(
                "{w:<8} {key:<22} identical on {same} of {} same-seed pairs\n",
                same + differ
            ));
        }
    }
    out
}

/// Entry point of `perfbench compare <dirA> <dirB>`.
pub fn run(args: &[String]) -> Res<String> {
    let [a, b] = args else {
        return Err("usage: perfbench compare <dirA> <dirB>".into());
    };
    Ok(render(&load(a)?, &load(b)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_of(workload: &str, seed: u64, run_s: f64, digest: &str) -> Run {
        Run {
            workload: workload.into(),
            seed,
            metrics: [("run_s".to_string(), run_s)].into_iter().collect(),
            notes: [("sweep_digest".to_string(), digest.to_string())]
                .into_iter()
                .collect(),
        }
    }

    #[test]
    fn result_files_parse_and_traced_ones_are_skipped() {
        let text = r#"{"workload":"sweep","seed":3,"trace":false,"metrics":{"run_s":2.5},"notes":{"sweep_digest":"x"}}"#;
        let r = parse_run(text).expect("parses").expect("untraced");
        assert_eq!((r.workload.as_str(), r.seed), ("sweep", 3));
        assert_eq!(r.metrics["run_s"], 2.5);
        let traced = text.replace("\"trace\":false", "\"trace\":true");
        assert!(parse_run(&traced).expect("parses").is_none());
    }

    #[test]
    fn render_gives_a_verdict_per_pair_and_checks_identity() {
        let a: Vec<Run> = (0..5)
            .map(|s| run_of("sweep", s, 3.0 + s as f64 * 0.01, "d"))
            .collect();
        let same: Vec<Run> = (0..5)
            .map(|s| run_of("sweep", s, 3.01 + s as f64 * 0.01, "d"))
            .collect();
        let text = render(&a, &same);
        assert!(text.contains("run_s"), "{text}");
        assert!(text.contains("same"), "{text}");
        assert!(text.contains("identical on 5 of 5"), "{text}");
        assert!(text.ends_with("0 worse, 0 unresolved\n"), "{text}");
        let slow: Vec<Run> = (0..5)
            .map(|s| run_of("sweep", s, 4.0 + s as f64 * 0.01, "e"))
            .collect();
        let text = render(&a, &slow);
        assert!(text.contains("worse"), "{text}");
        assert!(text.contains("identical on 0 of 5"), "{text}");
    }
}
