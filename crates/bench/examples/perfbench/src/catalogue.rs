//! The metric catalogue: every metric's unit, direction and bound.
//!
//! `END_TO_END` and `PER_LAYER` are what `BENCHMARK.json` declares (a
//! test keeps the two in step); `DETAILS` are the workload-specific
//! end-to-end numbers each run also reports and `perfbench compare`
//! judges with the bounds given here.

/// Workload names, fixed: later changes cite them.
pub const WORKLOADS: [&str; 4] = ["sweep", "train", "explore", "serve"];

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Whether a larger value is better.
    pub higher_better: bool,
    /// Allowed worsening of the median as a share of the baseline's.
    pub bound: f64,
}

const fn m(name: &'static str, unit: &'static str, higher_better: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_better,
        bound,
    }
}

/// Metrics every workload reports in an untraced run. Host times on a
/// shared two-core machine move by a fifth between runs, so their
/// bounds are wide; accuracies are per-seed deterministic and live in
/// `DETAILS` with a zero bound instead.
pub const END_TO_END: &[Metric] = &[
    m("run_s", "s", false, 0.25),
    m("setup_s", "s", false, 0.25),
    m("peak_rss_mb", "MB", false, 0.2),
];

/// Workload-specific end-to-end metrics (reported, not declared).
pub const DETAILS: &[Metric] = &[
    m("sim_minst_per_s", "Minst/s", true, 0.25),
    m("dse_study_s", "s", false, 0.25),
    m("dse_select_error_pct", "%", false, 0.0),
    m("chrono_study_s", "s", false, 0.25),
    m("chrono_error_pct", "%", false, 0.0),
    m("explore_s", "s", false, 0.25),
    m("explore_error_pct", "%", false, 0.0),
    m("replay_req_per_s", "req/s", true, 0.25),
    m("serve_p50_ms", "ms", false, 0.25),
    m("serve_p999_ms", "ms", false, 1.0),
    m("serve_max_rps", "req/s", true, 0.5),
    m("serve_fail_frac", "ratio", false, 0.0),
];

const fn layer(name: &'static str, unit: &'static str, higher_better: bool) -> Metric {
    m(name, unit, higher_better, 0.0)
}

/// Metrics of a traced run: the tracing overhead and the probe suite (see
/// `probes.rs`). The traced pass's self time per layer is reported too,
/// but not here: a layer the workload never enters reads 0 on every run.
pub const PER_LAYER: &[Metric] = &[
    layer("bench.trace_overhead_pct", "%", false),
    // cpusim: moves sim_minst_per_s on sweep; core_new_us,
    // trace_gen_ns_per_inst and batch_sim_ms also explore_s.
    layer("cpusim.trace_gen_ns_per_inst", "ns", false),
    layer("cpusim.core_new_us", "us", false),
    layer("cpusim.core_run_ns_per_inst.applu", "ns", false),
    layer("cpusim.core_run_ns_per_inst.mcf", "ns", false),
    layer("cpusim.core_run_ns_per_inst.gcc", "ns", false),
    layer("cpusim.host_ns_per_sim_cycle.applu", "ns", false),
    layer("cpusim.host_ns_per_sim_cycle.mcf", "ns", false),
    layer("cpusim.config_ms_p50", "ms", false),
    layer("cpusim.config_ms_p85", "ms", false),
    layer("cpusim.simpoint_analyze_ms", "ms", false),
    layer("cpusim.sweep_busy_frac", "ratio", true),
    layer("cpusim.batch_sim_ms", "ms", false),
    // Modelled statistics: bit-identical under a speed-only change.
    layer("cpusim.ipc.applu", "ratio", true),
    layer("cpusim.ipc.mcf", "ratio", true),
    layer("cpusim.ipc.gcc", "ratio", true),
    layer("cpusim.l1d_miss_rate.applu", "ratio", false),
    layer("cpusim.l1d_miss_rate.mcf", "ratio", false),
    layer("cpusim.l1d_miss_rate.gcc", "ratio", false),
    layer("cpusim.l2_miss_rate.applu", "ratio", false),
    layer("cpusim.l2_miss_rate.mcf", "ratio", false),
    layer("cpusim.l2_miss_rate.gcc", "ratio", false),
    layer("cpusim.mispredict_rate.applu", "ratio", false),
    layer("cpusim.mispredict_rate.mcf", "ratio", false),
    layer("cpusim.mispredict_rate.gcc", "ratio", false),
    // mlmodels / linalg / dse: move dse_study_s and chrono_study_s on
    // train; the NN-Q rows move explore_s.
    layer("mlmodels.train_ms.NN-E", "ms", false),
    layer("mlmodels.train_ms.NN-S", "ms", false),
    layer("mlmodels.train_ms.LR-B", "ms", false),
    layer("mlmodels.estimate_ms.NN-E", "ms", false),
    layer("mlmodels.estimate_ms.NN-S", "ms", false),
    layer("mlmodels.estimate_ms.LR-B", "ms", false),
    layer("mlmodels.train_ms.LR-S", "ms", false),
    layer("mlmodels.train_ms.NN-Q", "ms", false),
    layer("mlmodels.predict_us_per_krow.NN-Q", "us", false),
    layer("mlmodels.predict_us_per_krow.NN-E", "us", false),
    layer("linalg.matmul_tn_us", "us", false),
    layer("linalg.affine_nt_us", "us", false),
    layer("mlmodels.prune_accept_ratio", "ratio", true),
    layer("mlmodels.select_fast_ratio", "ratio", true),
    layer("mlmodels.epochs_per_fit", "count", false),
    layer("dse.table_from_sweep_ms", "ms", false),
    // serve: move replay_req_per_s, serve_p50_ms, serve_p999_ms,
    // serve_max_rps and serve_fail_frac on serve.
    layer("serve.parse_us", "us", false),
    layer("serve.predict_us_per_row.NN-E", "us", false),
    layer("serve.predict_us_per_row.LR-B", "us", false),
    layer("serve.artifact_load_ms", "ms", false),
    layer("serve.cache_hit_ratio.replay", "ratio", true),
    layer("serve.cache_hit_ratio.daemon", "ratio", true),
    layer("serve.mean_batch", "count", true),
    layer("serve.daemon_p99_ms", "ms", false),
    layer("serve.transport_gap_p99_ms", "ms", false),
    layer("serve.shed", "count", false),
    layer("serve.deadline_misses", "count", false),
    layer("serve.invalid", "count", false),
    layer("serve.gen_late_ms_max", "ms", false),
    layer("serve.daemon_rss_mb", "MB", false),
];

/// Look a metric up in every list.
pub fn lookup(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(DETAILS)
        .chain(PER_LAYER)
        .find(|m| m.name == name)
}

/// Unit of a metric, or "" when it is not catalogued.
pub fn unit_of(name: &str) -> &'static str {
    lookup(name).map_or("", |m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::json::{self, Value};

    fn declared(doc: &Value, key: &str) -> Vec<Value> {
        match doc.get(key) {
            Some(Value::Arr(items)) => items.clone(),
            _ => panic!("BENCHMARK.json has no '{key}' list"),
        }
    }

    fn matches(decl: &[Value], cat: &[Metric], with_bound: bool) {
        assert_eq!(decl.len(), cat.len(), "metric count differs");
        for (d, m) in decl.iter().zip(cat) {
            assert_eq!(d.get("name").and_then(Value::as_str), Some(m.name));
            assert_eq!(
                d.get("unit").and_then(Value::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            let better = if m.higher_better { "higher" } else { "lower" };
            assert_eq!(
                d.get("better").and_then(Value::as_str),
                Some(better),
                "{}",
                m.name
            );
            if with_bound {
                assert_eq!(
                    d.get("bound").and_then(Value::as_f64),
                    Some(m.bound),
                    "{}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn benchmark_json_declares_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let workloads: Vec<String> = declared(&doc, "workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
        matches(&declared(&doc, "end_to_end"), END_TO_END, true);
        matches(&declared(&doc, "per_layer"), PER_LAYER, false);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(DETAILS)
            .chain(PER_LAYER)
            .map(|m| m.name)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
