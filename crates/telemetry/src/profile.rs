//! Span profiler: aggregate the `span!` tree into a hot-path table.
//!
//! While profiling is enabled (CLI `--profile`, or
//! [`TelemetryConfig::profile`](crate::TelemetryConfig::profile)), every
//! closing span feeds a [`Profiler`], which folds the event stream into
//! one row per distinct span *path* (the slash-joined ancestry, e.g.
//! `sampled_dse/rate/model/fit`): call count, total wall time, and
//! *self* time — total minus the time spent in child spans.
//!
//! Children close before their parent, and a span opened on a
//! [`par_map`](crate::par_map) worker closes under the path of the span
//! that called `par_map`, so each closing span's wall time is attributed
//! to its real parent. The parent's path comes with the closing span
//! from its span stack, not from cutting the path at its last slash:
//! span names such as `serve/parse` contain slashes themselves.
//! Children on several workers can together outlast their parent; self
//! time is therefore a saturating subtraction, which
//! keeps summed self time within wall time × worker count and never
//! produces negative self time.
//!
//! The aggregate is emitted two ways at run end: `profile` records in
//! the JSONL manifest (one per path) and, for humans,
//! [`render_table`] — a text table sorted by self time, the direct
//! "where did the wall clock go" answer.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::json::JsonObject;

/// One aggregated span path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Slash-joined span ancestry.
    pub path: String,
    /// Number of times a span with this path closed.
    pub calls: u64,
    /// Total wall time across all calls, nanoseconds.
    pub total_ns: u64,
    /// Total minus time attributed to child spans, nanoseconds.
    pub self_ns: u64,
}

#[derive(Default)]
struct PathStat {
    calls: u64,
    total_ns: u64,
    child_ns: u64,
}

/// Accumulates closing spans into per-path totals. Thread-safe; one
/// lives in the installed run when profiling is enabled.
#[derive(Default)]
pub struct Profiler {
    stats: Mutex<HashMap<String, PathStat>>,
}

impl Profiler {
    /// A fresh, empty profiler.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Fold one closing span in: `parent` is the path of the span it
    /// closed inside (`None` at top level).
    pub fn record(&self, path: &str, parent: Option<&str>, wall_ns: u64) {
        let mut stats = self.stats.lock().unwrap_or_else(|e| e.into_inner());
        {
            let entry = stats.entry(path.to_string()).or_default();
            entry.calls += 1;
            entry.total_ns = entry.total_ns.saturating_add(wall_ns);
        }
        if let Some(parent) = parent {
            let entry = stats.entry(parent.to_string()).or_default();
            entry.child_ns = entry.child_ns.saturating_add(wall_ns);
        }
    }

    /// Materialize the aggregate, sorted by self time descending (ties
    /// broken by path, so output is deterministic).
    pub(crate) fn snapshot(&self) -> Vec<ProfileEntry> {
        let stats = self.stats.lock().unwrap_or_else(|e| e.into_inner());
        let mut entries: Vec<ProfileEntry> = stats
            .iter()
            .map(|(path, s)| ProfileEntry {
                path: path.clone(),
                calls: s.calls,
                total_ns: s.total_ns,
                self_ns: s.total_ns.saturating_sub(s.child_ns),
            })
            .collect();
        entries.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.path.cmp(&b.path)));
        entries
    }
}

impl ProfileEntry {
    /// Render the manifest `profile` record for this entry.
    pub fn to_manifest_record(&self) -> String {
        JsonObject::new()
            .str("type", "profile")
            .str("path", &self.path)
            .uint("calls", self.calls)
            .uint("total_ns", self.total_ns)
            .uint("self_ns", self.self_ns)
            .finish()
    }
}

/// Render the hot-path table: one row per path, sorted as given
/// (snapshot order = self time descending). Every parent a span names
/// is a span that closes, so a row has zero calls only while its span is
/// still open when the table is taken. An empty slice renders an
/// explanatory one-liner instead of an empty table.
pub fn render_table(entries: &[ProfileEntry]) -> String {
    if entries.is_empty() {
        return "profile: no spans recorded\n".to_string();
    }
    let mut out = String::from(
        "hot paths (self time, descending):\n      self ms     total ms        calls  path\n",
    );
    for e in entries {
        out.push_str(&format!(
            "  {:>11.3}  {:>11.3}  {:>11}  {}\n",
            e.self_ns as f64 / 1e6,
            e.total_ns as f64 / 1e6,
            e.calls,
            e.path,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let p = Profiler::new();
        // Two "sweep/simulate" children inside one "sweep" parent.
        p.record("sweep/simulate", Some("sweep"), 300);
        p.record("sweep/simulate", Some("sweep"), 200);
        p.record("sweep", None, 1000);
        let entries = p.snapshot();
        let sweep = entries.iter().find(|e| e.path == "sweep").unwrap();
        assert_eq!(sweep.calls, 1);
        assert_eq!(sweep.total_ns, 1000);
        assert_eq!(sweep.self_ns, 500);
        let sim = entries.iter().find(|e| e.path == "sweep/simulate").unwrap();
        assert_eq!(sim.calls, 2);
        assert_eq!(sim.total_ns, 500);
        assert_eq!(sim.self_ns, 500);
    }

    #[test]
    fn snapshot_sorts_by_self_time_then_path() {
        let p = Profiler::new();
        p.record("b", None, 10);
        p.record("a", None, 10);
        p.record("c", None, 99);
        let entries = p.snapshot();
        let paths: Vec<&str> = entries.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(paths, ["c", "a", "b"]);
    }

    #[test]
    fn self_time_saturates_instead_of_underflowing() {
        let p = Profiler::new();
        // Concurrent children can report more wall time than the parent.
        p.record("par/child", Some("par"), 800);
        p.record("par/child", Some("par"), 800);
        p.record("par", None, 1000);
        let par = p.snapshot().into_iter().find(|e| e.path == "par").unwrap();
        assert_eq!(par.self_ns, 0);
    }

    #[test]
    fn table_renders_every_path() {
        let p = Profiler::new();
        p.record("fit/train", Some("fit"), 2_000_000);
        p.record("fit", None, 3_000_000);
        let table = render_table(&p.snapshot());
        assert!(table.contains("fit/train"), "{table}");
        assert!(table.contains("hot paths"), "{table}");
        assert_eq!(render_table(&[]), "profile: no spans recorded\n");
    }

    #[test]
    fn manifest_record_has_profile_shape() {
        let e = ProfileEntry {
            path: "a/b".into(),
            calls: 3,
            total_ns: 500,
            self_ns: 200,
        };
        let v = crate::json::parse(&e.to_manifest_record()).expect("parses");
        use crate::json::Value;
        assert_eq!(v.get("type").and_then(Value::as_str), Some("profile"));
        assert_eq!(v.get("path").and_then(Value::as_str), Some("a/b"));
        assert_eq!(v.get("calls").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("self_ns").and_then(Value::as_u64), Some(200));
    }
}
