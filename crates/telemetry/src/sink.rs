//! Pluggable output sinks for telemetry events.
//!
//! Two sinks ship with the crate: [`ConsoleSink`] prints human-readable
//! lines to stderr (verbosity from the `PERFPREDICT_LOG` env var or the
//! CLI `--trace` flag), and [`JsonlSink`] appends one JSON object per
//! line to a run-manifest file that `telemetry::json::parse` (and any
//! external tool) can read back. Sinks receive every event while a run is
//! installed plus a final [`RunSummary`] when the run finishes.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, SystemTime};

use crate::hist::Histogram;
use crate::json::JsonObject;
use crate::profile::ProfileEntry;

/// Console verbosity, parsed from `PERFPREDICT_LOG`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ConsoleLevel {
    /// No console output (default).
    Off,
    /// Top-level spans, progress, and the run summary.
    Info,
    /// Every span, point, and progress tick.
    Debug,
}

impl ConsoleLevel {
    /// Read the level from the `PERFPREDICT_LOG` environment variable
    /// (`off` / `info` / `debug`, case-insensitive; unset means off).
    pub(crate) fn from_env() -> Self {
        match std::env::var("PERFPREDICT_LOG") {
            Ok(v) => match v.to_ascii_lowercase().as_str() {
                "info" | "1" => ConsoleLevel::Info,
                "debug" | "trace" | "2" => ConsoleLevel::Debug,
                _ => ConsoleLevel::Off,
            },
            Err(_) => ConsoleLevel::Off,
        }
    }
}

/// One telemetry occurrence, borrowed from the emitting site.
#[derive(Debug)]
pub enum Event<'a> {
    /// A timed span closed.
    SpanClose {
        /// Slash-joined ancestry, e.g. `sweep/simulate`.
        path: &'a str,
        /// Nesting depth (1 = top level).
        depth: usize,
        /// Span wall time in nanoseconds.
        wall_ns: u64,
        /// Key/value attributes captured at span entry.
        attrs: &'a [(&'static str, String)],
    },
    /// An instantaneous named observation (epoch loss, prune decision…).
    Point {
        /// Event name, e.g. `prune/accept`.
        name: &'a str,
        /// Key/value attributes.
        attrs: &'a [(&'static str, String)],
    },
    /// A progress tick on a long-running stage.
    Progress {
        /// Stage name.
        name: &'a str,
        /// Units completed so far.
        done: u64,
        /// Total units (0 when unknown).
        total: u64,
    },
}

/// Final rollup handed to sinks (and returned to the caller) at run end.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Run label (the CLI subcommand or binary name).
    pub label: String,
    /// Total installed wall time.
    pub wall: Duration,
    /// Counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Streaming-histogram snapshots, sorted by name.
    pub hists: Vec<(String, Histogram)>,
    /// Span-profile rows (self time descending); empty unless the run
    /// was installed with profiling enabled.
    pub profile: Vec<ProfileEntry>,
}

/// Render a nanosecond quantity at a human scale (`420ns`, `3.1µs`,
/// `2.45ms`, `1.20s`).
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

impl RunSummary {
    /// Compact single-line rendering for the end of repro binaries.
    /// Histograms report the tail the daemon SLOs care about:
    /// `name{n=.. p50=.. p95=.. p99=..}`.
    pub fn one_line(&self) -> String {
        let mut line = format!("[{}] done in {:.2}s", self.label, self.wall.as_secs_f64());
        if !self.counters.is_empty() {
            let kv: Vec<String> = self
                .counters
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            line.push_str(&format!(" | {}", kv.join(" ")));
        }
        if !self.gauges.is_empty() {
            let kv: Vec<String> = self
                .gauges
                .iter()
                .map(|(k, v)| format!("{k}={v:.4}"))
                .collect();
            line.push_str(&format!(" | {}", kv.join(" ")));
        }
        if !self.hists.is_empty() {
            let kv: Vec<String> = self
                .hists
                .iter()
                .map(|(k, h)| {
                    format!(
                        "{k}{{n={} p50={} p95={} p99={}}}",
                        h.count(),
                        fmt_ns(h.quantile(0.50)),
                        fmt_ns(h.quantile(0.95)),
                        fmt_ns(h.quantile(0.99)),
                    )
                })
                .collect();
            line.push_str(&format!(" | {}", kv.join(" ")));
        }
        line
    }
}

/// Receiver for telemetry events during a run.
pub(crate) trait Sink: Send + Sync {
    /// Record one event; `t_ms` is milliseconds since run start.
    fn record(&self, t_ms: f64, event: &Event<'_>);
    /// The run finished; flush any buffered output.
    fn run_end(&self, summary: &RunSummary);
}

/// Human-readable stderr sink.
#[derive(Debug)]
pub(crate) struct ConsoleSink {
    level: ConsoleLevel,
}

impl ConsoleSink {
    /// A console sink at the given verbosity.
    pub fn new(level: ConsoleLevel) -> Self {
        ConsoleSink { level }
    }
}

fn fmt_attrs(attrs: &[(&'static str, String)]) -> String {
    if attrs.is_empty() {
        return String::new();
    }
    let kv: Vec<String> = attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!(" {}", kv.join(" "))
}

impl Sink for ConsoleSink {
    fn record(&self, t_ms: f64, event: &Event<'_>) {
        match event {
            Event::SpanClose {
                path,
                depth,
                wall_ns,
                attrs,
            } => {
                if self.level >= ConsoleLevel::Debug
                    || (self.level >= ConsoleLevel::Info && *depth <= 1)
                {
                    eprintln!(
                        "[perfpredict +{t_ms:9.1}ms] span  {path} {:.2}ms{}",
                        *wall_ns as f64 / 1e6,
                        fmt_attrs(attrs),
                    );
                }
            }
            Event::Point { name, attrs } => {
                if self.level >= ConsoleLevel::Debug {
                    eprintln!(
                        "[perfpredict +{t_ms:9.1}ms] point {name}{}",
                        fmt_attrs(attrs)
                    );
                }
            }
            Event::Progress { name, done, total } => {
                if self.level >= ConsoleLevel::Info {
                    if *total > 0 {
                        eprintln!(
                            "[perfpredict +{t_ms:9.1}ms] {name}: {done}/{total} ({:.0}%)",
                            *done as f64 / *total as f64 * 100.0
                        );
                    } else {
                        eprintln!("[perfpredict +{t_ms:9.1}ms] {name}: {done}");
                    }
                }
            }
        }
    }

    fn run_end(&self, summary: &RunSummary) {
        if self.level >= ConsoleLevel::Info {
            eprintln!("[perfpredict] {}", summary.one_line());
        }
    }
}

/// JSON-lines run-manifest sink.
///
/// Line types (`"type"` field): `meta`, `span`, `point`, `progress`,
/// `counter`, `gauge`, `histogram`, `profile`, `summary`. All
/// timestamps are milliseconds since run start except the meta line's
/// `unix_ms`.
pub(crate) struct JsonlSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Create (truncate) the manifest at `path` and write the meta line.
    pub fn create(path: &Path, label: &str, meta: &[(String, String)]) -> io::Result<Self> {
        let file = File::create(path)?;
        let mut obj = JsonObject::new()
            .str("type", "meta")
            .str("schema", "perfpredict.telemetry/v1")
            .str("label", label)
            .uint(
                "unix_ms",
                SystemTime::now()
                    .duration_since(SystemTime::UNIX_EPOCH)
                    .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
                    .unwrap_or(0),
            );
        for (k, v) in meta {
            // Numeric-looking metadata (seeds, rates) stays numeric.
            obj = match v.parse::<f64>() {
                Ok(x) if x.is_finite() => obj.num(k, x),
                _ => obj.str(k, v),
            };
        }
        let sink = JsonlSink {
            out: Mutex::new(BufWriter::new(file)),
        };
        sink.write_line(&obj.finish());
        Ok(sink)
    }

    fn write_line(&self, line: &str) {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(out, "{line}");
    }
}

fn attrs_json(attrs: &[(&'static str, String)]) -> String {
    let mut obj = JsonObject::new();
    for (k, v) in attrs {
        // Numeric-looking attribute values stay numbers in the manifest.
        obj = match v.parse::<f64>() {
            Ok(x) if x.is_finite() => obj.num(k, x),
            _ => obj.str(k, v),
        };
    }
    obj.finish()
}

impl Sink for JsonlSink {
    fn record(&self, t_ms: f64, event: &Event<'_>) {
        let line = match event {
            Event::SpanClose {
                path,
                depth,
                wall_ns,
                attrs,
            } => JsonObject::new()
                .str("type", "span")
                .num("t_ms", t_ms)
                .str("path", path)
                .usize("depth", *depth)
                .num("wall_ms", *wall_ns as f64 / 1e6)
                .raw("attrs", &attrs_json(attrs))
                .finish(),
            Event::Point { name, attrs } => JsonObject::new()
                .str("type", "point")
                .num("t_ms", t_ms)
                .str("name", name)
                .raw("attrs", &attrs_json(attrs))
                .finish(),
            Event::Progress { name, done, total } => JsonObject::new()
                .str("type", "progress")
                .num("t_ms", t_ms)
                .str("name", name)
                .uint("done", *done)
                .uint("total", *total)
                .finish(),
        };
        self.write_line(&line);
    }

    fn run_end(&self, summary: &RunSummary) {
        for (name, value) in &summary.counters {
            self.write_line(
                &JsonObject::new()
                    .str("type", "counter")
                    .str("name", name)
                    .uint("value", *value)
                    .finish(),
            );
        }
        for (name, value) in &summary.gauges {
            self.write_line(
                &JsonObject::new()
                    .str("type", "gauge")
                    .str("name", name)
                    .num("value", *value)
                    .finish(),
            );
        }
        for (name, h) in &summary.hists {
            self.write_line(&h.to_manifest_record(name));
        }
        for entry in &summary.profile {
            self.write_line(&entry.to_manifest_record());
        }
        self.write_line(
            &JsonObject::new()
                .str("type", "summary")
                .str("label", &summary.label)
                .num("wall_ms", summary.wall.as_secs_f64() * 1e3)
                .finish(),
        );
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        let _ = out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn console_level_ordering() {
        assert!(ConsoleLevel::Debug > ConsoleLevel::Info);
        assert!(ConsoleLevel::Info > ConsoleLevel::Off);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path = std::env::temp_dir().join("telemetry_sink_unit_test.jsonl");
        let sink = JsonlSink::create(&path, "unit", &[("seed".to_string(), "42".to_string())])
            .expect("create manifest");
        sink.record(
            1.5,
            &Event::SpanClose {
                path: "a/b",
                depth: 2,
                wall_ns: 2_000_000,
                attrs: &[("model", "LR-B".to_string()), ("rate", "2".to_string())],
            },
        );
        sink.record(
            2.0,
            &Event::Progress {
                name: "sweep",
                done: 3,
                total: 10,
            },
        );
        let mut lat = Histogram::new();
        for v in [1_000u64, 2_000, 4_000] {
            lat.observe(v);
        }
        sink.run_end(&RunSummary {
            label: "unit".into(),
            wall: Duration::from_millis(250),
            counters: vec![("sim/windows".into(), 7)],
            gauges: vec![("loss".into(), 0.5)],
            hists: vec![("serve/latency_ns".into(), lat.clone())],
            profile: vec![ProfileEntry {
                path: "a/b".into(),
                calls: 2,
                total_ns: 2_000_000,
                self_ns: 1_500_000,
            }],
        });
        drop(sink);

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 8);
        let types: Vec<String> = lines
            .iter()
            .map(|l| {
                parse(l)
                    .expect("line parses")
                    .get("type")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(
            types,
            [
                "meta",
                "span",
                "progress",
                "counter",
                "gauge",
                "histogram",
                "profile",
                "summary"
            ]
        );
        // The histogram record round-trips through the parser.
        let (hname, hback) =
            Histogram::from_manifest(&parse(lines[5]).unwrap()).expect("histogram decodes");
        assert_eq!(hname, "serve/latency_ns");
        assert_eq!(hback, lat);
        let span = parse(lines[1]).unwrap();
        assert_eq!(span.get("path").unwrap().as_str(), Some("a/b"));
        assert_eq!(
            span.get("attrs").unwrap().get("rate").unwrap().as_u64(),
            Some(2)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn summary_one_line_mentions_counters() {
        let s = RunSummary {
            label: "repro_fig2".into(),
            wall: Duration::from_secs(3),
            counters: vec![("train/epochs".into(), 120)],
            gauges: vec![],
            hists: vec![],
            profile: vec![],
        };
        let line = s.one_line();
        assert!(line.contains("repro_fig2"));
        assert!(line.contains("train/epochs=120"));
    }

    #[test]
    fn summary_one_line_includes_histogram_tail() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.observe(v * 1_000_000); // 1..=100 ms
        }
        let s = RunSummary {
            label: "serve".into(),
            wall: Duration::from_secs(1),
            counters: vec![],
            gauges: vec![],
            hists: vec![("serve/latency_ns".into(), h)],
            profile: vec![],
        };
        let line = s.one_line();
        assert!(line.contains("serve/latency_ns{n=100 p50="), "{line}");
        assert!(line.contains("p99="), "{line}");
    }

    #[test]
    fn fmt_ns_picks_human_scales() {
        assert_eq!(fmt_ns(420), "420ns");
        assert_eq!(fmt_ns(3_100), "3.1µs");
        assert_eq!(fmt_ns(2_450_000), "2.45ms");
        assert_eq!(fmt_ns(1_200_000_000), "1.20s");
    }
}
