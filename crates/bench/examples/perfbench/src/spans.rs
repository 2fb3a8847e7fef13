//! In-memory span recorder for the traced run.
//!
//! Spans are opened by the benchmark around each public call its timed
//! phase makes into a layer (`cpusim`, `dse`, `serve`), kept in memory,
//! and written as JSONL when the run ends. A span's self time is its
//! duration minus the part of it that its child spans cover.
//! With tracing off, opening a span reads no clock and records nothing.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use telemetry::json::JsonObject;

/// One closed span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id, starting at 1.
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// What was called.
    pub name: &'static str,
    /// Layer the call enters.
    pub layer: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
    /// Repetition of the timed phase the span belongs to.
    pub rep: u32,
    /// Request id, for per-request serve spans.
    pub req: Option<u64>,
}

/// Collects spans from any thread.
pub struct Recorder {
    on: bool,
    workload: String,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; recorded when dropped.
pub struct Open<'a> {
    rec: &'a Recorder,
    id: u64,
    parent: u64,
    name: &'static str,
    layer: &'static str,
    rep: u32,
    start: Option<Instant>,
}

impl Recorder {
    /// A recorder for `workload`; `on == false` makes every call a no-op.
    pub fn new(workload: &str, on: bool) -> Recorder {
        Recorder {
            on,
            workload: workload.to_string(),
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being kept.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Open a span named `name` in `layer`, caused by span `parent`.
    pub fn open(&self, name: &'static str, layer: &'static str, parent: u64, rep: u32) -> Open<'_> {
        Open {
            rec: self,
            id: if self.on { self.fresh_id() } else { 0 },
            parent,
            name,
            layer,
            rep,
            start: self.on.then(Instant::now),
        }
    }

    /// Record a span whose interval was measured by the caller, such as a
    /// request timed from its scheduled send time to its response.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: u64,
        rep: u32,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let span = Span {
            id: self.fresh_id(),
            parent,
            name,
            layer,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            rep,
            req: Some(req),
        };
        self.push(span);
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span list poisoned: a thread panicked while recording")
            .push(span);
    }

    /// Every span closed so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned: a thread panicked while recording")
            .clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans() {
            let mut obj = JsonObject::new()
                .uint("id", s.id)
                .uint("parent", s.parent)
                .str("name", s.name)
                .str("layer", s.layer)
                .uint("start_ns", s.start_ns)
                .uint("end_ns", s.end_ns)
                .str("workload", &self.workload)
                .uint("rep", u64::from(s.rep));
            if let Some(r) = s.req {
                obj = obj.uint("req", r);
            }
            out.push_str(&obj.finish());
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

impl Open<'_> {
    /// This span's id, to pass as the parent of spans it causes (0 when
    /// tracing is off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            layer: self.layer,
            start_ns: self.rec.ns(start),
            end_ns: self.rec.ns(Instant::now()),
            rep: self.rep,
            req: None,
        };
        self.rec.push(span);
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to its own), so children that ran in
/// parallel are not subtracted twice.
#[cfg(test)]
fn self_times(spans: &[Span]) -> Vec<(u64, u64)> {
    self_intervals(spans)
        .into_iter()
        .map(|(id, iv)| (id, iv.iter().map(|(a, b)| b - a).sum()))
        .collect()
}

/// Sort intervals and merge the overlapping ones.
fn merge(mut iv: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    iv.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
    for (a, b) in iv {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// Each span's own intervals: its interval minus its children's.
fn self_intervals(spans: &[Span]) -> Vec<(u64, Vec<(u64, u64)>)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or_else(Vec::new, |v| {
                v.iter()
                    .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                    .filter(|(a, b)| a < b)
                    .collect()
            });
            let mut own = Vec::new();
            let mut at = s.start_ns;
            for (a, b) in merge(kids) {
                if a > at {
                    own.push((at, a));
                }
                at = b;
            }
            if s.end_ns > at {
                own.push((at, s.end_ns));
            }
            (s.id, own)
        })
        .collect()
}

/// Seconds during which each layer ran its own code: the union of its
/// spans' self intervals. Concurrent spans of one layer (requests in
/// flight together) count once, so no layer exceeds the traced wall time.
pub fn self_seconds_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let layer_of: HashMap<u64, &'static str> = spans.iter().map(|s| (s.id, s.layer)).collect();
    let mut by_layer: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
    for (id, own) in self_intervals(spans) {
        by_layer.entry(layer_of[&id]).or_default().extend(own);
    }
    by_layer
        .into_iter()
        .map(|(l, iv)| {
            (
                l,
                merge(iv).iter().map(|(a, b)| b - a).sum::<u64>() as f64 * 1e-9,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            layer: if parent == 0 { "bench" } else { "cpusim" },
            start_ns,
            end_ns,
            rep: 0,
            req: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100; children 10..40 and 30..60 overlap (parallel
        // workers) and 90..120 sticks out past the parent's end.
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            span(4, 1, 90, 120),
        ];
        let selfs: HashMap<u64, u64> = self_times(&spans).into_iter().collect();
        assert_eq!(selfs[&1], 100 - 50 - 10);
        assert_eq!(selfs[&2], 30);
        for s in &spans {
            assert!(
                selfs[&s.id] <= s.end_ns - s.start_ns,
                "self exceeds duration"
            );
        }
    }

    #[test]
    fn recorded_spans_nest_across_threads_and_self_fits_in_wall_times_threads() {
        let rec = Recorder::new("sweep", true);
        let t0 = Instant::now();
        {
            let root = rec.open("rep", "bench", 0, 0);
            let root_id = root.id();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        let outer = rec.open("sweep", "cpusim", root_id, 0);
                        std::thread::sleep(Duration::from_millis(5));
                        let _inner = rec.open("core", "cpusim", outer.id(), 0);
                        std::thread::sleep(Duration::from_millis(5));
                    });
                }
            });
        }
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let spans = rec.spans();
        assert_eq!(spans.len(), 5);
        let root = spans.iter().find(|s| s.parent == 0).expect("root span");
        assert_eq!(spans.iter().filter(|s| s.parent == root.id).count(), 2);
        let total_self: u64 = self_times(&spans).iter().map(|&(_, ns)| ns).sum();
        assert!(
            total_self <= wall_ns * 2,
            "summed self {total_self} ns exceeds wall {wall_ns} ns x 2 threads"
        );
        for (id, ns) in self_times(&spans) {
            let s = spans.iter().find(|s| s.id == id).expect("span");
            assert!(ns <= s.end_ns - s.start_ns);
        }
        let by_layer = self_seconds_by_layer(&spans);
        assert!(by_layer["cpusim"] > 0.0);
        assert!(by_layer.values().sum::<f64>() <= wall_ns as f64 * 1e-9 * 2.0);
    }

    #[test]
    fn concurrent_spans_of_a_layer_count_once() {
        // Two requests in flight together (10..60 and 30..80) under a
        // step span 0..100: the layer ran for 0..100, not 150 ns.
        let mut spans = vec![span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 1, 30, 80)];
        for s in &mut spans {
            s.layer = "serve";
        }
        let by_layer = self_seconds_by_layer(&spans);
        assert!((by_layer["serve"] - 100e-9).abs() < 1e-15, "{by_layer:?}");
        let summed: u64 = self_times(&spans).iter().map(|&(_, ns)| ns).sum();
        assert_eq!(summed, 30 + 50 + 50, "per-span self times still add up");
    }

    #[test]
    fn an_off_recorder_keeps_nothing() {
        let rec = Recorder::new("serve", false);
        {
            let s = rec.open("rep", "bench", 0, 0);
            assert_eq!(s.id(), 0);
            let now = Instant::now();
            rec.record("request", "serve", 0, 0, 7, now, now);
        }
        assert!(rec.spans().is_empty());
    }
}
