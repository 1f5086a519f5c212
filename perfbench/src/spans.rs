//! In-memory spans for the traced run, recorded by the benchmark
//! around its calls into each layer and written out at the end as a
//! Chrome trace.

use clustered_stats::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a span; children name their parent by it.
pub type SpanId = u64;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// The enclosing span, `None` for a root.
    pub parent: Option<SpanId>,
    /// The layer: `setup`, `capture`, `compile`, `sweep`, `point`,
    /// `warmup`, `measure` or `export`.
    pub name: &'static str,
    /// What the span worked on (a trace or point label).
    pub label: String,
    /// The sweep worker that ran it (0 on the calling thread).
    pub tid: usize,
    /// Start, in nanoseconds since the recorder was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was made.
    pub end_ns: u64,
}

/// A thread-safe span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves an id for a span whose children are recorded before
    /// it closes.
    pub fn new_id(&self) -> SpanId {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a closed span under a fresh id and returns the id.
    pub fn record(
        &self,
        name: &'static str,
        label: &str,
        parent: Option<SpanId>,
        tid: usize,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.new_id();
        self.record_with_id(id, name, label, parent, tid, start, end);
        id
    }

    /// Records a closed span under an id from [`Spans::new_id`].
    #[allow(clippy::too_many_arguments)]
    pub fn record_with_id(
        &self,
        id: SpanId,
        name: &'static str,
        label: &str,
        parent: Option<SpanId>,
        tid: usize,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        let span = Span {
            id,
            parent,
            name,
            label: label.to_string(),
            tid,
            start_ns: at(start),
            end_ns: at(end),
        };
        self.spans
            .lock()
            .expect("a span recorder user panicked")
            .push(span);
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a span recorder user panicked")
            .clone()
    }

    /// The spans as a Chrome-trace document (`ph: "X"` complete
    /// events, microsecond timestamps; `args` carry id, parent and
    /// label).
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans()
            .into_iter()
            .map(|s| {
                let mut args = Json::object()
                    .set("id", s.id)
                    .set("label", s.label.as_str());
                if let Some(parent) = s.parent {
                    args = args.set("parent", parent);
                }
                Json::object()
                    .set("name", s.name)
                    .set("cat", "perfbench")
                    .set("ph", "X")
                    .set("ts", s.start_ns as f64 / 1e3)
                    .set("dur", s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)
                    .set("pid", 1u64)
                    .set("tid", s.tid)
                    .set("args", args)
            })
            .collect();
        Json::object()
            .set("traceEvents", Json::Arr(events))
            .set("displayTimeUnit", "ns")
    }

    /// Per layer name: the summed self time of its spans and how many
    /// there are. A span's self time is its duration minus the part of
    /// it covered by its children (overlapping children on different
    /// workers count once).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let spans = self.spans();
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(parent) = s.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &spans {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let entry = out.entry(s.name).or_default();
            entry.0 += s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
            entry.1 += 1;
        }
        out
    }
}

/// Length of the union of `intervals` clipped to `lo..hi`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_count_once() {
        assert_eq!(covered_ns(&[(10, 30), (20, 40), (50, 60)], 0, 100), 40);
        assert_eq!(covered_ns(&[(0, 200)], 50, 100), 50);
        assert_eq!(covered_ns(&[], 0, 100), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = Spans::new();
        let t0 = spans.origin;
        let at = |ns| t0 + std::time::Duration::from_nanos(ns);
        let root = spans.new_id();
        spans.record("point", "a", Some(root), 0, at(10), at(40));
        spans.record("point", "b", Some(root), 1, at(30), at(60));
        spans.record_with_id(root, "sweep", "", None, 0, at(0), at(100));
        let times = spans.self_times();
        assert_eq!(times["sweep"], (50, 1));
        assert_eq!(times["point"], (60, 2));
        let doc = spans.chrome_trace();
        assert_eq!(
            doc.get("traceEvents")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(3)
        );
    }
}
