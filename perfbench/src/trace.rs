//! The benchmark's own spans.
//!
//! Each timed call into a program crate is wrapped in [`Tracer::time`],
//! which measures it with `Instant` in both modes. When tracing is on, the
//! call is also recorded as a span: metric name, start and end relative to
//! the run's start, the parent span if any, and the vector or request it
//! served. Spans stay in memory and are written as JSON lines at exit,
//! followed by one summary line per name with total and self time (a span
//! minus the part of it its children cover).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span ID, unique within a run.
    pub id: u64,
    /// The parent span, if any.
    pub parent: Option<u64>,
    /// Metric name the span feeds.
    pub name: String,
    /// The vector or request the span served (`u64::MAX` for none).
    pub key: u64,
    /// Start offset in nanoseconds.
    pub start_ns: u64,
    /// End offset in nanoseconds.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Marks a span as belonging to no particular vector or request.
pub const NO_KEY: u64 = u64::MAX;

/// Span recorder; inert (timing only) when disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    next_id: u64,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
        }
    }

    /// Switches recording on or off (spans already recorded are kept).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Times `f`, recording a span named `name` for `key`. Returns the
    /// result and the elapsed time.
    pub fn time<R>(&mut self, name: &str, key: u64, f: impl FnOnce() -> R) -> (R, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, key, start, end);
        (out, end - start)
    }

    /// Records an already-measured interval as a top-level span (used for
    /// intervals timed on other threads). Returns its ID when recording.
    pub fn record(&mut self, name: &str, key: u64, start: Instant, end: Instant) -> Option<u64> {
        self.push(None, name, key, start, end)
    }

    /// Records an interval as a child of `parent`.
    pub fn record_child(
        &mut self,
        parent: u64,
        name: &str,
        key: u64,
        start: Instant,
        end: Instant,
    ) {
        self.push(Some(parent), name, key, start, end);
    }

    fn push(
        &mut self,
        parent: Option<u64>,
        name: &str,
        key: u64,
        start: Instant,
        end: Instant,
    ) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            key,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        Some(id)
    }

    /// Recorded spans, in completion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, then one `summary` line per name.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let key = if s.key == NO_KEY {
                "null".to_string()
            } else {
                s.key.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"kind\":\"span\",\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"key\":{key},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            );
        }
        for (name, (count, total, own)) in summarize(&self.spans) {
            let _ = writeln!(
                out,
                "{{\"kind\":\"summary\",\"name\":\"{name}\",\"count\":{count},\"total_ns\":{total},\
                 \"self_ns\":{own}}}"
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the union of the intervals
/// its direct children cover (clipped to the span).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Per name: `(count, total_ns, self_ns)`.
pub fn summarize(spans: &[Span]) -> BTreeMap<String, (u64, u64, u64)> {
    let own = self_times(spans);
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += own[&s.id];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            key: NO_KEY,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),  // overlaps 2: union is 10..50
            span(4, Some(1), 90, 130), // clipped to 90..100
            span(5, Some(2), 10, 30),  // grandchild: not subtracted from 1
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 40 - 10);
        assert_eq!(own[&2], 0);
        assert_eq!(own[&3], 30);
    }

    #[test]
    fn child_spans_record_their_parent_and_key() {
        let mut t = Tracer::new(true);
        let t0 = Instant::now();
        let (t1, t2, t3) = (
            t0 + Duration::from_micros(10),
            t0 + Duration::from_micros(20),
            t0 + Duration::from_micros(50),
        );
        let outer = t.record("outer", 7, t0, t3).unwrap();
        t.record_child(outer, "inner", 7, t1, t2);
        let ((), _) = t.time("timed", NO_KEY, || ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        let (outer, inner) = (&s[0], &s[1]);
        assert_eq!(
            (outer.name.as_str(), inner.name.as_str()),
            ("outer", "inner")
        );
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(s[2].parent, None);
        assert_eq!(inner.key, 7);
        assert_eq!(inner.duration_ns(), 10_000);
        assert_eq!(self_times(s)[&outer.id], 50_000 - 10_000);
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 6, "three spans and three summaries");
        assert!(text.contains("\"kind\":\"summary\",\"name\":\"outer\",\"count\":1"));
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, d) = t.time("x", NO_KEY, || 5);
        assert_eq!(v, 5);
        assert!(d >= Duration::ZERO);
        assert!(t
            .record("y", NO_KEY, Instant::now(), Instant::now())
            .is_none());
        assert!(t.spans().is_empty());
    }
}
