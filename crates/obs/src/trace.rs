//! [`ObsRecorder`] — the full recorder with span events and exporters.

use std::time::Instant;

use crate::escape_json;
use crate::recorder::Recorder;
use crate::registry::Registry;

/// Default cap on retained span events per recorder (~32 MiB worst
/// case); overflowing spans still feed the duration histograms but are
/// dropped from the trace, counted in
/// [`ObsRecorder::dropped_events`].
pub const DEFAULT_MAX_EVENTS: usize = 1 << 20;

/// One completed span: a Chrome trace-event `"X"` (complete) record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// The span's name.
    pub name: &'static str,
    /// Start, in microseconds since the recorder's epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// The recording shard's thread id.
    pub tid: u32,
}

/// The full observability recorder: nested spans timed against a shared
/// epoch and a metrics [`Registry`], with Chrome-trace / JSONL / summary
/// exporters.
///
/// Worker threads record into [`shard`](ObsRecorder::shard)s (same
/// epoch, distinct `tid`) that [`merge`](ObsRecorder::merge) back into
/// the parent, so a multi-threaded run exports one coherent timeline.
///
/// Every span end also records the span's duration (µs) into the
/// registry histogram of the same name, so aggregate span statistics
/// survive even when the event cap drops individual events.
#[derive(Debug, Clone)]
pub struct ObsRecorder {
    registry: Registry,
    events: Vec<SpanEvent>,
    stack: Vec<(&'static str, u64)>,
    epoch: Instant,
    tid: u32,
    max_events: usize,
    dropped: u64,
}

impl Default for ObsRecorder {
    fn default() -> ObsRecorder {
        ObsRecorder::new()
    }
}

impl ObsRecorder {
    /// A fresh recorder with its epoch at "now" and `tid` 0.
    pub fn new() -> ObsRecorder {
        ObsRecorder::with_epoch(Instant::now(), 0)
    }

    /// A recorder timing against an existing `epoch` under `tid` — what
    /// [`shard`](ObsRecorder::shard) uses for worker threads.
    pub fn with_epoch(epoch: Instant, tid: u32) -> ObsRecorder {
        ObsRecorder {
            registry: Registry::new(),
            events: Vec::new(),
            stack: Vec::new(),
            epoch,
            tid,
            max_events: DEFAULT_MAX_EVENTS,
            dropped: 0,
        }
    }

    /// The recorder's epoch (spans are timed relative to it).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// The recorder's thread id.
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// A fresh shard sharing this recorder's epoch under a new `tid`.
    pub fn shard(&self, tid: u32) -> ObsRecorder {
        let mut s = ObsRecorder::with_epoch(self.epoch, tid);
        s.max_events = self.max_events;
        s
    }

    /// Caps the number of retained span events.
    pub fn set_max_events(&mut self, max_events: usize) {
        self.max_events = max_events;
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Mutable access to the registry (for adapters that record directly).
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// All retained span events.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Span events dropped by the event cap.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    #[inline]
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Folds a shard into this recorder: events concatenate (re-sorted by
    /// start time for a deterministic timeline), registries merge,
    /// drop counts add. Unclosed spans on the shard's stack are
    /// discarded.
    pub fn merge(&mut self, other: ObsRecorder) {
        for ev in other.events {
            if self.events.len() < self.max_events {
                self.events.push(ev);
            } else {
                self.dropped += 1;
            }
        }
        self.events
            .sort_by_key(|e| (e.start_us, e.tid, e.dur_us, e.name));
        self.registry.merge(&other.registry);
        self.dropped += other.dropped;
    }

    /// Chrome trace-event JSON (object format, `"X"` complete events),
    /// loadable in `chrome://tracing` and Perfetto.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"obs\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
                escape_json(ev.name),
                ev.start_us,
                ev.dur_us,
                ev.tid
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// A JSONL event stream: one JSON object per line — every retained
    /// span, then final counter / gauge / histogram records, then a
    /// `meta` line when the event cap dropped spans.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.events.iter() {
            out.push_str(&format!(
                "{{\"type\":\"span\",\"name\":\"{}\",\"ts_us\":{},\"dur_us\":{},\"tid\":{}}}\n",
                escape_json(ev.name),
                ev.start_us,
                ev.dur_us,
                ev.tid
            ));
        }
        for (name, v) in self.registry.counters() {
            out.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{v}}}\n",
                escape_json(name)
            ));
        }
        for (name, g) in self.registry.gauges() {
            out.push_str(&format!(
                "{{\"type\":\"gauge\",\"name\":\"{}\",\"last\":{},\"max\":{}}}\n",
                escape_json(name),
                g.last,
                g.max
            ));
        }
        for (name, h) in self.registry.histograms() {
            out.push_str(&format!(
                "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p99\":{}}}\n",
                escape_json(name),
                h.count(),
                h.sum(),
                h.min().unwrap_or(0),
                h.max().unwrap_or(0),
                h.quantile(0.5),
                h.quantile(0.99)
            ));
        }
        if self.dropped > 0 {
            out.push_str(&format!(
                "{{\"type\":\"meta\",\"name\":\"obs.spans_dropped\",\"value\":{}}}\n",
                self.dropped
            ));
        }
        out
    }

    /// A human-readable summary table of the registry plus span totals.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "observability summary ({} span events{}):\n",
            self.events.len(),
            if self.dropped > 0 {
                format!(", {} dropped", self.dropped)
            } else {
                String::new()
            }
        );
        let counters: Vec<_> = self.registry.counters().collect();
        if !counters.is_empty() {
            out.push_str("  counters:\n");
            for (name, v) in counters {
                out.push_str(&format!("    {name:<32} {v}\n"));
            }
        }
        let gauges: Vec<_> = self.registry.gauges().collect();
        if !gauges.is_empty() {
            out.push_str("  gauges:\n");
            for (name, g) in gauges {
                out.push_str(&format!("    {name:<32} last {}  max {}\n", g.last, g.max));
            }
        }
        let hists: Vec<_> = self.registry.histograms().collect();
        if !hists.is_empty() {
            out.push_str("  histograms:\n");
            for (name, h) in hists {
                out.push_str(&format!(
                    "    {name:<32} n={} min={} p50~{} p99~{} max={} mean={:.1}\n",
                    h.count(),
                    h.min().unwrap_or(0),
                    h.quantile(0.5),
                    h.quantile(0.99),
                    h.max().unwrap_or(0),
                    h.mean()
                ));
            }
        }
        out
    }
}

impl Recorder for ObsRecorder {
    #[inline]
    fn span_begin(&mut self, name: &'static str) {
        let ts = self.now_us();
        self.stack.push((name, ts));
    }

    #[inline]
    fn span_end(&mut self, name: &'static str) {
        let end = self.now_us();
        match self.stack.pop() {
            Some((open, start)) if open == name => {
                let dur = end.saturating_sub(start);
                self.registry.observe(name, dur);
                if self.events.len() < self.max_events {
                    self.events.push(SpanEvent {
                        name,
                        start_us: start,
                        dur_us: dur,
                        tid: self.tid,
                    });
                } else {
                    self.dropped += 1;
                }
            }
            _ => self.registry.counter_add("obs.span_mismatch", 1),
        }
    }

    #[inline]
    fn counter(&mut self, name: &'static str, delta: u64) {
        self.registry.counter_add(name, delta);
    }

    #[inline]
    fn gauge(&mut self, name: &'static str, value: i64) {
        self.registry.gauge_set(name, value);
    }

    #[inline]
    fn observe(&mut self, name: &'static str, value: u64) {
        self.registry.observe(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_produce_events_and_histograms() {
        let mut r = ObsRecorder::new();
        r.span_begin("outer");
        r.span_begin("inner");
        r.span_end("inner");
        r.span_end("outer");
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.events()[0].name, "inner", "inner closes first");
        assert_eq!(r.events()[1].name, "outer");
        assert!(r.events()[1].dur_us >= r.events()[0].dur_us);
        assert_eq!(r.registry().histogram("outer").unwrap().count(), 1);
        assert_eq!(r.registry().counter("obs.span_mismatch"), 0);
    }

    #[test]
    fn mismatched_span_end_is_counted_not_panicking() {
        let mut r = ObsRecorder::new();
        r.span_end("never_opened");
        r.span_begin("a");
        r.span_end("b");
        assert_eq!(r.registry().counter("obs.span_mismatch"), 2);
        assert!(r.events().is_empty());
    }

    #[test]
    fn event_cap_drops_but_histograms_survive() {
        let mut r = ObsRecorder::new();
        r.set_max_events(2);
        for _ in 0..5 {
            r.span_begin("s");
            r.span_end("s");
        }
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.dropped_events(), 3);
        assert_eq!(r.registry().histogram("s").unwrap().count(), 5);
        assert!(r.jsonl().contains("obs.spans_dropped"));
    }

    #[test]
    fn shard_merge_combines_timelines() {
        let mut main = ObsRecorder::new();
        let mut w = main.shard(7);
        w.span_begin("work");
        w.counter("done", 3);
        w.span_end("work");
        main.span_begin("drive");
        main.span_end("drive");
        main.merge(w);
        assert_eq!(main.events().len(), 2);
        assert!(main.events().iter().any(|e| e.tid == 7));
        assert_eq!(main.registry().counter("done"), 3);
        let sorted: Vec<_> = main.events().iter().map(|e| e.start_us).collect();
        let mut expect = sorted.clone();
        expect.sort_unstable();
        assert_eq!(sorted, expect, "merged timeline is start-sorted");
    }

    #[test]
    fn exporters_emit_wellformed_output() {
        let mut r = ObsRecorder::new();
        r.span_begin("phase \"x\"");
        r.span_end("phase \"x\"");
        r.counter("c", 1);
        r.gauge("g", -5);
        r.observe("h", 42);
        let chrome = r.chrome_trace_json();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("phase \\\"x\\\""));
        let jsonl = r.jsonl();
        // span + counter + gauge + two histograms (explicit `h` plus the
        // span-duration histogram recorded at span_end).
        assert_eq!(jsonl.lines().count(), 5);
        assert!(jsonl
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
        let summary = r.summary();
        assert!(summary.contains("counters:") && summary.contains("gauges:"));
    }
}
