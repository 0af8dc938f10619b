//! The structured trace-event sink: spans and instants recorded into
//! per-thread local buffers, flushed into a bounded ring, exported as Chrome
//! trace-event JSON (loadable in Perfetto / `chrome://tracing`) or as a
//! human text timeline.
//!
//! Hot paths never touch a lock: they record into a [`TraceBuf`] — a plain
//! `Vec` owned by the caller — and the owner flushes it into the shared ring
//! once per unit of work (one `schedule()` call, one design-point
//! evaluation). A disabled buffer records nothing and reads no clock, which
//! is what keeps the disabled configuration zero-overhead.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Maximum number of numeric arguments one event carries.
pub const MAX_ARGS: usize = 4;

/// Hard cap on events buffered locally between flushes; beyond it events are
/// counted as dropped rather than growing the buffer without bound.
const LOCAL_CAP: usize = 1 << 17;

/// Default capacity of the shared trace ring.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

std::thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// One recorded event: a span (`dur_ns > 0` or recorded via
/// [`TraceBuf::span`]) or an instant.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event name (`"ii_attempt"`, `"eject_cascade"`, …).
    pub name: &'static str,
    /// Category (`"sched"`, `"driver"`, `"explore"`).
    pub cat: &'static str,
    /// Nanoseconds since the sink's epoch.
    pub ts_ns: u64,
    /// Span duration in nanoseconds; instants carry `u64::MAX` as a marker
    /// (a genuine zero-length span stays a span).
    dur_ns: u64,
    /// Id of the recording thread (stable within a process run).
    pub tid: u32,
    /// Optional dynamic label (loop or configuration name).
    pub label: Option<Box<str>>,
    args: [(&'static str, i64); MAX_ARGS],
    nargs: u8,
}

impl TraceEvent {
    /// The event's numeric arguments, in recording order.
    pub fn args(&self) -> &[(&'static str, i64)] {
        &self.args[..self.nargs as usize]
    }

    /// `true` for instants, `false` for spans.
    pub fn is_instant(&self) -> bool {
        self.dur_ns == u64::MAX
    }

    /// Span duration in nanoseconds (0 for instants).
    pub fn duration_ns(&self) -> u64 {
        if self.is_instant() {
            0
        } else {
            self.dur_ns
        }
    }
}

/// Pack an event's arguments into its fixed-size array. An event carries at
/// most [`MAX_ARGS`] arguments: a debug build panics on more, naming the
/// event; a release build keeps the first `MAX_ARGS`.
fn pack_args(
    name: &'static str,
    args: &[(&'static str, i64)],
) -> ([(&'static str, i64); MAX_ARGS], u8) {
    debug_assert!(
        args.len() <= MAX_ARGS,
        "trace event `{name}` has {} arguments, at most {MAX_ARGS} are recorded",
        args.len()
    );
    let mut packed = [("", 0i64); MAX_ARGS];
    let n = args.len().min(MAX_ARGS);
    packed[..n].copy_from_slice(&args[..n]);
    (packed, n as u8)
}

/// A lock-free local event buffer handed out by
/// [`crate::Telemetry::trace_buf`]. Recording into a disabled buffer is a
/// no-op that never reads the clock.
#[derive(Debug, Clone, Default)]
pub struct TraceBuf {
    epoch: Option<Instant>,
    tid: u32,
    detail: bool,
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl TraceBuf {
    /// An enabled buffer stamping timestamps against `epoch`. `detail`
    /// additionally opts into the high-frequency event class (see
    /// [`TraceBuf::detail_enabled`]).
    pub(crate) fn enabled_at(epoch: Instant, detail: bool) -> Self {
        TraceBuf {
            epoch: Some(epoch),
            tid: TID.with(|t| *t),
            detail,
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// Whether this buffer records anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.epoch.is_some()
    }

    /// Whether this buffer also wants high-frequency detail events — the
    /// per-placement ejection cascades that fire orders of magnitude more
    /// often than ladder-level events. Emitters of such firehose events
    /// must gate on this (instead of [`TraceBuf::enabled`]) so standard
    /// tracing stays within its overhead budget; the detail class is
    /// enabled by [`crate::Verbosity::Debug`].
    #[inline]
    pub fn detail_enabled(&self) -> bool {
        self.detail && self.epoch.is_some()
    }

    /// Nanoseconds since the sink's epoch (0 when disabled). Use as the
    /// start timestamp of a later [`TraceBuf::span`].
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match self.epoch {
            Some(e) => e.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() >= LOCAL_CAP {
            self.dropped += 1;
        } else {
            self.events.push(ev);
        }
    }

    /// Record an instant event.
    #[inline]
    pub fn instant(&mut self, name: &'static str, cat: &'static str, args: &[(&'static str, i64)]) {
        self.instant_labeled(name, cat, None, args);
    }

    /// [`TraceBuf::instant`] with a dynamic label (loop or config name).
    #[inline]
    pub fn instant_labeled(
        &mut self,
        name: &'static str,
        cat: &'static str,
        label: Option<&str>,
        args: &[(&'static str, i64)],
    ) {
        if !self.enabled() {
            return;
        }
        let ts = self.now_ns();
        let (packed, nargs) = pack_args(name, args);
        self.push(TraceEvent {
            name,
            cat,
            ts_ns: ts,
            dur_ns: u64::MAX,
            tid: self.tid,
            label: label.map(Box::from),
            args: packed,
            nargs,
        });
    }

    /// Record a span that started at `start_ns` (from [`TraceBuf::now_ns`])
    /// and ends now.
    #[inline]
    pub fn span(
        &mut self,
        name: &'static str,
        cat: &'static str,
        start_ns: u64,
        args: &[(&'static str, i64)],
    ) {
        self.span_labeled(name, cat, start_ns, None, args);
    }

    /// [`TraceBuf::span`] with a dynamic label (loop or config name).
    #[inline]
    pub fn span_labeled(
        &mut self,
        name: &'static str,
        cat: &'static str,
        start_ns: u64,
        label: Option<&str>,
        args: &[(&'static str, i64)],
    ) {
        if !self.enabled() {
            return;
        }
        let end = self.now_ns();
        let (packed, nargs) = pack_args(name, args);
        self.push(TraceEvent {
            name,
            cat,
            ts_ns: start_ns,
            dur_ns: end.saturating_sub(start_ns),
            tid: self.tid,
            label: label.map(Box::from),
            args: packed,
            nargs,
        });
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the buffer holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drain the buffered events and the local drop count.
    pub(crate) fn drain(&mut self) -> (Vec<TraceEvent>, u64) {
        let dropped = std::mem::take(&mut self.dropped);
        (std::mem::take(&mut self.events), dropped)
    }
}

/// Bounded FIFO of flushed events; when full, the oldest events make room
/// and are counted in `dropped`.
#[derive(Debug)]
pub(crate) struct TraceRing {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl TraceRing {
    pub(crate) fn new(capacity: usize) -> Self {
        TraceRing {
            capacity,
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    pub(crate) fn absorb(&mut self, events: Vec<TraceEvent>, dropped: u64) {
        self.dropped += dropped;
        for ev in events {
            if self.capacity == 0 {
                self.dropped += 1;
                continue;
            }
            if self.events.len() >= self.capacity {
                self.events.pop_front();
                self.dropped += 1;
            }
            self.events.push_back(ev);
        }
    }

    pub(crate) fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out: Vec<TraceEvent> = self.events.iter().cloned().collect();
        out.sort_by_key(|e| (e.ts_ns, e.tid));
        out
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Render events as a Chrome trace-event JSON document
/// (`{"traceEvents": [...]}`), loadable in Perfetto or `chrome://tracing`.
/// Spans use phase `"X"` (complete events), instants phase `"i"` with thread
/// scope; timestamps and durations are microseconds with nanosecond
/// precision.
pub fn chrome_trace_json(events: &[TraceEvent], dropped: u64) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 128);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"droppedEvents\":");
    out.push_str(&dropped.to_string());
    out.push_str(",\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_json(ev.name, &mut out);
        out.push_str("\",\"cat\":\"");
        escape_json(ev.cat, &mut out);
        out.push_str("\",\"pid\":1,\"tid\":");
        out.push_str(&ev.tid.to_string());
        out.push_str(&format!(",\"ts\":{:.3}", ev.ts_ns as f64 / 1e3));
        if ev.is_instant() {
            out.push_str(",\"ph\":\"i\",\"s\":\"t\"");
        } else {
            out.push_str(&format!(
                ",\"ph\":\"X\",\"dur\":{:.3}",
                ev.duration_ns() as f64 / 1e3
            ));
        }
        if !ev.args().is_empty() || ev.label.is_some() {
            out.push_str(",\"args\":{");
            let mut first = true;
            if let Some(label) = &ev.label {
                out.push_str("\"label\":\"");
                escape_json(label, &mut out);
                out.push('"');
                first = false;
            }
            for (k, v) in ev.args() {
                if !first {
                    out.push(',');
                }
                out.push('"');
                escape_json(k, &mut out);
                out.push_str("\":");
                out.push_str(&v.to_string());
                first = false;
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Render events as a human text timeline, one event per line sorted by
/// timestamp: `[    12.345 ms] tid 2  span     ii_attempt (1.204 ms) ii=7`.
pub fn text_timeline(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&format!(
            "[{:>12.3} ms] tid {:<3} {:<7} {:<16}",
            ev.ts_ns as f64 / 1e6,
            ev.tid,
            if ev.is_instant() { "instant" } else { "span" },
            ev.name,
        ));
        if !ev.is_instant() {
            out.push_str(&format!(" ({:.3} ms)", ev.duration_ns() as f64 / 1e6));
        }
        if let Some(label) = &ev.label {
            out.push_str(&format!(" {label}"));
        }
        for (k, v) in ev.args() {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_buf_records_nothing() {
        let mut buf = TraceBuf::default();
        assert!(!buf.enabled());
        assert_eq!(buf.now_ns(), 0);
        buf.instant("x", "t", &[("a", 1)]);
        buf.span("y", "t", 0, &[]);
        assert!(buf.is_empty());
    }

    #[test]
    fn enabled_buf_records_spans_and_instants() {
        let mut buf = TraceBuf::enabled_at(Instant::now(), true);
        let t0 = buf.now_ns();
        buf.instant("hit", "t", &[("n", 3)]);
        buf.span_labeled("work", "t", t0, Some("loop-1"), &[("ii", 7)]);
        assert_eq!(buf.len(), 2);
        let (events, dropped) = buf.drain();
        assert_eq!(dropped, 0);
        assert!(events[0].is_instant());
        assert_eq!(events[0].args(), &[("n", 3)]);
        assert!(!events[1].is_instant());
        assert_eq!(events[1].label.as_deref(), Some("loop-1"));
        assert!(buf.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "trace event `crowded` has 5 arguments")]
    fn an_event_with_too_many_arguments_panics_in_debug_builds() {
        let mut buf = TraceBuf::enabled_at(Instant::now(), true);
        buf.instant(
            "crowded",
            "t",
            &[("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5)],
        );
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut ring = TraceRing::new(2);
        let mut buf = TraceBuf::enabled_at(Instant::now(), true);
        for _ in 0..5 {
            buf.instant("e", "t", &[]);
        }
        let (events, dropped) = buf.drain();
        ring.absorb(events, dropped);
        assert_eq!(ring.snapshot().len(), 2);
        assert_eq!(ring.dropped(), 3);
    }

    #[test]
    fn chrome_json_shape_and_escaping() {
        let mut buf = TraceBuf::enabled_at(Instant::now(), true);
        let t0 = buf.now_ns();
        buf.span_labeled("sp\"an", "cat", t0, Some("la\\bel"), &[("k", -4)]);
        buf.instant("inst", "cat", &[]);
        let (events, _) = buf.drain();
        let json = chrome_trace_json(&events, 1);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("sp\\\"an"));
        assert!(json.contains("la\\\\bel"));
        assert!(json.contains("\"k\":-4"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"droppedEvents\":1"));
    }

    #[test]
    fn timeline_lists_every_event() {
        let mut buf = TraceBuf::enabled_at(Instant::now(), true);
        buf.instant("alpha", "t", &[("x", 1)]);
        let t0 = buf.now_ns();
        buf.span("beta", "t", t0, &[]);
        let (events, _) = buf.drain();
        let text = text_timeline(&events);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("alpha"));
        assert!(text.contains("x=1"));
        assert!(text.contains("beta"));
    }
}
