//! Span-based structured tracer.
//!
//! A [`Span`] is a named, hierarchically scoped region of execution. The
//! global [`Tracer`] records finished spans into a bounded ring buffer;
//! when the tracer is disabled (the default) opening a span costs one
//! relaxed atomic load and closing it costs nothing.
//!
//! Hierarchy is tracked per thread: a span opened while another span on
//! the same thread is still open becomes its child, and the recorded
//! event carries the full `parent;child` path. Recorded events can be
//! exported as JSONL ([`to_jsonl`]) or as collapsed stacks
//! ([`collapsed`]) directly consumable by `flamegraph.pl` /
//! `inferno-flamegraph`.

use crate::json_escape;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A finished span, as recorded in the ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Full `;`-joined scope path, e.g. `search.rl_vec;engine.evaluate`.
    pub path: String,
    /// Leaf name of the span (last path segment).
    pub name: &'static str,
    /// Nesting depth at record time (0 = root span on its thread).
    pub depth: usize,
    /// Start offset in nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// End offset in nanoseconds since the tracer epoch.
    pub end_ns: u64,
}

impl SpanEvent {
    /// Wall-clock duration of the span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Bounded ring-buffer recorder for spans.
///
/// One global instance ([`global`]) serves the whole process; all
/// instrumented crates funnel through the free function [`span`]. The
/// tracer starts disabled; [`Tracer::enable`] installs a ring buffer of
/// the given capacity and [`Tracer::drain`] takes the recorded events
/// out. When the buffer is full the oldest events are evicted and
/// counted in [`Tracer::dropped`].
pub struct Tracer {
    enabled: AtomicBool,
    dropped: AtomicU64,
    buf: Mutex<RingState>,
}

struct RingState {
    capacity: usize,
    events: VecDeque<SpanEvent>,
}

impl Tracer {
    /// A new, disabled tracer with zero capacity.
    pub const fn new() -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
            buf: Mutex::new(RingState {
                capacity: 0,
                events: VecDeque::new(),
            }),
        }
    }

    /// Enable recording into a ring buffer holding up to `capacity`
    /// events. Clears any previously recorded events and the dropped
    /// counter. `capacity == 0` is clamped to 1.
    pub fn enable(&self, capacity: usize) {
        let mut st = lock_ok(&self.buf);
        st.capacity = capacity.max(1);
        st.events.clear();
        self.dropped.store(0, Ordering::Relaxed);
        self.enabled.store(true, Ordering::Release);
    }

    /// Disable recording. Already-recorded events stay available to
    /// [`Tracer::drain`].
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// Number of events evicted because the ring buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Take all recorded events, oldest first, leaving the buffer empty.
    pub fn drain(&self) -> Vec<SpanEvent> {
        lock_ok(&self.buf).events.drain(..).collect()
    }

    /// Open a span on this tracer. The span records itself when dropped;
    /// if the tracer is disabled this is (nearly) free.
    pub fn span(&'static self, name: &'static str) -> Span {
        if !self.enabled.load(Ordering::Relaxed) {
            return Span { live: None };
        }
        let depth = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let depth = s.len();
            s.push(name);
            depth
        });
        Span {
            live: Some(LiveSpan {
                tracer: self,
                name,
                depth,
                start_ns: now_ns(),
            }),
        }
    }

    fn record(&self, name: &'static str, depth: usize, start_ns: u64) {
        let end_ns = now_ns();
        let path = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let path = s.join(";");
            // Pop our own frame; guard against disable/enable races having
            // reset the stack underneath us.
            if s.last() == Some(&name) {
                s.pop();
            }
            path
        });
        let mut st = lock_ok(&self.buf);
        if st.capacity == 0 {
            return;
        }
        while st.events.len() >= st.capacity {
            st.events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        st.events.push_back(SpanEvent {
            path,
            name,
            depth,
            start_ns,
            end_ns,
        });
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// RAII guard for an open span; records the event on drop.
///
/// `live == None` means the tracer was disabled at open time and drop is
/// a no-op — this is the zero-cost path.
pub struct Span {
    live: Option<LiveSpan>,
}

struct LiveSpan {
    tracer: &'static Tracer,
    name: &'static str,
    depth: usize,
    start_ns: u64,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            // Pop the thread-local frame and record even if the tracer
            // was disabled mid-span, so the stack never leaks frames.
            live.tracer.record(live.name, live.depth, live.start_ns);
        }
    }
}

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Process-wide tracer shared by all instrumented crates.
pub fn global() -> &'static Tracer {
    static GLOBAL: Tracer = Tracer::new();
    &GLOBAL
}

/// Open a span on the [`global`] tracer. This is the call instrumented
/// code sites use:
///
/// ```
/// let _span = autohet_obs::trace::span("engine.evaluate");
/// // ... traced region ...
/// ```
#[inline]
pub fn span(name: &'static str) -> Span {
    global().span(name)
}

/// Nanoseconds since the process-wide tracer epoch (first use).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

fn lock_ok<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A panic while holding the trace lock cannot corrupt the ring
    // buffer (pure data), so poisoning is safe to ignore.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Render events as JSON Lines, one span object per line, in recorded
/// (oldest-first) order.
pub fn to_jsonl(events: &[SpanEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let _ = writeln!(
            out,
            "{{\"path\":\"{}\",\"name\":\"{}\",\"depth\":{},\"start_ns\":{},\"end_ns\":{},\"duration_ns\":{}}}",
            json_escape(&e.path),
            json_escape(e.name),
            e.depth,
            e.start_ns,
            e.end_ns,
            e.duration_ns()
        );
    }
    out
}

/// Render events in the collapsed-stack format consumed by flamegraph
/// tools: one `path;to;span weight` line per distinct path, where the
/// weight is the **self time** in nanoseconds (total duration minus time
/// spent in recorded child spans), summed across all events with that
/// path. Lines are sorted by path for deterministic output.
pub fn collapsed(events: &[SpanEvent]) -> String {
    use std::collections::BTreeMap;
    let mut total: BTreeMap<&str, u64> = BTreeMap::new();
    let mut child: BTreeMap<&str, u64> = BTreeMap::new();
    for e in events {
        *total.entry(e.path.as_str()).or_insert(0) += e.duration_ns();
        if let Some(idx) = e.path.rfind(';') {
            *child.entry(&e.path[..idx]).or_insert(0) += e.duration_ns();
        }
    }
    let mut out = String::new();
    for (path, t) in &total {
        let self_ns = t.saturating_sub(child.get(path).copied().unwrap_or(0));
        let _ = writeln!(out, "{path} {self_ns}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global tracer is process-wide, so tests that enable it must
    // not run concurrently with each other.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_tracer_records_nothing() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        global().disable();
        global().drain();
        {
            let _s = span("never");
        }
        assert!(global().drain().is_empty());
    }

    #[test]
    fn spans_nest_and_record_paths() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        global().enable(16);
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
        }
        global().disable();
        let events = global().drain();
        assert_eq!(events.len(), 2);
        // Children close first.
        assert_eq!(events[0].path, "outer;inner");
        assert_eq!(events[0].depth, 1);
        assert_eq!(events[1].path, "outer");
        assert_eq!(events[1].depth, 0);
        assert!(events[1].end_ns >= events[1].start_ns);
    }

    #[test]
    fn ring_buffer_evicts_oldest_and_counts_drops() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        global().enable(2);
        for _ in 0..5 {
            let _s = span("tick");
        }
        global().disable();
        assert_eq!(global().dropped(), 3);
        assert_eq!(global().drain().len(), 2);
    }

    #[test]
    fn collapsed_reports_self_time_sorted_by_path() {
        let events = vec![
            SpanEvent {
                path: "a".into(),
                name: "a",
                depth: 0,
                start_ns: 0,
                end_ns: 100,
            },
            SpanEvent {
                path: "a;b".into(),
                name: "b",
                depth: 1,
                start_ns: 10,
                end_ns: 40,
            },
            SpanEvent {
                path: "a;b".into(),
                name: "b",
                depth: 1,
                start_ns: 50,
                end_ns: 60,
            },
        ];
        assert_eq!(collapsed(&events), "a 60\na;b 40\n");
    }

    #[test]
    fn jsonl_has_one_object_per_event() {
        let events = vec![SpanEvent {
            path: "x;y".into(),
            name: "y",
            depth: 1,
            start_ns: 5,
            end_ns: 9,
        }];
        let line = to_jsonl(&events);
        assert_eq!(
            line,
            "{\"path\":\"x;y\",\"name\":\"y\",\"depth\":1,\"start_ns\":5,\"end_ns\":9,\"duration_ns\":4}\n"
        );
    }
}
