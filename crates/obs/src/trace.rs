//! Structured tracing: spans (timed regions) and events (point
//! records), collected into a process-wide sink and exported as
//! JSON-lines.
//!
//! Use the [`span!`](crate::span!) and [`event!`](crate::event!)
//! macros rather than calling [`span_enter`] / [`record_event`]
//! directly: each expansion declares a `static` [`Callsite`] so the
//! name/file/line triple is registered once and the hot path touches
//! only atomics.
//!
//! Timestamps are microseconds relative to the first observation in
//! the process (a monotonic clock, not wall time), which keeps records
//! comparable within a run and trivially serializable.

use crate::enabled;
use serde::{Serialize, Value};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A statically registered span/event site: name, file, line, and a
/// lazily assigned process-wide id.
#[derive(Debug)]
pub struct Callsite {
    name: &'static str,
    file: &'static str,
    line: u32,
    /// Cached registry id + 1 (0 = not yet registered).
    id: AtomicU32,
}

impl Callsite {
    /// Declares a callsite; `const` so macro expansions can put it in
    /// a `static`.
    pub const fn new(name: &'static str, file: &'static str, line: u32) -> Self {
        Callsite {
            name,
            file,
            line,
            id: AtomicU32::new(0),
        }
    }

    /// The site's span/event name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Source file of the expansion.
    pub fn file(&self) -> &'static str {
        self.file
    }

    /// Source line of the expansion.
    pub fn line(&self) -> u32 {
        self.line
    }

    /// The site's id in the process-wide callsite table, registering
    /// on first call and serving from the atomic cache afterwards.
    pub fn id(&self) -> u32 {
        let cached = self.id.load(Ordering::Relaxed);
        if cached != 0 {
            return cached - 1;
        }
        let mut table = lock(callsite_table());
        // Double-check under the lock: another thread may have just
        // registered this same static.
        let cached = self.id.load(Ordering::Relaxed);
        if cached != 0 {
            return cached - 1;
        }
        let id = table.len() as u32;
        table.push((self.name, self.file, self.line));
        self.id.store(id + 1, Ordering::Relaxed);
        id
    }
}

/// A registered callsite's identity: `(name, file, line)`.
type CallsiteEntry = (&'static str, &'static str, u32);

/// Every callsite hit so far, in registration order, as
/// `(name, file, line)`.
pub fn callsites() -> Vec<CallsiteEntry> {
    lock(callsite_table()).clone()
}

fn callsite_table() -> &'static Mutex<Vec<CallsiteEntry>> {
    static TABLE: OnceLock<Mutex<Vec<CallsiteEntry>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A typed event-field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Boolean field.
    Bool(bool),
    /// Signed integer field.
    I64(i64),
    /// Unsigned integer field.
    U64(u64),
    /// Floating-point field.
    F64(f64),
    /// String field.
    Str(String),
}

macro_rules! field_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                FieldValue::$variant(v as $conv)
            }
        }
    )*};
}
field_from! {
    bool => Bool as bool,
    i32 => I64 as i64,
    i64 => I64 as i64,
    u32 => U64 as u64,
    u64 => U64 as u64,
    usize => U64 as u64,
    f32 => F64 as f64,
    f64 => F64 as f64,
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl Serialize for FieldValue {
    fn serialize(&self) -> Value {
        match self {
            FieldValue::Bool(b) => Value::Bool(*b),
            FieldValue::I64(n) => Value::I64(*n),
            FieldValue::U64(n) => Value::U64(*n),
            FieldValue::F64(f) => Value::F64(*f),
            FieldValue::Str(s) => Value::Str(s.clone()),
        }
    }
}

/// Whether a [`TraceRecord`] is a timed span or a point event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A timed region: `duration_us` is meaningful.
    Span,
    /// A point record: `duration_us` is 0.
    Event,
}

/// One collected span or event.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Span or event.
    pub kind: RecordKind,
    /// Callsite name (e.g. `planner.seed`).
    pub name: &'static str,
    /// Callsite source file.
    pub file: &'static str,
    /// Callsite source line.
    pub line: u32,
    /// Unique span id (0 for events).
    pub span_id: u64,
    /// Enclosing span's id on the same thread (0 = root).
    pub parent_id: u64,
    /// Recording thread's name, or its debug id when unnamed.
    pub thread: String,
    /// Start offset in µs from the process's first observation.
    pub start_us: u64,
    /// Span duration in µs (0 for events).
    pub duration_us: u64,
    /// Event fields, in declaration order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Serialize for TraceRecord {
    fn serialize(&self) -> Value {
        let kind = match self.kind {
            RecordKind::Span => "span",
            RecordKind::Event => "event",
        };
        Value::Object(vec![
            ("kind".to_string(), Value::Str(kind.to_string())),
            ("name".to_string(), Value::Str(self.name.to_string())),
            ("file".to_string(), Value::Str(self.file.to_string())),
            ("line".to_string(), Value::U64(self.line as u64)),
            ("span_id".to_string(), Value::U64(self.span_id)),
            ("parent_id".to_string(), Value::U64(self.parent_id)),
            ("thread".to_string(), Value::Str(self.thread.clone())),
            ("start_us".to_string(), Value::U64(self.start_us)),
            ("duration_us".to_string(), Value::U64(self.duration_us)),
            (
                "fields".to_string(),
                Value::Object(
                    self.fields
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.serialize()))
                        .collect(),
                ),
            ),
        ])
    }
}

fn obs_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn micros_since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(obs_epoch()).as_micros() as u64
}

fn sink() -> &'static Mutex<Vec<TraceRecord>> {
    static SINK: OnceLock<Mutex<Vec<TraceRecord>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

/// Removes and returns everything collected so far, oldest first.
pub fn drain_trace() -> Vec<TraceRecord> {
    std::mem::take(&mut *lock(sink()))
}

/// Renders records as JSON-lines (one compact object per line).
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        if let Ok(line) = serde_json::to_string(r) {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

fn current_thread_label() -> String {
    let t = std::thread::current();
    match t.name() {
        Some(name) => name.to_string(),
        None => format!("{:?}", t.id()),
    }
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Open span ids on this thread, innermost last. Parenthood is
    /// per-thread: the planner's worker threads start their own root
    /// spans.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn current_parent() -> u64 {
    SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// An open span; records its duration into the trace sink on drop.
///
/// Created by [`span!`](crate::span!) / [`span_enter`]. Inert (and
/// allocation-free) when observability was disabled at entry.
#[derive(Debug)]
#[must_use = "a span measures the scope that holds it"]
pub struct SpanGuard {
    live: Option<OpenSpan>,
}

#[derive(Debug)]
struct OpenSpan {
    callsite: &'static Callsite,
    span_id: u64,
    parent_id: u64,
    start: Instant,
}

/// Opens a span at `callsite`. Prefer the [`span!`](crate::span!)
/// macro, which declares the static callsite for you.
pub fn span_enter(callsite: &'static Callsite) -> SpanGuard {
    if !enabled() {
        return SpanGuard { live: None };
    }
    callsite.id(); // ensure registration
    let span_id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent_id = current_parent();
    SPAN_STACK.with(|s| s.borrow_mut().push(span_id));
    SpanGuard {
        live: Some(OpenSpan {
            callsite,
            span_id,
            parent_id,
            start: Instant::now(),
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.live.take() else {
            return;
        };
        let end = Instant::now();
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Guards drop in LIFO order within a thread, but be
            // defensive about a guard outliving an inner one.
            if let Some(pos) = stack.iter().rposition(|&id| id == open.span_id) {
                stack.remove(pos);
            }
        });
        let record = TraceRecord {
            kind: RecordKind::Span,
            name: open.callsite.name(),
            file: open.callsite.file(),
            line: open.callsite.line(),
            span_id: open.span_id,
            parent_id: open.parent_id,
            thread: current_thread_label(),
            start_us: micros_since_epoch(open.start),
            duration_us: end.saturating_duration_since(open.start).as_micros() as u64,
            fields: Vec::new(),
        };
        lock(sink()).push(record);
    }
}

/// Records a point event at `callsite`. Prefer the
/// [`event!`](crate::event!) macro.
pub fn record_event(callsite: &'static Callsite, fields: Vec<(&'static str, FieldValue)>) {
    if !enabled() {
        return;
    }
    callsite.id();
    let record = TraceRecord {
        kind: RecordKind::Event,
        name: callsite.name(),
        file: callsite.file(),
        line: callsite.line(),
        span_id: 0,
        parent_id: current_parent(),
        thread: current_thread_label(),
        start_us: micros_since_epoch(Instant::now()),
        duration_us: 0,
        fields,
    };
    lock(sink()).push(record);
}

/// Opens a timed span bound to the enclosing scope.
///
/// ```
/// let _g = remo_obs::test_guard();
/// remo_obs::enable();
/// {
///     let _span = remo_obs::span!("example.work");
/// }
/// assert!(remo_obs::drain_trace().iter().any(|r| r.name == "example.work"));
/// remo_obs::disable();
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static CALLSITE: $crate::Callsite = $crate::Callsite::new($name, file!(), line!());
        $crate::span_enter(&CALLSITE)
    }};
}

/// Records a point event with optional `"key" => value` fields.
///
/// ```
/// let _g = remo_obs::test_guard();
/// remo_obs::enable();
/// remo_obs::event!("example.tick", "round" => 2u64, "accepted" => true);
/// let trace = remo_obs::drain_trace();
/// assert_eq!(trace.len(), 1);
/// assert_eq!(trace[0].fields.len(), 2);
/// remo_obs::disable();
/// ```
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:literal => $value:expr)* $(,)?) => {{
        static CALLSITE: $crate::Callsite = $crate::Callsite::new($name, file!(), line!());
        if $crate::enabled() {
            $crate::record_event(
                &CALLSITE,
                vec![$(($key, $crate::FieldValue::from($value))),*],
            );
        }
    }};
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::test_guard;

    #[test]
    fn disabled_span_and_event_record_nothing() {
        let _g = test_guard();
        crate::disable();
        drain_trace();
        {
            let _s = crate::span!("test.disabled");
            crate::event!("test.disabled.event", "x" => 1u64);
        }
        assert!(drain_trace().is_empty());
    }

    #[test]
    fn span_nesting_links_parents() {
        let _g = test_guard();
        crate::enable();
        drain_trace();
        {
            let _outer = crate::span!("test.outer");
            crate::event!("test.mid");
            {
                let _inner = crate::span!("test.inner");
            }
        }
        crate::disable();
        let trace = drain_trace();
        let outer = trace
            .iter()
            .find(|r| r.name == "test.outer")
            .expect("outer span recorded");
        let inner = trace
            .iter()
            .find(|r| r.name == "test.inner")
            .expect("inner span recorded");
        let mid = trace
            .iter()
            .find(|r| r.name == "test.mid")
            .expect("event recorded");
        assert_eq!(outer.parent_id, 0);
        assert_eq!(inner.parent_id, outer.span_id);
        assert_eq!(mid.parent_id, outer.span_id);
        assert_eq!(mid.kind, RecordKind::Event);
        assert!(outer.duration_us >= inner.duration_us);
        assert!(outer.start_us <= inner.start_us);
    }

    #[test]
    fn jsonl_lines_parse_and_carry_fields() {
        let _g = test_guard();
        crate::enable();
        drain_trace();
        {
            let _s = crate::span!("test.jsonl");
            crate::event!("test.jsonl.event", "n" => 3u64, "why" => "ok", "r" => 0.5f64);
        }
        crate::disable();
        let text = to_jsonl(&drain_trace());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v = serde_json::parse(line).expect("valid JSON line");
            assert!(v.get("name").is_some());
            assert!(v.get("start_us").is_some());
        }
        let event_line = lines
            .iter()
            .find(|l| l.contains("test.jsonl.event"))
            .expect("event line present");
        let v = serde_json::parse(event_line).expect("valid JSON");
        let fields = v.get("fields").expect("fields object");
        assert_eq!(fields.get("n"), Some(&Value::U64(3)));
        assert_eq!(fields.get("why"), Some(&Value::Str("ok".to_string())));
        assert_eq!(fields.get("r"), Some(&Value::F64(0.5)));
    }

    #[test]
    fn callsite_ids_are_stable() {
        static SITE: Callsite = Callsite::new("test.site", "trace.rs", 1);
        let first = SITE.id();
        let second = SITE.id();
        assert_eq!(first, second);
        assert!(callsites().iter().any(|(name, _, _)| *name == "test.site"));
    }

    #[test]
    fn spans_across_threads_are_roots() {
        let _g = test_guard();
        crate::enable();
        drain_trace();
        let _outer = crate::span!("test.main_thread");
        std::thread::spawn(|| {
            let _s = crate::span!("test.worker");
        })
        .join()
        .expect("worker thread");
        drop(_outer);
        crate::disable();
        let trace = drain_trace();
        let worker = trace
            .iter()
            .find(|r| r.name == "test.worker")
            .expect("worker span recorded");
        // The worker thread has its own span stack: no cross-thread parent.
        assert_eq!(worker.parent_id, 0);
    }
}
