//! The harness's own in-memory span recorder.
//!
//! It deliberately does not call `remo_obs::enable()`, which would
//! switch on the planner's per-candidate events. One span is recorded
//! per set-up step, per measured operation and per layer
//! micro-measurement, each with its parent; counts are recorded at the
//! same boundaries. Everything stays in memory until the workload ends.
//! An untraced run carries a disabled recorder whose calls do nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, times in nanoseconds since the recorder was
/// created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Handle returned by [`Recorder::enter`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    run_id: String,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Recorder {
    /// A recorder for one workload run; `run_id` is stamped on every
    /// span so files from several runs can be concatenated.
    pub fn new(enabled: bool, run_id: String) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            run_id,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(Some(id))
    }

    /// [`enter`](Self::enter) when `record`, otherwise a handle whose
    /// `exit` does nothing: for passes that record every other operation.
    pub fn enter_if(&mut self, record: bool, name: &'static str) -> SpanId {
        if record {
            self.enter(name)
        } else {
            SpanId(None)
        }
    }

    /// Closes `id` (and anything left open inside it).
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Records a closed span from timestamps taken elsewhere (the epoch
    /// callback of a running service), under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied(),
        });
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    /// One JSON object per line: spans first, then counters.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        let selfs = self_times(&self.spans);
        for (i, (sp, (_, self_ns))) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"run\":\"{}\",\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                self.run_id, sp.name, sp.start_ns, sp.end_ns
            );
        }
        for (name, n) in &self.counts {
            let _ = writeln!(
                s,
                "{{\"run\":\"{}\",\"count\":\"{name}\",\"value\":{n}}}",
                self.run_id
            );
        }
        s
    }
}

/// `(name, self time in ns)` per span, in span order. Children are
/// clipped to their parent's interval, so a child that outlives its
/// parent cannot drive the parent's self time negative.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut covered = vec![0u64; spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            let start = sp.start_ns.max(spans[p].start_ns);
            let end = sp.end_ns.min(spans[p].end_ns);
            covered[p] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(sp, c)| (sp.name, (sp.end_ns - sp.start_ns).saturating_sub(c)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("a.inner", 15, 25, Some(1)),
        ];
        assert_eq!(
            self_times(&spans),
            vec![("root", 30), ("a", 20), ("b", 40), ("a.inner", 10)]
        );
    }

    #[test]
    fn a_child_outliving_its_parent_is_clipped() {
        let spans = [span("p", 10, 20, None), span("c", 5, 50, Some(0))];
        assert_eq!(self_times(&spans)[0], ("p", 0));
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut r = Recorder::new(true, "t-1".into());
        r.span("outer", |r| {
            r.span("inner", |_| ());
            r.count("ops", 2);
            r.count("ops", 3);
        });
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[1].parent, Some(0));
        assert!(r.spans[0].end_ns >= r.spans[1].end_ns);
        let text = r.to_jsonl();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\"count\":\"ops\",\"value\":5"));

        let mut off = Recorder::new(false, "t-2".into());
        off.span("outer", |r| r.count("ops", 1));
        assert!(off.to_jsonl().is_empty());
    }
}
