//! Spans recorded by the ledger itself, around calls into each crate's
//! public functions. Nothing here lives inside the measured program:
//! the traced pass opens a span, makes the public call, closes the
//! span. Spans are held in memory and written as a Chrome trace at
//! exit; per-layer metrics are medians over the spans of one name.

use flat_obs::json::Value;
use flat_obs::TraceEvent;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. `parent` indexes the enclosing span; spans of one
/// replayed operation share `op`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; `None` inside when disabled.
#[derive(Clone, Copy)]
pub struct Open(Option<usize>);

/// Single-threaded span recorder. A disabled tracer records nothing, so
/// the same replay code gives the untraced timing `trace_overhead` is
/// measured against.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Start the next operation; spans opened until the next call carry
    /// its identifier.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        if let Open(Some(id)) = open {
            self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Time one call as a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Durations in microseconds grouped by span name.
pub fn durations_us(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by_name
            .entry(s.name)
            .or_default()
            .push(s.dur_ns() as f64 / 1e3);
    }
    by_name
}

/// Render spans as Chrome trace events (one track; `op`, `parent` and
/// self time ride in `args`), at most `limit` of them so a run with
/// hundreds of thousands of replayed requests still writes a file a
/// browser opens.
pub fn trace_events(spans: &[Span], limit: usize) -> Vec<TraceEvent> {
    let own = self_times(spans);
    spans
        .iter()
        .enumerate()
        .take(limit)
        .map(|(i, s)| TraceEvent {
            name: s.name.to_string(),
            cat: s.name.split('.').next().unwrap_or("ledger").to_string(),
            ph: 'X',
            ts_us: s.start_ns as f64 / 1e3,
            dur_us: s.dur_ns() as f64 / 1e3,
            tid: 0,
            args: vec![
                ("op".to_string(), Value::from(s.op)),
                (
                    "parent".to_string(),
                    s.parent.map_or(Value::Null, |p| Value::from(spans[p].name)),
                ),
                ("self_us".to_string(), Value::from(own[i] as f64 / 1e3)),
            ],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn tracer_nests_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.next_op();
        let root = t.begin("root");
        t.time("child", || ());
        t.end(root);
        t.next_op();
        t.time("second", || ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((s[0].op, s[1].op, s[2].op), (1, 1, 2));
        assert!(s[0].dur_ns() >= s[1].dur_ns());

        let mut off = Tracer::new(false);
        assert_eq!(off.time("x", || 7), 7);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn trace_events_carry_parent_and_self_time() {
        let spans = vec![
            span("flat-vm.run", 0, 3000, None),
            span("flat-vm.x", 0, 1000, Some(0)),
        ];
        let ev = trace_events(&spans, 10);
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].cat, "flat-vm");
        assert_eq!(ev[0].dur_us, 3.0);
        assert_eq!(ev[0].args[2].1, Value::from(2.0));
        assert_eq!(ev[1].args[1].1, Value::from("flat-vm.run"));
        assert_eq!(trace_events(&spans, 1).len(), 1);
    }
}
