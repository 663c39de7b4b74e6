//! In-memory span recorder for the traced mode.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public functions; spans nest through a stack, so each records the
//! span it was opened under. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: name, start and end in seconds since the recorder
/// started, and the index of the enclosing span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

/// Records spans against one monotonic origin.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span, and return `f`'s result.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Index of the most recently opened span without a parent.
    pub fn last_root(&self) -> Option<usize> {
        self.spans.iter().rposition(|s| s.parent.is_none())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}}}",
                s.name, s.start, s.end
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children. The recorder opens spans on a stack, so children
/// lie inside their parent and never overlap one another.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(|s| s.end - s.start).collect();
    for span in spans {
        if let Some(p) = span.parent {
            out[p] -= span.end - span.start;
        }
    }
    out
}

/// Self time summed by span name over the tree rooted at `root`
/// (the root included).
pub fn self_by_name(spans: &[Span], root: usize) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for (id, span) in spans.iter().enumerate() {
        if descends_from(spans, id, root) {
            *out.entry(span.name).or_insert(0.0) += selfs[id];
        }
    }
    out
}

fn descends_from(spans: &[Span], mut id: usize, root: usize) -> bool {
    loop {
        if id == root {
            return true;
        }
        match spans[id].parent {
            Some(p) => id = p,
            None => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("rep", 0.0, 10.0, None),
            span("run", 1.0, 6.0, Some(0)),
            span("inner", 2.0, 5.0, Some(1)),
            span("emit", 7.0, 9.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![3.0, 2.0, 3.0, 2.0]);
        let by_name = self_by_name(&spans, 0);
        assert_eq!(by_name.values().sum::<f64>(), 10.0);
        assert_eq!(by_name["run"], 2.0);
    }

    #[test]
    fn recorder_nests_spans_and_sums_by_name() {
        let mut rec = Recorder::default();
        rec.span("rep", |rec| {
            rec.span("plan", |_| ());
            rec.span("run", |rec| rec.span("plan", |_| ()));
        });
        rec.span("other", |_| ());
        let spans = rec.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[4].parent, None);
        assert_eq!(rec.last_root(), Some(4));
        let root = self_by_name(spans, 0);
        let total: f64 = root.values().sum();
        assert!((total - (spans[0].end - spans[0].start)).abs() < 1e-9);
        assert!(!root.contains_key("other"));
        assert_eq!(rec.to_jsonl().lines().count(), 5);
    }
}
