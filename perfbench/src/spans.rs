//! In-memory span recorder and self-time attribution.
//!
//! Spans are recorded only in the benchmark's own code, around calls into
//! the crates' public functions. A span's name is `<crate>.<call>`; the
//! crate is the layer its time is charged to. Spans are kept in memory and
//! written out once the run ends.
//!
//! Some calls are opaque: `DataParallelTrainer::step` runs the collective,
//! the host sum and the event core inside itself. Their insides are
//! measured by *probes* — the same public functions called again on the
//! same inputs after the traced run — and each probe's duration is laid
//! into the opaque span as an *attributed* child, starting at the parent's
//! start and clipped to its end. Self time then follows one rule for every
//! span: its duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, in seconds since the recorder's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    /// Laid in from a probe measurement rather than timed in place.
    pub attributed: bool,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// The layer a span is charged to: its name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Records nested spans when on; does nothing but run the code when off.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Seconds since the recorder's origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start: self.now(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            attributed: false,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Lays a child of `parent` in from a probe measurement of `seconds`,
    /// starting at `offset` seconds into the parent; returns its index.
    pub fn attribute(&mut self, parent: usize, name: &str, offset: f64, seconds: f64) -> usize {
        let p = &self.spans[parent];
        let start = (p.start + offset).min(p.end);
        let end = (start + seconds.max(0.0)).min(p.end);
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end,
            parent: Some(parent),
            attributed: true,
        });
        self.spans.len() - 1
    }

    /// The index the next recorded span will get.
    pub fn next_id(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total length of the union of `intervals`.
pub fn union_length(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.retain(|(s, e)| e > s);
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Each span's self time: its duration minus the part of it covered by
/// the union of its children (each clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            children[p].push((s.start.max(parent.start), s.end.min(parent.end)));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.duration() - union_length(c))
        .collect()
}

/// Self time per layer of the spans lying inside `[start, end]`.
pub fn window_self_times(spans: &[Span], start: f64, end: f64) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        if s.start >= start && s.end <= end {
            *out.entry(s.layer().to_string()).or_insert(0.0) += t;
        }
    }
    out
}

/// Wall time inside `[start, end]` that no root span covers.
pub fn unattributed(spans: &[Span], start: f64, end: f64) -> f64 {
    let roots = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start.max(start), s.end.min(end)))
        .collect();
    (end - start) - union_length(roots)
}

/// Sum of durations of spans named `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |t, s| t + s.duration())
}

/// Spans as JSON lines: `{"name", "start", "end", "parent", "attributed"}`.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"start\":{:?},\"end\":{:?},\"parent\":{},\"attributed\":{}}}\n",
            s.name, s.start, s.end, parent, s.attributed
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start,
            end,
            parent,
            attributed: false,
        }
    }

    #[test]
    fn union_merges_overlaps_and_gaps() {
        assert_eq!(union_length(vec![]), 0.0);
        assert_eq!(union_length(vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]), 4.0);
        assert_eq!(union_length(vec![(4.0, 5.0), (0.0, 1.0), (0.5, 0.75)]), 2.0);
    }

    #[test]
    fn nested_children_subtract_once() {
        // root [0,10] > a [1,4] > b [2,3]; root > c [5,6].
        let spans = vec![
            span("core.step", 0.0, 10.0, None),
            span("collectives.x", 1.0, 4.0, Some(0)),
            span("simnet.y", 2.0, 3.0, Some(1)),
            span("tensor.z", 5.0, 6.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![6.0, 2.0, 1.0, 1.0]);
        let layers = window_self_times(&spans, 0.0, 10.0);
        assert_eq!(layers["core"], 6.0);
        assert_eq!(layers.values().sum::<f64>(), 10.0);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        let spans = vec![
            span("core.step", 0.0, 10.0, None),
            span("a.x", 1.0, 5.0, Some(0)),
            span("b.x", 3.0, 7.0, Some(0)),
        ];
        // Children cover [1,7]: the parent keeps 4 s.
        assert_eq!(self_times(&spans)[0], 4.0);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span("core.step", 0.0, 2.0, None),
            span("a.x", 1.0, 5.0, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 1.0);
    }

    #[test]
    fn self_times_and_unattributed_sum_to_wall() {
        let spans = vec![
            span("core.step", 1.0, 4.0, None),
            span("a.x", 1.5, 2.0, Some(0)),
            span("faults.advance", 5.0, 6.0, None),
        ];
        let gap = unattributed(&spans, 0.0, 8.0);
        assert_eq!(gap, 4.0);
        let sum: f64 = window_self_times(&spans, 0.0, 8.0).values().sum();
        assert_eq!(sum + gap, 8.0);
    }

    #[test]
    fn attributed_children_start_at_offset_and_clip() {
        let mut t = Tracer::new(true);
        let id = t.next_id();
        t.span("core.step", |_| ());
        let parent = t.spans()[0].clone();
        let child = t.attribute(id, "tensor.sum_all", 0.0, 1e9);
        let s = &t.spans()[child];
        assert!(s.attributed);
        assert_eq!((s.start, s.end), (parent.start, parent.end));
        assert_eq!(self_times(t.spans())[id], 0.0);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("core.step", |t| t.span("a.b", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
