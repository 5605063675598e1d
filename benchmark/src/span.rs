//! In-memory spans recorded by the benchmark around each call into a
//! layer: name, start, end, the span that caused it, and the op both
//! belong to. Spans stay in memory for the whole run and are written out
//! once, when the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`sim.run`, `bench.bind`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for an op's root span.
    pub parent: Option<usize>,
    /// The op (tick or cell run) the span belongs to; spans of one op
    /// share it.
    pub op: u64,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Recorder::enter`].
#[derive(Debug)]
#[must_use = "pass the handle to Recorder::exit to close the span"]
pub struct Open(usize);

/// Records spans; strictly nested (a span closes before its parent).
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Recorder {
    /// A recorder with room for `capacity` spans, so that recording
    /// inside a counted region does not allocate.
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(8),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts the next op: later root spans carry a fresh op id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let index = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(index);
        Open(index)
    }

    /// Closes `open`, which must be the innermost open span; returns its
    /// duration in nanoseconds.
    pub fn exit(&mut self, open: Open) -> u64 {
        let end_ns = self.now();
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans close innermost first");
        let span = &mut self.spans[open.0];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Ends recording and hands the spans over.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of it its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// Totals by span name, in name order.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (span, own_ns) in spans.iter().zip(own) {
        let t = out.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += own_ns;
    }
    out
}

/// The span file: totals by name, then every span.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let totals = totals_by_name(spans)
        .into_iter()
        .map(|(name, t)| {
            (
                name,
                Json::obj([
                    ("count", Json::Num(t.count as f64)),
                    ("total_ns", Json::Num(t.total_ns as f64)),
                    ("self_ns", Json::Num(t.self_ns as f64)),
                ]),
            )
        })
        .collect::<Vec<_>>();
    let rows = spans
        .iter()
        .map(|s| {
            Json::Arr(vec![
                Json::str(s.name),
                Json::Num(s.start_ns as f64),
                Json::Num(s.end_ns as f64),
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                Json::Num(s.op as f64),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("totals_by_name", Json::obj(totals)),
        (
            "span_columns",
            Json::Arr(
                ["name", "start_ns", "end_ns", "parent", "op"]
                    .map(Json::str)
                    .to_vec(),
            ),
        ),
        ("spans", Json::Arr(rows)),
    ])
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
    fn self_time_is_duration_minus_direct_children() {
        // cell [0,100] ⊃ bind [10,30] ⊃ services [12,20]; cell ⊃ run [30,90]
        let spans = vec![
            span("cell", 0, 100, None),
            span("bind", 10, 30, Some(0)),
            span("services", 12, 20, Some(1)),
            span("run", 30, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 12, 8, 60]);
        // Self times of one op partition its root span exactly.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["bind"],
            NameTotal {
                count: 1,
                total_ns: 20,
                self_ns: 12
            }
        );
    }

    #[test]
    fn recorder_nests_and_tags_ops() {
        let mut rec = Recorder::with_capacity(8);
        rec.next_op();
        let root = rec.enter("op");
        let child = rec.enter("child");
        rec.exit(child);
        rec.exit(root);
        rec.next_op();
        let second = rec.enter("op");
        rec.exit(second);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[0].op, spans[1].op, spans[2].op), (1, 1, 2));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        let own = self_times(spans);
        assert_eq!(own[0] + own[1], spans[0].duration_ns());
    }

    #[test]
    fn span_file_lists_totals_and_rows() {
        let spans = vec![span("cell", 0, 10, None), span("run", 2, 8, Some(0))];
        let file = to_json("paper_static", 11, &spans);
        assert_eq!(
            file.get("totals_by_name")
                .and_then(|t| t.get("cell"))
                .and_then(|c| c.get("self_ns")),
            Some(&Json::Num(4.0))
        );
        assert_eq!(
            file.get("spans").and_then(Json::as_arr).map(<[_]>::len),
            Some(2)
        );
    }
}
