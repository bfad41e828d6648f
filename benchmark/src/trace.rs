//! Spans recorded from outside the program: the harness opens one around
//! each call into a layer's public functions, keeps them in memory, and
//! writes them out when the run ends. Self time is a span minus the part
//! its children cover; `report` turns a trace file into the per-layer table.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

/// One timed interval. `op` groups the spans of one operation (trajectory
/// or socket pass); `parent` is the span that caused this one, 0 for none.
/// A span with `calls > 1` is an aggregate: `calls` back-to-back calls whose
/// busy time is `end_ns - start_ns`, recorded as one span because a span
/// per call would cost more than the call (the transition oracle answers in
/// ~100 ns, ~100 times per GPS point).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name without the last component
    /// (`roadnet.transition.route_dist` → `roadnet.transition`).
    pub fn layer(&self) -> &str {
        self.name.rsplit_once('.').map_or(&*self.name, |(layer, _)| layer)
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

/// What a switched-off recorder hands out.
const NOT_RECORDED: Open = Open(usize::MAX);

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
    enabled: bool,
}

impl Tracer {
    /// A recorder whose clock starts at `origin` (share one origin between
    /// the recorders of a multi-threaded pass).
    pub fn new(origin: Instant) -> Self {
        Self { origin, spans: Vec::new(), stack: Vec::new(), op: 0, enabled: true }
    }

    /// A recorder that records nothing and reads no clock: the timed
    /// (untraced) passes run the same code with this one.
    pub fn off() -> Self {
        Self { enabled: false, ..Self::new(Instant::now()) }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run shorter than 584 years")
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return NOT_RECORDED;
        }
        let id = u32::try_from(self.spans.len() + 1).expect("fewer than 2^32 spans");
        let parent = self.stack.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op: self.op,
            name: Cow::Borrowed(name),
            start_ns,
            end_ns: start_ns,
            calls: 1,
        });
        self.stack.push(id);
        Open(self.spans.len() - 1)
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn close(&mut self, span: Open) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let s = &mut self.spans[span.0];
        assert_eq!(self.stack.pop(), Some(s.id), "spans close innermost first");
        s.end_ns = now;
    }

    /// Records an aggregate child of the innermost open span: `calls` calls
    /// that were busy for `busy_ns` in total since `start_ns`.
    pub fn aggregate(&mut self, name: &'static str, start_ns: u64, busy_ns: u64, calls: u64) {
        if calls == 0 || !self.enabled {
            return;
        }
        let id = u32::try_from(self.spans.len() + 1).expect("fewer than 2^32 spans");
        let parent = self.stack.last().copied().unwrap_or(0);
        self.spans.push(Span {
            id,
            parent,
            op: self.op,
            name: Cow::Borrowed(name),
            start_ns,
            end_ns: start_ns + busy_ns,
            calls,
        });
    }

    /// The finished spans; ids are shifted by `id_base` so several
    /// recorders merge into one file without clashing.
    pub fn finish(self, id_base: u32) -> Vec<Span> {
        assert!(self.stack.is_empty(), "a span was left open");
        self.spans
            .into_iter()
            .map(|mut s| {
                s.id += id_base;
                if s.parent != 0 {
                    s.parent += id_base;
                }
                s
            })
            .collect()
    }
}

/// Self time of every span: its duration minus its direct children's,
/// floored at zero. Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            covered[p] += s.dur_ns();
        }
    }
    spans.iter().zip(&covered).map(|(s, &c)| s.dur_ns().saturating_sub(c)).collect()
}

/// One row of the per-layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub layer: String,
    pub self_ns: u64,
    pub calls: u64,
}

/// Per-layer self time and call counts, largest first.
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let mut by_layer: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = by_layer.entry(s.layer()).or_default();
        e.0 += self_ns;
        e.1 += s.calls;
    }
    let mut rows: Vec<LayerRow> = by_layer
        .into_iter()
        .map(|(layer, (self_ns, calls))| LayerRow { layer: layer.to_string(), self_ns, calls })
        .collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.layer.cmp(&b.layer)));
    rows
}

/// Total self time of the spans named `name`, and their call count.
pub fn total_of(spans: &[Span], name: &str) -> (u64, u64) {
    let selfs = self_times(spans);
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .fold((0, 0), |(ns, calls), (s, self_ns)| (ns + self_ns, calls + s.calls))
}

/// A traced pass as written to `trace-<workload>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFile {
    pub workload: String,
    /// Wall time of the traced pass.
    pub pass_wall_ns: u64,
    /// Threads whose spans the file holds; shares are of
    /// `pass_wall_ns * threads`.
    pub threads: u32,
    pub spans: Vec<Span>,
}

impl TraceFile {
    pub fn to_json(&self) -> Value {
        let int = |x: u64| Value::Int(i64::try_from(x).expect("fits i64"));
        Value::obj([
            ("workload", Value::Str(self.workload.clone())),
            ("pass_wall_ns", int(self.pass_wall_ns)),
            ("threads", Value::Int(i64::from(self.threads))),
            (
                "spans",
                Value::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Value::obj([
                                ("id", Value::Int(i64::from(s.id))),
                                ("parent", Value::Int(i64::from(s.parent))),
                                ("op", Value::Int(i64::from(s.op))),
                                ("name", Value::Str(s.name.to_string())),
                                ("start_ns", int(s.start_ns)),
                                ("end_ns", int(s.end_ns)),
                                ("calls", int(s.calls)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Self, String> {
        let u = |v: &Value, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_i64)
                .and_then(|i| u64::try_from(i).ok())
                .ok_or_else(|| format!("trace file: missing or negative `{key}`"))
        };
        let narrow =
            |x: u64, key: &str| u32::try_from(x).map_err(|_| format!("trace file: `{key}` > u32"));
        let spans = v
            .get("spans")
            .and_then(Value::as_arr)
            .ok_or("trace file: missing `spans`")?
            .iter()
            .map(|s| {
                Ok(Span {
                    id: narrow(u(s, "id")?, "id")?,
                    parent: narrow(u(s, "parent")?, "parent")?,
                    op: narrow(u(s, "op")?, "op")?,
                    name: Cow::Owned(
                        s.get("name")
                            .and_then(Value::as_str)
                            .ok_or("trace file: span without `name`")?
                            .to_string(),
                    ),
                    start_ns: u(s, "start_ns")?,
                    end_ns: u(s, "end_ns")?,
                    calls: u(s, "calls")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            workload: v
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("trace file: missing `workload`")?
                .to_string(),
            pass_wall_ns: u(v, "pass_wall_ns")?,
            threads: narrow(u(v, "threads")?, "threads")?,
            spans,
        })
    }

    /// The per-layer self-time table with each layer's share of the pass
    /// and the unattributed remainder, as `report` prints it.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let budget = self.pass_wall_ns as f64 * f64::from(self.threads);
        let rows = layer_table(&self.spans);
        let attributed: u64 = rows.iter().map(|r| r.self_ns).sum();
        let mut out = String::new();
        writeln!(
            out,
            "{}: traced pass {:.3} ms on {} thread(s), {} spans",
            self.workload,
            self.pass_wall_ns as f64 / 1e6,
            self.threads,
            self.spans.len()
        )
        .expect("write to String");
        writeln!(out, "{:<28} {:>12} {:>8} {:>12}", "layer", "self ms", "share", "calls")
            .expect("write to String");
        for r in &rows {
            writeln!(
                out,
                "{:<28} {:>12.3} {:>7.2}% {:>12}",
                r.layer,
                r.self_ns as f64 / 1e6,
                100.0 * r.self_ns as f64 / budget,
                r.calls
            )
            .expect("write to String");
        }
        let rest = budget - attributed as f64;
        writeln!(
            out,
            "{:<28} {:>12.3} {:>7.2}%",
            "(unattributed)",
            rest / 1e6,
            100.0 * rest / budget
        )
        .expect("write to String");
        out
    }

    /// Share of the pass no span accounts for.
    pub fn unattributed_share(&self) -> f64 {
        let budget = self.pass_wall_ns as f64 * f64::from(self.threads);
        let attributed: u64 = self_times(&self.spans).iter().sum();
        (budget - attributed as f64) / budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start: u64, end: u64, calls: u64) -> Span {
        Span { id, parent, op: 1, name: name.into(), start_ns: start, end_ns: end, calls }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = vec![
            span(1, 0, "core.batch.op", 0, 1000, 1),
            span(2, 1, "rtree.knn", 100, 300, 1),
            span(3, 1, "baselines.decoder.advance", 300, 900, 1),
            // An aggregate: 40 oracle calls busy for 450 ns inside span 3.
            span(4, 3, "roadnet.transition.route_dist", 300, 750, 40),
        ];
        assert_eq!(self_times(&spans), vec![200, 200, 150, 450]);
        let rows = layer_table(&spans);
        assert_eq!(
            rows[0],
            LayerRow { layer: "roadnet.transition".into(), self_ns: 450, calls: 40 }
        );
        assert_eq!(rows.iter().map(|r| r.self_ns).sum::<u64>(), 1000, "self times tile the root");
        assert_eq!(total_of(&spans, "rtree.knn"), (200, 1));
    }

    #[test]
    fn children_that_overrun_floor_at_zero() {
        let spans = vec![span(1, 0, "a.x", 0, 100, 1), span(2, 1, "b.y", 0, 150, 1)];
        assert_eq!(self_times(&spans), vec![0, 150]);
    }

    #[test]
    fn recorder_nests_and_merges() {
        let mut t = Tracer::new(Instant::now());
        t.set_op(7);
        let root = t.open("core.batch.op");
        let child = t.open("rtree.knn");
        t.close(child);
        t.aggregate("roadnet.transition.route_dist", 5, 10, 3);
        t.aggregate("roadnet.transition.route_dist", 5, 0, 0);
        t.close(root);
        let spans = t.finish(100);
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].id, spans[0].parent, spans[0].op), (101, 0, 7));
        assert_eq!((spans[1].id, spans[1].parent), (102, 101));
        assert_eq!((spans[2].parent, spans[2].calls, spans[2].dur_ns()), (101, 3, 10));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn trace_file_round_trips_and_reports_the_remainder() {
        let file = TraceFile {
            workload: "match_fmm_table".into(),
            pass_wall_ns: 1250,
            threads: 1,
            spans: vec![
                span(1, 0, "core.batch.op", 0, 1000, 1),
                span(2, 1, "rtree.knn", 0, 400, 9),
            ],
        };
        let back = TraceFile::from_json(&crate::json::parse(&file.to_json().encode()).unwrap());
        assert_eq!(back.unwrap(), file);
        assert!((file.unattributed_share() - 0.2).abs() < 1e-12);
        let table = file.render();
        assert!(table.contains("rtree"));
        assert!(table.contains("(unattributed)"));
    }
}
