//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer's public functions: the measured closures mark
//! `Instant`s, and the caller turns the marks into spans once the
//! operation has returned. Nothing here runs in an untraced run, and a
//! traced operation does no I/O until the run ends and
//! [`Recorder::write_jsonl`] writes the spans out.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::json::Json;

/// One recorded interval. Spans of one operation form a tree under a
/// root span; `id`s are indices in recording order.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// `<layer>.<what>`; the layer is everything before the last dot.
    pub name: String,
    /// The simulated rank the interval was measured on, if any.
    pub rank: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts taken at the same boundary as the times.
    pub counts: Vec<(String, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn to_json(&self) -> Json {
        let opt = |v: Option<u32>| v.map_or(Json::Null, |v| Json::from(u64::from(v)));
        Json::obj([
            ("id", Json::from(u64::from(self.id))),
            ("parent", opt(self.parent)),
            ("name", Json::str(self.name.as_str())),
            ("rank", opt(self.rank)),
            ("start_ns", Json::from(self.start_ns)),
            ("end_ns", Json::from(self.end_ns)),
            (
                "counts",
                Json::obj(
                    self.counts
                        .iter()
                        .map(|(k, v)| (k.as_str(), Json::from(*v))),
                ),
            ),
        ])
    }

    fn from_json(v: &Json) -> Option<Span> {
        let num = |key: &str| v.get(key)?.as_f64().map(|n| n as u64);
        let opt = |key: &str| v.get(key)?.as_f64().map(|n| n as u32);
        Some(Span {
            id: num("id")? as u32,
            parent: opt("parent"),
            name: v.get("name")?.as_str()?.to_owned(),
            rank: opt("rank"),
            start_ns: num("start_ns")?,
            end_ns: num("end_ns")?,
            counts: v
                .get("counts")?
                .members()
                .iter()
                .map(|(k, n)| Some((k.clone(), n.as_f64()? as u64)))
                .collect::<Option<_>>()?,
        })
    }
}

/// Collects spans against one time origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records `[start, end]` under `parent` and returns the new id.
    pub fn span(
        &mut self,
        parent: Option<u32>,
        name: &str,
        rank: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.ns(start);
        self.spans.push(Span {
            id,
            parent,
            name: name.to_owned(),
            rank: rank.map(|r| r as u32),
            start_ns,
            end_ns: self.ns(end).max(start_ns),
            counts: Vec::new(),
        });
        id
    }

    /// Attaches a count to span `id`.
    pub fn count(&mut self, id: u32, name: &str, value: u64) {
        self.spans[id as usize]
            .counts
            .push((name.to_owned(), value));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span, one per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for span in &self.spans {
            writeln!(out, "{}", span.to_json())?;
        }
        Ok(())
    }
}

/// Parses the lines [`Recorder::write_jsonl`] wrote.
pub fn read_jsonl(text: &str) -> Result<Vec<Span>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Span::from_json(&Json::parse(l)?).ok_or_else(|| format!("not a span: {l}")))
        .collect()
}

/// Self time of every span, indexed by id: its duration minus the part
/// of its interval that its child spans cover. Children on different
/// ranks overlap in time, so the covered part is the union of the
/// child intervals, clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children.entry(p).or_default().push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(intervals) = children.get_mut(&s.id) {
                intervals.sort_unstable();
                let mut reach = s.start_ns;
                for &(lo, hi) in intervals.iter() {
                    if hi > reach {
                        covered += hi - lo.max(reach);
                        reach = hi;
                    }
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-layer totals of a trace: `(layer, spans, total seconds, self
/// seconds)`, sorted by self time descending. Intervals measured on
/// several ranks at once add up, so the totals are rank-seconds.
pub fn layer_table(spans: &[Span]) -> Vec<(String, usize, f64, f64)> {
    let own = self_times_ns(spans);
    let mut layers: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let layer = s.name.rsplit_once('.').map_or(s.name.as_str(), |(l, _)| l);
        let row = layers.entry(layer).or_default();
        row.0 += 1;
        row.1 += s.duration_ns();
        row.2 += own;
    }
    let mut rows: Vec<_> = layers
        .into_iter()
        .map(|(l, (n, total, own))| (l.to_owned(), n, total as f64 / 1e9, own as f64 / 1e9))
        .collect();
    rows.sort_by(|a, b| b.3.partial_cmp(&a.3).expect("finite"));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(id: u32, parent: Option<u32>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_owned(),
            rank: None,
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn recorder_links_parents_and_orders_ids() {
        let mut rec = Recorder::new();
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_millis(5);
        let root = rec.span(None, "bench.solve", None, t0, t1);
        let child = rec.span(Some(root), "graph.dodgr.build", Some(1), t0, t1);
        rec.count(child, "bytes", 42);
        let spans = rec.spans();
        assert_eq!((root, child), (0, 1));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].rank, Some(1));
        assert_eq!(spans[1].duration_ns(), 5_000_000);
        assert_eq!(spans[1].counts, vec![("bytes".to_owned(), 42)]);
        // An end before the start (clock marks taken out of order)
        // clamps to an empty span instead of underflowing.
        let odd = rec.span(None, "x.y", None, t1, t0);
        assert_eq!(rec.spans()[odd as usize].duration_ns(), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, "bench.solve", 0, 100),
            // Two ranks overlap on [10, 60]; together they cover [10, 70].
            span(1, Some(0), "graph.dodgr.build", 10, 60),
            span(2, Some(0), "graph.dodgr.build", 20, 70),
            // A grandchild only reduces its own parent.
            span(3, Some(1), "ygm.comm.barrier", 30, 40),
            // A child reaching past its parent is clipped to it.
            span(4, Some(0), "ygm.world.join", 90, 130),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 50, 10, 40]);
    }

    #[test]
    fn layer_table_groups_by_prefix() {
        let spans = vec![
            span(0, None, "bench.solve", 0, 100),
            span(1, Some(0), "graph.dodgr.build", 0, 60),
            span(2, Some(0), "graph.dodgr.drop", 60, 70),
        ];
        let rows = layer_table(&spans);
        assert_eq!(rows[0].0, "graph.dodgr");
        assert_eq!(rows[0].1, 2);
        assert!((rows[0].3 - 70e-9).abs() < 1e-15);
        assert_eq!(rows[1].0, "bench");
        assert!((rows[1].3 - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn json_lines_round_trip() {
        let mut rec = Recorder::new();
        let t0 = Instant::now();
        let root = rec.span(None, "bench.query", None, t0, t0 + Duration::from_micros(7));
        let c = rec.span(Some(root), "core.push_pull.pull", Some(0), t0, t0);
        rec.count(c, "bytes", 1 << 40);
        rec.count(c, "records", 0);
        let mut bytes = Vec::new();
        rec.write_jsonl(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert_eq!(read_jsonl(&text).unwrap(), rec.spans());
        assert!(read_jsonl("{\"id\": 1}").is_err());
    }
}
