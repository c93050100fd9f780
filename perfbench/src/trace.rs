//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer, recorded by the benchmark around the
//! public entry point it calls: name, start, end, parent span, and the id
//! of the request batch or publish it belongs to. Spans stay in memory and
//! are written out once the run has ended, so recording costs two clock
//! reads and a vector push.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded layer call. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recording, if any.
    pub parent: Option<usize>,
    /// Id of the request batch or publish this span belongs to.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder owned by one thread; recordings of several threads are
/// merged with [`Tracer::absorb`].
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self { origin, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, op });
        self.spans.len() - 1
    }

    /// Close span `id` now and return its duration in nanoseconds.
    pub fn end(&mut self, id: usize) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.duration_ns()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another thread's recording, remapping its parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Write the first `limit` spans as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path, limit: usize) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// Length of the part of `[lo, hi)` covered by the union of `children`
/// (each clipped to `[lo, hi)`); overlapping children count once.
pub fn covered_ns(lo: u64, hi: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(lo), e.min(hi))).filter(|&(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    covered
}

/// Self time of every span: its duration minus the part of it covered by
/// its direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Per span name: how many spans, their summed duration and summed self time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotals {
    /// Mean duration in microseconds per span (0 when none was recorded).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / 1e3 / self.count as f64
        }
    }
}

/// Aggregate spans by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}
