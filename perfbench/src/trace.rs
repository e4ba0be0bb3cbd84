//! Spans the benchmark records around its own calls into each layer:
//! name, start, end, parent and request id, kept in memory per thread
//! and written out when the run ends. A span's self time is its length
//! minus the part of it that its children cover.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// The request the span belongs to (0 outside requests).
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span log. Ids are unique across logs of one run.
pub struct SpanLog {
    epoch: Instant,
    thread: u64,
    next: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant, thread: u64) -> SpanLog {
        SpanLog {
            epoch,
            thread,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// A fresh id, for a parent recorded after its children.
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        (self.thread << 40) | self.next
    }

    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, request, start, end);
        id
    }

    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per span name: `(count, total self time in ns)`.
pub fn self_times(spans: &[Span]) -> HashMap<&'static str, (u64, u64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: HashMap<&'static str, (u64, u64)> = HashMap::new();
    for s in spans {
        let len = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered(kids, s.start_ns, s.end_ns));
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += len - covered.min(len);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            request: 1,
            name: if parent == 0 { "root" } else { "child" },
            start_ns,
            end_ns,
        };
        // Root 0..100; children 10..30 and 20..50 overlap (union 40) and
        // 90..120 sticks out of the root (10 counted).
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),
            span(4, 1, 90, 120),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], (1, 50));
        assert_eq!(t["child"], (3, 20 + 30 + 30));
    }
}
