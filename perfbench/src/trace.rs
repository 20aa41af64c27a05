//! The traced run's in-memory span recorder.
//!
//! A span is one call into a layer's public function, timed from the
//! benchmark's own code: name (the layer and call), start, end, parent
//! span and request id. Each thread records into its own [`Recorder`];
//! recorders are merged at the end and written out as TSV. Span ids are
//! process-unique, so a worker thread's span can name a span of the
//! thread that started it as its parent.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::stats::Samples;

/// Process-unique span ids. `Relaxed`: the counter publishes no other
/// data.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

#[derive(Debug)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's spans, timed against a shared epoch.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn offset(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = Self::reserve();
        self.finish(id, name, parent, req, start, end);
        id
    }

    /// Reserves an id for a span whose children are recorded before it
    /// ends; [`Recorder::finish`] records it under that id.
    pub fn reserve() -> u64 {
        NEXT_ID.fetch_add(1, Ordering::Relaxed)
    }

    pub fn finish(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent,
            req,
        });
    }

    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part of its
    /// interval covered by its children (the union of the children's
    /// intervals, clipped to the parent's).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let covered = children
                    .get(&s.id)
                    .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
                s.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Per-name totals: the per-layer table.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerRow> {
        let self_ns = self.self_ns();
        let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            let row = rows.entry(s.name).or_default();
            row.durations.push_ns(s.dur_ns());
            row.self_ns += own;
        }
        rows
    }

    /// Writes every span as one TSV line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}\t{}",
                s.id, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Totals of one span name.
#[derive(Debug, Default, Clone)]
pub struct LayerRow {
    pub durations: Samples,
    pub self_ns: u64,
}

impl LayerRow {
    pub fn busy_ms(&self) -> f64 {
        self.durations.total_ns() as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut rec = Recorder::new(t0);
        let parent = Recorder::reserve();
        // Two overlapping children (10..40, 30..50) and one poking out
        // of the parent (90..120): covered = 40 + 10 = 50 of 100 µs.
        rec.record("child", Some(parent), 0, at(10), at(40));
        rec.record("child", Some(parent), 0, at(30), at(50));
        rec.record("child", Some(parent), 0, at(90), at(120));
        rec.finish(parent, "parent", None, 0, at(0), at(100));
        let layers = rec.layers();
        assert_eq!(layers["parent"].self_ns, 50_000);
        assert_eq!(layers["child"].durations.len(), 3);
        assert_eq!(layers["child"].self_ns, 30_000 + 20_000 + 30_000);
    }
}
