//! In-memory spans recorded by the benchmark around its own calls into
//! each layer, and the self-time analysis over them.
//!
//! Every client thread owns one [`SpanLog`], so recording takes no lock.
//! A span's parent is whatever span of the same thread was open when it
//! started; spans of one transaction share its id. Self time is a span's
//! duration minus the time its children cover (children of one thread
//! never overlap, so that is the sum of their durations).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::stats::Samples;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub txn: u64,
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

pub struct SpanLog {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// A log whose timestamps count from `t0`; records nothing unless `on`.
    pub fn new(on: bool, t0: Instant) -> Self {
        SpanLog { on, t0, spans: Vec::new(), open: Vec::new() }
    }

    pub fn enter(&mut self, name: &'static str, txn: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            txn,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes `id` (and any child left open inside it).
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let now = self.t0.elapsed().as_nanos() as u64;
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    pub fn set_txn(&mut self, id: SpanId, txn: u64) {
        if let Some(id) = id {
            self.spans[id].txn = txn;
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-span-name totals over every thread's spans.
#[derive(Default)]
pub struct NameStats {
    pub count: u64,
    pub self_ns: u64,
    pub durations: Samples,
}

/// Self time and duration distribution per span name, over the spans of
/// all threads (each inner `Vec` is one thread's log).
pub fn analyse(threads: &[Vec<Span>]) -> BTreeMap<&'static str, NameStats> {
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for spans in threads {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for (s, children) in spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.self_ns += dur.saturating_sub(children);
            e.durations.push(dur);
        }
    }
    out
}

/// Writes at most `cap` spans per thread as tab-separated lines
/// (`thread name start_ns end_ns parent txn`; parent -1 = none).
pub fn write_tsv(path: &std::path::Path, threads: &[Vec<Span>], cap: usize) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread\tname\tstart_ns\tend_ns\tparent\ttxn")?;
    for (t, spans) in threads.iter().enumerate() {
        for s in spans.iter().take(cap) {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(w, "{t}\t{}\t{}\t{}\t{parent}\t{}", s.name, s.start_ns, s.end_ns, s.txn)?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span { name: "outer", start_ns: 0, end_ns: 100, parent: None, txn: 1 },
            Span { name: "inner", start_ns: 10, end_ns: 40, parent: Some(0), txn: 1 },
            Span { name: "inner", start_ns: 50, end_ns: 70, parent: Some(0), txn: 1 },
        ];
        let a = analyse(&[spans]);
        assert_eq!(a["outer"].self_ns, 50);
        assert_eq!(a["inner"].self_ns, 50);
        assert_eq!(a["inner"].count, 2);
    }

    #[test]
    fn nesting_follows_the_open_stack() {
        let mut log = SpanLog::new(true, Instant::now());
        let a = log.enter("a", 0);
        let b = log.enter("b", 0);
        log.exit(b);
        let c = log.enter("c", 0);
        log.exit(c);
        log.exit(a);
        let spans = log.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn off_records_nothing() {
        let mut log = SpanLog::new(false, Instant::now());
        let a = log.enter("a", 0);
        log.exit(a);
        assert!(log.into_spans().is_empty());
    }
}
