//! Flight-recorder guarantees under concurrency: the seqlock ring never
//! tears, never under-reports drops, and keeps per-thread event order;
//! span open/close accounting always balances; the Chrome exporter's
//! byte format is pinned by a golden test.

use std::sync::Arc;

use proptest::prelude::*;
use sias_obs::export::{to_chrome_trace, to_jsonl};
use sias_obs::{EventKind, FlightRecorder, Registry, SpanName, TraceConfig, TraceEvent};

/// All recording threads use a small rotation of names so decode
/// round-trips are exercised across the enum.
const NAMES: [SpanName; 4] =
    [SpanName::TxnCommit, SpanName::WalAppend, SpanName::PoolMiss, SpanName::EngineGet];

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// 8 writer threads hammer a deliberately tiny ring. Afterwards the
    /// books must balance exactly: every claimed ticket was either
    /// retained in the window or counted as dropped, the window never
    /// exceeds its configured capacity, and each thread's surviving
    /// events keep their program order (per-shard tickets are monotone
    /// for a fixed thread).
    #[test]
    fn ring_wraparound_accounting_is_exact(
        shards in 1usize..4,
        capacity in 2usize..32,
        per_thread in 1u64..200,
    ) {
        let cfg = TraceConfig { shards, capacity, slow_capacity: 8, slow_threshold_ns: 0 };
        let rec = Arc::new(FlightRecorder::new(cfg, &Registry::new()));
        rec.set_enabled(true);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let rec = Arc::clone(&rec);
                s.spawn(move || {
                    for i in 0..per_thread {
                        rec.instant(NAMES[(i % 4) as usize], t, i);
                    }
                });
            }
        });
        let total = 8 * per_thread;
        prop_assert_eq!(rec.total_recorded(), total);
        let events = rec.capture();
        prop_assert!(events.len() as u64 <= (shards * capacity) as u64);
        prop_assert_eq!(events.len() as u64 + rec.dropped(), total,
            "window {} + dropped {} != recorded {}", events.len(), rec.dropped(), total);
        // Program order per writer: `arg` carries the thread-local
        // counter, and a thread's shard tickets grow with time.
        let mut by_writer: std::collections::BTreeMap<u64, Vec<&TraceEvent>> = Default::default();
        for e in &events {
            prop_assert_eq!(e.kind, EventKind::Instant);
            by_writer.entry(e.txn).or_default().push(e);
        }
        for (writer, mut evs) in by_writer {
            evs.sort_by_key(|e| e.seq);
            for w in evs.windows(2) {
                prop_assert!(w[0].arg < w[1].arg,
                    "writer {} events reordered: arg {} then {}", writer, w[0].arg, w[1].arg);
            }
        }
    }

    /// Open/close accounting balances for arbitrary nesting shapes: any
    /// sequence of push/pop actions across threads ends with zero open
    /// spans once every guard has dropped.
    #[test]
    fn span_balance_always_closes(depths in proptest::collection::vec(1usize..6, 1..8)) {
        let rec = Arc::new(FlightRecorder::new(TraceConfig::default(), &Registry::new()));
        rec.set_enabled(true);
        std::thread::scope(|s| {
            for depth in depths.clone() {
                let rec = Arc::clone(&rec);
                s.spawn(move || {
                    fn nest(rec: &FlightRecorder, d: usize) {
                        let _g = rec.span(SpanName::TxnBegin);
                        if d > 1 {
                            nest(rec, d - 1);
                        }
                    }
                    nest(&rec, depth);
                });
            }
        });
        let opened: usize = depths.iter().sum();
        prop_assert_eq!(rec.spans_opened(), opened as u64);
        prop_assert_eq!(rec.open_spans(), 0, "unbalanced spans after all guards dropped");
        prop_assert_eq!(rec.capture().len(), opened);
    }
}

/// Chrome `trace_event` output is byte-for-byte pinned: tooling parses
/// this format, so drift is a break, not a style change.
#[test]
fn chrome_trace_golden() {
    let events = [
        TraceEvent {
            seq: 0,
            kind: EventKind::Span,
            name: SpanName::TxnCommit,
            tid: 1,
            depth: 0,
            start_ns: 1_500,
            dur_ns: 2_034_567,
            txn: 42,
            arg: 0,
        },
        TraceEvent {
            seq: 1,
            kind: EventKind::Instant,
            name: SpanName::AnomalyFlag,
            tid: 2,
            depth: 0,
            start_ns: 3_000_001,
            dur_ns: 0,
            txn: 7,
            arg: 96,
        },
    ];
    let golden = concat!(
        "{\"traceEvents\":[\n",
        "  {\"name\":\"txn.commit\",\"cat\":\"txn\",\"ph\":\"X\",\"ts\":1.500,\"dur\":2034.567,",
        "\"pid\":1,\"tid\":1,\"args\":{\"txn\":42,\"arg\":0,\"depth\":0}},\n",
        "  {\"name\":\"anomaly.flag\",\"cat\":\"anomaly\",\"ph\":\"i\",\"s\":\"t\",\"ts\":3000.001,",
        "\"pid\":1,\"tid\":2,\"args\":{\"txn\":7,\"arg\":96,\"depth\":0}}\n",
        "]}\n",
    );
    assert_eq!(to_chrome_trace(&events), golden);
    // And the JSONL twin stays one-object-per-line with the same count.
    let jsonl = to_jsonl(&events);
    assert_eq!(jsonl.lines().count(), events.len());
}

/// A recorder that is never enabled records nothing and allocates no
/// ring memory, no matter how many spans and instants fly at it.
#[test]
fn disabled_tracing_records_zero_events() {
    let rec = FlightRecorder::new(TraceConfig::default(), &Registry::new());
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let rec = &rec;
            s.spawn(move || {
                for i in 0..1_000 {
                    let _g = rec.span(SpanName::EngineUpdate).txn(t).arg(i);
                    rec.instant(SpanName::PoolMiss, t, i);
                }
            });
        }
    });
    assert_eq!(rec.total_recorded(), 0);
    assert_eq!(rec.dropped(), 0);
    assert_eq!(rec.memory_bytes(), 0, "disabled recorder must not allocate rings");
    assert!(rec.capture().is_empty());
    assert!(rec.capture_slow().is_empty());
}
