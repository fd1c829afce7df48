//! Ablation A3 — scan access paths (§4.2.1).
//!
//! SIAS scans the VID map first and walks each chain from its entrypoint;
//! the traditional path reads every tuple version in the relation and
//! checks each candidate. The paper: "Since such a relation scan fetches
//! all the tuple versions, each of them has to be checked for visibility
//! individually … obviously this method is not as efficient". The gap
//! widens with version churn (more dead versions to wade through).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sias_core::SiasDb;
use sias_storage::StorageConfig;
use sias_txn::MvccEngine;
use std::hint::black_box;

/// Builds a relation with `items` rows, each updated `updates` times.
fn build(items: u64, updates: u32) -> (SiasDb, sias_common::RelId) {
    let db = SiasDb::open(StorageConfig::in_memory());
    let rel = db.create_relation("t");
    let t = db.begin();
    for k in 0..items {
        db.insert(&t, rel, k, &[0u8; 64]).unwrap();
    }
    db.commit(t).unwrap();
    for round in 0..updates {
        let t = db.begin();
        for k in 0..items {
            db.update(&t, rel, k, &[round as u8; 64]).unwrap();
        }
        db.commit(t).unwrap();
    }
    (db, rel)
}

fn bench_scans(c: &mut Criterion) {
    for (label, updates) in [("fresh", 0u32), ("churn5", 5), ("churn20", 20)] {
        let (db, rel) = build(2_000, updates);
        let mut g = c.benchmark_group(format!("scan_{label}"));
        g.sample_size(10);
        g.bench_with_input(BenchmarkId::new("vidmap", updates), &(), |b, _| {
            b.iter(|| {
                let t = db.begin();
                let r = black_box(db.scan(&t, rel, 1).unwrap());
                db.commit(t).unwrap();
                r.len()
            });
        });
        g.bench_with_input(BenchmarkId::new("traditional", updates), &(), |b, _| {
            b.iter(|| {
                let t = db.begin();
                let r = black_box(db.scan_traditional(&t, rel).unwrap());
                db.commit(t).unwrap();
                r.len()
            });
        });
        g.finish();
    }
}

fn bench_point_read_chain_depth(c: &mut Criterion) {
    // Chain-walk cost for a *current* snapshot is depth-independent (the
    // entrypoint is the visible version); verify it stays flat.
    let mut g = c.benchmark_group("point_read_by_chain_depth");
    g.sample_size(20);
    for updates in [0u32, 10, 50] {
        let (db, rel) = build(100, updates);
        g.bench_with_input(BenchmarkId::from_parameter(updates), &(), |b, _| {
            let mut k = 0u64;
            b.iter(|| {
                k = (k + 37) % 100;
                let t = db.begin();
                let r = black_box(db.get(&t, rel, k).unwrap());
                db.commit(t).unwrap();
                r
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_scans, bench_point_read_chain_depth);
criterion_main!(benches);
