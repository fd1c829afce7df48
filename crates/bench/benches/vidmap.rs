//! Ablation A2 — VID map operation costs (§4.1.3).
//!
//! The paper argues the map must support "fast exact match lookups, a low
//! memory footprint, fast updates" and that its access cost is
//! `O(1) + CPU`. These microbenchmarks measure lookup, update (CAS) and
//! allocate+set on maps of growing size, demonstrating size-independent
//! cost, plus a `std::collections::HashMap` comparison point.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sias_common::{Tid, Vid};
use sias_core::VidMap;
use std::collections::HashMap;
use std::hint::black_box;

fn populated(n: u64) -> VidMap {
    let m = VidMap::new(Default::default());
    for _ in 0..n {
        let v = m.allocate_vid();
        m.set(v, Tid::new(v.0 as u32, (v.0 % 64) as u16));
    }
    m
}

fn bench_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("vidmap_lookup");
    for n in [1_000u64, 100_000, 1_000_000] {
        let m = populated(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 7919) % n;
                black_box(m.get(Vid(i)))
            });
        });
    }
    g.finish();
}

fn bench_update(c: &mut Criterion) {
    let mut g = c.benchmark_group("vidmap_update");
    for n in [1_000u64, 1_000_000] {
        let m = populated(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 7919) % n;
                let old = m.get(Vid(i));
                black_box(m.compare_and_set(Vid(i), old, Tid::new(i as u32, 1)))
            });
        });
    }
    g.finish();
}

fn bench_insert(c: &mut Criterion) {
    c.bench_function("vidmap_allocate_and_set", |b| {
        let m = VidMap::new(Default::default());
        b.iter(|| {
            let v = m.allocate_vid();
            m.set(v, Tid::new(v.0 as u32, 0));
            black_box(v)
        });
    });
}

fn bench_hashmap_baseline(c: &mut Criterion) {
    // Comparison point: what a general-purpose hash map costs for the
    // same mapping (the paper §4.1.2 rejects it for footprint and latch
    // behaviour; here we show the lookup-cost difference).
    let n = 1_000_000u64;
    let mut h: HashMap<u64, u64> = HashMap::with_capacity(n as usize);
    for i in 0..n {
        h.insert(i, i);
    }
    c.bench_function("hashmap_lookup_1M_baseline", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % n;
            black_box(h.get(&i))
        });
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_lookup, bench_update, bench_insert, bench_hashmap_baseline
);
criterion_main!(benches);
