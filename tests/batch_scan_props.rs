//! Property-based equivalence of the scan engines: on arbitrary
//! histories — including aborted writers, tombstones and deleted keys
//! inserted again — the batched page-grouped scan, the parallel batched
//! scan, and the parallel scalar scan must all return exactly what the
//! serial scalar `scan_vidmap` returns, and the batched key-range scan
//! `scan_range` exactly what the scalar oracle returns (the index
//! records of the range, each read through the scalar `read_item`).
//! Both hold for a fresh snapshot and for a reader whose snapshot was
//! taken mid-history (forcing chain walks past invisible heads).

use proptest::prelude::*;
use sias::common::{RelId, Vid};
use sias::core::SiasDb;
use sias::storage::StorageConfig;
use sias::txn::{MvccEngine, Txn};

#[derive(Clone, Debug)]
enum Op {
    Insert(u8, Vec<u8>),
    Update(u8, Vec<u8>),
    Delete(u8),
    AbortedUpdate(u8, Vec<u8>),
    AbortedDelete(u8),
}

fn payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..48)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), payload()).prop_map(|(k, v)| Op::Insert(k, v)),
        (any::<u8>(), payload()).prop_map(|(k, v)| Op::Update(k, v)),
        any::<u8>().prop_map(Op::Delete),
        (any::<u8>(), payload()).prop_map(|(k, v)| Op::AbortedUpdate(k, v)),
        any::<u8>().prop_map(Op::AbortedDelete),
    ]
}

/// Applies one op in its own transaction; invalid ops (duplicate
/// insert, update/delete of a missing key) abort harmlessly, and the
/// `Aborted*` variants roll back on purpose so their versions sit at
/// chain heads as invisible residue.
fn apply(db: &SiasDb, rel: RelId, op: &Op) {
    let t = db.begin();
    let committed = match op {
        Op::Insert(k, v) => db.insert(&t, rel, *k as u64, v).is_ok(),
        Op::Update(k, v) => db.update(&t, rel, *k as u64, v).is_ok(),
        Op::Delete(k) => db.delete(&t, rel, *k as u64).is_ok(),
        Op::AbortedUpdate(k, v) => {
            let _ = db.update(&t, rel, *k as u64, v);
            false
        }
        Op::AbortedDelete(k) => {
            let _ = db.delete(&t, rel, *k as u64);
            false
        }
    };
    if committed {
        db.commit(t).unwrap();
    } else {
        db.abort(t);
    }
}

/// The scalar oracle of `scan_range`: every index record in `[lo, hi]`,
/// in index order, read through the scalar point-read walk.
fn scalar_range(db: &SiasDb, rel: RelId, reader: &Txn, lo: u64, hi: u64) -> Vec<(u64, Vec<u8>)> {
    let index_records = db.relation_handle(rel).unwrap().index.range(lo, hi).unwrap();
    index_records
        .into_iter()
        .filter_map(|(key, vid)| {
            db.read_item(reader, rel, Vid(vid)).unwrap().map(|p| (key, p.to_vec()))
        })
        .collect()
}

/// Asserts every scan engine agrees with the serial scalar walk for
/// this reader, and `scan_range` with its scalar oracle over a single
/// key, the whole key space, an empty range, `lo > hi` and `window`.
fn assert_scans_agree(db: &SiasDb, rel: RelId, reader: &Txn, window: (u64, u64)) {
    for (lo, hi) in [(7, 7), (0, u64::MAX), (300, 400), (9, 3), window] {
        let batched: Vec<(u64, Vec<u8>)> = db
            .scan_range(reader, rel, lo, hi)
            .unwrap()
            .into_iter()
            .map(|(key, p)| (key, p.to_vec()))
            .collect();
        assert_eq!(batched, scalar_range(db, rel, reader, lo, hi), "scan_range({lo}, {hi})");
    }
    let serial = db.scan_vidmap(reader, rel).unwrap();
    assert_eq!(db.scan_vidmap_batched(reader, rel).unwrap(), serial, "batched");
    for threads in [2, 3] {
        assert_eq!(
            db.scan_vidmap_parallel(reader, rel, threads).unwrap(),
            serial,
            "parallel({threads})"
        );
        assert_eq!(
            db.scan_vidmap_parallel_scalar(reader, rel, threads).unwrap(),
            serial,
            "parallel_scalar({threads})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn batched_scan_equals_scalar_on_random_histories(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        split in 0usize..120,
        window in (0u64..260, 0u64..260),
    ) {
        let db = SiasDb::open(StorageConfig::in_memory());
        let rel = db.create_relation("t");
        let split = split.min(ops.len());
        for op in &ops[..split] {
            apply(&db, rel, op);
        }
        // Mid-history reader: everything after `split` is invisible to
        // it, so its scans walk past newer chain heads.
        let mid_reader = db.begin();
        for op in &ops[split..] {
            apply(&db, rel, op);
        }
        let fresh_reader = db.begin();
        assert_scans_agree(&db, rel, &mid_reader, window);
        assert_scans_agree(&db, rel, &fresh_reader, window);
        db.commit(mid_reader).unwrap();
        db.commit(fresh_reader).unwrap();
    }
}
