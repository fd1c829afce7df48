//! Property: incremental GC is invisible to readers.
//!
//! Scans — the scalar oracle (every VID-map entry read through
//! `read_item`, one chain at a time) and the batched "vectors on flash"
//! `scan` — taken through a snapshot opened *before* GC ran must be
//! byte-identical to the same scans taken while incremental GC slices
//! relocate live versions and (after the snapshot closes) recycle
//! pages underneath them. This is the paper's contract for append
//! storage maintenance: reclamation may move bytes, never visibility.

use bytes::Bytes;
use proptest::prelude::*;
use sias_common::{RelId, Vid};
use sias_core::{GcSliceOpts, GcStats, SiasDb};
use sias_storage::StorageConfig;
use sias_txn::{MvccEngine, Txn};

/// One keyed history: `rounds` full-relation update sweeps over `keys`
/// keys, then every key in `deleted` tombstoned. Payloads are a
/// deterministic function of (key, round) so equality is meaningful.
#[derive(Debug, Clone)]
struct History {
    keys: u64,
    rounds: u8,
    payload: usize,
    deleted: Vec<u64>,
}

fn history() -> impl Strategy<Value = History> {
    (2u64..24, 2u8..10, 64usize..900, proptest::collection::vec(0u64..24, 0..6)).prop_map(
        |(keys, rounds, payload, deleted)| {
            let mut deleted: Vec<u64> = deleted.into_iter().filter(|k| k < &keys).collect();
            deleted.sort_unstable();
            deleted.dedup();
            History { keys, rounds, payload, deleted }
        },
    )
}

fn build(h: &History) -> (SiasDb, sias_common::RelId) {
    let db = SiasDb::open(StorageConfig::in_memory());
    let rel = db.create_relation("t");
    let t = db.begin();
    for k in 0..h.keys {
        db.insert(&t, rel, k, &payload_bytes(k, 0, h.payload)).unwrap();
    }
    db.commit(t).unwrap();
    for round in 1..=h.rounds {
        let t = db.begin();
        for k in 0..h.keys {
            db.update(&t, rel, k, &payload_bytes(k, round, h.payload)).unwrap();
        }
        db.commit(t).unwrap();
    }
    let t = db.begin();
    for k in &h.deleted {
        db.delete(&t, rel, *k).unwrap();
    }
    db.commit(t).unwrap();
    (db, rel)
}

fn payload_bytes(key: u64, round: u8, len: usize) -> Vec<u8> {
    let mut v = vec![round; len.max(9)];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8] = round;
    v
}

/// The scalar oracle of `scan`: every VID-map entry, in VID order, read
/// through the scalar point-read walk.
fn scalar_scan(db: &SiasDb, txn: &Txn, rel: RelId) -> Vec<(Vid, Bytes)> {
    let mut vids = Vec::new();
    db.relation_handle(rel).unwrap().vidmap.for_each(|vid, _| vids.push(vid));
    vids.into_iter().filter_map(|vid| Some((vid, db.read_item(txn, rel, vid).unwrap()?))).collect()
}

/// Sweeps the whole relation in bounded slices until a full pass finds
/// no further work (relocations or reclaims), interleaved arbitrarily
/// with whatever readers the caller holds open.
fn gc_until_quiet(db: &SiasDb, rel: sias_common::RelId) -> GcStats {
    let mut cursor = 0;
    let mut totals = GcStats::default();
    let opts = GcSliceOpts::default();
    for _ in 0..256 {
        let s = db.vacuum_slice(rel, &mut cursor, &opts).unwrap();
        let quiet = s.versions_relocated == 0 && s.pages_reclaimed == 0 && s.items_cleared == 0;
        totals.merge(s);
        if quiet && cursor == 0 {
            break; // a wrapped, do-nothing pass: nothing left
        }
    }
    totals
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn scans_are_byte_identical_across_concurrent_gc(h in history()) {
        let (db, rel) = build(&h);
        // The snapshot under test predates every GC action.
        let reader = db.begin();
        let scalar_before = scalar_scan(&db, &reader, rel);
        let batched_before = db.scan(&reader, rel, 1).unwrap();
        prop_assert_eq!(&scalar_before, &batched_before);

        // GC runs its concurrent path: the open reader keeps the
        // system non-quiescent, so every slice exercises CAS
        // publication and horizon-deferred recycling.
        let mid = gc_until_quiet(&db, rel);
        prop_assert_eq!(
            scalar_scan(&db, &reader, rel), scalar_before.clone(),
            "scalar scan changed under GC ({:?})", mid
        );
        prop_assert_eq!(
            db.scan(&reader, rel, 1).unwrap(), batched_before.clone(),
            "batched scan changed under GC ({:?})", mid
        );

        // Close the snapshot; the deferred recycles drain, and a fresh
        // snapshot still sees exactly the same visible state.
        db.commit(reader).unwrap();
        gc_until_quiet(&db, rel);
        prop_assert_eq!(db.gc_backlog(), 0, "backlog must drain once quiescent-ish");
        let after = db.begin();
        prop_assert_eq!(scalar_scan(&db, &after, rel), scalar_before.clone());
        prop_assert_eq!(db.scan(&after, rel, 1).unwrap(), batched_before);
        db.commit(after).unwrap();
        db.debug_validate_index(rel).unwrap();
    }
}

/// Real-thread smoke test: a GC thread slicing continuously while a
/// reader thread scans. Every scan, scalar or batched, must equal the
/// pre-GC reference.
#[test]
fn threaded_scans_stay_stable_under_gc() {
    let h = History { keys: 16, rounds: 8, payload: 700, deleted: vec![3, 7] };
    let (db, rel) = build(&h);
    let t = db.begin();
    let reference = scalar_scan(&db, &t, rel);
    db.commit(t).unwrap();

    std::thread::scope(|s| {
        let gc = s.spawn(|| {
            let mut cursor = 0;
            let mut totals = GcStats::default();
            for _ in 0..400 {
                totals.merge(db.vacuum_slice(rel, &mut cursor, &GcSliceOpts::default()).unwrap());
            }
            totals
        });
        let scans = s.spawn(|| {
            for i in 0..200 {
                let t = db.begin();
                let got = if i % 2 == 0 {
                    scalar_scan(&db, &t, rel)
                } else {
                    db.scan(&t, rel, 1).unwrap()
                };
                assert_eq!(got, reference, "scan {i} diverged under concurrent GC");
                db.commit(t).unwrap();
            }
        });
        let totals = gc.join().unwrap();
        scans.join().unwrap();
        assert!(
            totals.versions_relocated > 0 || totals.pages_reclaimed > 0,
            "GC thread must have done real work: {totals:?}"
        );
    });
    db.debug_validate_index(rel).unwrap();
}
