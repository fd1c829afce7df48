//! Property-based tests (proptest) over core invariants:
//!
//! * serial histories on either engine match a `BTreeMap` model;
//! * SIAS chains are well-formed after arbitrary histories and vacuum;
//! * the VID map survives persistence round-trips for arbitrary contents.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sias::common::{Tid, Vid};
use sias::core::chain::collect_chain;
use sias::core::{SiasDb, VidMap};
use sias::si::SiDb;
use sias::storage::StorageConfig;
use sias::txn::MvccEngine;

#[derive(Clone, Debug)]
enum Op {
    Insert(u8, Vec<u8>),
    Update(u8, Vec<u8>),
    Delete(u8),
    AbortedUpdate(u8, Vec<u8>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(k, v)| Op::Insert(k, v)),
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(k, v)| Op::Update(k, v)),
        any::<u8>().prop_map(Op::Delete),
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(k, v)| Op::AbortedUpdate(k, v)),
    ]
}

/// Applies ops serially (one transaction each) to an engine and the
/// model, keeping them in lockstep.
fn run_against_model<E: MvccEngine>(engine: &E, ops: &[Op]) -> BTreeMap<u64, Vec<u8>> {
    let rel = engine.create_relation("t");
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for op in ops {
        match op {
            Op::Insert(k, v) => {
                let t = engine.begin();
                let r = engine.insert(&t, rel, *k as u64, v);
                if let std::collections::btree_map::Entry::Vacant(slot) = model.entry(*k as u64) {
                    r.unwrap();
                    engine.commit(t).unwrap();
                    slot.insert(v.clone());
                } else {
                    assert!(r.is_err(), "duplicate insert must fail");
                    engine.abort(t);
                }
            }
            Op::Update(k, v) => {
                let t = engine.begin();
                let r = engine.update(&t, rel, *k as u64, v);
                if let std::collections::btree_map::Entry::Occupied(mut slot) =
                    model.entry(*k as u64)
                {
                    r.unwrap();
                    engine.commit(t).unwrap();
                    slot.insert(v.clone());
                } else {
                    assert!(r.is_err(), "update of missing key must fail");
                    engine.abort(t);
                }
            }
            Op::Delete(k) => {
                let t = engine.begin();
                let r = engine.delete(&t, rel, *k as u64);
                if model.remove(&(*k as u64)).is_some() {
                    r.unwrap();
                    engine.commit(t).unwrap();
                } else {
                    assert!(r.is_err(), "delete of missing key must fail");
                    engine.abort(t);
                }
            }
            Op::AbortedUpdate(k, v) => {
                let t = engine.begin();
                let _ = engine.update(&t, rel, *k as u64, v);
                engine.abort(t); // model unchanged
            }
        }
    }
    // Engine state must equal the model.
    let t = engine.begin();
    let state: BTreeMap<u64, Vec<u8>> =
        engine.scan_all(&t, rel).unwrap().into_iter().map(|(k, v)| (k, v.to_vec())).collect();
    engine.commit(t).unwrap();
    assert_eq!(state, model);
    model
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn sias_matches_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let db = SiasDb::open(StorageConfig::in_memory());
        run_against_model(&db, &ops);
    }

    #[test]
    fn si_matches_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let db = SiDb::open(StorageConfig::in_memory());
        run_against_model(&db, &ops);
    }

    #[test]
    fn sias_matches_model_after_vacuum(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let db = SiasDb::open(StorageConfig::in_memory());
        let model = run_against_model(&db, &ops);
        db.vacuum_all().unwrap();
        let rel = db.relation("t").unwrap();
        let t = db.begin();
        let state: BTreeMap<u64, Vec<u8>> = db
            .scan_all(&t, rel)
            .unwrap()
            .into_iter()
            .map(|(k, v)| (k, v.to_vec()))
            .collect();
        db.commit(t).unwrap();
        prop_assert_eq!(state, model);
    }

    #[test]
    fn sias_chains_are_well_formed(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let db = SiasDb::open(StorageConfig::in_memory());
        run_against_model(&db, &ops);
        let rel = db.relation("t").unwrap();
        let handle = db.relation_handle(rel).unwrap();
        let pool = &db.stack().pool;
        let mut entries = Vec::new();
        handle.vidmap.for_each(|vid, tid| entries.push((vid, tid)));
        for (vid, entry) in entries {
            let chain = collect_chain(pool, rel, entry).unwrap();
            prop_assert!(!chain.is_empty());
            // Same VID on every version; strictly decreasing create order;
            // exactly the last version has no predecessor.
            for (i, (_, v)) in chain.iter().enumerate() {
                prop_assert_eq!(v.vid, vid);
                prop_assert_eq!(v.pred.is_none(), i == chain.len() - 1);
                if i > 0 {
                    prop_assert!(chain[i - 1].1.create > v.create, "chain timestamps must decrease");
                    // Implicit invalidation: successor records this
                    // version's create timestamp.
                    prop_assert_eq!(chain[i - 1].1.pred_create, v.create);
                }
            }
        }
    }

    #[test]
    fn vidmap_persistence_roundtrip(slots in proptest::collection::vec(
        proptest::option::of((0u32..10_000, 0u16..1024)), 1..2000
    )) {
        let map = VidMap::new(Default::default());
        for slot in &slots {
            let vid = map.allocate_vid();
            if let Some((block, s)) = slot {
                map.set(vid, Tid::new(*block, *s));
            }
        }
        let dev = std::sync::Arc::new(sias::storage::device::MemDevice::standalone(1 << 16));
        let space = std::sync::Arc::new(sias::storage::Tablespace::new(1 << 16));
        let pool = sias::storage::BufferPool::new(64, dev, space);
        map.save_to(&pool, sias::common::RelId(42)).unwrap();
        let restored = VidMap::load_from(&pool, sias::common::RelId(42)).unwrap();
        prop_assert_eq!(restored.vid_bound(), map.vid_bound());
        for i in 0..slots.len() as u64 {
            prop_assert_eq!(restored.get(Vid(i)), map.get(Vid(i)));
        }
    }
}

#[test]
fn page_items_roundtrip_property() {
    // A lightweight hand-rolled property: random item sets fit-or-reject
    // consistently and survive byte round-trips.
    use rand::prelude::*;
    use sias::storage::Page;
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..50 {
        let mut p = Page::new();
        let mut stored: Vec<Vec<u8>> = Vec::new();
        loop {
            let item = vec![rng.random::<u8>(); rng.random_range(0..700)];
            match p.add_item(&item).unwrap() {
                Some(_) => stored.push(item),
                None => break,
            }
        }
        let q = Page::from_bytes(p.as_bytes());
        for (i, item) in stored.iter().enumerate() {
            assert_eq!(q.item(i as u16).unwrap(), &item[..]);
        }
    }
}
