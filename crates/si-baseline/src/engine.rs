//! The SI baseline engine — "the traditional (SI) approach" of Figure 1.
//!
//! Mirrors how vanilla PostgreSQL executes the same workload:
//!
//! * an **update** fetches the page of the old version and stamps its
//!   `xmax` *in place* (dirtying that page), then writes the new version
//!   to *"any (arbitrary) page that contains enough free space"* chosen
//!   through the free-space map (dirtying a second, unrelated page), and
//!   finally inserts a fresh ⟨key, TID⟩ index record — three scattered
//!   writes per logical update where SIAS performs one append;
//! * a **delete** is just an in-place `xmax` stamp;
//! * **visibility** follows SI: a version is visible when its `xmin` is
//!   visible to the snapshot and its `xmax` is absent, aborted, or not
//!   visible to the snapshot;
//! * the **background writer** flushes dirty pages on every maintenance
//!   tick (the "default setting of the PostgreSQL background writer
//!   process"), so the scattered dirtying above turns into scattered
//!   device writes — the Figure 4 blocktrace.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;
use sias_common::{RelId, SiasError, SiasResult, Tid, Vid, Xid};
use sias_index::BPlusTree;
use sias_obs::{time, Registry, SpanName};
use sias_storage::{FreeSpaceMap, StorageConfig, StorageStack, WalRecord};
use sias_txn::{EngineMetrics, MvccEngine, Snapshot, TransactionManager, Txn, TxnStatus};

use crate::tuple::HeapTuple;

/// One SI-managed relation: heap + FSM + per-version ⟨key, TID⟩ index.
pub struct SiRelation {
    /// Heap relation id.
    pub rel: RelId,
    /// Primary-key index; one record **per tuple version**.
    pub index: BPlusTree,
    next_row: AtomicU64,
}

/// The SI baseline engine over one storage stack.
pub struct SiDb {
    stack: StorageStack,
    txm: Arc<TransactionManager>,
    catalog: RwLock<HashMap<String, RelId>>,
    rels: RwLock<HashMap<RelId, Arc<SiRelation>>>,
    fsm: FreeSpaceMap,
    next_rel: AtomicU32,
    bgwriter_budget: usize,
    metrics: EngineMetrics,
}

impl SiDb {
    /// Opens an SI database.
    pub fn open(cfg: StorageConfig) -> Self {
        let stack = StorageStack::new(&cfg);
        let txm = Arc::new(TransactionManager::with_registry(&stack.obs));
        let metrics = EngineMetrics::register(&stack.obs);
        SiDb {
            stack,
            txm,
            catalog: RwLock::new(HashMap::new()),
            rels: RwLock::new(HashMap::new()),
            fsm: FreeSpaceMap::new(),
            next_rel: AtomicU32::new(1),
            bgwriter_budget: 128,
            metrics,
        }
    }

    /// The underlying storage stack.
    pub fn stack(&self) -> &StorageStack {
        &self.stack
    }

    /// The transaction manager.
    pub fn txm(&self) -> &Arc<TransactionManager> {
        &self.txm
    }

    /// Handle to a relation.
    pub fn relation_handle(&self, rel: RelId) -> SiasResult<Arc<SiRelation>> {
        self.rels.read().get(&rel).cloned().ok_or(SiasError::UnknownRelation(rel))
    }

    /// SI visibility: `xmin` visible and `xmax` absent / aborted / not
    /// visible (§3).
    fn tuple_visible(&self, snapshot: &Snapshot, t: &HeapTuple) -> bool {
        if !snapshot.sees(t.xmin, &self.txm.clog) {
            return false;
        }
        if !t.xmax.is_valid() {
            return true;
        }
        // A version stamped by an aborted transaction is still live.
        if self.txm.clog.status(t.xmax) == TxnStatus::Aborted && !self.txm.is_active(t.xmax) {
            return true;
        }
        !snapshot.sees(t.xmax, &self.txm.clog)
    }

    fn fetch_tuple(&self, rel: RelId, tid: Tid) -> SiasResult<HeapTuple> {
        let bytes = self
            .stack
            .pool
            .with_page(rel, tid.block, |p| p.item(tid.slot).map(<[u8]>::to_vec))??;
        HeapTuple::decode(&bytes)
    }

    /// Places a tuple image on a page with enough free space (FSM), or
    /// extends the relation. Returns the TID. Dirties the chosen page.
    fn place_tuple(&self, rel: RelId, image: &[u8]) -> SiasResult<Tid> {
        // FSM-guided arbitrary placement first.
        for _attempt in 0..4 {
            let Some(block) = self.fsm.find(rel, image.len() + 8) else { break };
            let placed = self.stack.pool.with_page_mut(rel, block, |p| {
                let slot = p.add_item(image);
                let free = p.free_space();
                (slot, free)
            })?;
            let (slot, free) = placed;
            self.fsm.note(rel, block, free);
            if let Some(slot) = slot? {
                return Ok(Tid::new(block, slot));
            }
            // FSM was stale; it has been corrected — retry.
        }
        // Extend the heap.
        let block = self.stack.pool.allocate_block(rel)?;
        let (slot, free) = self.stack.pool.with_page_mut(rel, block, |p| {
            let slot = p.add_item(image);
            let free = p.free_space();
            (slot, free)
        })?;
        self.fsm.note(rel, block, free);
        let slot = slot?
            .ok_or(SiasError::TupleTooLarge { size: image.len(), max: sias_common::PAGE_SIZE })?;
        Ok(Tid::new(block, slot))
    }

    /// Stamps `xmax` on an existing version **in place** — the small
    /// update SIAS eliminates. Dirties the old version's page.
    fn invalidate_in_place(&self, rel: RelId, tid: Tid, xmax: Xid) -> SiasResult<()> {
        self.stack.pool.with_page_mut(rel, tid.block, |p| {
            let mut image = p.item(tid.slot)?.to_vec();
            HeapTuple::stamp_xmax(&mut image, xmax);
            p.overwrite_item(tid.slot, &image)
        })??;
        self.stack.wal.append(&WalRecord::Invalidate { xid: xmax, rel, tid });
        Ok(())
    }

    /// Locates the visible version of `key` via the per-version index.
    fn visible_by_key(
        &self,
        txn: &Txn,
        r: &SiRelation,
        key: u64,
    ) -> SiasResult<Option<(Tid, HeapTuple)>> {
        // Newest version first: index entries of a key accumulate one
        // per version and later versions pack to larger TIDs, so probing
        // in reverse finds the (unique) visible version almost
        // immediately instead of wading through dead ones. The number of
        // versions fetched is SI's equivalent of SIAS's chain-walk depth
        // and feeds the same `core.engine.chain_depth` histogram.
        let mut probes = 0u64;
        for packed in r.index.lookup(key)?.into_iter().rev() {
            let Some(tid) = Tid::unpack(packed) else { continue };
            let t = self.fetch_tuple(r.rel, tid)?;
            probes += 1;
            if t.key == key && self.tuple_visible(&txn.snapshot, &t) {
                self.metrics.chain_depth.record(probes);
                return Ok(Some((tid, t)));
            }
        }
        if probes > 0 {
            self.metrics.chain_depth.record(probes);
        }
        Ok(None)
    }

    /// SSI read hook: [`TransactionManager::ssi_read`] with this engine's
    /// walk, which reports the creators of *newer* versions the snapshot
    /// could not see on `key` — skipped `xmin`s and a visible tuple's
    /// concurrent invalidator `xmax`. Each is a read-time
    /// rw-antidependency the write hook cannot see when the write came
    /// first.
    fn ssi_read(&self, txn: &Txn, rel: RelId, key: u64) -> SiasResult<()> {
        self.txm.ssi_read(txn, rel, key, || {
            let r = self.relation_handle(rel)?;
            let clog = &self.txm.clog;
            let mut newer: Vec<Xid> = Vec::new();
            for packed in r.index.lookup(key)? {
                let Some(tid) = Tid::unpack(packed) else { continue };
                let t = self.fetch_tuple(rel, tid)?;
                if t.key != key {
                    continue;
                }
                let w = if !txn.snapshot.sees(t.xmin, clog) {
                    t.xmin // a version created past the snapshot: skipped on read
                } else if t.xmax.is_valid() && !txn.snapshot.sees(t.xmax, clog) {
                    t.xmax // the version read here was invalidated past the snapshot
                } else {
                    continue;
                };
                if w != txn.xid && clog.status(w) != TxnStatus::Aborted && !newer.contains(&w) {
                    newer.push(w);
                }
            }
            Ok(newer)
        })
    }

    // The op bodies live in `*_inner` methods so the `time!` wrappers in
    // the trait impl always record: early `return`s here would otherwise
    // skip the latency measurement.

    fn insert_inner(&self, txn: &Txn, rel: RelId, key: u64, payload: &[u8]) -> SiasResult<()> {
        let r = self.relation_handle(rel)?;
        if self.visible_by_key(txn, &r, key)?.is_some() {
            return Err(SiasError::Index(format!("duplicate key {key}")));
        }
        let row = r.next_row.fetch_add(1, Ordering::Relaxed);
        self.txm.locks.try_lock(rel, Vid(row), txn.xid);
        let t = HeapTuple::new(txn.xid, row, key, Bytes::copy_from_slice(payload));
        let image = t.encode();
        let tid = self.place_tuple(rel, &image)?;
        self.stack.wal.append(&WalRecord::Insert {
            xid: txn.xid,
            rel,
            tid,
            vid: Vid(row),
            payload: image,
        });
        self.stack.wal.append(&WalRecord::IndexInsert {
            xid: txn.xid,
            rel,
            key,
            value: tid.pack(),
        });
        r.index.insert(key, tid.pack())?;
        // The SSI write hook runs once a reader's walk can reach the
        // version: after the index insert (and, for updates and deletes,
        // the in-place invalidation).
        self.txm.ssi_write(txn, rel, key)
    }

    fn update_inner(&self, txn: &Txn, rel: RelId, key: u64, payload: &[u8]) -> SiasResult<()> {
        let r = self.relation_handle(rel)?;
        let (tid, old) = self.visible_by_key(txn, &r, key)?.ok_or(SiasError::KeyNotFound(key))?;
        // First-updater-wins via the row lock, as in PostgreSQL.
        self.txm.locks.lock(rel, Vid(old.row), txn.xid)?;
        // Re-validate under the lock: a concurrent winner may have
        // committed a newer version.
        let current = self.fetch_tuple(rel, tid)?;
        if current.xmax.is_valid()
            && self.txm.clog.status(current.xmax) != TxnStatus::Aborted
            && current.xmax != txn.xid
        {
            self.metrics.write_conflicts.inc();
            return Err(SiasError::WriteConflict { vid: Vid(old.row), winner: current.xmax });
        }
        // (1) In-place invalidation of the old version.
        self.invalidate_in_place(rel, tid, txn.xid)?;
        // (2) New version on an arbitrary page with space.
        let newt = HeapTuple::new(txn.xid, old.row, key, Bytes::copy_from_slice(payload));
        let image = newt.encode();
        let new_tid = self.place_tuple(rel, &image)?;
        self.stack.wal.append(&WalRecord::Insert {
            xid: txn.xid,
            rel,
            tid: new_tid,
            vid: Vid(old.row),
            payload: image,
        });
        // (3) A fresh index record for the new version — even though the
        // key did not change.
        self.stack.wal.append(&WalRecord::IndexInsert {
            xid: txn.xid,
            rel,
            key,
            value: new_tid.pack(),
        });
        r.index.insert(key, new_tid.pack())?;
        self.txm.ssi_write(txn, rel, key)
    }

    fn delete_inner(&self, txn: &Txn, rel: RelId, key: u64) -> SiasResult<()> {
        let r = self.relation_handle(rel)?;
        let (tid, old) = self.visible_by_key(txn, &r, key)?.ok_or(SiasError::KeyNotFound(key))?;
        self.txm.locks.lock(rel, Vid(old.row), txn.xid)?;
        let current = self.fetch_tuple(rel, tid)?;
        if current.xmax.is_valid()
            && self.txm.clog.status(current.xmax) != TxnStatus::Aborted
            && current.xmax != txn.xid
        {
            self.metrics.write_conflicts.inc();
            return Err(SiasError::WriteConflict { vid: Vid(old.row), winner: current.xmax });
        }
        self.invalidate_in_place(rel, tid, txn.xid)?;
        self.txm.ssi_write(txn, rel, key)
    }

    fn get_inner(&self, txn: &Txn, rel: RelId, key: u64) -> SiasResult<Option<Bytes>> {
        let r = self.relation_handle(rel)?;
        self.ssi_read(txn, rel, key)?;
        Ok(self.visible_by_key(txn, &r, key)?.map(|(_, t)| t.payload))
    }

    fn scan_range_inner(
        &self,
        txn: &Txn,
        rel: RelId,
        lo: u64,
        hi: u64,
    ) -> SiasResult<Vec<(u64, Bytes)>> {
        let r = self.relation_handle(rel)?;
        let mut out: Vec<(u64, Bytes)> = Vec::new();
        for (key, packed) in r.index.range(lo, hi)? {
            // Several index records may exist per key (one per version):
            // keep the visible one, once.
            if out.last().map(|(k, _)| *k) == Some(key) {
                continue;
            }
            let Some(tid) = Tid::unpack(packed) else { continue };
            let t = self.fetch_tuple(rel, tid)?;
            if t.key == key && self.tuple_visible(&txn.snapshot, &t) {
                self.ssi_read(txn, rel, key)?;
                out.push((key, t.payload));
            }
        }
        Ok(out)
    }

    /// Full-relation scan applying SI visibility — the only scan SI has.
    pub fn scan_heap(&self, txn: &Txn, rel: RelId) -> SiasResult<Vec<(u64, Bytes)>> {
        let _span = self.metrics.tracer.span(SpanName::EngineScanAll).txn(txn.xid.0);
        let nblocks = self.stack.space.relation_blocks(rel);
        let mut out = Vec::new();
        for block in 0..nblocks {
            let items: Vec<Vec<u8>> = self.stack.pool.with_page(rel, block, |p| {
                p.live_slots().map(|s| p.item(s).expect("live").to_vec()).collect()
            })?;
            for bytes in items {
                let t = HeapTuple::decode(&bytes)?;
                if self.tuple_visible(&txn.snapshot, &t) {
                    out.push((t.key, t.payload));
                }
            }
        }
        out.sort_by_key(|(k, _)| *k);
        Ok(out)
    }
}

impl MvccEngine for SiDb {
    fn name(&self) -> &'static str {
        "si"
    }

    fn create_relation(&self, name: &str) -> RelId {
        if let Some(&rel) = self.catalog.read().get(name) {
            return rel;
        }
        let mut catalog = self.catalog.write();
        if let Some(&rel) = catalog.get(name) {
            return rel;
        }
        let base = self.next_rel.fetch_add(2, Ordering::Relaxed);
        let rel = RelId(base);
        let index_rel = RelId(base + 1);
        self.stack.space.create_relation(rel);
        let index = BPlusTree::create(Arc::clone(&self.stack.pool), index_rel)
            .expect("index creation on fresh relation");
        self.rels
            .write()
            .insert(rel, Arc::new(SiRelation { rel, index, next_row: AtomicU64::new(0) }));
        catalog.insert(name.to_string(), rel);
        self.stack.wal.append(&WalRecord::CreateRelation { rel, name: name.to_string() });
        rel
    }

    fn relation(&self, name: &str) -> Option<RelId> {
        self.catalog.read().get(name).copied()
    }

    fn begin(&self) -> Txn {
        let mut span = self.metrics.tracer.span(SpanName::TxnBegin);
        let txn = self.txm.begin();
        span.set_txn(txn.xid.0);
        self.stack.wal.append(&WalRecord::Begin(txn.xid));
        txn
    }

    fn commit(&self, txn: Txn) -> SiasResult<()> {
        let _span = self.metrics.tracer.span(SpanName::TxnCommit).txn(txn.xid.0);
        // Serializable pre-check before the Commit record is appended —
        // same reasoning as the SIAS engine: a pivot's Commit record
        // must never become durable, or recovery resurrects it.
        if self.txm.ssi.is_enabled()
            && self.txm.ssi.can_commit(txn.xid) == sias_txn::SsiVerdict::MustAbort
        {
            let xid = txn.xid;
            self.txm.record_serialization_abort();
            self.stack.wal.append(&WalRecord::Abort(xid));
            self.txm.abort(txn);
            return Err(SiasError::SerializationFailure(xid));
        }
        let lsn = self.stack.wal.append(&WalRecord::Commit(txn.xid));
        // Same acknowledgement contract as the SIAS engine: a failed
        // force aborts locally and the client must treat the outcome as
        // unknown (the Commit record stays pending). `force_through`
        // lets a group-commit leader acknowledge this committer.
        if let Err(e) = self.stack.wal.force_through(lsn) {
            self.txm.abort(txn);
            return Err(e);
        }
        self.txm.commit(txn)
    }

    fn abort(&self, txn: Txn) {
        let _span = self.metrics.tracer.span(SpanName::TxnAbort).txn(txn.xid.0);
        self.stack.wal.append(&WalRecord::Abort(txn.xid));
        self.txm.abort(txn);
    }

    fn insert(&self, txn: &Txn, rel: RelId, key: u64, payload: &[u8]) -> SiasResult<()> {
        let _span = self.metrics.tracer.span(SpanName::EngineInsert).txn(txn.xid.0);
        time!(self.metrics.insert, self.insert_inner(txn, rel, key, payload))
    }

    fn update(&self, txn: &Txn, rel: RelId, key: u64, payload: &[u8]) -> SiasResult<()> {
        let _span = self.metrics.tracer.span(SpanName::EngineUpdate).txn(txn.xid.0);
        time!(self.metrics.update, self.update_inner(txn, rel, key, payload))
    }

    fn delete(&self, txn: &Txn, rel: RelId, key: u64) -> SiasResult<()> {
        let _span = self.metrics.tracer.span(SpanName::EngineDelete).txn(txn.xid.0);
        time!(self.metrics.delete, self.delete_inner(txn, rel, key))
    }

    fn get(&self, txn: &Txn, rel: RelId, key: u64) -> SiasResult<Option<Bytes>> {
        let _span = self.metrics.tracer.span(SpanName::EngineGet).txn(txn.xid.0);
        time!(self.metrics.get, self.get_inner(txn, rel, key))
    }

    fn scan_range(&self, txn: &Txn, rel: RelId, lo: u64, hi: u64) -> SiasResult<Vec<(u64, Bytes)>> {
        let _span = self.metrics.tracer.span(SpanName::EngineScanRange).txn(txn.xid.0);
        time!(self.metrics.scan, self.scan_range_inner(txn, rel, lo, hi))
    }

    fn maintenance(&self, checkpoint: bool) {
        let _span = self.metrics.tracer.span(SpanName::Maintenance).arg(checkpoint as u64);
        // Vanilla PostgreSQL configuration: the background writer runs
        // every tick, persisting scattered dirty pages.
        self.stack.pool.bgwriter_round(self.bgwriter_budget);
        if checkpoint {
            // Fuzzy checkpoint, as in the SIAS engine: capture the redo
            // point, flush, then publish it. Best-effort on force.
            let redo_lsn = self.stack.wal.current_lsn();
            let redo_records = self.stack.wal.appended_record_count();
            let next_xid = self.txm.xid_bound();
            let pages_flushed = self.stack.pool.flush_all() as u64;
            self.metrics.ckpt_runs.inc();
            self.metrics.ckpt_pages_flushed.add(pages_flushed);
            self.stack.wal.append(&WalRecord::Checkpoint { redo_lsn, redo_records, next_xid });
            if self.stack.wal.force().is_ok() {
                self.stack.wal.truncate_before(redo_lsn);
            }
        }
    }

    fn set_serializable(&self) {
        self.txm.set_serializable();
    }

    fn serialization_aborts(&self) -> u64 {
        self.txm.serialization_aborts()
    }

    fn obs_registry(&self) -> Option<&Arc<Registry>> {
        Some(&self.stack.obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> (SiDb, RelId) {
        let db = SiDb::open(StorageConfig::in_memory());
        let rel = db.create_relation("t");
        (db, rel)
    }

    #[test]
    fn crud_roundtrip() {
        let (db, rel) = db();
        let t = db.begin();
        db.insert(&t, rel, 1, b"one").unwrap();
        assert_eq!(db.get(&t, rel, 1).unwrap().unwrap().as_ref(), b"one");
        db.update(&t, rel, 1, b"uno").unwrap();
        assert_eq!(db.get(&t, rel, 1).unwrap().unwrap().as_ref(), b"uno");
        db.delete(&t, rel, 1).unwrap();
        assert_eq!(db.get(&t, rel, 1).unwrap(), None);
        db.commit(t).unwrap();
    }

    #[test]
    fn snapshot_isolation_semantics() {
        let (db, rel) = db();
        let t = db.begin();
        db.insert(&t, rel, 1, b"v1").unwrap();
        db.commit(t).unwrap();
        let reader = db.begin();
        let writer = db.begin();
        db.update(&writer, rel, 1, b"v2").unwrap();
        db.commit(writer).unwrap();
        assert_eq!(db.get(&reader, rel, 1).unwrap().unwrap().as_ref(), b"v1");
        db.commit(reader).unwrap();
        let t = db.begin();
        assert_eq!(db.get(&t, rel, 1).unwrap().unwrap().as_ref(), b"v2");
        db.commit(t).unwrap();
    }

    #[test]
    fn update_dirties_the_old_versions_page() {
        // The defining behaviour of the baseline: invalidation stamps the
        // OLD page. After one update there are two versions: the old one
        // with xmax set (same page as before), the new one elsewhere.
        let (db, rel) = db();
        let t = db.begin();
        db.insert(&t, rel, 1, b"v1").unwrap();
        db.commit(t).unwrap();
        let r = db.relation_handle(rel).unwrap();
        let old_tid = Tid::unpack(r.index.lookup(1).unwrap()[0]).unwrap();
        let t = db.begin();
        let xid = t.xid;
        db.update(&t, rel, 1, b"v2").unwrap();
        db.commit(t).unwrap();
        let old = db.fetch_tuple(rel, old_tid).unwrap();
        assert_eq!(old.xmax, xid, "old version stamped in place");
        assert_eq!(old.payload.as_ref(), b"v1", "payload untouched");
        // Two index records now exist for key 1.
        assert_eq!(r.index.lookup(1).unwrap().len(), 2);
    }

    #[test]
    fn aborted_update_leaves_item_live() {
        let (db, rel) = db();
        let t = db.begin();
        db.insert(&t, rel, 1, b"v1").unwrap();
        db.commit(t).unwrap();
        let t = db.begin();
        db.update(&t, rel, 1, b"doomed").unwrap();
        db.abort(t);
        let t = db.begin();
        assert_eq!(db.get(&t, rel, 1).unwrap().unwrap().as_ref(), b"v1");
        // Updatable again despite the stale xmax stamp.
        db.update(&t, rel, 1, b"v2").unwrap();
        db.commit(t).unwrap();
        let t = db.begin();
        assert_eq!(db.get(&t, rel, 1).unwrap().unwrap().as_ref(), b"v2");
        db.commit(t).unwrap();
    }

    #[test]
    fn first_updater_wins() {
        let (db, rel) = db();
        let t = db.begin();
        db.insert(&t, rel, 1, b"base").unwrap();
        db.commit(t).unwrap();
        let a = db.begin();
        let b = db.begin();
        db.update(&a, rel, 1, b"a").unwrap();
        db.commit(a).unwrap();
        let err = db.update(&b, rel, 1, b"b").unwrap_err();
        assert!(matches!(err, SiasError::WriteConflict { .. }), "got {err:?}");
        db.abort(b);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let (db, rel) = db();
        let t = db.begin();
        db.insert(&t, rel, 5, b"x").unwrap();
        assert!(db.insert(&t, rel, 5, b"y").is_err());
        db.commit(t).unwrap();
    }

    #[test]
    fn scans_heap_and_index_agree() {
        let (db, rel) = db();
        let t = db.begin();
        for k in 0..40u64 {
            db.insert(&t, rel, k, format!("r{k}").as_bytes()).unwrap();
        }
        db.commit(t).unwrap();
        let t = db.begin();
        for k in (0..40u64).step_by(4) {
            db.update(&t, rel, k, b"upd").unwrap();
        }
        db.delete(&t, rel, 39).unwrap();
        db.commit(t).unwrap();
        let t = db.begin();
        let via_index = db.scan_all(&t, rel).unwrap();
        let via_heap = db.scan_heap(&t, rel).unwrap();
        assert_eq!(via_index.len(), 39);
        assert_eq!(via_index, via_heap);
        db.commit(t).unwrap();
    }

    #[test]
    fn invalidation_stamps_scatter_writes_across_the_relation() {
        // The Figure 4 effect: updating rows that live all over the heap
        // dirties (and, after a background-writer round, writes) pages
        // all over the relation, because every update stamps the OLD
        // version's page in place.
        let (db, rel) = db();
        let t = db.begin();
        for k in 0..60u64 {
            db.insert(&t, rel, k, &[7u8; 700]).unwrap(); // ~11/page
        }
        db.commit(t).unwrap();
        db.maintenance(true); // flush the load phase
        db.stack.trace.clear();
        db.stack.trace.enable();
        let t = db.begin();
        for k in (0..60u64).step_by(11) {
            db.update(&t, rel, k, &[8u8; 700]).unwrap();
        }
        db.commit(t).unwrap();
        db.maintenance(false); // background-writer round
        db.stack.trace.disable();
        let written: std::collections::BTreeSet<u64> = db
            .stack
            .trace
            .events()
            .iter()
            .filter(|e| e.dir == sias_storage::IoDir::Write)
            .map(|e| e.lba)
            .collect();
        assert!(
            written.len() >= 4,
            "in-place stamps must scatter writes over several pages, got {written:?}"
        );
    }

    #[test]
    fn wal_records_invalidations() {
        let (db, rel) = db();
        let t = db.begin();
        db.insert(&t, rel, 1, b"x").unwrap();
        db.commit(t).unwrap();
        let t = db.begin();
        db.update(&t, rel, 1, b"y").unwrap();
        db.commit(t).unwrap();
        let records = db.stack.wal.durable_records().unwrap();
        assert!(records.iter().any(|r| matches!(r, WalRecord::Invalidate { .. })));
    }

    #[test]
    fn delete_then_reinsert_same_key() {
        let (db, rel) = db();
        let t = db.begin();
        db.insert(&t, rel, 7, b"first").unwrap();
        db.commit(t).unwrap();
        let t = db.begin();
        db.delete(&t, rel, 7).unwrap();
        db.insert(&t, rel, 7, b"second").unwrap();
        db.commit(t).unwrap();
        let t = db.begin();
        assert_eq!(db.get(&t, rel, 7).unwrap().unwrap().as_ref(), b"second");
        assert_eq!(db.scan_range(&t, rel, 7, 7).unwrap().len(), 1);
        db.commit(t).unwrap();
    }

    #[test]
    fn oversize_payload_rejected() {
        let (db, rel) = db();
        let t = db.begin();
        assert!(matches!(
            db.insert(&t, rel, 1, &vec![0u8; 9000]).unwrap_err(),
            SiasError::TupleTooLarge { .. }
        ));
        db.insert(&t, rel, 1, &vec![0u8; 4000]).unwrap();
        db.commit(t).unwrap();
    }

    #[test]
    fn own_delete_then_get_sees_nothing() {
        let (db, rel) = db();
        let t = db.begin();
        db.insert(&t, rel, 1, b"x").unwrap();
        db.commit(t).unwrap();
        let t = db.begin();
        db.delete(&t, rel, 1).unwrap();
        assert_eq!(db.get(&t, rel, 1).unwrap(), None, "own delete visible to self");
        db.abort(t);
        let t = db.begin();
        assert!(db.get(&t, rel, 1).unwrap().is_some(), "abort restored the row");
        db.commit(t).unwrap();
    }

    #[test]
    fn relations_are_isolated() {
        let db = SiDb::open(StorageConfig::in_memory());
        let a = db.create_relation("a");
        let b = db.create_relation("b");
        let t = db.begin();
        db.insert(&t, a, 1, b"in a").unwrap();
        db.insert(&t, b, 1, b"in b").unwrap();
        db.commit(t).unwrap();
        let t = db.begin();
        assert_eq!(db.get(&t, a, 1).unwrap().unwrap().as_ref(), b"in a");
        assert_eq!(db.scan_heap(&t, b).unwrap().len(), 1);
        db.commit(t).unwrap();
        assert_eq!(db.create_relation("a"), a);
    }

    #[test]
    fn metric_names_identical_to_sias_engine() {
        // The acceptance bar of the observability layer: a SIAS snapshot
        // and an SI snapshot expose the SAME metric names, so experiment
        // harnesses diff them without per-engine mapping tables.
        let si = SiDb::open(StorageConfig::in_memory());
        let sias = sias_core::SiasDb::open(StorageConfig::in_memory());
        let si_names: Vec<String> =
            si.metrics_snapshot().names().iter().map(|s| s.to_string()).collect();
        let sias_names: Vec<String> =
            sias.metrics_snapshot().names().iter().map(|s| s.to_string()).collect();
        assert_eq!(si_names, sias_names);
        assert!(si_names.iter().any(|n| n == "core.engine.chain_depth"));
        assert!(si_names.iter().any(|n| n == "txn.manager.aborts_write_conflict"));
    }

    #[test]
    fn metric_names_stay_identical_after_sias_only_maintenance_and_scans() {
        // GC, scrub, paced checkpoints and parallel scans run on SIAS
        // only; their metrics are registered with the engine's family,
        // so running them adds no name the SI baseline lacks.
        let sias = sias_core::SiasDb::open(StorageConfig::in_memory());
        let rel = sias.create_relation("t");
        for round in 0..3u8 {
            let t = sias.begin();
            for k in 0..64u64 {
                if round == 0 {
                    sias.insert(&t, rel, k, &[round; 32]).unwrap();
                } else {
                    sias.update(&t, rel, k, &[round; 32]).unwrap();
                }
            }
            sias.commit(t).unwrap();
        }
        sias.vacuum_slice(rel, &mut 0, &sias_core::GcSliceOpts::default()).unwrap();
        sias.scrub_slice(rel, &mut 0, 16).unwrap();
        assert!(sias.maybe_checkpoint(0).unwrap().is_some(), "a zero pacer always fires");
        let t = sias.begin();
        assert_eq!(sias.scan(&t, rel, 4).unwrap().len(), 64);
        sias.commit(t).unwrap();
        let si = SiDb::open(StorageConfig::in_memory());
        assert_eq!(sias.metrics_snapshot().names(), si.metrics_snapshot().names());
    }

    #[test]
    fn metrics_snapshot_reflects_si_ops() {
        let (db, rel) = db();
        let t = db.begin();
        db.insert(&t, rel, 1, b"v0").unwrap();
        db.commit(t).unwrap();
        let before = db.metrics_snapshot();
        let t = db.begin();
        db.update(&t, rel, 1, b"v1").unwrap();
        db.commit(t).unwrap();
        let reader = db.begin();
        assert_eq!(db.get(&reader, rel, 1).unwrap().unwrap().as_ref(), b"v1");
        db.commit(reader).unwrap();
        let after = db.metrics_snapshot();
        let count = |s: &sias_obs::MetricsSnapshot, n: &str| s.histogram(n).unwrap().count;
        assert_eq!(count(&after, "core.engine.update"), count(&before, "core.engine.update") + 1);
        assert_eq!(count(&after, "core.engine.get"), count(&before, "core.engine.get") + 1);
        // Two index records for key 1 now exist; the reader's probe walked
        // at least one dead/old version check, so depth reached >= 1 and
        // the visible-by-key walk is recorded.
        assert!(
            after.histogram("core.engine.chain_depth").unwrap().count
                > before.histogram("core.engine.chain_depth").unwrap().count
        );
        assert!(after.counter("txn.manager.commits").unwrap() >= 3);
        assert!(after.counter("storage.wal.forces").unwrap() >= 3);
    }

    #[test]
    fn si_write_conflicts_are_counted() {
        let (db, rel) = db();
        let t = db.begin();
        db.insert(&t, rel, 1, b"base").unwrap();
        db.commit(t).unwrap();
        let a = db.begin();
        let b = db.begin();
        db.update(&a, rel, 1, b"a").unwrap();
        db.commit(a).unwrap();
        assert!(db.update(&b, rel, 1, b"b").is_err());
        db.abort(b);
        let snap = db.metrics_snapshot();
        assert_eq!(snap.counter("txn.manager.aborts_write_conflict"), Some(1));
        assert_eq!(snap.counter("txn.manager.aborts"), Some(1));
    }

    #[test]
    fn concurrent_threads_consistent() {
        let db = Arc::new(SiDb::open(StorageConfig::in_memory()));
        let rel = db.create_relation("t");
        let t = db.begin();
        for k in 0..16u64 {
            db.insert(&t, rel, k, b"0").unwrap();
        }
        db.commit(t).unwrap();
        let mut handles = vec![];
        for tno in 0..8u64 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    let t = db.begin();
                    let key = (tno * 31 + i) % 16;
                    match db.update(&t, rel, key, format!("{tno}:{i}").as_bytes()) {
                        Ok(()) => db.commit(t).unwrap(),
                        Err(_) => db.abort(t),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Exactly 16 visible rows remain.
        let t = db.begin();
        assert_eq!(db.scan_heap(&t, rel).unwrap().len(), 16);
        db.commit(t).unwrap();
    }
}
