//! Fuzzy checkpoints — bounding restart work (§6 *Recovery*).
//!
//! The paper's t2 flush threshold is "defined by each checkpoint
//! interval (piggy back)": a checkpoint is the moment everything dirty
//! reaches stable storage. This module turns the bare
//! [`WalRecord::Checkpoint`] marker into a real **fuzzy checkpoint**:
//!
//! 1. the *redo point* is captured first — the WAL byte LSN and record
//!    count at the instant the checkpoint begins. Work that commits
//!    while the flush is in progress lands after the redo point, so the
//!    checkpoint never has to stall writers (hence *fuzzy*);
//! 2. every relation's VID map is persisted to its map relation
//!    (`base + 2` of the data/index/map triple), exactly as the
//!    shutdown path of §6 does;
//! 3. the buffer pool is flushed ([`BufferPool::flush_all`]), which
//!    covers data pages, index pages and the just-written map pages —
//!    each stamped with its CRC32 on the way out;
//! 4. only then is the enriched `Checkpoint { redo_lsn, redo_records,
//!    next_xid }` record appended and forced: its presence in the
//!    durable log *is* the promise that everything before the redo
//!    point is recoverable from flushed pages;
//! 5. the log below the redo point is logically truncated
//!    ([`Wal::truncate_before`] → `storage.wal.truncated_bytes`): those
//!    segments are recyclable.
//!
//! Recovery ([`SiasDb::recover_from_wal`]) locates the last such record
//! and reports how much replay work lay beyond its redo point — the
//! bounded-restart contract the `restart` bench and `tests/restart.rs`
//! measure.
//!
//! [`BufferPool::flush_all`]: sias_storage::BufferPool::flush_all
//! [`Wal::truncate_before`]: sias_storage::Wal::truncate_before
//! [`WalRecord::Checkpoint`]: sias_storage::WalRecord::Checkpoint

use sias_common::{RelId, SiasResult};
use sias_obs::SpanName;
use sias_storage::WalRecord;

use crate::engine::SiasDb;

/// Outcome of one checkpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// WAL byte LSN at which redo must begin after this checkpoint.
    pub redo_lsn: u64,
    /// Records preceding the redo point.
    pub redo_records: u64,
    /// Transaction-id high-water mark persisted with the checkpoint.
    pub next_xid: u64,
    /// Pages the pool flush wrote (data + index + map pages).
    pub pages_flushed: u64,
    /// VID-map buckets persisted across all relations.
    pub map_buckets_saved: u64,
    /// WAL bytes newly reclaimed below the redo point.
    pub wal_bytes_truncated: u64,
}

impl SiasDb {
    /// Takes a fuzzy checkpoint (see the module docs for the protocol).
    /// Concurrent writers are never blocked; their work simply lands
    /// after the redo point. Ticks `storage.ckpt.*` and
    /// `storage.wal.truncated_bytes`.
    pub fn checkpoint(&self) -> SiasResult<CheckpointStats> {
        let mut span = self.metrics.tracer.span(SpanName::CkptRun);
        // (1) Fuzzy begin: capture the redo point before flushing
        // anything. Every record at or after these watermarks may
        // describe work the flush below does not cover.
        let redo_lsn = self.stack.wal.current_lsn();
        let redo_records = self.stack.wal.appended_record_count();
        let next_xid = self.txm.xid_bound();
        // (2) Persist the in-memory SIAS structures.
        let mut map_buckets_saved = 0u64;
        for r in self.relation_handles() {
            let map_rel = RelId(r.rel.0 + 2); // data, index, map triple
            map_buckets_saved += r.vidmap.save_to(&self.stack.pool, map_rel)? as u64;
        }
        // (3) Flush the pool: data pages, index pages, map pages.
        let pages_flushed = self.stack.pool.flush_all() as u64;
        // (4) Publish the checkpoint. Durability of the record is the
        // commit point of the whole protocol.
        self.stack.wal.append(&WalRecord::Checkpoint { redo_lsn, redo_records, next_xid });
        self.stack.wal.force()?;
        // (5) Everything below the redo point is now recyclable.
        let wal_bytes_truncated = self.stack.wal.truncate_before(redo_lsn);
        self.metrics.ckpt_runs.inc();
        self.metrics.ckpt_pages_flushed.add(pages_flushed);
        span.set_arg(pages_flushed);
        // Reset the pacing watermark: WAL volume since *any* checkpoint
        // (explicit or paced) is what drives the next paced one.
        self.maint
            .last_ckpt_lsn
            .store(self.stack.wal.current_lsn(), std::sync::atomic::Ordering::Release);
        Ok(CheckpointStats {
            redo_lsn,
            redo_records,
            next_xid,
            pages_flushed,
            map_buckets_saved,
            wal_bytes_truncated,
        })
    }

    /// WAL-volume-paced fuzzy checkpoint: runs [`SiasDb::checkpoint`]
    /// only once at least `wal_bytes` of log have been appended since
    /// the last checkpoint (explicit or paced), so checkpoint frequency
    /// tracks write traffic instead of wall-clock guesses. Returns
    /// `Ok(None)` when below the pacing threshold. Ticks
    /// `storage.ckpt.paced_*`.
    pub fn maybe_checkpoint(&self, wal_bytes: u64) -> SiasResult<Option<CheckpointStats>> {
        let m = &self.metrics;
        let current = self.stack.wal.current_lsn();
        let last = self.maint.last_ckpt_lsn.load(std::sync::atomic::Ordering::Acquire);
        if current.saturating_sub(last) < wal_bytes {
            m.ckpt_paced_skipped.inc();
            return Ok(None);
        }
        let mut span = self.metrics.tracer.span(SpanName::CkptPaced);
        let stats = self.checkpoint()?;
        span.set_arg(stats.pages_flushed);
        m.ckpt_paced_runs.inc();
        m.ckpt_paced_pages.add(stats.pages_flushed);
        Ok(Some(stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sias_storage::{StorageConfig, Wal};
    use sias_txn::MvccEngine;

    fn db() -> (SiasDb, sias_common::RelId) {
        let db = SiasDb::open(StorageConfig::in_memory());
        let rel = db.create_relation("t");
        (db, rel)
    }

    #[test]
    fn checkpoint_flushes_persists_and_truncates() {
        let (db, rel) = db();
        let t = db.begin();
        for k in 0..64u64 {
            db.insert(&t, rel, k, &k.to_le_bytes()).unwrap();
        }
        db.commit(t).unwrap();
        let stats = db.checkpoint().unwrap();
        assert!(stats.redo_lsn > 0);
        assert!(stats.redo_records > 0);
        assert!(stats.next_xid >= 2);
        assert!(stats.pages_flushed > 0, "dirty append + index pages must flush");
        assert!(stats.map_buckets_saved >= 1);
        assert_eq!(stats.wal_bytes_truncated, stats.redo_lsn);
        assert_eq!(db.stack().pool.dirty_count(), 0);
        assert_eq!(db.stack().wal.truncated_lsn(), stats.redo_lsn);
        let snap = db.metrics_snapshot();
        assert_eq!(snap.counter("storage.ckpt.runs"), Some(1));
        assert_eq!(snap.counter("storage.wal.truncated_bytes"), Some(stats.redo_lsn));
        // The durable log carries the enriched record with these exact
        // watermarks.
        let records = db.stack().wal.durable_records().unwrap();
        assert!(records.contains(&WalRecord::Checkpoint {
            redo_lsn: stats.redo_lsn,
            redo_records: stats.redo_records,
            next_xid: stats.next_xid,
        }));
    }

    #[test]
    fn second_checkpoint_covers_only_new_work() {
        let (db, rel) = db();
        let t = db.begin();
        db.insert(&t, rel, 1, b"a").unwrap();
        db.commit(t).unwrap();
        let first = db.checkpoint().unwrap();
        let t = db.begin();
        db.insert(&t, rel, 2, b"b").unwrap();
        db.commit(t).unwrap();
        let second = db.checkpoint().unwrap();
        assert!(second.redo_lsn > first.redo_lsn);
        assert!(second.redo_records > first.redo_records);
        // Truncation advances by exactly the new redo delta.
        assert_eq!(second.wal_bytes_truncated, second.redo_lsn - first.redo_lsn);
    }

    #[test]
    fn checkpointed_vidmap_is_reloadable() {
        let (db, rel) = db();
        let t = db.begin();
        for k in 0..100u64 {
            db.insert(&t, rel, k, &k.to_le_bytes()).unwrap();
        }
        db.commit(t).unwrap();
        db.checkpoint().unwrap();
        let restored = crate::VidMap::load_from(&db.stack().pool, RelId(rel.0 + 2)).unwrap();
        let r = db.relation_handle(rel).unwrap();
        assert_eq!(restored.vid_bound(), r.vidmap.vid_bound());
        for i in 0..100u64 {
            assert_eq!(restored.get(sias_common::Vid(i)), r.vidmap.get(sias_common::Vid(i)));
        }
    }

    #[test]
    fn checkpoint_record_survives_a_device_scan() {
        let (db, rel) = db();
        let t = db.begin();
        db.insert(&t, rel, 7, b"x").unwrap();
        db.commit(t).unwrap();
        let stats = db.checkpoint().unwrap();
        let (records, _) = Wal::scan_device(db.stack().wal.device().as_ref());
        let found = records.iter().any(
            |r| matches!(r, WalRecord::Checkpoint { redo_lsn, .. } if *redo_lsn == stats.redo_lsn),
        );
        assert!(found, "scan must see the checkpoint: {records:?}");
    }
}
