//! Integrity scrubbing and WAL-history self-repair (§6 *Recovery*).
//!
//! Flash media decays: retention errors and read disturb flip bits long
//! after a page was durably written. The storage layer detects this —
//! every data page carries a CRC32 verified on read, and a failing page
//! is quarantined by the buffer pool so no caller ever consumes torn
//! bytes. This module closes the loop by *repairing* what the
//! quarantine fences off:
//!
//! 1. **Sweep** — sealed, in-use blocks of a relation are probed
//!    through the buffer pool; a checksum mismatch surfaces as
//!    [`SiasError::CorruptPage`] and quarantines the block
//!    (`storage.scrub.scanned`, `storage.scrub.corrupt`).
//! 2. **Blast radius** — a corrupt page takes whole *chains* with it:
//!    any data item whose version walk crosses the page is unreadable,
//!    because `*ptr` predecessors always stay within the item's own
//!    chain. Affected items are found by walking every entrypoint with
//!    [`collect_surviving`] — strictly down to the anchor, then below it
//!    for as long as GC has left the versions in place — and collecting
//!    the walks that fault.
//! 3. **Repair** — SIAS never overwrites, so the WAL holds the full
//!    version history of every item. Each affected chain is rebuilt by
//!    re-appending its committed version images in log order — the
//!    exact mechanism crash recovery uses — and the VID map is swung to
//!    the rebuilt head with a CAS, under a non-blocking tuple lock.
//!    Chains re-link naturally; indexes need no repair because
//!    ⟨key, VID⟩ entries survive (VIDs are stable). A chain whose lock
//!    is taken, or whose history is not in the durable log yet, stays
//!    quarantined (`chains_contended`) for a later sweep.
//! 4. **Reclaim** — once every affected chain is rebuilt, the corrupt
//!    blocks are parked behind the snapshot horizon like GC victims, so
//!    a reader still walking a pre-repair chain never sees a reused
//!    page; the recycle then TRIMs them, drops them from quarantine and
//!    hands them back to the append region (`storage.scrub.repaired`).
//!
//! One sweep body serves both callers. [`SiasDb::scrub_slice`] probes a
//! bounded number of blocks per call and is safe under live traffic;
//! [`SiasDb::scrub_relation`] requires a quiescent system, sweeps every
//! block once from block 0, and then drains the deferred queue, so the
//! repaired blocks are free when it returns.
//!
//! A note on garbage collection: vacuum relocations are not WAL-logged,
//! so a rebuilt chain can be *longer* than the physical chain it
//! replaces — dead pre-relocation versions reappear. They are invisible
//! to every snapshot (same visibility rules) and the next vacuum
//! reclaims them; correctness is unaffected.

use sias_obs::SpanName;
use std::collections::{BTreeMap, HashSet};

use sias_common::{BlockId, RelId, SiasError, SiasResult, Tid, Vid, Xid};
use sias_storage::WalRecord;

use crate::chain::collect_surviving;
use crate::engine::{SiasDb, SiasRelation};
use crate::gc::GcStats;
use crate::maintenance::DeferredPage;
use crate::version::TupleVersion;

/// Synthetic lock owner for scrub repairs (distinct from the GC owner
/// so the two maintenance passes cannot shadow each other's locks).
const SCRUB_SLICE_XID: Xid = Xid(u64::MAX - 2);

/// Counters describing one scrub pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubStats {
    /// Sealed in-use pages probed.
    pub pages_scanned: u64,
    /// Pages failing checksum verification.
    pub pages_corrupt: u64,
    /// Corrupt pages repaired and reclaimed.
    pub pages_repaired: u64,
    /// Data items whose chains were rebuilt from WAL history.
    pub chains_rebuilt: u64,
    /// Version images re-appended during chain rebuilds.
    pub versions_reappended: u64,
    /// Chains left quarantined for a later retry (writer contention or
    /// history not yet forced to the log).
    pub chains_contended: u64,
}

impl ScrubStats {
    /// Folds another pass's counters into these.
    pub fn merge(&mut self, other: &ScrubStats) {
        self.pages_scanned += other.pages_scanned;
        self.pages_corrupt += other.pages_corrupt;
        self.pages_repaired += other.pages_repaired;
        self.chains_rebuilt += other.chains_rebuilt;
        self.versions_reappended += other.versions_reappended;
        self.chains_contended += other.chains_contended;
    }
}

impl SiasDb {
    /// Scrubs every relation (see the module docs for the protocol). A
    /// pass that returns verified every page and left no chain
    /// quarantined ([`SiasDb::scrub_relation`] errors otherwise): the
    /// positive evidence that heals an I/O-caused Degraded or ReadOnly
    /// stack.
    pub fn scrub_all(&self) -> SiasResult<ScrubStats> {
        let mut total = ScrubStats::default();
        for r in self.relation_handles() {
            total.merge(&self.scrub_relation(r.rel)?);
        }
        self.stack.health.mark_scrubbed();
        Ok(total)
    }

    /// Scrubs one data relation: sweep, quarantine, repair, reclaim.
    /// Errors unless the system is quiescent, and when a corrupt chain
    /// has no committed history in the log to rebuild it from. Ticks
    /// `storage.scrub.{scanned,corrupt,repaired}`.
    pub fn scrub_relation(&self, rel: RelId) -> SiasResult<ScrubStats> {
        let mut span = self.metrics.tracer.span(SpanName::ScrubSweep);
        if self.txm.active_count() != 0 {
            return Err(SiasError::Device(
                "scrub requires a quiescent system (no active transactions)".into(),
            ));
        }
        let r = self.relation_handle(rel)?;
        let stats = self.scrub_sweep(&r, &mut 0, usize::MAX)?;
        span.set_arg(stats.pages_scanned);
        // Nothing is active, so every parked block — the repaired ones
        // included, and any GC victims earlier slices parked — is
        // recycled now.
        self.drain_deferred(&mut GcStats::default(), &mut |_| false)?;
        if stats.chains_contended > 0 {
            // Quiescent: no writer holds a tuple lock, so only missing
            // history can leave a chain unrepaired.
            return Err(SiasError::Wal(format!(
                "scrub cannot repair {} chain(s) of {rel:?}: no committed history in the log",
                stats.chains_contended
            )));
        }
        Ok(stats)
    }

    /// Probes up to `max_blocks` sealed blocks of `rel` starting at
    /// `cursor` (a caller-held sweep position, wrapped around the
    /// relation) — one bounded slice of the media patrol. Safe under
    /// live traffic; see the module docs for the repair protocol. Ticks
    /// `storage.scrub.slice_runs`.
    pub fn scrub_slice(
        &self,
        rel: RelId,
        cursor: &mut BlockId,
        max_blocks: usize,
    ) -> SiasResult<ScrubStats> {
        let mut span = self.metrics.tracer.span(SpanName::ScrubSlice);
        let r = self.relation_handle(rel)?;
        self.metrics.scrub_slice_runs.inc();
        let stats = self.scrub_sweep(&r, cursor, max_blocks)?;
        span.set_arg(stats.pages_scanned);
        Ok(stats)
    }

    /// The scrub sweep shared by slices and whole passes: probes up to
    /// `max_blocks` blocks from `cursor` (a failing probe quarantines the
    /// block as a side effect), then repairs what it found corrupt.
    fn scrub_sweep(
        &self,
        r: &SiasRelation,
        cursor: &mut BlockId,
        max_blocks: usize,
    ) -> SiasResult<ScrubStats> {
        let mut stats = ScrubStats::default();
        let mut corrupt: Vec<BlockId> = Vec::new();
        for block in self.sweep_blocks(r, cursor, max_blocks) {
            stats.pages_scanned += 1;
            match self.stack.pool.with_page(r.rel, block, |_| ()) {
                Ok(()) => {}
                Err(SiasError::CorruptPage { .. }) => {
                    stats.pages_corrupt += 1;
                    corrupt.push(block);
                }
                Err(e) => return Err(e),
            }
        }
        let m = &self.metrics;
        m.scrub_scanned.add(stats.pages_scanned);
        m.scrub_corrupt.add(stats.pages_corrupt);
        if !corrupt.is_empty() {
            self.repair_corrupt_blocks(r, corrupt, &mut stats)?;
            m.scrub_repaired.add(stats.pages_repaired);
        }
        Ok(stats)
    }

    /// Phases 2–4 of the scrub protocol: blast radius, WAL-history chain
    /// rebuild, block reclaim. Each rebuild takes the tuple lock
    /// non-blocking and publishes with a CAS; a chain that is contended
    /// or has no history in the durable log yet stays quarantined, and
    /// the corrupt blocks are parked behind the snapshot horizon only
    /// once every affected chain was rebuilt.
    fn repair_corrupt_blocks(
        &self,
        r: &SiasRelation,
        corrupt: Vec<BlockId>,
        stats: &mut ScrubStats,
    ) -> SiasResult<()> {
        let rel = r.rel;
        // (2) Blast radius: an item is affected iff its chain walk
        // faults (pred pointers never leave the chain, so a clean walk
        // proves the item never touches a corrupt page).
        let horizon = self.txm.horizon();
        let mut entries: Vec<(Vid, Tid)> = Vec::new();
        r.vidmap.for_each(|vid, tid| entries.push((vid, tid)));
        let mut affected: Vec<(Vid, Tid)> = Vec::new();
        for (vid, entry) in entries {
            match collect_surviving(&self.stack.pool, rel, entry, horizon, &self.txm.clog) {
                Ok(_) => {}
                Err(SiasError::CorruptPage { .. }) => affected.push((vid, entry)),
                Err(e) => return Err(e),
            }
        }
        // (3) Repair: rebuild each affected chain from the committed
        // version history in the durable log, oldest first — exactly the
        // crash-recovery mechanism.
        self.stack.wal.force()?;
        let records = self.stack.wal.durable_records()?;
        let mut committed: HashSet<Xid> = HashSet::new();
        for rec in &records {
            if let WalRecord::Commit(x) = rec {
                committed.insert(*x);
            }
        }
        let wanted: HashSet<Vid> = affected.iter().map(|(v, _)| *v).collect();
        let mut history: BTreeMap<Vid, Vec<TupleVersion>> = BTreeMap::new();
        for rec in &records {
            let WalRecord::Insert { xid, rel: r2, payload, .. } = rec else { continue };
            if *r2 != rel || !committed.contains(xid) {
                continue;
            }
            let v = TupleVersion::decode(payload)?;
            if !wanted.contains(&v.vid) {
                continue;
            }
            let versions = history.entry(v.vid).or_default();
            // Defensive dedupe: identical adjacent images (e.g. from a
            // log that was itself produced by replay) rebuild once.
            if versions.last().is_some_and(|p| {
                p.create == v.create && p.tombstone == v.tombstone && p.payload == v.payload
            }) {
                continue;
            }
            versions.push(v);
        }
        let mut all_repaired = true;
        for (vid, entry) in &affected {
            // A chain whose history is still buffered behind an in-flight
            // group commit, or whose tuple lock a writer holds, stays
            // quarantined; a later sweep retries.
            let versions = match history.get(vid) {
                Some(versions) if self.txm.locks.try_lock(rel, *vid, SCRUB_SLICE_XID) => versions,
                _ => {
                    stats.chains_contended += 1;
                    all_repaired = false;
                    continue;
                }
            };
            let mut prev: Option<Tid> = None;
            let mut prev_create = Xid::INVALID;
            let mut append_err = None;
            for v in versions {
                let rebuilt = TupleVersion {
                    create: v.create,
                    vid: *vid,
                    pred: prev,
                    pred_create: prev_create,
                    tombstone: v.tombstone,
                    payload: v.payload.clone(),
                };
                match r.append.append(&rebuilt.encode()) {
                    Ok(tid) => {
                        prev = Some(tid);
                        prev_create = v.create;
                        stats.versions_reappended += 1;
                    }
                    Err(e) => {
                        append_err = Some(e);
                        break;
                    }
                }
            }
            let swung = prev.is_some_and(|head| r.vidmap.compare_and_set(*vid, Some(*entry), head));
            self.txm.locks.release_all(SCRUB_SLICE_XID);
            if let Some(e) = append_err {
                return Err(e);
            }
            if swung {
                stats.chains_rebuilt += 1;
            } else {
                stats.chains_contended += 1;
                all_repaired = false;
            }
        }
        // (4) Reclaim — only once every affected chain really was
        // rebuilt; otherwise the blocks stay quarantined for the retrying
        // sweep. The recycle waits behind the snapshot horizon, then
        // TRIMs each block, drops its quarantine state and hands it back
        // to the append region.
        if all_repaired {
            let epoch = self.txm.relocation_epoch();
            let mut q = self.maint.deferred.lock();
            for block in corrupt {
                q.push(DeferredPage { rel, block, epoch });
                stats.pages_repaired += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::append::FlushPolicy;
    use sias_common::PAGE_SIZE;
    use sias_storage::StorageConfig;
    use sias_txn::MvccEngine;

    fn workload() -> (SiasDb, RelId) {
        let db = SiasDb::open(StorageConfig::in_memory());
        let rel = db.create_relation("t");
        let t = db.begin();
        for k in 0..200u64 {
            db.insert(&t, rel, k, format!("v0 {k}").as_bytes()).unwrap();
        }
        db.commit(t).unwrap();
        for round in 1..4u32 {
            let t = db.begin();
            for k in (0..200u64).step_by(2) {
                db.update(&t, rel, k, format!("v{round} {k}").as_bytes()).unwrap();
            }
            db.commit(t).unwrap();
        }
        db.checkpoint().unwrap(); // seal + flush everything flushable
        (db, rel)
    }

    fn visible(db: &SiasDb, rel: RelId) -> Vec<(u64, Vec<u8>)> {
        let t = db.begin();
        let v = db.scan_all(&t, rel).unwrap().into_iter().map(|(k, b)| (k, b.to_vec())).collect();
        db.commit(t).unwrap();
        v
    }

    /// Flips one bit in a sealed block's on-media image and drops the
    /// clean cached copy, simulating Flash retention bit-rot.
    fn rot_block(db: &SiasDb, rel: RelId, block: u32) {
        let pool = &db.stack().pool;
        let lba = pool.space().resolve(rel, block).unwrap();
        let dev = pool.device();
        let mut img = vec![0u8; PAGE_SIZE];
        dev.read_page(lba, &mut img);
        img[100] ^= 0x40;
        dev.write_page(lba, &img, true);
        // Drop any clean cached copy so the next read verifies the media.
        pool.invalidate_block(rel, block);
    }

    fn sealed_block(db: &SiasDb, rel: RelId) -> u32 {
        let r = db.relation_handle(rel).unwrap();
        let nblocks = db.stack().space.relation_blocks(rel);
        (0..nblocks)
            .find(|b| r.append.open_block() != Some(*b) && !r.append.is_free(*b))
            .expect("workload must seal at least one block")
    }

    #[test]
    fn clean_sweep_reports_nothing_corrupt() {
        let (db, _) = workload();
        let stats = db.scrub_all().unwrap();
        assert!(stats.pages_scanned > 0);
        assert_eq!(stats.pages_corrupt, 0);
        assert_eq!(stats.pages_repaired, 0);
        assert_eq!(stats.versions_reappended, 0);
        let snap = db.metrics_snapshot();
        assert_eq!(snap.counter("storage.scrub.scanned"), Some(stats.pages_scanned));
        assert_eq!(snap.counter("storage.scrub.corrupt"), Some(0));
    }

    #[test]
    fn bit_rot_is_detected_repaired_and_reclaimed() {
        let (db, rel) = workload();
        let before = visible(&db, rel);
        let block = sealed_block(&db, rel);
        rot_block(&db, rel, block);
        let stats = db.scrub_relation(rel).unwrap();
        assert_eq!(stats.pages_corrupt, 1);
        assert_eq!(stats.pages_repaired, 1);
        assert!(stats.chains_rebuilt > 0, "a data page carries at least one chain");
        assert!(stats.versions_reappended >= stats.chains_rebuilt);
        // The block is recycled: free again and out of quarantine.
        let r = db.relation_handle(rel).unwrap();
        assert!(r.append.is_free(block));
        assert!(!db.stack().pool.is_quarantined(rel, block));
        // Every row reads exactly as before the rot.
        assert_eq!(before, visible(&db, rel));
        let snap = db.metrics_snapshot();
        assert_eq!(snap.counter("storage.scrub.corrupt"), snap.counter("storage.scrub.repaired"));
    }

    #[test]
    fn multi_block_rot_repairs_every_chain() {
        let (db, rel) = workload();
        let before = visible(&db, rel);
        let r = db.relation_handle(rel).unwrap();
        let nblocks = db.stack().space.relation_blocks(rel);
        let victims: Vec<u32> = (0..nblocks)
            .filter(|b| r.append.open_block() != Some(*b) && !r.append.is_free(*b))
            .take(3)
            .collect();
        assert!(victims.len() >= 2, "workload must seal several blocks");
        for &b in &victims {
            rot_block(&db, rel, b);
        }
        let stats = db.scrub_relation(rel).unwrap();
        assert_eq!(stats.pages_corrupt, victims.len() as u64);
        assert_eq!(stats.pages_repaired, victims.len() as u64);
        assert_eq!(before, visible(&db, rel));
        // A second sweep is clean: the repair really healed the media.
        let again = db.scrub_relation(rel).unwrap();
        assert_eq!(again.pages_corrupt, 0);
    }

    #[test]
    fn scrubbed_database_survives_vacuum_and_restart() {
        let (db, rel) = workload();
        let block = sealed_block(&db, rel);
        rot_block(&db, rel, block);
        db.scrub_relation(rel).unwrap();
        let before = visible(&db, rel);
        // Rebuilt chains may carry extra invisible versions; vacuum must
        // reclaim around them without upsetting visibility.
        db.vacuum_all().unwrap();
        assert_eq!(before, visible(&db, rel));
        // And the log still recovers to the same visible state.
        db.stack().wal.force().unwrap();
        let records = db.stack().wal.durable_records().unwrap();
        let (recovered, _) =
            SiasDb::recover_from_wal(&records, StorageConfig::in_memory(), FlushPolicy::T2)
                .unwrap();
        let rrel = recovered.relation("t").unwrap();
        assert_eq!(before, visible(&recovered, rrel));
    }

    #[test]
    fn scrub_requires_quiescence() {
        let (db, rel) = workload();
        let t = db.begin();
        assert!(db.scrub_relation(rel).is_err());
        db.commit(t).unwrap();
        assert!(db.scrub_relation(rel).is_ok());
    }

    /// Vacuum recycles pages that hold only superseded first versions,
    /// leaving every chain's oldest `*ptr` aimed at a free or reused
    /// block. The blast-radius walk must stop there instead of failing
    /// on the stale slot, and still find the chains the rot broke.
    #[test]
    fn rot_after_vacuum_is_repaired() {
        let db = SiasDb::open(StorageConfig::in_memory());
        let rel = db.create_relation("t");
        let t = db.begin();
        for k in 0..60u64 {
            db.insert(&t, rel, k, &[0u8; 400]).unwrap();
        }
        db.commit(t).unwrap();
        let update = |keys: std::ops::Range<u64>, byte: u8| {
            let t = db.begin();
            for k in keys {
                db.update(&t, rel, k, &[byte; 400]).unwrap();
            }
            db.commit(t).unwrap();
        };
        update(0..60, 1);
        assert!(db.vacuum_all().unwrap().pages_reclaimed > 0);
        update(0..10, 2);
        db.checkpoint().unwrap();
        let before = visible(&db, rel);
        let block = sealed_block(&db, rel);
        rot_block(&db, rel, block);
        let stats = db.scrub_relation(rel).unwrap();
        assert_eq!((stats.pages_corrupt, stats.pages_repaired), (1, 1), "{stats:?}");
        assert!(stats.chains_rebuilt > 0, "{stats:?}");
        assert!(db.relation_handle(rel).unwrap().append.is_free(block));
        assert!(!db.stack().pool.is_quarantined(rel, block));
        assert_eq!(before, visible(&db, rel));
    }

    #[test]
    fn clean_scrub_heals_io_readonly() {
        use sias_storage::HealthState;
        let (db, rel) = workload();
        for _ in 0..8 {
            db.stack().health.record_io_error();
        }
        assert_eq!(db.stack().health.state(), HealthState::ReadOnly);
        db.scrub_all().unwrap();
        assert_eq!(db.stack().health.state(), HealthState::Healthy);
        let t = db.begin();
        db.update(&t, rel, 0, b"after scrub").unwrap();
        db.commit(t).unwrap();
    }
}
