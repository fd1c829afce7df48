//! The SIAS storage engine.
//!
//! Ties the pieces together: VID map (§4.1.2), tuple-granular append
//! storage (§1, §5.2), version chains (§4.1), SI visibility (Algorithm 1),
//! first-updater-wins updates (Algorithm 3), tombstone deletes (§4.2.2)
//! and ⟨key, VID⟩ indexing (§4.3).
//!
//! The engine exposes two API layers:
//!
//! * **data-item level** (the paper's model): [`SiasDb::insert_item`],
//!   [`SiasDb::update_item`], [`SiasDb::read_item`], [`SiasDb::scan`] …
//!   addressing rows by [`Vid`];
//! * **key level** (the [`MvccEngine`] trait shared with the SI
//!   baseline): rows addressed by a unique `u64` key through the
//!   relation's B+-tree.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use parking_lot::RwLock;
use sias_common::{RelId, SiasError, SiasResult, Tid, Vid, Xid};
use sias_index::BPlusTree;
use sias_obs::{Registry, SpanName};
use sias_storage::{BufferPool, StorageConfig, StorageStack, WalRecord};
use sias_txn::{Clog, EngineMetrics, MvccEngine, Snapshot, TransactionManager, Txn, TxnStatus};

use crate::admission::{AdmissionGate, PressureSignals};
use crate::append::{AppendRegion, FlushPolicy};
use crate::chain::{fetch_version, skipped_newer_writers, visible_version, visible_versions_batch};
use crate::maintenance::MaintState;
use crate::scanpool::ScanPool;
use crate::version::TupleVersion;
use crate::vidmap::{VidMap, VidMapCounters};

/// Upper bound on shared scan workers (§4.2.1 parallel access path).
const MAX_SCAN_WORKERS: usize = 16;

/// One SIAS-managed relation: data blocks + VID map + append region +
/// primary-key index.
pub struct SiasRelation {
    /// Data relation id (tuple-version pages).
    pub rel: RelId,
    /// The VID map (exactly one per relation, used by all access paths).
    pub vidmap: VidMap,
    /// The append region all modifications funnel through.
    pub append: AppendRegion,
    /// Primary-key B+-tree storing ⟨key, VID⟩ records.
    pub index: BPlusTree,
}

/// The SIAS engine over one storage stack.
pub struct SiasDb {
    pub(crate) stack: StorageStack,
    pub(crate) txm: Arc<TransactionManager>,
    catalog: RwLock<HashMap<String, RelId>>,
    /// Ordered by id, so every all-relations pass (checkpoint, vacuum,
    /// scrub, maintenance, flushing) visits relations in the same order
    /// in every process and page allocation stays deterministic.
    rels: RwLock<BTreeMap<RelId, Arc<SiasRelation>>>,
    next_rel: AtomicU32,
    policy: FlushPolicy,
    /// Pages per background-writer round under the t1 policy.
    bgwriter_budget: usize,
    /// Pre-resolved metric handles (same names as the SI baseline),
    /// shared with the scan workers.
    pub(crate) metrics: Arc<EngineMetrics>,
    /// Long-lived workers shared by every parallel VID-map scan.
    scan_pool: ScanPool,
    /// Shared state of the online-maintenance subsystems (deferred
    /// page recycles, checkpoint pacing watermark, sweep cursors).
    pub(crate) maint: MaintState,
    /// Admission gate sized by WAL backlog, dirty ratio, and active
    /// transactions; disabled by default (see [`AdmissionGate`]).
    admission: AdmissionGate,
}

impl SiasDb {
    /// Opens a SIAS database with the write-optimal t2 flush policy.
    pub fn open(cfg: StorageConfig) -> Self {
        Self::open_with_policy(cfg, FlushPolicy::T2)
    }

    /// Opens a SIAS database with an explicit flush-threshold policy
    /// (§5.2: t1 = background-writer default, t2 = checkpoint piggy-back).
    pub fn open_with_policy(cfg: StorageConfig, policy: FlushPolicy) -> Self {
        let stack = StorageStack::new(&cfg);
        let txm = Arc::new(TransactionManager::with_registry(&stack.obs));
        let metrics = Arc::new(EngineMetrics::register(&stack.obs));
        let scan_pool = ScanPool::new(MAX_SCAN_WORKERS, Arc::clone(&metrics.scan_parallel_workers));
        let admission = AdmissionGate::new(metrics.admission.clone());
        SiasDb {
            stack,
            txm,
            catalog: RwLock::new(HashMap::new()),
            rels: RwLock::new(BTreeMap::new()),
            next_rel: AtomicU32::new(1),
            policy,
            bgwriter_budget: 128,
            metrics,
            scan_pool,
            maint: MaintState::default(),
            admission,
        }
    }

    /// The admission gate; configure via [`AdmissionGate::set_config`]
    /// to turn backpressure/shedding on (it is off by default).
    pub fn admission(&self) -> &AdmissionGate {
        &self.admission
    }

    /// Reads the three pressure signals the admission gate is sized by.
    pub fn pressure_signals(&self) -> PressureSignals {
        let nframes = self.stack.pool.nframes().max(1) as u64;
        PressureSignals {
            active_txns: self.txm.active_count() as u64,
            wal_backlog_bytes: self.stack.wal.backlog_bytes(),
            dirty_pct: self.stack.pool.dirty_count() as u64 * 100 / nframes,
        }
    }

    /// The underlying storage stack (devices, pool, WAL, clock, trace).
    pub fn stack(&self) -> &StorageStack {
        &self.stack
    }

    /// The transaction manager.
    pub fn txm(&self) -> &Arc<TransactionManager> {
        &self.txm
    }

    /// The flush policy in effect.
    pub fn policy(&self) -> FlushPolicy {
        self.policy
    }

    /// Handle to a relation's SIAS structures.
    pub fn relation_handle(&self, rel: RelId) -> SiasResult<Arc<SiasRelation>> {
        self.rels.read().get(&rel).cloned().ok_or(SiasError::UnknownRelation(rel))
    }

    /// All relation handles in `RelId` order (GC sweeps, checkpoints,
    /// diagnostics).
    pub fn relation_handles(&self) -> Vec<Arc<SiasRelation>> {
        self.rels.read().values().cloned().collect()
    }

    /// SSI read hook: [`TransactionManager::ssi_read`] with this engine's
    /// walk, which reports every *newer* version creator the snapshot
    /// skipped on `key` — the read-time rw-antidependencies (reader →
    /// writer) the write hook cannot see when the write came first.
    fn ssi_read(&self, txn: &Txn, rel: RelId, key: u64) -> SiasResult<()> {
        self.txm.ssi_read(txn, rel, key, || {
            let r = self.relation_handle(rel)?;
            let mut newer: Vec<Xid> = Vec::new();
            for vid in r.index.lookup(key)? {
                let Some(entry) = r.vidmap.get(Vid(vid)) else { continue };
                let skipped = skipped_newer_writers(
                    &self.stack.pool,
                    rel,
                    entry,
                    &txn.snapshot,
                    &self.txm.clog,
                )?;
                for w in skipped {
                    if w != txn.xid && !newer.contains(&w) {
                        newer.push(w);
                    }
                }
            }
            Ok(newer)
        })
    }

    // ------------------------------------------------------------------
    // Data-item level API (the paper's model).
    // ------------------------------------------------------------------

    /// Inserts a new data item; returns its fresh VID (Algorithm 2).
    pub fn insert_item(&self, txn: &Txn, rel: RelId, payload: &[u8]) -> SiasResult<Vid> {
        let _span = self.metrics.tracer.span(SpanName::EngineInsert).txn(txn.xid.0);
        self.insert_item_inner(txn, rel, payload)
    }

    // Body split out so the key-level insert, which opens its own span,
    // is not timed twice.
    fn insert_item_inner(&self, txn: &Txn, rel: RelId, payload: &[u8]) -> SiasResult<Vid> {
        // Fail fast, typed: no media write under ReadOnly health or past
        // the hard space watermark, and none after the deadline passed.
        self.stack.write_allowed()?;
        txn.check_deadline()?;
        let r = self.relation_handle(rel)?;
        // A fresh VID is unreachable by any other transaction, so the
        // X-lock of Algorithm 2 line 2 can never block; we register it
        // only so that release-at-commit stays uniform.
        let vid = r.vidmap.allocate_vid();
        self.txm.locks.try_lock(rel, vid, txn.xid);
        let v = TupleVersion::initial(txn.xid, vid, Bytes::copy_from_slice(payload));
        let image = v.encode();
        let tid = r.append.append(&image)?;
        // Physiological logging: the full version image, replayable.
        self.stack.wal.append(&WalRecord::Insert { xid: txn.xid, rel, tid, vid, payload: image });
        r.vidmap.set(vid, tid);
        Ok(vid)
    }

    /// Updates a data item, appending a successor version (Algorithm 3).
    /// First-updater-wins: concurrent updaters wait on the tuple lock and
    /// abort with [`SiasError::WriteConflict`] when the winner committed.
    pub fn update_item(&self, txn: &Txn, rel: RelId, vid: Vid, payload: &[u8]) -> SiasResult<()> {
        let _span = self.metrics.tracer.span(SpanName::EngineUpdate).txn(txn.xid.0);
        self.modify_item(txn, rel, vid, Some(payload), None)
    }

    /// Deletes a data item by appending a tombstone version (§4.2.2).
    /// `key` (when known) is stored in the tombstone so that vacuum can
    /// drop the ⟨key, VID⟩ index record once the whole item is dead.
    pub fn delete_item(&self, txn: &Txn, rel: RelId, vid: Vid, key: Option<u64>) -> SiasResult<()> {
        let _span = self.metrics.tracer.span(SpanName::EngineDelete).txn(txn.xid.0);
        self.modify_item(txn, rel, vid, None, key)
    }

    fn modify_item(
        &self,
        txn: &Txn,
        rel: RelId,
        vid: Vid,
        payload: Option<&[u8]>,
        tombstone_key: Option<u64>,
    ) -> SiasResult<()> {
        self.stack.write_allowed()?;
        txn.check_deadline()?;
        let r = self.relation_handle(rel)?;
        // Algorithm 3 line 4: quick pre-lock validation against the
        // current entrypoint.
        let entry_tid = r.vidmap.get(vid).ok_or(SiasError::UnknownVid(vid))?;
        let head = self.effective_head(rel, entry_tid)?;
        if !txn.snapshot.sees(head.1.create, &self.txm.clog) {
            self.metrics.write_conflicts.inc();
            return Err(SiasError::WriteConflict { vid, winner: head.1.create });
        }
        // Algorithm 3 line 7: request the tuple X-lock, waiting if
        // needed — but never past the transaction's deadline.
        self.txm.locks.lock_with_deadline(rel, vid, txn.xid, txn.deadline)?;
        // Re-validate under the lock: the previous holder may have
        // committed a newer version while we waited (first-updater-wins).
        let entry_tid = r.vidmap.get(vid).ok_or(SiasError::UnknownVid(vid))?;
        let (_, head) = self.effective_head(rel, entry_tid)?;
        if !txn.snapshot.sees(head.create, &self.txm.clog) {
            self.metrics.write_conflicts.inc();
            return Err(SiasError::WriteConflict { vid, winner: head.create });
        }
        if head.tombstone {
            return Err(SiasError::Deleted(vid));
        }
        // Build the successor. The physical predecessor is the current
        // entrypoint (aborted heads included — readers skip them), and
        // Algorithm 3 line 10 records its creation timestamp.
        let entry_version = fetch_version(&self.stack.pool, rel, entry_tid)?;
        let new_version = match payload {
            Some(p) => TupleVersion::successor(
                txn.xid,
                vid,
                entry_tid,
                entry_version.create,
                Bytes::copy_from_slice(p),
            ),
            None => {
                let mut t = TupleVersion::tombstone(txn.xid, vid, entry_tid, entry_version.create);
                if let Some(k) = tombstone_key {
                    t.payload = Bytes::copy_from_slice(&k.to_le_bytes());
                }
                t
            }
        };
        let image = new_version.encode();
        let new_tid = r.append.append(&image)?;
        self.stack.wal.append(&WalRecord::Insert {
            xid: txn.xid,
            rel,
            tid: new_tid,
            vid,
            payload: image,
        });
        // Swing the entrypoint. We hold the tuple lock, so the CAS can
        // only fail on engine bugs — surface loudly.
        if !r.vidmap.compare_and_set(vid, Some(entry_tid), new_tid) {
            return Err(SiasError::Device(format!(
                "vidmap entrypoint of {vid} moved while the tuple lock was held"
            )));
        }
        Ok(())
    }

    /// Finds the *effective head* of a chain: the newest version whose
    /// transaction is not aborted (aborted heads are physically present
    /// but semantically transparent).
    fn effective_head(&self, rel: RelId, entry: Tid) -> SiasResult<(Tid, TupleVersion)> {
        let mut tid = entry;
        loop {
            let v = fetch_version(&self.stack.pool, rel, tid)?;
            let aborted = matches!(self.txm.clog.status(v.create), TxnStatus::Aborted);
            if !aborted {
                return Ok((tid, v));
            }
            match v.pred {
                Some(p) => tid = p,
                None => return Ok((tid, v)), // fully-aborted chain: caller's visibility check fails
            }
        }
    }

    /// Reads the version of `vid` visible to the snapshot. `None` when
    /// the item does not exist (or is deleted) in this snapshot.
    pub fn read_item(&self, txn: &Txn, rel: RelId, vid: Vid) -> SiasResult<Option<Bytes>> {
        let _span = self.metrics.tracer.span(SpanName::EngineGet).txn(txn.xid.0);
        self.read_item_inner(txn, rel, vid)
    }

    // Split out like `insert_item_inner`: the key-level ops read through
    // it under their own span.
    fn read_item_inner(&self, txn: &Txn, rel: RelId, vid: Vid) -> SiasResult<Option<Bytes>> {
        let r = self.relation_handle(rel)?;
        let Some(entry) = r.vidmap.get(vid) else { return Ok(None) };
        let (found, depth) =
            visible_version(&self.stack.pool, rel, entry, &txn.snapshot, &self.txm.clog)?;
        self.metrics.chain_depth.record(depth);
        match found {
            Some((_, v)) if !v.tombstone => Ok(Some(v.payload)),
            _ => Ok(None),
        }
    }

    /// Splits `v` into `parts` contiguous pieces by moving tails out with
    /// `split_off` — no per-chunk clone of the entries.
    fn partition<T>(mut v: Vec<T>, parts: usize) -> Vec<Vec<T>> {
        let chunk = v.len().div_ceil(parts.max(1)).max(1);
        let mut out = Vec::with_capacity(parts);
        while v.len() > chunk {
            let tail = v.split_off(chunk);
            out.push(std::mem::replace(&mut v, tail));
        }
        out.push(v);
        out
    }

    /// Scan over the VID map (Algorithm 1): for each data item, walk its
    /// chain from the entrypoint and return the first visible version,
    /// in VID order, skipping tombstones. This is the Flash-friendly
    /// access path — selective random reads instead of reading every
    /// tuple version in the relation — and, as §4.2.1 notes, it "is
    /// parallelizable and therefore complements the parallelism of the
    /// Flash storage".
    ///
    /// The map's entries are snapshotted and `threads` is clamped to
    /// `[1, entries]`. One thread resolves every chain on the caller's
    /// thread; more split the entries into contiguous partitions (moved
    /// by `split_off`, not cloned) run on the engine's shared
    /// [`ScanPool`]. Either way each partition goes through
    /// `resolve_visible`: all its chains are walked together with the
    /// batched page-grouped traversal, one pin per page per round, with
    /// the deadline checked between rounds. Versions are immutable and
    /// the map is latch-free, so workers need no coordination, and they
    /// share the snapshot's visibility memo.
    pub fn scan(&self, txn: &Txn, rel: RelId, threads: usize) -> SiasResult<Vec<(Vid, Bytes)>> {
        let _span = self.metrics.tracer.span(SpanName::EngineScanAll).txn(txn.xid.0);
        let r = self.relation_handle(rel)?;
        let mut entries: Vec<(Vid, Tid)> = Vec::with_capacity(r.vidmap.vid_bound() as usize);
        r.vidmap.for_each(|vid, tid| entries.push((vid, tid)));
        let threads = threads.clamp(1, entries.len().max(1));
        let pool = Arc::clone(&self.stack.pool);
        let txm = Arc::clone(&self.txm);
        let metrics = Arc::clone(&self.metrics);
        let snapshot = txn.snapshot.clone();
        let deadline = txn.deadline;
        let resolve = move |part: Vec<(Vid, Tid)>| -> SiasResult<Vec<(Vid, Bytes)>> {
            let visible =
                resolve_visible(&pool, &txm.clog, &metrics, rel, &part, &snapshot, deadline)?;
            Ok(visible.into_iter().map(|(i, payload)| (part[i].0, payload)).collect())
        };
        if threads == 1 {
            return resolve(entries);
        }
        let mut out: Vec<(Vid, Bytes)> = Vec::new();
        for part in self.scan_pool.run(Self::partition(entries, threads), resolve) {
            out.extend(part?);
        }
        Ok(out)
    }

    /// The shared scan pool (diagnostics).
    pub fn scan_pool(&self) -> &ScanPool {
        &self.scan_pool
    }

    /// The traditional full-relation scan (§4.2.1): reads **every** tuple
    /// version in the relation and checks each candidate individually —
    /// the HDD-era sequential access path the paper contrasts against.
    /// Results are identical to [`SiasDb::scan`]. Computed without the
    /// VID map or the chains, they are the independent oracle the scan
    /// tests check `scan` against.
    pub fn scan_traditional(&self, txn: &Txn, rel: RelId) -> SiasResult<Vec<(Vid, Bytes)>> {
        let _span = self.metrics.tracer.span(SpanName::EngineScanAll).txn(txn.xid.0);
        let newest = self.newest_versions(rel, |v| txn.snapshot.sees(v.create, &self.txm.clog))?;
        let mut out: Vec<(Vid, Bytes)> = newest
            .into_iter()
            .filter(|(_, (_, v))| !v.tombstone)
            .map(|(vid, (_, v))| (vid, v.payload))
            .collect();
        out.sort_by_key(|(vid, _)| *vid);
        Ok(out)
    }

    /// The full-relation walk behind [`SiasDb::scan_traditional`] and
    /// [`SiasDb::rebuild_vidmap`]: reads every live version of every
    /// block that is not on the free list (blocks reclaimed by vacuum
    /// hold only dead residue) and keeps, per VID, the newest version
    /// `accept` passes, with its TID.
    ///
    /// "Newest" is the largest `create`. Versions one transaction wrote
    /// to the same item share it; among those the newest is the one no
    /// other names as its `pred` — block order is not chain order once
    /// GC recycles blocks.
    fn newest_versions(
        &self,
        rel: RelId,
        accept: impl Fn(&TupleVersion) -> bool,
    ) -> SiasResult<HashMap<Vid, (Tid, TupleVersion)>> {
        let r = self.relation_handle(rel)?;
        // Per VID, every accepted version with the largest `create` seen.
        let mut newest: HashMap<Vid, Vec<(Tid, TupleVersion)>> = HashMap::new();
        for block in 0..self.stack.space.relation_blocks(rel) {
            if r.append.is_free(block) {
                continue;
            }
            let items: Vec<(u16, Vec<u8>)> = self.stack.pool.with_page(rel, block, |p| {
                p.live_slots()
                    .map(|s| p.item(s).map(|i| (s, i.to_vec())))
                    .collect::<SiasResult<Vec<_>>>()
            })??;
            for (slot, bytes) in items {
                let v = TupleVersion::decode(&bytes)?;
                if !accept(&v) {
                    continue;
                }
                let same = newest.entry(v.vid).or_default();
                match same.first() {
                    Some((_, best)) if v.create < best.create => continue,
                    Some((_, best)) if v.create > best.create => same.clear(),
                    _ => {}
                }
                same.push((Tid::new(block, slot), v));
            }
        }
        Ok(newest
            .into_iter()
            .filter_map(|(vid, mut same)| {
                let head = same
                    .iter()
                    .position(|(tid, _)| same.iter().all(|(_, v)| v.pred != Some(*tid)))?;
                Some((vid, same.swap_remove(head)))
            })
            .collect())
    }

    /// §4.3 Example 1: an update that **changes an indexed key**. A new
    /// ⟨new_key, VID⟩ record is added; the old record remains until
    /// vacuum, because old snapshots may still reach the item through it.
    pub fn update_item_with_key_change(
        &self,
        txn: &Txn,
        rel: RelId,
        vid: Vid,
        old_key: u64,
        new_key: u64,
        payload: &[u8],
    ) -> SiasResult<()> {
        let r = self.relation_handle(rel)?;
        self.update_item(txn, rel, vid, payload)?;
        // The old record is intentionally retained.
        if old_key != new_key {
            self.stack.wal.append(&WalRecord::IndexInsert {
                xid: txn.xid,
                rel,
                key: new_key,
                value: vid.0,
            });
            r.index.insert(new_key, vid.0)?;
        }
        Ok(())
    }

    /// Persists the in-memory SIAS structures (VID maps) and checkpoints
    /// — the shutdown path of §6 *Recovery*. A clean shutdown is simply
    /// a fuzzy checkpoint taken with no writers left.
    pub fn shutdown(&self) -> SiasResult<()> {
        self.checkpoint()?;
        Ok(())
    }

    /// Rebuilds a relation's VID map by scanning its tuple versions — the
    /// crash-recovery path of §6: "all information that is required for a
    /// reconstruction is stored on each tuple version". The entrypoint of
    /// each item is its newest non-aborted version. No relation serves
    /// the rebuilt map, so it counts into detached handles, not the
    /// engine's `core.vidmap.*`.
    pub fn rebuild_vidmap(&self, rel: RelId) -> SiasResult<VidMap> {
        let clog = &self.txm.clog;
        let newest = self.newest_versions(rel, |v| clog.status(v.create) != TxnStatus::Aborted)?;
        let map = VidMap::new(VidMapCounters::default());
        let mut max_vid = 0u64;
        for (vid, (tid, _)) in newest {
            map.set(vid, tid);
            max_vid = max_vid.max(vid.0 + 1);
        }
        while map.vid_bound() < max_vid {
            map.allocate_vid();
        }
        Ok(map)
    }

    /// Emergency space reclaim: a vacuum pass (frees dead versions so
    /// the redo point can advance) followed by a full checkpoint (which
    /// truncates the WAL to the new redo point), then a watermark
    /// re-probe — crossing back under the low watermark is what heals
    /// `ReadOnly(space)` health. Returns WAL bytes reclaimed.
    ///
    /// Called by the maintenance tick whenever the space status leaves
    /// `Ok`; safe (if pointless) to call any time.
    pub fn emergency_reclaim(&self) -> SiasResult<u64> {
        let mut span = self.metrics.tracer.span(SpanName::EmergencyReclaim);
        let before = self.stack.wal.live_bytes();
        // Best-effort vacuum: reclaim failures must not block the
        // checkpoint — truncating the log is the part that frees space.
        let _ = self.vacuum_all();
        self.checkpoint()?;
        let after = self.stack.wal.live_bytes();
        let reclaimed = before.saturating_sub(after);
        span.set_arg(reclaimed);
        // Republishes watermarks; marks the health machine reclaimed
        // when the live log dropped back under the low watermark.
        self.stack.space_status();
        Ok(reclaimed)
    }

    /// Shared begin body: span, snapshot, Begin record. All three public
    /// begin flavors funnel through here after admission.
    fn begin_txn(&self, deadline: Option<std::time::Instant>) -> Txn {
        let mut span = self.metrics.tracer.span(SpanName::TxnBegin);
        let txn = self.txm.begin_with_deadline(deadline);
        span.set_txn(txn.xid.0);
        self.stack.wal.append(&WalRecord::Begin(txn.xid));
        txn
    }
}

/// The resolve loop every batched scan shares: walks all `entries`
/// together with [`visible_versions_batch`] (one pin per page per
/// round, deadline checked between rounds), adds its page visits
/// and versions fetched to `core.engine.scan_page_visits` /
/// `core.engine.scan_versions_fetched`, records one chain depth per
/// entry, and returns the visible non-tombstone payloads as
/// `(position in entries, payload)`, in input order.
fn resolve_visible(
    pool: &BufferPool,
    clog: &Clog,
    metrics: &EngineMetrics,
    rel: RelId,
    entries: &[(Vid, Tid)],
    snapshot: &Snapshot,
    deadline: Option<Instant>,
) -> SiasResult<Vec<(usize, Bytes)>> {
    let (resolved, stats) = visible_versions_batch(pool, rel, entries, snapshot, clog, deadline)?;
    metrics.scan_page_visits.add(stats.page_visits);
    metrics.scan_versions_fetched.add(stats.versions_fetched);
    let mut out = Vec::with_capacity(resolved.len());
    for (i, c) in resolved.into_iter().enumerate() {
        metrics.chain_depth.record(c.depth);
        if let Some((_, v)) = c.visible {
            if !v.tombstone {
                out.push((i, v.payload));
            }
        }
    }
    Ok(out)
}

impl MvccEngine for SiasDb {
    fn name(&self) -> &'static str {
        "sias"
    }

    fn create_relation(&self, name: &str) -> RelId {
        if let Some(&rel) = self.catalog.read().get(name) {
            return rel;
        }
        let mut catalog = self.catalog.write();
        if let Some(&rel) = catalog.get(name) {
            return rel;
        }
        // Reserve three RelIds: data, index, persisted VID map.
        let base = self.next_rel.fetch_add(3, Ordering::Relaxed);
        let rel = RelId(base);
        let index_rel = RelId(base + 1);
        self.stack.space.create_relation(rel);
        let index = BPlusTree::create(Arc::clone(&self.stack.pool), index_rel)
            .expect("index creation on fresh relation");
        // The served map counts into this engine's `core.vidmap.*`.
        let vidmap = VidMap::new(VidMapCounters {
            lookups: Arc::clone(&self.metrics.vidmap_lookups),
            resizes: Arc::clone(&self.metrics.vidmap_resizes),
        });
        let handle = SiasRelation {
            rel,
            vidmap,
            append: AppendRegion::new(rel, Arc::clone(&self.stack.pool), self.policy),
            index,
        };
        self.rels.write().insert(rel, Arc::new(handle));
        catalog.insert(name.to_string(), rel);
        self.stack.wal.append(&WalRecord::CreateRelation { rel, name: name.to_string() });
        rel
    }

    fn relation(&self, name: &str) -> Option<RelId> {
        self.catalog.read().get(name).copied()
    }

    fn begin(&self) -> Txn {
        // Backpressure, never refusal: under overload this parks for up
        // to the gate's delay budget, then admits regardless.
        self.admission.admit_blocking(&self.metrics.tracer, || self.pressure_signals());
        self.begin_txn(None)
    }

    fn try_begin(&self) -> SiasResult<Txn> {
        self.admission.try_admit(&self.metrics.tracer, || self.pressure_signals())?;
        Ok(self.begin_txn(None))
    }

    fn begin_with_deadline(&self, deadline: Option<std::time::Instant>) -> Txn {
        self.admission.admit_blocking(&self.metrics.tracer, || self.pressure_signals());
        self.begin_txn(deadline)
    }

    fn commit(&self, txn: Txn) -> SiasResult<()> {
        let _span = self.metrics.tracer.span(SpanName::TxnCommit).txn(txn.xid.0);
        // Serializable pre-check BEFORE the Commit record is appended: a
        // pivot must abort without a committable record ever reaching
        // the log — recovery replays Commit records and would otherwise
        // resurrect a transaction the client saw abort. On the Ok path
        // `can_commit` freezes the verdict (marks the txn committed in
        // the flag table), so an edge arriving between here and the clog
        // commit aborts its *creator* instead of invalidating this
        // decision.
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
        // The commit is acknowledged only once the log is durable through
        // its own Commit record — `force_through` lets a concurrent
        // group-commit leader satisfy this committer without a second
        // device force. On failure the transaction aborts locally; its
        // Commit record stays pending and may yet become durable through
        // a later force (outcome uncertainty — the client saw an error
        // and must treat the result as unknown). The durability checker
        // only requires *acknowledged* commits to survive, and this path
        // never acknowledges.
        // The force wait honors the transaction's deadline: a follower
        // parked behind a slow leader wakes with `DeadlineExceeded`
        // instead of waiting out the force (the record may still become
        // durable later — same outcome-uncertainty contract as an I/O
        // failure here).
        if let Err(e) = self.stack.wal.force_through_deadline(lsn, txn.deadline, txn.xid) {
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
        let r = self.relation_handle(rel)?;
        for vid in r.index.lookup(key)? {
            if self.read_item_inner(txn, rel, Vid(vid))?.is_some() {
                return Err(SiasError::Index(format!("duplicate key {key}")));
            }
        }
        let vid = self.insert_item_inner(txn, rel, payload)?;
        self.stack.wal.append(&WalRecord::IndexInsert { xid: txn.xid, rel, key, value: vid.0 });
        r.index.insert(key, vid.0)?;
        // The SSI write hook runs once a reader's walk can reach the
        // version: here after its index record, for updates and deletes
        // after their VID-map swing.
        self.txm.ssi_write(txn, rel, key)
    }

    fn update(&self, txn: &Txn, rel: RelId, key: u64, payload: &[u8]) -> SiasResult<()> {
        let _span = self.metrics.tracer.span(SpanName::EngineUpdate).txn(txn.xid.0);
        let r = self.relation_handle(rel)?;
        for vid in r.index.lookup(key)? {
            let vid = Vid(vid);
            if self.read_item_inner(txn, rel, vid)?.is_some() {
                // A non-key update leaves the index untouched (§4.3
                // Example 2) — the VID map swing is the whole story.
                self.modify_item(txn, rel, vid, Some(payload), None)?;
                return self.txm.ssi_write(txn, rel, key);
            }
        }
        Err(SiasError::KeyNotFound(key))
    }

    fn delete(&self, txn: &Txn, rel: RelId, key: u64) -> SiasResult<()> {
        let _span = self.metrics.tracer.span(SpanName::EngineDelete).txn(txn.xid.0);
        let r = self.relation_handle(rel)?;
        for vid in r.index.lookup(key)? {
            let vid = Vid(vid);
            if self.read_item_inner(txn, rel, vid)?.is_some() {
                self.modify_item(txn, rel, vid, None, Some(key))?;
                return self.txm.ssi_write(txn, rel, key);
            }
        }
        Err(SiasError::KeyNotFound(key))
    }

    fn get(&self, txn: &Txn, rel: RelId, key: u64) -> SiasResult<Option<Bytes>> {
        let _span = self.metrics.tracer.span(SpanName::EngineGet).txn(txn.xid.0);
        let r = self.relation_handle(rel)?;
        self.ssi_read(txn, rel, key)?;
        for vid in r.index.lookup(key)? {
            if let Some(payload) = self.read_item_inner(txn, rel, Vid(vid))? {
                return Ok(Some(payload));
            }
        }
        Ok(None)
    }

    // Key-range scan: the index records in `[lo, hi]` are resolved to
    // chain entrypoints through the VID map (records whose slot GC
    // cleared are skipped, as in `SiasDb::read_item`), then all chains
    // are walked together with `resolve_visible`.
    fn scan_range(&self, txn: &Txn, rel: RelId, lo: u64, hi: u64) -> SiasResult<Vec<(u64, Bytes)>> {
        let _span = self.metrics.tracer.span(SpanName::EngineScanRange).txn(txn.xid.0);
        let r = self.relation_handle(rel)?;
        let (keys, entries): (Vec<u64>, Vec<(Vid, Tid)>) = r
            .index
            .range(lo, hi)?
            .into_iter()
            .filter_map(|(key, vid)| Some((key, (Vid(vid), r.vidmap.get(Vid(vid))?))))
            .unzip();
        let visible = resolve_visible(
            &self.stack.pool,
            &self.txm.clog,
            &self.metrics,
            rel,
            &entries,
            &txn.snapshot,
            txn.deadline,
        )?;
        visible
            .into_iter()
            .map(|(i, payload)| {
                self.ssi_read(txn, rel, keys[i])?;
                Ok((keys[i], payload))
            })
            .collect()
    }

    fn maintenance(&self, checkpoint: bool) {
        let _span = self.metrics.tracer.span(SpanName::Maintenance).arg(checkpoint as u64);
        match self.policy {
            FlushPolicy::T1 => {
                // Background-writer default: persist dirty pages —
                // including sparsely filled open append pages — every
                // tick.
                for r in self.relation_handles() {
                    let _ = r.append.flush_open();
                }
                self.stack.pool.bgwriter_round(self.bgwriter_budget);
            }
            FlushPolicy::T2 => {
                // Checkpoint piggy-back: nothing between checkpoints
                // (full append pages were already flushed when sealed).
            }
        }
        if checkpoint {
            // Best-effort: maintenance cannot propagate errors; a failed
            // checkpoint leaves the previous redo point in force.
            let _ = self.checkpoint();
        }
        // Past the low watermark the tick turns into an emergency
        // reclaim regardless of policy: vacuum + checkpoint + WAL
        // truncation, which is also the path that heals ReadOnly(space).
        if self.stack.space_status() != sias_storage::SpaceStatus::Ok {
            let _ = self.emergency_reclaim();
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
    use crate::chain::collect_chain;
    use sias_storage::StorageConfig;

    fn db() -> (SiasDb, RelId) {
        let db = SiasDb::open(StorageConfig::in_memory());
        let rel = db.create_relation("t");
        (db, rel)
    }

    /// The scalar oracle of [`SiasDb::scan`]: every VID-map entry, in
    /// VID order, read through the scalar point-read walk.
    fn scalar_scan(db: &SiasDb, txn: &Txn, rel: RelId) -> Vec<(Vid, Bytes)> {
        let mut vids = Vec::new();
        db.relation_handle(rel).unwrap().vidmap.for_each(|vid, _| vids.push(vid));
        vids.into_iter()
            .filter_map(|vid| Some((vid, db.read_item(txn, rel, vid).unwrap()?)))
            .collect()
    }

    #[test]
    fn relation_handles_come_in_rel_id_order() {
        // The nine TPC-C tables: every all-relations pass must visit them
        // in one order, or page allocation differs from run to run.
        let db = SiasDb::open(StorageConfig::in_memory());
        let created: Vec<RelId> = (0..9).map(|i| db.create_relation(&format!("t{i}"))).collect();
        let visited: Vec<RelId> = db.relation_handles().iter().map(|r| r.rel).collect();
        assert_eq!(visited, created, "relation ids are allocated ascending");
    }

    #[test]
    fn insert_read_roundtrip() {
        let (db, rel) = db();
        let t = db.begin();
        let vid = db.insert_item(&t, rel, b"hello").unwrap();
        assert_eq!(db.read_item(&t, rel, vid).unwrap().unwrap().as_ref(), b"hello");
        db.commit(t).unwrap();
        let t = db.begin();
        assert_eq!(db.read_item(&t, rel, vid).unwrap().unwrap().as_ref(), b"hello");
        db.commit(t).unwrap();
    }

    #[test]
    fn figure1_history_builds_singly_linked_chain() {
        // The paper's running example: T1 creates X, T2 and T3 update it.
        let (db, rel) = db();
        let t1 = db.begin();
        let vid = db.insert_item(&t1, rel, b"X0").unwrap();
        db.commit(t1).unwrap();
        let t2 = db.begin();
        db.update_item(&t2, rel, vid, b"X1").unwrap();
        db.commit(t2).unwrap();
        let t3 = db.begin();
        db.update_item(&t3, rel, vid, b"X2").unwrap();
        db.commit(t3).unwrap();
        let r = db.relation_handle(rel).unwrap();
        let entry = r.vidmap.get(vid).unwrap();
        let chain = collect_chain(&db.stack.pool, rel, entry).unwrap();
        assert_eq!(chain.len(), 3);
        let payloads: Vec<&[u8]> = chain.iter().map(|(_, v)| v.payload.as_ref()).collect();
        assert_eq!(payloads, vec![&b"X2"[..], b"X1", b"X0"]);
        // Every version carries the same VID; only the first has no pred.
        assert!(chain.iter().all(|(_, v)| v.vid == vid));
        assert!(chain[0].1.pred.is_some() && chain[1].1.pred.is_some());
        assert!(chain[2].1.pred.is_none());
        // No invalidation stamp anywhere: predecessor versions byte-identical
        // to what was written (implicit invalidation).
        assert_eq!(chain[2].1.create, Xid(1)); // T1 was the first transaction
    }

    #[test]
    fn snapshot_isolation_reader_sees_start_state() {
        let (db, rel) = db();
        let t = db.begin();
        let vid = db.insert_item(&t, rel, b"v1").unwrap();
        db.commit(t).unwrap();
        let reader = db.begin(); // snapshot taken now
        let writer = db.begin();
        db.update_item(&writer, rel, vid, b"v2").unwrap();
        db.commit(writer).unwrap();
        // Reader still sees v1 (writer was concurrent).
        assert_eq!(db.read_item(&reader, rel, vid).unwrap().unwrap().as_ref(), b"v1");
        db.commit(reader).unwrap();
        // A fresh transaction sees v2.
        let t = db.begin();
        assert_eq!(db.read_item(&t, rel, vid).unwrap().unwrap().as_ref(), b"v2");
        db.commit(t).unwrap();
    }

    #[test]
    fn own_writes_visible_before_commit() {
        let (db, rel) = db();
        let t = db.begin();
        let vid = db.insert_item(&t, rel, b"a").unwrap();
        db.update_item(&t, rel, vid, b"b").unwrap();
        assert_eq!(db.read_item(&t, rel, vid).unwrap().unwrap().as_ref(), b"b");
        db.commit(t).unwrap();
    }

    #[test]
    fn uncommitted_writes_invisible_to_others() {
        let (db, rel) = db();
        let w = db.begin();
        let vid = db.insert_item(&w, rel, b"secret").unwrap();
        let r = db.begin();
        assert_eq!(db.read_item(&r, rel, vid).unwrap(), None);
        db.commit(w).unwrap();
        // r began while w was active: still invisible.
        assert_eq!(db.read_item(&r, rel, vid).unwrap(), None);
        db.commit(r).unwrap();
    }

    #[test]
    fn aborted_writes_never_visible() {
        let (db, rel) = db();
        let t = db.begin();
        let vid = db.insert_item(&t, rel, b"v1").unwrap();
        db.commit(t).unwrap();
        let t = db.begin();
        db.update_item(&t, rel, vid, b"doomed").unwrap();
        db.abort(t);
        let t = db.begin();
        assert_eq!(db.read_item(&t, rel, vid).unwrap().unwrap().as_ref(), b"v1");
        // And the item can still be updated (aborted head is transparent).
        db.update_item(&t, rel, vid, b"v2").unwrap();
        db.commit(t).unwrap();
        let t = db.begin();
        assert_eq!(db.read_item(&t, rel, vid).unwrap().unwrap().as_ref(), b"v2");
        db.commit(t).unwrap();
    }

    #[test]
    fn first_updater_wins_on_concurrent_update() {
        let (db, rel) = db();
        let t = db.begin();
        let vid = db.insert_item(&t, rel, b"base").unwrap();
        db.commit(t).unwrap();
        let a = db.begin();
        let b = db.begin();
        db.update_item(&a, rel, vid, b"a-wins").unwrap();
        db.commit(a).unwrap();
        // b was concurrent with a; a committed first: b must fail.
        let err = db.update_item(&b, rel, vid, b"b-loses").unwrap_err();
        assert!(matches!(err, SiasError::WriteConflict { .. }), "got {err:?}");
        db.abort(b);
        let t = db.begin();
        assert_eq!(db.read_item(&t, rel, vid).unwrap().unwrap().as_ref(), b"a-wins");
        db.commit(t).unwrap();
    }

    #[test]
    fn delete_appends_tombstone_and_hides_item() {
        let (db, rel) = db();
        let t = db.begin();
        let vid = db.insert_item(&t, rel, b"to-die").unwrap();
        db.commit(t).unwrap();
        let reader = db.begin(); // old snapshot
        let t = db.begin();
        db.delete_item(&t, rel, vid, None).unwrap();
        db.commit(t).unwrap();
        // Old snapshot still sees the item (tombstone is §4.2.2's reason
        // to exist).
        assert_eq!(db.read_item(&reader, rel, vid).unwrap().unwrap().as_ref(), b"to-die");
        db.commit(reader).unwrap();
        let t = db.begin();
        assert_eq!(db.read_item(&t, rel, vid).unwrap(), None);
        // Further updates fail on the deleted item.
        let err = db.update_item(&t, rel, vid, b"zombie").unwrap_err();
        assert!(matches!(err, SiasError::Deleted(_)));
        db.commit(t).unwrap();
    }

    #[test]
    fn scans_agree_and_respect_snapshots() {
        let (db, rel) = db();
        let t = db.begin();
        let mut vids = Vec::new();
        for i in 0..30u8 {
            vids.push(db.insert_item(&t, rel, &[i]).unwrap());
        }
        db.commit(t).unwrap();
        let old_reader = db.begin();
        let t = db.begin();
        for &vid in &vids[..10] {
            db.update_item(&t, rel, vid, b"new").unwrap();
        }
        db.delete_item(&t, rel, vids[29], None).unwrap();
        db.commit(t).unwrap();
        // Old reader: 30 items, all original payloads.
        let scan = db.scan(&old_reader, rel, 1).unwrap();
        assert_eq!(scan.len(), 30);
        assert!(scan.iter().all(|(_, p)| p.len() == 1));
        assert_eq!(scan, scalar_scan(&db, &old_reader, rel));
        let trad = db.scan_traditional(&old_reader, rel).unwrap();
        assert_eq!(scan, trad, "both access paths agree (old snapshot)");
        db.commit(old_reader).unwrap();
        // Fresh reader: 29 items, 10 updated.
        let t = db.begin();
        let scan = db.scan(&t, rel, 1).unwrap();
        assert_eq!(scan.len(), 29);
        assert_eq!(scan.iter().filter(|(_, p)| p.as_ref() == b"new").count(), 10);
        assert_eq!(scan, scalar_scan(&db, &t, rel));
        assert_eq!(scan, db.scan_traditional(&t, rel).unwrap());
        db.commit(t).unwrap();
    }

    #[test]
    fn item_written_twice_by_one_transaction_resolves_to_the_second_write() {
        // Both updates share one `create` xid, so the full-relation walk
        // must order them by their `pred` link, not by block order.
        let (db, rel) = db();
        let t = db.begin();
        let vid = db.insert_item(&t, rel, b"initial").unwrap();
        db.commit(t).unwrap();
        let t = db.begin();
        db.update_item(&t, rel, vid, b"first").unwrap();
        db.update_item(&t, rel, vid, b"second").unwrap();
        db.commit(t).unwrap();
        let t = db.begin();
        let want = vec![(vid, Bytes::from_static(b"second"))];
        assert_eq!(db.scan(&t, rel, 1).unwrap(), want);
        assert_eq!(db.scan_traditional(&t, rel).unwrap(), want);
        db.commit(t).unwrap();
        let live = db.relation_handle(rel).unwrap().vidmap.get(vid);
        assert_eq!(live, Some(Tid::new(0, 2)));
        assert_eq!(db.rebuild_vidmap(rel).unwrap().get(vid), live);
    }

    #[test]
    fn key_api_crud() {
        let (db, rel) = db();
        let t = db.begin();
        db.insert(&t, rel, 42, b"answer").unwrap();
        assert!(db.insert(&t, rel, 42, b"dup").is_err());
        db.commit(t).unwrap();
        let t = db.begin();
        assert_eq!(db.get(&t, rel, 42).unwrap().unwrap().as_ref(), b"answer");
        db.update(&t, rel, 42, b"updated").unwrap();
        assert_eq!(db.get(&t, rel, 42).unwrap().unwrap().as_ref(), b"updated");
        db.delete(&t, rel, 42).unwrap();
        assert_eq!(db.get(&t, rel, 42).unwrap(), None);
        assert!(matches!(db.update(&t, rel, 42, b"gone").unwrap_err(), SiasError::KeyNotFound(42)));
        db.commit(t).unwrap();
    }

    #[test]
    fn scan_range_filters_by_key() {
        let (db, rel) = db();
        let t = db.begin();
        for k in (0..100u64).step_by(10) {
            db.insert(&t, rel, k, &k.to_le_bytes()).unwrap();
        }
        db.commit(t).unwrap();
        let t = db.begin();
        let got = db.scan_range(&t, rel, 25, 65).unwrap();
        let keys: Vec<u64> = got.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![30, 40, 50, 60]);
        db.commit(t).unwrap();
    }

    #[test]
    fn non_key_update_never_touches_index() {
        // §4.3 Example 2 — the headline index property of SIAS.
        let (db, rel) = db();
        let t = db.begin();
        for k in 0..50u64 {
            db.insert(&t, rel, k, b"price=1").unwrap();
        }
        db.commit(t).unwrap();
        let r = db.relation_handle(rel).unwrap();
        let index_len_before = r.index.len();
        for round in 0..10u32 {
            let t = db.begin();
            for k in 0..50u64 {
                db.update(&t, rel, k, format!("price={round}").as_bytes()).unwrap();
            }
            db.commit(t).unwrap();
        }
        assert_eq!(r.index.len(), index_len_before, "500 updates, zero index writes");
    }

    #[test]
    fn key_change_update_adds_second_index_record() {
        // §4.3 Example 1 / Figure 2: key 9 → 10, both reach the item.
        let (db, rel) = db();
        let t = db.begin();
        db.insert(&t, rel, 9, b"attr=9").unwrap();
        db.commit(t).unwrap();
        let r = db.relation_handle(rel).unwrap();
        let vid = Vid(r.index.lookup_one(9).unwrap().unwrap());
        let old_reader = db.begin();
        let t = db.begin();
        db.update_item_with_key_change(&t, rel, vid, 9, 10, b"attr=10").unwrap();
        db.commit(t).unwrap();
        // New snapshot finds the item under the new key.
        let t = db.begin();
        assert_eq!(db.get(&t, rel, 10).unwrap().unwrap().as_ref(), b"attr=10");
        db.commit(t).unwrap();
        // The old snapshot still reaches the old version through key 9
        // (the old index record was retained).
        assert_eq!(db.get(&old_reader, rel, 9).unwrap().unwrap().as_ref(), b"attr=9");
        db.commit(old_reader).unwrap();
    }

    #[test]
    fn vidmap_rebuild_recovers_entrypoints() {
        let (db, rel) = db();
        let t = db.begin();
        let mut vids = Vec::new();
        for i in 0..200u64 {
            vids.push(db.insert_item(&t, rel, &i.to_le_bytes()).unwrap());
        }
        db.commit(t).unwrap();
        for round in 0..3u64 {
            let t = db.begin();
            for &vid in vids.iter().step_by(7) {
                db.update_item(&t, rel, vid, &round.to_le_bytes()).unwrap();
            }
            db.commit(t).unwrap();
        }
        // Abort one more update: rebuild must not pick the aborted head.
        let t = db.begin();
        db.update_item(&t, rel, vids[0], b"aborted!").unwrap();
        db.abort(t);
        let r = db.relation_handle(rel).unwrap();
        let rebuilt = db.rebuild_vidmap(rel).unwrap();
        assert_eq!(rebuilt.vid_bound(), r.vidmap.vid_bound());
        let mut mismatches = 0;
        r.vidmap.for_each(|vid, tid| {
            // The live map may point at an aborted head; the rebuilt map
            // points at the newest non-aborted version. Compare by
            // resolved payload instead of raw TID for those.
            let t = db.begin();
            let live = db.read_item(&t, rel, vid).unwrap();
            db.commit(t).unwrap();
            let reb_tid = rebuilt.get(vid).expect("rebuilt entry");
            let v = crate::chain::fetch_version(&db.stack.pool, rel, reb_tid).unwrap();
            let _ = tid;
            if live.as_deref() != Some(v.payload.as_ref()) {
                mismatches += 1;
            }
        });
        assert_eq!(mismatches, 0);
    }

    #[test]
    fn shutdown_persists_and_vidmap_reloads() {
        let (db, rel) = db();
        let t = db.begin();
        for i in 0..100u64 {
            db.insert(&t, rel, i, &i.to_le_bytes()).unwrap();
        }
        db.commit(t).unwrap();
        db.shutdown().unwrap();
        // Reload the persisted VID map from its relation.
        let map_rel = RelId(rel.0 + 2);
        let restored = VidMap::load_from(&db.stack.pool, map_rel).unwrap();
        let r = db.relation_handle(rel).unwrap();
        assert_eq!(restored.vid_bound(), r.vidmap.vid_bound());
        for i in 0..100u64 {
            assert_eq!(restored.get(Vid(i)), r.vidmap.get(Vid(i)));
        }
    }

    #[test]
    fn wal_records_full_history() {
        let (db, rel) = db();
        let t = db.begin();
        let xid = t.xid;
        db.insert(&t, rel, 1, b"x").unwrap();
        db.commit(t).unwrap();
        let records = db.stack.wal.durable_records().unwrap();
        assert!(records.contains(&WalRecord::Begin(xid)));
        assert!(records.contains(&WalRecord::Commit(xid)));
        assert!(records.iter().any(|r| matches!(r, WalRecord::Insert { xid: x, .. } if *x == xid)));
    }

    #[test]
    fn parallel_scan_matches_serial() {
        let (db, rel) = db();
        let t = db.begin();
        for k in 0..500u64 {
            db.insert(&t, rel, k, &k.to_le_bytes()).unwrap();
        }
        db.commit(t).unwrap();
        let t = db.begin();
        for k in (0..500u64).step_by(3) {
            db.update(&t, rel, k, b"upd").unwrap();
        }
        for k in 490..500u64 {
            db.delete(&t, rel, k).unwrap();
        }
        db.commit(t).unwrap();
        let t = db.begin();
        let serial = scalar_scan(&db, &t, rel);
        for threads in [1, 2, 4, 7] {
            assert_eq!(db.scan(&t, rel, threads).unwrap(), serial, "{threads} threads");
        }
        db.commit(t).unwrap();
    }

    #[test]
    fn batched_scan_matches_serial_with_aborts_and_tombstones() {
        let (db, rel) = db();
        let t = db.begin();
        for k in 0..200u64 {
            db.insert(&t, rel, k, &k.to_le_bytes()).unwrap();
        }
        db.commit(t).unwrap();
        // Aborted writer: its versions sit at chain heads but must be
        // invisible to everyone.
        let t = db.begin();
        for k in (0..200u64).step_by(5) {
            db.update(&t, rel, k, b"rolled back").unwrap();
        }
        db.abort(t);
        // Committed updates + tombstones.
        let t = db.begin();
        for k in (1..200u64).step_by(7) {
            db.update(&t, rel, k, b"upd").unwrap();
        }
        for k in 180..200u64 {
            db.delete(&t, rel, k).unwrap();
        }
        db.commit(t).unwrap();
        let t = db.begin();
        let serial = scalar_scan(&db, &t, rel);
        for threads in [1, 2, 3, 5] {
            assert_eq!(db.scan(&t, rel, threads).unwrap(), serial, "{threads} threads");
        }
        db.commit(t).unwrap();
    }

    #[test]
    fn scan_metrics_tick_on_batched_paths() {
        let (db, rel) = db();
        let t = db.begin();
        for k in 0..64u64 {
            db.insert(&t, rel, k, b"v0").unwrap();
        }
        db.commit(t).unwrap();
        let reader = db.begin(); // forced to walk past the update below
        let t = db.begin();
        for k in 0..64u64 {
            db.update(&t, rel, k, b"v1").unwrap();
        }
        db.commit(t).unwrap();

        let before = db.metrics_snapshot();
        let visits0 = before.counter("core.engine.scan_page_visits").unwrap();
        let fetched0 = before.counter("core.engine.scan_versions_fetched").unwrap();
        let n = db.scan(&reader, rel, 1).unwrap().len();
        assert_eq!(n, 64);
        let after = db.metrics_snapshot();
        let visits = after.counter("core.engine.scan_page_visits").unwrap() - visits0;
        let fetched = after.counter("core.engine.scan_versions_fetched").unwrap() - fetched0;
        assert_eq!(fetched, 128, "old reader fetches head + predecessor per item");
        assert!(visits >= 1 && visits <= fetched, "page visits bounded by versions fetched");
        db.commit(reader).unwrap();
    }

    #[test]
    fn vidmap_memory_accounting() {
        let (db, rel) = db();
        let t = db.begin();
        for k in 0..3000u64 {
            db.insert(&t, rel, k, b"x").unwrap();
        }
        db.commit(t).unwrap();
        let r = db.relation_handle(rel).unwrap();
        // 3000 vids → 3 buckets → 3 × 1024 × 8 bytes.
        assert_eq!(r.vidmap.memory_bytes(), 3 * 1024 * 8);
    }

    #[test]
    fn unknown_vid_and_relation_errors() {
        let (db, rel) = db();
        let t = db.begin();
        assert!(matches!(
            db.update_item(&t, rel, Vid(99), b"x").unwrap_err(),
            SiasError::UnknownVid(Vid(99))
        ));
        assert_eq!(db.read_item(&t, rel, Vid(99)).unwrap(), None);
        assert!(matches!(
            db.insert_item(&t, RelId(404), b"x").unwrap_err(),
            SiasError::UnknownRelation(_)
        ));
        db.commit(t).unwrap();
    }

    #[test]
    fn delete_then_reinsert_same_key() {
        let (db, rel) = db();
        let t = db.begin();
        db.insert(&t, rel, 7, b"first life").unwrap();
        db.commit(t).unwrap();
        let t = db.begin();
        db.delete(&t, rel, 7).unwrap();
        // Within the same transaction the key is free again.
        db.insert(&t, rel, 7, b"second life").unwrap();
        db.commit(t).unwrap();
        let t = db.begin();
        assert_eq!(db.get(&t, rel, 7).unwrap().unwrap().as_ref(), b"second life");
        // Exactly one visible row under the key even though two data
        // items (vids) carry it in the index.
        assert_eq!(db.scan_range(&t, rel, 7, 7).unwrap().len(), 1);
        db.commit(t).unwrap();
        // Vacuum clears the tombstoned first incarnation only.
        db.vacuum_all().unwrap();
        let t = db.begin();
        assert_eq!(db.get(&t, rel, 7).unwrap().unwrap().as_ref(), b"second life");
        db.commit(t).unwrap();
    }

    #[test]
    fn oversize_payload_is_rejected_cleanly() {
        let (db, rel) = db();
        let t = db.begin();
        let err = db.insert(&t, rel, 1, &vec![0u8; 9000]).unwrap_err();
        assert!(matches!(err, SiasError::TupleTooLarge { .. }));
        // The failed insert left no visible row and the engine still works.
        assert_eq!(db.get(&t, rel, 1).unwrap(), None);
        db.insert(&t, rel, 1, &vec![0u8; 4000]).unwrap();
        db.commit(t).unwrap();
    }

    #[test]
    fn relations_are_isolated() {
        let db = SiasDb::open(StorageConfig::in_memory());
        let a = db.create_relation("a");
        let b = db.create_relation("b");
        assert_ne!(a, b);
        assert_eq!(db.relation("a"), Some(a));
        assert_eq!(db.relation("missing"), None);
        let t = db.begin();
        db.insert(&t, a, 1, b"in a").unwrap();
        db.insert(&t, b, 1, b"in b").unwrap();
        db.commit(t).unwrap();
        let t = db.begin();
        assert_eq!(db.get(&t, a, 1).unwrap().unwrap().as_ref(), b"in a");
        assert_eq!(db.get(&t, b, 1).unwrap().unwrap().as_ref(), b"in b");
        assert_eq!(db.scan_all(&t, a).unwrap().len(), 1);
        db.commit(t).unwrap();
        // create_relation is idempotent by name.
        assert_eq!(db.create_relation("a"), a);
    }

    #[test]
    fn commit_forces_wal_each_time() {
        let (db, rel) = db();
        let forces_before = db.stack.wal.stats().forces;
        for k in 0..5u64 {
            let t = db.begin();
            db.insert(&t, rel, k, b"x").unwrap();
            db.commit(t).unwrap();
        }
        assert_eq!(db.stack.wal.stats().forces, forces_before + 5, "one force per commit");
        // Aborts do not force.
        let t = db.begin();
        db.insert(&t, rel, 100, b"y").unwrap();
        db.abort(t);
        assert_eq!(db.stack.wal.stats().forces, forces_before + 5);
    }

    #[test]
    fn empty_and_nonexistent_scans() {
        let (db, rel) = db();
        let t = db.begin();
        assert_eq!(db.scan_all(&t, rel).unwrap(), vec![]);
        assert_eq!(db.scan(&t, rel, 1).unwrap(), vec![]);
        assert_eq!(db.scan(&t, rel, 4).unwrap(), vec![]);
        assert_eq!(db.scan_traditional(&t, rel).unwrap(), vec![]);
        assert!(db.scan_all(&t, RelId(404)).is_err());
        assert!(matches!(db.scan(&t, RelId(404), 4), Err(SiasError::UnknownRelation(_))));
        // Inverted range is empty, not an error.
        db.insert(&t, rel, 5, b"x").unwrap();
        assert_eq!(db.scan_range(&t, rel, 9, 3).unwrap(), vec![]);
        db.commit(t).unwrap();
    }

    #[test]
    fn update_skips_invisible_items_with_same_key() {
        // An aborted insert leaves an index record whose item is never
        // visible; key-level ops must skip it and hit the real one.
        let (db, rel) = db();
        let t = db.begin();
        db.insert(&t, rel, 5, b"ghost").unwrap();
        db.abort(t);
        let t = db.begin();
        db.insert(&t, rel, 5, b"real").unwrap();
        db.commit(t).unwrap();
        let t = db.begin();
        db.update(&t, rel, 5, b"real v2").unwrap();
        assert_eq!(db.get(&t, rel, 5).unwrap().unwrap().as_ref(), b"real v2");
        db.commit(t).unwrap();
    }

    #[test]
    fn concurrent_updates_from_threads_keep_chains_consistent() {
        use std::sync::Arc as StdArc;
        let db = StdArc::new(SiasDb::open(StorageConfig::in_memory()));
        let rel = db.create_relation("t");
        let t = db.begin();
        let vids: Vec<Vid> =
            (0..16).map(|i: u64| db.insert_item(&t, rel, &i.to_le_bytes()).unwrap()).collect();
        db.commit(t).unwrap();
        let mut handles = vec![];
        for tno in 0..8u64 {
            let db = StdArc::clone(&db);
            let vids = vids.clone();
            handles.push(std::thread::spawn(move || {
                let mut commits = 0u64;
                for i in 0..100u64 {
                    let t = db.begin();
                    let vid = vids[((tno * 31 + i) % 16) as usize];
                    match db.update_item(&t, rel, vid, &(tno * 1000 + i).to_le_bytes()) {
                        Ok(()) => {
                            db.commit(t).unwrap();
                            commits += 1;
                        }
                        Err(_) => db.abort(t),
                    }
                }
                commits
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);
        // Every chain is intact: committed versions strictly ordered.
        let r = db.relation_handle(rel).unwrap();
        for &vid in &vids {
            let entry = r.vidmap.get(vid).unwrap();
            let chain = collect_chain(&db.stack.pool, rel, entry).unwrap();
            let committed: Vec<Xid> = chain
                .iter()
                .filter(|(_, v)| db.txm.clog.is_committed(v.create))
                .map(|(_, v)| v.create)
                .collect();
            for w in committed.windows(2) {
                assert!(w[0] > w[1], "chain of {vid} out of order: {committed:?}");
            }
        }
        let (commits, _aborts) = db.txm.outcome_counts();
        assert_eq!(commits, total + 1); // + the initial insert transaction
    }

    #[test]
    fn metrics_snapshot_reflects_public_ops() {
        let (db, rel) = db();
        let t = db.begin();
        db.insert(&t, rel, 1, b"v0").unwrap();
        db.commit(t).unwrap();
        let before = db.metrics_snapshot();
        let updates_before = before.histogram("span.engine.update").unwrap().count;
        let depth_max_before = before.histogram("core.engine.chain_depth").unwrap().max;
        assert!(depth_max_before <= 1, "no chain longer than one version yet");

        // An update through the public trait API...
        let reader = db.begin(); // old snapshot, taken before the update
        let t = db.begin();
        db.update(&t, rel, 1, b"v1").unwrap();
        db.commit(t).unwrap();
        // ...and a read that must walk past the new head to v0.
        assert_eq!(db.get(&reader, rel, 1).unwrap().unwrap().as_ref(), b"v0");
        db.commit(reader).unwrap();

        let after = db.metrics_snapshot();
        assert_eq!(
            after.histogram("span.engine.update").unwrap().count,
            updates_before + 1,
            "the public update op must increment span.engine.update"
        );
        assert_eq!(
            after.histogram("core.engine.chain_depth").unwrap().max,
            2,
            "the old reader walked a two-version chain"
        );
        // One snapshot covers every layer: pool, WAL, engine, txn manager.
        for name in [
            "storage.buffer.hits",
            "storage.wal.forces",
            "span.engine.insert",
            "core.vidmap.lookups",
            "core.gc.runs",
            "txn.manager.commits",
            "txn.manager.aborts_write_conflict",
        ] {
            assert!(after.get(name).is_some(), "snapshot misses {name}");
        }
        assert!(after.counter("txn.manager.commits").unwrap() >= 3);
        assert!(after.counter("core.vidmap.lookups").unwrap() > 0);
        assert!(after.counter("storage.wal.forces").unwrap() >= 3);
    }

    #[test]
    fn sampler_series_carries_live_pool_and_vidmap_deltas() {
        let (db, rel) = db();
        let t = db.begin();
        for k in 0..64u64 {
            db.insert(&t, rel, k, b"v0").unwrap();
        }
        db.commit(t).unwrap();
        let obs = Arc::clone(&db.stack().obs);
        let baseline = obs.snapshot();
        let sampler =
            sias_obs::SamplerHandle::spawn(Arc::clone(&obs), std::time::Duration::from_millis(2));
        for round in 0..20u8 {
            for k in 0..64u64 {
                let t = db.begin();
                db.get(&t, rel, k).unwrap();
                db.update(&t, rel, k, &[round; 8]).unwrap();
                db.commit(t).unwrap();
            }
        }
        let series = sampler.stop();
        let end = obs.snapshot();
        for name in ["storage.buffer.hits", "core.vidmap.lookups"] {
            let moved = end.counter(name).unwrap() - baseline.counter(name).unwrap();
            let sampled: u64 = series.points.iter().filter_map(|p| p.counters.get(name)).sum();
            assert!(moved > 0, "{name} did not move in the registry");
            assert_eq!(sampled, moved, "{name}: the series must account for every event");
        }
    }

    #[test]
    fn tracing_off_records_zero_events_and_allocates_nothing() {
        let (db, rel) = db();
        let timed = ["txn.begin", "engine.insert", "engine.update", "engine.get", "txn.commit"];
        let counts = |snap: &sias_obs::MetricsSnapshot| {
            timed.map(|n| snap.histogram(&format!("span.{n}")).expect("registered").count)
        };
        let before = counts(&db.metrics_snapshot());
        let t = db.begin();
        db.insert(&t, rel, 1, b"v1").unwrap();
        db.update(&t, rel, 1, b"v2").unwrap();
        assert_eq!(db.get(&t, rel, 1).unwrap().as_deref(), Some(&b"v2"[..]));
        db.commit(t).unwrap();
        let tracer = db.stack().obs.tracer();
        assert_eq!(tracer.total_recorded(), 0, "untraced runs must record nothing");
        assert_eq!(tracer.memory_bytes(), 0, "rings must stay unallocated");
        assert!(tracer.capture().is_empty());
        // The span histograms count whether or not the ring is on.
        assert_eq!(counts(&db.metrics_snapshot()), before.map(|c| c + 1));
    }

    #[test]
    fn tracing_on_captures_the_transaction_span_tree() {
        let (db, rel) = db();
        let tracer = std::sync::Arc::clone(db.stack().obs.tracer());
        tracer.set_enabled(true);
        let t = db.begin();
        db.insert(&t, rel, 1, b"v1").unwrap();
        db.commit(t).unwrap();
        let events = tracer.capture();
        let has = |n: sias_obs::SpanName| events.iter().any(|e| e.name == n);
        for name in [
            sias_obs::SpanName::TxnBegin,
            sias_obs::SpanName::EngineInsert,
            sias_obs::SpanName::TxnCommit,
            sias_obs::SpanName::WalAppend,
        ] {
            assert!(has(name), "missing {} span", name.as_str());
        }
        // Spans carry the transaction id and the books balance.
        assert!(events.iter().any(|e| e.name == sias_obs::SpanName::TxnCommit && e.txn != 0));
        assert_eq!(tracer.open_spans(), 0);
    }

    #[test]
    fn write_conflicts_are_counted() {
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
}
