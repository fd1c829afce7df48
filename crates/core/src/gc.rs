//! Space reclamation — the paper's garbage collection (§6).
//!
//! "The basic concept in MV-DBMSs is to reclaim space on the append
//! storage using a garbage collection (GC) mechanism which: (i) finds a
//! victim page that is chosen to be garbage collected, (ii) re-inserts
//! live (visible) tuple versions and (iii) discards dead (invisible)
//! tuple versions of that page."
//!
//! The vacuum pass below does exactly that, page by page:
//!
//! * a version is **dead** when its transaction aborted (or crashed), or
//!   when a *newer committed* version of the same data item exists with a
//!   creation timestamp below the GC horizon — no current or future
//!   snapshot can ever return it;
//! * a page qualifies as a **victim** when its dead fraction reaches the
//!   vacuum threshold (pages of pure dead space are reclaimed outright);
//! * live versions residing on a victim are **re-inserted** through the
//!   ordinary append path (GC work is appends too — no in-place
//!   rewriting), with chain pointers rebuilt and dead interior versions
//!   spliced out;
//! * reclaimed pages are recycled into the relation's append region, and
//!   data items whose newest committed version is an old tombstone are
//!   erased from the VID map (their ⟨key, VID⟩ index record dropped when
//!   the tombstone recorded the key).
//!
//! One implementation serves every caller: a per-block step that
//! classifies the items on a page, relocates the keep-chains of a victim
//! under non-blocking tuple locks, publishes each relocation with a CAS
//! on the lock-free VID-map entry, and parks the victim until the oldest
//! active snapshot passes its relocation epoch
//! ([`TransactionManager::horizon_passed`](sias_txn::TransactionManager::horizon_passed)).
//! Readers keep walking the *old* chain throughout, and writers are never
//! blocked: a contended item is skipped and retried later. Two callers
//! feed blocks to that step:
//!
//! * [`SiasDb::vacuum_slice`] — an **incremental, concurrent** slice of a
//!   bounded number of candidate pages from a caller-held cursor, safe
//!   while foreground transactions keep running;
//! * [`SiasDb::vacuum_relation`] — the paper's deterministic whole-pass
//!   vacuum: on a quiescent system (no active transactions), one sweep of
//!   every block from block 0. It drains the deferred queue after each
//!   block; with nothing active every epoch has passed, so each victim is
//!   recycled before the next block is examined.
//!
//! GC never acts on what a writer still in flight has written. A chain
//! with such a version is never relocated: the writer may commit before
//! the tuple lock is taken, and the keep-chain, read while it was in
//! flight, would leave its version out. A page holding such a version
//! is left for a later sweep: the version may not be published in the
//! VID map yet, so it would pass for dead space.

use sias_obs::SpanName;
use std::collections::BTreeSet;
use std::time::Instant;

use sias_common::{BlockId, RelId, SiasError, SiasResult, Tid, Vid, Xid};
use sias_txn::TxnStatus;

use crate::chain::collect_reachable;
use crate::engine::{SiasDb, SiasRelation};
use crate::maintenance::DeferredPage;
use crate::version::TupleVersion;

/// Synthetic lock owner used by GC. Tuple locks are keyed by xid; this
/// value is far above anything the allocator hands out, so GC can
/// exclude writers from one item at a time without owning a transaction.
const GC_SLICE_XID: Xid = Xid(u64::MAX - 1);

/// Default dead-space fraction that makes a page a GC victim.
pub const DEFAULT_VACUUM_THRESHOLD: f64 = 0.5;

/// Outcome counters of one vacuum pass.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GcStats {
    /// Pages inspected.
    pub pages_examined: u64,
    /// Pages fully reclaimed and recycled.
    pub pages_reclaimed: u64,
    /// Dead versions discarded.
    pub versions_discarded: u64,
    /// Live versions re-inserted (relocated appends).
    pub versions_relocated: u64,
    /// Data items whose chain aged out entirely (VID map slot cleared).
    pub items_cleared: u64,
    /// Items skipped because a writer held the tuple lock, had a version
    /// in flight, or moved the entrypoint (retried on a later slice).
    pub items_contended: u64,
    /// Victim pages queued for horizon-gated recycling (they count as
    /// `pages_reclaimed` once the deferred recycle actually runs).
    pub pages_deferred: u64,
}

/// Per-item chain classification used inside one vacuum pass.
struct ItemChains {
    vid: Vid,
    /// Entrypoint at classification time.
    entry: Tid,
    /// Reachable prefix (entrypoint down to the anchor, inclusive).
    reach: Vec<(Tid, TupleVersion)>,
    /// Committed subset of `reach` — what relocation re-inserts.
    keep: Vec<(Tid, TupleVersion)>,
    /// Some version of `reach` was in progress at classification.
    in_flight: bool,
}

impl GcStats {
    /// Accumulates another pass's counters.
    pub fn merge(&mut self, other: GcStats) {
        self.pages_examined += other.pages_examined;
        self.pages_reclaimed += other.pages_reclaimed;
        self.versions_discarded += other.versions_discarded;
        self.versions_relocated += other.versions_relocated;
        self.items_cleared += other.items_cleared;
        self.items_contended += other.items_contended;
        self.pages_deferred += other.pages_deferred;
    }
}

/// Tuning of one incremental GC slice.
#[derive(Clone, Copy, Debug)]
pub struct GcSliceOpts {
    /// Upper bound on candidate pages examined per slice.
    pub max_pages: usize,
    /// Dead-space fraction that makes a page a victim.
    pub threshold: f64,
    /// Longest keep-chain a slice will relocate. Relocation copies the
    /// whole committed suffix of a chain, so under a long-stuck snapshot
    /// horizon a hot item's chain can grow to hundreds of versions —
    /// re-copying that repeatedly amplifies write traffic without
    /// reclaiming anything. Longer chains are skipped (counted
    /// contended) until the horizon advances and their keep shrinks.
    pub max_chain: usize,
}

impl Default for GcSliceOpts {
    fn default() -> Self {
        GcSliceOpts { max_pages: 4, threshold: DEFAULT_VACUUM_THRESHOLD, max_chain: 128 }
    }
}

/// Hook points where an interruptible GC slice can be abandoned
/// mid-protocol. The `crashmatrix --gc` gate stops at seeded points to
/// prove that every intermediate relocation state recovers cleanly and
/// stays invisible to readers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GcCrashPoint {
    /// Live versions re-appended through the append path; relocated
    /// entrypoint **not yet published** (VID-map CAS pending).
    AfterRelocationAppend,
    /// Relocated entrypoint published via CAS; victim page **not yet**
    /// queued for recycling.
    AfterCasPublish,
    /// A deferred victim page is about to be physically recycled (its
    /// relocation epoch has passed the snapshot horizon).
    BeforeRecycle,
}

/// Outcome of relocating one item's keep-chain.
enum Reloc {
    /// Entrypoint swung to the relocated chain.
    Published,
    /// Writer contention (or a version in flight at classification):
    /// left untouched.
    Contended,
    /// The interrupt hook fired — abandon the slice immediately.
    Interrupted,
}

impl SiasDb {
    /// Vacuums every relation with the default victim threshold.
    pub fn vacuum_all(&self) -> SiasResult<GcStats> {
        let mut total = GcStats::default();
        for r in self.relation_handles() {
            total.merge(self.vacuum_relation(r.rel)?);
        }
        Ok(total)
    }

    /// Vacuums one relation with the default victim threshold.
    pub fn vacuum_relation(&self, rel: RelId) -> SiasResult<GcStats> {
        self.vacuum_relation_with_threshold(rel, DEFAULT_VACUUM_THRESHOLD)
    }

    /// Vacuums one relation; pages whose dead fraction is at least
    /// `threshold` become victims. Errors unless the system is quiescent.
    pub fn vacuum_relation_with_threshold(
        &self,
        rel: RelId,
        threshold: f64,
    ) -> SiasResult<GcStats> {
        let pause_start = Instant::now();
        let mut span = self.metrics.tracer.span(SpanName::GcVacuum);
        if self.txm.active_count() != 0 {
            return Err(SiasError::Device(
                "vacuum requires a quiescent system (no active transactions)".into(),
            ));
        }
        let r = self.relation_handle(rel)?;
        let opts = GcSliceOpts { max_pages: usize::MAX, threshold, max_chain: usize::MAX };
        let mut stats = GcStats::default();
        // Quiescence means every relocation epoch has passed: each drain
        // recycles everything parked so far, earlier slices' victims
        // first, then each block's right after its step.
        self.drain_deferred(&mut stats, &mut |_| false)?;
        let horizon = self.txm.horizon();
        for block in self.sweep_blocks(&r, &mut 0, opts.max_pages) {
            self.gc_block(&r, block, horizon, &opts, &mut stats, &mut |_| false)?;
            self.drain_deferred(&mut stats, &mut |_| false)?;
        }
        #[cfg(debug_assertions)]
        self.debug_validate_index(rel)?;
        self.record_gc(&stats, pause_start);
        span.set_arg(stats.versions_discarded);
        Ok(stats)
    }

    /// Runs one incremental GC slice over `rel`: recycles deferred
    /// victims whose relocation epoch has passed the snapshot horizon,
    /// then examines up to [`GcSliceOpts::max_pages`] candidate pages
    /// starting at `cursor` (a caller-held sweep position, wrapped
    /// around the relation). Safe to run concurrently with foreground
    /// transactions; contended items are skipped, never blocked on.
    pub fn vacuum_slice(
        &self,
        rel: RelId,
        cursor: &mut BlockId,
        opts: &GcSliceOpts,
    ) -> SiasResult<GcStats> {
        self.gc_slice_inner(rel, cursor, opts, &mut |_| false)
    }

    /// [`SiasDb::vacuum_slice`] with an interrupt hook: the slice is
    /// abandoned at the first [`GcCrashPoint`] for which `interrupt`
    /// returns `true`. Crash-gate harness use.
    #[doc(hidden)]
    pub fn vacuum_slice_interruptible(
        &self,
        rel: RelId,
        cursor: &mut BlockId,
        opts: &GcSliceOpts,
        interrupt: &mut dyn FnMut(GcCrashPoint) -> bool,
    ) -> SiasResult<GcStats> {
        self.gc_slice_inner(rel, cursor, opts, interrupt)
    }

    fn gc_slice_inner(
        &self,
        rel: RelId,
        cursor: &mut BlockId,
        opts: &GcSliceOpts,
        interrupt: &mut dyn FnMut(GcCrashPoint) -> bool,
    ) -> SiasResult<GcStats> {
        let pause_start = Instant::now();
        let mut span = self.metrics.tracer.span(SpanName::GcSlice);
        let r = self.relation_handle(rel)?;
        let mut stats = GcStats::default();
        if self.drain_deferred(&mut stats, interrupt)? {
            let horizon = self.txm.horizon();
            for block in self.sweep_blocks(&r, cursor, opts.max_pages) {
                if !self.gc_block(&r, block, horizon, opts, &mut stats, interrupt)? {
                    break;
                }
            }
        }
        self.record_gc(&stats, pause_start);
        self.metrics.gc_slices.inc();
        span.set_arg(stats.pages_examined);
        Ok(stats)
    }

    /// Books one public GC call, each outcome once: the `core.gc.*`
    /// metrics plus the two only GC carries,
    /// `storage.gc.{pages_deferred,cas_skipped}`.
    fn record_gc(&self, stats: &GcStats, pause_start: Instant) {
        let m = &self.metrics;
        m.gc_runs.inc();
        m.gc_pages_examined.add(stats.pages_examined);
        m.gc_pages_reclaimed.add(stats.pages_reclaimed);
        m.gc_versions_discarded.add(stats.versions_discarded);
        m.gc_versions_relocated.add(stats.versions_relocated);
        m.gc_items_cleared.add(stats.items_cleared);
        m.gc_items_contended.add(stats.items_contended);
        m.gc_pages_deferred.add(stats.pages_deferred);
        m.gc_pause.record_duration(pause_start.elapsed());
    }

    /// The GC step for one block: classifies every data item with a
    /// version on it (clearing fully-dead items as a side effect) and,
    /// when the block is a victim, relocates the keep-chains that still
    /// reach into it and parks it for the horizon-gated recycle. Returns
    /// `false` when `interrupt` abandoned the sweep.
    fn gc_block(
        &self,
        r: &SiasRelation,
        block: BlockId,
        horizon: Xid,
        opts: &GcSliceOpts,
        stats: &mut GcStats,
        interrupt: &mut dyn FnMut(GcCrashPoint) -> bool,
    ) -> SiasResult<bool> {
        stats.pages_examined += 1;
        // Bounded page visit: the pin is released when the closure
        // returns — a slice never holds a pin across a yield.
        let versions: Vec<(u16, Vec<u8>)> = self.stack.pool.with_page(r.rel, block, |p| {
            p.live_slots()
                .map(|s| p.item(s).map(|i| (s, i.to_vec())))
                .collect::<SiasResult<Vec<_>>>()
        })??;
        if versions.is_empty() {
            return Ok(true);
        }
        let mut vids = BTreeSet::new();
        let mut in_flight = false;
        for (_, bytes) in &versions {
            let v = TupleVersion::decode(bytes)?;
            in_flight |= self.txm.clog.status(v.create) == TxnStatus::InProgress;
            vids.insert(v.vid);
        }
        // A writer appends its version before it publishes it in the VID
        // map, so a version still in flight may be reachable from no
        // entrypoint yet and would pass for dead space. Its block waits
        // for a later sweep. The statuses are read before any entry: a
        // writer seen committed here had published before the walks.
        if in_flight {
            return Ok(true);
        }
        let mut items: Vec<ItemChains> = Vec::new();
        for vid in vids {
            if let Some(item) = self.classify_item(r, vid, horizon, stats)? {
                items.push(item);
            }
        }
        // A version is *reachable* when a chain walk from the entrypoint
        // can still pass through it (anything down to the anchor,
        // aborted interior versions included).
        let reach_tids: BTreeSet<Tid> =
            items.iter().flat_map(|i| i.reach.iter().map(|(t, _)| *t)).collect();
        let live_here = versions
            .iter()
            .filter(|(slot, _)| reach_tids.contains(&Tid::new(block, *slot)))
            .count();
        let dead_here = versions.len() - live_here;
        if live_here > 0 && (dead_here as f64) / (versions.len() as f64) < opts.threshold {
            return Ok(true); // not a victim yet
        }
        // Victim: re-insert the keep-chains of the items that still reach
        // into this block (pages of pure dead space have none).
        let mut ok = true;
        for item in items.iter().filter(|i| i.reach.iter().any(|(t, _)| t.block == block)) {
            if item.keep.len() > opts.max_chain {
                stats.items_contended += 1;
                ok = false;
                continue;
            }
            match self.relocate_chain(r, item, stats, interrupt)? {
                Reloc::Published => {}
                Reloc::Contended => ok = false,
                Reloc::Interrupted => return Ok(false),
            }
        }
        if ok {
            // Every reachable version now lives elsewhere — but a reader
            // that resolved the old entrypoint before the CAS may still
            // be walking this page. Park it until the oldest active
            // snapshot passes the epoch.
            let epoch = self.txm.relocation_epoch();
            self.maint.deferred.lock().push(DeferredPage { rel: r.rel, block, epoch });
            stats.pages_deferred += 1;
            stats.versions_discarded += dead_here as u64;
        }
        Ok(true)
    }

    /// Computes the reachable prefix and keep-chain of a data item. The
    /// *reach* is every version a chain walk can still pass through
    /// (entrypoint down to the anchor); the *keep* is its committed
    /// subset, which relocation re-inserts (splicing out aborted interior
    /// versions). Items that turn out fully dead (aged tombstone,
    /// aborted-only chain) are erased here and `None` is returned.
    ///
    /// Each version's CLOG status is read once, so `keep` and `in_flight`
    /// agree even when a writer commits mid-classification. The erasure
    /// takes the tuple lock non-blocking (skipping the item on
    /// contention) and clears the VID-map slot with a CAS, so a racing
    /// entrypoint move loses nothing.
    fn classify_item(
        &self,
        r: &SiasRelation,
        vid: Vid,
        horizon: Xid,
        stats: &mut GcStats,
    ) -> SiasResult<Option<ItemChains>> {
        let Some(entry) = r.vidmap.get(vid) else {
            return Ok(None); // already cleared: residue is orphaned/dead
        };
        let reach = collect_reachable(&self.stack.pool, r.rel, entry, horizon, &self.txm.clog)?;
        let status: Vec<TxnStatus> =
            reach.iter().map(|(_, v)| self.txm.clog.status(v.create)).collect();
        let keep: Vec<(Tid, TupleVersion)> = reach
            .iter()
            .zip(&status)
            .filter(|(_, s)| **s == TxnStatus::Committed)
            .map(|(tv, _)| tv.clone())
            .collect();
        let in_flight = status.contains(&TxnStatus::InProgress);
        let anchored = reach
            .last()
            .zip(status.last())
            .is_some_and(|((_, v), s)| *s == TxnStatus::Committed && v.create < horizon);
        // Aged tombstone: the only version any snapshot can see says
        // "deleted" — the whole item is reclaimable. Aborted-only chains
        // (`keep` empty, nothing in flight) never existed at all.
        let erasable =
            !in_flight && ((anchored && keep.len() == 1 && keep[0].1.tombstone) || keep.is_empty());
        if erasable {
            if !self.txm.locks.try_lock(r.rel, vid, GC_SLICE_XID) {
                stats.items_contended += 1;
                return Ok(None);
            }
            let cleared = r.vidmap.compare_and_remove(vid, entry);
            self.txm.locks.release_all(GC_SLICE_XID);
            if !cleared {
                stats.items_contended += 1;
                return Ok(None);
            }
            self.drop_index_records(r, vid, keep.first().map(|(_, v)| v))?;
            stats.items_cleared += 1;
            return Ok(None);
        }
        if keep.is_empty() {
            // Only an uncommitted in-flight chain: leave it alone, but
            // keep its versions accounted as reachable so the page is
            // not treated as dead space.
            stats.items_contended += 1;
        }
        Ok(Some(ItemChains { vid, entry, reach, keep, in_flight }))
    }

    /// Drops every ⟨key, VID⟩ record of an item being erased. Tombstones
    /// record their key in the payload (the fast path); chains without
    /// one — `delete_item` with no key, or aborted-only inserts — fall
    /// back to an index sweep, so clearing a VID-map slot can never
    /// strand a dangling index record (the bug the post-GC
    /// [`SiasDb::debug_validate_index`] check guards against).
    fn drop_index_records(
        &self,
        r: &SiasRelation,
        vid: Vid,
        newest: Option<&TupleVersion>,
    ) -> SiasResult<()> {
        if let Some(v) = newest {
            if v.tombstone && v.payload.len() == 8 {
                let key = u64::from_le_bytes(v.payload.as_ref().try_into().unwrap());
                let _ = r.index.remove(key, vid.0)?;
                return Ok(());
            }
        }
        for (key, val) in r.index.range(0, u64::MAX)? {
            if val == vid.0 {
                let _ = r.index.remove(key, val)?;
            }
        }
        Ok(())
    }

    /// Re-inserts a keep-chain (oldest first), rebuilding predecessor
    /// pointers, and swings the VID map to the relocated entrypoint.
    ///
    /// A chain that had a version in flight at classification is left
    /// alone (its writer may have committed since, and `keep` would drop
    /// that version). Otherwise the tuple lock is taken non-blocking, so
    /// a writer mid-`modify_item` is never raced: contended items are
    /// skipped and retried on a later slice. Readers keep walking the
    /// old chain throughout — versions are immutable, and the old page
    /// is only recycled once the relocation epoch passes the horizon.
    fn relocate_chain(
        &self,
        r: &SiasRelation,
        item: &ItemChains,
        stats: &mut GcStats,
        interrupt: &mut dyn FnMut(GcCrashPoint) -> bool,
    ) -> SiasResult<Reloc> {
        if item.keep.is_empty() {
            return Ok(Reloc::Contended); // in-flight-only chain, counted when classified
        }
        if item.in_flight || !self.txm.locks.try_lock(r.rel, item.vid, GC_SLICE_XID) {
            stats.items_contended += 1;
            return Ok(Reloc::Contended);
        }
        let outcome = self.relocate_locked(r, item, stats, interrupt);
        self.txm.locks.release_all(GC_SLICE_XID);
        if matches!(outcome, Ok(Reloc::Published)) && interrupt(GcCrashPoint::AfterCasPublish) {
            return Ok(Reloc::Interrupted);
        }
        outcome
    }

    /// [`SiasDb::relocate_chain`] under the tuple lock.
    fn relocate_locked(
        &self,
        r: &SiasRelation,
        item: &ItemChains,
        stats: &mut GcStats,
        interrupt: &mut dyn FnMut(GcCrashPoint) -> bool,
    ) -> SiasResult<Reloc> {
        let ItemChains { vid, entry, keep, .. } = item;
        // Re-check under the lock: a writer may have published a new
        // entrypoint between classification and now.
        if r.vidmap.get(*vid) != Some(*entry) {
            stats.items_contended += 1;
            return Ok(Reloc::Contended);
        }
        let mut new_pred: Option<(Tid, Xid)> = None;
        for (_, v) in keep.iter().rev() {
            let rebuilt = TupleVersion {
                create: v.create,
                vid: *vid,
                pred: new_pred.map(|(t, _)| t),
                pred_create: new_pred.map(|(_, c)| c).unwrap_or(Xid::INVALID),
                tombstone: v.tombstone,
                payload: v.payload.clone(),
            };
            let tid = r.append.append(&rebuilt.encode())?;
            stats.versions_relocated += 1;
            new_pred = Some((tid, v.create));
        }
        if interrupt(GcCrashPoint::AfterRelocationAppend) {
            return Ok(Reloc::Interrupted);
        }
        let (new_entry, _) = new_pred.expect("non-empty keep chain");
        if !r.vidmap.compare_and_set(*vid, Some(*entry), new_entry) {
            stats.items_contended += 1;
            return Ok(Reloc::Contended);
        }
        Ok(Reloc::Published)
    }

    /// Recycles every deferred victim page whose relocation epoch has
    /// passed the snapshot horizon. Returns `false` when the interrupt
    /// hook abandoned the drain (remaining pages stay parked).
    pub(crate) fn drain_deferred(
        &self,
        stats: &mut GcStats,
        interrupt: &mut dyn FnMut(GcCrashPoint) -> bool,
    ) -> SiasResult<bool> {
        // One horizon read for the whole queue; a page is ready once
        // `horizon_passed(epoch)`, i.e. `epoch <= horizon`.
        let horizon = self.txm.horizon();
        let ready: Vec<DeferredPage> = {
            let mut q = self.maint.deferred.lock();
            let (ready, parked) = q.drain(..).partition(|p| p.epoch <= horizon);
            *q = parked;
            ready
        };
        for (i, p) in ready.iter().enumerate() {
            if interrupt(GcCrashPoint::BeforeRecycle) {
                self.maint.deferred.lock().extend(ready[i..].iter().copied());
                return Ok(false);
            }
            if let Ok(r) = self.relation_handle(p.rel) {
                r.append.recycle(p.block);
                stats.pages_reclaimed += 1;
            }
        }
        Ok(true)
    }

    /// Number of victim pages parked for horizon-gated recycling.
    pub fn gc_backlog(&self) -> usize {
        self.maint.deferred.lock().len()
    }

    /// Post-GC index-consistency check: every ⟨key, VID⟩ record in the
    /// B+-tree must resolve to an occupied VID-map slot. O(index) — run
    /// it from tests or quiescent passes, not hot paths.
    pub fn debug_validate_index(&self, rel: RelId) -> SiasResult<()> {
        let r = self.relation_handle(rel)?;
        for (key, val) in r.index.range(0, u64::MAX)? {
            if r.vidmap.get(Vid(val)).is_none() {
                return Err(SiasError::Device(format!(
                    "dangling index record ⟨{key}, v{val}⟩: VID-map slot cleared but record kept"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::append::FlushPolicy;
    use sias_storage::StorageConfig;
    use sias_txn::MvccEngine;

    fn db() -> (SiasDb, RelId) {
        let db = SiasDb::open_with_policy(StorageConfig::in_memory(), FlushPolicy::T2);
        let rel = db.create_relation("t");
        (db, rel)
    }

    #[test]
    fn vacuum_requires_quiescence() {
        let (db, _rel) = db();
        let t = db.begin();
        assert!(db.vacuum_all().is_err());
        db.commit(t).unwrap();
        assert!(db.vacuum_all().is_ok());
    }

    #[test]
    fn updates_then_vacuum_reclaims_old_versions() {
        let (db, rel) = db();
        let t = db.begin();
        let vid = db.insert_item(&t, rel, &[0u8; 512]).unwrap();
        db.commit(t).unwrap();
        // 200 updates: chain of 201 versions over many pages.
        for i in 1..=200u8 {
            let t = db.begin();
            db.update_item(&t, rel, vid, &[i; 512]).unwrap();
            db.commit(t).unwrap();
        }
        let s = db.vacuum_relation(rel).unwrap();
        assert!(s.pages_reclaimed > 5, "stats: {s:?}");
        assert!(s.versions_discarded >= 190, "stats: {s:?}");
        // The item survives with its newest value.
        let t = db.begin();
        assert_eq!(db.read_item(&t, rel, vid).unwrap().unwrap().as_ref(), &[200u8; 512]);
        db.commit(t).unwrap();
        // The reachable chain has been truncated to the visible suffix.
        let r = db.relation_handle(rel).unwrap();
        let entry = r.vidmap.get(vid).unwrap();
        let reach =
            collect_reachable(&db.stack.pool, rel, entry, db.txm.horizon(), &db.txm.clog).unwrap();
        assert!(reach.len() <= 2, "reachable chain still {} long", reach.len());
    }

    #[test]
    fn vacuum_preserves_scan_results() {
        let (db, rel) = db();
        let t = db.begin();
        for k in 0..50u64 {
            db.insert(&t, rel, k, format!("v0-{k}").as_bytes()).unwrap();
        }
        db.commit(t).unwrap();
        for round in 1..=5u32 {
            let t = db.begin();
            for k in (0..50u64).step_by(3) {
                db.update(&t, rel, k, format!("v{round}-{k}").as_bytes()).unwrap();
            }
            db.commit(t).unwrap();
        }
        let t = db.begin();
        let before = db.scan_all(&t, rel).unwrap();
        db.commit(t).unwrap();
        db.vacuum_relation(rel).unwrap();
        let t = db.begin();
        let after = db.scan_all(&t, rel).unwrap();
        db.commit(t).unwrap();
        assert_eq!(before, after, "vacuum must not change visible state");
        // And both scan paths agree post-vacuum.
        let t = db.begin();
        let vm = db.scan(&t, rel, 1).unwrap();
        let trad = db.scan_traditional(&t, rel).unwrap();
        db.commit(t).unwrap();
        assert_eq!(vm, trad);
    }

    #[test]
    fn old_tombstones_clear_items_and_index_records() {
        let (db, rel) = db();
        let t = db.begin();
        for k in 0..10u64 {
            // Payload large enough that deletes land on sealed pages.
            db.insert(&t, rel, k, &[7u8; 1500]).unwrap();
        }
        db.commit(t).unwrap();
        let t = db.begin();
        for k in 0..5u64 {
            db.delete(&t, rel, k).unwrap();
        }
        db.commit(t).unwrap();
        let s = db.vacuum_relation(rel).unwrap();
        assert_eq!(s.items_cleared, 5, "stats: {s:?}");
        let r = db.relation_handle(rel).unwrap();
        assert_eq!(r.vidmap.occupied(), 5);
        // Index records of the erased items are gone too.
        for k in 0..5u64 {
            assert_eq!(r.index.lookup(k).unwrap(), Vec::<u64>::new(), "key {k}");
        }
        let t = db.begin();
        assert_eq!(db.scan_all(&t, rel).unwrap().len(), 5);
        db.commit(t).unwrap();
    }

    #[test]
    fn aborted_only_chains_are_erased() {
        let (db, rel) = db();
        let t = db.begin();
        db.insert(&t, rel, 1, &[1u8; 3000]).unwrap();
        db.abort(t);
        // Seal the open page so vacuum can look at it.
        let t = db.begin();
        for k in 10..20u64 {
            db.insert(&t, rel, k, &[2u8; 3000]).unwrap();
        }
        db.commit(t).unwrap();
        let s = db.vacuum_relation(rel).unwrap();
        assert!(s.items_cleared >= 1, "stats: {s:?}");
        let t = db.begin();
        assert_eq!(db.get(&t, rel, 1).unwrap(), None);
        db.commit(t).unwrap();
    }

    #[test]
    fn recycled_pages_are_reused_by_new_appends() {
        let (db, rel) = db();
        let t = db.begin();
        let vid = db.insert_item(&t, rel, &[1u8; 2000]).unwrap();
        db.commit(t).unwrap();
        for i in 0..20u8 {
            let t = db.begin();
            db.update_item(&t, rel, vid, &[i; 2000]).unwrap();
            db.commit(t).unwrap();
        }
        let blocks_before = db.stack.space.relation_blocks(rel);
        db.vacuum_relation(rel).unwrap();
        let r = db.relation_handle(rel).unwrap();
        assert!(r.append.free_blocks() > 0);
        // New traffic reuses reclaimed blocks instead of growing the file.
        for i in 0..20u8 {
            let t = db.begin();
            db.update_item(&t, rel, vid, &[i; 2000]).unwrap();
            db.commit(t).unwrap();
        }
        let blocks_after = db.stack.space.relation_blocks(rel);
        assert!(
            blocks_after <= blocks_before + 2,
            "relation should not regrow: {blocks_before} -> {blocks_after}"
        );
    }

    #[test]
    fn vacuum_leaves_mostly_live_pages_alone() {
        let (db, rel) = db();
        // Insert-only workload: everything is live; vacuum must be a no-op.
        let t = db.begin();
        for k in 0..200u64 {
            db.insert(&t, rel, k, &[3u8; 500]).unwrap();
        }
        db.commit(t).unwrap();
        let s = db.vacuum_relation(rel).unwrap();
        assert_eq!(s.pages_reclaimed, 0, "stats: {s:?}");
        assert_eq!(s.versions_relocated, 0);
        assert_eq!(s.versions_discarded, 0);
    }

    #[test]
    fn vacuum_trims_reclaimed_pages_on_flash() {
        use sias_storage::{FlashConfig, Media};
        let storage = sias_storage::StorageConfig {
            media: Media::SsdRaid { members: 1, flash: FlashConfig::default() },
            pool_frames: 256,
            pool_shards: 0,
            capacity_pages: 1 << 14,
            faults: sias_storage::FaultPlan::none(),
            wal: sias_storage::WalConfig::default(),
            trace_capacity: sias_storage::DEFAULT_TRACE_CAPACITY,
            io_queue_depth: 0,
            maint_pages_per_sec: sias_storage::DEFAULT_MAINT_PAGES_PER_SEC,
            space: sias_storage::SpaceConfig::default(),
        };
        let db = SiasDb::open_with_policy(storage, FlushPolicy::T2);
        let rel = db.create_relation("t");
        let t = db.begin();
        let vid = db.insert_item(&t, rel, &[0u8; 1024]).unwrap();
        db.commit(t).unwrap();
        for i in 0..100u8 {
            let t = db.begin();
            db.update_item(&t, rel, vid, &[i; 1024]).unwrap();
            db.commit(t).unwrap();
        }
        let s = db.vacuum_relation(rel).unwrap();
        assert!(s.pages_reclaimed > 0);
        let dev = db.stack().data.stats();
        assert!(
            dev.trims >= s.pages_reclaimed,
            "every reclaimed page must be TRIMmed: {} trims, {} reclaimed",
            dev.trims,
            s.pages_reclaimed
        );
    }

    #[test]
    fn vacuum_is_idempotent() {
        let (db, rel) = db();
        let t = db.begin();
        for k in 0..20u64 {
            db.insert(&t, rel, k, &[4u8; 700]).unwrap();
        }
        db.commit(t).unwrap();
        for _ in 0..3 {
            let t = db.begin();
            for k in 0..20u64 {
                db.update(&t, rel, k, &[5u8; 700]).unwrap();
            }
            db.commit(t).unwrap();
        }
        db.vacuum_relation(rel).unwrap();
        let second = db.vacuum_relation(rel).unwrap();
        assert_eq!(second.versions_discarded, 0, "second pass finds nothing: {second:?}");
        assert_eq!(second.versions_relocated, 0);
        assert_eq!(second.pages_reclaimed, 0);
    }

    /// Regression for the index-record leak: a *keyless* tombstone
    /// (`delete_item` with `key: None`) carries no key in its payload,
    /// so the old `items_cleared` path stranded the ⟨key, VID⟩ record
    /// when it dropped the VID-map slot. The sweep fallback in
    /// `drop_index_records` must find and drop it anyway.
    #[test]
    fn keyless_tombstones_leave_no_dangling_index_records() {
        let (db, rel) = db();
        let t = db.begin();
        for k in 0..10u64 {
            db.insert(&t, rel, k, &[7u8; 1500]).unwrap();
        }
        db.commit(t).unwrap();
        let r = db.relation_handle(rel).unwrap();
        let doomed: Vec<Vid> = (0..5u64).map(|k| Vid(r.index.lookup(k).unwrap()[0])).collect();
        let t = db.begin();
        for vid in &doomed {
            // Key deliberately withheld: the tombstone payload is empty.
            db.delete_item(&t, rel, *vid, None).unwrap();
        }
        db.commit(t).unwrap();
        let s = db.vacuum_relation(rel).unwrap();
        assert_eq!(s.items_cleared, 5, "stats: {s:?}");
        db.debug_validate_index(rel).unwrap();
        for k in 0..5u64 {
            assert_eq!(r.index.lookup(k).unwrap(), Vec::<u64>::new(), "key {k} leaked");
        }
        let t = db.begin();
        assert_eq!(db.scan_all(&t, rel).unwrap().len(), 5);
        db.commit(t).unwrap();
    }

    /// Aborted-only chains erased by GC must also shed their index
    /// records (the insert indexed the key before the abort).
    #[test]
    fn aborted_chains_shed_their_index_records() {
        let (db, rel) = db();
        let t = db.begin();
        db.insert(&t, rel, 1, &[1u8; 3000]).unwrap();
        db.abort(t);
        let t = db.begin();
        for k in 10..20u64 {
            db.insert(&t, rel, k, &[2u8; 3000]).unwrap();
        }
        db.commit(t).unwrap();
        let s = db.vacuum_relation(rel).unwrap();
        assert!(s.items_cleared >= 1, "stats: {s:?}");
        db.debug_validate_index(rel).unwrap();
        let r = db.relation_handle(rel).unwrap();
        assert_eq!(r.index.lookup(1).unwrap(), Vec::<u64>::new(), "aborted key leaked");
    }

    /// Incremental slices must defer the physical recycle while any
    /// snapshot predates the relocation, and drain it afterwards.
    #[test]
    fn slice_defers_recycle_until_horizon_passes() {
        let (db, rel) = db();
        let t = db.begin();
        let vid = db.insert_item(&t, rel, &[0u8; 512]).unwrap();
        db.commit(t).unwrap();
        for i in 0..120u8 {
            let t = db.begin();
            db.update_item(&t, rel, vid, &[i; 512]).unwrap();
            db.commit(t).unwrap();
        }
        // A reader older than every relocation epoch pins the pages.
        let reader = db.begin();
        let mut cursor = 0;
        let mut stats = GcStats::default();
        let opts = GcSliceOpts::default();
        for _ in 0..64 {
            stats.merge(db.vacuum_slice(rel, &mut cursor, &opts).unwrap());
        }
        assert!(stats.pages_deferred > 0, "victims must be found: {stats:?}");
        assert_eq!(stats.pages_reclaimed, 0, "recycle must wait for the reader: {stats:?}");
        assert!(db.gc_backlog() > 0);
        // The reader still sees the newest value through the new chain.
        assert_eq!(db.read_item(&reader, rel, vid).unwrap().unwrap().as_ref(), &[119u8; 512]);
        db.commit(reader).unwrap();
        // With the horizon past the epochs, the next slice drains.
        let drained = db.vacuum_slice(rel, &mut cursor, &opts).unwrap();
        assert!(drained.pages_reclaimed > 0, "backlog must drain: {drained:?}");
        assert_eq!(db.gc_backlog(), 0);
        let t = db.begin();
        assert_eq!(db.read_item(&t, rel, vid).unwrap().unwrap().as_ref(), &[119u8; 512]);
        db.commit(t).unwrap();
    }

    /// A chain with an in-progress writer is skipped (counted
    /// contended), never relocated or erased from under the writer.
    #[test]
    fn slice_skips_in_flight_chains() {
        let (db, rel) = db();
        let t = db.begin();
        for k in 0..8u64 {
            db.insert(&t, rel, k, &[3u8; 1500]).unwrap();
        }
        db.commit(t).unwrap();
        for round in 0..6u8 {
            let t = db.begin();
            for k in 0..8u64 {
                db.update(&t, rel, k, &[round; 1500]).unwrap();
            }
            db.commit(t).unwrap();
        }
        // An uncommitted writer holds key 0's tuple lock with an
        // in-progress version at the head of its chain.
        let writer = db.begin();
        db.update(&writer, rel, 0, &[9u8; 1500]).unwrap();
        let mut cursor = 0;
        let mut stats = GcStats::default();
        for _ in 0..64 {
            stats.merge(db.vacuum_slice(rel, &mut cursor, &GcSliceOpts::default()).unwrap());
        }
        assert!(stats.items_contended > 0, "in-flight chain must be skipped: {stats:?}");
        db.commit(writer).unwrap();
        let t = db.begin();
        assert_eq!(db.get(&t, rel, 0).unwrap().unwrap().as_ref(), &[9u8; 1500]);
        db.commit(t).unwrap();
        db.debug_validate_index(rel).unwrap();
    }

    /// A writer in flight when its chain is classified can commit before
    /// the relocation takes the tuple lock. The keep-chain, read while
    /// it was in flight, leaves its version out, so publishing it would
    /// lose the committed update.
    #[test]
    fn chain_classified_with_a_writer_in_flight_is_not_relocated() {
        let (db, rel) = db();
        let t = db.begin();
        db.insert(&t, rel, 1, &[1u8; 64]).unwrap();
        db.commit(t).unwrap();
        for v in 2..=3u8 {
            let t = db.begin();
            db.update(&t, rel, 1, &[v; 64]).unwrap();
            db.commit(t).unwrap();
        }
        let writer = db.begin();
        db.update(&writer, rel, 1, &[9u8; 64]).unwrap();
        let r = db.relation_handle(rel).unwrap();
        let vid = Vid(r.index.lookup(1).unwrap()[0]);
        let mut stats = GcStats::default();
        let item = db.classify_item(&r, vid, db.txm.horizon(), &mut stats).unwrap().unwrap();
        db.commit(writer).unwrap();
        let out = db.relocate_chain(&r, &item, &mut stats, &mut |_| false).unwrap();
        assert!(matches!(out, Reloc::Contended), "relocated a chain classified in flight");
        let t = db.begin();
        assert_eq!(db.get(&t, rel, 1).unwrap().unwrap().as_ref(), &[9u8; 64]);
        db.commit(t).unwrap();
    }

    /// A writer appends its version before it swings the VID map, so a
    /// slice can read the page in between. The version is then reachable
    /// from no entrypoint, yet must not count as dead space: its block
    /// would be recycled under the entry the writer is about to publish.
    #[test]
    fn slice_never_parks_a_block_holding_an_unpublished_version() {
        let (db, rel) = db();
        let t = db.begin();
        db.insert(&t, rel, 1, &[1u8; 500]).unwrap();
        db.insert(&t, rel, 2, &[2u8; 500]).unwrap();
        db.commit(t).unwrap();
        let r = db.relation_handle(rel).unwrap();
        r.append.flush_open().unwrap(); // key 1's entry stays on a sealed page
        for v in 3..6u8 {
            let t = db.begin();
            db.update(&t, rel, 2, &[v; 500]).unwrap();
            db.commit(t).unwrap();
        }
        // The first half of `modify_item`: lock and append, not publish.
        let vid = Vid(r.index.lookup(1).unwrap()[0]);
        let entry = r.vidmap.get(vid).unwrap();
        let pred_create = crate::chain::fetch_version(&db.stack.pool, rel, entry).unwrap().create;
        let writer = db.begin();
        assert!(db.txm.locks.try_lock(rel, vid, writer.xid));
        let image = TupleVersion::successor(writer.xid, vid, entry, pred_create, &[9u8; 500][..]);
        let new_tid = r.append.append(&image.encode()).unwrap();
        r.append.flush_open().unwrap(); // a page of dead key-2 versions
        let mut cursor = 0;
        let opts = GcSliceOpts { max_pages: 64, ..GcSliceOpts::default() };
        db.vacuum_slice(rel, &mut cursor, &opts).unwrap();
        // The second half: publish, commit, and let the horizon pass.
        assert!(r.vidmap.compare_and_set(vid, Some(entry), new_tid));
        db.commit(writer).unwrap();
        for _ in 0..4 {
            db.vacuum_slice(rel, &mut cursor, &opts).unwrap();
        }
        let t = db.begin();
        assert_eq!(db.get(&t, rel, 1).unwrap().unwrap().as_ref(), &[9u8; 500]);
        db.commit(t).unwrap();
    }
}
