//! Transaction lifecycle: begin / commit / abort.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};
use sias_common::{RelId, SiasError, SiasResult, Xid};
use sias_obs::{Counter, Gauge, Histogram, Registry};

use crate::clog::Clog;
use crate::locks::LockTable;
use crate::snapshot::Snapshot;
use crate::ssi::{SsiState, SsiVerdict};

/// A live transaction handle: xid + snapshot.
///
/// Not `Clone` on purpose: exactly one owner may commit or abort it.
#[derive(Debug)]
pub struct Txn {
    /// Transaction id (doubles as the SI timestamp).
    pub xid: Xid,
    /// The snapshot taken at begin.
    pub snapshot: Snapshot,
    /// Optional wall-clock deadline. Engines thread it into every
    /// blocking point the transaction can reach — lock waits, group-
    /// commit follower parks, batched chain scans — so an overloaded
    /// system sheds the work instead of queueing it: past the deadline
    /// those waits abort with [`SiasError::DeadlineExceeded`].
    pub deadline: Option<Instant>,
}

impl Txn {
    /// True once the deadline (if any) has passed.
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// `Err(DeadlineExceeded)` once the deadline has passed (engines
    /// sprinkle this at batched-scan boundaries).
    pub fn check_deadline(&self) -> SiasResult<()> {
        if self.deadline_expired() {
            return Err(SiasError::DeadlineExceeded { xid: self.xid });
        }
        Ok(())
    }
}

/// Observer invoked right after a transaction commits, with the xid and
/// its commit sequence number (1-based, dense, allocated in commit
/// order). Crash-test harnesses use this as the acknowledgement hook:
/// the callback fires only for commits the engine actually acknowledged.
pub type CommitHook = Box<dyn Fn(Xid, u64) + Send + Sync>;

/// Shared transaction manager: xid allocation, active set, commit log and
/// the tuple lock table.
pub struct TransactionManager {
    next_xid: AtomicU64,
    /// Active xid → snapshot xmin (oldest xid that snapshot might still
    /// need to see), for the GC horizon.
    active: Mutex<BTreeMap<Xid, Xid>>,
    /// Commit log, consulted by visibility checks.
    pub clog: Clog,
    /// Tuple lock table (first-updater-wins support).
    pub locks: LockTable,
    /// Optional serializable-SI extension state (off by default).
    pub ssi: SsiState,
    /// Dense commit sequence (see [`CommitHook`]).
    commit_seq: AtomicU64,
    /// Commit-acknowledgement observer, if installed.
    commit_hook: RwLock<Option<CommitHook>>,
    /// `txn.manager.*` registry handles.
    commits: Arc<Counter>,
    aborts: Arc<Counter>,
    aborts_serialization: Arc<Counter>,
    active_gauge: Arc<Gauge>,
    begin_hist: Arc<Histogram>,
    /// `txn.snapshot.memo_*`: per-snapshot visibility-memo hit/miss
    /// totals, folded in when a transaction ends.
    memo_hits: Arc<Counter>,
    memo_misses: Arc<Counter>,
}

impl Default for TransactionManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TransactionManager {
    /// Creates a manager with xids starting at 1. Outcome counters live
    /// in a private metrics registry; use
    /// [`TransactionManager::with_registry`] to share one.
    pub fn new() -> Self {
        Self::with_registry(&Registry::new())
    }

    /// Like [`TransactionManager::new`], but registers the
    /// `txn.manager.*` metrics in `obs`.
    pub fn with_registry(obs: &Registry) -> Self {
        TransactionManager {
            next_xid: AtomicU64::new(1),
            active: Mutex::new(BTreeMap::new()),
            clog: Clog::new(),
            locks: LockTable::new(),
            ssi: SsiState::default(),
            commit_seq: AtomicU64::new(0),
            commit_hook: RwLock::new(None),
            commits: obs.counter("txn.manager.commits"),
            aborts: obs.counter("txn.manager.aborts"),
            aborts_serialization: obs.counter("txn.manager.aborts_serialization"),
            active_gauge: obs.gauge("txn.manager.active"),
            begin_hist: obs.histogram("txn.manager.begin"),
            memo_hits: obs.counter("txn.snapshot.memo_hits"),
            memo_misses: obs.counter("txn.snapshot.memo_misses"),
        }
    }

    /// Folds a finished transaction's visibility-memo counts into the
    /// registry (the memo itself dies with the snapshot).
    fn fold_memo(&self, txn: &Txn) {
        let memo = txn.snapshot.memo();
        self.memo_hits.add(memo.hits());
        self.memo_misses.add(memo.misses());
    }

    /// Shared-handle constructor.
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Begins a transaction: allocates an xid and snapshots the active
    /// set (the `tx_concurrent` structure of Algorithm 1).
    pub fn begin(&self) -> Txn {
        self.begin_with_deadline(None)
    }

    /// [`TransactionManager::begin`] with a wall-clock deadline attached:
    /// every blocking point the engine threads the handle through (lock
    /// waits, commit-force parks, batched scans) gives up with
    /// [`SiasError::DeadlineExceeded`] once it passes.
    pub fn begin_with_deadline(&self, deadline: Option<Instant>) -> Txn {
        let start = Instant::now();
        let mut active = self.active.lock();
        let xid = Xid(self.next_xid.fetch_add(1, Ordering::Relaxed));
        let concurrent: Vec<Xid> = active.keys().copied().collect();
        let xmin = concurrent.first().copied().unwrap_or(xid);
        active.insert(xid, xmin);
        drop(active);
        self.active_gauge.add(1);
        self.begin_hist.record_duration(start.elapsed());
        Txn { xid, snapshot: Snapshot::new(xid, concurrent), deadline }
    }

    /// Upgrades the manager (and every engine sharing it) to
    /// serializable snapshot isolation.
    pub fn set_serializable(&self) {
        self.ssi.enable();
    }

    /// Commits: marks the clog, leaves the active set, releases locks.
    /// Under serializable mode, a dangerous-structure pivot aborts here
    /// with [`SiasError::SerializationFailure`] instead.
    pub fn commit(&self, txn: Txn) -> SiasResult<()> {
        if self.ssi.is_enabled() && self.ssi.can_commit(txn.xid) == SsiVerdict::MustAbort {
            let xid = txn.xid;
            self.aborts_serialization.inc();
            self.abort(txn);
            return Err(SiasError::SerializationFailure(xid));
        }
        self.fold_memo(&txn);
        let seq;
        {
            let mut active = self.active.lock();
            if active.remove(&txn.xid).is_none() {
                return Err(SiasError::TxnNotActive(txn.xid));
            }
            self.clog.commit(txn.xid);
            // Sequence allocated under the active lock: seq order is
            // exactly clog commit order.
            seq = self.commit_seq.fetch_add(1, Ordering::Relaxed) + 1;
        }
        self.active_gauge.sub(1);
        self.locks.release_all(txn.xid);
        self.commits.inc();
        if let Some(hook) = self.commit_hook.read().as_ref() {
            hook(txn.xid, seq);
        }
        if self.ssi.is_enabled() {
            self.ssi.collect_below(self.horizon());
        }
        Ok(())
    }

    /// Counts a serialization-failure abort decided outside [`commit`] —
    /// engines call this when a read- or write-time SSI verdict forces
    /// the abort (commit-time pivots are counted by `commit` itself).
    ///
    /// [`commit`]: TransactionManager::commit
    pub fn record_serialization_abort(&self) {
        self.aborts_serialization.inc();
    }

    /// The SSI read hook both engines share (a no-op unless serializable
    /// mode is on). It publishes the SIREAD mark on `key` *before*
    /// `skipped` walks for the creators of newer versions the snapshot
    /// skipped, then flags those read-time rw-antidependencies. The write
    /// hook checks marks only after its version is reachable, so of a read
    /// and a write that interleave, either the writer sees the mark or the
    /// walk sees the version. A rejected read is counted and fails with
    /// [`SiasError::SerializationFailure`].
    pub fn ssi_read(
        &self,
        txn: &Txn,
        rel: RelId,
        key: u64,
        skipped: impl FnOnce() -> SiasResult<Vec<Xid>>,
    ) -> SiasResult<()> {
        if !self.ssi.is_enabled() {
            return Ok(());
        }
        let fresh = self.ssi.mark(txn.xid, rel, key);
        let newer = skipped()?;
        if self.ssi.check_read(txn.xid, rel, key, &newer, fresh) == SsiVerdict::MustAbort {
            self.record_serialization_abort();
            return Err(SiasError::SerializationFailure(txn.xid));
        }
        Ok(())
    }

    /// The SSI write hook both engines share (a no-op unless serializable
    /// mode is on). Engines call it once the new version of `key` is
    /// reachable by a reader's walk; it flags rw-antidependencies from
    /// concurrent readers of `key` and fails with
    /// [`SiasError::SerializationFailure`] when the writer becomes a pivot
    /// (or the edge would turn an already-committed reader into one).
    pub fn ssi_write(&self, txn: &Txn, rel: RelId, key: u64) -> SiasResult<()> {
        if !self.ssi.is_enabled() {
            return Ok(());
        }
        let concurrent = |r| self.is_active(r) || txn.snapshot.is_concurrent(r) || r > txn.xid;
        if self.ssi.on_write(txn.xid, rel, key, concurrent) == SsiVerdict::MustAbort {
            self.record_serialization_abort();
            return Err(SiasError::SerializationFailure(txn.xid));
        }
        Ok(())
    }

    /// Total serialization-failure aborts recorded so far.
    pub fn serialization_aborts(&self) -> u64 {
        self.aborts_serialization.get()
    }

    /// Installs the commit-acknowledgement hook (replacing any previous
    /// one); see [`CommitHook`].
    pub fn set_commit_hook(&self, hook: impl Fn(Xid, u64) + Send + Sync + 'static) {
        *self.commit_hook.write() = Some(Box::new(hook));
    }

    /// Number of commits sequenced so far.
    pub fn commit_seq(&self) -> u64 {
        self.commit_seq.load(Ordering::Relaxed)
    }

    /// Aborts: marks the clog, leaves the active set, releases locks.
    pub fn abort(&self, txn: Txn) {
        self.fold_memo(&txn);
        {
            let mut active = self.active.lock();
            if active.remove(&txn.xid).is_some() {
                self.clog.abort(txn.xid);
                self.active_gauge.sub(1);
            }
        }
        self.locks.release_all(txn.xid);
        self.ssi.forget(txn.xid);
        self.aborts.inc();
    }

    /// Registers a transaction recovered from the WAL as committed and
    /// advances the xid allocator past it, so post-recovery snapshots see
    /// its versions and fresh transactions get larger timestamps.
    pub fn admit_recovered(&self, xid: Xid) {
        self.clog.commit(xid);
        self.next_xid.fetch_max(xid.0 + 1, Ordering::Relaxed);
    }

    /// The xid the allocator would hand out next — the transaction-id
    /// high-water mark checkpoints persist so restart allocates strictly
    /// above everything the pre-crash process might have used.
    pub fn xid_bound(&self) -> u64 {
        self.next_xid.load(Ordering::Relaxed)
    }

    /// Raises the xid allocator to at least `bound` (recovery applies a
    /// checkpoint's persisted high-water mark with this — commit
    /// outcomes still come from the log, but the allocator must clear
    /// the pre-crash range even for xids the log never mentions).
    pub fn reserve_xids_below(&self, bound: u64) {
        self.next_xid.fetch_max(bound, Ordering::Relaxed);
    }

    /// True when `xid` is currently running.
    pub fn is_active(&self, xid: Xid) -> bool {
        self.active.lock().contains_key(&xid)
    }

    /// The garbage-collection horizon: no active (or future) snapshot can
    /// see any version superseded by a committed version with
    /// `create < horizon()`. With no active transactions this is the next
    /// xid to be allocated.
    pub fn horizon(&self) -> Xid {
        let active = self.active.lock();
        active.values().copied().min().unwrap_or_else(|| Xid(self.next_xid.load(Ordering::Relaxed)))
    }

    /// Number of transactions currently running.
    pub fn active_count(&self) -> usize {
        self.active.lock().len()
    }

    /// Captures a relocation epoch for incremental GC: the xid
    /// high-water mark at the moment a version chain is republished
    /// under a new entry point. Every transaction active at capture
    /// time has `xid < epoch` — those are the only transactions that
    /// can still be walking the *old* physical chain, because any
    /// snapshot taken after the CAS publication resolves the VID to the
    /// relocated copy.
    pub fn relocation_epoch(&self) -> Xid {
        Xid(self.next_xid.load(Ordering::Relaxed))
    }

    /// True once every transaction that was active when `epoch` was
    /// captured (via [`TransactionManager::relocation_epoch`]) has
    /// finished. A snapshot's xmin never exceeds its own xid, so
    /// `horizon() >= epoch` implies every still-active transaction was
    /// born at-or-after the epoch — no reader can hold a pointer into a
    /// page relocated before it. The page is then safe to recycle.
    pub fn horizon_passed(&self, epoch: Xid) -> bool {
        self.horizon() >= epoch
    }

    /// (commits, aborts) so far.
    pub fn outcome_counts(&self) -> (u64, u64) {
        (self.commits.get(), self.aborts.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clog::TxnStatus;
    use std::time::Duration;

    #[test]
    fn xids_are_monotonic() {
        let m = TransactionManager::new();
        let a = m.begin();
        let b = m.begin();
        assert!(b.xid > a.xid);
        m.commit(a).unwrap();
        m.commit(b).unwrap();
    }

    #[test]
    fn snapshot_captures_concurrent_set() {
        let m = TransactionManager::new();
        let a = m.begin();
        let b = m.begin();
        assert!(b.snapshot.is_concurrent(a.xid));
        assert!(!a.snapshot.is_concurrent(b.xid), "b started after a");
        let c_before = m.begin();
        m.commit(a).unwrap();
        let c_after = m.begin();
        assert!(c_before.snapshot.is_concurrent(Xid(1)));
        assert!(!c_after.snapshot.is_concurrent(Xid(1)), "a finished before c_after began");
        m.abort(b);
        m.abort(c_before);
        m.abort(c_after);
    }

    #[test]
    fn commit_time_gc_keeps_siread_marks_while_overlap_lives() {
        use sias_common::RelId;
        // A committed reader's SIREAD marks must survive the
        // commit-time GC as long as some active transaction overlaps it
        // (the mark can still grow a rw edge); once the last overlapping
        // transaction ends, the next commit's GC reclaims them.
        let m = TransactionManager::new();
        m.set_serializable();
        let r = m.begin();
        let rx = r.xid;
        m.ssi.on_read(rx, RelId(1), 0, &[]);
        let w = m.begin(); // overlaps r: w's xmin pins the horizon at r
        m.commit(r).unwrap();
        assert_eq!(
            m.ssi.mark_owners(RelId(1), 0),
            vec![rx],
            "mark survives: w is still concurrent with the committed reader"
        );
        // w's own commit drains the active set; the horizon jumps to
        // next_xid and the stale mark goes with it.
        m.commit(w).unwrap();
        assert!(
            m.ssi.mark_owners(RelId(1), 0).is_empty(),
            "no overlap left: the commit-time GC reclaims the mark"
        );
    }

    #[test]
    fn commit_time_gc_horizon_is_the_oldest_active_xmin() {
        use sias_common::RelId;
        // A young transaction's xid alone must not decide GC: the
        // horizon is the minimum *xmin*, so a young txn that began
        // while an old one was active keeps even older marks alive.
        let m = TransactionManager::new();
        m.set_serializable();
        let old = m.begin(); // Xid(1), stays active
        let r = m.begin(); // Xid(2)
        let rx = r.xid;
        m.ssi.on_read(rx, RelId(1), 7, &[]);
        m.commit(r).unwrap();
        let young = m.begin(); // began while `old` active: xmin = old
        m.commit(old).unwrap();
        // Only `young` is active now, but its xmin pins the horizon
        // below rx — the mark must survive this commit's GC.
        assert_eq!(m.ssi.mark_owners(RelId(1), 7), vec![rx], "young's xmin pins the horizon");
        m.commit(young).unwrap();
        assert!(m.ssi.mark_owners(RelId(1), 7).is_empty());
    }

    #[test]
    fn commit_time_pivot_abort_is_counted() {
        let m = TransactionManager::new();
        m.set_serializable();
        let t = m.begin();
        let x = t.xid;
        // A pivot forms *passively*: the txn's own hook calls would
        // catch a second flag immediately, but edges created by other
        // transactions' reads and writes land silently — the commit-time
        // check is the net under that case.
        m.ssi.on_read(x, sias_common::RelId(1), 0, &[]); // T marks key 0
                                                         // A concurrent reader skips one of T's versions → T.in.
        m.ssi.on_read(Xid(900), sias_common::RelId(1), 1, &[x]);
        // A concurrent writer overwrites T's SIREAD mark → T.out.
        m.ssi.on_write(Xid(901), sias_common::RelId(1), 0, |_| true);
        let err = m.commit(t).unwrap_err();
        assert!(matches!(err, SiasError::SerializationFailure(f) if f == x));
        assert_eq!(m.serialization_aborts(), 1);
        assert_eq!(m.clog.status(x), TxnStatus::Aborted);
        // Engine-side read/write-time aborts report through the same
        // counter.
        m.record_serialization_abort();
        assert_eq!(m.serialization_aborts(), 2);
    }

    #[test]
    fn commit_and_abort_update_clog() {
        let m = TransactionManager::new();
        let a = m.begin();
        let b = m.begin();
        let (xa, xb) = (a.xid, b.xid);
        m.commit(a).unwrap();
        m.abort(b);
        assert_eq!(m.clog.status(xa), TxnStatus::Committed);
        assert_eq!(m.clog.status(xb), TxnStatus::Aborted);
        assert_eq!(m.outcome_counts(), (1, 1));
    }

    #[test]
    fn double_commit_rejected() {
        let m = TransactionManager::new();
        let a = m.begin();
        let fake = Txn { xid: a.xid, snapshot: a.snapshot.clone(), deadline: None };
        m.commit(a).unwrap();
        assert!(matches!(m.commit(fake), Err(SiasError::TxnNotActive(_))));
    }

    #[test]
    fn active_tracking() {
        let m = TransactionManager::new();
        assert_eq!(m.active_count(), 0);
        let a = m.begin();
        assert!(m.is_active(a.xid));
        assert_eq!(m.active_count(), 1);
        m.commit(a).unwrap();
        assert_eq!(m.active_count(), 0);
    }

    #[test]
    fn commit_hook_sees_dense_sequence_in_commit_order() {
        let m = TransactionManager::new_shared();
        let log: Arc<Mutex<Vec<(Xid, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let log = Arc::clone(&log);
            m.set_commit_hook(move |xid, seq| log.lock().push((xid, seq)));
        }
        let a = m.begin();
        let b = m.begin();
        let c = m.begin();
        let (xa, xb, xc) = (a.xid, b.xid, c.xid);
        m.commit(b).unwrap();
        m.abort(c); // aborts never fire the hook
        m.commit(a).unwrap();
        let got = log.lock().clone();
        assert_eq!(got, vec![(xb, 1), (xa, 2)]);
        assert_eq!(m.commit_seq(), 2);
        let _ = xc;
    }

    #[test]
    fn memo_counts_fold_into_registry_at_txn_end() {
        let obs = Registry::new();
        let m = TransactionManager::with_registry(&obs);
        let a = m.begin();
        m.commit(a).unwrap();
        let b = m.begin();
        // Probe the committed xid repeatedly: 1 miss, then hits.
        for _ in 0..4 {
            b.snapshot.sees(Xid(1), &m.clog);
        }
        m.commit(b).unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("txn.snapshot.memo_misses"), Some(1));
        assert_eq!(snap.counter("txn.snapshot.memo_hits"), Some(3));
        // Aborting transactions fold too.
        let c = m.begin();
        c.snapshot.sees(Xid(1), &m.clog);
        m.abort(c);
        assert_eq!(obs.snapshot().counter("txn.snapshot.memo_misses"), Some(2));
    }

    #[test]
    fn xid_bound_tracks_allocation_and_reservation() {
        let m = TransactionManager::new();
        assert_eq!(m.xid_bound(), 1);
        let a = m.begin();
        m.commit(a).unwrap();
        assert_eq!(m.xid_bound(), 2);
        m.reserve_xids_below(100);
        assert_eq!(m.xid_bound(), 100);
        m.reserve_xids_below(50); // monotone
        assert_eq!(m.xid_bound(), 100);
        let b = m.begin();
        assert_eq!(b.xid, Xid(100));
        m.abort(b);
    }

    #[test]
    fn deadline_rides_the_txn_handle() {
        let m = TransactionManager::new();
        let plain = m.begin();
        assert!(plain.deadline.is_none());
        assert!(plain.check_deadline().is_ok());
        m.commit(plain).unwrap();
        let fut = m.begin_with_deadline(Some(Instant::now() + Duration::from_secs(60)));
        assert!(!fut.deadline_expired());
        assert!(fut.check_deadline().is_ok());
        m.commit(fut).unwrap();
        let past = m.begin_with_deadline(Some(Instant::now() - Duration::from_millis(1)));
        assert!(past.deadline_expired());
        let err = past.check_deadline().unwrap_err();
        assert!(matches!(err, SiasError::DeadlineExceeded { xid } if xid == past.xid));
        m.abort(past);
    }

    #[test]
    fn many_threads_begin_commit() {
        let m = TransactionManager::new_shared();
        let mut handles = vec![];
        for _ in 0..8 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let t = m.begin();
                    m.commit(t).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.active_count(), 0);
        assert_eq!(m.outcome_counts().0, 8 * 500);
    }
}
