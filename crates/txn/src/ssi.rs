//! Serializable Snapshot Isolation (SSI) — optional extension.
//!
//! §2 of the paper: "Standard SI does not provide serializability.
//! Recently, serializable SI was proposed in [Cahill, Röhm, Fekete,
//! SIGMOD'08], based on read/write dependency testing in serialization
//! graphs. The PostgreSQL implementation of serializable SI is described
//! in [Ports & Grittner, VLDB'12]." SIAS is orthogonal to the isolation
//! upgrade, so this module implements the Cahill test once, shared by
//! both engines.
//!
//! Mechanism (conservative, like the original): every transaction gets
//! `in_conflict` / `out_conflict` flags. Readers take **SIREAD** marks on
//! the keys they read; a writer that overwrites a key marked by a
//! *concurrent* reader creates a rw-antidependency (reader → writer):
//! the reader's `out` and the writer's `in` are flagged. A reader that
//! reads a key already overwritten by a concurrent transaction gets its
//! `out` flagged (and the writer's `in`). A transaction with **both**
//! flags is a dangerous-structure pivot and must abort — spurious aborts
//! are possible (flags, not full graphs), anomalies are not.
//!
//! SIREAD marks outlive commits: they are garbage-collected once no
//! active transaction is concurrent with their owner (tracked via the
//! transaction manager's horizon).

use std::collections::HashMap;

use parking_lot::Mutex;
use sias_common::{RelId, Xid};

/// Per-transaction conflict flags.
#[derive(Clone, Copy, Debug, Default)]
struct Flags {
    /// Someone has a rw-antidependency *into* this transaction.
    in_conflict: bool,
    /// This transaction has a rw-antidependency *out* to someone.
    out_conflict: bool,
    /// Owner committed (flags kept for lingering edges).
    committed: bool,
    /// A write of the owner's was rejected after the engine had already
    /// published its version, so the owner may never commit.
    doomed: bool,
}

/// Shared SSI state. Disabled by default; zero overhead when off.
#[derive(Default)]
pub struct SsiState {
    enabled: std::sync::atomic::AtomicBool,
    inner: Mutex<SsiInner>,
}

#[derive(Default)]
struct SsiInner {
    flags: HashMap<Xid, Flags>,
    /// SIREAD marks: key → reader xids (deduplicated, small).
    sireads: HashMap<(RelId, u64), Vec<Xid>>,
}

/// Outcome of an SSI check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SsiVerdict {
    /// Proceed.
    Ok,
    /// The transaction became a pivot and must abort.
    MustAbort,
}

impl SsiState {
    /// Turns serializable mode on (affects transactions from now on).
    pub fn enable(&self) {
        self.enabled.store(true, std::sync::atomic::Ordering::Relaxed);
    }

    /// True when serializable mode is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Registers a read of `key` in one step: [`SsiState::mark`] then
    /// [`SsiState::check_read`]. `newer_writers` are the creators of
    /// *newer* versions the reader skipped (its snapshot returned an
    /// older one) — each is a rw-antidependency reader → writer observed
    /// at read time. Every skipped committed version matters: dropping
    /// one loses the edge and admits non-serializable histories.
    pub fn on_read(&self, reader: Xid, rel: RelId, key: u64, newer_writers: &[Xid]) -> SsiVerdict {
        let fresh = self.mark(reader, rel, key);
        self.check_read(reader, rel, key, newer_writers, fresh)
    }

    /// Publishes `reader`'s SIREAD mark on `key`; true when the mark is
    /// new. Engines publish *before* they walk for skipped writers, so a
    /// writer that publishes its version concurrently either finds the
    /// mark or is found by the walk.
    pub fn mark(&self, reader: Xid, rel: RelId, key: u64) -> bool {
        if !self.is_enabled() {
            return false;
        }
        let mut inner = self.inner.lock();
        let marks = inner.sireads.entry((rel, key)).or_default();
        let fresh = !marks.contains(&reader);
        if fresh {
            marks.push(reader);
        }
        fresh
    }

    /// Flags the read-time edges of a read whose mark is published (see
    /// [`SsiState::on_read`] for `newer_writers`). The reader must abort
    /// when the edges make it a pivot, or when they would make an
    /// already-*committed* writer a pivot (a committed transaction can no
    /// longer be the victim). A rejected read rolls its newly created
    /// edges back — and its mark, when `fresh_mark` says the read took it
    /// — so the surviving side is not doomed by a read that never
    /// happened.
    pub fn check_read(
        &self,
        reader: Xid,
        rel: RelId,
        key: u64,
        newer_writers: &[Xid],
        fresh_mark: bool,
    ) -> SsiVerdict {
        if !self.is_enabled() {
            return SsiVerdict::Ok;
        }
        let mut inner = self.inner.lock();
        let mut reader_must_abort = false;
        let mut newly_set: Vec<(Xid, bool)> = Vec::new(); // (xid, was_out_edge)
        for &w in newer_writers {
            if w == reader {
                continue;
            }
            let wf = inner.flags.entry(w).or_default();
            if !wf.in_conflict {
                wf.in_conflict = true;
                newly_set.push((w, false));
            }
            if wf.committed && wf.out_conflict {
                // The skipped writer is a committed pivot: it cannot
                // abort, so the reader at hand must.
                reader_must_abort = true;
            }
            let rf = inner.flags.entry(reader).or_default();
            if !rf.out_conflict {
                rf.out_conflict = true;
                newly_set.push((reader, true));
            }
            if rf.in_conflict {
                reader_must_abort = true;
            }
        }
        if reader_must_abort {
            for (xid, was_out) in newly_set {
                if let Some(f) = inner.flags.get_mut(&xid) {
                    if was_out {
                        f.out_conflict = false;
                    } else {
                        f.in_conflict = false;
                    }
                }
            }
            if fresh_mark {
                if let Some(marks) = inner.sireads.get_mut(&(rel, key)) {
                    marks.retain(|&r| r != reader);
                    if marks.is_empty() {
                        inner.sireads.remove(&(rel, key));
                    }
                }
            }
            SsiVerdict::MustAbort
        } else {
            SsiVerdict::Ok
        }
    }

    /// Registers a write of `key` by `writer`; flags rw-antidependencies
    /// from every *other* transaction holding a SIREAD mark on the key.
    /// `concurrent_with` decides whether an edge is relevant (the reader
    /// is still active, or committed while overlapping the writer).
    /// Engines call it only once the new version is reachable by a
    /// reader's walk — the writer's half of [`SsiState::mark`]'s
    /// publish-then-check order.
    pub fn on_write(
        &self,
        writer: Xid,
        rel: RelId,
        key: u64,
        concurrent_with: impl Fn(Xid) -> bool,
    ) -> SsiVerdict {
        if !self.is_enabled() {
            return SsiVerdict::Ok;
        }
        let mut inner = self.inner.lock();
        let readers: Vec<Xid> = inner
            .sireads
            .get(&(rel, key))
            .map(|v| v.iter().copied().filter(|&r| r != writer && concurrent_with(r)).collect())
            .unwrap_or_default();
        let mut writer_must_abort = false;
        // Track edges newly created by THIS write so they can be undone
        // if the write is rejected — a rejected write never happened, so
        // its antidependencies must not linger and doom the survivor.
        let mut newly_set: Vec<(Xid, bool)> = Vec::new(); // (xid, was_out_edge)
        for r in readers {
            let rf = inner.flags.entry(r).or_default();
            if !rf.out_conflict {
                rf.out_conflict = true;
                newly_set.push((r, true));
            }
            if rf.committed && rf.in_conflict {
                // Flagging this edge makes an already-committed reader a
                // pivot; the committed side cannot be the victim, so the
                // writer at hand aborts instead.
                writer_must_abort = true;
            }
            let wf = inner.flags.entry(writer).or_default();
            if !wf.in_conflict {
                wf.in_conflict = true;
                newly_set.push((writer, false));
            }
            if wf.out_conflict {
                writer_must_abort = true;
            }
        }
        if writer_must_abort {
            for (xid, was_out) in newly_set {
                if let Some(f) = inner.flags.get_mut(&xid) {
                    if was_out {
                        f.out_conflict = false;
                    } else {
                        f.in_conflict = false;
                    }
                }
            }
            // The rejected version is already in the chain until the
            // writer aborts: committing it anyway must fail too.
            inner.flags.entry(writer).or_default().doomed = true;
            SsiVerdict::MustAbort
        } else {
            SsiVerdict::Ok
        }
    }

    /// Commit-time check: a pivot (both flags), or a writer whose write
    /// was rejected, must abort instead.
    pub fn can_commit(&self, xid: Xid) -> SsiVerdict {
        if !self.is_enabled() {
            return SsiVerdict::Ok;
        }
        let mut inner = self.inner.lock();
        let f = inner.flags.entry(xid).or_default();
        if f.doomed || (f.in_conflict && f.out_conflict) {
            SsiVerdict::MustAbort
        } else {
            f.committed = true;
            SsiVerdict::Ok
        }
    }

    /// Drops all state belonging to `xid` after an abort.
    pub fn forget(&self, xid: Xid) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        inner.flags.remove(&xid);
        for marks in inner.sireads.values_mut() {
            marks.retain(|&r| r != xid);
        }
        inner.sireads.retain(|_, v| !v.is_empty());
    }

    /// Garbage-collects marks and flags of transactions no active
    /// transaction is concurrent with (`horizon` from the manager).
    pub fn collect_below(&self, horizon: Xid) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        inner.flags.retain(|&x, f| !(f.committed && x < horizon));
        for marks in inner.sireads.values_mut() {
            marks.retain(|&r| r >= horizon);
        }
        inner.sireads.retain(|_, v| !v.is_empty());
    }

    /// Number of keys currently carrying SIREAD marks (diagnostics).
    pub fn siread_keys(&self) -> usize {
        self.inner.lock().sireads.len()
    }

    /// The xids currently holding a SIREAD mark on `key` (sorted;
    /// diagnostics and test introspection).
    pub fn mark_owners(&self, rel: RelId, key: u64) -> Vec<Xid> {
        let inner = self.inner.lock();
        let mut owners = inner.sireads.get(&(rel, key)).cloned().unwrap_or_default();
        owners.sort();
        owners
    }

    /// Conflict-flag snapshot as `(xid, in, out, committed)` rows, sorted
    /// by xid. Used by the model checker to fingerprint states and by GC
    /// tests to observe exactly when flags are reclaimed.
    pub fn flag_rows(&self) -> Vec<(Xid, bool, bool, bool)> {
        let inner = self.inner.lock();
        let mut rows: Vec<(Xid, bool, bool, bool)> = inner
            .flags
            .iter()
            .map(|(&x, f)| (x, f.in_conflict, f.out_conflict, f.committed))
            .collect();
        rows.sort();
        rows
    }
}

impl Clone for SsiState {
    /// Deep-copies the flag table and SIREAD marks (the model checker
    /// forks world states without replay).
    fn clone(&self) -> Self {
        let inner = self.inner.lock();
        SsiState {
            enabled: std::sync::atomic::AtomicBool::new(self.is_enabled()),
            inner: Mutex::new(SsiInner {
                flags: inner.flags.clone(),
                sireads: inner.sireads.clone(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: RelId = RelId(1);

    fn enabled() -> SsiState {
        let s = SsiState::default();
        s.enable();
        s
    }

    #[test]
    fn disabled_state_is_inert() {
        let s = SsiState::default();
        assert_eq!(s.on_read(Xid(1), R, 5, &[Xid(2)]), SsiVerdict::Ok);
        assert_eq!(s.on_write(Xid(2), R, 5, |_| true), SsiVerdict::Ok);
        assert_eq!(s.can_commit(Xid(1)), SsiVerdict::Ok);
        assert_eq!(s.siread_keys(), 0);
    }

    #[test]
    fn write_skew_pattern_aborts_a_pivot() {
        // T1 reads x, T2 reads y; T1 writes y, T2 writes x.
        let s = enabled();
        let (t1, t2) = (Xid(1), Xid(2));
        assert_eq!(s.on_read(t1, R, 0, &[]), SsiVerdict::Ok); // T1 reads x
        assert_eq!(s.on_read(t2, R, 1, &[]), SsiVerdict::Ok); // T2 reads y
                                                              // T1 writes y: edge T2 → T1.
        assert_eq!(s.on_write(t1, R, 1, |_| true), SsiVerdict::Ok);
        // T2 writes x: edge T1 → T2 would close the cycle; T2 (in from
        // its own overwrite, out from T1's) is the pivot and aborts at
        // the write. The rejected write's edges are rolled back, so the
        // survivor T1 commits — exactly one victim.
        assert_eq!(s.on_write(t2, R, 0, |_| true), SsiVerdict::MustAbort);
        assert_eq!(s.can_commit(t1), SsiVerdict::Ok);
    }

    #[test]
    fn rejected_write_dooms_the_writer() {
        // Engines check a write after its version is reachable, so a
        // writer that ignores the rejection and commits must still fail:
        // its rolled-back in-edge no longer marks it a pivot.
        let s = enabled();
        let (t1, t2) = (Xid(1), Xid(2));
        s.on_read(t1, R, 0, &[]);
        s.on_read(t2, R, 1, &[]);
        assert_eq!(s.on_write(t1, R, 1, |_| true), SsiVerdict::Ok);
        assert_eq!(s.on_write(t2, R, 0, |_| true), SsiVerdict::MustAbort);
        assert_eq!(s.can_commit(t2), SsiVerdict::MustAbort, "the rejected writer cannot commit");
        assert_eq!(s.can_commit(t1), SsiVerdict::Ok, "the survivor still commits");
    }

    #[test]
    fn plain_rw_conflict_alone_commits() {
        // A single antidependency is harmless: T1 reads x, T2 writes x.
        let s = enabled();
        s.on_read(Xid(1), R, 0, &[]);
        assert_eq!(s.on_write(Xid(2), R, 0, |_| true), SsiVerdict::Ok);
        assert_eq!(s.can_commit(Xid(1)), SsiVerdict::Ok);
        assert_eq!(s.can_commit(Xid(2)), SsiVerdict::Ok);
    }

    #[test]
    fn read_of_stale_version_flags_out_edge() {
        let s = enabled();
        // T3 reads key 9 but a newer version by concurrent T4 exists.
        s.on_read(Xid(3), R, 9, &[Xid(4)]);
        // T3 also gets an in-edge: now a pivot at commit time.
        s.on_write(Xid(3), R, 7, |_| false); // no readers → no edge
        s.on_read(Xid(5), R, 7, &[]);
        // Writing over T5's SIREAD gives T3 an IN edge (T5 → T3); with
        // the OUT edge from the stale read T3 is a pivot — detected
        // immediately at the write. The caller must abort T3 now (the
        // engine surfaces this verdict as SerializationFailure).
        assert_eq!(s.on_write(Xid(3), R, 7, |x| x == Xid(5)), SsiVerdict::MustAbort);
    }

    #[test]
    fn own_reads_and_writes_do_not_self_conflict() {
        let s = enabled();
        s.on_read(Xid(1), R, 0, &[]);
        assert_eq!(s.on_write(Xid(1), R, 0, |_| true), SsiVerdict::Ok);
        assert_eq!(s.can_commit(Xid(1)), SsiVerdict::Ok);
    }

    #[test]
    fn forget_clears_aborted_state() {
        let s = enabled();
        s.on_read(Xid(1), R, 0, &[]);
        s.on_read(Xid(1), R, 1, &[]);
        assert_eq!(s.siread_keys(), 2);
        s.forget(Xid(1));
        assert_eq!(s.siread_keys(), 0);
        // A later writer sees no stale marks.
        assert_eq!(s.on_write(Xid(2), R, 0, |_| true), SsiVerdict::Ok);
        assert_eq!(s.can_commit(Xid(2)), SsiVerdict::Ok);
    }

    #[test]
    fn collect_below_reclaims_old_marks() {
        let s = enabled();
        s.on_read(Xid(1), R, 0, &[]);
        s.can_commit(Xid(1));
        s.on_read(Xid(10), R, 1, &[]);
        s.collect_below(Xid(5));
        assert_eq!(s.siread_keys(), 1, "only the young mark survives");
    }

    #[test]
    fn skipped_committed_writer_records_read_time_edge() {
        // The missed-edge hole: T1 reads x *after* concurrent T2 already
        // committed a newer version of x. The snapshot returns the old
        // version; the skipped creator must still produce T1 → T2.
        // History: T2 reads y, writes x, commits; T1 reads x (skipping
        // T2's version), writes y. Both edges exist → T1 is the pivot.
        let s = enabled();
        let (t1, t2) = (Xid(1), Xid(2));
        s.on_read(t2, R, 1, &[]); // T2 reads y
        assert_eq!(s.on_write(t2, R, 0, |_| true), SsiVerdict::Ok); // T2 writes x
        assert_eq!(s.can_commit(t2), SsiVerdict::Ok);
        // T1 reads x: snapshot skips T2's committed version → edge T1→T2.
        assert_eq!(s.on_read(t1, R, 0, &[t2]), SsiVerdict::Ok);
        // T1 writes y over T2's SIREAD: edge T2→T1 makes T1 a pivot, but
        // T2 already committed — so the write aborts T1 right here.
        assert_eq!(s.on_write(t1, R, 1, |x| x == t2), SsiVerdict::MustAbort);
    }

    #[test]
    fn write_over_committed_pivot_reader_aborts_writer() {
        // If flagging the edge would make an already-committed reader a
        // pivot, the committed side cannot be the victim: the writer
        // must abort even though the writer itself has no out-edge.
        let s = enabled();
        let (t0, t1, t2) = (Xid(10), Xid(1), Xid(2));
        s.on_read(t0, R, 5, &[]); // T0 marks key 5
        assert_eq!(s.on_write(t1, R, 5, |x| x == t0), SsiVerdict::Ok); // T1.in
        s.on_read(t1, R, 0, &[]); // T1 reads x
        assert_eq!(s.can_commit(t1), SsiVerdict::Ok, "T1 has only an in-edge");
        // T2 writes x over committed T1's SIREAD: T1 would gain out →
        // committed pivot → T2 is the one that can still abort.
        assert_eq!(s.on_write(t2, R, 0, |_| true), SsiVerdict::MustAbort);
    }

    #[test]
    fn read_skipping_committed_pivot_aborts_reader() {
        // Dual of the above on the read path: T2 committed with an
        // out-edge; a reader that skips one of T2's versions would hand
        // committed T2 its in-edge — a pivot that can no longer abort —
        // so the reader aborts, and its tentative edges and mark roll
        // back.
        let s = enabled();
        let (t1, t2, t3) = (Xid(1), Xid(2), Xid(3));
        s.on_read(t2, R, 7, &[t3]); // T2 skips committed T3's version → T2.out
        s.can_commit(t3);
        assert_eq!(s.can_commit(t2), SsiVerdict::Ok); // commits: out only
                                                      // T1 reads key 9 and skips committed T2's version: T2 would gain
                                                      // in → committed pivot → the reader must abort instead.
        assert_eq!(s.on_read(t1, R, 9, &[t2]), SsiVerdict::MustAbort);
        // The rejected read left no mark and no tentative out-edge on T1.
        assert!(s.mark_owners(R, 9).is_empty(), "rejected read leaves no mark");
        assert!(!s.flag_rows().iter().any(|&(x, _, out, _)| x == t1 && out));
    }

    #[test]
    fn collect_below_keeps_flags_of_live_committed_txns() {
        // A committed txn at or above the horizon may still gain edges —
        // its flags must survive GC; below the horizon they are dropped.
        let s = enabled();
        s.on_read(Xid(4), R, 0, &[]);
        assert_eq!(s.on_write(Xid(6), R, 0, |_| true), SsiVerdict::Ok);
        s.can_commit(Xid(4));
        s.can_commit(Xid(6));
        s.collect_below(Xid(5));
        let rows = s.flag_rows();
        assert!(!rows.iter().any(|&(x, ..)| x == Xid(4)), "below horizon: dropped");
        assert!(rows.iter().any(|&(x, ..)| x == Xid(6)), "above horizon: kept");
    }

    #[test]
    fn clone_is_deep() {
        let s = enabled();
        s.on_read(Xid(1), R, 0, &[]);
        let c = s.clone();
        s.forget(Xid(1));
        assert_eq!(s.siread_keys(), 0);
        assert_eq!(c.siread_keys(), 1, "clone unaffected by original's mutation");
        assert_eq!(c.mark_owners(R, 0), vec![Xid(1)]);
    }
}
