//! Version-chain traversal.
//!
//! All versions of a data item form a backwards singly-linked list from
//! the entrypoint (§4.1): the scan/read path fetches the entrypoint and
//! follows `*ptr` until the first version visible to the snapshot
//! (Algorithm 1, lines 3–14). Versions are immutable once appended, so
//! traversal needs no tuple locks — only the page latch taken per fetch.
//!
//! Two traversal engines share the visibility predicate:
//!
//! * **scalar** ([`visible_version`]) — one pin/latch round-trip per
//!   chain step, the natural shape for point reads;
//! * **batched** ([`visible_versions_batch`]) — the "Vectors on Flash"
//!   shape for scans (§4.2.1): all live cursors are bucketed by block,
//!   each page is pinned **once** and every cursor resident on it is
//!   advanced in a tight decode loop (including block-local `pred`
//!   hops), then the survivors are re-bucketed by their predecessor
//!   blocks and the round repeats. One latch + one trace event per page
//!   visit instead of per version.

use sias_common::{RelId, SiasResult, Tid, Vid, Xid};
use sias_storage::BufferPool;
use sias_txn::{Clog, Snapshot, TxnStatus};

use crate::version::TupleVersion;

/// Fetches and decodes one tuple version.
pub fn fetch_version(pool: &BufferPool, rel: RelId, tid: Tid) -> SiasResult<TupleVersion> {
    let bytes = pool.with_page(rel, tid.block, |p| p.item(tid.slot).map(<[u8]>::to_vec))??;
    TupleVersion::decode(&bytes)
}

/// Walks the chain from `entry` and returns the first version visible to
/// the snapshot, with its TID (Algorithm 1). Returns `Ok(None)` when no
/// version in the chain is visible. Tombstones are returned like any
/// other version — interpreting them is the caller's business (a visible
/// tombstone means "the item is deleted in your snapshot").
pub fn visible_version(
    pool: &BufferPool,
    rel: RelId,
    entry: Tid,
    snapshot: &Snapshot,
    clog: &Clog,
) -> SiasResult<Option<(Tid, TupleVersion)>> {
    visible_version_depth(pool, rel, entry, snapshot, clog).map(|(v, _)| v)
}

/// Like [`visible_version`], but also returns the number of versions
/// fetched during the walk (≥ 1) — the chain-traversal cost the paper's
/// `C_R` accounting charges and the `core.engine.chain_depth` histogram
/// records.
pub fn visible_version_depth(
    pool: &BufferPool,
    rel: RelId,
    entry: Tid,
    snapshot: &Snapshot,
    clog: &Clog,
) -> SiasResult<(Option<(Tid, TupleVersion)>, u64)> {
    let mut tid = entry;
    let mut depth = 0u64;
    loop {
        let v = fetch_version(pool, rel, tid)?;
        depth += 1;
        if snapshot.sees(v.create, clog) {
            return Ok((Some((tid, v)), depth));
        }
        match v.pred {
            Some(pred) => tid = pred,
            None => return Ok((None, depth)),
        }
    }
}

/// Walks the chain from `entry` and returns the creators of the
/// versions the snapshot *skipped* before reaching its visible one
/// (newest first, deduplicated, aborted creators excluded). Under SSI
/// every skipped committed-or-in-progress creator is a
/// rw-antidependency the reader owes an edge to — missing one admits
/// non-serializable histories. Plain-SI paths never call this; the
/// extra walk is paid only when serializable mode is on.
pub fn skipped_newer_writers(
    pool: &BufferPool,
    rel: RelId,
    entry: Tid,
    snapshot: &Snapshot,
    clog: &Clog,
) -> SiasResult<Vec<Xid>> {
    let mut out = Vec::new();
    let mut tid = entry;
    loop {
        let v = fetch_version(pool, rel, tid)?;
        if snapshot.sees(v.create, clog) {
            return Ok(out);
        }
        if clog.status(v.create) != TxnStatus::Aborted && !out.contains(&v.create) {
            out.push(v.create);
        }
        match v.pred {
            Some(pred) => tid = pred,
            None => return Ok(out),
        }
    }
}

/// Traversal-cost accounting for one [`visible_versions_batch`] call.
///
/// `page_visits ≤ versions_fetched` always holds: every visited page
/// decodes at least one version, and a page shared by many cursors (or
/// holding several chain links of one cursor) is still pinned once per
/// round.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Tuple versions fetched and decoded (the paper's `C_R` count).
    pub versions_fetched: u64,
    /// Pages pinned (one latch acquisition each).
    pub page_visits: u64,
}

/// One finished batch cursor: the item's VID, its visible version (if
/// any), and the chain depth walked to resolve it (≥ 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedCursor {
    /// The data item this cursor resolved.
    pub vid: Vid,
    /// First visible version and its TID, as [`visible_version`] returns.
    pub visible: Option<(Tid, TupleVersion)>,
    /// Versions fetched while walking this chain.
    pub depth: u64,
}

/// Resolves many chains at once with page-grouped ("vectorized")
/// traversal.
///
/// Semantically identical to calling [`visible_version`] on every entry
/// — the result vector is in input order and byte-for-byte equal to the
/// scalar walk — but the physical access pattern is batched: each round
/// sorts the live cursors by block, pins every needed page **once**,
/// advances all cursors resident on it (following block-local `pred`
/// pointers without re-pinning), and re-buckets the survivors by their
/// predecessor blocks. Appended version chains run backwards through
/// recently-allocated blocks, so scans of update-heavy tables converge
/// in few rounds while touching each page once per round (§4.2.1's
/// "selective random reads", amortized).
///
/// Versions are decoded straight from the borrowed page slice, skipping
/// the per-version copy the scalar path's [`fetch_version`] pays.
pub fn visible_versions_batch(
    pool: &BufferPool,
    rel: RelId,
    entries: &[(Vid, Tid)],
    snapshot: &Snapshot,
    clog: &Clog,
) -> SiasResult<(Vec<ResolvedCursor>, BatchStats)> {
    visible_versions_batch_deadline(pool, rel, entries, snapshot, clog, None)
}

/// Deadline-honoring batched traversal: identical to
/// [`visible_versions_batch`], but between rounds (the natural
/// cancellation points — each round is one bounded sweep of pinned
/// pages) an expired `deadline` aborts the scan with a typed
/// [`SiasError::DeadlineExceeded`] for the snapshot's transaction. No
/// partial results leak: the caller sees only the error.
pub fn visible_versions_batch_deadline(
    pool: &BufferPool,
    rel: RelId,
    entries: &[(Vid, Tid)],
    snapshot: &Snapshot,
    clog: &Clog,
    deadline: Option<std::time::Instant>,
) -> SiasResult<(Vec<ResolvedCursor>, BatchStats)> {
    let mut out: Vec<ResolvedCursor> =
        entries.iter().map(|&(vid, _)| ResolvedCursor { vid, visible: None, depth: 0 }).collect();
    let mut stats = BatchStats::default();
    // Live cursors: (index into `out`, next TID to fetch).
    let mut pending: Vec<(usize, Tid)> =
        entries.iter().enumerate().map(|(i, &(_, tid))| (i, tid)).collect();
    let mut next: Vec<(usize, Tid)> = Vec::new();

    while !pending.is_empty() {
        if let Some(d) = deadline {
            if std::time::Instant::now() >= d {
                return Err(sias_common::SiasError::DeadlineExceeded { xid: snapshot.xid });
            }
        }
        pending.sort_unstable_by_key(|&(_, tid)| tid.block);
        // With an async I/O queue attached, overlap this round's miss
        // fills: submit one batched read for every distinct block before
        // the per-block walk pins them (already-resident blocks are
        // skipped inside `prefetch_blocks`).
        if pool.has_io_queue() {
            let mut blocks: Vec<u32> = pending.iter().map(|&(_, tid)| tid.block).collect();
            blocks.dedup();
            if blocks.len() > 1 {
                pool.prefetch_blocks(rel, &blocks);
            }
        }
        let mut start = 0;
        while start < pending.len() {
            let block = pending[start].1.block;
            let mut end = start + 1;
            while end < pending.len() && pending[end].1.block == block {
                end += 1;
            }
            let group = &pending[start..end];
            stats.page_visits += 1;
            pool.with_page(rel, block, |p| -> SiasResult<()> {
                for &(idx, entry_tid) in group {
                    let mut tid = entry_tid;
                    loop {
                        let v = TupleVersion::decode(p.item(tid.slot)?)?;
                        stats.versions_fetched += 1;
                        out[idx].depth += 1;
                        if snapshot.sees(v.create, clog) {
                            out[idx].visible = Some((tid, v));
                            break;
                        }
                        match v.pred {
                            None => break,
                            Some(pred) if pred.block == block => tid = pred,
                            Some(pred) => {
                                next.push((idx, pred));
                                break;
                            }
                        }
                    }
                }
                Ok(())
            })??;
            start = end;
        }
        pending.clear();
        std::mem::swap(&mut pending, &mut next);
    }
    Ok((out, stats))
}

/// Collects the *reachable* prefix of a chain, newest first: every
/// version from the entrypoint down to (and including) the **anchor** —
/// the first committed version with `create < horizon`. Versions below
/// the anchor can never be returned by any visibility walk of a snapshot
/// at or past the horizon, so garbage collection may reclaim their pages;
/// consequently, walking *past* the anchor is unsound after a vacuum and
/// this bounded walk is what GC and diagnostics must use.
pub fn collect_reachable(
    pool: &BufferPool,
    rel: RelId,
    entry: Tid,
    horizon: Xid,
    clog: &Clog,
) -> SiasResult<Vec<(Tid, TupleVersion)>> {
    let mut out = Vec::new();
    let mut tid = Some(entry);
    while let Some(t) = tid {
        let v = fetch_version(pool, rel, t)?;
        tid = v.pred;
        let committed = clog.status(v.create) == TxnStatus::Committed;
        let create = v.create;
        out.push((t, v));
        if committed && create < horizon {
            break; // anchor reached
        }
    }
    Ok(out)
}

/// Collects the whole chain from the entrypoint, newest first.
///
/// **Unbounded**: only sound before any vacuum has reclaimed pages of
/// this relation (tests, freshly-loaded data). Production paths use
/// [`collect_reachable`] or [`visible_version`].
pub fn collect_chain(
    pool: &BufferPool,
    rel: RelId,
    entry: Tid,
) -> SiasResult<Vec<(Tid, TupleVersion)>> {
    let mut out = Vec::new();
    let mut tid = Some(entry);
    while let Some(t) = tid {
        let v = fetch_version(pool, rel, t)?;
        tid = v.pred;
        out.push((t, v));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::TupleVersion;
    use sias_common::{Vid, Xid};
    use sias_storage::device::MemDevice;
    use sias_storage::Tablespace;
    use std::sync::Arc;

    const REL: RelId = RelId(1);

    fn pool() -> BufferPool {
        let dev = Arc::new(MemDevice::standalone(1 << 14));
        let space = Arc::new(Tablespace::new(1 << 14));
        space.create_relation(REL);
        BufferPool::new(32, dev, space)
    }

    fn put(pool: &BufferPool, block: u32, v: &TupleVersion) -> Tid {
        while pool.space().relation_blocks(REL) <= block {
            pool.allocate_block(REL).unwrap();
        }
        let slot =
            pool.with_page_mut(REL, block, |p| p.add_item(&v.encode())).unwrap().unwrap().unwrap();
        Tid::new(block, slot)
    }

    /// Builds the paper's Figure 1 history: X0 (T1), X1 (T2), X2 (T3).
    fn figure1(pool: &BufferPool, clog: &Clog) -> (Tid, Tid, Tid) {
        let x0 = TupleVersion::initial(Xid(1), Vid(0), &b"X0"[..]);
        let t0 = put(pool, 0, &x0);
        let x1 = TupleVersion::successor(Xid(2), Vid(0), t0, Xid(1), &b"X1"[..]);
        let t1 = put(pool, 0, &x1);
        let x2 = TupleVersion::successor(Xid(3), Vid(0), t1, Xid(2), &b"X2"[..]);
        let t2 = put(pool, 1, &x2);
        clog.commit(Xid(1));
        clog.commit(Xid(2));
        clog.commit(Xid(3));
        (t0, t1, t2)
    }

    #[test]
    fn fetch_roundtrip() {
        let p = pool();
        let v = TupleVersion::initial(Xid(5), Vid(9), &b"abc"[..]);
        let tid = put(&p, 0, &v);
        assert_eq!(fetch_version(&p, REL, tid).unwrap(), v);
    }

    #[test]
    fn newest_visible_version_wins() {
        let p = pool();
        let clog = Clog::new();
        let (_t0, _t1, t2) = figure1(&p, &clog);
        // A transaction starting after T3: sees X2 at the entrypoint.
        let snap = Snapshot::new(Xid(10), vec![]);
        let (tid, v) = visible_version(&p, REL, t2, &snap, &clog).unwrap().unwrap();
        assert_eq!(tid, t2);
        assert_eq!(v.payload.as_ref(), b"X2");
    }

    #[test]
    fn old_snapshot_walks_back_the_chain() {
        // "if a transaction is old enough to not see X1 but young enough
        // to see X0, the reference pointer on X1 is used to fetch the
        // previous version" (§4.3 Example 1) — here with X2/X1/X0.
        let p = pool();
        let clog = Clog::new();
        let (t0, t1, t2) = figure1(&p, &clog);
        // Snapshot concurrent with T3: sees X1.
        let snap = Snapshot::new(Xid(4), vec![Xid(3)]);
        let (tid, v) = visible_version(&p, REL, t2, &snap, &clog).unwrap().unwrap();
        assert_eq!(tid, t1);
        assert_eq!(v.payload.as_ref(), b"X1");
        // Snapshot concurrent with T2 and T3: sees X0.
        let snap = Snapshot::new(Xid(4), vec![Xid(2), Xid(3)]);
        let (tid, v) = visible_version(&p, REL, t2, &snap, &clog).unwrap().unwrap();
        assert_eq!(tid, t0);
        assert_eq!(v.payload.as_ref(), b"X0");
    }

    #[test]
    fn nothing_visible_returns_none() {
        let p = pool();
        let clog = Clog::new();
        let (_t0, _t1, t2) = figure1(&p, &clog);
        // Snapshot older than every version.
        let snap = Snapshot::new(Xid(4), vec![Xid(1), Xid(2), Xid(3)]);
        assert!(visible_version(&p, REL, t2, &snap, &clog).unwrap().is_none());
    }

    #[test]
    fn aborted_versions_are_skipped() {
        let p = pool();
        let clog = Clog::new();
        let x0 = TupleVersion::initial(Xid(1), Vid(0), &b"good"[..]);
        let t0 = put(&p, 0, &x0);
        let x1 = TupleVersion::successor(Xid(2), Vid(0), t0, Xid(1), &b"rolled back"[..]);
        let t1 = put(&p, 0, &x1);
        clog.commit(Xid(1));
        clog.abort(Xid(2));
        let snap = Snapshot::new(Xid(5), vec![]);
        let (tid, v) = visible_version(&p, REL, t1, &snap, &clog).unwrap().unwrap();
        assert_eq!(tid, t0);
        assert_eq!(v.payload.as_ref(), b"good");
    }

    #[test]
    fn batch_matches_scalar_on_figure1() {
        let p = pool();
        let clog = Clog::new();
        let (_t0, _t1, t2) = figure1(&p, &clog);
        // Three snapshot ages exercise hit-at-entry, one-hop and two-hop
        // walks; the batch must agree with the scalar walk on each.
        for concurrent in [vec![], vec![Xid(3)], vec![Xid(2), Xid(3)], vec![Xid(1), Xid(2), Xid(3)]]
        {
            let snap = Snapshot::new(Xid(4), concurrent);
            let entries = vec![(Vid(0), t2)];
            let (resolved, stats) =
                visible_versions_batch(&p, REL, &entries, &snap, &clog).unwrap();
            let (scalar, depth) = visible_version_depth(&p, REL, t2, &snap, &clog).unwrap();
            assert_eq!(resolved.len(), 1);
            assert_eq!(resolved[0].vid, Vid(0));
            assert_eq!(resolved[0].visible, scalar);
            assert_eq!(resolved[0].depth, depth);
            assert_eq!(stats.versions_fetched, depth);
            assert!(stats.page_visits <= stats.versions_fetched);
        }
    }

    #[test]
    fn batch_advances_within_page_without_repinning() {
        // X1 → X0 live on the same block: the walk past X1 must not
        // count a second page visit.
        let p = pool();
        let clog = Clog::new();
        let (_t0, t1, _t2) = figure1(&p, &clog);
        let snap = Snapshot::new(Xid(4), vec![Xid(2), Xid(3)]); // sees only X0
        let (resolved, stats) =
            visible_versions_batch(&p, REL, &[(Vid(0), t1)], &snap, &clog).unwrap();
        assert_eq!(resolved[0].visible.as_ref().unwrap().1.payload.as_ref(), b"X0");
        assert_eq!(resolved[0].depth, 2);
        assert_eq!(stats.versions_fetched, 2);
        assert_eq!(stats.page_visits, 1, "in-page pred hop must reuse the pin");
    }

    #[test]
    fn batch_shares_one_pin_across_cursors_on_a_page() {
        // Two distinct items whose entry versions share block 0.
        let p = pool();
        let clog = Clog::new();
        let a = put(&p, 0, &TupleVersion::initial(Xid(1), Vid(0), &b"a"[..]));
        let b = put(&p, 0, &TupleVersion::initial(Xid(1), Vid(1), &b"b"[..]));
        clog.commit(Xid(1));
        let snap = Snapshot::new(Xid(2), vec![]);
        let (resolved, stats) =
            visible_versions_batch(&p, REL, &[(Vid(0), a), (Vid(1), b)], &snap, &clog).unwrap();
        assert_eq!(resolved[0].visible.as_ref().unwrap().1.payload.as_ref(), b"a");
        assert_eq!(resolved[1].visible.as_ref().unwrap().1.payload.as_ref(), b"b");
        assert_eq!(stats.versions_fetched, 2);
        assert_eq!(stats.page_visits, 1, "co-resident cursors share the pin");
    }

    #[test]
    fn batch_preserves_input_order_across_blocks() {
        // Entries deliberately out of block order; results must come
        // back in input order regardless of traversal grouping.
        let p = pool();
        let clog = Clog::new();
        let a = put(&p, 2, &TupleVersion::initial(Xid(1), Vid(7), &b"blk2"[..]));
        let b = put(&p, 0, &TupleVersion::initial(Xid(1), Vid(8), &b"blk0"[..]));
        let c = put(&p, 1, &TupleVersion::initial(Xid(1), Vid(9), &b"blk1"[..]));
        clog.commit(Xid(1));
        let snap = Snapshot::new(Xid(2), vec![]);
        let entries = vec![(Vid(7), a), (Vid(8), b), (Vid(9), c)];
        let (resolved, _) = visible_versions_batch(&p, REL, &entries, &snap, &clog).unwrap();
        let payloads: Vec<&[u8]> =
            resolved.iter().map(|r| r.visible.as_ref().unwrap().1.payload.as_ref()).collect();
        assert_eq!(payloads, vec![&b"blk2"[..], b"blk0", b"blk1"]);
        assert_eq!(
            resolved.iter().map(|r| r.vid).collect::<Vec<_>>(),
            vec![Vid(7), Vid(8), Vid(9)]
        );
    }

    #[test]
    fn batch_handles_empty_input() {
        let p = pool();
        let clog = Clog::new();
        let snap = Snapshot::new(Xid(1), vec![]);
        let (resolved, stats) = visible_versions_batch(&p, REL, &[], &snap, &clog).unwrap();
        assert!(resolved.is_empty());
        assert_eq!(stats, BatchStats::default());
    }

    #[test]
    fn collect_chain_is_newest_first() {
        let p = pool();
        let clog = Clog::new();
        let (t0, t1, t2) = figure1(&p, &clog);
        let chain = collect_chain(&p, REL, t2).unwrap();
        let tids: Vec<Tid> = chain.iter().map(|(t, _)| *t).collect();
        assert_eq!(tids, vec![t2, t1, t0]);
        // Implicit invalidation: each version's create equals its
        // predecessor's recorded pred_create on the successor.
        assert_eq!(chain[0].1.pred_create, chain[1].1.create);
        assert_eq!(chain[1].1.pred_create, chain[2].1.create);
    }
}
