//! Tuple-granular append storage (the paper's LbSM).
//!
//! "The SIAS-Chains LbSM appends just the newly created versions … to a
//! reserved database page. Once a given threshold is reached the page is
//! appended to stable storage, resulting in significantly fewer write
//! I/Os." (§1)
//!
//! Each relation owns one *open append page* in the buffer pool; every
//! insert/update/delete appends its new tuple version there. When the
//! page cannot hold the next version it is sealed and a new block is
//! opened. What happens to sealed and half-filled pages is the
//! **flush-threshold policy** of §5.2:
//!
//! * [`FlushPolicy::T1`] — the PostgreSQL background-writer default: the
//!   engine's maintenance tick flushes dirty pages aggressively, so open
//!   (sparsely filled) append pages are persisted early and re-persisted
//!   as they fill ("sparsely filled pages are persisted too frequently,
//!   leading to … a higher amount of write requests");
//! * [`FlushPolicy::T2`] — checkpoint piggy-back: a page is written once,
//!   asynchronously, when it seals full; otherwise only a checkpoint
//!   flushes it. This is the write-optimal policy (97 % reduction in
//!   Table 1).
//!
//! Sealed pages whose contents were later garbage-collected are recycled
//! through a free-block list before the relation is extended.

use std::collections::BTreeSet;
use std::sync::Arc;

use parking_lot::Mutex;
use sias_common::{BlockId, RelId, SiasResult, Tid};
use sias_storage::BufferPool;

/// Append-page flush threshold (§5.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Background-writer default: flush early and often.
    T1,
    /// Checkpoint piggy-back: flush full pages once.
    T2,
}

struct AppendState {
    /// The open append block, if any.
    open: Option<BlockId>,
    /// Blocks fully reclaimed by GC, ready for reuse.
    free: BTreeSet<BlockId>,
    /// Count of pages sealed since creation.
    sealed: u64,
}

/// The per-relation append region.
pub struct AppendRegion {
    rel: RelId,
    pool: Arc<BufferPool>,
    policy: FlushPolicy,
    state: Mutex<AppendState>,
}

impl AppendRegion {
    /// Creates an append region for `rel` (relation must exist in the
    /// pool's tablespace).
    pub fn new(rel: RelId, pool: Arc<BufferPool>, policy: FlushPolicy) -> Self {
        AppendRegion {
            rel,
            pool,
            policy,
            state: Mutex::new(AppendState { open: None, free: BTreeSet::new(), sealed: 0 }),
        }
    }

    /// The flush policy in effect.
    pub fn policy(&self) -> FlushPolicy {
        self.policy
    }

    /// Number of pages sealed (filled and closed) so far.
    pub fn sealed_pages(&self) -> u64 {
        self.state.lock().sealed
    }

    /// Appends one encoded tuple version; returns its TID. Every
    /// modification operation in SIAS funnels through here — "every
    /// modification operation is executed as an append" (§7).
    pub fn append(&self, item: &[u8]) -> SiasResult<Tid> {
        let mut st = self.state.lock();
        loop {
            let block = match st.open {
                Some(b) => b,
                None => {
                    let b = match st.free.pop_first() {
                        Some(b) => {
                            // Recycled block: reset to an empty page in
                            // place. `reset_block` never reads the dead
                            // (TRIMmed, possibly once-corrupt) image back
                            // from the device.
                            self.pool.reset_block(self.rel, b)?;
                            b
                        }
                        None => self.pool.allocate_block(self.rel)?,
                    };
                    st.open = Some(b);
                    b
                }
            };
            let slot = self.pool.with_page_mut(self.rel, block, |p| p.add_item(item))??;
            match slot {
                Some(slot) => return Ok(Tid::new(block, slot)),
                None => {
                    // Page full: seal it. Under T2 the sealed page is
                    // written out (asynchronously) right now — once, full.
                    st.sealed += 1;
                    st.open = None;
                    if self.policy == FlushPolicy::T2 {
                        self.pool.flush_block(self.rel, block, false)?;
                    }
                    // Loop: open a new block and retry. Termination: any
                    // item that passes `Page::add_item`'s own size check
                    // fits an empty page, and the reopened block is empty.
                }
            }
        }
    }

    /// The currently open (partially filled) append block, if any.
    pub fn open_block(&self) -> Option<BlockId> {
        self.state.lock().open
    }

    /// Hands a reclaimed block back for reuse (GC). The cached copy is
    /// dropped without write-back and the device page is TRIMmed — dead
    /// append pages must never be relocated by the FTL's own garbage
    /// collector (§6).
    ///
    /// The discard runs under the region lock, before the block joins
    /// the free list: an append that reopened the block in between would
    /// otherwise lose what it wrote when the late discard dropped the
    /// cached page.
    pub fn recycle(&self, block: BlockId) {
        let mut st = self.state.lock();
        if st.open == Some(block) {
            st.open = None;
        }
        let _ = self.pool.discard_block(self.rel, block);
        st.free.insert(block);
    }

    /// True when `block` sits on the reclaimed free list (its contents
    /// are dead and must not be scanned).
    pub fn is_free(&self, block: BlockId) -> bool {
        self.state.lock().free.contains(&block)
    }

    /// True when `block` is neither the open append page nor on the free
    /// list: its contents are final until a recycle frees it. Both are
    /// read under one lock, so a free block that an append opens
    /// concurrently never passes for sealed.
    pub(crate) fn is_sealed(&self, block: BlockId) -> bool {
        let st = self.state.lock();
        st.open != Some(block) && !st.free.contains(&block)
    }

    /// Number of recycled blocks waiting for reuse.
    pub fn free_blocks(&self) -> usize {
        self.state.lock().free.len()
    }

    /// Persists the open append page if dirty — the t1 "persist early"
    /// behaviour, invoked from the engine's maintenance tick. Because the
    /// LbSM appends pages to stable storage, a page that has been
    /// physically appended is **sealed**: subsequent tuple versions open
    /// a fresh page. This is exactly why §5.2 finds t1 "less suitable":
    /// "sparsely filled pages are persisted too frequently, leading to a
    /// poor overall space consumption, wasted space and a higher amount
    /// of write requests".
    pub fn flush_open(&self) -> SiasResult<bool> {
        let mut st = self.state.lock();
        let Some(b) = st.open else { return Ok(false) };
        let flushed = self.pool.flush_block(self.rel, b, false)?;
        if flushed {
            st.sealed += 1;
            st.open = None;
        }
        Ok(flushed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sias_common::SiasError;
    use sias_storage::device::{Device, MemDevice};
    use sias_storage::Tablespace;

    fn region(policy: FlushPolicy) -> (AppendRegion, Arc<MemDevice>) {
        let dev = Arc::new(MemDevice::standalone(1 << 16));
        let space = Arc::new(Tablespace::new(1 << 16));
        let rel = RelId(1);
        space.create_relation(rel);
        let pool = Arc::new(BufferPool::new(64, Arc::clone(&dev) as _, space));
        (AppendRegion::new(rel, pool, policy), dev)
    }

    #[test]
    fn appends_fill_one_page_before_opening_next() {
        let (r, _d) = region(FlushPolicy::T2);
        let item = vec![0u8; 100];
        let mut tids = Vec::new();
        for _ in 0..100 {
            tids.push(r.append(&item).unwrap());
        }
        // 104 bytes each → 78 per page: first 78 on block 0.
        assert!(tids[..78].iter().all(|t| t.block == 0));
        assert!(tids[78..].iter().all(|t| t.block == 1));
        assert_eq!(r.sealed_pages(), 1);
    }

    #[test]
    fn t2_writes_each_sealed_page_once() {
        let (r, d) = region(FlushPolicy::T2);
        let item = vec![0u8; 1000];
        for _ in 0..64 {
            r.append(&item).unwrap();
        }
        // 8 items per page → 8 sealed pages at 64 items... exactly 8 pages
        // hold 64 items with the last one open.
        let sealed = r.sealed_pages();
        assert!(sealed >= 7);
        assert_eq!(d.stats().host_write_pages, sealed, "one device write per sealed page");
    }

    #[test]
    fn t1_flush_seals_sparse_pages() {
        let (r, d) = region(FlushPolicy::T1);
        let item = vec![0u8; 100];
        for _ in 0..10 {
            r.append(&item).unwrap();
            r.flush_open().unwrap(); // maintenance tick after every append
        }
        // Each tick appended a nearly-empty page to storage and sealed
        // it: ten sparse pages written, ten device writes — the t1 write
        // and space bloat of §5.2.
        assert_eq!(d.stats().host_write_pages, 10);
        assert_eq!(r.sealed_pages(), 10);
        assert_eq!(r.open_block(), None);
        // A clean tick does nothing.
        assert!(!r.flush_open().unwrap());
    }

    #[test]
    fn recycled_blocks_are_reused() {
        let (r, _d) = region(FlushPolicy::T2);
        let item = vec![0u8; 4100]; // one item per page
        let t0 = r.append(&item).unwrap();
        let t1 = r.append(&item).unwrap(); // seals block 0, opens block 1
        assert_eq!((t0.block, t1.block), (0, 1));
        r.recycle(0);
        assert_eq!(r.free_blocks(), 1);
        assert!(r.is_free(0));
        // Sealing block 1 must reuse the recycled block 0 first.
        let t2 = r.append(&item).unwrap();
        assert_eq!(t2.block, 0, "recycled block reused before extending");
        assert!(!r.is_free(0));
        assert_eq!(r.free_blocks(), 0);
        let t3 = r.append(&item).unwrap();
        assert_eq!(t3.block, 2, "then the relation extends");
    }

    #[test]
    fn oversized_item_rejected_not_looped() {
        let (r, _d) = region(FlushPolicy::T2);
        let err = r.append(&vec![0u8; 9000]).unwrap_err();
        assert!(matches!(err, SiasError::TupleTooLarge { .. }));
    }

    #[test]
    fn flush_open_is_noop_when_clean() {
        let (r, d) = region(FlushPolicy::T1);
        r.append(&[1, 2, 3]).unwrap();
        assert!(r.flush_open().unwrap());
        assert!(!r.flush_open().unwrap(), "already clean");
        assert_eq!(d.stats().host_write_pages, 1);
    }
}
