//! The VID map (§4.1.2, §4.1.3).
//!
//! One per relation; maps each data item's VID to the TID of its
//! *entrypoint* (newest tuple version). The paper's design points, all
//! reproduced here:
//!
//! * bucketed like pages: 1024 TID slots per bucket, so
//!   `bucket = vid / 1024` and `slot = vid % 1024` — a perfect hash with
//!   no overflow buckets because VIDs are assigned sequentially;
//! * buckets are allocated lazily as VIDs grow ("a new bucket is
//!   allocated after each 1024 consecutive VIDs"), which also makes VID
//!   range queries trivial;
//! * slot updates use atomic compare-and-swap — the paper §4.1.3:
//!   "Latching can be avoided by using atomic instructions (e.g. CAS) as
//!   it is not algorithmically needed";
//! * lookup is O(1) + CPU; update is calculate + CAS (the paper's
//!   `C_W = 2 * C_R` accounting);
//! * buckets can be persisted to pages at shutdown and reloaded, or the
//!   whole map can be rebuilt by scanning the relation (§6 *Recovery*).
//!
//! # Lock-free bucket directory
//!
//! The directory itself follows the same §4.1.3 discipline as the
//! slots: it is an **append-only two-level pointer array** with an
//! atomically published length, not a latched `Vec`. The root is a
//! fixed array of segment cells; each segment is a fixed array of
//! bucket cells; cells are write-once ([`std::sync::OnceLock`]), so a
//! reader either sees an initialized bucket — with all its slot writes
//! ordered behind the cell's release-publish — or an empty cell, never
//! a partially-built bucket. Growth never moves existing buckets (no
//! rehash, no epoch reclamation needed) and `get`/`set`/
//! `compare_and_set` touch no lock of any kind: a lookup is two
//! dependent acquire-loads plus the slot's atomic op.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use sias_common::config::VIDMAP_SLOTS_PER_BUCKET;
use sias_common::RelId;
use sias_common::{SiasResult, Tid, Vid};
use sias_obs::Counter;
use sias_storage::{BufferPool, Page};

/// The registry counters a VID map counts into, resolved by the engine
/// with the rest of its metrics. `Default` gives detached handles
/// (tests, standalone maps).
#[derive(Clone, Default)]
pub struct VidMapCounters {
    /// `core.vidmap.lookups` — entrypoint lookups served.
    pub lookups: Arc<Counter>,
    /// `core.vidmap.resizes` — bucket-directory growth events.
    pub resizes: Arc<Counter>,
}

/// One bucket: a page-shaped array of packed-TID slots (0 = empty).
struct Bucket {
    slots: Box<[AtomicU64]>,
}

impl Bucket {
    fn new() -> Bucket {
        let slots: Vec<AtomicU64> =
            (0..VIDMAP_SLOTS_PER_BUCKET).map(|_| AtomicU64::new(0)).collect();
        Bucket { slots: slots.into_boxed_slice() }
    }
}

/// Buckets per directory segment.
const SEGMENT_BUCKETS: usize = 256;
/// Segments in the root array: 4096 × 256 buckets × 1024 slots ≈ 2³⁰
/// addressable VIDs per relation, far beyond any simulated workload.
const ROOT_SEGMENTS: usize = 4096;

/// Second directory level: a fixed array of write-once bucket cells.
type Segment = Box<[OnceLock<Bucket>]>;

/// The VID → entrypoint-TID map of one relation.
pub struct VidMap {
    /// Two-level append-only directory (see module docs).
    root: Box<[OnceLock<Segment>]>,
    /// Published directory length in buckets: `fetch_max`-raised after a
    /// bucket is materialized. Iteration (`for_each`, `save_to`) walks
    /// `0..published`; readers of individual VIDs don't consult it.
    published: AtomicUsize,
    next_vid: AtomicU64,
    counters: VidMapCounters,
}

impl VidMap {
    /// Creates an empty map counting its lookups and growth into
    /// `counters`.
    pub fn new(counters: VidMapCounters) -> Self {
        let root: Vec<OnceLock<Segment>> = (0..ROOT_SEGMENTS).map(|_| OnceLock::new()).collect();
        VidMap {
            root: root.into_boxed_slice(),
            published: AtomicUsize::new(0),
            next_vid: AtomicU64::new(0),
            counters,
        }
    }

    /// Allocates the next sequential VID (insert path, Algorithm 2
    /// `getNewUniqueVID()`).
    pub fn allocate_vid(&self) -> Vid {
        Vid(self.next_vid.fetch_add(1, Ordering::Relaxed))
    }

    /// Upper bound of allocated VIDs (exclusive).
    pub fn vid_bound(&self) -> u64 {
        self.next_vid.load(Ordering::Relaxed)
    }

    /// Raises the allocator past `vid` (recovery: replayed items keep
    /// their original VIDs; fresh inserts must not collide).
    pub fn reserve_through(&self, vid: Vid) {
        self.next_vid.fetch_max(vid.0 + 1, Ordering::Relaxed);
    }

    #[inline]
    fn locate(vid: Vid) -> (usize, usize) {
        (
            (vid.0 / VIDMAP_SLOTS_PER_BUCKET as u64) as usize,
            (vid.0 % VIDMAP_SLOTS_PER_BUCKET as u64) as usize,
        )
    }

    /// Read-only bucket access: two dependent acquire-loads, no locks.
    #[inline]
    fn bucket(&self, b: usize) -> Option<&Bucket> {
        self.root.get(b / SEGMENT_BUCKETS)?.get()?[b % SEGMENT_BUCKETS].get()
    }

    /// Materializes bucket `b` (and its segment) if absent and raises
    /// the published directory length past it. Write-once cells make the
    /// race benign: every contender observes the same winner's bucket,
    /// and `fetch_max` ensures the published length only grows.
    fn ensure_bucket(&self, bucket: usize) -> &Bucket {
        let seg = self
            .root
            .get(bucket / SEGMENT_BUCKETS)
            .unwrap_or_else(|| panic!("vid map directory exhausted (bucket {bucket})"))
            .get_or_init(|| {
                (0..SEGMENT_BUCKETS).map(|_| OnceLock::new()).collect::<Vec<_>>().into_boxed_slice()
            });
        let cell = &seg[bucket % SEGMENT_BUCKETS];
        if let Some(b) = cell.get() {
            return b;
        }
        let b = cell.get_or_init(Bucket::new);
        if self.published.fetch_max(bucket + 1, Ordering::AcqRel) <= bucket {
            self.counters.resizes.inc();
        }
        b
    }

    /// Returns the entrypoint TID of `vid`, or `None` when the slot is
    /// empty (never inserted, or reclaimed).
    pub fn get(&self, vid: Vid) -> Option<Tid> {
        self.counters.lookups.inc();
        let (b, s) = Self::locate(vid);
        Tid::unpack(self.bucket(b)?.slots[s].load(Ordering::Acquire))
    }

    /// Unconditionally points `vid` at `tid` (insert path; the slot was
    /// empty or the caller holds the tuple lock).
    pub fn set(&self, vid: Vid, tid: Tid) {
        let (b, s) = Self::locate(vid);
        self.ensure_bucket(b).slots[s].store(tid.pack(), Ordering::Release);
    }

    /// Atomically swings the entrypoint from `expected` to `new`
    /// (update path). Returns `false` when the slot changed concurrently.
    pub fn compare_and_set(&self, vid: Vid, expected: Option<Tid>, new: Tid) -> bool {
        let (b, s) = Self::locate(vid);
        let cur = expected.map_or(0, Tid::pack);
        self.ensure_bucket(b).slots[s]
            .compare_exchange(cur, new.pack(), Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Atomically clears a slot only while it still holds `expected`
    /// (incremental GC erasing aged-out items under live traffic).
    /// Returns `false` when the entrypoint moved concurrently.
    pub fn compare_and_remove(&self, vid: Vid, expected: Tid) -> bool {
        let (b, s) = Self::locate(vid);
        self.ensure_bucket(b).slots[s]
            .compare_exchange(expected.pack(), 0, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Clears a slot (GC of fully-dead data items).
    pub fn remove(&self, vid: Vid) {
        let (b, s) = Self::locate(vid);
        if let Some(bucket) = self.bucket(b) {
            bucket.slots[s].store(0, Ordering::Release);
        }
    }

    /// Published directory length in buckets. Like the `Vec` length it
    /// replaces, this covers every bucket up to the highest touched VID
    /// (intervening buckets may not be materialized yet — they read as
    /// empty).
    pub fn bucket_count(&self) -> usize {
        self.published.load(Ordering::Acquire)
    }

    /// Resident memory footprint in bytes (§4.1.2 asks for "a low memory
    /// footprint": 8 bytes per slot, 1024 slots per bucket — ~8 KiB per
    /// 1024 data items, the same density as the paper's TID pages).
    pub fn memory_bytes(&self) -> usize {
        self.bucket_count() * VIDMAP_SLOTS_PER_BUCKET * std::mem::size_of::<u64>()
    }

    /// Number of occupied slots (O(capacity); diagnostics only).
    pub fn occupied(&self) -> u64 {
        (0..self.bucket_count())
            .filter_map(|bi| self.bucket(bi))
            .map(|b| b.slots.iter().filter(|s| s.load(Ordering::Relaxed) != 0).count() as u64)
            .sum()
    }

    /// Visits every occupied slot in VID order.
    pub fn for_each(&self, mut f: impl FnMut(Vid, Tid)) {
        for bi in 0..self.bucket_count() {
            let Some(bucket) = self.bucket(bi) else { continue };
            for (si, slot) in bucket.slots.iter().enumerate() {
                if let Some(tid) = Tid::unpack(slot.load(Ordering::Acquire)) {
                    f(Vid((bi * VIDMAP_SLOTS_PER_BUCKET + si) as u64), tid);
                }
            }
        }
    }

    /// Persists the map into pages of `rel` through the buffer pool:
    /// bucket *i* goes to block *i* verbatim (8 KiB of packed TIDs). The
    /// paper persists the structures only at shutdown (§6); this is that
    /// shutdown path.
    pub fn save_to(&self, pool: &BufferPool, rel: RelId) -> SiasResult<usize> {
        pool.space().create_relation(rel);
        let nbuckets = self.bucket_count();
        for bi in 0..nbuckets {
            while pool.space().relation_blocks(rel) <= bi as u32 {
                pool.allocate_block(rel)?;
            }
            let bucket = self.bucket(bi);
            pool.with_page_mut(rel, bi as u32, |page: &mut Page| {
                // 7 bytes per slot (presence flag + 32-bit block + 16-bit
                // slot): 1024 records fit the page body, mirroring the
                // paper's 6-byte TIDs + per-TID offset bits. Buckets the
                // directory never materialized persist as all-empty pages.
                let body = page.body_mut();
                for si in 0..VIDMAP_SLOTS_PER_BUCKET {
                    let off = si * 7;
                    let packed = match bucket {
                        Some(b) => b.slots[si].load(Ordering::Acquire),
                        None => 0,
                    };
                    match Tid::unpack(packed) {
                        Some(tid) => {
                            body[off] = 1;
                            body[off + 1..off + 5].copy_from_slice(&tid.block.to_le_bytes());
                            body[off + 5..off + 7].copy_from_slice(&tid.slot.to_le_bytes());
                        }
                        None => body[off..off + 7].fill(0),
                    }
                }
                page.set_flags(0x51A5);
            })?;
        }
        // Persist the VID high-water mark in block 0's LSN field... kept
        // in the header of the first page via set_lsn.
        if nbuckets > 0 {
            let bound = self.vid_bound();
            pool.with_page_mut(rel, 0, |page| page.set_lsn(bound))?;
        }
        Ok(nbuckets)
    }

    /// Reloads a map persisted by [`VidMap::save_to`], counting into
    /// detached handles (recovery rebuilds served maps by replay).
    pub fn load_from(pool: &BufferPool, rel: RelId) -> SiasResult<VidMap> {
        let map = VidMap::new(VidMapCounters::default());
        let nblocks = pool.space().relation_blocks(rel);
        for bi in 0..nblocks {
            let tids: Vec<Option<Tid>> = pool.with_page(rel, bi, |page| {
                let body = page.body();
                (0..VIDMAP_SLOTS_PER_BUCKET)
                    .map(|si| {
                        let off = si * 7;
                        if body[off] == 0 {
                            return None;
                        }
                        let block = u32::from_le_bytes(body[off + 1..off + 5].try_into().unwrap());
                        let slot = u16::from_le_bytes(body[off + 5..off + 7].try_into().unwrap());
                        Some(Tid::new(block, slot))
                    })
                    .collect()
            })?;
            for (si, tid) in tids.into_iter().enumerate() {
                if let Some(tid) = tid {
                    map.set(Vid((bi as usize * VIDMAP_SLOTS_PER_BUCKET + si) as u64), tid);
                }
            }
        }
        if nblocks > 0 {
            let bound = pool.with_page(rel, 0, |page| page.lsn())?;
            map.next_vid.store(bound, Ordering::Relaxed);
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn vids_are_sequential() {
        let m = VidMap::new(Default::default());
        assert_eq!(m.allocate_vid(), Vid(0));
        assert_eq!(m.allocate_vid(), Vid(1));
        assert_eq!(m.vid_bound(), 2);
    }

    #[test]
    fn set_get_remove() {
        let m = VidMap::new(Default::default());
        let v = m.allocate_vid();
        assert_eq!(m.get(v), None);
        m.set(v, Tid::new(3, 4));
        assert_eq!(m.get(v), Some(Tid::new(3, 4)));
        m.remove(v);
        assert_eq!(m.get(v), None);
    }

    #[test]
    fn bucket_geometry_matches_paper() {
        let m = VidMap::new(Default::default());
        m.set(Vid(0), Tid::new(1, 1));
        assert_eq!(m.bucket_count(), 1);
        m.set(Vid(1023), Tid::new(1, 2));
        assert_eq!(m.bucket_count(), 1, "1024 slots per bucket");
        m.set(Vid(1024), Tid::new(1, 3));
        assert_eq!(m.bucket_count(), 2, "new bucket after 1024 consecutive VIDs");
        m.set(Vid(10_000), Tid::new(1, 4));
        assert_eq!(m.bucket_count(), 10_000 / 1024 + 1);
    }

    #[test]
    fn cas_swings_entrypoint() {
        let m = VidMap::new(Default::default());
        let v = m.allocate_vid();
        assert!(m.compare_and_set(v, None, Tid::new(1, 0)));
        assert!(!m.compare_and_set(v, None, Tid::new(2, 0)), "stale expectation");
        assert!(m.compare_and_set(v, Some(Tid::new(1, 0)), Tid::new(2, 0)));
        assert_eq!(m.get(v), Some(Tid::new(2, 0)));
    }

    #[test]
    fn lookups_and_growth_count_into_the_given_handles() {
        let counters = VidMapCounters::default();
        let m = VidMap::new(counters.clone());
        m.set(Vid(0), Tid::new(1, 1));
        m.set(Vid(5000), Tid::new(1, 2));
        m.get(Vid(0));
        m.get(Vid(7));
        assert_eq!(counters.lookups.get(), 2);
        assert_eq!(counters.resizes.get(), 2, "buckets 0 and 4 published the directory");
    }

    #[test]
    fn get_of_unallocated_bucket_is_none() {
        let m = VidMap::new(Default::default());
        assert_eq!(m.get(Vid(999_999)), None);
    }

    #[test]
    fn for_each_visits_in_vid_order() {
        let m = VidMap::new(Default::default());
        for i in [5u64, 1500, 3] {
            m.set(Vid(i), Tid::new(i as u32, 0));
        }
        let mut seen = Vec::new();
        m.for_each(|v, t| seen.push((v, t)));
        assert_eq!(
            seen,
            vec![
                (Vid(3), Tid::new(3, 0)),
                (Vid(5), Tid::new(5, 0)),
                (Vid(1500), Tid::new(1500, 0)),
            ]
        );
        assert_eq!(m.occupied(), 3);
    }

    #[test]
    fn concurrent_cas_has_single_winner() {
        let m = Arc::new(VidMap::new(Default::default()));
        let v = m.allocate_vid();
        m.set(v, Tid::new(0, 0));
        let mut handles = vec![];
        for t in 1..=8u32 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                m.compare_and_set(v, Some(Tid::new(0, 0)), Tid::new(t, 0))
            }));
        }
        let winners = handles.into_iter().map(|h| h.join().unwrap()).filter(|&w| w).count();
        assert_eq!(winners, 1, "exactly one CAS must win");
    }

    #[test]
    fn persistence_roundtrip() {
        use sias_storage::device::MemDevice;
        use sias_storage::Tablespace;
        let dev = Arc::new(MemDevice::standalone(1 << 16));
        let space = Arc::new(Tablespace::new(1 << 16));
        let pool = BufferPool::new(64, dev, space);
        let m = VidMap::new(Default::default());
        for _ in 0..2500 {
            let v = m.allocate_vid();
            if !v.0.is_multiple_of(3) {
                m.set(v, Tid::new(v.0 as u32 * 2, (v.0 % 100) as u16));
            }
        }
        let rel = RelId(900);
        let buckets = m.save_to(&pool, rel).unwrap();
        assert_eq!(buckets, 3); // 2500 vids → 3 buckets
        let restored = VidMap::load_from(&pool, rel).unwrap();
        assert_eq!(restored.vid_bound(), 2500);
        for i in 0..2500u64 {
            assert_eq!(restored.get(Vid(i)), m.get(Vid(i)), "vid {i}");
        }
    }
}
