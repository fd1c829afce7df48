//! Buffer pool with clock-sweep replacement.
//!
//! A fixed array of 8 KiB frames caches relation pages. The pool is the
//! mediator between the engines and the device models:
//!
//! * a page **hit** costs nothing (virtual time only moves on device
//!   access);
//! * a **miss** reads the page synchronously from the device; when the
//!   chosen victim frame is dirty it is first written back synchronously
//!   (a backend-eviction write, as in PostgreSQL when the background
//!   writer cannot keep up);
//! * [`BufferPool::bgwriter_round`] flushes dirty unpinned pages
//!   *asynchronously* — this is the paper's threshold **t1** policy knob
//!   ("the default setting of the PostgreSQL background writer process");
//! * [`BufferPool::flush_all`] is the checkpoint — threshold **t2**
//!   ("defined by each checkpoint interval (piggy back)").
//!
//! # Locking discipline
//!
//! The page table is **lock-striped**: keys hash to one of N shards,
//! each owning a disjoint range of frames, its own `Mutex<HashMap>`
//! mapping table, and its own clock hand. Page pins from different
//! terminals therefore only contend on a table when they touch the same
//! shard, and a clock sweep never scans or evicts another shard's
//! frames. The invariant that makes this sound: a key's shard is a pure
//! function of the key, so a frame owned by shard *s* only ever caches
//! keys that hash to *s*. Hits, misses and evictions count straight
//! into the registry's `storage.buffer.*` counters, one shared atomic
//! each: every fetch takes the pool-wide quarantine lock first anyway.
//!
//! `with_page` / `with_page_mut` run a closure under the frame latch.
//! **Closures must not re-enter the buffer pool** — nested calls can
//! deadlock against the shard table lock. All engines in this workspace
//! copy tuple bytes out of the closure and operate page-at-a-time. So a
//! pin lasts exactly one closure, which is what lets a miss that finds
//! every frame of its shard pinned wait for an unpin rather than fail.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use sias_common::{BlockId, RelId, SiasError, SiasResult};
use sias_obs::{Counter, FlightRecorder, Registry, SpanName};

use crate::device::{retry_io, Device, RetryClock, RetryCtx, RetryPolicy};
use crate::io_queue::{IoOp, IoQueue};
use crate::page::Page;
use crate::tablespace::Tablespace;

/// Buffer pool statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Lookups served from the pool.
    pub hits: u64,
    /// Lookups that had to read from the device.
    pub misses: u64,
    /// Victim frames recycled.
    pub evictions: u64,
    /// Dirty victims written back synchronously at eviction.
    pub eviction_writes: u64,
    /// Pages flushed by the background writer.
    pub bgwriter_writes: u64,
    /// Pages flushed by checkpoints.
    pub checkpoint_writes: u64,
}

/// Registry-backed counter handles (`storage.buffer.*`). Resolved once
/// at pool construction; recording is a relaxed atomic add.
struct PoolCounters {
    tracer: Arc<FlightRecorder>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    eviction_writes: Arc<Counter>,
    bgwriter_writes: Arc<Counter>,
    checkpoint_writes: Arc<Counter>,
    checksum_failures: Arc<Counter>,
}

impl PoolCounters {
    fn register(obs: &Registry) -> Self {
        PoolCounters {
            tracer: Arc::clone(obs.tracer()),
            hits: obs.counter("storage.buffer.hits"),
            misses: obs.counter("storage.buffer.misses"),
            evictions: obs.counter("storage.buffer.evictions"),
            eviction_writes: obs.counter("storage.buffer.eviction_writes"),
            bgwriter_writes: obs.counter("storage.buffer.bgwriter_writes"),
            checkpoint_writes: obs.counter("storage.buffer.checkpoint_writes"),
            checksum_failures: obs.counter("storage.buffer.checksum_failures"),
        }
    }
}

struct FrameData {
    key: Option<(RelId, BlockId)>,
    page: Page,
    dirty: bool,
}

struct Frame {
    data: RwLock<FrameData>,
    pins: AtomicU32,
    usage: AtomicU32,
}

/// One lock stripe of the page table: a disjoint range of frames
/// (`lo .. lo + len`), the mapping table for keys hashing here, and a
/// private clock hand sweeping only this shard's frames.
struct Shard {
    table: Mutex<HashMap<(RelId, BlockId), usize>>,
    hand: AtomicUsize,
    lo: usize,
    len: usize,
}

/// A sharded clock-sweep buffer pool over one device + tablespace.
pub struct BufferPool {
    frames: Vec<Frame>,
    shards: Vec<Shard>,
    device: Arc<dyn Device>,
    space: Arc<Tablespace>,
    retry: RetryPolicy,
    retry_ctx: RetryCtx,
    /// Async submit/reap queue for batched miss fills and checkpoint
    /// write-back; `None` keeps every path on blocking per-page I/O.
    io: Option<Arc<IoQueue>>,
    stats: PoolCounters,
    /// Pages that failed checksum verification, keyed by page id with
    /// the `(stored, computed)` CRC pair that condemned them. A
    /// quarantined page fails every fetch fast (no device read, no
    /// decode) until the scrubber repairs it and the block is discarded.
    quarantine: Mutex<HashMap<(RelId, BlockId), (u32, u32)>>,
}

/// SplitMix64 finalizer — cheap, well-mixed shard selection.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl BufferPool {
    /// Creates a pool of `nframes` frames over `device`, addressed through
    /// `space`. Stats live in a private metrics registry; use
    /// [`BufferPool::with_registry`] to share one.
    pub fn new(nframes: usize, device: Arc<dyn Device>, space: Arc<Tablespace>) -> Self {
        Self::with_registry(nframes, device, space, &Registry::new())
    }

    /// Like [`BufferPool::new`], but registers the `storage.buffer.*`
    /// counters in `obs` so they show up in that registry's snapshots.
    /// The shard count is chosen automatically (one stripe per ~128
    /// frames, at most 8); use [`BufferPool::with_registry_sharded`] to
    /// pick it explicitly.
    pub fn with_registry(
        nframes: usize,
        device: Arc<dyn Device>,
        space: Arc<Tablespace>,
        obs: &Registry,
    ) -> Self {
        Self::with_registry_sharded(nframes, 0, device, space, obs)
    }

    /// Like [`BufferPool::with_registry`] with an explicit shard count.
    /// `nshards == 0` selects the automatic heuristic. The effective
    /// count is clamped so every shard owns at least two frames (a shard
    /// must always be able to hold one pinned page and one victim).
    pub fn with_registry_sharded(
        nframes: usize,
        nshards: usize,
        device: Arc<dyn Device>,
        space: Arc<Tablespace>,
        obs: &Registry,
    ) -> Self {
        assert!(nframes >= 2, "pool needs at least two frames");
        let auto = (nframes / 128).clamp(1, 8);
        let nshards = if nshards == 0 { auto } else { nshards }.clamp(1, nframes / 2);
        let frames: Vec<Frame> = (0..nframes)
            .map(|_| Frame {
                data: RwLock::new(FrameData { key: None, page: Page::new(), dirty: false }),
                pins: AtomicU32::new(0),
                usage: AtomicU32::new(0),
            })
            .collect();
        // Partition frames into contiguous per-shard ranges; the first
        // `nframes % nshards` shards take one extra frame.
        let base = nframes / nshards;
        let extra = nframes % nshards;
        let mut lo = 0usize;
        let shards = (0..nshards)
            .map(|s| {
                let len = base + usize::from(s < extra);
                let shard =
                    Shard { table: Mutex::new(HashMap::new()), hand: AtomicUsize::new(0), lo, len };
                lo += len;
                shard
            })
            .collect();
        BufferPool {
            frames,
            shards,
            device,
            space,
            retry: RetryPolicy::default(),
            retry_ctx: RetryCtx {
                retries: obs.counter("storage.buffer.io_retries"),
                backoff_ticks: obs.histogram("storage.io.retry_backoff_ticks"),
                clock: RetryClock::Disabled,
                budget: None,
            },
            io: None,
            stats: PoolCounters::register(obs),
            quarantine: Mutex::new(HashMap::new()),
        }
    }

    /// The shard a key hashes to.
    fn shard_of(&self, key: (RelId, BlockId)) -> &Shard {
        let h = mix64(((key.0 .0 as u64) << 32) | key.1 as u64);
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Overrides the transient-error retry policy (builder style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Charges retry backoff to the virtual `clock` (builder style;
    /// simulated devices).
    pub fn with_clock(self, clock: Arc<sias_common::VirtualClock>) -> Self {
        self.with_retry_clock(RetryClock::Virtual(clock))
    }

    /// Selects the retry backoff clock source explicitly (builder
    /// style): virtual for simulated devices, wall for real files.
    pub fn with_retry_clock(mut self, clock: RetryClock) -> Self {
        self.retry_ctx.clock = clock;
        self
    }

    /// Attaches an async I/O queue (builder style): batched prefetch
    /// fills and queued checkpoint write-back run through it.
    pub fn with_io_queue(mut self, io: Arc<IoQueue>) -> Self {
        self.io = Some(io);
        self
    }

    /// Draws retries from a shared
    /// [`RetryBudget`](crate::device::RetryBudget) instead of giving every
    /// miss/write-back its full per-op allowance (builder style).
    pub fn with_budget(mut self, budget: Arc<crate::device::RetryBudget>) -> Self {
        self.retry_ctx.budget = Some(budget);
        self
    }

    /// True when an async I/O queue is attached (callers use this to
    /// decide whether batching a round of misses is worth collecting).
    pub fn has_io_queue(&self) -> bool {
        self.io.is_some()
    }

    /// The tablespace this pool addresses through.
    pub fn space(&self) -> &Arc<Tablespace> {
        &self.space
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<dyn Device> {
        &self.device
    }

    /// Number of frames.
    pub fn nframes(&self) -> usize {
        self.frames.len()
    }

    /// Number of lock stripes in the page table.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// A read of the `storage.buffer.*` counters.
    pub fn stats(&self) -> BufferStats {
        BufferStats {
            hits: self.stats.hits.get(),
            misses: self.stats.misses.get(),
            evictions: self.stats.evictions.get(),
            eviction_writes: self.stats.eviction_writes.get(),
            bgwriter_writes: self.stats.bgwriter_writes.get(),
            checkpoint_writes: self.stats.checkpoint_writes.get(),
        }
    }

    /// Runs `f` with shared access to the page.
    pub fn with_page<R>(
        &self,
        rel: RelId,
        block: BlockId,
        f: impl FnOnce(&Page) -> R,
    ) -> SiasResult<R> {
        let idx = self.fetch(rel, block, false)?;
        let frame = &self.frames[idx];
        let guard = frame.data.read();
        debug_assert_eq!(guard.key, Some((rel, block)));
        let r = f(&guard.page);
        drop(guard);
        frame.pins.fetch_sub(1, Ordering::Release);
        Ok(r)
    }

    /// Runs `f` with exclusive access to the page and marks it dirty.
    pub fn with_page_mut<R>(
        &self,
        rel: RelId,
        block: BlockId,
        f: impl FnOnce(&mut Page) -> R,
    ) -> SiasResult<R> {
        let idx = self.fetch(rel, block, false)?;
        let frame = &self.frames[idx];
        let mut guard = frame.data.write();
        debug_assert_eq!(guard.key, Some((rel, block)));
        guard.dirty = true;
        let r = f(&mut guard.page);
        drop(guard);
        frame.pins.fetch_sub(1, Ordering::Release);
        Ok(r)
    }

    /// Extends `rel` by one zero-initialized page, resident and dirty.
    /// Returns the new block id.
    pub fn allocate_block(&self, rel: RelId) -> SiasResult<BlockId> {
        let block = self.space.allocate_block(rel)?;
        let idx = self.fetch(rel, block, true)?;
        let frame = &self.frames[idx];
        {
            let mut guard = frame.data.write();
            guard.page = Page::new();
            guard.dirty = true;
        }
        frame.pins.fetch_sub(1, Ordering::Release);
        Ok(block)
    }

    /// Pins a resident frame for the caller and bumps its usage count
    /// (capped at 3), as a table hit does.
    fn pin_resident(&self, idx: usize) -> usize {
        let frame = &self.frames[idx];
        frame.pins.fetch_add(1, Ordering::Acquire);
        if frame.usage.load(Ordering::Relaxed) < 3 {
            frame.usage.fetch_add(1, Ordering::Relaxed);
        }
        idx
    }

    /// Classic clock sweep over `shard`'s frames: the first unpinned
    /// frame whose usage count has decayed to zero, decrementing the
    /// counts it passes, or `None` after five laps (every frame pinned,
    /// or hot throughout). Call with the shard table held.
    fn clock_victim(&self, shard: &Shard) -> Option<usize> {
        let n = shard.len;
        for _ in 0..5 * n {
            let idx = shard.lo + shard.hand.fetch_add(1, Ordering::Relaxed) % n;
            let frame = &self.frames[idx];
            if frame.pins.load(Ordering::Acquire) > 0 {
                continue;
            }
            if frame.usage.load(Ordering::Relaxed) > 0 {
                frame.usage.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            return Some(idx);
        }
        None
    }

    /// Looks the page up, reading it in on a miss. Returns the frame
    /// index with one pin held by the caller. All table work happens in
    /// the key's shard: the hit probe, the victim sweep (only this
    /// shard's frames) and the mapping update, so fetches of keys in
    /// different shards never serialize on one lock.
    fn fetch(&self, rel: RelId, block: BlockId, fresh: bool) -> SiasResult<usize> {
        let key = (rel, block);
        if !fresh {
            // Quarantined pages fail fast: no device read, no decode,
            // same typed error the original verification failure raised.
            if let Some(&(stored, computed)) = self.quarantine.lock().get(&key) {
                return Err(SiasError::CorruptPage {
                    rel,
                    block,
                    expected: stored,
                    actual: computed,
                });
            }
        }
        let shard = self.shard_of(key);
        let mut table = shard.table.lock();
        if let Some(&idx) = table.get(&key) {
            self.stats.hits.inc();
            return Ok(self.pin_resident(idx));
        }
        self.stats.misses.inc();
        // The whole miss path — victim search, eviction write-back, and
        // the synchronous device read — counts as the miss span.
        let _span = self.stats.tracer.span(SpanName::PoolMiss).arg(block as u64);
        // With every frame of the shard pinned, wait for an unpin instead
        // of failing: a pin lasts one closure, which never re-enters the
        // pool, so it is released without this thread's help. The table
        // is released meanwhile, and the key looked up again after each
        // yield — another thread may have read the page in.
        let idx = loop {
            if let Some(idx) = self.clock_victim(shard) {
                break idx;
            }
            drop(table);
            std::thread::yield_now();
            table = shard.table.lock();
            if let Some(&idx) = table.get(&key) {
                return Ok(self.pin_resident(idx));
            }
        };
        let frame = &self.frames[idx];
        frame.pins.fetch_add(1, Ordering::Acquire);
        // Take the frame latch *before* publishing the new mapping so no
        // reader can observe stale contents. The latch is taken while
        // the shard table is still held — victim selection saw pins ==
        // 0 under this same table lock, so nobody holds or awaits this
        // frame and the acquisition cannot block.
        let mut guard = frame.data.write();
        if let Some(old_key) = guard.key {
            if old_key == key {
                // The clock hand landed on our own key (possible when the
                // table and frame disagree transiently); treat as hit.
                table.insert(key, idx);
                drop(guard);
                drop(table);
                return Ok(idx);
            }
            if guard.dirty {
                // Backend eviction write: synchronous, *before* the
                // victim's mapping is removed. Un-publishing first would
                // let a concurrent miss on the old key read the device
                // mid-write-back and cache a stale image. Transient
                // errors are retried; if the write still fails the
                // victim simply stays mapped and dirty — nothing to
                // revert — and the error propagates.
                let lba = match self.space.resolve(old_key.0, old_key.1) {
                    Ok(lba) => lba,
                    Err(e) => {
                        drop(guard);
                        drop(table);
                        frame.pins.fetch_sub(1, Ordering::Release);
                        return Err(e);
                    }
                };
                guard.page.stamp_checksum();
                let res = retry_io(self.retry, &self.retry_ctx, || {
                    self.device.try_write_page(lba, guard.page.as_bytes(), true)
                });
                if let Err(e) = res {
                    drop(guard);
                    drop(table);
                    frame.pins.fetch_sub(1, Ordering::Release);
                    return Err(e);
                }
                guard.dirty = false;
                self.stats.eviction_writes.inc();
            }
            // A frame owned by this shard only ever holds keys hashing
            // to this shard, so the victim's mapping lives in `table`.
            table.remove(&old_key);
            self.stats.evictions.inc();
        }
        table.insert(key, idx);
        frame.usage.store(1, Ordering::Relaxed);
        drop(table);

        guard.key = Some(key);
        guard.dirty = false;
        if fresh {
            guard.page = Page::new();
        } else {
            let lba = self.space.resolve(rel, block)?;
            let mut buf = vec![0u8; sias_common::PAGE_SIZE];
            let res =
                retry_io(self.retry, &self.retry_ctx, || self.device.try_read_page(lba, &mut buf));
            let res = res.and_then(|()| {
                let page = Page::from_bytes(&buf);
                match page.checksum_mismatch() {
                    None => Ok(page),
                    Some((stored, computed)) => {
                        // The image is damaged: quarantine the page id so
                        // every later fetch fails fast, and surface a
                        // typed error instead of decoding garbage.
                        self.stats.checksum_failures.inc();
                        self.quarantine.lock().insert(key, (stored, computed));
                        Err(SiasError::CorruptPage {
                            rel,
                            block,
                            expected: stored,
                            actual: computed,
                        })
                    }
                }
            });
            match res {
                Ok(page) => guard.page = page,
                Err(e) => {
                    // The frame holds neither the old page (already
                    // written back or clean) nor the new one: unmap it
                    // entirely.
                    guard.key = None;
                    drop(guard);
                    let mut table = shard.table.lock();
                    if table.get(&key) == Some(&idx) {
                        table.remove(&key);
                    }
                    drop(table);
                    frame.pins.fetch_sub(1, Ordering::Release);
                    return Err(e);
                }
            }
        }
        drop(guard);
        Ok(idx)
    }

    /// Best-effort batched prefetch: issues one async read batch for
    /// every non-resident, non-quarantined page of `blocks` and
    /// installs the images, returning how many pages were brought in.
    /// A no-op without an attached [`IoQueue`].
    ///
    /// Correctness follows the miss path's IO-in-progress discipline:
    /// each target frame is pinned and write-latched *before* its read
    /// is submitted and stays latched until the image is installed, so
    /// no concurrent fetch can fault the same page in, dirty it, and
    /// have this prefetch overwrite it with a stale image. Frames under
    /// prefetch are published in the shard table (concurrent fetches of
    /// the same key pin them and wait on the latch like any hit).
    /// Failures (read error, checksum mismatch, no evictable victim)
    /// skip the page; the foreground fetch will retry it blocking and
    /// surface the error with proper retries attached.
    pub fn prefetch_blocks(&self, rel: RelId, blocks: &[BlockId]) -> usize {
        let Some(io) = self.io.as_ref() else { return 0 };
        struct Pending<'a> {
            idx: usize,
            key: (RelId, BlockId),
            guard: parking_lot::RwLockWriteGuard<'a, FrameData>,
        }
        let mut pending: Vec<Pending<'_>> = Vec::new();
        let mut lbas: Vec<u64> = Vec::new();
        for &block in blocks {
            let key = (rel, block);
            if self.quarantine.lock().contains_key(&key) {
                continue;
            }
            let Ok(lba) = self.space.resolve(rel, block) else { continue };
            let shard = self.shard_of(key);
            let mut table = shard.table.lock();
            if table.contains_key(&key) {
                continue; // resident (or already claimed by this batch)
            }
            self.stats.misses.inc();
            // Pool pressure (everything pinned or hot): prefetching is
            // optional, leave the page to the foreground fetch.
            let Some(idx) = self.clock_victim(shard) else { continue };
            let frame = &self.frames[idx];
            frame.pins.fetch_add(1, Ordering::Acquire);
            // Same ordering as `fetch`: latch under the table lock; the
            // sweep saw pins == 0 here, so this cannot block.
            let mut guard = frame.data.write();
            if let Some(old_key) = guard.key {
                if old_key == key {
                    // Table and frame disagreed transiently; the frame
                    // already holds our page — republish and move on.
                    table.insert(key, idx);
                    drop(guard);
                    drop(table);
                    frame.pins.fetch_sub(1, Ordering::Release);
                    continue;
                }
                if guard.dirty {
                    let Ok(old_lba) = self.space.resolve(old_key.0, old_key.1) else {
                        drop(guard);
                        drop(table);
                        frame.pins.fetch_sub(1, Ordering::Release);
                        continue;
                    };
                    guard.page.stamp_checksum();
                    if retry_io(self.retry, &self.retry_ctx, || {
                        self.device.try_write_page(old_lba, guard.page.as_bytes(), true)
                    })
                    .is_err()
                    {
                        drop(guard);
                        drop(table);
                        frame.pins.fetch_sub(1, Ordering::Release);
                        continue;
                    }
                    guard.dirty = false;
                    self.stats.eviction_writes.inc();
                }
                table.remove(&old_key);
                self.stats.evictions.inc();
            }
            table.insert(key, idx);
            frame.usage.store(1, Ordering::Relaxed);
            drop(table);
            guard.key = Some(key);
            guard.dirty = false;
            pending.push(Pending { idx, key, guard });
            lbas.push(lba);
        }
        if pending.is_empty() {
            return 0;
        }
        let ops: Vec<(u64, IoOp)> =
            lbas.iter().enumerate().map(|(i, &lba)| (i as u64, IoOp::Read { lba })).collect();
        let batch = io.submit(ops);
        let comps = io.reap_exact(batch, pending.len());
        let mut installed = 0;
        for c in comps {
            let p = &mut pending[c.tag as usize];
            let image = match c.result {
                Ok(Some(buf)) => {
                    let page = Page::from_bytes(&buf);
                    match page.checksum_mismatch() {
                        None => Some(page),
                        Some((stored, computed)) => {
                            self.stats.checksum_failures.inc();
                            self.quarantine.lock().insert(p.key, (stored, computed));
                            None
                        }
                    }
                }
                _ => None,
            };
            match image {
                Some(page) => {
                    p.guard.page = page;
                    installed += 1;
                }
                None => {
                    // Mirror the miss path's read-error unwind: unmap
                    // the frame entirely.
                    p.guard.key = None;
                    let mut table = self.shard_of(p.key).table.lock();
                    if table.get(&p.key) == Some(&p.idx) {
                        table.remove(&p.key);
                    }
                }
            }
        }
        for p in pending {
            let idx = p.idx;
            drop(p.guard);
            self.frames[idx].pins.fetch_sub(1, Ordering::Release);
        }
        installed
    }

    /// Flushes one page if resident and dirty. `sync` selects whether the
    /// host blocks on the device write.
    pub fn flush_block(&self, rel: RelId, block: BlockId, sync: bool) -> SiasResult<bool> {
        let idx = {
            let table = self.shard_of((rel, block)).table.lock();
            match table.get(&(rel, block)) {
                Some(&idx) => idx,
                None => return Ok(false),
            }
        };
        let frame = &self.frames[idx];
        let mut guard = frame.data.write();
        if guard.key != Some((rel, block)) || !guard.dirty {
            return Ok(false);
        }
        let lba = self.space.resolve(rel, block)?;
        guard.page.stamp_checksum();
        retry_io(self.retry, &self.retry_ctx, || {
            self.device.try_write_page(lba, guard.page.as_bytes(), sync)
        })?;
        guard.dirty = false;
        Ok(true)
    }

    /// Background-writer round: flush up to `max_pages` dirty, unpinned
    /// pages asynchronously. Returns the number of pages written.
    pub fn bgwriter_round(&self, max_pages: usize) -> usize {
        let mut written = 0;
        for frame in &self.frames {
            if written >= max_pages {
                break;
            }
            if frame.pins.load(Ordering::Acquire) > 0 {
                continue;
            }
            let mut guard = match frame.data.try_write() {
                Some(g) => g,
                None => continue,
            };
            if !guard.dirty {
                continue;
            }
            let Some((rel, block)) = guard.key else { continue };
            let Ok(lba) = self.space.resolve(rel, block) else { continue };
            // Best-effort: a page that still fails after retries stays
            // dirty and is picked up by a later round or the checkpoint.
            guard.page.stamp_checksum();
            if retry_io(self.retry, &self.retry_ctx, || {
                self.device.try_write_page(lba, guard.page.as_bytes(), false)
            })
            .is_err()
            {
                continue;
            }
            guard.dirty = false;
            written += 1;
        }
        self.stats.bgwriter_writes.add(written as u64);
        written
    }

    /// Checkpoint: flush every dirty page (asynchronously — checkpoints
    /// are spread out and do not stall foreground work), then issue one
    /// device-level durability barrier so the `sync: false` writes are
    /// actually on stable media before the checkpoint record claims so.
    /// With an [`IoQueue`] attached the write-back is batched through
    /// it (waves of in-flight writes, single fsync at the end); without
    /// one it stays a serial per-page loop. Returns pages written.
    pub fn flush_all(&self) -> usize {
        let written = match self.io.as_ref() {
            Some(io) => self.flush_all_queued(io),
            None => self.flush_all_serial(),
        };
        // Best-effort like the page writes themselves: an unreachable
        // device leaves pages dirty for the next checkpoint to retry.
        let _ = self.device.flush();
        self.stats.checkpoint_writes.add(written as u64);
        written
    }

    /// Serial checkpoint write-back: one blocking `sync: false` write
    /// per dirty page. Best-effort — a failed page stays dirty.
    fn flush_all_serial(&self) -> usize {
        let mut written = 0;
        for frame in &self.frames {
            let mut guard = frame.data.write();
            if !guard.dirty {
                continue;
            }
            let Some((rel, block)) = guard.key else { continue };
            let Ok(lba) = self.space.resolve(rel, block) else { continue };
            // Best-effort like the bgwriter: a failed page stays dirty.
            guard.page.stamp_checksum();
            if retry_io(self.retry, &self.retry_ctx, || {
                self.device.try_write_page(lba, guard.page.as_bytes(), false)
            })
            .is_err()
            {
                continue;
            }
            guard.dirty = false;
            written += 1;
        }
        written
    }

    /// Queued checkpoint write-back: collect a wave of dirty frames
    /// (write-latched so their images cannot change mid-flight), submit
    /// the wave as one async batch, reap, and mark the successes clean.
    /// Failed pages stay dirty, as in the serial path.
    fn flush_all_queued(&self, io: &Arc<IoQueue>) -> usize {
        let wave_size = (io.depth() * 2).max(8);
        let mut written = 0;
        let mut next = 0usize;
        while next < self.frames.len() {
            let mut held: Vec<(parking_lot::RwLockWriteGuard<'_, FrameData>, u64)> =
                Vec::with_capacity(wave_size);
            while next < self.frames.len() && held.len() < wave_size {
                let frame = &self.frames[next];
                next += 1;
                let mut guard = frame.data.write();
                if !guard.dirty {
                    continue;
                }
                let Some((rel, block)) = guard.key else { continue };
                let Ok(lba) = self.space.resolve(rel, block) else { continue };
                guard.page.stamp_checksum();
                held.push((guard, lba));
            }
            if held.is_empty() {
                continue;
            }
            let ops: Vec<(u64, IoOp)> = held
                .iter()
                .enumerate()
                .map(|(i, (guard, lba))| {
                    (
                        i as u64,
                        IoOp::Write {
                            lba: *lba,
                            data: guard.page.as_bytes().to_vec(),
                            sync: false,
                        },
                    )
                })
                .collect();
            let want = held.len();
            let batch = io.submit(ops);
            for c in io.reap_exact(batch, want) {
                if c.result.is_ok() {
                    held[c.tag as usize].0.dirty = false;
                    written += 1;
                }
            }
        }
        written
    }

    /// Discards a block: drops any cached (even dirty) copy without
    /// writing it back and TRIMs the device page — the contents are
    /// declared dead (garbage-collected append pages). Pinned frames are
    /// left alone (caller retries later); the TRIM is issued regardless.
    pub fn discard_block(&self, rel: RelId, block: BlockId) -> SiasResult<()> {
        let idx = {
            let mut table = self.shard_of((rel, block)).table.lock();
            match table.get(&(rel, block)).copied() {
                Some(idx) if self.frames[idx].pins.load(Ordering::Acquire) == 0 => {
                    table.remove(&(rel, block));
                    Some(idx)
                }
                other => {
                    let _ = other;
                    None
                }
            }
        };
        if let Some(idx) = idx {
            let mut guard = self.frames[idx].data.write();
            if guard.key == Some((rel, block)) {
                guard.key = None;
                guard.dirty = false;
            }
        }
        let lba = self.space.resolve(rel, block)?;
        self.device.trim(lba);
        // Discard is how reclaimed pages leave quarantine: once TRIMmed,
        // the old (possibly corrupt) image is dead and the block id may
        // be reused with fresh contents.
        self.quarantine.lock().remove(&(rel, block));
        Ok(())
    }

    /// Drops any cached copy of the page *without* write-back, TRIM or
    /// quarantine changes: the next fetch re-reads — and re-verifies —
    /// the on-media image. This is the cache-drop hook scrub scenarios
    /// use to surface media bit-rot hiding under a clean cached copy.
    /// Pinned frames are left alone (`false` is returned).
    pub fn invalidate_block(&self, rel: RelId, block: BlockId) -> bool {
        let idx = {
            let mut table = self.shard_of((rel, block)).table.lock();
            match table.get(&(rel, block)).copied() {
                Some(idx) if self.frames[idx].pins.load(Ordering::Acquire) == 0 => {
                    table.remove(&(rel, block));
                    idx
                }
                _ => return false,
            }
        };
        let mut guard = self.frames[idx].data.write();
        if guard.key == Some((rel, block)) {
            guard.key = None;
            guard.dirty = false;
        }
        true
    }

    /// Re-initializes a block in place: the cached frame (or a fresh
    /// one) is reset to an empty page and marked dirty *without reading
    /// the old image from the device* — reclaimed append blocks reuse
    /// this, so a recycled block never pays a device read for contents
    /// that are dead by definition (and never trips checksum
    /// verification on a TRIMmed image).
    pub fn reset_block(&self, rel: RelId, block: BlockId) -> SiasResult<()> {
        let idx = self.fetch(rel, block, true)?;
        let frame = &self.frames[idx];
        {
            let mut guard = frame.data.write();
            guard.page = Page::new();
            guard.dirty = true;
        }
        frame.pins.fetch_sub(1, Ordering::Release);
        Ok(())
    }

    /// True when the page is quarantined (failed checksum verification
    /// and not yet repaired + discarded).
    pub fn is_quarantined(&self, rel: RelId, block: BlockId) -> bool {
        self.quarantine.lock().contains_key(&(rel, block))
    }

    /// Snapshot of the quarantine set: `(page, (stored, computed))`
    /// CRC pairs, in unspecified order. The scrubber drains this.
    pub fn quarantined(&self) -> Vec<((RelId, BlockId), (u32, u32))> {
        self.quarantine.lock().iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Number of dirty resident pages (diagnostics, flush policies).
    pub fn dirty_count(&self) -> usize {
        self.frames.iter().filter(|f| f.data.read().dirty).count()
    }

    /// Checks the table ↔ frame agreement invariants at quiescence
    /// (tests only — takes every shard lock and every frame latch).
    /// Panics on violation: a mapping must point into its own shard's
    /// frame range, the frame must carry exactly that key, no two
    /// mappings may share a frame, and no pin may be leaked.
    #[doc(hidden)]
    pub fn debug_validate(&self) {
        let mut seen = std::collections::HashSet::new();
        for (s, shard) in self.shards.iter().enumerate() {
            let table = shard.table.lock();
            for (&key, &idx) in table.iter() {
                assert!(
                    idx >= shard.lo && idx < shard.lo + shard.len,
                    "shard {s} maps {key:?} to foreign frame {idx}"
                );
                assert!(seen.insert(idx), "frame {idx} mapped twice");
                let guard = self.frames[idx].data.read();
                assert_eq!(guard.key, Some(key), "frame {idx} key disagrees with table");
            }
        }
        for (idx, frame) in self.frames.iter().enumerate() {
            assert_eq!(frame.pins.load(Ordering::Acquire), 0, "frame {idx} leaked a pin");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;

    fn pool(nframes: usize) -> (Arc<BufferPool>, Arc<dyn Device>) {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::standalone(1 << 16));
        let space = Arc::new(Tablespace::new(1 << 16));
        space.create_relation(RelId(1));
        (Arc::new(BufferPool::new(nframes, Arc::clone(&dev), space)), dev)
    }

    #[test]
    fn allocate_write_read() {
        let (p, _d) = pool(8);
        let rel = RelId(1);
        let b = p.allocate_block(rel).unwrap();
        p.with_page_mut(rel, b, |page| {
            page.add_item(b"hello").unwrap().unwrap();
        })
        .unwrap();
        let s = p.with_page(rel, b, |page| page.item(0).unwrap().to_vec()).unwrap();
        assert_eq!(s, b"hello");
    }

    #[test]
    fn eviction_persists_and_reloads() {
        let (p, d) = pool(4);
        let rel = RelId(1);
        // More blocks than frames: force eviction of dirty pages.
        let blocks: Vec<BlockId> = (0..12).map(|_| p.allocate_block(rel).unwrap()).collect();
        for (i, &b) in blocks.iter().enumerate() {
            p.with_page_mut(rel, b, |page| {
                page.add_item(&[i as u8; 16]).unwrap().unwrap();
            })
            .unwrap();
        }
        // All pages readable with correct contents after churn.
        for (i, &b) in blocks.iter().enumerate() {
            let v = p.with_page(rel, b, |page| page.item(0).unwrap().to_vec()).unwrap();
            assert_eq!(v, vec![i as u8; 16]);
        }
        let st = p.stats();
        assert!(st.evictions > 0);
        assert!(st.eviction_writes > 0);
        assert!(d.stats().host_write_pages > 0);
    }

    #[test]
    fn hits_do_not_touch_device() {
        let (p, d) = pool(8);
        let rel = RelId(1);
        let b = p.allocate_block(rel).unwrap();
        for _ in 0..100 {
            p.with_page(rel, b, |_| ()).unwrap();
        }
        assert_eq!(d.stats().host_read_pages, 0);
        assert!(p.stats().hits >= 100);
    }

    #[test]
    fn bgwriter_flushes_dirty_pages() {
        let (p, d) = pool(8);
        let rel = RelId(1);
        for _ in 0..4 {
            let b = p.allocate_block(rel).unwrap();
            p.with_page_mut(rel, b, |page| {
                page.add_item(b"x").unwrap().unwrap();
            })
            .unwrap();
        }
        assert_eq!(p.dirty_count(), 4);
        let n = p.bgwriter_round(2);
        assert_eq!(n, 2);
        assert_eq!(p.dirty_count(), 2);
        let n = p.bgwriter_round(100);
        assert_eq!(n, 2);
        assert_eq!(p.dirty_count(), 0);
        assert_eq!(d.stats().host_write_pages, 4);
        assert_eq!(p.stats().bgwriter_writes, 4);
    }

    #[test]
    fn checkpoint_flushes_everything() {
        let (p, d) = pool(16);
        let rel = RelId(1);
        for _ in 0..10 {
            p.allocate_block(rel).unwrap();
        }
        assert_eq!(p.flush_all(), 10);
        assert_eq!(p.dirty_count(), 0);
        assert_eq!(d.stats().host_write_pages, 10);
        // Second checkpoint has nothing to do.
        assert_eq!(p.flush_all(), 0);
    }

    #[test]
    fn flush_block_only_writes_dirty() {
        let (p, d) = pool(8);
        let rel = RelId(1);
        let b = p.allocate_block(rel).unwrap();
        assert!(p.flush_block(rel, b, true).unwrap());
        assert!(!p.flush_block(rel, b, true).unwrap()); // now clean
        assert_eq!(d.stats().host_write_pages, 1);
    }

    #[test]
    fn transient_device_errors_are_retried_and_absorbed() {
        use crate::device::{FaultConfig, FaultyDevice};
        use sias_common::VirtualClock;
        let obs = Registry::new_shared();
        let inner: Arc<dyn Device> = Arc::new(MemDevice::standalone(1 << 16));
        let cfg = FaultConfig {
            seed: 21,
            transient_error_ppm: 300_000,
            max_error_burst: 2,
            ..FaultConfig::none()
        };
        let dev: Arc<dyn Device> =
            Arc::new(FaultyDevice::new(inner, cfg, VirtualClock::new(), &obs));
        let space = Arc::new(Tablespace::new(1 << 16));
        space.create_relation(RelId(1));
        let p = BufferPool::with_registry(4, Arc::clone(&dev), space, &obs);
        let rel = RelId(1);
        // Enough churn on a 4-frame pool to exercise eviction writes and
        // miss reads under a 30 % transient-error rate; the burst bound
        // (2) sits below the retry budget (4), so everything succeeds.
        let blocks: Vec<BlockId> = (0..16).map(|_| p.allocate_block(rel).unwrap()).collect();
        for (i, &b) in blocks.iter().enumerate() {
            p.with_page_mut(rel, b, |page| {
                page.add_item(&[i as u8; 8]).unwrap().unwrap();
            })
            .unwrap();
        }
        for (i, &b) in blocks.iter().enumerate() {
            let v = p.with_page(rel, b, |page| page.item(0).unwrap().to_vec()).unwrap();
            assert_eq!(v, vec![i as u8; 8]);
        }
        let retries = obs.snapshot().counter("storage.buffer.io_retries").unwrap();
        assert!(retries > 0, "expected at least one retried I/O, got {retries}");
    }

    #[test]
    fn rewriting_same_page_multiple_times_multiplies_device_writes() {
        // The SI failure mode of §5.2: re-dirty + re-flush the same page
        // over and over and the device sees every flush.
        let (p, d) = pool(8);
        let rel = RelId(1);
        let b = p.allocate_block(rel).unwrap();
        for i in 0..10u8 {
            p.with_page_mut(rel, b, |page| {
                page.add_item(&[i]).unwrap().unwrap();
            })
            .unwrap();
            p.flush_block(rel, b, false).unwrap();
        }
        assert_eq!(d.stats().host_write_pages, 10);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let (p, _d) = pool(32);
        let rel = RelId(1);
        let blocks: Vec<BlockId> = (0..16).map(|_| p.allocate_block(rel).unwrap()).collect();
        let mut handles = vec![];
        for t in 0..4 {
            let p = Arc::clone(&p);
            let blocks = blocks.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let b = blocks[(t * 31 + i) % blocks.len()];
                    p.with_page_mut(rel, b, |page| {
                        if page.fits(8) {
                            page.add_item(&[t as u8; 8]).unwrap();
                        }
                    })
                    .unwrap();
                    p.with_page(rel, b, |page| page.live_count()).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn sharded_pool_keeps_keys_in_their_shard() {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::standalone(1 << 16));
        let space = Arc::new(Tablespace::new(1 << 16));
        space.create_relation(RelId(1));
        let p = BufferPool::with_registry_sharded(16, 4, Arc::clone(&dev), space, &Registry::new());
        assert_eq!(p.shard_count(), 4);
        let rel = RelId(1);
        let blocks: Vec<BlockId> = (0..40).map(|_| p.allocate_block(rel).unwrap()).collect();
        for (i, &b) in blocks.iter().enumerate() {
            p.with_page_mut(rel, b, |page| {
                page.add_item(&[i as u8; 16]).unwrap().unwrap();
            })
            .unwrap();
        }
        for (i, &b) in blocks.iter().enumerate() {
            let v = p.with_page(rel, b, |page| page.item(0).unwrap().to_vec()).unwrap();
            assert_eq!(v, vec![i as u8; 16]);
        }
        p.debug_validate();
        let st = p.stats();
        assert!(st.evictions > 0, "40 blocks over 16 frames must evict");
    }

    #[test]
    fn shard_count_is_clamped_to_two_frames_per_shard() {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::standalone(1 << 12));
        let space = Arc::new(Tablespace::new(1 << 12));
        let p = BufferPool::with_registry_sharded(4, 64, dev, space, &Registry::new());
        assert_eq!(p.shard_count(), 2);
    }

    #[test]
    fn corrupt_page_is_detected_quarantined_and_released_by_discard() {
        let (p, d) = pool(4);
        let rel = RelId(1);
        let b = p.allocate_block(rel).unwrap();
        p.with_page_mut(rel, b, |page| {
            page.add_item(b"soon to rot").unwrap().unwrap();
        })
        .unwrap();
        assert!(p.flush_block(rel, b, true).unwrap());
        // Flip a payload bit directly on the media (persistent bit-rot,
        // unlike FaultyDevice's per-read transients).
        let lba = p.space().resolve(rel, b).unwrap();
        let mut img = vec![0u8; sias_common::PAGE_SIZE];
        d.read_page(lba, &mut img);
        let last = img.len() - 3;
        img[last] ^= 0x40;
        d.write_page(lba, &img, true);
        // Evict the clean cached copy so the next access re-reads.
        // (invalidate, not discard: a discard TRIMs the media, which
        // would destroy the corrupt image we want the re-read to find.)
        assert!(p.invalidate_block(rel, b));
        let err = p.with_page(rel, b, |_| ()).unwrap_err();
        assert!(
            matches!(err, SiasError::CorruptPage { rel: r, block, .. } if r == rel && block == b)
        );
        assert!(p.is_quarantined(rel, b));
        assert_eq!(p.quarantined().len(), 1);
        // Quarantine fails fast with the same typed error and without
        // touching the device again.
        let reads_before = d.stats().host_read_pages;
        let err2 = p.with_page(rel, b, |_| ()).unwrap_err();
        assert_eq!(err, err2);
        assert_eq!(d.stats().host_read_pages, reads_before, "fast-fail skips the device");
        // Reclaim drops the quarantine entry; the block is reusable via
        // reset (no device read of the dead image).
        p.discard_block(rel, b).unwrap();
        assert!(!p.is_quarantined(rel, b));
        p.reset_block(rel, b).unwrap();
        let n = p.with_page(rel, b, |page| page.live_count()).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn invalidate_drops_the_cache_without_trim() {
        let (p, d) = pool(4);
        let rel = RelId(1);
        let b = p.allocate_block(rel).unwrap();
        p.with_page_mut(rel, b, |page| {
            page.add_item(b"cached").unwrap().unwrap();
        })
        .unwrap();
        p.flush_block(rel, b, true).unwrap();
        // Corrupt the media under the clean cached copy.
        let lba = p.space().resolve(rel, b).unwrap();
        let mut img = vec![0u8; sias_common::PAGE_SIZE];
        d.read_page(lba, &mut img);
        let last = img.len() - 5;
        img[last] ^= 0x01;
        d.write_page(lba, &img, true);
        // Cache still serves the good copy...
        p.with_page(rel, b, |page| assert_eq!(page.live_count(), 1)).unwrap();
        // ...until the cache is dropped, which forces re-verification.
        assert!(p.invalidate_block(rel, b));
        let err = p.with_page(rel, b, |_| ()).unwrap_err();
        assert!(matches!(err, SiasError::CorruptPage { .. }), "got {err:?}");
        assert_eq!(d.stats().trims, 0, "invalidate never TRIMs");
    }

    #[test]
    fn write_back_stamps_checksums_on_media() {
        let (p, d) = pool(4);
        let rel = RelId(1);
        let b = p.allocate_block(rel).unwrap();
        p.with_page_mut(rel, b, |page| {
            page.add_item(b"stamped").unwrap().unwrap();
        })
        .unwrap();
        p.flush_block(rel, b, true).unwrap();
        let lba = p.space().resolve(rel, b).unwrap();
        let mut img = vec![0u8; sias_common::PAGE_SIZE];
        d.read_page(lba, &mut img);
        let page = Page::from_bytes(&img);
        assert_ne!(page.stored_checksum(), 0, "durable image carries a CRC");
        assert_eq!(page.checksum_mismatch(), None);
    }

    #[test]
    fn prefetch_installs_cold_pages_byte_identical_to_blocking_path() {
        use crate::io_queue::IoQueue;
        let dev: Arc<dyn Device> = Arc::new(MemDevice::standalone(1 << 16));
        let space = Arc::new(Tablespace::new(1 << 16));
        space.create_relation(RelId(1));
        let p = Arc::new(
            BufferPool::new(16, Arc::clone(&dev), space)
                .with_io_queue(IoQueue::detached(Arc::clone(&dev), 4)),
        );
        assert!(p.has_io_queue());
        let rel = RelId(1);
        let blocks: Vec<BlockId> = (0..10).map(|_| p.allocate_block(rel).unwrap()).collect();
        for (i, &b) in blocks.iter().enumerate() {
            p.with_page_mut(rel, b, |page| {
                page.add_item(&[i as u8; 16]).unwrap().unwrap();
            })
            .unwrap();
        }
        assert!(p.flush_all() >= 10);
        // Drop every cached copy so the prefetch really reads the device.
        for &b in &blocks {
            assert!(p.invalidate_block(rel, b));
        }
        let reads_before = d_reads(&dev);
        let installed = p.prefetch_blocks(rel, &blocks);
        assert_eq!(installed, 10);
        assert_eq!(d_reads(&dev) - reads_before, 10, "one device read per page");
        // Every page is now a hit with the exact blocking-path contents.
        for (i, &b) in blocks.iter().enumerate() {
            let v = p.with_page(rel, b, |page| page.item(0).unwrap().to_vec()).unwrap();
            assert_eq!(v, vec![i as u8; 16]);
        }
        assert_eq!(d_reads(&dev) - reads_before, 10, "post-prefetch reads are pool hits");
        // Resident pages are skipped on a re-prefetch.
        assert_eq!(p.prefetch_blocks(rel, &blocks), 0);
        p.debug_validate();
    }

    fn d_reads(dev: &Arc<dyn Device>) -> u64 {
        dev.stats().host_read_pages
    }

    #[test]
    fn queued_flush_all_writes_every_dirty_page() {
        use crate::io_queue::IoQueue;
        let dev: Arc<dyn Device> = Arc::new(MemDevice::standalone(1 << 16));
        let space = Arc::new(Tablespace::new(1 << 16));
        space.create_relation(RelId(1));
        let p = BufferPool::new(32, Arc::clone(&dev), space)
            .with_io_queue(IoQueue::detached(Arc::clone(&dev), 3));
        let rel = RelId(1);
        for _ in 0..20 {
            let b = p.allocate_block(rel).unwrap();
            p.with_page_mut(rel, b, |page| {
                page.add_item(b"ckpt").unwrap().unwrap();
            })
            .unwrap();
        }
        assert_eq!(p.flush_all(), 20);
        assert_eq!(p.dirty_count(), 0);
        assert_eq!(dev.stats().host_write_pages, 20);
        assert_eq!(p.flush_all(), 0, "second checkpoint has nothing to do");
        assert_eq!(p.stats().checkpoint_writes, 20);
        p.debug_validate();
    }

    #[test]
    fn miss_with_every_frame_pinned_waits_for_an_unpin() {
        // One shard of two frames: two readers pin both inside
        // `with_page` while a third fetch misses. The miss must wait for
        // a pin to go, not fail.
        let (p, _d) = pool(2);
        let rel = RelId(1);
        let blocks: Vec<BlockId> = (0..3).map(|_| p.allocate_block(rel).unwrap()).collect();
        let (pinned_tx, pinned_rx) = std::sync::mpsc::channel();
        let release = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            for &b in &blocks[..2] {
                let (p, pinned_tx, release) = (&p, pinned_tx.clone(), &release);
                s.spawn(move || {
                    p.with_page(rel, b, |_| {
                        pinned_tx.send(()).unwrap();
                        release.wait();
                    })
                    .unwrap()
                });
            }
            pinned_rx.recv().unwrap();
            pinned_rx.recv().unwrap();
            let misses = p.stats().misses;
            let third = s.spawn(|| p.with_page(rel, blocks[2], |_| ()));
            while p.stats().misses == misses {
                std::thread::yield_now();
            }
            release.wait();
            third.join().unwrap().unwrap();
        });
        p.debug_validate();
    }
}
