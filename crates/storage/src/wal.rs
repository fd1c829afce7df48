//! Write-ahead log.
//!
//! §6 of the paper: "SIAS-Chains does not impinge on the MV-DBMS's
//! inherent recovery mechanisms. The write ahead log (WAL) as well as the
//! MV-DBMS's inherent mechanisms for recovery are not impaired." Both
//! engines therefore share this WAL: logical records are appended to an
//! in-memory tail and forced to the log device at commit (group commit —
//! everything buffered is flushed together).
//!
//! The log is written strictly sequentially in page-sized units. A
//! partially-filled tail page is re-written by the next force — the same
//! small write-amplification real WAL implementations exhibit — which is
//! why the evaluation places the WAL on its own device, as the paper's
//! testbed did (Table 1 counts data-device writes).
//!
//! # Leader/follower group commit
//!
//! Committers append under a short buffer lock and then call
//! [`Wal::force_through`] with their commit record's LSN. The first
//! committer to arrive becomes the **leader**: it optionally waits a
//! short grace window ([`WalConfig::group_timeout_ticks`]) for more
//! commits to queue, drains the whole pending buffer, and performs a
//! single device force for the entire batch while later committers —
//! the **followers** — park on a condvar. When the leader finishes it
//! publishes the new durable watermark and wakes everyone; a follower
//! whose LSN is covered returns without ever touching the device. The
//! batch size distribution is recorded in the `storage.wal.group_size`
//! histogram, so `forces / commits` compression is directly observable.
//!
//! Every record carries a CRC-32 over its body, so a torn or dropped
//! tail write is *detectable*: [`Wal::scan_device`] reads the raw log
//! back and stops at the first record whose checksum fails (or whose
//! header is implausible), yielding the longest valid record prefix —
//! exactly the recovery contract crash testing relies on.

use parking_lot::{Condvar, Mutex};
use sias_common::{RelId, SiasError, SiasResult, Tid, Vid, Xid, PAGE_SIZE};
use sias_obs::{Counter, FlightRecorder, Histogram, Registry, SpanName};
use std::sync::Arc;
use std::time::Duration;

use crate::device::{retry_io, Device, RetryBudget, RetryClock, RetryCtx, RetryPolicy};
use crate::health::Health;
use crate::io_queue::{IoOp, IoQueue};

/// Logical WAL record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// Transaction start.
    Begin(Xid),
    /// Transaction commit (forces the log).
    Commit(Xid),
    /// Transaction abort.
    Abort(Xid),
    /// A tuple version was inserted (both engines).
    Insert {
        /// Writing transaction.
        xid: Xid,
        /// Relation.
        rel: RelId,
        /// Physical location of the new version.
        tid: Tid,
        /// Data item id.
        vid: Vid,
        /// Payload bytes.
        payload: Vec<u8>,
    },
    /// SI only: an existing version was invalidated in place.
    Invalidate {
        /// Invalidating transaction.
        xid: Xid,
        /// Relation.
        rel: RelId,
        /// The stamped version.
        tid: Tid,
    },
    /// Fuzzy-checkpoint marker. Recovery locates the *last* one of these
    /// in the durable log and uses it to bound replay: everything the
    /// checkpoint promises durable (buffer pool flushed, VID map and
    /// CLOG high-water marks persisted) precedes `redo_records`, so only
    /// the suffix needs physical re-append work.
    Checkpoint {
        /// Byte LSN at which redo must begin (the append watermark when
        /// the checkpoint started flushing — records before it are
        /// covered by flushed pages).
        redo_lsn: u64,
        /// Record-count equivalent of `redo_lsn`: how many records
        /// precede the redo point. Recovery's bounded-restart accounting
        /// is expressed in records.
        redo_records: u64,
        /// Transaction-id high-water mark at checkpoint time; restart
        /// must allocate XIDs strictly above it.
        next_xid: u64,
    },
    /// Catalog entry: a relation was created (needed for replay).
    CreateRelation {
        /// Assigned relation id.
        rel: RelId,
        /// Relation name.
        name: String,
    },
    /// A ⟨key, VID⟩ (or ⟨key, TID⟩) index record was inserted.
    IndexInsert {
        /// Writing transaction.
        xid: Xid,
        /// Data relation the index belongs to.
        rel: RelId,
        /// Index key.
        key: u64,
        /// Index value (VID for SIAS, packed TID for SI).
        value: u64,
    },
}

/// Record header: `[len u32][crc32 u32]`, both little-endian, followed
/// by `len` body bytes. The CRC covers the body only.
const RECORD_HEADER: usize = 8;

/// Sanity cap on a single record's body length; anything larger in a
/// header means the bytes are not a record header (torn write, zero
/// fill, garbage) and the scan stops there.
const MAX_RECORD_LEN: usize = 1 << 24;

use crate::checksum::crc32;

const KIND_BEGIN: u8 = 1;
const KIND_COMMIT: u8 = 2;
const KIND_ABORT: u8 = 3;
const KIND_INSERT: u8 = 4;
const KIND_INVALIDATE: u8 = 5;
const KIND_CHECKPOINT: u8 = 6;
const KIND_CREATE_RELATION: u8 = 7;
const KIND_INDEX_INSERT: u8 = 8;

impl WalRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&0u32.to_le_bytes()); // length placeholder
        out.extend_from_slice(&0u32.to_le_bytes()); // crc placeholder
        match self {
            WalRecord::Begin(x) => {
                out.push(KIND_BEGIN);
                out.extend_from_slice(&x.0.to_le_bytes());
            }
            WalRecord::Commit(x) => {
                out.push(KIND_COMMIT);
                out.extend_from_slice(&x.0.to_le_bytes());
            }
            WalRecord::Abort(x) => {
                out.push(KIND_ABORT);
                out.extend_from_slice(&x.0.to_le_bytes());
            }
            WalRecord::Insert { xid, rel, tid, vid, payload } => {
                out.push(KIND_INSERT);
                out.extend_from_slice(&xid.0.to_le_bytes());
                out.extend_from_slice(&rel.0.to_le_bytes());
                out.extend_from_slice(&tid.block.to_le_bytes());
                out.extend_from_slice(&tid.slot.to_le_bytes());
                out.extend_from_slice(&vid.0.to_le_bytes());
                out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                out.extend_from_slice(payload);
            }
            WalRecord::Invalidate { xid, rel, tid } => {
                out.push(KIND_INVALIDATE);
                out.extend_from_slice(&xid.0.to_le_bytes());
                out.extend_from_slice(&rel.0.to_le_bytes());
                out.extend_from_slice(&tid.block.to_le_bytes());
                out.extend_from_slice(&tid.slot.to_le_bytes());
            }
            WalRecord::Checkpoint { redo_lsn, redo_records, next_xid } => {
                out.push(KIND_CHECKPOINT);
                out.extend_from_slice(&redo_lsn.to_le_bytes());
                out.extend_from_slice(&redo_records.to_le_bytes());
                out.extend_from_slice(&next_xid.to_le_bytes());
            }
            WalRecord::CreateRelation { rel, name } => {
                out.push(KIND_CREATE_RELATION);
                out.extend_from_slice(&rel.0.to_le_bytes());
                let bytes = name.as_bytes();
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(bytes);
            }
            WalRecord::IndexInsert { xid, rel, key, value } => {
                out.push(KIND_INDEX_INSERT);
                out.extend_from_slice(&xid.0.to_le_bytes());
                out.extend_from_slice(&rel.0.to_le_bytes());
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&value.to_le_bytes());
            }
        }
        let len = (out.len() - start - RECORD_HEADER) as u32;
        out[start..start + 4].copy_from_slice(&len.to_le_bytes());
        let crc = crc32(&out[start + RECORD_HEADER..]);
        out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> SiasResult<(WalRecord, usize)> {
        let err = || SiasError::Wal("truncated record".into());
        if buf.len() < RECORD_HEADER + 1 {
            return Err(err());
        }
        let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
        if len == 0 || len > MAX_RECORD_LEN {
            return Err(SiasError::Wal(format!("implausible record length {len}")));
        }
        if buf.len() < RECORD_HEADER + len {
            return Err(err());
        }
        let expected_crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        let body = &buf[RECORD_HEADER..RECORD_HEADER + len];
        if crc32(body) != expected_crc {
            return Err(SiasError::Wal("checksum mismatch".into()));
        }
        let rd_u64 = |b: &[u8], off: usize| u64::from_le_bytes(b[off..off + 8].try_into().unwrap());
        let rec = match body[0] {
            KIND_BEGIN => WalRecord::Begin(Xid(rd_u64(body, 1))),
            KIND_COMMIT => WalRecord::Commit(Xid(rd_u64(body, 1))),
            KIND_ABORT => WalRecord::Abort(Xid(rd_u64(body, 1))),
            KIND_INSERT => {
                let xid = Xid(rd_u64(body, 1));
                let rel = RelId(u32::from_le_bytes(body[9..13].try_into().unwrap()));
                let block = u32::from_le_bytes(body[13..17].try_into().unwrap());
                let slot = u16::from_le_bytes(body[17..19].try_into().unwrap());
                let vid = Vid(rd_u64(body, 19));
                let plen = u32::from_le_bytes(body[27..31].try_into().unwrap()) as usize;
                if body.len() < 31 + plen {
                    return Err(err());
                }
                WalRecord::Insert {
                    xid,
                    rel,
                    tid: Tid::new(block, slot),
                    vid,
                    payload: body[31..31 + plen].to_vec(),
                }
            }
            KIND_INVALIDATE => {
                let xid = Xid(rd_u64(body, 1));
                let rel = RelId(u32::from_le_bytes(body[9..13].try_into().unwrap()));
                let block = u32::from_le_bytes(body[13..17].try_into().unwrap());
                let slot = u16::from_le_bytes(body[17..19].try_into().unwrap());
                WalRecord::Invalidate { xid, rel, tid: Tid::new(block, slot) }
            }
            KIND_CHECKPOINT => {
                // Legacy checkpoints were bare markers (body = kind byte
                // only); decode them with zeroed redo fields so an old
                // log remains replayable.
                if body.len() < 25 {
                    WalRecord::Checkpoint { redo_lsn: 0, redo_records: 0, next_xid: 0 }
                } else {
                    WalRecord::Checkpoint {
                        redo_lsn: rd_u64(body, 1),
                        redo_records: rd_u64(body, 9),
                        next_xid: rd_u64(body, 17),
                    }
                }
            }
            KIND_CREATE_RELATION => {
                let rel = RelId(u32::from_le_bytes(body[1..5].try_into().unwrap()));
                let nlen = u32::from_le_bytes(body[5..9].try_into().unwrap()) as usize;
                if body.len() < 9 + nlen {
                    return Err(err());
                }
                let name = String::from_utf8(body[9..9 + nlen].to_vec())
                    .map_err(|_| SiasError::Wal("relation name not utf-8".into()))?;
                WalRecord::CreateRelation { rel, name }
            }
            KIND_INDEX_INSERT => {
                let xid = Xid(rd_u64(body, 1));
                let rel = RelId(u32::from_le_bytes(body[9..13].try_into().unwrap()));
                let key = rd_u64(body, 13);
                let value = rd_u64(body, 21);
                WalRecord::IndexInsert { xid, rel, key, value }
            }
            k => return Err(SiasError::Wal(format!("unknown record kind {k}"))),
        };
        Ok((rec, RECORD_HEADER + len))
    }
}

/// Group-commit tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalConfig {
    /// Grace window the leader gives followers before forcing, in
    /// cooperative scheduler yields. `0` forces immediately — the right
    /// setting for single-threaded discrete-event runs, where no
    /// concurrent committer can ever materialize.
    pub group_timeout_ticks: u64,
    /// The leader stops waiting as soon as this many commit records are
    /// pending and forces the batch.
    pub max_batch: usize,
    /// Real-time device-sync latency model for threaded (wall-clock)
    /// runs: every physical force sleeps this many microseconds after
    /// its writes land, the way a real fsync occupies the drive. While
    /// the leader sleeps, other terminals keep appending — which is
    /// exactly the window group commit harvests. `0` (the default)
    /// keeps simulated runs on pure virtual time.
    pub force_sleep_us: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig { group_timeout_ticks: 0, max_batch: 64, force_sleep_us: 0 }
    }
}

struct WalInner {
    /// Bytes of records not yet forced to the device.
    pending: Vec<u8>,
    /// Records sitting in `pending`.
    pending_records: u64,
    /// Commit records sitting in `pending` (group-size accounting).
    pending_commits: u64,
    /// Bytes drained by an in-flight force (leader holds them outside
    /// the lock); appends must account for them when computing LSNs.
    in_flight_bytes: u64,
    /// All durable bytes (mirrors what the device holds, for recovery
    /// iteration without device reads in tests).
    durable_len: u64,
    /// Next device page to write.
    next_lba: u64,
    /// Bytes of the last durable page already occupied (tail page).
    tail_fill: usize,
    /// Image of the (partial) tail page.
    tail_page: Vec<u8>,
    /// Records appended so far (durable or pending).
    records_appended: u64,
    /// Records covered by the last successful force.
    records_durable: u64,
    /// Byte offset below which the log has been logically truncated by a
    /// checkpoint (those records are covered by flushed pages + the
    /// persisted VID map, so restart never needs them for redo).
    truncated_lsn: u64,
}

/// Leader election state for group commit. `leader_active` is true
/// while some thread is draining + forcing; everyone else waiting for
/// durability parks on the condvar until the leader publishes the new
/// watermark.
#[derive(Default)]
struct GroupState {
    leader_active: bool,
}

/// Statistics of WAL activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Number of force (fsync) calls.
    pub forces: u64,
    /// Total record bytes appended.
    pub bytes_appended: u64,
}

/// The write-ahead log over a dedicated device.
pub struct Wal {
    device: Arc<dyn Device>,
    inner: Mutex<WalInner>,
    group: Mutex<GroupState>,
    group_cv: Condvar,
    cfg: WalConfig,
    retry: RetryPolicy,
    retry_ctx: RetryCtx,
    /// Optional async submit/reap queue: when present, a multi-page
    /// force submits its whole page plan as unsynced writes, reaps the
    /// completions, and ends with one [`Device::flush`] barrier —
    /// overlapping the page writes on real files instead of paying a
    /// synchronous round-trip per page.
    io: Option<Arc<IoQueue>>,
    /// Optional shared health cell: force outcomes feed its I/O streak,
    /// and a capacity overflow marks space exhausted.
    health: Option<Arc<Health>>,
    forces: Arc<Counter>,
    bytes_appended: Arc<Counter>,
    truncated_bytes: Arc<Counter>,
    group_size: Arc<Histogram>,
    tracer: Arc<FlightRecorder>,
}

/// The transaction a WAL record belongs to (0 for non-transactional
/// records), used to tag trace spans.
fn record_xid(rec: &WalRecord) -> u64 {
    match rec {
        WalRecord::Begin(x) | WalRecord::Commit(x) | WalRecord::Abort(x) => x.0,
        WalRecord::Insert { xid, .. } | WalRecord::Invalidate { xid, .. } => xid.0,
        _ => 0,
    }
}

impl Wal {
    /// Creates a WAL writing from LBA 0 of `device`. Stats live in a
    /// private metrics registry; use [`Wal::with_registry`] to share one.
    pub fn new(device: Arc<dyn Device>) -> Self {
        Self::with_registry(device, &Registry::new())
    }

    /// Like [`Wal::new`], but registers the `storage.wal.*` counters in
    /// `obs` so they show up in that registry's snapshots.
    pub fn with_registry(device: Arc<dyn Device>, obs: &Registry) -> Self {
        Wal {
            device,
            inner: Mutex::new(WalInner {
                pending: Vec::new(),
                pending_records: 0,
                pending_commits: 0,
                in_flight_bytes: 0,
                durable_len: 0,
                next_lba: 0,
                tail_fill: 0,
                tail_page: vec![0u8; PAGE_SIZE],
                records_appended: 0,
                records_durable: 0,
                truncated_lsn: 0,
            }),
            group: Mutex::new(GroupState::default()),
            group_cv: Condvar::new(),
            cfg: WalConfig::default(),
            retry: RetryPolicy::default(),
            retry_ctx: RetryCtx {
                retries: obs.counter("storage.wal.io_retries"),
                backoff_ticks: obs.histogram("storage.io.retry_backoff_ticks"),
                clock: RetryClock::Disabled,
                budget: None,
            },
            io: None,
            health: None,
            forces: obs.counter("storage.wal.forces"),
            bytes_appended: obs.counter("storage.wal.bytes_appended"),
            truncated_bytes: obs.counter("storage.wal.truncated_bytes"),
            group_size: obs.histogram("storage.wal.group_size"),
            tracer: Arc::clone(obs.tracer()),
        }
    }

    /// Overrides the transient-error retry policy (builder style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Selects the retry backoff clock source explicitly (builder
    /// style): virtual time for simulated devices, wall-clock sleeps for
    /// real files, or no waiting at all.
    pub fn with_retry_clock(mut self, clock: RetryClock) -> Self {
        self.retry_ctx.clock = clock;
        self
    }

    /// Attaches an async I/O queue used to batch multi-page forces
    /// (builder style). Single-page forces keep the synchronous path —
    /// the queue only pays off when there are several pages to overlap.
    pub fn with_io_queue(mut self, io: Arc<IoQueue>) -> Self {
        self.io = Some(io);
        self
    }

    /// Overrides the group-commit knobs (builder style).
    pub fn with_config(mut self, cfg: WalConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Draws retries from a shared [`RetryBudget`] instead of giving
    /// every force its full per-op retry allowance (builder style).
    pub fn with_budget(mut self, budget: Arc<RetryBudget>) -> Self {
        self.retry_ctx.budget = Some(budget);
        self
    }

    /// Feeds force outcomes into a shared [`Health`] cell (builder
    /// style): persistent I/O failures escalate the stack toward
    /// ReadOnly, successes clear the streak.
    pub fn with_health(mut self, health: Arc<Health>) -> Self {
        self.health = Some(health);
        self
    }

    /// The active group-commit configuration.
    pub fn config(&self) -> WalConfig {
        self.cfg
    }

    /// The log device (crash tests scan it directly).
    pub fn device(&self) -> &Arc<dyn Device> {
        &self.device
    }

    /// Appends a record to the in-memory tail; returns its LSN (byte
    /// offset). Not yet durable — call [`Wal::force_through`] (commit
    /// path) or [`Wal::force`].
    pub fn append(&self, rec: &WalRecord) -> u64 {
        let _span = self.tracer.span(SpanName::WalAppend).txn(record_xid(rec));
        let mut inner = self.inner.lock();
        let lsn = inner.durable_len + inner.in_flight_bytes + inner.pending.len() as u64;
        let mut tmp = Vec::new();
        rec.encode(&mut tmp);
        self.bytes_appended.add(tmp.len() as u64);
        inner.pending.extend_from_slice(&tmp);
        inner.records_appended += 1;
        inner.pending_records += 1;
        if matches!(rec, WalRecord::Commit(_)) {
            inner.pending_commits += 1;
        }
        lsn
    }

    /// Byte offset up to which the log is durable.
    fn durable_watermark(&self) -> u64 {
        self.inner.lock().durable_len
    }

    /// Byte offset just past the last appended record.
    fn append_watermark(&self) -> u64 {
        let inner = self.inner.lock();
        inner.durable_len + inner.in_flight_bytes + inner.pending.len() as u64
    }

    /// Group-commit entry point for committers: blocks until the record
    /// that [`Wal::append`] placed at `lsn` is durable. The first caller
    /// to arrive leads (drains the whole pending buffer and forces it in
    /// one batch); callers that arrive while a force is in flight park
    /// and are usually covered by the next leader's batch without
    /// issuing any device I/O of their own.
    pub fn force_through(&self, lsn: u64) -> SiasResult<()> {
        self.force_until(lsn + 1, None, Xid(0)).map(|_| ())
    }

    /// Deadline-aware [`Wal::force_through`]: a follower parked behind a
    /// slow leader gives up when `deadline` passes and returns
    /// [`SiasError::DeadlineExceeded`] for `xid` instead of waiting the
    /// full 50 ms re-check tick. The record stays appended — a later
    /// force (or another committer's batch) still makes it durable; the
    /// *transaction* is what stops waiting.
    pub fn force_through_deadline(
        &self,
        lsn: u64,
        deadline: Option<std::time::Instant>,
        xid: Xid,
    ) -> SiasResult<()> {
        self.force_until(lsn + 1, deadline, xid).map(|_| ())
    }

    /// Forces all appended records to the log device. Synchronous: the
    /// caller blocks until everything it has appended is durable.
    /// Returns the number of device page writes issued *by this call* —
    /// 0 when a concurrent leader's batch already covered it.
    ///
    /// Transient device errors are retried per the [`RetryPolicy`]
    /// (counted in `storage.wal.io_retries`). If a write still fails the
    /// force errors out with the drained bytes spliced back in front of
    /// the pending buffer: a later force simply re-writes the same pages
    /// — the append-only layout makes the retry idempotent.
    pub fn force(&self) -> SiasResult<u64> {
        let target = self.append_watermark();
        self.force_until(target, None, Xid(0))
    }

    /// Leader/follower protocol: returns once `durable_len >= target`,
    /// or with [`SiasError::DeadlineExceeded`] if `deadline` passes
    /// while waiting (checked before every park and bounded by the wait
    /// timeout, so no wait outlives the deadline by more than one tick).
    fn force_until(
        &self,
        target: u64,
        deadline: Option<std::time::Instant>,
        xid: Xid,
    ) -> SiasResult<u64> {
        let mut writes = 0u64;
        loop {
            {
                let mut group = self.group.lock();
                if self.durable_watermark() >= target {
                    return Ok(writes);
                }
                if group.leader_active {
                    // Follower: park until the in-flight force publishes
                    // its watermark. The timeout only guards against a
                    // missed wakeup; the loop re-checks either way.
                    let _span = self.tracer.span(SpanName::WalForceWait);
                    let tick = match deadline {
                        Some(d) => {
                            let now = std::time::Instant::now();
                            if now >= d {
                                return Err(SiasError::DeadlineExceeded { xid });
                            }
                            (d - now).min(Duration::from_millis(50))
                        }
                        None => Duration::from_millis(50),
                    };
                    let _ = self.group_cv.wait_for(&mut group, tick);
                    continue;
                }
                group.leader_active = true;
            }
            // Leader: give followers a short grace window to enqueue
            // their commit records, then force the whole batch.
            for _ in 0..self.cfg.group_timeout_ticks {
                if self.inner.lock().pending_commits as usize >= self.cfg.max_batch {
                    break;
                }
                std::thread::yield_now();
            }
            let res = self.lead_force();
            {
                let mut group = self.group.lock();
                group.leader_active = false;
                self.group_cv.notify_all();
            }
            writes += res?;
        }
    }

    /// Performs one physical force of everything pending. Caller must
    /// hold group-commit leadership. The pending buffer is drained under
    /// the inner lock but written (and latency-modelled) outside it, so
    /// appends continue while the device syncs.
    fn lead_force(&self) -> SiasResult<u64> {
        let mut span = self.tracer.span(SpanName::WalForce);
        let (buf, records, commits, mut tail_page, mut tail_fill, mut next_lba) = {
            let mut inner = self.inner.lock();
            if inner.pending.is_empty() {
                return Ok(0);
            }
            let buf = std::mem::take(&mut inner.pending);
            let records = std::mem::take(&mut inner.pending_records);
            let commits = std::mem::take(&mut inner.pending_commits);
            inner.in_flight_bytes = buf.len() as u64;
            (buf, records, commits, inner.tail_page.clone(), inner.tail_fill, inner.next_lba)
        };
        span.set_arg(commits);
        // Lay the drained bytes out into a page plan first (tail page
        // filled, spill pages appended). Partial tail pages are
        // re-written by the next force, as in real WAL. Planning before
        // writing lets the queued path submit the whole batch at once.
        let mut plan: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut off = 0usize;
        while off < buf.len() {
            let room = PAGE_SIZE - tail_fill;
            let take = room.min(buf.len() - off);
            tail_page[tail_fill..tail_fill + take].copy_from_slice(&buf[off..off + take]);
            tail_fill += take;
            off += take;
            plan.push((next_lba, tail_page.clone()));
            if tail_fill == PAGE_SIZE {
                next_lba += 1;
                tail_fill = 0;
                tail_page.fill(0);
            }
        }
        let mut writes = 0u64;
        let mut failure = None;
        // Hard capacity backstop: if any page of the plan lies past the
        // end of the log device, fail the whole force with a typed error
        // *before* touching the media. No prefix of a multi-page batch
        // is ever written, so a half-durable (torn) group commit cannot
        // exist, and the splice-back below keeps the log contiguous for
        // a retry once space is reclaimed.
        if let Some(&(last_lba, _)) = plan.last() {
            let cap = self.device.capacity_pages();
            if last_lba >= cap {
                failure = Some(SiasError::DiskFull {
                    needed_pages: last_lba + 1 - cap,
                    free_pages: cap.saturating_sub(plan[0].0),
                });
            }
        }
        match &self.io {
            _ if failure.is_some() => {}
            // Batched async force: submit every page unsynced, reap the
            // completions, then issue a single durability barrier. Safe
            // because the plan's LBAs are distinct and increasing and
            // `durable_len` only advances after the barrier succeeds.
            Some(io) if plan.len() > 1 => {
                let ops = plan
                    .into_iter()
                    .enumerate()
                    .map(|(i, (lba, data))| (i as u64, IoOp::Write { lba, data, sync: false }))
                    .collect::<Vec<_>>();
                let want = ops.len();
                let batch = io.submit(ops);
                for comp in io.reap_exact(batch, want) {
                    match comp.result {
                        Ok(_) => writes += 1,
                        Err(e) => failure = Some(e),
                    }
                }
                if failure.is_none() {
                    if let Err(e) = self.device.flush() {
                        failure = Some(e);
                    }
                }
            }
            // Synchronous path: one retried sync write per page.
            _ => {
                for (lba, page) in &plan {
                    if let Err(e) = retry_io(self.retry, &self.retry_ctx, || {
                        self.device.try_write_page(*lba, page, true)
                    }) {
                        failure = Some(e);
                        break;
                    }
                    writes += 1;
                }
            }
        }
        if failure.is_none() && self.cfg.force_sleep_us > 0 {
            std::thread::sleep(Duration::from_micros(self.cfg.force_sleep_us));
        }
        let mut inner = self.inner.lock();
        inner.in_flight_bytes = 0;
        if let Some(health) = &self.health {
            match &failure {
                None => health.record_io_success(),
                Some(SiasError::DiskFull { .. }) => health.mark_space_exhausted(100),
                Some(_) => health.record_io_error(),
            }
        }
        match failure {
            None => {
                inner.durable_len += buf.len() as u64;
                inner.records_durable += records;
                inner.tail_page = tail_page;
                inner.tail_fill = tail_fill;
                inner.next_lba = next_lba;
                self.forces.inc();
                self.group_size.record(commits);
                Ok(writes)
            }
            Some(e) => {
                // Splice the drained bytes back in front of anything
                // appended meanwhile so the log stays contiguous and a
                // later force retries the identical page plan.
                let mut restored = buf;
                restored.extend_from_slice(&inner.pending);
                inner.pending = restored;
                inner.pending_records += records;
                inner.pending_commits += commits;
                Err(e)
            }
        }
    }

    /// Byte offset just past the last appended record — the LSN the next
    /// [`Wal::append`] would return. Checkpoints capture this as their
    /// fuzzy-begin `redo_lsn`.
    pub fn current_lsn(&self) -> u64 {
        self.append_watermark()
    }

    /// Records appended so far (durable or pending) — the record-count
    /// twin of [`Wal::current_lsn`], captured as a checkpoint's
    /// `redo_records`.
    pub fn appended_record_count(&self) -> u64 {
        self.inner.lock().records_appended
    }

    /// Logically truncates the log below `lsn` (clamped to the durable
    /// watermark): records before it are promised recoverable from
    /// flushed pages and the persisted VID map, so their segments are
    /// recyclable. The byte delta is added to
    /// `storage.wal.truncated_bytes` and returned. Truncation is
    /// monotone — an earlier `lsn` is a no-op. The physical layout stays
    /// append-only (scans still start at LBA 0, and the full history
    /// remains available to harnesses that replay from genesis); what
    /// truncation buys is the accounting a segment recycler needs.
    pub fn truncate_before(&self, lsn: u64) -> u64 {
        let mut inner = self.inner.lock();
        let lsn = lsn.min(inner.durable_len);
        if lsn <= inner.truncated_lsn {
            return 0;
        }
        let delta = lsn - inner.truncated_lsn;
        inner.truncated_lsn = lsn;
        self.truncated_bytes.add(delta);
        delta
    }

    /// Byte offset below which the log is logically truncated.
    pub fn truncated_lsn(&self) -> u64 {
        self.inner.lock().truncated_lsn
    }

    /// Bytes appended but not yet durable (pending + in-flight). The
    /// admission gate reads this as its WAL-pressure signal: a growing
    /// backlog means forces are not keeping up with commit traffic.
    pub fn backlog_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        inner.in_flight_bytes + inner.pending.len() as u64
    }

    /// Live log bytes: everything appended (durable, in-flight and
    /// pending) minus what checkpoints have logically truncated. This is
    /// the quantity the space accountant compares against the WAL quota
    /// — truncation genuinely reclaims it, which is what makes the
    /// ReadOnly → Healthy round-trip possible.
    pub fn live_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        (inner.durable_len + inner.in_flight_bytes + inner.pending.len() as u64)
            .saturating_sub(inner.truncated_lsn)
    }

    /// `(appended, durable)` record counts. `durable` reflects the last
    /// successful force; the crash harness uses it as the
    /// acknowledgement watermark for committed transactions.
    pub fn record_counts(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.records_appended, inner.records_durable)
    }

    /// Records covered by the last successful force.
    pub fn durable_record_count(&self) -> u64 {
        self.inner.lock().records_durable
    }

    /// Scans a raw log device from LBA 0 and returns the longest valid
    /// record prefix plus its byte length. The scan stops at the first
    /// implausible header (zero fill / garbage) or checksum failure —
    /// this is the crash-recovery entry point, requiring no in-memory
    /// WAL state at all (the pre-crash process is gone).
    pub fn scan_device(device: &dyn Device) -> (Vec<WalRecord>, u64) {
        let cap_bytes = device.capacity_pages() as usize * PAGE_SIZE;
        let mut records = Vec::new();
        let mut raw: Vec<u8> = Vec::new();
        let mut buf = vec![0u8; PAGE_SIZE];
        let mut next_lba = 0u64;
        let mut off = 0usize;
        let mut read_more = |raw: &mut Vec<u8>, next_lba: &mut u64, needed: usize| {
            while raw.len() < needed && (*next_lba as usize) < cap_bytes / PAGE_SIZE {
                device.read_page(*next_lba, &mut buf);
                raw.extend_from_slice(&buf);
                *next_lba += 1;
            }
        };
        loop {
            read_more(&mut raw, &mut next_lba, off + RECORD_HEADER);
            if raw.len() < off + RECORD_HEADER {
                break;
            }
            let len = u32::from_le_bytes(raw[off..off + 4].try_into().unwrap()) as usize;
            if len == 0 || len > MAX_RECORD_LEN {
                break;
            }
            read_more(&mut raw, &mut next_lba, off + RECORD_HEADER + len);
            match WalRecord::decode(&raw[off..]) {
                Ok((rec, used)) => {
                    records.push(rec);
                    off += used;
                }
                Err(_) => break,
            }
        }
        (records, off as u64)
    }

    /// Reads all durable records back from the device (recovery path).
    pub fn durable_records(&self) -> SiasResult<Vec<WalRecord>> {
        let (durable_len, last_lba) = {
            let inner = self.inner.lock();
            (inner.durable_len, inner.next_lba)
        };
        let mut raw = Vec::with_capacity(durable_len as usize);
        let mut buf = vec![0u8; PAGE_SIZE];
        let mut lba = 0;
        while raw.len() < durable_len as usize {
            self.device.read_page(lba, &mut buf);
            let take = (durable_len as usize - raw.len()).min(PAGE_SIZE);
            raw.extend_from_slice(&buf[..take]);
            lba += 1;
            if lba > last_lba {
                break;
            }
        }
        let mut records = Vec::new();
        let mut off = 0;
        while off < raw.len() {
            let (rec, used) = WalRecord::decode(&raw[off..])?;
            records.push(rec);
            off += used;
        }
        Ok(records)
    }

    /// WAL statistics snapshot.
    pub fn stats(&self) -> WalStats {
        WalStats { forces: self.forces.get(), bytes_appended: self.bytes_appended.get() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;

    fn wal() -> Wal {
        Wal::new(Arc::new(MemDevice::standalone(1 << 16)))
    }

    #[test]
    fn encode_decode_roundtrip_all_kinds() {
        let records = vec![
            WalRecord::Begin(Xid(1)),
            WalRecord::Insert {
                xid: Xid(1),
                rel: RelId(2),
                tid: Tid::new(3, 4),
                vid: Vid(5),
                payload: b"payload".to_vec(),
            },
            WalRecord::Invalidate { xid: Xid(1), rel: RelId(2), tid: Tid::new(9, 1) },
            WalRecord::CreateRelation { rel: RelId(5), name: "orders".into() },
            WalRecord::IndexInsert { xid: Xid(1), rel: RelId(5), key: 42, value: 7 },
            WalRecord::Commit(Xid(1)),
            WalRecord::Abort(Xid(2)),
            WalRecord::Checkpoint { redo_lsn: 4096, redo_records: 17, next_xid: 9 },
        ];
        let mut buf = Vec::new();
        for r in &records {
            r.encode(&mut buf);
        }
        let mut off = 0;
        for expect in &records {
            let (got, used) = WalRecord::decode(&buf[off..]).unwrap();
            assert_eq!(&got, expect);
            off += used;
        }
        assert_eq!(off, buf.len());
    }

    #[test]
    fn force_then_recover() {
        let w = wal();
        w.append(&WalRecord::Begin(Xid(7)));
        w.append(&WalRecord::Commit(Xid(7)));
        w.force().unwrap();
        let recs = w.durable_records().unwrap();
        assert_eq!(recs, vec![WalRecord::Begin(Xid(7)), WalRecord::Commit(Xid(7))]);
        assert_eq!(w.record_counts(), (2, 2));
    }

    #[test]
    fn unforced_records_are_not_durable() {
        let w = wal();
        w.append(&WalRecord::Begin(Xid(7)));
        assert!(w.durable_records().unwrap().is_empty());
        assert_eq!(w.record_counts(), (1, 0));
    }

    #[test]
    fn group_commit_forces_everything_pending() {
        let w = wal();
        for x in 1..=10u64 {
            w.append(&WalRecord::Begin(Xid(x)));
        }
        let writes = w.force().unwrap();
        assert!(writes >= 1);
        assert_eq!(w.durable_records().unwrap().len(), 10);
        assert_eq!(w.stats().forces, 1);
    }

    #[test]
    fn multi_page_spill() {
        let w = wal();
        let big = vec![0xEEu8; 3000];
        for _ in 0..10 {
            w.append(&WalRecord::Insert {
                xid: Xid(1),
                rel: RelId(1),
                tid: Tid::new(0, 0),
                vid: Vid(0),
                payload: big.clone(),
            });
        }
        w.force().unwrap();
        let recs = w.durable_records().unwrap();
        assert_eq!(recs.len(), 10);
        for r in recs {
            match r {
                WalRecord::Insert { payload, .. } => assert_eq!(payload.len(), 3000),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn queued_force_matches_the_synchronous_path() {
        // Same multi-page spill as `multi_page_spill`, but forced through
        // an attached IoQueue: the durable image must be identical and
        // scan back cleanly.
        let dev: Arc<dyn Device> = Arc::new(MemDevice::standalone(1 << 16));
        let io = IoQueue::detached(Arc::clone(&dev), 4);
        let w = Wal::new(Arc::clone(&dev)).with_io_queue(io);
        let big = vec![0xABu8; 3000];
        for _ in 0..10 {
            w.append(&WalRecord::Insert {
                xid: Xid(1),
                rel: RelId(1),
                tid: Tid::new(0, 0),
                vid: Vid(0),
                payload: big.clone(),
            });
        }
        let writes = w.force().unwrap();
        assert!(writes > 1, "spill should cover several pages, got {writes}");
        assert_eq!(w.durable_records().unwrap().len(), 10);
        let (records, _) = Wal::scan_device(w.device().as_ref());
        assert_eq!(records.len(), 10);
        // A tiny follow-up force (single page) takes the sync path and
        // still lands correctly after the batched one.
        w.append(&WalRecord::Commit(Xid(1)));
        w.force().unwrap();
        assert_eq!(w.durable_records().unwrap().len(), 11);
    }

    #[test]
    fn empty_force_is_free() {
        let w = wal();
        assert_eq!(w.force().unwrap(), 0);
        assert_eq!(w.stats().forces, 0);
    }

    #[test]
    fn capacity_overflow_fails_typed_before_any_write() {
        // A 2-page log device: the second force's plan would spill past
        // the end. It must fail with DiskFull, write nothing, and keep
        // the log retryable (splice-back), with the durable prefix
        // still scanning cleanly.
        let dev = Arc::new(MemDevice::standalone(2));
        let w = Wal::new(dev.clone());
        let payload = vec![0xCDu8; 6000];
        let rec = |x| WalRecord::Insert {
            xid: Xid(x),
            rel: RelId(1),
            tid: Tid::new(0, 0),
            vid: Vid(0),
            payload: payload.clone(),
        };
        w.append(&rec(1));
        w.force().unwrap();
        let writes_before = dev.stats().host_write_pages;
        w.append(&rec(2));
        w.append(&rec(3));
        let err = w.force().unwrap_err();
        assert!(matches!(err, SiasError::DiskFull { .. }), "{err:?}");
        assert_eq!(
            dev.stats().host_write_pages,
            writes_before,
            "no page of the overflowing batch may touch the media"
        );
        // Durable prefix intact, pending records preserved for a retry.
        let (records, _) = Wal::scan_device(dev.as_ref());
        assert_eq!(records.len(), 1);
        assert_eq!(w.record_counts(), (3, 1));
        let err2 = w.force().unwrap_err();
        assert!(matches!(err2, SiasError::DiskFull { .. }), "retry fails the same way");
    }

    #[test]
    fn capacity_overflow_marks_health_space_exhausted() {
        use crate::health::{Health, HealthState};
        let health = Arc::new(Health::default());
        let w = Wal::new(Arc::new(MemDevice::standalone(1))).with_health(Arc::clone(&health));
        w.append(&WalRecord::Insert {
            xid: Xid(1),
            rel: RelId(1),
            tid: Tid::new(0, 0),
            vid: Vid(0),
            payload: vec![0u8; 3 * PAGE_SIZE],
        });
        assert!(w.force().is_err());
        assert_eq!(health.state(), HealthState::ReadOnly);
    }

    #[test]
    fn backlog_and_live_bytes_track_force_and_truncate() {
        let w = wal();
        assert_eq!((w.backlog_bytes(), w.live_bytes()), (0, 0));
        let lsn = w.append(&WalRecord::Begin(Xid(1)));
        assert!(w.backlog_bytes() > 0);
        assert_eq!(w.live_bytes(), w.backlog_bytes());
        w.force().unwrap();
        assert_eq!(w.backlog_bytes(), 0, "forced bytes leave the backlog");
        let live = w.live_bytes();
        assert!(live > 0);
        let end = w.current_lsn();
        w.truncate_before(end);
        assert_eq!(w.live_bytes(), 0, "truncation reclaims live bytes");
        let _ = lsn;
    }

    #[test]
    fn follower_deadline_expires_with_typed_error() {
        // Hold leadership by hand so a committer is forced to follow,
        // then watch its deadline fire instead of the 50 ms park tick.
        let w = Arc::new(wal());
        {
            w.group.lock().leader_active = true;
        }
        let lsn = w.append(&WalRecord::Commit(Xid(9)));
        let deadline = std::time::Instant::now() + Duration::from_millis(20);
        let started = std::time::Instant::now();
        let err = w.force_through_deadline(lsn, Some(deadline), Xid(9)).unwrap_err();
        let waited = started.elapsed();
        assert!(matches!(err, SiasError::DeadlineExceeded { xid: Xid(9) }), "{err:?}");
        assert!(waited >= Duration::from_millis(15), "must wait to (nearly) the deadline");
        assert!(waited < Duration::from_millis(45), "must not wait a full extra 50 ms tick");
        // Release leadership: the record is still appended and forces fine.
        {
            w.group.lock().leader_active = false;
        }
        w.force_through(lsn).unwrap();
    }

    #[test]
    fn partial_tail_page_rewritten_on_next_force() {
        let w = wal();
        w.append(&WalRecord::Begin(Xid(1)));
        w.force().unwrap();
        w.append(&WalRecord::Begin(Xid(2)));
        w.force().unwrap();
        // Both forces wrote the same (partial) page 0.
        assert_eq!(w.device.stats().host_write_pages, 2);
        assert_eq!(w.durable_records().unwrap().len(), 2);
    }

    #[test]
    fn decode_garbage_is_an_error() {
        assert!(WalRecord::decode(&[1, 2, 3]).is_err());
        let mut buf = Vec::new();
        WalRecord::Begin(Xid(1)).encode(&mut buf);
        buf[RECORD_HEADER] = 99; // unknown kind — also breaks the CRC
        assert!(WalRecord::decode(&buf).is_err());
    }

    #[test]
    fn checksum_catches_a_flipped_body_bit() {
        let mut buf = Vec::new();
        WalRecord::Commit(Xid(3)).encode(&mut buf);
        let last = buf.len() - 1;
        buf[last] ^= 0x04;
        let err = WalRecord::decode(&buf).unwrap_err();
        assert!(format!("{err}").contains("checksum"), "got: {err}");
    }

    #[test]
    fn scan_device_reads_back_the_whole_clean_log() {
        let w = wal();
        for x in 1..=20u64 {
            w.append(&WalRecord::Begin(Xid(x)));
            w.append(&WalRecord::Commit(Xid(x)));
        }
        w.force().unwrap();
        let (records, valid) = Wal::scan_device(w.device().as_ref());
        assert_eq!(records, w.durable_records().unwrap());
        assert_eq!(records.len(), 40);
        assert!(valid > 0);
    }

    #[test]
    fn scan_device_stops_at_a_torn_tail() {
        // Corrupt the middle of the last record's body directly on the
        // device: the scan must return exactly the records before it.
        let w = wal();
        for x in 1..=10u64 {
            w.append(&WalRecord::Begin(Xid(x)));
        }
        w.force().unwrap();
        let (all, valid) = Wal::scan_device(w.device().as_ref());
        assert_eq!(all.len(), 10);
        let mut page = vec![0u8; PAGE_SIZE];
        w.device().read_page(0, &mut page);
        page[valid as usize - 2] ^= 0xFF; // inside the final record body
        w.device().write_page(0, &page, true);
        let (prefix, _) = Wal::scan_device(w.device().as_ref());
        assert_eq!(prefix.len(), 9);
        assert_eq!(prefix, all[..9]);
    }

    #[test]
    fn scan_device_of_an_empty_device_is_empty() {
        let d = MemDevice::standalone(64);
        let (records, valid) = Wal::scan_device(&d);
        assert!(records.is_empty());
        assert_eq!(valid, 0);
    }

    #[test]
    fn force_through_acknowledges_exactly_the_covered_lsn() {
        let w = wal();
        let l1 = w.append(&WalRecord::Begin(Xid(1)));
        let l2 = w.append(&WalRecord::Commit(Xid(1)));
        assert!(l2 > l1);
        w.force_through(l2).unwrap();
        assert_eq!(w.record_counts(), (2, 2));
        // Idempotent: already durable, no second force.
        w.force_through(l2).unwrap();
        assert_eq!(w.stats().forces, 1);
    }

    #[test]
    fn concurrent_committers_share_forces() {
        use std::sync::Barrier;
        let obs = Registry::new_shared();
        let dev: Arc<dyn Device> = Arc::new(MemDevice::standalone(1 << 16));
        let w = Arc::new(Wal::with_registry(dev, &obs).with_config(WalConfig {
            group_timeout_ticks: 50,
            max_batch: 8,
            force_sleep_us: 2_000,
        }));
        let threads = 8;
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let w = Arc::clone(&w);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let x = Xid(t as u64 + 1);
                    w.append(&WalRecord::Begin(x));
                    let lsn = w.append(&WalRecord::Commit(x));
                    w.force_through(lsn).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(w.record_counts(), (16, 16));
        let forces = w.stats().forces;
        assert!(
            (1..threads as u64).contains(&forces),
            "8 racing commits should share forces, got {forces}"
        );
        // Every committed record survives on the device.
        let (records, _) = Wal::scan_device(w.device().as_ref());
        assert_eq!(records.len(), 16);
    }

    #[test]
    fn appends_during_an_in_flight_force_keep_lsns_contiguous() {
        // Sequential stand-in for the race: append, drain+force, append
        // more, and check the second batch's LSNs continue where the
        // first ended (in_flight accounting).
        let w = wal();
        let a = w.append(&WalRecord::Begin(Xid(1)));
        w.force().unwrap();
        let b = w.append(&WalRecord::Begin(Xid(2)));
        assert!(b > a);
        w.force().unwrap();
        assert_eq!(w.durable_records().unwrap().len(), 2);
    }

    #[test]
    fn truncation_is_monotone_clamped_and_counted() {
        let obs = Registry::new_shared();
        let w = Wal::with_registry(Arc::new(MemDevice::standalone(1 << 16)), &obs);
        for x in 1..=8u64 {
            w.append(&WalRecord::Begin(Xid(x)));
        }
        let lsn = w.current_lsn();
        assert!(lsn > 0);
        // Nothing durable yet: truncation clamps to the durable watermark.
        assert_eq!(w.truncate_before(lsn), 0);
        w.force().unwrap();
        assert_eq!(w.truncate_before(lsn / 2), lsn / 2);
        assert_eq!(w.truncated_lsn(), lsn / 2);
        // Monotone: an older (smaller) truncation point is a no-op.
        assert_eq!(w.truncate_before(lsn / 4), 0);
        assert_eq!(w.truncate_before(lsn), lsn - lsn / 2);
        assert_eq!(obs.snapshot().counter("storage.wal.truncated_bytes"), Some(lsn));
        // The full history is still physically scannable.
        let (records, _) = Wal::scan_device(w.device().as_ref());
        assert_eq!(records.len(), 8);
    }

    #[test]
    fn force_retries_transient_errors() {
        use crate::device::{FaultConfig, FaultyDevice};
        use sias_common::VirtualClock;
        let obs = Registry::new_shared();
        let cfg = FaultConfig {
            seed: 11,
            transient_error_ppm: 1_000_000,
            max_error_burst: 2,
            ..FaultConfig::none()
        };
        let inner: Arc<dyn Device> = Arc::new(MemDevice::standalone(1 << 12));
        let dev = Arc::new(FaultyDevice::new(inner, cfg, VirtualClock::new(), &obs));
        let w = Wal::with_registry(dev, &obs);
        w.append(&WalRecord::Begin(Xid(1)));
        w.append(&WalRecord::Commit(Xid(1)));
        w.force().unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("storage.wal.io_retries"), Some(2));
        assert_eq!(w.durable_records().unwrap().len(), 2);
    }

    #[test]
    fn failed_force_leaves_the_log_retryable() {
        use crate::device::{FaultConfig, FaultyDevice};
        use sias_common::VirtualClock;
        let obs = Registry::new_shared();
        // Burst longer than the retry budget: force fails outright.
        let cfg = FaultConfig {
            seed: 11,
            transient_error_ppm: 1_000_000,
            max_error_burst: u32::MAX,
            ..FaultConfig::none()
        };
        let inner: Arc<dyn Device> = Arc::new(MemDevice::standalone(1 << 12));
        let dev = Arc::new(FaultyDevice::new(inner, cfg, VirtualClock::new(), &obs));
        let w = Wal::with_registry(dev, &obs)
            .with_retry(RetryPolicy { max_attempts: 2, ..RetryPolicy::default() });
        w.append(&WalRecord::Begin(Xid(1)));
        assert!(w.force().is_err());
        assert_eq!(w.record_counts(), (1, 0), "nothing promoted to durable");
        assert_eq!(w.stats().forces, 0);
    }
}
