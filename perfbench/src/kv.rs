//! `kv-rmw-gc`: read-modify-write transactions over a table that fits
//! the buffer pool, with GC and paced checkpoints running the whole time.
//!
//! GC runs as short stop-the-world passes (`SiasDb::vacuum_all` between
//! transactions, once per [`GC_EVERY_COMMITS`]), not as `MaintenanceScheduler`
//! slices: under this workload the concurrent slices lose committed
//! writes. A slice classifies an item, then relocates its committed
//! versions once it holds the tuple lock, re-checking only that the
//! entrypoint did not move, so a version whose writer was in flight at
//! classification but committed before the lock is left out of the
//! relocated chain (lost updates); runs also ended with entrypoints whose
//! chain reached a recycled slot, failed reads and failed slices.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, RwLock};
use std::time::{Duration, Instant};

use sias_common::{RelId, SiasError};
use sias_core::{chain::collect_reachable, MaintenanceConfig, MaintenanceTotals, SiasDb};
use sias_storage::StorageConfig;
use sias_txn::MvccEngine;
use sias_workload::check::{HistOp, HistOutcome, TxnRecord};
use sias_workload::{check_anomalies, History, WriteTag};

use crate::client::{load_keys, payload, verify, Merged, Recorder, PAYLOAD_LEN};
use crate::counters::Counters;
use crate::result::{Interval, Pass};
use crate::spans::Span;
use crate::stats::Rng;

pub const POOL_FRAMES: usize = 16_384;
const KEYS: u64 = 100_000;
const CLIENTS: usize = 2;
const OPS: usize = 8;

/// Commits between GC passes (about half a second of traffic). Pacing
/// GC and checkpoints by work rather than by wall time keeps the
/// maintenance done per commit the same from run to run.
const GC_EVERY_COMMITS: u64 = 2_500;

pub struct State {
    db: SiasDb,
    rel: RelId,
    load: Vec<TxnRecord>,
}

pub fn setup() -> State {
    let db = SiasDb::open(StorageConfig::ssd().with_pool_frames(POOL_FRAMES));
    let rel = db.create_relation("kv");
    let load = load_keys(&db, rel, KEYS);
    db.maintenance(true);
    State { db, rel, load }
}

/// One logical transaction: 8 keys, and which of them are updated
/// after being read.
struct TxnPlan {
    keys: [u64; OPS],
    update: [bool; OPS],
}

fn plan(seed: u64, client: usize, n: usize) -> Vec<TxnPlan> {
    let mut rng = Rng::new(seed, 0x6b76_0000 + client as u64);
    (0..n)
        .map(|_| {
            let mut p = TxnPlan { keys: [0; OPS], update: [false; OPS] };
            for i in 0..OPS {
                p.keys[i] = rng.below(KEYS);
                p.update[i] = rng.next() & 1 == 1;
            }
            p
        })
        .collect()
}

struct ClientRun {
    rec: Recorder,
    records: Vec<TxnRecord>,
    attempted: u64,
    failed: u64,
    bad_reads: Vec<String>,
}

/// Runs one logical transaction, retrying it after a write conflict.
fn run_txn(db: &SiasDb, rel: RelId, p: &TxnPlan, c: &mut ClientRun) {
    c.attempted += 1;
    loop {
        let txn = c.rec.begin(db);
        let xid = txn.xid;
        let mut rec =
            TxnRecord { xid, ops: Vec::with_capacity(2 * OPS), outcome: HistOutcome::Aborted };
        let mut seq = 0u32;
        let mut conflict = false;
        let mut error = None;
        for (&key, &update) in p.keys.iter().zip(&p.update) {
            match c.rec.get(db, &txn, rel, key) {
                Ok(Some(bytes)) => {
                    c.rec.maybe_probe(db, &txn, rel, key);
                    match verify(key, &bytes) {
                        Some(tag) => rec.ops.push(HistOp::Read { key, observed: Some(tag) }),
                        None => c.bad_reads.push(format!("key {key}: payload fails its checksum")),
                    }
                }
                Ok(None) => c.bad_reads.push(format!("key {key}: loaded row not visible")),
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
            if !update {
                continue;
            }
            let tag = WriteTag { xid, seq };
            seq += 1;
            match c
                .rec
                .write("engine.update", &txn, || db.update(&txn, rel, key, &payload(key, tag)))
            {
                Ok(()) => rec.ops.push(HistOp::Write { key, tag }),
                Err(SiasError::WriteConflict { .. }) => {
                    conflict = true;
                    break;
                }
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        if conflict || error.is_some() {
            c.rec.abort(db, txn);
            c.records.push(rec);
            if conflict {
                continue;
            }
            c.failed += 1;
            return;
        }
        match c.rec.commit(db, txn) {
            Ok(()) => rec.outcome = HistOutcome::Committed { commit_seq: 0, acked_at_record: 0 },
            Err(_) => {
                rec.outcome = HistOutcome::Unacked;
                c.failed += 1;
            }
        }
        c.records.push(rec);
        return;
    }
}

/// The per-key committed version order, read from the chains
/// themselves (oldest first), for the checker's dirty-write test, plus
/// the entrypoints whose chain cannot be read. Only the reachable part
/// of a chain is walked: GC may have recycled the pages of versions
/// below the horizon.
fn version_order(
    db: &SiasDb,
    rel: RelId,
    history: &History,
) -> (BTreeMap<u64, Vec<WriteTag>>, Vec<String>) {
    let committed = history.committed();
    let handle = db.relation_handle(rel).expect("kv relation");
    let mut entries = Vec::new();
    handle.vidmap.for_each(|_, tid| entries.push(tid));
    let (pool, txm) = (&db.stack().pool, db.txm());
    let horizon = txm.horizon();
    let mut order = BTreeMap::new();
    let mut unreadable = Vec::new();
    for entry in entries {
        let chain = match collect_reachable(pool, rel, entry, horizon, &txm.clog) {
            Ok(chain) => chain,
            Err(e) => {
                unreadable.push(format!("chain from entrypoint {entry:?} unreadable: {e}"));
                continue;
            }
        };
        let mut tags = Vec::new();
        let mut key = None;
        for (_, v) in chain.iter().rev() {
            if v.payload.len() != PAYLOAD_LEN {
                continue;
            }
            let Some((k, tag)) = WriteTag::decode_payload(&v.payload[..24]) else { continue };
            if committed.contains(&tag.xid) {
                key = Some(k);
                tags.push(tag);
            }
        }
        if let Some(k) = key {
            order.insert(k, tags);
        }
    }
    (order, unreadable)
}

/// GC and paced checkpoints until `stop`: after every
/// [`GC_EVERY_COMMITS`] commits the thread takes `gate` exclusively
/// (clients hold it shared per transaction) and vacuums every relation
/// with no transaction active.
fn maintain(db: &SiasDb, gate: &RwLock<()>, stop: &AtomicBool) -> (MaintenanceTotals, Vec<String>) {
    let ckpt_wal_bytes = MaintenanceConfig::for_db(db).ckpt_wal_bytes;
    let commits = || db.txm().outcome_counts().0;
    let mut totals = MaintenanceTotals::default();
    let mut errors = Vec::new();
    let mut next_gc = commits() + GC_EVERY_COMMITS;
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(1));
        match db.maybe_checkpoint(ckpt_wal_bytes) {
            Ok(ran) => totals.checkpoints += u64::from(ran.is_some()),
            Err(e) => errors.push(format!("paced checkpoint failed: {e}")),
        }
        if commits() < next_gc {
            continue;
        }
        let vacuum = {
            let _quiet = gate.write().expect("gate poisoned by a panicking client");
            db.vacuum_all()
        };
        match vacuum {
            Ok(gc) => totals.gc.merge(gc),
            Err(e) => errors.push(format!("vacuum pass failed: {e}")),
        }
        totals.ticks += 1;
        next_gc = commits() + GC_EVERY_COMMITS;
    }
    (totals, errors)
}

pub fn measure(state: State, seed: u64, seconds: u64, trace: bool) -> (Pass, Vec<Vec<Span>>) {
    let State { db, rel, load } = state;
    // Streams are drawn up front, sized well past what a run consumes;
    // a client that exhausts its stream starts it over.
    let plans: Vec<Vec<TxnPlan>> =
        (0..CLIENTS).map(|c| plan(seed, c, 20_000 * seconds.max(1) as usize)).collect();
    let (gate, stop) = (RwLock::new(()), AtomicBool::new(false));
    let barrier = Barrier::new(CLIENTS + 1);
    let before = Counters::take(&db);
    let t0 = Instant::now();
    let (runs, interval, (totals, maint_errors)) = std::thread::scope(|s| {
        let (db, barrier, gate, stop) = (&db, &barrier, &gate, &stop);
        let handles: Vec<_> = plans
            .iter()
            .map(|stream| {
                s.spawn(move || {
                    let mut c = ClientRun {
                        rec: Recorder::new(trace, t0, 64),
                        records: Vec::new(),
                        attempted: 0,
                        failed: 0,
                        bad_reads: Vec::new(),
                    };
                    barrier.wait();
                    let deadline = Instant::now() + Duration::from_secs(seconds);
                    for p in stream.iter().cycle() {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let _running = gate.read().expect("gate poisoned by the GC thread");
                        run_txn(db, rel, p, &mut c);
                    }
                    c
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let gc = s.spawn(move || maintain(db, gate, stop));
        let runs: Vec<ClientRun> =
            handles.into_iter().map(|h| h.join().expect("kv client")).collect();
        let interval = Interval::since(t0, start);
        stop.store(true, Ordering::Release);
        (runs, interval, gc.join().expect("GC thread"))
    });
    let after = Counters::take(&db);

    let mut history = History { txns: load, ..Default::default() };
    let (mut attempted, mut failed, mut violations) = (0, 0, maint_errors);
    let mut merged = Merged::default();
    for c in runs {
        attempted += c.attempted;
        failed += c.failed;
        violations.extend(c.bad_reads);
        history.txns.extend(c.records);
        merged.add(c.rec);
    }

    // Outputs: no SI anomaly over the whole history, readable chains,
    // and an index whose every record still resolves.
    let (order, unreadable) = version_order(&db, rel, &history);
    history.version_order = order;
    violations.extend(unreadable);
    violations.extend(
        check_anomalies(&history).into_iter().map(|v| format!("{}: {}", v.condition, v.detail)),
    );
    if let Err(e) = db.debug_validate_index(rel) {
        violations.push(format!("index: {e}"));
    }

    let read = std::mem::take(&mut merged.get);
    let live_bytes = KEYS * PAYLOAD_LEN as u64;
    let (mut pass, spans) =
        Pass::new(&before, &after, merged, Some(totals), interval, live_bytes, read, "get calls");
    pass.attempted = attempted;
    pass.failed = failed;
    pass.violations = violations;
    (pass, spans)
}
