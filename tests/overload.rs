//! Overload & resource-exhaustion survival tests.
//!
//! Three concerns share this file:
//!
//! * **ENOSPC boundary sweep** — mirror of `tests/wal_crash.rs`, but the
//!   axis is *where the log device runs out of space* rather than where
//!   the durable stream is truncated: the WAL device is latched
//!   read-only after its N-th page write, for every N the workload can
//!   reach. Every run must end with typed errors only (no panic, no
//!   torn multi-page append) and recover a state byte-identical to a
//!   model replay of the commit records that made it to the device —
//!   with every *acknowledged* commit among them.
//! * **Transaction deadlines** — lock waits, commit forces and scans
//!   give up with a typed [`SiasError::DeadlineExceeded`] instead of
//!   outliving the transaction's deadline.
//! * **Admission + degraded mode** — `try_begin` sheds with a typed
//!   retry-after under pressure, and space exhaustion drives the
//!   engine to read-only (reads keep serving, writes fail fast) and
//!   back to healthy after emergency reclaim.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use sias::common::SiasError;
use sias::core::{AdmissionConfig, FlushPolicy, SiasDb};
use sias::storage::{FaultConfig, HealthState, StorageConfig, Wal, WalRecord};
use sias::txn::{MvccEngine, TxnStatus};

const KEYS: u64 = 7;
const TXNS: u64 = 20;

/// Per-xid writes, acknowledged-commit xids, and whether the run saw a
/// typed resource-exhaustion error.
type WorkloadOutcome = (BTreeMap<u64, Vec<(u64, Vec<u8>)>>, BTreeSet<u64>, bool);

/// Runs the fixed wal_crash workload, tolerating resource-exhaustion
/// errors: every write failure aborts that transaction. Returns the
/// writes of every transaction (by xid) and the set of xids whose
/// commit was *acknowledged* (commit() returned Ok).
fn run_workload_tolerant(db: &SiasDb) -> WorkloadOutcome {
    let rel = db.create_relation("t");
    let mut writes_of: BTreeMap<u64, Vec<(u64, Vec<u8>)>> = BTreeMap::new();
    let mut acked: BTreeSet<u64> = BTreeSet::new();
    let mut saw_exhaustion = false;

    let mut run_txn = |updates: Vec<(u64, Vec<u8>)>, insert: bool| {
        let t = db.begin();
        let xid = t.xid;
        let mut ok = true;
        let mut writes = Vec::new();
        for (k, v) in updates {
            let r = if insert { db.insert(&t, rel, k, &v) } else { db.update(&t, rel, k, &v) };
            match r {
                Ok(()) => writes.push((k, v)),
                // A failed init transaction leaves later updates with
                // nothing to update — benign, not exhaustion.
                Err(SiasError::KeyNotFound(_)) => {
                    ok = false;
                    break;
                }
                Err(e) => {
                    assert!(
                        e.is_resource_exhausted() || matches!(e, SiasError::Device(_)),
                        "unexpected write error: {e:?}"
                    );
                    saw_exhaustion = true;
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            match db.commit(t) {
                Ok(()) => {
                    writes_of.insert(xid.0, writes);
                    acked.insert(xid.0);
                }
                Err(e) => {
                    assert!(
                        e.is_resource_exhausted() || matches!(e, SiasError::Device(_)),
                        "unexpected commit error: {e:?}"
                    );
                    saw_exhaustion = true;
                    // Outcome uncertain: the Commit record may still be
                    // durable. Record the writes so the model can apply
                    // them if recovery finds the commit.
                    writes_of.insert(xid.0, writes);
                }
            }
        } else {
            db.abort(t);
        }
    };

    run_txn((0..KEYS).map(|k| (k, format!("init {k}").into_bytes())).collect(), true);
    for i in 0..TXNS {
        let updates = [(i * 2) % KEYS, (i * 2 + 1) % KEYS]
            .into_iter()
            .enumerate()
            .map(|(slot, key)| (key, format!("txn {i} slot {slot}").into_bytes()))
            .collect();
        run_txn(updates, false);
    }
    (writes_of, acked, saw_exhaustion)
}

/// One sweep point: the WAL device fails every write from the N-th on
/// with a typed DiskFull. The run must stay panic-free and recover
/// consistently from whatever reached the device.
fn enospc_at_boundary(n: u64) -> bool {
    let mut cfg = StorageConfig::in_memory();
    cfg.faults.wal = FaultConfig { seed: 0xE05 + n, enospc_after_writes: n, ..FaultConfig::none() };
    let db = SiasDb::open(cfg);
    let (writes_of, acked, saw_exhaustion) = run_workload_tolerant(&db);
    // Flush what still can be flushed (ignore the expected failure).
    let _ = db.stack().wal.force();

    // Recover from the device image, exactly like a post-crash process.
    let (records, _) = Wal::scan_device(db.stack().wal.device().as_ref());
    let durable_commits: BTreeSet<u64> = records
        .iter()
        .filter_map(|r| match r {
            WalRecord::Commit(x) => Some(x.0),
            _ => None,
        })
        .collect();

    // Durability: every acknowledged commit reached the device.
    for xid in &acked {
        assert!(durable_commits.contains(xid), "boundary {n}: acked xid {xid} lost");
    }

    let (recovered, _) =
        SiasDb::recover_from_wal(&records, StorageConfig::in_memory(), FlushPolicy::T2)
            .unwrap_or_else(|e| panic!("boundary {n}: recovery failed: {e}"));

    // The recovered committed set is exactly the durable commit records.
    let mut expected: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for (xid, writes) in &writes_of {
        let committed =
            recovered.txm().clog.status(sias::common::Xid(*xid)) == TxnStatus::Committed;
        assert_eq!(committed, durable_commits.contains(xid), "boundary {n}: xid {xid}");
        if committed {
            for (k, v) in writes {
                expected.insert(*k, v.clone());
            }
        }
    }

    // State consistency: visible data equals the model replay.
    let got: BTreeMap<u64, Vec<u8>> = match recovered.relation("t") {
        Some(rel) => {
            let t = recovered.begin();
            let all = recovered.scan_all(&t, rel).unwrap();
            recovered.commit(t).unwrap();
            all.into_iter().map(|(k, b)| (k, b.to_vec())).collect()
        }
        None => BTreeMap::new(),
    };
    assert_eq!(got, expected, "boundary {n}: visible state diverged from model");
    saw_exhaustion
}

#[test]
fn enospc_at_every_wal_append_boundary_recovers_consistently() {
    // N = 1 starves the log immediately; large N never fires. Sweep far
    // enough that the tail of the range completes the whole workload.
    let mut hit = 0u64;
    let mut clean = 0u64;
    for n in 1..=96 {
        if enospc_at_boundary(n) {
            hit += 1;
        } else {
            clean += 1;
        }
    }
    assert!(hit >= 20, "the sweep must actually exercise ENOSPC (hit {hit})");
    assert!(clean >= 1, "the sweep must include at least one full run (clean {clean})");
}

// ---------------------------------------------------------------------
// Deadline propagation.
// ---------------------------------------------------------------------

#[test]
fn lock_wait_respects_txn_deadline() {
    let db = SiasDb::open(StorageConfig::in_memory());
    let rel = db.create_relation("t");
    let setup = db.begin();
    db.insert(&setup, rel, 1, b"v0").unwrap();
    db.commit(setup).unwrap();

    // t1 holds the tuple lock without having appended a successor (the
    // window between Algorithm 3's lock acquisition and its append), so
    // t2 reaches the engine's lock wait instead of the first-updater
    // pre-check.
    let t1 = db.begin();
    db.txm().locks.lock(rel, sias::common::Vid(0), t1.xid).unwrap();

    // t2 must give up at its deadline, long before the lock-table
    // timeout, with the typed deadline error.
    let t2 = db.begin_with_deadline(Some(Instant::now() + Duration::from_millis(40)));
    let start = Instant::now();
    let err = db.update(&t2, rel, 1, b"blocked").unwrap_err();
    let waited = start.elapsed();
    assert!(matches!(err, SiasError::DeadlineExceeded { xid } if xid == t2.xid), "{err:?}");
    assert!(waited >= Duration::from_millis(30), "gave up too early: {waited:?}");
    assert!(waited < Duration::from_millis(800), "outlived the deadline: {waited:?}");
    db.abort(t2);
    db.abort(t1);
}

#[test]
fn expired_deadline_fails_writes_and_scans_without_waiting() {
    let db = SiasDb::open(StorageConfig::in_memory());
    let rel = db.create_relation("t");
    let setup = db.begin();
    for k in 0..50 {
        db.insert(&setup, rel, k, format!("v{k}").into_bytes().as_slice()).unwrap();
    }
    db.commit(setup).unwrap();

    let t = db.begin_with_deadline(Some(Instant::now() - Duration::from_millis(1)));
    let start = Instant::now();
    assert!(matches!(db.update(&t, rel, 1, b"late"), Err(SiasError::DeadlineExceeded { .. })));
    assert!(matches!(db.scan_all(&t, rel), Err(SiasError::DeadlineExceeded { .. })));
    // The VID-map scan honors it on the caller's thread and on the
    // shared workers alike.
    for threads in [1, 4] {
        assert!(matches!(db.scan(&t, rel, threads), Err(SiasError::DeadlineExceeded { .. })));
    }
    assert!(matches!(db.scan_range(&t, rel, 10, 20), Err(SiasError::DeadlineExceeded { .. })));
    assert!(start.elapsed() < Duration::from_millis(200), "expired deadline must not wait");
    db.abort(t);
}

#[test]
fn far_deadline_changes_nothing() {
    let db = SiasDb::open(StorageConfig::in_memory());
    let rel = db.create_relation("t");
    let t = db.begin_with_deadline(Some(Instant::now() + Duration::from_secs(3600)));
    db.insert(&t, rel, 1, b"x").unwrap();
    db.commit(t).unwrap();
    let t = db.begin();
    assert_eq!(db.get(&t, rel, 1).unwrap().unwrap().as_ref(), b"x");
    db.commit(t).unwrap();
}

// ---------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------

#[test]
fn try_begin_sheds_over_active_txn_limit_and_recovers() {
    let db = SiasDb::open(StorageConfig::in_memory());
    db.admission().set_config(AdmissionConfig {
        enabled: true,
        max_active_txns: 2,
        max_delay: Duration::from_millis(10),
        delay_tick: Duration::from_millis(1),
        ..AdmissionConfig::default()
    });

    let t1 = db.begin();
    let t2 = db.begin(); // blocking begins are delayed, never refused
    let err = db.try_begin().unwrap_err();
    match err {
        SiasError::Overloaded { retry_after_ms } => assert!(retry_after_ms >= 10),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let snap = db.metrics_snapshot();
    assert_eq!(snap.counter("core.admission.shed"), Some(1));

    // Pressure clears with the commits; the next try_begin is admitted.
    db.commit(t1).unwrap();
    db.commit(t2).unwrap();
    let t3 = db.try_begin().unwrap();
    db.commit(t3).unwrap();
    let snap = db.metrics_snapshot();
    assert!(snap.counter("core.admission.admitted").unwrap() >= 1);
}

#[test]
fn blocking_begin_is_delayed_but_admitted_under_pressure() {
    let db = SiasDb::open(StorageConfig::in_memory());
    db.admission().set_config(AdmissionConfig {
        enabled: true,
        max_active_txns: 1,
        max_delay: Duration::from_millis(20),
        delay_tick: Duration::from_millis(1),
        ..AdmissionConfig::default()
    });
    let t1 = db.begin();
    let start = Instant::now();
    let t2 = db.begin(); // over limit: parks for the budget, then admits
    assert!(start.elapsed() >= Duration::from_millis(15));
    db.commit(t2).unwrap();
    db.commit(t1).unwrap();
    let snap = db.metrics_snapshot();
    assert!(snap.counter("core.admission.delayed").unwrap() >= 1);
}

// ---------------------------------------------------------------------
// Degraded read-only mode at the engine level.
// ---------------------------------------------------------------------

#[test]
fn space_exhaustion_enters_readonly_serves_reads_and_heals_via_maintenance() {
    let mut cfg = StorageConfig::in_memory();
    // A tiny logical quota over a huge device: the log "fills" fast.
    cfg.space.wal_quota_pages = 24;
    cfg.space.low_watermark_pct = 50;
    cfg.space.hard_watermark_pct = 75;
    let db = SiasDb::open(cfg);
    let rel = db.create_relation("t");

    // Seed a row we can keep reading throughout.
    let t = db.begin();
    db.insert(&t, rel, 0, b"sentinel").unwrap();
    db.commit(t).unwrap();

    // Write until the hard watermark rejects us.
    let payload = vec![0x5A; 2048];
    let mut rejected = None;
    for i in 1..4000u64 {
        let t = db.begin();
        let r = db.insert(&t, rel, i, &payload);
        match r {
            Ok(()) => match db.commit(t) {
                Ok(()) => {}
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            },
            Err(e) => {
                db.abort(t);
                rejected = Some(e);
                break;
            }
        }
    }
    let err = rejected.expect("a 24-page quota must reject the write storm");
    assert!(
        matches!(err, SiasError::ReadOnly(_) | SiasError::DiskFull { .. }),
        "expected a typed space rejection, got {err:?}"
    );
    assert_eq!(db.stack().health.state(), HealthState::ReadOnly);

    // Reads keep serving while write-unavailable.
    let t = db.begin();
    assert_eq!(db.get(&t, rel, 0).unwrap().unwrap().as_ref(), b"sentinel");
    db.commit(t).unwrap();
    // And fresh writes fail fast, typed.
    let t = db.begin();
    let e = db.insert(&t, rel, 999_999, b"nope").unwrap_err();
    assert!(matches!(e, SiasError::ReadOnly(_)), "{e:?}");
    db.abort(t);

    // The maintenance tick notices the pressure and reclaims: vacuum +
    // checkpoint + WAL truncation, healing the health machine.
    db.maintenance(true);
    assert_eq!(db.stack().health.state(), HealthState::Healthy, "reclaim must heal");
    let snap = db.metrics_snapshot();
    assert!(snap.counter("storage.health.recovered").unwrap() >= 1);

    // Back in business.
    let t = db.begin();
    db.insert(&t, rel, 1_000_000, b"after reclaim").unwrap();
    db.commit(t).unwrap();
}
