//! Multi-core stress: 8 OS threads of contended read-modify-write
//! transactions over one shared SIAS engine, with the merged history fed
//! to the black-box SI-anomaly checker.
//!
//! This is the integration-level proof of the concurrent hot paths
//! working *together*: the sharded buffer pool serves pins from all
//! threads, committers ride the leader/follower WAL group commit, and
//! VID-map entry/update is CAS-only — and none of it may cost isolation.
//! The checker sees only what clients observed (tagged reads/writes and
//! outcomes) plus the engine's own version chains, so any dirty write,
//! aborted read, intermediate read, or lost update that slips through
//! the concurrency machinery fails the test.

use sias_common::{RelId, Vid};
use sias_core::SiasDb;
use sias_storage::{StorageConfig, WalConfig};
use sias_txn::{MvccEngine, Txn};
use sias_workload::threaded::{drive_threaded, fill_sias_version_order, ThreadedConfig};
use sias_workload::{check_anomalies, check_serializability, History};

fn stress(seed: u64, wal: WalConfig) -> (History, u64, u64) {
    let db = SiasDb::open(StorageConfig::in_memory().with_wal_config(wal));
    let cfg = ThreadedConfig {
        threads: 8,
        txns_per_thread: 40,
        keys: 24, // small key space: heavy write-write contention
        ops_per_txn: 5,
        update_pct: 70,
        abort_ppm: 30_000,
        seed,
        serializable: false,
        constraint_pairs: false,
    };
    let mut run = drive_threaded(&db, &cfg);
    fill_sias_version_order(&db, &mut run.history);
    (run.history, run.committed, run.conflicts)
}

#[test]
fn eight_thread_contended_history_is_anomaly_free() {
    let (history, committed, conflicts) =
        stress(0xC0FFEE, WalConfig { group_timeout_ticks: 32, max_batch: 32, force_sleep_us: 0 });
    assert_eq!(history.txns.len(), 1 + 8 * 40, "every transaction is in the merged history");
    assert!(committed > 20, "contended run still commits work: {committed}");
    assert!(conflicts > 0, "24 keys × 8 threads must produce first-updater-wins conflicts");
    assert!(!history.version_order.is_empty(), "chain walk yielded a version order");
    let violations = check_anomalies(&history);
    assert!(violations.is_empty(), "SI anomalies under concurrency: {violations:?}");
}

#[test]
fn group_commit_with_real_force_latency_stays_anomaly_free() {
    // A real (slept) force latency widens the window in which followers
    // pile onto the leader's batch — the exact interleaving the group
    // commit protocol must get right. Durability ordering bugs (ack
    // before force, reordered LSNs) surface as checker violations or as
    // scan_device mismatches in the WAL's own tests; here we assert the
    // client-visible history stays clean.
    let (history, committed, _) =
        stress(7, WalConfig { group_timeout_ticks: 64, max_batch: 16, force_sleep_us: 100 });
    assert!(committed > 20);
    let violations = check_anomalies(&history);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn batched_scan_matches_scalar_after_contended_run() {
    // The relation left behind by a contended multi-threaded run is the
    // adversarial input for the batched traversal engine: chains of
    // mixed depth, aborted heads from first-updater-wins losers and
    // abort_ppm rollbacks, and tombstone residue. After the anomaly
    // checker certifies the history, every scan engine must agree
    // byte-for-byte on what a fresh snapshot sees.
    let db = SiasDb::open(StorageConfig::in_memory());
    let cfg = ThreadedConfig {
        threads: 8,
        txns_per_thread: 40,
        keys: 24,
        ops_per_txn: 5,
        update_pct: 70,
        abort_ppm: 30_000,
        seed: 0xBA7C4,
        serializable: false,
        constraint_pairs: false,
    };
    let mut run = drive_threaded(&db, &cfg);
    fill_sias_version_order(&db, &mut run.history);
    let violations = check_anomalies(&run.history);
    assert!(violations.is_empty(), "{violations:?}");

    let rel = db.create_relation("threaded"); // resolves the existing relation
    let reader = db.begin();
    let serial = scalar_scan(&db, rel, &reader);
    assert!(!serial.is_empty(), "contended run left visible rows");
    for threads in [1, 2, 4, 8] {
        assert_eq!(owned(db.scan(&reader, rel, threads).unwrap()), serial, "scan({threads})");
    }
    db.commit(reader).unwrap();
}

/// The scalar oracle of `scan`: every VID-map entry, in VID order, read
/// through the scalar point-read walk.
fn scalar_scan(db: &SiasDb, rel: RelId, reader: &Txn) -> Vec<(Vid, Vec<u8>)> {
    let mut vids = Vec::new();
    db.relation_handle(rel).unwrap().vidmap.for_each(|vid, _| vids.push(vid));
    owned(vids.into_iter().filter_map(|vid| Some((vid, db.read_item(reader, rel, vid).unwrap()?))))
}

/// Copies each payload out, so rows compare as plain bytes.
fn owned<K, P: AsRef<[u8]>>(rows: impl IntoIterator<Item = (K, P)>) -> Vec<(K, Vec<u8>)> {
    rows.into_iter().map(|(k, p)| (k, p.as_ref().to_vec())).collect()
}

#[test]
fn eight_thread_ssi_constraint_pairs_admit_no_g2() {
    // The serializability gate under real concurrency: 8 threads in
    // constraint-pair mode hammer zipfian-distributed key pairs — read
    // both halves, write one — which is exactly the access shape that
    // produces write skew under plain SI. With the engine upgraded to
    // SSI, the admitted (committed) history must contain no dependency
    // cycle at all: zero G2, zero G1c, on top of the usual SI anomaly
    // conditions. Pivot aborts are the mechanism, so the run must also
    // show the engine actually exercising it on this workload.
    let db = SiasDb::open(StorageConfig::in_memory());
    let cfg = ThreadedConfig {
        threads: 8,
        txns_per_thread: 40,
        keys: 24,
        ops_per_txn: 5,
        update_pct: 70,
        abort_ppm: 0, // no client aborts: every retryable failure is the engine's call
        seed: 0x551C0DE,
        serializable: true,
        constraint_pairs: true,
    };
    let mut run = drive_threaded(&db, &cfg);
    fill_sias_version_order(&db, &mut run.history);
    assert!(run.committed > 20, "SSI run still commits work: {}", run.committed);
    assert!(
        run.serialization_aborts > 0,
        "zipfian constraint pairs must trip pivot aborts under SSI"
    );
    let violations = check_anomalies(&run.history);
    assert!(violations.is_empty(), "SI anomalies under SSI stress: {violations:?}");
    let cycles = check_serializability(&run.history);
    assert!(cycles.is_empty(), "SSI admitted a dependency cycle: {cycles:?}");
}
