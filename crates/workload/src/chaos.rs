//! Deterministic fault-injection harness.
//!
//! One entry point, [`run`], drives a seeded workload over a small keyed
//! table whose payloads are self-describing, checksummed [`WriteTag`]s,
//! records everything the clients did and observed as a [`History`], and
//! feeds it to the black-box checker ([`check_anomalies`],
//! [`check_durability`], [`check_serializability`]). Every run shares one
//! session: it opens the engine with a commit-acknowledgement hook, runs
//! a setup transaction that inserts every key, books each acknowledged
//! commit into the history, and ends with the verdict. The [`Scenario`]
//! names the one step that differs — a crash at every Nth WAL-record
//! boundary, bit rot plus a scrub, a crash inside a GC slice, planted
//! write skew, or a full WAL quota — and its gate: the [`ChaosReport`]'s
//! `failures` list every reason, besides a checker violation, that the
//! run failed its scenario's contract or proved nothing.
//!
//! Determinism is the point: the workload runs on a single thread (the
//! crash sweep interleaves its terminals round-robin), all randomness
//! comes from a splitmix64 stream seeded by [`ChaosConfig::seed`], and
//! device faults (if enabled) draw from the storage layer's own
//! deterministic injector keyed by the virtual clock. Every fault
//! sequence — and therefore every verdict — is reproducible from the
//! `(seed, scenario)` pair alone, which [`ChaosReport::fingerprint`]
//! certifies.
//!
//! The harness can also impersonate a buggy engine:
//! [`ChaosConfig::plant_durability_bug`] makes the crash sweep
//! acknowledge commits at the durability watermark observed at
//! transaction *begin* — the classic ack-before-force bug. The checker
//! must flag it (DUR-ACK), which validates the checker itself end to end.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;
use sias_common::{RelId, SiasError, SiasResult, Xid};
use sias_core::{FlushPolicy, GcCrashPoint, GcSliceOpts, GcStats, SiasDb, TupleVersion};
use sias_obs::{FlightRecorder, MetricsSnapshot, SpanName, TraceEvent};
use sias_storage::{FaultConfig, FaultPlan, HealthState, StorageConfig, Wal, WalRecord};
use sias_txn::{MvccEngine, Txn, TxnStatus};

use crate::check::{
    check_anomalies, check_durability, check_serializability, DurabilityInput, HistOp, HistOutcome,
    History, TxnRecord, Violation, WriteTag,
};
use crate::random::SplitMix64;

/// Parameters of one chaos run. Two runs with equal configs and
/// scenarios produce bit-identical histories, fault sequences and
/// verdicts.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Master seed for the workload's splitmix64 stream and the device
    /// fault injector.
    pub seed: u64,
    /// Transactions to run (excluding the setup transaction).
    pub txns: usize,
    /// Key-space size; every key is pre-inserted by the setup txn.
    pub keys: u64,
    /// Operations per transaction.
    pub ops_per_txn: usize,
    /// Simulated terminals of the crash sweep, interleaved round-robin
    /// on one thread.
    pub terminals: usize,
    /// Probability (parts per million) of a deliberate client abort at
    /// the end of a transaction.
    pub abort_ppm: u32,
    /// Fault profile for the *data* device during the run. The WAL
    /// device always runs fault-free here: torn and short log writes
    /// are exercised separately by truncating the record stream.
    pub data_faults: FaultConfig,
    /// Acknowledge commits at the durability watermark recorded at
    /// transaction begin instead of after the commit force — a planted
    /// ack-before-force bug the checker must catch.
    pub plant_durability_bug: bool,
    /// Run the engine in serializable (SSI) mode. The verdict then
    /// additionally runs [`check_serializability`]: a correct SSI
    /// implementation admits no G2 cycle, ever.
    pub serializable: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 1,
            txns: 48,
            keys: 12,
            ops_per_txn: 6,
            terminals: 4,
            abort_ppm: 120_000,
            data_faults: FaultConfig::none(),
            plant_durability_bug: false,
            serializable: false,
        }
    }
}

impl ChaosConfig {
    /// Default shape with a specific seed.
    pub fn with_seed(seed: u64) -> Self {
        ChaosConfig { seed, ..Default::default() }
    }
}

/// The step that differs between chaos runs: which fault is injected
/// and what the run must prove.
#[derive(Clone, Copy, Debug)]
pub enum Scenario {
    /// `terminals` interleaved read-modify-write clients leave one
    /// transaction in flight; the engine then "crashes" at every `every`th
    /// WAL-record boundary (plus the full log), and each prefix recovered
    /// on a fresh stack is checked for durability. Gate: a faulty data
    /// device must inject at least one fault.
    CrashSweep {
        /// Records between crash points.
        every: u64,
    },
    /// Serial transactions, a checkpoint, one flipped bit in each of up
    /// to `rot_pages` sealed data pages, then a scrub sweep and a probe of
    /// every key. Gate: some page rotted and every corrupt page was
    /// repaired.
    Scrub {
        /// Sealed pages to rot.
        rot_pages: usize,
    },
    /// Serial transactions and a churn of the upper key half build
    /// relocation work; an incremental GC slice is killed at the given
    /// point, the WAL is recovered on a fresh stack, and the surviving
    /// engine finishes GC and probes every key. Gate: the point fired and
    /// recovery lost no committed key.
    GcCrash(GcCrashPoint),
    /// Plants textbook write skews: for each pair `p` over keys
    /// `(2p, 2p+1)`, T1 and T2 both read both keys, T1 writes `2p`, T2
    /// writes `2p+1`, T1 commits, T2 commits. Gate: plain SI admits one
    /// G2 cycle per pair; SSI aborts exactly one pivot per pair (its G2
    /// cycles are violations).
    WriteSkew {
        /// Constraint pairs to plant.
        pairs: u64,
    },
    /// Serial write storm into a WAL quota until the engine turns
    /// read-only, a probe while read-only, the emergency reclaim, and a
    /// post-reclaim write transaction. Gate: writes were rejected typed,
    /// reads kept serving, and the engine healed.
    Enospc {
        /// WAL quota in pages.
        quota_pages: u64,
        /// Low watermark; the hard watermark sits 20 points above it.
        low_watermark_pct: u64,
    },
}

/// Verdict of one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// The seed that produced this run.
    pub seed: u64,
    /// Transactions acknowledged as committed (the setup transaction and
    /// probes included).
    pub committed_txns: u64,
    /// Transactions aborted by the client, the engine or a fault.
    pub aborted_txns: u64,
    /// Every checker finding, tagged with the crash point whose recovered
    /// state exposed it (`None`: a finding over the whole history).
    pub violations: Vec<(Option<u64>, Violation)>,
    /// One-line summary of the run in its scenario's own terms.
    pub summary: String,
    /// The scenario's gate: every reason, besides a violation, that the
    /// run failed its contract or proved nothing. Empty on a pass.
    pub failures: Vec<String>,
    /// Order-sensitive digest of the config, the durable log, the history
    /// outcomes and the violations: equal seeds and scenarios must produce
    /// equal fingerprints. Trace events and metrics are excluded —
    /// wall-clock timings are not reproducible.
    pub fingerprint: u64,
    /// The recorded client history, with the per-key committed version
    /// order the verdict used.
    pub history: History,
    /// Flight-recorder dump of the engine under test: the retained span
    /// window plus one `anomaly.flag` instant per violation (`arg` = its
    /// crash point, 0 for a whole-history finding).
    pub trace_events: Vec<TraceEvent>,
    /// Metrics snapshot of the engine under test, taken at the end.
    pub metrics: MetricsSnapshot,
}

/// Runs one seeded chaos scenario and returns its verdict.
pub fn run(cfg: &ChaosConfig, scenario: Scenario) -> ChaosReport {
    let mut s = Session::open(cfg, scenario);
    let (summary, failures) = match scenario {
        Scenario::CrashSweep { every } => crash_sweep(&mut s, every),
        Scenario::Scrub { rot_pages } => scrub(&mut s, rot_pages),
        Scenario::GcCrash(point) => gc_crash(&mut s, point),
        Scenario::WriteSkew { pairs } => write_skew(&mut s, pairs),
        Scenario::Enospc { .. } => enospc(&mut s),
    };
    s.report(summary, failures)
}

/// What every scenario shares: the engine, the seeded stream and the
/// history with its counters.
struct Session<'a> {
    cfg: &'a ChaosConfig,
    scenario: Scenario,
    db: SiasDb,
    rel: RelId,
    /// Dense commit sequence per acknowledged xid, fed by the engine's
    /// commit hook.
    seqs: Arc<Mutex<HashMap<Xid, u64>>>,
    rng: SplitMix64,
    tracer: Arc<FlightRecorder>,
    history: History,
    committed: u64,
    aborted: u64,
    violations: Vec<(Option<u64>, Violation)>,
}

impl<'a> Session<'a> {
    /// Opens the engine for `scenario` and runs the setup transaction.
    fn open(cfg: &'a ChaosConfig, scenario: Scenario) -> Self {
        // A deliberately tiny pool: steady eviction and re-read traffic is
        // what routes the workload through the (possibly faulty) data
        // device; with the default pool every page would stay cached and
        // injected faults would never surface.
        let mut storage = StorageConfig::in_memory()
            .with_pool_frames(48)
            .with_faults(FaultPlan { data: cfg.data_faults, wal: FaultConfig::none() });
        if let Scenario::Enospc { quota_pages, low_watermark_pct } = scenario {
            let low = low_watermark_pct.clamp(10, 75);
            storage = storage
                .with_wal_quota_pages(quota_pages)
                .with_space_watermarks(low, (low + 20).min(95));
        }
        // Each scenario draws from its own salt of the seed, so the
        // streams of different scenarios never align.
        let salt = match scenario {
            Scenario::CrashSweep { .. } | Scenario::WriteSkew { .. } => 0,
            Scenario::Scrub { .. } => 0x5c2b_ab5e,
            Scenario::GcCrash(_) => 0x6c_9c3d_11f7,
            Scenario::Enospc { .. } => 0xe05_0e05,
        };
        let db = SiasDb::open(storage);
        if cfg.serializable {
            db.set_serializable();
        }
        // The flight recorder runs for the engine's whole lifetime: when
        // a crash or an anomaly fires, the last window of spans is the
        // dump. Recovery engines built later never enable tracing.
        let tracer = Arc::clone(db.stack().obs.tracer());
        tracer.set_enabled(true);
        let seqs: Arc<Mutex<HashMap<Xid, u64>>> = Arc::default();
        {
            let seqs = Arc::clone(&seqs);
            db.txm().set_commit_hook(move |xid, seq| {
                seqs.lock().insert(xid, seq);
            });
        }
        let rel = db.create_relation("chaos");
        let mut s = Session {
            cfg,
            scenario,
            db,
            rel,
            seqs,
            rng: SplitMix64(cfg.seed ^ salt),
            tracer,
            history: History::default(),
            committed: 0,
            aborted: 0,
            violations: Vec::new(),
        };
        // Setup: every key exists before the scenario starts.
        let keys = if let Scenario::WriteSkew { pairs } = scenario { pairs * 2 } else { cfg.keys };
        let txn = s.db.begin();
        let mut rec = record(&txn);
        for key in 0..keys {
            let tag = WriteTag { xid: txn.xid, seq: key as u32 };
            s.db.insert(&txn, rel, key, &tag.encode_payload(key)).expect("setup insert");
            rec.ops.push(HistOp::Write { key, tag });
        }
        s.commit(txn, rec, None).expect("setup commit");
        s
    }

    /// Commits `txn` and books `rec`: acknowledged at the durable record
    /// count after the commit force (or at `ack_basis`, the planted bug);
    /// aborted when SSI rejected it before its Commit record was
    /// appended; otherwise unacknowledged, since the record may still
    /// become durable.
    fn commit(&mut self, txn: Txn, mut rec: TxnRecord, ack_basis: Option<u64>) -> SiasResult<()> {
        let xid = txn.xid;
        let result = self.db.commit(txn);
        match &result {
            Ok(()) => {
                let commit_seq = self.seqs.lock().remove(&xid).unwrap_or(0);
                let acked_at_record =
                    ack_basis.unwrap_or_else(|| self.db.stack().wal.durable_record_count());
                rec.outcome = HistOutcome::Committed { commit_seq, acked_at_record };
                self.committed += 1;
            }
            Err(SiasError::SerializationFailure(_)) => self.aborted += 1,
            Err(_) => rec.outcome = HistOutcome::Unacked,
        }
        self.history.txns.push(rec);
        result
    }

    fn abort(&mut self, txn: Txn, rec: TxnRecord) {
        self.db.abort(txn);
        self.aborted += 1;
        self.history.txns.push(rec);
    }

    /// One serial transaction of `ops_per_txn` read-modify-writes on
    /// seeded keys, left open for the caller to finish. A write rejected
    /// for lack of space aborts and books the transaction and returns the
    /// typed error; any other failure is an engine bug.
    fn serial_txn(&mut self) -> SiasResult<(Txn, TxnRecord)> {
        let txn = self.db.begin();
        let mut rec = record(&txn);
        for seq in 0..self.cfg.ops_per_txn as u32 {
            let key = self.rng.next_u64() % self.cfg.keys;
            let observed = read_tag(&self.db, &txn, self.rel, key).expect("serial read");
            rec.ops.push(HistOp::Read { key, observed });
            let tag = WriteTag { xid: txn.xid, seq };
            match self.db.update(&txn, self.rel, key, &tag.encode_payload(key)) {
                Ok(()) => rec.ops.push(HistOp::Write { key, tag }),
                Err(e) => {
                    assert!(e.is_resource_exhausted(), "a serial write may only fail typed: {e:?}");
                    self.abort(txn, rec);
                    return Err(e);
                }
            }
        }
        Ok((txn, rec))
    }

    /// `cfg.txns` serial transactions, each aborted by the client with
    /// probability `abort_ppm`.
    fn serial_txns(&mut self) {
        for _ in 0..self.cfg.txns {
            let (txn, rec) = self.serial_txn().expect("no space quota, no rejected write");
            if self.rng.chance_ppm(self.cfg.abort_ppm) {
                self.abort(txn, rec);
            } else {
                self.commit(txn, rec, None).expect("serial commit");
            }
        }
    }

    /// Reads every key back in one committed transaction appended to the
    /// history, so the checker sees the final state as just another
    /// snapshot. Every key must still carry its tag.
    fn probe(&mut self) {
        let txn = self.db.begin();
        let mut rec = record(&txn);
        for key in 0..self.cfg.keys {
            let observed = read_tag(&self.db, &txn, self.rel, key).expect("probe read");
            assert!(observed.is_some(), "probe read of key {key} lost its tag");
            rec.ops.push(HistOp::Read { key, observed });
        }
        self.commit(txn, rec, None).expect("probe commit");
    }

    /// The whole-history verdict: reads the per-key committed version
    /// order off `db` (the live engine unless given), runs the SI-anomaly
    /// checker, and — when the engine ran serializable or the scenario
    /// plants write skew — the serialization-graph checker, whose cycles
    /// are violations only under SSI. Returns both finding counts.
    fn verdict(&mut self, db: Option<&SiasDb>) -> (usize, usize) {
        let db = db.unwrap_or(&self.db);
        self.history.version_order = extract_version_order(db, "chaos", &self.history.committed());
        let anomalies = check_anomalies(&self.history);
        let cycles = if self.cfg.serializable || matches!(self.scenario, Scenario::WriteSkew { .. })
        {
            check_serializability(&self.history)
        } else {
            Vec::new()
        };
        let counts = (anomalies.len(), cycles.len());
        self.violations.extend(anomalies.into_iter().map(|v| (None, v)));
        if self.cfg.serializable {
            self.violations.extend(cycles.into_iter().map(|v| (None, v)));
        }
        counts
    }

    fn report(self, mut summary: String, failures: Vec<String>) -> ChaosReport {
        let (records, _) = Wal::scan_device(self.db.stack().wal.device().as_ref());
        let fingerprint = self.fingerprint(&records);
        if let Scenario::CrashSweep { .. } = self.scenario {
            summary.push_str(&format!(", fingerprint {fingerprint:016x}"));
        }
        let metrics = self.db.stack().obs.snapshot();
        for (point, _) in &self.violations {
            self.tracer.instant(SpanName::AnomalyFlag, 0, point.unwrap_or(0));
        }
        ChaosReport {
            seed: self.cfg.seed,
            committed_txns: self.committed,
            aborted_txns: self.aborted,
            summary,
            failures,
            fingerprint,
            trace_events: self.tracer.capture(),
            metrics,
            violations: self.violations,
            history: self.history,
        }
    }

    /// Deterministic digest over the config, the log, the history and the
    /// verdicts.
    fn fingerprint(&self, records: &[WalRecord]) -> u64 {
        let cfg = self.cfg;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        (cfg.seed, cfg.txns, cfg.keys, cfg.ops_per_txn, cfg.terminals).hash(&mut h);
        (cfg.plant_durability_bug, cfg.serializable).hash(&mut h);
        records.len().hash(&mut h);
        for rec in records {
            format!("{rec:?}").hash(&mut h);
        }
        for t in &self.history.txns {
            format!("{:?}|{:?}", t.xid, t.outcome).hash(&mut h);
            t.ops.len().hash(&mut h);
        }
        for (point, v) in &self.violations {
            if let Some(point) = point {
                point.hash(&mut h);
            }
            v.condition.hash(&mut h);
            v.detail.hash(&mut h);
        }
        h.finish()
    }
}

/// A fresh history record for `txn`, aborted until its commit is acked.
fn record(txn: &Txn) -> TxnRecord {
    TxnRecord { xid: txn.xid, ops: Vec::new(), outcome: HistOutcome::Aborted }
}

/// Reads `key` and decodes its tag; a payload that fails its checksum or
/// names another key reads as `None`.
fn read_tag(db: &SiasDb, txn: &Txn, rel: RelId, key: u64) -> SiasResult<Option<WriteTag>> {
    Ok(db
        .get(txn, rel, key)?
        .and_then(|bytes| WriteTag::decode_payload(&bytes))
        .and_then(|(k, tag)| (k == key).then_some(tag)))
}

/// The tag each of `keys` reads back as in one transaction on a
/// recovered engine; keys that fail to read or decode are absent.
fn read_back(db: &SiasDb, keys: u64) -> BTreeMap<u64, WriteTag> {
    let mut state = BTreeMap::new();
    let Some(rel) = db.relation("chaos") else { return state };
    let txn = db.begin();
    for key in 0..keys {
        if let Ok(Some(tag)) = read_tag(db, &txn, rel, key) {
            state.insert(key, tag);
        }
    }
    db.commit(txn).expect("read-back commit");
    state
}

/// One simulated terminal's in-flight transaction.
struct Terminal {
    txn: Txn,
    rec: TxnRecord,
    ops_done: usize,
    op_seq: u32,
    /// Durable watermark at begin — the planted bug acks here.
    ack_basis: u64,
}

fn crash_sweep(s: &mut Session, every: u64) -> (String, Vec<String>) {
    let cfg = s.cfg;
    let mut terminals: Vec<Option<Terminal>> = (0..cfg.terminals.max(1)).map(|_| None).collect();
    let mut started = 0usize;
    loop {
        let mut idle = true;
        for slot in terminals.iter_mut() {
            match slot {
                None if started < cfg.txns => {
                    let ack_basis = s.db.stack().wal.record_counts().0;
                    let txn = s.db.begin();
                    *slot = Some(Terminal {
                        rec: record(&txn),
                        txn,
                        ops_done: 0,
                        op_seq: 0,
                        ack_basis,
                    });
                    started += 1;
                    idle = false;
                }
                None => {}
                Some(t) if t.ops_done < cfg.ops_per_txn => {
                    idle = false;
                    t.ops_done += 1;
                    let key = s.rng.next_u64() % cfg.keys;
                    let is_rmw = s.rng.next_u64() % 100 < 60;
                    // Every op starts with a read of the key. A read that
                    // fails (an SSI pivot, a device fault) or returns a
                    // corrupt payload the engine let through aborts the
                    // transaction.
                    let read = s.db.get(&t.txn, s.rel, key);
                    let observed = match read.map(|b| b.map(|b| WriteTag::decode_payload(&b))) {
                        Ok(None) => None,
                        Ok(Some(Some((k, tag)))) if k == key => Some(tag),
                        _ => {
                            let t = slot.take().unwrap();
                            s.abort(t.txn, t.rec);
                            continue;
                        }
                    };
                    t.rec.ops.push(HistOp::Read { key, observed });
                    if !is_rmw {
                        continue;
                    }
                    let tag = WriteTag { xid: t.txn.xid, seq: t.op_seq };
                    t.op_seq += 1;
                    match s.db.update(&t.txn, s.rel, key, &tag.encode_payload(key)) {
                        Ok(()) => t.rec.ops.push(HistOp::Write { key, tag }),
                        Err(_) => {
                            let t = slot.take().unwrap();
                            s.abort(t.txn, t.rec);
                        }
                    }
                }
                Some(_) => {
                    idle = false;
                    let t = slot.take().unwrap();
                    if s.rng.chance_ppm(cfg.abort_ppm) {
                        s.abort(t.txn, t.rec);
                    } else {
                        let basis = cfg.plant_durability_bug.then_some(t.ack_basis);
                        let _ = s.commit(t.txn, t.rec, basis);
                    }
                }
            }
        }
        if idle {
            break;
        }
    }

    // One transaction dies in flight: its appends reach the durable log
    // (a background force), but no Commit record ever does. Recovery
    // must discard it at every crash point.
    let txn = s.db.begin();
    let mut rec = TxnRecord { outcome: HistOutcome::Unacked, ..record(&txn) };
    for key in 0..2.min(cfg.keys) {
        let tag = WriteTag { xid: txn.xid, seq: key as u32 };
        if s.db.update(&txn, s.rel, key, &tag.encode_payload(key)).is_ok() {
            rec.ops.push(HistOp::Write { key, tag });
        }
    }
    s.history.txns.push(rec);
    s.tracer.instant(SpanName::ChaosCrash, txn.xid.0, 0);
    std::mem::forget(txn); // the crash: no commit, no abort
    let _ = s.db.stack().wal.force();

    // The "crash": scan the durable log straight off the device, as a
    // post-crash process would. The version order comes from a clean
    // recovery of the full log: the engine's own opinion of each key's
    // committed chain.
    let (records, _) = Wal::scan_device(s.db.stack().wal.device().as_ref());
    let faults = s.db.stack().obs.counter("storage.faults.io_faults_injected").get();
    let (clean, _) =
        SiasDb::recover_from_wal(&records, StorageConfig::in_memory(), FlushPolicy::T2)
            .expect("clean full-log recovery");
    s.verdict(Some(&clean));

    // Crash-point sweep: every prefix recovers on a fresh stack.
    let total = records.len() as u64;
    let every = every.max(1);
    let mut points: Vec<u64> = (every..total).step_by(every as usize).collect();
    points.push(total);
    for &n in &points {
        let prefix = &records[..n as usize];
        let (recovered, _) =
            SiasDb::recover_from_wal(prefix, StorageConfig::in_memory(), FlushPolicy::T2)
                .expect("prefix recovery");
        let input = durability_input(&s.history, cfg.keys, prefix, &recovered);
        let found = check_durability(&s.history, &input);
        s.violations.extend(found.into_iter().map(|v| (Some(n), v)));
    }

    let summary = format!(
        "seed {:>3}: {} records, {} crash points, {} committed, {} aborted, \
         {} faults, {} ssi-aborts, {} violations",
        cfg.seed,
        total,
        points.len(),
        s.committed,
        s.aborted,
        faults,
        s.db.serialization_aborts(),
        s.violations.len(),
    );
    let mut failures = Vec::new();
    if cfg.data_faults.enabled() && faults == 0 {
        failures.push("the faulty data device injected no fault — the sweep proved nothing".into());
    }
    (summary, failures)
}

/// Builds the checker's view of one crash point: commit set and final
/// tags decoded from the surviving prefix, commit set and visible tags
/// read back from the recovered engine.
fn durability_input(
    history: &History,
    keys: u64,
    prefix: &[WalRecord],
    recovered: &SiasDb,
) -> DurabilityInput {
    let prefix_commits: BTreeSet<Xid> = prefix
        .iter()
        .filter_map(|rec| if let WalRecord::Commit(x) = rec { Some(*x) } else { None })
        .collect();
    let mut expected_state: BTreeMap<u64, WriteTag> = BTreeMap::new();
    for rec in prefix {
        let WalRecord::Insert { xid, payload, .. } = rec else { continue };
        if !prefix_commits.contains(xid) {
            continue;
        }
        let Ok(version) = TupleVersion::decode(payload) else { continue };
        if let Some((key, tag)) = WriteTag::decode_payload(&version.payload) {
            expected_state.insert(key, tag);
        }
    }
    let recovered_commits = history
        .txns
        .iter()
        .map(|t| t.xid)
        .filter(|&xid| recovered.txm().clog.status(xid) == TxnStatus::Committed)
        .collect();
    DurabilityInput {
        crash_record_count: prefix.len() as u64,
        prefix_commits,
        recovered_commits,
        expected_state,
        recovered_state: read_back(recovered, keys),
    }
}

fn scrub(s: &mut Session, rot_pages: usize) -> (String, Vec<String>) {
    s.serial_txns();
    // Seal and flush everything, then plant bit-rot on sealed pages.
    s.db.checkpoint().expect("checkpoint before rot");
    let handle = s.db.relation_handle(s.rel).expect("chaos relation");
    let nblocks = s.db.stack().space.relation_blocks(s.rel);
    let sealed: Vec<u32> = (0..nblocks)
        .filter(|b| handle.append.open_block() != Some(*b) && !handle.append.is_free(*b))
        .collect();
    let mut victims: BTreeSet<u32> = BTreeSet::new();
    while victims.len() < rot_pages.min(sealed.len()) {
        victims.insert(sealed[(s.rng.next_u64() % sealed.len() as u64) as usize]);
    }
    let device = s.db.stack().pool.device();
    for &block in &victims {
        let lba = s.db.stack().space.resolve(s.rel, block).expect("victim lba");
        let mut img = vec![0u8; sias_common::PAGE_SIZE];
        device.read_page(lba, &mut img);
        let off = (s.rng.next_u64() % sias_common::PAGE_SIZE as u64) as usize;
        img[off] ^= 1u8 << (s.rng.next_u64() % 8);
        device.write_page(lba, &img, true);
        s.db.stack().pool.invalidate_block(s.rel, block);
    }

    // Self-repair. Any single-bit flip is detectable: the CRC covers
    // every page byte outside its own field, and a flip inside the field
    // breaks the stored value instead.
    let pass = s.db.scrub_all().expect("scrub sweep");
    s.probe();
    s.verdict(None);

    let mut failures = Vec::new();
    if pass.pages_corrupt != pass.pages_repaired {
        failures.push(format!(
            "{} corrupt pages but only {} repaired",
            pass.pages_corrupt, pass.pages_repaired
        ));
    }
    if pass.pages_corrupt == 0 {
        failures.push("seeded rot did not corrupt any page — the sweep proved nothing".into());
    }
    let summary = format!(
        "seed {:>3}: {} committed, {} pages scanned, {} corrupt, {} repaired, \
         {} chains rebuilt, {} violations",
        s.cfg.seed,
        s.committed,
        pass.pages_scanned,
        pass.pages_corrupt,
        pass.pages_repaired,
        pass.chains_rebuilt,
        s.violations.len()
    );
    (summary, failures)
}

fn gc_crash(s: &mut Session, point: GcCrashPoint) -> (String, Vec<String>) {
    let keys = s.cfg.keys;
    s.serial_txns();
    // Churn phase: hammer only the upper half of the key space. The
    // frozen lower half's newest versions are left stranded on pages
    // that fill up with dead upper-half versions — exactly the
    // mixed live/dead victim pages whose chains incremental GC must
    // *relocate* (an all-dead page is parked without relocation, so
    // without this phase the append/CAS crash points never fire).
    let hot_lo = (keys / 2).max(1);
    for round in 0..48u32 {
        let txn = s.db.begin();
        let mut rec = record(&txn);
        for (i, key) in (hot_lo..keys).enumerate() {
            let tag = WriteTag { xid: txn.xid, seq: round * 1000 + i as u32 };
            if s.db.update(&txn, s.rel, key, &tag.encode_payload(key)).is_ok() {
                rec.ops.push(HistOp::Write { key, tag });
            }
        }
        s.commit(txn, rec, None).expect("churn commit");
    }
    // The "no lost versions" oracle: the last committed tag per key (the
    // history is serial, so record order is commit order).
    let mut expected: BTreeMap<u64, WriteTag> = BTreeMap::new();
    for t in s.history.txns.iter().filter(|t| matches!(t.outcome, HistOutcome::Committed { .. })) {
        for op in &t.ops {
            if let HistOp::Write { key, tag } = op {
                expected.insert(*key, *tag);
            }
        }
    }

    // Incremental GC with the seeded crash: the first time the slice
    // passes `point`, the hook "kills the process" — the slice abandons
    // its work exactly there (locks die with the process; the harness
    // releases them the same way).
    let (mut cursor, mut stats, mut fired) = (0, GcStats::default(), false);
    let opts = GcSliceOpts::default();
    for _ in 0..256 {
        let slice =
            s.db.vacuum_slice_interruptible(s.rel, &mut cursor, &opts, &mut |p| {
                let hit = p == point && !fired;
                fired |= hit;
                hit
            })
            .expect("gc slice");
        stats.merge(slice);
        if fired {
            break;
        }
    }

    // The crash: recover the WAL as a fresh process would. Every key the
    // workload committed must read back with its newest tag there.
    let (records, _) = Wal::scan_device(s.db.stack().wal.device().as_ref());
    let (recovered, _) =
        SiasDb::recover_from_wal(&records, StorageConfig::in_memory(), FlushPolicy::T2)
            .expect("mid-relocation recovery");
    let state = read_back(&recovered, keys);
    let lost_keys = expected.iter().filter(|&(k, tag)| state.get(k) != Some(tag)).count();

    // The surviving engine carries on: GC runs to completion (the
    // interrupted slice must have left no wedged locks or half-state),
    // its index must validate, and every key is probed.
    for _ in 0..256 {
        let slice = s.db.vacuum_slice(s.rel, &mut cursor, &opts).expect("post-crash gc slice");
        let quiet =
            slice.versions_relocated == 0 && slice.pages_reclaimed == 0 && slice.items_cleared == 0;
        stats.merge(slice);
        if quiet && cursor == 0 {
            break;
        }
    }
    s.db.debug_validate_index(s.rel).expect("index consistent after interrupted GC");
    s.probe();
    s.verdict(None);

    let mut failures = Vec::new();
    if !fired {
        failures.push(format!("crash point {point:?} was never reached — the gate proved nothing"));
    }
    if lost_keys > 0 {
        failures.push(format!("{lost_keys} committed keys lost across the crash"));
    }
    let summary = format!(
        "seed {:>3} @ {:?}: {} committed, fired {}, {} relocated, {} reclaimed, \
         {} lost keys, {} violations",
        s.cfg.seed,
        point,
        s.committed,
        fired,
        stats.versions_relocated,
        stats.pages_reclaimed,
        lost_keys,
        s.violations.len()
    );
    (summary, failures)
}

/// One step of the fixed write-skew interleaving, applied to side 0 or 1.
enum SkewStep {
    Read(u64),
    Write(u64),
    Commit,
}

fn write_skew(s: &mut Session, pairs: u64) -> (String, Vec<String>) {
    for p in 0..pairs {
        let (a, b) = (2 * p, 2 * p + 1);
        let mut sides: [Option<(Txn, TxnRecord)>; 2] = [0, 1].map(|_| {
            let txn = s.db.begin();
            let rec = record(&txn);
            Some((txn, rec))
        });
        // Each side reads BOTH keys of the constraint, then writes its
        // own — the cross reads are what make the histories skewed.
        let script = [
            (0, SkewStep::Read(a)),
            (0, SkewStep::Read(b)),
            (1, SkewStep::Read(a)),
            (1, SkewStep::Read(b)),
            (0, SkewStep::Write(a)),
            (1, SkewStep::Write(b)),
            (0, SkewStep::Commit),
            (1, SkewStep::Commit),
        ];
        for (idx, step) in script {
            let Some((txn, rec)) = sides[idx].as_mut() else { continue };
            let ok = match step {
                SkewStep::Read(key) => read_tag(&s.db, txn, s.rel, key)
                    .map(|observed| rec.ops.push(HistOp::Read { key, observed })),
                SkewStep::Write(key) => {
                    let tag = WriteTag { xid: txn.xid, seq: key as u32 };
                    s.db.update(txn, s.rel, key, &tag.encode_payload(key))
                        .map(|()| rec.ops.push(HistOp::Write { key, tag }))
                }
                SkewStep::Commit => {
                    let (txn, rec) = sides[idx].take().unwrap();
                    // An SSI commit-time pivot abort is booked pre-WAL,
                    // so it is definitive.
                    let _ = s.commit(txn, rec, None);
                    Ok(())
                }
            };
            if ok.is_err() {
                let (txn, rec) = sides[idx].take().unwrap();
                s.abort(txn, rec);
            }
        }
    }
    let (si_violations, g2_cycles) = s.verdict(None);

    let ssi_aborts = s.db.serialization_aborts();
    let mut failures = Vec::new();
    if !s.cfg.serializable && g2_cycles as u64 != pairs {
        failures.push(format!("plain SI must exhibit one G2 cycle per pair, found {g2_cycles}"));
    }
    if s.cfg.serializable && (s.aborted != pairs || ssi_aborts != pairs) {
        failures.push(format!(
            "SSI must abort exactly one pivot per pair, aborted {} (ssi {ssi_aborts})",
            s.aborted
        ));
    }
    let mode = if s.cfg.serializable { "ssi" } else { "si" };
    let summary = format!(
        "{mode:<3}: seed {:>3}: {pairs} pairs ({mode}), {} committed, {} aborted, \
         {ssi_aborts} ssi-aborts, {g2_cycles} G2 cycles, {si_violations} SI violations",
        s.cfg.seed, s.committed, s.aborted,
    );
    (summary, failures)
}

fn enospc(s: &mut Session) -> (String, Vec<String>) {
    let (mut rejected, mut peak_used_pct) = (0u64, 0u64);
    // Write storm: serial read-modify-write rounds until the quota
    // rejects us (bounded in case the quota is too generous to fill).
    for _ in 0..50_000 {
        if s.db.stack().health.state() == HealthState::ReadOnly {
            break;
        }
        let txn = s.serial_txn();
        peak_used_pct = peak_used_pct.max(s.db.stack().wal_used_pct());
        let Ok((txn, rec)) = txn else {
            rejected += 1;
            continue;
        };
        if let Err(e) = s.commit(txn, rec, None) {
            assert!(
                e.is_resource_exhausted(),
                "commit under space pressure must fail typed: {e:?}"
            );
            rejected += 1;
            s.aborted += 1;
        }
    }
    let readonly_entered = s.db.stack().health.state() == HealthState::ReadOnly
        && s.db.stack().obs.counter("storage.health.readonly_entered").get() > 0;

    // Degraded contract, probed while read-only: reads serve, writes
    // fail fast with a typed error.
    let mut reads_served_readonly = readonly_entered;
    if readonly_entered {
        let txn = s.db.begin();
        let mut rec = record(&txn);
        for key in 0..s.cfg.keys {
            match read_tag(&s.db, &txn, s.rel, key) {
                Ok(observed) => rec.ops.push(HistOp::Read { key, observed }),
                Err(_) => reads_served_readonly = false,
            }
        }
        let tag = WriteTag { xid: txn.xid, seq: 0 };
        match s.db.update(&txn, s.rel, 0, &tag.encode_payload(0)) {
            Err(e) if e.is_resource_exhausted() => rejected += 1,
            other => panic!("read-only mode must reject writes typed, got {other:?}"),
        }
        s.abort(txn, rec);
    }

    // Emergency reclaim through the engine's own maintenance path:
    // vacuum + checkpoint + WAL truncation, healing the health machine.
    let live_before = s.db.stack().wal.live_bytes();
    s.db.maintenance(true);
    let reclaimed_bytes = live_before.saturating_sub(s.db.stack().wal.live_bytes());
    let recovered = s.db.stack().health.state() == HealthState::Healthy
        && s.db.stack().obs.counter("storage.health.recovered").get() > 0;

    // Post-reclaim: the engine is writable again, and the new commits
    // join the same checked history.
    if recovered {
        let txn = s.db.begin();
        let mut rec = record(&txn);
        for seq in 0..s.cfg.keys.min(4) as u32 {
            let key = u64::from(seq);
            let observed = read_tag(&s.db, &txn, s.rel, key).expect("post-reclaim read");
            rec.ops.push(HistOp::Read { key, observed });
            let tag = WriteTag { xid: txn.xid, seq };
            s.db.update(&txn, s.rel, key, &tag.encode_payload(key))
                .expect("post-reclaim write must succeed");
            rec.ops.push(HistOp::Write { key, tag });
        }
        s.commit(txn, rec, None).expect("post-reclaim commit");
    }
    s.verdict(None);

    let mut failures = Vec::new();
    for (held, what) in [
        (readonly_entered, "the quota never forced ReadOnly — the gate proved nothing"),
        (reads_served_readonly, "reads failed while the engine was read-only"),
        (recovered, "engine did not return to Healthy after reclaim"),
        (rejected > 0, "no write was ever rejected — the quota never bound"),
    ] {
        if !held {
            failures.push(what.to_string());
        }
    }
    let summary = format!(
        "seed {:>3}: {} committed, {} aborted, {rejected} rejected, peak {peak_used_pct}%, \
         readonly {readonly_entered}, reads-in-readonly {reads_served_readonly}, \
         recovered {recovered}, {reclaimed_bytes} bytes reclaimed, {} violations",
        s.cfg.seed,
        s.committed,
        s.aborted,
        s.violations.len()
    );
    (summary, failures)
}

/// Walks every chain of the database oldest-first and decodes the tag
/// stream per key, keeping only acknowledged-committed writers. Shared
/// with the threaded driver, whose stress test needs the engine's own
/// opinion of each key's committed order for the G0 check.
///
/// The walk is [`collect_surviving`](sias_core::chain::collect_surviving):
/// strict down to each chain's anchor, then every older version GC has
/// not recycled yet, so a vacuumed database still yields the whole
/// order that exists on its pages.
pub(crate) fn extract_version_order(
    db: &SiasDb,
    rel_name: &str,
    committed: &BTreeSet<Xid>,
) -> BTreeMap<u64, Vec<WriteTag>> {
    let mut order = BTreeMap::new();
    let Some(rel) = db.relation(rel_name) else { return order };
    let handle = db.relation_handle(rel).expect("chaos relation handle");
    let mut entries = Vec::new();
    handle.vidmap.for_each(|_, tid| entries.push(tid));
    let (horizon, clog) = (db.txm().horizon(), &db.txm().clog);
    for entry in entries {
        let chain =
            sias_core::chain::collect_surviving(&db.stack().pool, rel, entry, horizon, clog)
                .expect("recovered chain is intact");
        let mut key = None;
        let mut tags = Vec::new();
        for (_, v) in chain.iter().rev() {
            let Some((k, tag)) = WriteTag::decode_payload(&v.payload) else { continue };
            if committed.contains(&tag.xid) {
                key = Some(k);
                tags.push(tag);
            }
        }
        if let Some(k) = key {
            order.insert(k, tags);
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The number a summary line prints right before `what`.
    fn count(summary: &str, what: &str) -> u64 {
        let at = summary.find(&format!(" {what}")).unwrap_or_else(|| panic!("{what}: {summary}"));
        summary[..at].rsplit(|c: char| !c.is_ascii_digit()).next().unwrap().parse().unwrap()
    }

    /// Runs `scenario` and asserts its gate passed with a clean history.
    fn passing(cfg: &ChaosConfig, scenario: Scenario) -> ChaosReport {
        let report = run(cfg, scenario);
        assert!(report.failures.is_empty(), "{}: {:?}", report.summary, report.failures);
        assert!(report.violations.is_empty(), "{}: {:?}", report.summary, report.violations);
        report
    }

    fn hostile(cfg: ChaosConfig) -> ChaosConfig {
        ChaosConfig {
            data_faults: FaultConfig {
                torn_write_ppm: 200_000,
                dropped_write_ppm: 100_000,
                transient_error_ppm: 150_000,
                bitrot_ppm: 50_000,
                ..FaultConfig::hostile(99)
            },
            ..cfg
        }
    }

    const SWEEP: Scenario = Scenario::CrashSweep { every: 16 };

    #[test]
    fn clean_crash_sweep_passes_its_gate() {
        let report = passing(&ChaosConfig::with_seed(7), SWEEP);
        assert!(report.committed_txns > 5, "workload did commit work: {}", report.summary);
        assert!(count(&report.summary, "records") > 50, "{}", report.summary);
        assert!(count(&report.summary, "crash points") >= 3, "{}", report.summary);
        let conflicts = report.metrics.counter("txn.manager.aborts_write_conflict");
        assert!(conflicts > Some(0), "contention produced first-updater-wins conflicts");
    }

    #[test]
    fn same_seed_same_fingerprint() {
        let sweep = Scenario::CrashSweep { every: 8 };
        let a = run(&ChaosConfig::with_seed(11), sweep);
        let b = run(&ChaosConfig::with_seed(11), sweep);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.summary, b.summary);
        let c = run(&ChaosConfig::with_seed(12), sweep);
        assert_ne!(a.fingerprint, c.fingerprint, "different seed, different run");
    }

    #[test]
    fn planted_ack_before_force_bug_is_caught() {
        let cfg = ChaosConfig { plant_durability_bug: true, ..ChaosConfig::with_seed(7) };
        let report = run(&cfg, Scenario::CrashSweep { every: 4 });
        assert!(
            report.violations.iter().any(|(_, v)| v.condition == "DUR-ACK"),
            "the ack-before-force bug must surface as DUR-ACK: {:?}",
            report.violations
        );
        // The bug corrupts acknowledgement bookkeeping only — state and
        // prefix consistency of the engine itself remain clean.
        assert!(report.violations.iter().all(|(p, v)| p.is_some() && v.condition == "DUR-ACK"));
        assert!(report.failures.is_empty(), "{:?}", report.failures);
    }

    #[test]
    fn data_device_faults_do_not_shake_the_verdict() {
        // Large enough to overflow the tiny pool (so eviction traffic
        // hits the device) and hostile enough that faults really fire —
        // the gate fails a run that injected none.
        let cfg = hostile(ChaosConfig { txns: 120, keys: 400, ..ChaosConfig::with_seed(3) });
        let report = passing(&cfg, Scenario::CrashSweep { every: 64 });
        assert!(report.committed_txns > 0);
    }

    #[test]
    fn gates_fail_runs_that_prove_nothing() {
        // Two keys fit in the pool, so a faulty device sees no traffic.
        let cfg = hostile(ChaosConfig { txns: 2, keys: 2, ..ChaosConfig::with_seed(1) });
        let report = run(&cfg, SWEEP);
        assert_eq!(count(&report.summary, "faults"), 0, "{}", report.summary);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        let report = run(&ChaosConfig::with_seed(1), Scenario::Scrub { rot_pages: 0 });
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("did not corrupt any page"));
    }

    #[test]
    fn scrub_repairs_seeded_bit_rot_cleanly() {
        let report = passing(&ChaosConfig::with_seed(21), Scenario::Scrub { rot_pages: 3 });
        assert!(report.committed_txns > 5);
        assert!(count(&report.summary, "pages scanned") > 0, "{}", report.summary);
        assert!(count(&report.summary, "chains rebuilt") > 0, "{}", report.summary);
    }

    #[test]
    fn scrub_is_deterministic() {
        let a = run(&ChaosConfig::with_seed(33), Scenario::Scrub { rot_pages: 2 });
        let b = run(&ChaosConfig::with_seed(33), Scenario::Scrub { rot_pages: 2 });
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn gc_crash_points_fire_and_lose_nothing() {
        for point in [GcCrashPoint::AfterRelocationAppend, GcCrashPoint::BeforeRecycle] {
            let report = passing(&ChaosConfig::with_seed(5), Scenario::GcCrash(point));
            assert!(count(&report.summary, "relocated") > 0, "{}", report.summary);
        }
    }

    const ENOSPC: Scenario = Scenario::Enospc { quota_pages: 24, low_watermark_pct: 50 };

    #[test]
    fn enospc_degrades_and_recovers_cleanly() {
        let report = passing(&ChaosConfig::with_seed(11), ENOSPC);
        assert!(count(&report.summary, "bytes reclaimed") > 0, "{}", report.summary);
    }

    #[test]
    fn enospc_is_deterministic() {
        let a = run(&ChaosConfig::with_seed(17), ENOSPC);
        let b = run(&ChaosConfig::with_seed(17), ENOSPC);
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    const SKEW: Scenario = Scenario::WriteSkew { pairs: 4 };

    #[test]
    fn planted_write_skew_is_g2_under_si() {
        let report = passing(&ChaosConfig::with_seed(9), SKEW);
        assert_eq!(report.committed_txns, 9, "setup + two per pair commit under plain SI");
        assert_eq!(report.aborted_txns, 0);
        assert_eq!(count(&report.summary, "ssi-aborts"), 0);
        assert_eq!(count(&report.summary, "G2 cycles"), 4, "{}", report.summary);
        // Write skew is not an SI anomaly (no violation), but the
        // serialization-graph checker names both pivots of every cycle.
        let cycles = check_serializability(&report.history);
        assert!(cycles.iter().all(|v| v.condition == "G2" && v.detail.contains("pivots")));
    }

    #[test]
    fn ssi_aborts_every_planted_write_skew() {
        let cfg = ChaosConfig { serializable: true, ..ChaosConfig::with_seed(9) };
        let report = passing(&cfg, SKEW);
        assert_eq!(report.committed_txns, 5, "setup + one survivor per pair");
        assert_eq!(report.aborted_txns, 4, "exactly one victim per pair");
        assert_eq!(count(&report.summary, "ssi-aborts"), 4);
        assert_eq!(count(&report.summary, "G2 cycles"), 0);
    }

    #[test]
    fn ssi_crash_sweep_stays_clean_and_deterministic() {
        let cfg = ChaosConfig { serializable: true, ..ChaosConfig::with_seed(7) };
        let report = passing(&cfg, SWEEP);
        assert!(report.committed_txns > 5, "SSI still commits work: {}", report.summary);
        assert_eq!(report.fingerprint, run(&cfg, SWEEP).fingerprint, "SSI runs reproduce");
        let si = run(&ChaosConfig::with_seed(7), SWEEP);
        assert_ne!(report.fingerprint, si.fingerprint, "mode is part of the fingerprint");
    }

    #[test]
    fn crash_sweep_records_reads_and_writes() {
        let history = run(&ChaosConfig::with_seed(5), SWEEP).history;
        let ops = || history.txns.iter().flat_map(|t| &t.ops);
        let reads = ops().filter(|op| matches!(op, HistOp::Read { .. })).count();
        let writes = ops().filter(|op| matches!(op, HistOp::Write { .. })).count();
        assert!(reads > 20, "reads recorded: {reads}");
        assert!(writes > 20, "writes recorded: {writes}");
        assert!(!history.version_order.is_empty());
        // Every observed tag refers to a transaction the history knows.
        let known: BTreeSet<Xid> = history.txns.iter().map(|t| t.xid).collect();
        for op in ops() {
            if let HistOp::Read { observed: Some(tag), .. } = op {
                assert!(known.contains(&tag.xid), "read of unknown writer {tag:?}");
            }
        }
    }
}
