//! `tpcc-flash`: the paper's TPC-C mix through the discrete-event
//! terminal loop (`run_benchmark`) at saturation, on the simulated SSD.
//!
//! `run_benchmark` sees the engine through [`Instrumented`], an `MvccEngine`
//! that forwards every call to SIAS and times it on the way — the only
//! way to see client-side latency and layer calls inside
//! `run_benchmark`. Virtual time is deterministic for a seed; wall time
//! measures the engine's CPU per transaction.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use bytes::Bytes;
use sias_common::{RelId, SiasResult};
use sias_core::SiasDb;
use sias_obs::{MetricsSnapshot, Registry};
use sias_storage::StorageConfig;
use sias_txn::{MvccEngine, Txn};
use sias_workload::{check_consistency, load, run_benchmark, DriverConfig, Tables, TpccConfig};

use crate::client::{Merged, Recorder};
use crate::counters::{live_payload_bytes, Counters, PAGE_BYTES};
use crate::result::{metric, Interval, Pass};
use crate::spans::Span;
use crate::stats::{ratio, Rng};

/// 32 MiB: a quarter of what the tables reach by the end of a run, and
/// enough that dirty pages are written back by checkpoints rather than
/// evictions, so write-back per commit is steady across the run.
pub const POOL_FRAMES: usize = 4_096;
const WAREHOUSES: u32 = 10;
const CKPT_SECS: u64 = 30;
/// Virtual seconds measured per second of a pass, rounded up to an even
/// number of checkpoint cycles so the pass splits into two halves. Passes
/// of up to 20 s measure two cycles, 10–12 s of wall time.
const VIRTUAL_PER_SECOND: u64 = 3;

fn terminals(seed: u64, secs: u64) -> DriverConfig {
    let mut d = DriverConfig::for_warehouses(WAREHOUSES).with_think_scale(0.0).with_duration(secs);
    d.warmup_secs = 0;
    d.checkpoint_interval_secs = CKPT_SECS;
    d.seed = seed;
    d
}

pub struct State {
    db: SiasDb,
    tables: Tables,
    cfg: TpccConfig,
    seed: u64,
    /// Virtual-time counts of the warm-up, identical on every set-up of
    /// a seed when the engine is deterministic.
    pub fingerprint: Vec<(&'static str, u64)>,
}

/// Opens the engine, loads 10 warehouses, then runs one checkpoint cycle
/// so the pool is full and a checkpoint has run before measuring.
pub fn setup(seed: u64) -> State {
    let db = SiasDb::open(StorageConfig::ssd().with_pool_frames(POOL_FRAMES));
    let cfg = TpccConfig::scaled(WAREHOUSES).with_seed(Rng::new(seed, 0x7470_0001).next());
    let tables = load(&db, &cfg).expect("TPC-C load");
    db.maintenance(true);
    let before = db.stack().data.stats().host_write_pages;
    let warm = terminals(Rng::new(seed, 0x7470_0002).next(), CKPT_SECS);
    let res = run_benchmark(&db, &tables, &cfg, &warm, &db.stack().clock).expect("TPC-C warm-up");
    db.maintenance(true);
    let fingerprint = vec![
        ("commits", res.commits),
        ("new_order_commits", res.new_order_commits),
        ("host_write_pages", db.stack().data.stats().host_write_pages - before),
    ];
    State { db, tables, cfg, seed, fingerprint }
}

/// The engine as `run_benchmark` sees it: SIAS, with every call timed.
struct Instrumented<'a> {
    db: &'a SiasDb,
    rec: Mutex<Recorder>,
    /// `(host write pages, commits)` after every checkpoint.
    marks: Mutex<Vec<(u64, u64)>>,
}

impl Instrumented<'_> {
    fn rec(&self) -> MutexGuard<'_, Recorder> {
        self.rec.lock().expect("recorder lock poisoned by a panicking call")
    }
}

impl MvccEngine for Instrumented<'_> {
    fn name(&self) -> &'static str {
        self.db.name()
    }

    fn create_relation(&self, name: &str) -> RelId {
        self.db.create_relation(name)
    }

    fn relation(&self, name: &str) -> Option<RelId> {
        self.db.relation(name)
    }

    fn begin(&self) -> Txn {
        self.rec().begin(self.db)
    }

    fn commit(&self, txn: Txn) -> SiasResult<()> {
        self.rec().commit(self.db, txn)
    }

    fn abort(&self, txn: Txn) {
        self.rec().abort(self.db, txn)
    }

    fn insert(&self, txn: &Txn, rel: RelId, key: u64, payload: &[u8]) -> SiasResult<()> {
        self.rec().write("engine.insert", txn, || self.db.insert(txn, rel, key, payload))
    }

    fn update(&self, txn: &Txn, rel: RelId, key: u64, payload: &[u8]) -> SiasResult<()> {
        self.rec().write("engine.update", txn, || self.db.update(txn, rel, key, payload))
    }

    fn delete(&self, txn: &Txn, rel: RelId, key: u64) -> SiasResult<()> {
        self.rec().write("engine.delete", txn, || self.db.delete(txn, rel, key))
    }

    fn get(&self, txn: &Txn, rel: RelId, key: u64) -> SiasResult<Option<Bytes>> {
        let mut rec = self.rec();
        let res = rec.get(self.db, txn, rel, key);
        if matches!(res, Ok(Some(_))) {
            rec.maybe_probe(self.db, txn, rel, key);
        }
        res
    }

    fn scan_range(&self, txn: &Txn, rel: RelId, lo: u64, hi: u64) -> SiasResult<Vec<(u64, Bytes)>> {
        self.rec().scan(self.db, txn, rel, lo, hi)
    }

    fn maintenance(&self, checkpoint: bool) {
        let mut rec = self.rec();
        let name = if checkpoint { "maint.checkpoint" } else { "maint.bgwriter" };
        rec.span(name, 0, || self.db.maintenance(checkpoint));
        if checkpoint {
            let pages = self.db.stack().data.stats().host_write_pages;
            self.marks.lock().expect("marks lock").push((pages, rec.commits));
        }
    }

    fn set_serializable(&self) {
        self.db.set_serializable()
    }

    fn serialization_aborts(&self) -> u64 {
        self.db.serialization_aborts()
    }

    fn obs_registry(&self) -> Option<&Arc<Registry>> {
        self.db.obs_registry()
    }

    fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.db.metrics_snapshot()
    }
}

/// Host write bytes per commit between two checkpoint marks.
fn bytes_per_commit(a: (u64, u64), b: (u64, u64)) -> f64 {
    ratio((b.0 - a.0) as f64 * PAGE_BYTES, (b.1 - a.1) as f64)
}

pub fn measure(state: State, seconds: u64, trace: bool) -> (Pass, Vec<Vec<Span>>) {
    let State { db, tables, cfg, seed, .. } = state;
    let cycle_pair = 2 * CKPT_SECS;
    let virtual_secs = (seconds.max(1) * VIRTUAL_PER_SECOND).div_ceil(cycle_pair) * cycle_pair;
    let dcfg = terminals(Rng::new(seed, 0x7470_0003).next(), virtual_secs);
    let t0 = Instant::now();
    let engine = Instrumented {
        db: &db,
        rec: Mutex::new(Recorder::new(trace, t0, 64)),
        marks: Mutex::new(Vec::new()),
    };
    let before = Counters::take(&db);
    engine.marks.lock().expect("marks lock").push((db.stack().data.stats().host_write_pages, 0));
    let start = Instant::now();
    let res = run_benchmark(&engine, &tables, &cfg, &dcfg, &db.stack().clock);
    // The checkpoint that ends the last cycle falls on the horizon,
    // where `run_benchmark` stops without taking it; take it here so
    // every cycle is whole.
    engine.maintenance(true);
    let interval = Interval::since(t0, start);
    let after = Counters::take(&db);

    let mut violations = Vec::new();
    let res = match res {
        Ok(r) => Some(r),
        Err(e) => {
            violations.push(format!("run_benchmark failed: {e}"));
            None
        }
    };
    match check_consistency(&db, &tables, &cfg) {
        Ok(v) => violations.extend(v.into_iter().map(|v| format!("{}: {}", v.condition, v.detail))),
        Err(e) => violations.push(format!("check_consistency failed: {e}")),
    }

    let marks = engine.marks.into_inner().expect("marks lock");
    let mut merged = Merged::default();
    merged.add(engine.rec.into_inner().expect("recorder lock"));
    // Range reads: a get's p99 sits on the ~1 % of gets that miss the
    // pool, so it flips between hit and miss cost from run to run.
    let read = std::mem::take(&mut merged.scan);
    let live_bytes = live_payload_bytes(&db);
    let (mut pass, spans) =
        Pass::new(&before, &after, merged, None, interval, live_bytes, read, "scan_range calls");
    pass.violations = violations;
    match &res {
        Some(r) => {
            let n =
                format!("n={} new-order commits in {virtual_secs} virtual s", r.new_order_commits);
            pass.extra.push(metric("notpm_virtual", r.notpm, "1/min", n.clone()));
            pass.extra.push(metric(
                "neworder_p50_virtual_ms",
                r.p50_response_s * 1e3,
                "ms",
                n.clone(),
            ));
            pass.extra.push(metric("neworder_p99_virtual_ms", r.p99_response_s * 1e3, "ms", n));
            pass.attempted = r.commits + r.rollbacks + r.conflicts;
            pass.failed = r.conflicts;
            // The mix's deliberate new-order rollbacks are not failures.
            pass.aborted = pass.aborted.saturating_sub(r.rollbacks);
        }
        None => pass.failed = pass.attempted,
    }
    let cycles = marks.len() - 1;
    let half = cycles / 2;
    let first = bytes_per_commit(marks[0], marks[half]);
    let second = bytes_per_commit(marks[half], marks[cycles]);
    let base = format!("{half} of {cycles} checkpoint cycles");
    pass.extra.push(metric("host_write_bytes_per_commit.first_half", first, "B", base.clone()));
    pass.extra.push(metric("host_write_bytes_per_commit.second_half", second, "B", base));
    pass.extra.push(metric(
        "host_write_bytes_per_commit.half_gap",
        ratio((second - first).abs(), first),
        "ratio",
        "|second - first| / first",
    ));
    (pass, spans)
}
