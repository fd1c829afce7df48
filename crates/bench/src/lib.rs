//! Shared experiment harness for the SIAS evaluation reproduction.
//!
//! Each table/figure of the paper has a binary in `src/bin/` that calls
//! into the helpers here: read its flags ([`Args`]), build an engine on a
//! modelled testbed, load TPC-C at a warehouse scale, run the measured
//! interval ([`run_cell`]), and report the paper's metrics (NOTPM,
//! response times, device write volume) through the one results writer,
//! [`report`]. A measured interval is always a before/after diff of the
//! device counters and the registry snapshot: nothing is reset.
//!
//! Testbed presets (scaled-down; see EXPERIMENTS.md for the calibration
//! rationale):
//!
//! * [`Testbed::SsdRaid2`] — the Core2Duo box with a two-SSD stripe
//!   (Figure 5);
//! * [`Testbed::SsdRaid6`] — the "Sylt" server with six SSDs (Figure 6);
//! * [`Testbed::Hdd`] — the Seagate 7200 rpm disk (Table 2);
//! * [`Testbed::Ssd`] — a single SSD (Table 1, Figures 3–4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use sias_core::{FlushPolicy, SiasDb};
use sias_obs::{export, push_json_string, MetricsSnapshot, Registry, SamplerHandle, TraceEvent};
use sias_si::SiDb;
use sias_storage::{DeviceStats, StorageConfig};
use sias_txn::MvccEngine;
use sias_workload::{
    check_consistency, load, run_benchmark, BenchResult, DriverConfig, TpccConfig,
};

use crate::report::write_file;

/// Which modelled hardware to run on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Testbed {
    /// Single SSD.
    Ssd,
    /// Two-SSD software RAID-0 (Figure 5 box).
    SsdRaid2,
    /// Six-SSD software RAID-0 (Figure 6 "Sylt" server).
    SsdRaid6,
    /// Single 7200 rpm HDD (Table 2).
    Hdd,
}

impl Testbed {
    /// Parses a testbed name (the simulated `--backend` values).
    pub fn parse(s: &str) -> Option<Testbed> {
        match s {
            "ssd" => Some(Testbed::Ssd),
            "ssd2" | "raid2" => Some(Testbed::SsdRaid2),
            "ssd6" | "raid6" => Some(Testbed::SsdRaid6),
            "hdd" => Some(Testbed::Hdd),
            _ => None,
        }
    }

    /// Builds the storage configuration. `pool_frames` controls cache
    /// pressure (the experiments use a scaled-down pool to match the
    /// scaled-down per-warehouse footprint).
    pub fn storage(self, pool_frames: usize) -> StorageConfig {
        let cfg = match self {
            Testbed::Ssd => StorageConfig::ssd(),
            Testbed::SsdRaid2 => StorageConfig::ssd_raid(2),
            Testbed::SsdRaid6 => StorageConfig::ssd_raid(6),
            Testbed::Hdd => StorageConfig::hdd(),
        };
        cfg.with_pool_frames(pool_frames).with_capacity_pages(1 << 17)
    }
}

/// Storage backend selection shared by every bench binary: simulated
/// testbed media (virtual time), the zero-latency in-memory device, or
/// real files on the host filesystem (wall-clock time, optional
/// O_DIRECT, async I/O queue).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Zero-latency in-memory device.
    Mem,
    /// Simulated flash/HDD testbed.
    Sim(Testbed),
    /// One real file at the given path (WAL in a `.wal` sibling).
    File(std::path::PathBuf),
    /// Stripe over several real files.
    Striped(Vec<std::path::PathBuf>),
}

impl Backend {
    /// Parses a `--backend` CLI value: `mem`, `flash`/`sim` (single
    /// simulated SSD), any [`Testbed::parse`] name, `file:<path>`, or
    /// `striped:<path1,path2,...>`.
    pub fn parse(s: &str) -> Option<Backend> {
        if let Some(p) = s.strip_prefix("file:") {
            if p.is_empty() {
                return None;
            }
            return Some(Backend::File(p.into()));
        }
        if let Some(list) = s.strip_prefix("striped:") {
            let paths: Vec<std::path::PathBuf> =
                list.split(',').filter(|p| !p.is_empty()).map(Into::into).collect();
            if paths.is_empty() {
                return None;
            }
            return Some(Backend::Striped(paths));
        }
        match s {
            "mem" => Some(Backend::Mem),
            "flash" | "sim" => Some(Backend::Sim(Testbed::Ssd)),
            other => Testbed::parse(other).map(Backend::Sim),
        }
    }

    /// `true` when the backend touches real files (results should go to
    /// the `BENCH_file_*` namespace and timings are wall-clock).
    pub fn is_file_backed(&self) -> bool {
        matches!(self, Backend::File(_) | Backend::Striped(_))
    }

    /// Short label for result JSON (`mem`, `ssd`, `file`, `striped:2`).
    pub fn label(&self) -> String {
        match self {
            Backend::Mem => "mem".into(),
            Backend::Sim(t) => format!("{t:?}").to_lowercase(),
            Backend::File(_) => "file".into(),
            Backend::Striped(paths) => format!("striped:{}", paths.len()),
        }
    }

    /// Results-file name: `BENCH_<base>.json` for simulated backends,
    /// `BENCH_file_<base>.json` for real files.
    pub fn results_name(&self, base: &str) -> String {
        if self.is_file_backed() {
            format!("BENCH_file_{base}.json")
        } else {
            format!("BENCH_{base}.json")
        }
    }

    /// Builds the storage configuration — the one construction every
    /// bench binary shares. `io_depth` overrides the per-member async
    /// queue depth (`None` keeps the backend's default: 8 for files, 0
    /// for simulated media).
    pub fn storage(&self, pool_frames: usize, io_depth: Option<usize>) -> StorageConfig {
        let cfg = match self {
            Backend::Mem => StorageConfig::in_memory(),
            Backend::Sim(t) => t.storage(pool_frames),
            Backend::File(p) => StorageConfig::file(p).with_capacity_pages(1 << 17),
            Backend::Striped(paths) => {
                StorageConfig::striped(paths.clone()).with_capacity_pages(1 << 17)
            }
        };
        let cfg = cfg.with_pool_frames(pool_frames);
        match io_depth {
            Some(d) => cfg.with_io_queue_depth(d),
            None => cfg,
        }
    }
}

/// Builds an engine of `kind` over an explicit storage configuration.
pub fn build_on(kind: EngineKind, storage: StorageConfig) -> AnyEngine {
    match kind {
        EngineKind::Si => AnyEngine::Si(Box::new(SiDb::open(storage))),
        EngineKind::SiasT1 => {
            AnyEngine::Sias(Box::new(SiasDb::open_with_policy(storage, FlushPolicy::T1)))
        }
        EngineKind::SiasT2 => {
            AnyEngine::Sias(Box::new(SiasDb::open_with_policy(storage, FlushPolicy::T2)))
        }
    }
}

/// Which engine + flush policy to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Vanilla SI baseline.
    Si,
    /// SIAS with the t1 (background-writer) flush threshold.
    SiasT1,
    /// SIAS with the t2 (checkpoint piggy-back) flush threshold.
    SiasT2,
}

impl EngineKind {
    /// Display label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Si => "SI",
            EngineKind::SiasT1 => "SIAS-t1",
            EngineKind::SiasT2 => "SIAS-t2",
        }
    }

    /// Parses a `--engine` CLI value.
    pub fn parse(s: &str) -> Option<EngineKind> {
        match s {
            "si" => Some(EngineKind::Si),
            "sias" | "sias-t2" | "siast2" => Some(EngineKind::SiasT2),
            "sias-t1" | "siast1" => Some(EngineKind::SiasT1),
            _ => None,
        }
    }
}

/// Everything one experiment cell produces.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Engine + policy of the run.
    pub engine: EngineKind,
    /// The driver's metrics.
    pub bench: BenchResult,
    /// Data-device counters over the measured interval.
    pub device: DeviceStats,
    /// Relation pages allocated at the end (space consumption).
    pub space_pages: u64,
    /// Consistency violations found post-run (must be 0).
    pub violations: usize,
    /// The engine's registry over the measured interval (a
    /// [`MetricsSnapshot::since`] diff, taken before the consistency
    /// sweep, whose reads would perturb the counters).
    pub metrics: MetricsSnapshot,
}

/// Default buffer-pool frames for the experiments (8 MiB — scaled to the
/// ~300 KiB/warehouse footprint the same way the paper's pool related to
/// its per-warehouse data volume).
pub const EXPERIMENT_POOL_FRAMES: usize = 1024;

/// One boxed engine + its observable stack pieces, so experiment code is
/// generic without exposing concrete types.
pub enum AnyEngine {
    /// SIAS engine.
    Sias(Box<SiasDb>),
    /// SI baseline.
    Si(Box<SiDb>),
}

impl AnyEngine {
    /// The engine as a trait object.
    pub fn engine(&self) -> &dyn MvccEngine {
        match self {
            AnyEngine::Sias(db) => db.as_ref(),
            AnyEngine::Si(db) => db.as_ref(),
        }
    }

    /// The engine's storage stack.
    pub fn stack(&self) -> &sias_storage::StorageStack {
        match self {
            AnyEngine::Sias(db) => db.stack(),
            AnyEngine::Si(db) => db.stack(),
        }
    }
}

/// Builds an engine of `kind` on `testbed`.
pub fn build(kind: EngineKind, testbed: Testbed, pool_frames: usize) -> AnyEngine {
    build_on(kind, testbed.storage(pool_frames))
}

/// Runs one TPC-C experiment cell on `storage`: build, load `warehouses`,
/// measure one `dcfg` run, verify.
pub fn run_cell(
    kind: EngineKind,
    storage: StorageConfig,
    warehouses: u32,
    dcfg: &DriverConfig,
) -> CellResult {
    let any = build_on(kind, storage);
    let engine = any.engine();
    let cfg = TpccConfig::scaled(warehouses);
    let tables = load(engine, &cfg).expect("load");
    // Settle the load phase with a checkpoint, then report only the
    // measured interval (the paper measures the benchmark run, not the
    // data generation).
    engine.maintenance(true);
    let stack = any.stack();
    let (device_before, metrics_before) = (stack.data.stats(), engine.metrics_snapshot());

    let bench = run_benchmark(engine, &tables, &cfg, dcfg, &stack.clock).expect("benchmark");

    let device = stack.data.stats() - device_before;
    let metrics = engine.metrics_snapshot().since(&metrics_before);
    let space_pages: u64 = {
        let space = &stack.space;
        space.relations().iter().map(|&r| space.relation_blocks(r) as u64).sum()
    };
    let violations = check_consistency(engine, &tables, &cfg).expect("check").len();
    CellResult { engine: kind, bench, device, space_pages, violations, metrics }
}

/// The command-line flags of a bench binary: `--name value` pairs,
/// comma-separated lists and bare boolean flags. A flag that is present
/// but cannot be read panics with its name and value, so a typo fails
/// before any cell runs instead of quietly running the default.
pub struct Args(Vec<String>);

impl Args {
    /// The process's arguments.
    pub fn from_env() -> Args {
        Args(std::env::args().skip(1).collect())
    }

    /// Whether the bare flag `name` is present.
    pub fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    /// The raw value following `name`.
    pub fn raw(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        Some(self.0.get(i + 1).unwrap_or_else(|| panic!("{name} needs a value")))
    }

    /// The value of `name` read by `parse`; `None` when the flag is absent.
    pub fn read<T, E>(&self, name: &str, parse: impl Fn(&str) -> Result<T, E>) -> Option<T> {
        let v = self.raw(name)?;
        Some(parse(v.trim()).unwrap_or_else(|_| panic!("bad {name} value {v:?}")))
    }

    /// The value of `name`; `None` when the flag is absent.
    pub fn opt<T: FromStr>(&self, name: &str) -> Option<T> {
        self.read(name, str::parse)
    }

    /// The value of `name`, or `default` when the flag is absent.
    pub fn get<T: FromStr>(&self, name: &str, default: T) -> T {
        self.opt(name).unwrap_or(default)
    }

    /// The comma-separated values of `name`, or `default`.
    pub fn list<T: FromStr>(&self, name: &str, default: Vec<T>) -> Vec<T> {
        self.read(name, |v| v.split(',').map(|x| x.trim().parse()).collect()).unwrap_or(default)
    }

    /// `--backend`, or `default`.
    pub fn backend(&self, default: Backend) -> Backend {
        self.read("--backend", |v| Backend::parse(v).ok_or(())).unwrap_or(default)
    }
}

/// Sampler cadence of every `--series-out` run.
pub const SAMPLE_INTERVAL: Duration = Duration::from_millis(20);

/// Unified observability options every bench binary accepts:
///
/// * `--metrics-out <path>` (or `SIAS_METRICS_OUT`) — labelled metrics
///   snapshots as JSON;
/// * `--trace-out <path>` — flight-recorder dump: JSON-lines at `<path>`
///   plus Chrome `trace_event` JSON at `<path>.chrome.json`;
/// * `--series-out <path>` — time-series sampler output as JSON;
/// * `--slow-us <n>` — slow-op threshold: spans lasting ≥ n µs are
///   promoted to the recorder's slow ring, dumped at
///   `<trace_out>.slow.jsonl`.
///
/// Binaries parse once ([`ObsArgs::parse`]), run the instrumented work
/// under [`ObsArgs::observe`] and write the snapshots with
/// [`ObsArgs::dump_metrics`]; every dump is a no-op when its flag is
/// absent, so the instrumentation costs nothing by default.
#[derive(Clone, Debug, Default)]
pub struct ObsArgs {
    /// Destination of the metrics dump (`--metrics-out`).
    pub metrics_out: Option<PathBuf>,
    /// Destination of the trace dump (`--trace-out`).
    pub trace_out: Option<PathBuf>,
    /// Destination of the time-series dump (`--series-out`).
    pub series_out: Option<PathBuf>,
    /// Slow-op threshold in microseconds (`--slow-us`).
    pub slow_us: Option<u64>,
}

impl ObsArgs {
    /// Reads the four options.
    pub fn parse(args: &Args) -> ObsArgs {
        ObsArgs {
            metrics_out: args
                .raw("--metrics-out")
                .map(PathBuf::from)
                .or_else(|| std::env::var_os("SIAS_METRICS_OUT").map(PathBuf::from)),
            trace_out: args.raw("--trace-out").map(PathBuf::from),
            series_out: args.raw("--series-out").map(PathBuf::from),
            slow_us: args.opt("--slow-us"),
        }
    }

    /// Whether any dump was asked for.
    pub fn requested(&self) -> bool {
        self.metrics_out.is_some() || self.trace_out.is_some() || self.series_out.is_some()
    }

    /// Runs `f` observed on `registry`: the flight recorder on when
    /// `--trace-out` asks for it (or `always_trace`), spans over
    /// `--slow-us` promoted to the slow ring, and the sampler ticking every
    /// [`SAMPLE_INTERVAL`] when `--series-out` asks for it. Afterwards
    /// writes the series, the recorder window (JSON-lines plus its Chrome
    /// twin) and a non-empty slow ring, and returns `f`'s result.
    pub fn observe<R>(
        &self,
        registry: &Arc<Registry>,
        always_trace: bool,
        f: impl FnOnce() -> R,
    ) -> R {
        let tracer = registry.tracer();
        if always_trace || self.trace_out.is_some() {
            tracer.set_enabled(true);
            if let Some(us) = self.slow_us {
                tracer.set_slow_threshold_ns(us.saturating_mul(1_000));
            }
        }
        let sampler = self
            .series_out
            .as_ref()
            .map(|_| SamplerHandle::spawn(Arc::clone(registry), SAMPLE_INTERVAL));
        let out = f();
        if let (Some(path), Some(sampler)) = (&self.series_out, sampler) {
            dump(path, &sampler.stop().to_json());
        }
        if let Some(path) = &self.trace_out {
            self.dump_trace(&tracer.capture());
            let slow = tracer.capture_slow();
            if !slow.is_empty() {
                dump(&suffixed(path, ".slow.jsonl"), &export::to_jsonl(&slow));
            }
        }
        out
    }

    /// Writes a flight-recorder window as JSON-lines at `--trace-out` and
    /// as Chrome `trace_event` JSON at `<path>.chrome.json`; no-op
    /// without the flag.
    pub fn dump_trace(&self, events: &[TraceEvent]) {
        if let Some(path) = &self.trace_out {
            dump(path, &export::to_jsonl(events));
            dump(&suffixed(path, ".chrome.json"), &export::to_chrome_trace(events));
        }
    }

    /// Writes labelled metrics snapshots as one JSON object keyed by run
    /// label (`{"SI/600s": {...}, ...}`); no-op without `--metrics-out`.
    pub fn dump_metrics(&self, runs: &[(String, MetricsSnapshot)]) {
        let Some(path) = &self.metrics_out else { return };
        let mut out = String::from("{");
        for (i, (label, snap)) in runs.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            push_json_string(&mut out, label);
            out.push_str(": ");
            out.push_str(&snap.to_json());
        }
        out.push_str("\n}\n");
        dump(path, &out);
    }
}

/// Writes `contents` to `path` and says so.
fn dump(path: &Path, contents: &str) {
    println!("wrote {}", write_file(path, contents).display());
}

/// `path` with `suffix` appended to its file name.
fn suffixed(path: &Path, suffix: &str) -> PathBuf {
    let mut p = path.as_os_str().to_owned();
    p.push(suffix);
    PathBuf::from(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsers() {
        assert_eq!(Testbed::parse("ssd6"), Some(Testbed::SsdRaid6));
        assert_eq!(Testbed::parse("hdd"), Some(Testbed::Hdd));
        assert_eq!(Testbed::parse("nvme"), None);
        assert_eq!(EngineKind::parse("si"), Some(EngineKind::Si));
        assert_eq!(EngineKind::parse("sias"), Some(EngineKind::SiasT2));
        assert_eq!(EngineKind::parse("sias-t1"), Some(EngineKind::SiasT1));
    }

    #[test]
    fn backend_parser_and_result_names() {
        assert_eq!(Backend::parse("mem"), Some(Backend::Mem));
        assert_eq!(Backend::parse("flash"), Some(Backend::Sim(Testbed::Ssd)));
        assert_eq!(Backend::parse("hdd"), Some(Backend::Sim(Testbed::Hdd)));
        assert_eq!(Backend::parse("file:/tmp/x.dat"), Some(Backend::File("/tmp/x.dat".into())));
        assert_eq!(
            Backend::parse("striped:a.dat,b.dat"),
            Some(Backend::Striped(vec!["a.dat".into(), "b.dat".into()]))
        );
        assert_eq!(Backend::parse("file:"), None);
        assert_eq!(Backend::parse("striped:"), None);
        assert_eq!(Backend::parse("nvme"), None);
        assert_eq!(Backend::Mem.results_name("scaling"), "BENCH_scaling.json");
        assert_eq!(Backend::File("x".into()).results_name("scaling"), "BENCH_file_scaling.json");
        assert!(Backend::Striped(vec!["a".into()]).is_file_backed());
        // The storage helper honours the io-depth override.
        let cfg = Backend::File("x".into()).storage(64, Some(16));
        assert_eq!(cfg.io_queue_depth, 16);
        assert_eq!(cfg.pool_frames, 64);
    }

    fn args(v: &[&str]) -> Args {
        Args(v.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn arg_helper() {
        let a = args(&["--wh", "100", "--engine", "si", "--quick", "--durations", "600, 900"]);
        assert_eq!(a.raw("--engine"), Some("si"));
        assert_eq!(a.get("--wh", 50u32), 100);
        assert_eq!(a.get("--missing", 7u64), 7, "an absent flag reads as its default");
        assert_eq!(a.list("--durations", vec![1u64]), vec![600, 900]);
        assert_eq!(a.list("--whs", vec![25u32, 50]), vec![25, 50]);
        assert!(a.flag("--quick") && !a.flag("--ssi"));
        assert_eq!(a.backend(Backend::Mem), Backend::Mem);
        assert_eq!(args(&["--backend", "hdd"]).backend(Backend::Mem), Backend::Sim(Testbed::Hdd));
    }

    #[test]
    #[should_panic(expected = "bad --threads value \"eight\"")]
    fn mistyped_number_panics() {
        args(&["--threads", "eight"]).get("--threads", 8usize);
    }

    #[test]
    #[should_panic(expected = "bad --durations value \"600,9OO\"")]
    fn mistyped_list_item_panics() {
        args(&["--durations", "600,9OO"]).list("--durations", vec![600u64]);
    }

    #[test]
    #[should_panic(expected = "--seed needs a value")]
    fn flag_without_value_panics() {
        args(&["--quick", "--seed"]).get("--seed", 42u64);
    }

    #[test]
    #[should_panic(expected = "bad --backend value \"nvme\"")]
    fn unknown_backend_panics() {
        args(&["--backend", "nvme"]).backend(Backend::Mem);
    }

    #[test]
    fn metrics_out_prefers_cli_over_env() {
        let obs = ObsArgs::parse(&args(&["--metrics-out", "m.json", "--slow-us", "250"]));
        assert_eq!(obs.metrics_out, Some(PathBuf::from("m.json")));
        assert_eq!(obs.slow_us, Some(250));
        // No flag and no env (the test env does not set SIAS_METRICS_OUT)
        // means no dump.
        if std::env::var("SIAS_METRICS_OUT").is_err() {
            let none = ObsArgs::parse(&args(&[]));
            assert_eq!(none.metrics_out, None);
            assert!(!none.requested());
            none.dump_metrics(&[]);
        }
    }

    #[test]
    fn metrics_dump_writes_labelled_json() {
        let db = SiasDb::open(StorageConfig::in_memory());
        let snap = db.metrics_snapshot();
        let path = std::env::temp_dir().join("sias_bench_metrics_dump_test.json");
        let obs = ObsArgs { metrics_out: Some(path.clone()), ..ObsArgs::default() };
        obs.dump_metrics(&[("SIAS-t2/5s".to_string(), snap.clone()), ("a\"b".to_string(), snap)]);
        let contents = std::fs::read_to_string(&path).expect("read back");
        std::fs::remove_file(&path).ok();
        assert!(contents.contains("\"SIAS-t2/5s\": {"));
        assert!(contents.contains("\"a\\\"b\": {"), "labels go through the one escaper");
        assert!(contents.contains("\"storage.wal.forces\""));
        assert!(contents.contains("\"core.engine.update\""));
    }

    #[test]
    fn smoke_cell_sias_vs_si() {
        // A miniature cell on each engine: must run, stay consistent, and
        // SIAS must not write more than SI. The window must be several
        // emulated-user cycles (keying + think ≈ 25 virtual seconds) long,
        // or whether any NewOrder lands in the measured interval is seed
        // luck.
        let dcfg = DriverConfig::for_warehouses(2).with_duration(30);
        let sias = run_cell(EngineKind::SiasT2, Testbed::Ssd.storage(256), 2, &dcfg);
        let si = run_cell(EngineKind::Si, Testbed::Ssd.storage(256), 2, &dcfg);
        assert_eq!(sias.violations, 0);
        assert_eq!(si.violations, 0);
        assert!(sias.bench.new_order_commits > 0);
        assert!(si.bench.new_order_commits > 0);
        assert!(
            sias.device.host_write_pages <= si.device.host_write_pages,
            "sias wrote {} pages, si wrote {}",
            sias.device.host_write_pages,
            si.device.host_write_pages
        );
        // Each cell carries a full metrics snapshot, and both engines
        // expose the same metric names.
        assert_eq!(sias.metrics.names(), si.metrics.names());
        assert!(sias.metrics.counter("workload.driver.commits").unwrap() > 0);
        assert!(si.metrics.counter("workload.driver.commits").unwrap() > 0);
    }
}
