//! Shared experiment harness for the SIAS evaluation reproduction.
//!
//! Each table/figure of the paper has a binary in `src/bin/` that calls
//! into the helpers here: build an engine on a modelled testbed, load
//! TPC-C at a warehouse scale, run the measured interval, and report the
//! paper's metrics (NOTPM, response times, device write volume). A
//! measured interval is always a before/after diff of the device
//! counters and the registry snapshot: nothing is reset.
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

use sias_core::{FlushPolicy, SiasDb};
use sias_obs::{export, MetricsSnapshot, TimeSeries, TraceEvent};
use sias_si::SiDb;
use sias_storage::{DeviceStats, StorageConfig};
use sias_txn::MvccEngine;
use sias_workload::{
    check_consistency, load, run_benchmark, BenchResult, DriverConfig, TpccConfig,
};

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
    /// Parses a `--testbed` CLI value.
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

    /// Reads `--backend` from raw argv, falling back to `default`.
    /// Panics (with the offending value) on an unparsable backend, so a
    /// typo fails loudly instead of silently benchmarking the default.
    pub fn from_args(args: &[String], default: Backend) -> Backend {
        match arg_value(args, "--backend") {
            Some(v) => {
                Backend::parse(&v).unwrap_or_else(|| panic!("unknown --backend value {v:?}"))
            }
            None => default,
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

/// Reads the `--io-depth <n>` override from raw argv.
pub fn io_depth_arg(args: &[String]) -> Option<usize> {
    arg_value(args, "--io-depth").and_then(|v| v.parse().ok())
}

/// Builds an engine of `kind` on an arbitrary backend (the
/// backend-aware twin of [`build`]).
pub fn backend_build(
    kind: EngineKind,
    backend: &Backend,
    pool_frames: usize,
    io_depth: Option<usize>,
) -> AnyEngine {
    let storage = backend.storage(pool_frames, io_depth);
    build_on(kind, storage)
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

/// Runs one experiment cell: build, load, measure, verify.
pub fn run_cell(
    kind: EngineKind,
    testbed: Testbed,
    warehouses: u32,
    duration_secs: u64,
    pool_frames: usize,
) -> CellResult {
    let any = build(kind, testbed, pool_frames);
    let engine = any.engine();
    let cfg = TpccConfig::scaled(warehouses);
    let tables = load(engine, &cfg).expect("load");
    // Settle the load phase with a checkpoint, then report only the
    // measured interval (the paper measures the benchmark run, not the
    // data generation).
    engine.maintenance(true);
    let stack = any.stack();
    let (device_before, metrics_before) = (stack.data.stats(), engine.metrics_snapshot());

    let dcfg = DriverConfig::for_warehouses(warehouses).with_duration(duration_secs);
    let bench = run_benchmark(engine, &tables, &cfg, &dcfg, &stack.clock).expect("benchmark");

    let device = stack.data.stats() - device_before;
    let metrics = engine.metrics_snapshot().since(&metrics_before);
    let space_pages: u64 = {
        let space = &stack.space;
        space.relations().iter().map(|&r| space.relation_blocks(r) as u64).sum()
    };
    let violations = check_consistency(engine, &tables, &cfg).expect("check").len();
    CellResult { engine: kind, bench, device, space_pages, violations, metrics }
}

/// Writes `contents` into `results/<name>` (creating the directory),
/// returning the path written.
pub fn write_results(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write results");
    path
}

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
/// Binaries parse once ([`ObsArgs::parse`]) and call the `dump_*`
/// methods at the end of the run; every dump is a no-op when its flag is
/// absent, so the instrumentation costs nothing by default.
#[derive(Clone, Debug, Default)]
pub struct ObsArgs {
    /// Destination of the metrics dump (`--metrics-out`).
    pub metrics_out: Option<std::path::PathBuf>,
    /// Destination of the trace dump (`--trace-out`).
    pub trace_out: Option<std::path::PathBuf>,
    /// Destination of the time-series dump (`--series-out`).
    pub series_out: Option<std::path::PathBuf>,
    /// Slow-op threshold in microseconds (`--slow-us`).
    pub slow_us: Option<u64>,
}

impl ObsArgs {
    /// Parses the three options from raw argv.
    pub fn parse(args: &[String]) -> ObsArgs {
        ObsArgs {
            metrics_out: metrics_out(args),
            trace_out: arg_value(args, "--trace-out").map(std::path::PathBuf::from),
            series_out: arg_value(args, "--series-out").map(std::path::PathBuf::from),
            slow_us: arg_value(args, "--slow-us").and_then(|v| v.parse().ok()),
        }
    }

    /// Arms the recorder's slow-op ring when `--slow-us` was given.
    pub fn apply_slow_threshold(&self, tracer: &sias_obs::FlightRecorder) {
        if let Some(us) = self.slow_us {
            tracer.set_slow_threshold_ns(us.saturating_mul(1_000));
        }
    }

    /// Writes the slow-op window at `<trace_out>.slow.jsonl`; no-op
    /// without `--trace-out` or with an empty window.
    pub fn dump_slow(&self, events: &[TraceEvent]) -> Option<std::path::PathBuf> {
        let path = self.trace_out.as_deref()?;
        if events.is_empty() {
            return None;
        }
        let mut slow = path.as_os_str().to_owned();
        slow.push(".slow.jsonl");
        let slow = std::path::PathBuf::from(slow);
        write_file(&slow, &export::to_jsonl(events));
        Some(slow)
    }

    /// Whether the run should enable the flight recorder.
    pub fn tracing_requested(&self) -> bool {
        self.trace_out.is_some()
    }

    /// Whether the run should start the time-series sampler.
    pub fn series_requested(&self) -> bool {
        self.series_out.is_some()
    }

    /// Writes labelled metrics snapshots (see [`dump_metrics`]).
    pub fn dump_metrics(&self, runs: &[(String, MetricsSnapshot)]) -> Option<std::path::PathBuf> {
        dump_metrics(self.metrics_out.as_deref(), runs)
    }

    /// Writes the trace dump: JSON-lines at `trace_out` plus the Chrome
    /// `trace_event` twin at `<trace_out>.chrome.json`. Returns both
    /// paths; no-op without `--trace-out`.
    pub fn dump_trace(
        &self,
        events: &[TraceEvent],
    ) -> Option<(std::path::PathBuf, std::path::PathBuf)> {
        let path = self.trace_out.as_deref()?;
        write_file(path, &export::to_jsonl(events));
        let mut chrome = path.as_os_str().to_owned();
        chrome.push(".chrome.json");
        let chrome = std::path::PathBuf::from(chrome);
        write_file(&chrome, &export::to_chrome_trace(events));
        Some((path.to_path_buf(), chrome))
    }

    /// Writes the sampler's series as JSON; no-op without
    /// `--series-out`.
    pub fn dump_series(&self, series: &TimeSeries) -> Option<std::path::PathBuf> {
        let path = self.series_out.as_deref()?;
        write_file(path, &series.to_json());
        Some(path.to_path_buf())
    }
}

fn write_file(path: &std::path::Path, contents: &str) {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
    }
    std::fs::write(path, contents).expect("write output file");
}

/// Tiny CLI-argument helper: returns the value following `--name`.
pub fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

/// Destination of the per-run metrics dump: the `--metrics-out <path>`
/// option, falling back to the `SIAS_METRICS_OUT` environment variable.
/// `None` disables the dump.
pub fn metrics_out(args: &[String]) -> Option<std::path::PathBuf> {
    arg_value(args, "--metrics-out")
        .or_else(|| std::env::var("SIAS_METRICS_OUT").ok())
        .map(std::path::PathBuf::from)
}

/// Writes labelled metrics snapshots to `dest` as one JSON object keyed
/// by run label (`{"SI/600s": {...}, ...}`). Returns the path written;
/// no-op when `dest` is `None`.
pub fn dump_metrics(
    dest: Option<&std::path::Path>,
    runs: &[(String, MetricsSnapshot)],
) -> Option<std::path::PathBuf> {
    let path = dest?;
    let mut out = String::from("{");
    for (i, (label, snap)) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n\"");
        out.push_str(&label.replace('\\', "\\\\").replace('"', "\\\""));
        out.push_str("\": ");
        out.push_str(&snap.to_json());
    }
    out.push_str("\n}\n");
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create metrics dir");
        }
    }
    std::fs::write(path, out).expect("write metrics");
    Some(path.to_path_buf())
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

    #[test]
    fn arg_helper() {
        let args: Vec<String> =
            ["--wh", "100", "--engine", "si"].iter().map(|s| s.to_string()).collect();
        assert_eq!(arg_value(&args, "--wh").as_deref(), Some("100"));
        assert_eq!(arg_value(&args, "--engine").as_deref(), Some("si"));
        assert_eq!(arg_value(&args, "--missing"), None);
    }

    #[test]
    fn metrics_out_prefers_cli_over_env() {
        let args: Vec<String> = ["--metrics-out", "m.json"].iter().map(|s| s.to_string()).collect();
        assert_eq!(metrics_out(&args), Some(std::path::PathBuf::from("m.json")));
        // No flag and no env (the test env does not set SIAS_METRICS_OUT)
        // means no dump.
        if std::env::var("SIAS_METRICS_OUT").is_err() {
            assert_eq!(metrics_out(&[]), None);
        }
        assert_eq!(dump_metrics(None, &[]), None);
    }

    #[test]
    fn metrics_dump_writes_labelled_json() {
        let db = SiasDb::open(StorageConfig::in_memory());
        let snap = db.metrics_snapshot();
        let path = std::env::temp_dir().join("sias_bench_metrics_dump_test.json");
        let written = dump_metrics(Some(&path), &[("SIAS-t2/5s".to_string(), snap)]).expect("dump");
        let contents = std::fs::read_to_string(&written).expect("read back");
        std::fs::remove_file(&written).ok();
        assert!(contents.contains("\"SIAS-t2/5s\": {"));
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
        let sias = run_cell(EngineKind::SiasT2, Testbed::Ssd, 2, 30, 256);
        let si = run_cell(EngineKind::Si, Testbed::Ssd, 2, 30, 256);
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
