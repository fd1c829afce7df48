//! The repository benchmark. Runs one workload against SIAS (t2 flush
//! policy, simulated single SSD) and prints every metric by name with
//! its unit, then one JSON result line.
//!
//! ```text
//! perfbench --workload <kv-rmw-gc|report-hot-range|tpcc-flash>
//!           --seed <n> --seconds <n> --trace <0|1> [--rev <source revision>]
//! ```
//!
//! `--trace 0` sets the workload up and measures it three times (eight
//! for `report-hot-range`), each pass on a fresh set-up and a third (an
//! eighth) of `--seconds` long. It cuts every
//! pass into 1-s windows, leaves out the first as warm-up, and reports
//! each timed end-to-end metric as its median over the windows of all
//! passes; set-up time and the counted metrics are medians over passes.
//! `--trace 1` measures an untraced and then a traced pass of the same
//! length, each on a fresh set-up, and reports the per-layer metrics of the traced pass
//! plus the tracing overhead between the two. The process exits 1 when
//! any output of the engine was wrong.

mod client;
mod counters;
mod hot_range;
mod kv;
mod result;
mod spans;
mod stats;
mod tpcc;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use result::{
    metric, print_metrics, print_self_times, result_json, Metric, Pass, Window, WINDOWED,
};
use spans::{analyse, write_tsv, Span};
use stats::{median, peak_rss_mib, ratio};

/// Set-up + measurement passes per untraced run, unless the workload
/// needs more.
const PASSES: usize = 3;
/// Spans written per client thread to the trace file (all are analysed).
const SPANS_WRITTEN: usize = 100_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10, trace: false, rev: "unknown".into() };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => args.trace = num()? != 0,
            "--rev" => args.rev = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// One measured pass on a set-up state, traced or not, with its spans.
type Measure<S> = Box<dyn Fn(S, bool) -> (Pass, Vec<Vec<Span>>)>;

/// What a workload module provides: set-up, one measured pass, and the
/// virtual-time counts a set-up must repeat exactly (if any).
struct Workload<S> {
    /// Set-up + measurement passes of an untraced run, each
    /// `--seconds / passes` long.
    passes: usize,
    pool_frames: usize,
    clients: usize,
    setup: Box<dyn Fn() -> S>,
    measure: Measure<S>,
    fingerprint: fn(&S) -> Vec<(&'static str, u64)>,
}

struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

fn run<S>(args: &Args, w: Workload<S>) -> Outcome {
    println!(
        "host: nproc={} profile={} rev={} seed={} storage=ssd(single, simulated FTL) pool_frames={} clients={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        args.rev,
        args.seed,
        w.pool_frames,
        w.clients,
    );
    if args.trace {
        run_traced(args, w)
    } else {
        run_untraced(args, w)
    }
}

fn run_untraced<S>(args: &Args, w: Workload<S>) -> Outcome {
    let mut setups = Vec::new();
    let mut windows: Vec<Vec<Window>> = Vec::new();
    let mut counted: Vec<Vec<Metric>> = Vec::new();
    let mut samples = [0usize; 3];
    let mut read_what = "";
    let mut prints = Vec::new();
    let mut extra = Vec::new();
    let mut out = Outcome { metrics: Vec::new(), attempted: 0, failed: 0, violations: Vec::new() };
    // Peak memory is taken from the first pass: later passes start with
    // whatever the allocator kept of the previous set-up, which made
    // their peaks jump between two levels from run to run.
    let mut first_peak_rss = None;
    for i in 0..w.passes {
        let start = Instant::now();
        let state = (w.setup)();
        setups.push(start.elapsed().as_secs_f64());
        prints.push((w.fingerprint)(&state));
        let (mut pass, _) = (w.measure)(state, false);
        first_peak_rss.get_or_insert_with(peak_rss_mib);
        windows.push(pass.windows());
        counted.push(pass.counted());
        samples[0] += pass.commits as usize;
        samples[1] += pass.txn.len();
        samples[2] += pass.read.len();
        read_what = pass.read_what;
        let pass_extra = std::iter::once(pass.fail_ratio()).chain(pass.extra.drain(..));
        extra.extend(pass_extra.map(|mut m| {
            m.name = format!("pass{i}.{}", m.name);
            m
        }));
        out.attempted += pass.attempted;
        out.failed += pass.failed;
        out.violations.append(&mut pass.violations);
    }
    let shown: Vec<String> = setups.iter().map(|v| format!("{v:.4}")).collect();
    out.metrics.push(metric(
        "setup_s",
        median(&setups),
        "s",
        format!("median of [{}]: open, load, warm up", shown.join(", ")),
    ));
    let [commits, txns, reads] = samples;
    let counts = [
        format!("{commits} commits"),
        format!("n={txns} txns"),
        format!("n={txns} txns"),
        format!("n={reads} {read_what}"),
        format!("n={reads} {read_what}"),
    ];
    out.metrics.extend(window_medians(&windows, &counts));
    out.metrics.extend(median_metrics(&counted));
    let peak_rss = first_peak_rss.unwrap_or_default();
    out.metrics.push(metric("peak_rss_mb", peak_rss, "MiB", "VmHWM after the first pass"));
    println!(
        "workload {} ({} passes of {} s):",
        args.workload,
        w.passes,
        args.seconds / w.passes as u64
    );
    print_metrics(
        "end-to-end (timings: median over the 1-s windows of all passes; the rest: median over passes):",
        &out.metrics,
    );
    extra.extend(repeat_spread(&prints));
    print_metrics("workload-specific:", &extra);
    println!("windows, one column per second of each pass after its warm-up window:");
    for (p, pass) in windows.iter().enumerate() {
        for (i, (name, _)) in WINDOWED.iter().enumerate() {
            let values: Vec<String> = pass.iter().map(|w| format!("{:.1}", w[i])).collect();
            println!("  pass{p}.{name:<14} {}", values.join(" "));
        }
    }
    out
}

/// Per timed metric, the median over the windows of every pass, with
/// each pass's own median and the samples behind it.
fn window_medians(passes: &[Vec<Window>], counts: &[String; 5]) -> Vec<Metric> {
    let column =
        |windows: &[Window], i: usize| -> Vec<f64> { windows.iter().map(|w| w[i]).collect() };
    let all: Vec<Window> = passes.concat();
    WINDOWED
        .iter()
        .enumerate()
        .map(|(i, &(name, unit))| {
            let shown: Vec<String> =
                passes.iter().map(|p| format!("{:.4}", median(&column(p, i)))).collect();
            metric(
                name,
                median(&column(&all, i)),
                unit,
                format!("{} windows, per pass [{}]; {}", all.len(), shown.join(", "), counts[i]),
            )
        })
        .collect()
}

/// Per metric, the median over passes, with every pass's value.
fn median_metrics(passes: &[Vec<Metric>]) -> Vec<Metric> {
    (0..passes[0].len())
        .map(|i| {
            let values: Vec<f64> = passes.iter().map(|p| p[i].value).collect();
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            let first = &passes[0][i];
            metric(
                first.name.clone(),
                median(&values),
                first.unit,
                format!("median of [{}]; pass 0: {}", shown.join(", "), first.base),
            )
        })
        .collect()
}

/// For each virtual-time count, how far its set-ups disagreed:
/// (max − min) / median. Zero when the engine is deterministic.
fn repeat_spread(prints: &[Vec<(&'static str, u64)>]) -> Vec<Metric> {
    let Some(first) = prints.first() else { return Vec::new() };
    first
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let v: Vec<f64> = prints.iter().map(|p| p[i].1 as f64).collect();
            let (lo, hi) =
                v.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            let values: Vec<String> = v.iter().map(|x| x.to_string()).collect();
            metric(
                format!("warmup_repeat_spread.{name}"),
                ratio(hi - lo, median(&v)),
                "ratio",
                format!("same seed, {} set-ups: {}", v.len(), values.join(", ")),
            )
        })
        .collect()
}

fn run_traced<S>(args: &Args, w: Workload<S>) -> Outcome {
    let (base, _) = (w.measure)((w.setup)(), false);
    let (mut traced, spans) = (w.measure)((w.setup)(), true);
    let names = analyse(&spans);
    let n_spans: usize = spans.iter().map(Vec::len).sum();
    let overhead =
        ratio(base.commits_per_s() - traced.commits_per_s(), base.commits_per_s()) * 100.0;
    let mut metrics = std::mem::take(&mut traced.layers);
    metrics.push(metric(
        "trace.overhead_pct",
        overhead,
        "%",
        format!(
            "commits_per_s untraced {:.1} vs traced {:.1}",
            base.commits_per_s(),
            traced.commits_per_s()
        ),
    ));
    metrics.push(metric(
        "trace.spans",
        n_spans as f64,
        "count",
        "spans recorded by the traced pass",
    ));

    println!(
        "workload {} ({} s per pass; traced pass):",
        args.workload,
        args.seconds / w.passes as u64
    );
    print_self_times(&names, traced.commits, traced.wall_s);
    print_metrics("per-layer:", &metrics);
    let (b50, t50) = (base.txn.all().quantile_us(0.5), traced.txn.all().quantile_us(0.5));
    println!(
        "tracing overhead: commits_per_s {:.1} -> {:.1} ({overhead:+.2} %), txn_p50_us {b50:.2} -> {t50:.2} ({:+.2} %)",
        base.commits_per_s(),
        traced.commits_per_s(),
        ratio(t50 - b50, b50) * 100.0
    );
    let path = PathBuf::from("perfbench/out")
        .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    match write_tsv(&path, &spans, SPANS_WRITTEN) {
        Ok(()) => {
            println!("spans written to {} (first {SPANS_WRITTEN} per thread)", path.display())
        }
        Err(e) => println!("spans not written to {}: {e}", path.display()),
    }
    let mut violations = base.violations;
    violations.append(&mut traced.violations);
    Outcome { metrics, attempted: traced.attempted, failed: traced.failed, violations }
}

fn print_capped(label: &str, lines: &[String]) {
    for line in lines.iter().take(20) {
        println!("{label}: {line}");
    }
    if lines.len() > 20 {
        println!("{label}: ... and {} more", lines.len() - 20);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1> [--rev <r>]");
            return ExitCode::from(2);
        }
    };
    let (seed, seconds) = (args.seed, args.seconds);
    let per_pass = move |passes: usize| (seconds / passes as u64).max(1);
    let out = match args.workload.as_str() {
        "kv-rmw-gc" => run(
            &args,
            Workload {
                passes: PASSES,
                pool_frames: kv::POOL_FRAMES,
                clients: 2,
                setup: Box::new(kv::setup),
                measure: Box::new(move |s, t| kv::measure(s, seed, per_pass(PASSES), t)),
                fingerprint: |_| Vec::new(),
            },
        ),
        "report-hot-range" => run(
            &args,
            Workload {
                passes: hot_range::PASSES,
                pool_frames: hot_range::POOL_FRAMES,
                clients: 2,
                setup: Box::new(hot_range::setup),
                measure: Box::new(move |s, t| {
                    hot_range::measure(s, seed, per_pass(hot_range::PASSES), t)
                }),
                fingerprint: |_| Vec::new(),
            },
        ),
        "tpcc-flash" => run(
            &args,
            Workload {
                passes: PASSES,
                pool_frames: tpcc::POOL_FRAMES,
                clients: 1,
                setup: Box::new(move || tpcc::setup(seed)),
                measure: Box::new(move |s, t| tpcc::measure(s, per_pass(PASSES), t)),
                fingerprint: |s| s.fingerprint.clone(),
            },
        ),
        other => {
            eprintln!(
                "unknown workload {other:?}; expected kv-rmw-gc, report-hot-range or tpcc-flash"
            );
            return ExitCode::from(2);
        }
    };
    let correct = out.violations.is_empty();
    print_capped("VIOLATION", &out.violations);
    println!("{}", result_json(correct, out.attempted.max(1), out.failed, &out.metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
