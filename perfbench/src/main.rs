//! The repository benchmark.
//!
//! ```text
//! perfbench --workload tune_cold|serve_solve|sweep_grid
//!           --seed N --seconds S --trace 0|1 --serve-bin PATH
//! ```
//!
//! Run it through `perfbench/run.sh`, which builds this program and
//! `hslb-serve` from the checkout first. Every run measures one workload
//! for `--seconds`, checks the answers against the one-shot reference,
//! and prints, as its last stdout line, one JSON object:
//! `{"correct","attempted","failed","metrics"}`. Untraced runs
//! (`--trace 0`) report the end-to-end metrics of [`E2E`]; traced runs
//! (`--trace 1`) split the window into an untraced and a traced half
//! and report the per-layer metrics of [`LAYERS`], including the
//! tracing overhead. Timings are scaled to a reference host speed
//! measured beside them ([`pace`]). The lines before it carry the
//! skipped-class counts, the failure list and the provenance block. The
//! exit code is 0 when every answer checked out, 1 on a mismatch, 2 when
//! the run could not be made at all.
#![forbid(unsafe_code)]

mod account;
mod client;
mod cold;
mod gen;
mod host;
mod pace;
mod serve;
mod stats;
mod sweep;

use account::Ledger;
use hslb_telemetry::json::Value;
use stats::{geomean, median, percentile, ratio};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics: (name, unit), reported by every untraced run.
pub const E2E: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mib", "MiB"),
    ("ok_fraction", "ratio"),
    ("makespan_geomean_s", "s"),
    ("prediction_error_pct", "%"),
];

/// Per-layer metrics: (name, unit, workloads whose path crosses the
/// layer, end-to-end metrics the layer should move). A traced run
/// reports every name; a layer off the workload's path reads 0.
#[rustfmt::skip]
pub const LAYERS: [(&str, &str, &str, &str); 38] = [
    ("nlsq.fit_ms", "ms", "tune_cold", "tune_cold latency_p50_ms, throughput_per_s, cpu_ms_per_op"),
    ("nlsq.lm_iterations", "count", "tune_cold", "tune_cold latency_p50_ms, throughput_per_s, cpu_ms_per_op"),
    ("nlsq.starts_run", "count", "tune_cold", "tune_cold latency_p50_ms, throughput_per_s, cpu_ms_per_op"),
    ("nlsq.lm_iters_per_start", "count", "tune_cold", "tune_cold latency_p50_ms, throughput_per_s, cpu_ms_per_op"),
    ("nlsq.sse", "s2", "tune_cold", "tune_cold prediction_error_pct"),
    ("minlp.solve_ms", "ms", "tune_cold serve_solve", "serve_solve latency_p50_ms, latency_p99_ms, throughput_per_s; sweep_grid throughput_per_s; less on tune_cold"),
    ("minlp.bb_nodes", "count", "tune_cold serve_solve", "serve_solve latency_p50_ms, latency_p99_ms, throughput_per_s; sweep_grid throughput_per_s; less on tune_cold"),
    ("minlp.cuts", "count", "tune_cold serve_solve", "serve_solve latency_p50_ms, latency_p99_ms, throughput_per_s; sweep_grid throughput_per_s; less on tune_cold"),
    ("lp.solves", "count", "tune_cold serve_solve", "serve_solve latency_p50_ms, latency_p99_ms, throughput_per_s; sweep_grid throughput_per_s; less on tune_cold"),
    ("lp.simplex_iters", "count", "tune_cold serve_solve", "serve_solve latency_p50_ms, latency_p99_ms, throughput_per_s; sweep_grid throughput_per_s; less on tune_cold"),
    ("lp.pivots_per_solve", "count", "tune_cold serve_solve", "serve_solve latency_p50_ms, latency_p99_ms, throughput_per_s; sweep_grid throughput_per_s; less on tune_cold"),
    ("lp.warm_resolve_ratio", "ratio", "tune_cold serve_solve", "serve_solve latency_p50_ms, latency_p99_ms, throughput_per_s; sweep_grid throughput_per_s; less on tune_cold"),
    ("lp.warm_fallbacks", "count", "tune_cold serve_solve", "serve_solve latency_p50_ms, latency_p99_ms, throughput_per_s; sweep_grid throughput_per_s; less on tune_cold"),
    ("hslb.exhaustive_share", "ratio", "tune_cold serve_solve", "serve_solve latency_p50_ms, latency_p99_ms, throughput_per_s; sweep_grid throughput_per_s; less on tune_cold"),
    ("cesm.gather_ms", "ms", "tune_cold", "tune_cold latency_p50_ms"),
    ("cesm.gather_runs", "count", "tune_cold", "tune_cold latency_p50_ms"),
    ("cesm.execute_ms", "ms", "tune_cold serve_solve", "tune_cold latency_p50_ms"),
    ("hslb.pipeline_self_ms", "ms", "tune_cold", "tune_cold latency_p50_ms"),
    ("service.queue_wait_ms", "ms", "serve_solve", "serve_solve latency_p99_ms"),
    ("service.service_ms", "ms", "serve_solve", "serve_solve latency_p99_ms"),
    ("service.submit_wait_ms", "ms", "serve_solve", "serve_solve latency_p99_ms"),
    ("service.exact_hit_ratio", "ratio", "serve_solve sweep_grid", "serve_solve latency_p99_ms"),
    ("service.fit_hit_ratio", "ratio", "serve_solve sweep_grid", "serve_solve latency_p99_ms"),
    ("service.coalesced_ratio", "ratio", "serve_solve sweep_grid", "serve_solve latency_p99_ms"),
    ("service.rejected_ratio", "ratio", "serve_solve sweep_grid", "serve_solve latency_p99_ms"),
    ("reactor.overhead_ms", "ms", "serve_solve", "serve_solve latency_p50_ms, cpu_ms_per_op"),
    ("reactor.reply_queue_p99", "count", "serve_solve", "serve_solve latency_p50_ms, cpu_ms_per_op"),
    ("wire.encode_us", "us", "serve_solve", "serve_solve latency_p50_ms, cpu_ms_per_op"),
    ("wire.decode_us", "us", "serve_solve", "serve_solve latency_p50_ms, cpu_ms_per_op"),
    ("sweep.plan_ms", "ms", "sweep_grid", "sweep_grid latency_p50_ms, throughput_per_s"),
    ("sweep.fit_groups", "count", "sweep_grid", "sweep_grid latency_p50_ms, throughput_per_s"),
    ("sweep.dedup_saved", "count", "sweep_grid", "sweep_grid latency_p50_ms, throughput_per_s"),
    ("sweep.calibration_share", "ratio", "sweep_grid", "sweep_grid latency_p50_ms, throughput_per_s"),
    ("sweep.pruned_ratio", "ratio", "sweep_grid", "sweep_grid latency_p50_ms, throughput_per_s"),
    ("sweep.config_gap_ms", "ms", "sweep_grid", "sweep_grid latency_p50_ms, throughput_per_s"),
    ("sweep.fit_hit_ratio", "ratio", "sweep_grid", "sweep_grid latency_p50_ms, throughput_per_s"),
    ("trace.overhead_ms", "ms", "tune_cold serve_solve sweep_grid", "traced p50 minus untraced p50 of the same run"),
    ("trace.overhead_pct", "%", "tune_cold serve_solve sweep_grid", "trace.overhead_ms over the untraced p50"),
];

pub const WORKLOADS: [&str; 3] = ["tune_cold", "serve_solve", "sweep_grid"];

/// One run's parameters.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `hslb-serve` binary the serving workloads start.
    pub serve_bin: PathBuf,
    /// Scratch directory for port files and server logs, inside the
    /// checkout.
    pub run_dir: PathBuf,
    /// Worker threads of the service under test (nproc).
    pub workers: usize,
    /// Setups per run; `setup_s` is their median.
    pub setups: usize,
}

/// Segments a measured window splits into (2 s each in a 30 s run).
pub const SEGMENTS: u32 = 15;

/// The percentile of the per-segment (or per-chunk) figures a speed
/// metric reports: the 10th percentile of times, the 90th of rates —
/// the second-fastest of 15 segments. Each segment's figures are first
/// scaled to the reference host by the pace measured in it
/// ([`pace`]); what scaling leaves, interference the kernel did not see,
/// only ever slows a segment, so the run's faster stretches show the
/// program's own speed with the least foreign load in it. A change to
/// the program moves every segment.
pub const FAST_PERCENTILE: f64 = 10.0;

/// One attempted operation of a measured window.
pub struct Op {
    /// Completion instant.
    pub at: Instant,
    /// Throughput units it completed: 1 per answered tune, the entry
    /// count of a sweep, 0 when it failed.
    pub units: f64,
    /// Latency; NaN when it failed (percentiles skip non-finite samples).
    pub lat_ms: f64,
    /// Host pace measured beside it (kernel µs per repetition); NaN when
    /// none was.
    pub pace_us: f64,
    /// Kernel time the measured process spent beside it, which its
    /// segment's wall and CPU time leave out.
    pub pace_ms: f64,
}

impl Op {
    /// An operation that ran from `started` to `ended`.
    pub fn new(started: Instant, ended: Instant, units: f64) -> Op {
        let lat_ms = if units > 0.0 {
            ended.duration_since(started).as_secs_f64() * 1e3
        } else {
            f64::NAN
        };
        Op {
            at: ended,
            units,
            lat_ms,
            pace_us: f64::NAN,
            pace_ms: 0.0,
        }
    }

    /// Attach the pace step run after this operation; `in_process` when
    /// the kernel ran in the process whose time and CPU are measured.
    pub fn paced(mut self, step: pace::Step, in_process: bool) -> Op {
        self.pace_us = step.us_per_rep;
        if in_process {
            self.pace_ms = step.ms;
        }
        self
    }
}

/// The measured window of an untraced (half) run.
pub struct Window {
    pub ops: Vec<Op>,
    /// CPU samples of the working process, window start to end.
    pub ticks: Vec<host::Tick>,
    /// The working process's lifetime peak resident memory (VmHWM) at
    /// the end of the window, in MiB.
    pub peak_rss_mib: f64,
}

impl Window {
    /// Latencies in completion order, as measured.
    pub fn latencies(&self) -> Vec<f64> {
        self.sorted().iter().map(|o| o.lat_ms).collect()
    }

    fn sorted(&self) -> Vec<&Op> {
        let mut ops: Vec<&Op> = self.ops.iter().collect();
        ops.sort_by_key(|o| o.at);
        ops
    }

    /// The [`SEGMENTS`] segments as tick-index pairs, empty ones dropped.
    fn bounds(&self) -> Vec<(usize, usize)> {
        let last = self.ticks.len().saturating_sub(1);
        let n = SEGMENTS as usize;
        (0..n)
            .map(|k| (k * last / n, (k + 1) * last / n))
            .filter(|&(a, b)| a < b && self.ticks[b].at > self.ticks[a].at)
            .collect()
    }

    /// The operations that completed in segment `(a, b)`.
    fn inside(&self, (a, b): (usize, usize)) -> impl Iterator<Item = &Op> {
        let (from, to) = (self.ticks[a].at, self.ticks[b].at);
        self.ops.iter().filter(move |o| o.at >= from && o.at < to)
    }

    /// Reference / measured pace over a segment's operations (1 when
    /// none carries a pace).
    fn factor(&self, seg: (usize, usize)) -> f64 {
        let paces: Vec<f64> = self
            .inside(seg)
            .map(|o| o.pace_us)
            .filter(|p| p.is_finite())
            .collect();
        if paces.is_empty() {
            return 1.0;
        }
        pace::to_reference(paces.iter().sum::<f64>() / paces.len() as f64)
    }

    /// Latencies in completion order, each scaled to the reference host
    /// by its segment's factor.
    fn scaled_latencies(&self) -> Vec<f64> {
        let segs: Vec<(Instant, f64)> = self
            .bounds()
            .into_iter()
            .map(|seg| (self.ticks[seg.1].at, self.factor(seg)))
            .collect();
        self.sorted()
            .iter()
            .map(|o| {
                let f = segs
                    .iter()
                    .find(|(end, _)| o.at < *end)
                    .or(segs.last())
                    .map_or(1.0, |s| s.1);
                o.lat_ms * f
            })
            .collect()
    }

    /// Percentile `p` of scaled latency: the [`FAST_PERCENTILE`] over
    /// consecutive chunks of the window, as many (up to [`SEGMENTS`]) as
    /// leave every chunk at least ten samples beyond the percentile;
    /// pooled when that is one.
    fn latency_percentile(&self, p: f64) -> (Option<f64>, usize) {
        let lat: Vec<f64> = self
            .scaled_latencies()
            .into_iter()
            .filter(|x| x.is_finite())
            .collect();
        let beyond = lat.len() as f64 * (1.0 - p / 100.0);
        let chunks = ((beyond / 10.0).floor() as usize).clamp(1, SEGMENTS as usize);
        let size = lat.len().div_ceil(chunks).max(1);
        let per_chunk: Vec<f64> = lat.chunks(size).filter_map(|c| percentile(c, p)).collect();
        (percentile(&per_chunk, FAST_PERCENTILE), chunks)
    }

    /// Per-segment throughput (units/s) and CPU ms per operation, both
    /// scaled to the reference host and net of the pace kernel, over
    /// [`SEGMENTS`] equal runs of samples; plus each segment's measured
    /// pace (kernel µs per rep).
    fn segments(&self) -> Segments {
        let mut out = Segments::default();
        for seg in self.bounds() {
            let (a, b) = (&self.ticks[seg.0], &self.ticks[seg.1]);
            let f = self.factor(seg);
            let (ops, units, kernel_s) = self.inside(seg).fold((0.0, 0.0, 0.0), |(n, u, k), o| {
                (n + 1.0, u + o.units, k + o.pace_ms / 1e3)
            });
            let secs = b.at.duration_since(a.at).as_secs_f64() - kernel_s;
            if secs > 0.0 {
                out.rate.push(units / secs / f);
            }
            if ops > 0.0 {
                out.cpu.push((b.cpu_s - a.cpu_s - kernel_s) * 1e3 / ops * f);
            }
            out.pace.push(pace::REFERENCE_US_PER_REP / f);
        }
        out
    }
}

/// Per-segment figures of a window.
#[derive(Default)]
struct Segments {
    rate: Vec<f64>,
    cpu: Vec<f64>,
    pace: Vec<f64>,
}

/// What a workload hands back: its ledger, metrics and sample counts.
pub struct Report {
    pub ledger: Ledger,
    metrics: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, usize>,
    skipped: BTreeMap<String, u64>,
    /// Median measured host pace over the window's segments (kernel µs
    /// per repetition); NaN when the workload ran no pace kernel.
    pace_us: f64,
}

impl Report {
    pub fn new(ledger: Ledger, skipped: BTreeMap<String, u64>) -> Report {
        Report {
            ledger,
            metrics: BTreeMap::new(),
            samples: BTreeMap::new(),
            skipped,
            pace_us: f64::NAN,
        }
    }

    /// The end-to-end metrics from the untraced window.
    pub fn e2e(&mut self, setup_s: &[f64], w: &Window, makespans: &[f64], pred_errors_pct: &[f64]) {
        let nan = f64::NAN;
        self.metrics
            .insert("setup_s", median(setup_s).unwrap_or(nan));
        let Segments { rate, cpu, pace } = w.segments();
        self.metrics.insert(
            "throughput_per_s",
            percentile(&rate, 100.0 - FAST_PERCENTILE).unwrap_or(nan),
        );
        for (name, chunk_count, p) in [
            ("latency_p50_ms", "latency_p50_chunks", 50.0),
            ("latency_p90_ms", "latency_p90_chunks", 90.0),
            ("latency_p99_ms", "latency_p99_chunks", 99.0),
        ] {
            let (value, chunks) = w.latency_percentile(p);
            self.metrics.insert(name, value.unwrap_or(nan));
            self.samples.insert(chunk_count, chunks);
        }
        self.metrics.insert(
            "cpu_ms_per_op",
            percentile(&cpu, FAST_PERCENTILE).unwrap_or(nan),
        );
        self.metrics.insert("peak_rss_mib", w.peak_rss_mib);
        self.metrics.insert(
            "ok_fraction",
            ratio(
                self.ledger.ok_count() as f64,
                self.ledger.attempted() as f64,
            ),
        );
        self.metrics
            .insert("makespan_geomean_s", geomean(makespans).unwrap_or(nan));
        self.metrics.insert(
            "prediction_error_pct",
            median(pred_errors_pct).unwrap_or(nan),
        );
        self.samples.insert("setups", setup_s.len());
        self.samples.insert(
            "latency",
            w.ops.iter().filter(|o| o.lat_ms.is_finite()).count(),
        );
        self.samples.insert("segments", rate.len());
        self.samples.insert(
            "paced_ops",
            w.ops.iter().filter(|o| o.pace_us.is_finite()).count(),
        );
        self.pace_us = median(&pace).unwrap_or(nan);
        self.samples.insert("makespan", makespans.len());
        self.samples
            .insert("prediction_error", pred_errors_pct.len());
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            LAYERS.iter().any(|l| l.0 == name),
            "unknown layer metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Merge a report of per-layer figures (and the ledger of the
    /// operations behind them) into this one.
    pub fn absorb(&mut self, other: Report) {
        self.ledger.absorb(other.ledger);
        self.metrics.extend(other.metrics);
        self.samples.extend(other.samples);
    }

    pub fn sample(&mut self, name: &'static str, n: usize) {
        self.samples.insert(name, n);
    }

    /// Tracing overhead: traced-half p50 against untraced-half p50.
    pub fn overhead(&mut self, untraced_ms: &[f64], traced_ms: &[f64]) {
        let (u, t) = (
            median(untraced_ms).unwrap_or(f64::NAN),
            median(traced_ms).unwrap_or(f64::NAN),
        );
        self.layer("trace.overhead_ms", t - u);
        self.layer("trace.overhead_pct", 100.0 * ratio(t - u, u));
        self.samples.insert("untraced_latency", untraced_ms.len());
        self.samples.insert("traced_latency", traced_ms.len());
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

const USAGE: &str = "usage: perfbench --workload tune_cold|serve_solve|sweep_grid \
                     --seed N --seconds S --trace 0|1 --serve-bin PATH";

fn parse_args() -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut serve_bin = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} requires a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    let run_dir = PathBuf::from(".perfbench_run");
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("creating {}: {e}", run_dir.display()))?;
    Ok(Ctx {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        run_dir,
        workers: host::nproc(),
        setups: 9,
    })
}

fn metric_value(name: &str, unit: &str, value: f64) -> (String, Value) {
    (
        name.to_string(),
        Value::Obj(vec![
            ("value".to_string(), Value::Num(value)),
            ("unit".to_string(), Value::Str(unit.to_string())),
        ]),
    )
}

fn main() {
    let ctx = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let steal_before = host::steal_jiffies();
    let result = match ctx.workload.as_str() {
        "tune_cold" => cold::run(&ctx),
        "serve_solve" => serve::run(&ctx),
        _ => sweep::run(&ctx),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", ctx.workload);
            std::process::exit(2);
        }
    };

    // Names the run must report, with their units.
    let wanted: Vec<(&str, &str)> = if ctx.trace {
        LAYERS.iter().map(|l| (l.0, l.1)).collect()
    } else {
        E2E.to_vec()
    };
    let mut off_path = Vec::new();
    let mut metrics = Vec::new();
    for (name, unit) in &wanted {
        let value = match report.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            // A layer this workload's path never crosses, or one with
            // no sample in the traced half.
            _ if ctx.trace => {
                off_path.push(Value::Str(name.to_string()));
                0.0
            }
            other => {
                eprintln!("perfbench: end-to-end metric {name} was not measured ({other:?})");
                std::process::exit(2);
            }
        };
        metrics.push(metric_value(name, unit, value));
    }

    let attempted = report.ledger.attempted();
    let conserved = report.ledger.conserved() && attempted > 0;
    let correct = conserved && report.ledger.mismatches() == 0;

    let skipped_total: u64 = report.skipped.values().sum();
    println!(
        "{}",
        Value::Obj(vec![
            (
                "skipped_total".to_string(),
                Value::Num(skipped_total as f64)
            ),
            (
                "skipped_by_class".to_string(),
                Value::Obj(
                    report
                        .skipped
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v as f64)))
                        .collect()
                ),
            ),
        ])
    );
    const LISTED: usize = 50;
    let failures = report.ledger.failures();
    println!(
        "{}",
        Value::Obj(vec![
            (
                "failures_total".to_string(),
                Value::Num(failures.len() as f64)
            ),
            (
                "failures".to_string(),
                Value::Arr(
                    failures
                        .iter()
                        .take(LISTED)
                        .map(|f| Value::Obj(vec![
                            ("key".to_string(), Value::Str(f.key.clone())),
                            ("error".to_string(), Value::Str(f.error.clone())),
                            ("mismatch".to_string(), Value::Bool(f.mismatch)),
                        ]))
                        .collect()
                ),
            ),
        ])
    );
    // Share of the host's CPU time its hypervisor gave to others while
    // this run was measured: high values explain slow, noisy runs.
    let steal_pct = match (steal_before, host::steal_jiffies()) {
        (Some((s0, t0)), Some((s1, t1))) => 100.0 * ratio(s1 - s0, t1 - t0),
        _ => f64::NAN,
    };
    let mut prov: Vec<(String, Value)> = host::provenance()
        .into_iter()
        .map(|(k, v)| (k.to_string(), Value::Str(v)))
        .collect();
    prov.extend([
        ("workload".to_string(), Value::Str(ctx.workload.clone())),
        ("seed".to_string(), Value::Num(ctx.seed as f64)),
        ("seconds".to_string(), Value::Num(ctx.seconds)),
        ("trace".to_string(), Value::Bool(ctx.trace)),
        ("workers".to_string(), Value::Num(ctx.workers as f64)),
        ("host_steal_pct".to_string(), Value::Num(steal_pct)),
        (
            "host_pace_us_per_rep".to_string(),
            Value::Num(report.pace_us),
        ),
        (
            "reference_pace_us_per_rep".to_string(),
            Value::Num(pace::REFERENCE_US_PER_REP),
        ),
        (
            "samples".to_string(),
            Value::Obj(
                report
                    .samples
                    .iter()
                    .map(|(k, v)| (k.to_string(), Value::Num(*v as f64)))
                    .collect(),
            ),
        ),
        (
            "ok_plus_failed_is_attempted".to_string(),
            Value::Bool(conserved),
        ),
    ]);
    if ctx.trace {
        prov.push(("layers_reading_zero".to_string(), Value::Arr(off_path)));
        prov.push((
            "attribution".to_string(),
            Value::Arr(
                LAYERS
                    .iter()
                    .map(|(name, _, on, moves)| {
                        Value::Obj(vec![
                            ("metric".to_string(), Value::Str(name.to_string())),
                            ("measured_on".to_string(), Value::Str(on.to_string())),
                            ("should_move".to_string(), Value::Str(moves.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    println!(
        "{}",
        Value::Obj(vec![("provenance".to_string(), Value::Obj(prov))])
    );
    println!(
        "{}",
        Value::Obj(vec![
            ("correct".to_string(), Value::Bool(correct)),
            ("attempted".to_string(), Value::Num(attempted as f64)),
            (
                "failed".to_string(),
                Value::Num(report.ledger.failed() as f64)
            ),
            ("metrics".to_string(), Value::Obj(metrics)),
        ])
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A window whose host runs at half speed from 1.6 s on: its raw
    /// rates, CPU per operation and latencies differ by 2×, the scaled
    /// ones agree.
    #[test]
    fn pace_scaling_evens_out_a_slow_stretch() {
        let t0 = Instant::now();
        // Offset so the first operation starts after `t0`.
        let ms = |m: u64| t0 + Duration::from_millis(100 + m);
        let ticks: Vec<host::Tick> = (0..=30u32)
            .map(|k| host::Tick {
                at: ms(100 * u64::from(k)),
                cpu_s: 0.1 * f64::from(k),
            })
            .collect();
        let reference = pace::REFERENCE_US_PER_REP;
        let op = |end: u64, lat: u64, us_per_rep: f64| {
            Op::new(ms(end - lat), ms(end), 1.0).paced(
                pace::Step {
                    ms: 0.0,
                    us_per_rep,
                },
                true,
            )
        };
        let mut ops: Vec<Op> = (0..160).map(|i| op(5 + 10 * i, 10, reference)).collect();
        ops.extend((0..70).map(|i| op(1610 + 20 * i, 20, 2.0 * reference)));
        let w = Window {
            ops,
            ticks,
            peak_rss_mib: 1.0,
        };
        let seg = w.segments();
        assert_eq!(seg.rate.len(), SEGMENTS as usize);
        for r in &seg.rate {
            assert!((r - 100.0).abs() < 1e-6, "rate {r}");
        }
        for c in &seg.cpu {
            assert!((c - 10.0).abs() < 1e-6, "cpu {c}");
        }
        for l in w.scaled_latencies() {
            assert!((l - 10.0).abs() < 1e-6, "latency {l}");
        }
        assert_eq!(w.latencies().iter().filter(|&&l| l > 15.0).count(), 70);
    }
}
