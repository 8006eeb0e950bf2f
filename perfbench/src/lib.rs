//! Seeded closed-loop benchmark of the QBISM query system.
//!
//! One run installs a seeded system for one workload, checks every
//! distinct input of the workload's pool against an independent
//! reference, then either drives the server with closed-loop clients
//! and reports end-to-end metrics, or (traced) replays a sample of calls
//! layer by layer and reports per-layer metrics.  It calls only public
//! APIs of the workspace crates.

pub mod drive;
pub mod loader;
pub mod oracle;
pub mod query;
pub mod replay;
pub mod workload;

use drive::{closed_loop, median, recorder_blocks};
use qbism::{QbismSystem, Result};
use query::Class;
use std::time::Instant;
use workload::{Pool, Spec, Workload};

/// Derives an independent 64-bit stream seed (splitmix64 finalizer).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An installed, reference-checked workload ready to drive.
pub struct Setup {
    pub sys: QbismSystem,
    pub pool: Pool,
    /// Median install seconds.
    pub setup_s: f64,
    /// LFM space after install: allocated pages × page size, in MiB.
    pub device_mb: f64,
    /// Peak resident set through install and the reference pass, MiB.
    pub peak_rss_mb: f64,
    /// Seed of the stream the deterministic per-call counts average.
    stream_seed: u64,
    /// Reference-pass inputs that errored or disagreed.
    pub failures: Vec<String>,
    /// Reference-pass calls made.
    pub checked: u64,
}

impl Setup {
    /// Installs `spec.installs` times (keeping the last), builds the
    /// reference-checked pool, then sets the fan-out width.
    pub fn new(spec: &Spec, seed: u64) -> Result<Setup> {
        let mut installs = Vec::new();
        let mut sys = None;
        for _ in 0..spec.installs.max(1) {
            drop(sys.take());
            let t = Instant::now();
            sys = Some(QbismSystem::install(&spec.config)?);
            installs.push(t.elapsed().as_secs_f64());
        }
        let mut sys = sys.expect("installed at least once");
        let lfm = sys.server.database().lfm_ref();
        let device_mb = (lfm.allocated_pages() * lfm.page_size() as u64) as f64 / (1 << 20) as f64;
        let truth = oracle::Truth::load(&sys)?;
        let (pool, failures) = Pool::build(spec, &sys, &truth)?;
        // Read before any fan-out: with worker threads the allocator's
        // per-thread arenas make the high-water mark vary from run to run.
        let peak_rss_mb = peak_rss_mb();
        sys.server.set_threads(spec.threads);
        let checked = (pool.len() + failures.len()) as u64;
        Ok(Setup {
            sys,
            pool,
            setup_s: median(&installs),
            device_mb,
            peak_rss_mb,
            failures,
            checked,
            stream_seed: mix(seed, 6),
        })
    }

    /// Mean LFM pages read per call of the seed's stream.
    pub fn pages_per_query(&self) -> f64 {
        self.pool.stream_mean(self.stream_seed, |i| i.pages)
    }

    /// Mean answer bytes shipped per call of the seed's stream.
    pub fn wire_bytes_per_query(&self) -> f64 {
        self.pool.stream_mean(self.stream_seed, |i| i.wire_bytes)
    }
}

/// One named metric.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// A run's result line.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The one-line JSON object the run prints last.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn metric(metrics: &mut Vec<Metric>, name: impl Into<String>, unit: &'static str, value: f64) {
    metrics.push(Metric { name: name.into(), unit, value });
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Seconds per timed block of an untraced run: every workload makes
/// well over a thousand calls in one, so a block's p99 has more than ten
/// calls beyond it.
const BLOCK_SECONDS: f64 = 4.0;

/// The untraced run: the closed loop for `seconds`, in equal blocks of
/// about [`BLOCK_SECONDS`].  Throughput is correct calls over the whole
/// timed phase; each latency quantile is the mean of the blocks'
/// quantiles.  The host slows the program for stretches of seconds to
/// minutes, and both values move in proportion to the share of the run
/// it spent slow, whereas a quantile over all of a run's calls (the p99
/// above all) jumps to the slow stretches' value once they fill a
/// sliver of the run.
pub fn end_to_end(spec: &Spec, setup: &Setup, seed: u64, seconds: f64) -> Report {
    let server = &setup.sys.server;
    let count = ((seconds / BLOCK_SECONDS).round() as u64).max(1);
    let blocks: Vec<_> = (0..count)
        .map(|b| {
            let block_seed = mix(seed, 10 + b);
            closed_loop(server, &setup.pool, spec.clients, block_seed, seconds / count as f64)
        })
        .collect();
    let mean_over_blocks =
        |f: &dyn Fn(&drive::LoopStats) -> f64| blocks.iter().map(f).sum::<f64>() / count as f64;
    let qps: Vec<String> = blocks.iter().map(|b| format!("{:.0}", b.qps())).collect();
    eprintln!("  block throughput (1/s): {}", qps.join(" "));
    let all = drive::LoopStats {
        samples: blocks.iter().flat_map(|b| b.samples.iter().copied()).collect(),
        wall: blocks.iter().map(|b| b.wall).sum(),
    };
    for (i, (class, _)) in setup.pool.classes.iter().enumerate() {
        eprintln!(
            "  {:20} p50 {:8.3} ms  p99 {:8.3} ms",
            class.name(),
            all.quantile_ms(0.5, Some(i)),
            all.quantile_ms(0.99, Some(i))
        );
    }
    let calls = all.attempted();
    let attempted = calls + setup.checked;
    let failed = all.failed() + setup.failures.len() as u64;
    let mut m = Vec::new();
    metric(&mut m, "setup_s", "s", setup.setup_s);
    metric(&mut m, "throughput_qps", "1/s", all.qps());
    metric(&mut m, "latency_p50_ms", "ms", mean_over_blocks(&|b| b.quantile_ms(0.5, None)));
    metric(&mut m, "latency_p99_ms", "ms", mean_over_blocks(&|b| b.quantile_ms(0.99, None)));
    metric(&mut m, "latency_samples", "count", calls as f64);
    metric(&mut m, "correct_frac", "ratio", 1.0 - failed as f64 / attempted as f64);
    metric(&mut m, "peak_rss_mb", "MiB", setup.peak_rss_mb);
    metric(&mut m, "device_mb", "MiB", setup.device_mb);
    metric(&mut m, "lfm_pages_per_query", "pages", setup.pages_per_query());
    metric(&mut m, "wire_bytes_per_query", "bytes", setup.wire_bytes_per_query());
    Report { correct: failed == 0, attempted, failed, metrics: m }
}

/// Relative throughput lost with the recorder on: `(off - on) / off`
/// over the medians of alternating blocks.
fn recorder_overhead(setup: &Setup, clients: usize, seed: u64, seconds: f64) -> f64 {
    let (on, off) = recorder_blocks(&setup.sys.server, &setup.pool, clients, seed, seconds);
    ratio(median(&off) - median(&on), median(&off))
}

/// The traced run: an untraced closed loop (per-class latency), the
/// recorder's on/off cost, the layer-by-layer replay of a seeded
/// sample, and the loader stages.  Reports per-layer metrics.
pub fn traced(spec: &Spec, setup: &mut Setup, seed: u64, seconds: f64) -> Result<Report> {
    let untraced =
        closed_loop(&setup.sys.server, &setup.pool, spec.clients, mix(seed, 2), 0.3 * seconds);
    let (overhead, overhead_1) = if spec.clients > 1 {
        (
            recorder_overhead(setup, spec.clients, mix(seed, 4), 0.15 * seconds),
            recorder_overhead(setup, 1, mix(seed, 5), 0.15 * seconds),
        )
    } else {
        let o = recorder_overhead(setup, 1, mix(seed, 4), 0.3 * seconds);
        (o, o)
    };
    let t = replay::traced_pass(&mut setup.sys, &setup.pool, seed, 0.4 * seconds)?;
    let stages = loader::replay_loader(&spec.config)?;

    let mut m = Vec::new();
    let n = t.calls as f64;
    let l = &t.layers;
    let us = |secs: f64| secs / n * 1e6;
    metric(&mut m, "starburst.parse_us", "us", us(l.parse));
    metric(&mut m, "starburst.join_us", "us", us(l.join));
    metric(&mut m, "starburst.rows_scanned_per_query", "count", l.rows_scanned as f64 / n);
    metric(&mut m, "starburst.statements_per_query", "count", l.statements as f64 / n);
    metric(&mut m, "lfm.region_read_us", "us", us(l.region_read));
    metric(&mut m, "lfm.gather_us", "us", us(l.gather));
    metric(&mut m, "lfm.extents_per_query", "count", l.extents as f64 / n);
    metric(&mut m, "lfm.bytes_staged_per_query", "bytes", l.bytes_staged as f64 / n);
    metric(&mut m, "region.decode_us", "us", us(l.decode));
    metric(&mut m, "region.merge_us", "us", us(l.merge));
    metric(&mut m, "region.encode_us", "us", us(l.encode));
    metric(&mut m, "region.runs_in_per_query", "count", l.runs_in as f64 / n);
    metric(&mut m, "region.runs_out_per_query", "count", l.runs_out as f64 / n);
    metric(
        &mut m,
        "region.cursor_skips_per_run",
        "ratio",
        ratio(l.cursor_skips as f64, l.cursor_runs as f64),
    );
    metric(&mut m, "wire.encode_us", "us", us(l.wire_encode));
    metric(&mut m, "wire.decode_us", "us", us(l.wire_decode));
    metric(&mut m, "netsim.ship_us", "us", us(l.ship));
    metric(&mut m, "netsim.messages_per_query", "count", l.messages as f64 / n);
    metric(&mut m, "parallel.stage_us", "us", ratio(t.stage, t.stages as f64) * 1e6);
    metric(&mut m, "parallel.fanout_efficiency", "ratio", ratio(t.stage, t.stage_capacity));
    metric(&mut m, "obs.spans_per_query", "count", t.spans as f64 / n);
    metric(&mut m, "obs.events_per_query", "count", t.events as f64 / n);
    metric(&mut m, "obs.recorder_overhead_frac", "ratio", overhead);
    metric(&mut m, "obs.recorder_overhead_frac_1client", "ratio", overhead_1);
    for (name, secs) in [
        ("atlas", stages.atlas),
        ("acquire", stages.acquire),
        ("register", stages.register),
        ("warp", stages.warp),
        ("band", stages.band),
        ("encode", stages.encode),
        ("write", stages.write),
    ] {
        metric(&mut m, format!("loader.{name}_s"), "s", secs);
    }
    for class in Class::ALL {
        let idx = setup.pool.classes.iter().position(|(c, _)| *c == class);
        let p50 = idx.map_or(0.0, |i| untraced.quantile_ms(0.5, Some(i)));
        metric(&mut m, format!("core.{}_p50_ms", class.name()), "ms", p50);
    }
    metric(&mut m, "core.residual_us", "us", us(t.server - l.claimed()));
    let traced_qps = n / t.wall;
    metric(&mut m, "trace.overhead_qps", "1/s", untraced.qps() - traced_qps);
    metric(
        &mut m,
        "trace.overhead_frac",
        "ratio",
        ratio(untraced.qps() - traced_qps, untraced.qps()),
    );

    let attempted = untraced.attempted() + t.calls + setup.checked;
    let failed = untraced.failed() + t.mismatches + setup.failures.len() as u64;
    Ok(Report { correct: failed == 0, attempted, failed, metrics: m })
}

/// Runs one workload end to end (`trace` false) or traced.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Report> {
    let spec = workload.spec(false);
    let mut setup = Setup::new(&spec, seed)?;
    for f in &setup.failures {
        eprintln!("reference check failed: {f}");
    }
    eprintln!(
        "{}: setup {:.2}s, {} pool inputs checked, {} failed",
        workload.name(),
        setup.setup_s,
        setup.checked,
        setup.failures.len()
    );
    if trace {
        traced(&spec, &mut setup, seed, seconds)
    } else {
        Ok(end_to_end(&spec, &setup, seed, seconds))
    }
}
