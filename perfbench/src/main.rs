//! `twx-perfbench` — the repository's seeded benchmark.
//!
//! ```text
//! twx-perfbench --workload serve-hot|serve-live|eval-deep --seed N \
//!               --seconds S --trace 0|1 [--tiny]
//! ```
//!
//! A run builds its inputs from `--seed`, sets the system up (several
//! times when untraced, reporting the median), drives a closed loop for
//! `--seconds`, checks every answer, and prints one JSON object as the
//! last line of stdout:
//!
//! ```text
//! {"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of [`END_TO_END`];
//! `--trace 1` spends the first third of the window untraced and the rest
//! traced, and reports the per-layer metrics of [`PER_LAYER`], including
//! the tracing overhead. The line before the result carries the host tags
//! and sample counts. `--tiny` shrinks every input for the smoke test.
//! See `README.md` for the workloads and the layer → metric map.

mod deep;
mod hot;
mod layers;
mod live;
mod stack;
mod util;

use stack::Tally;
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;
use twx_obs::json::Json;

/// End-to-end metrics, printed by `--trace 0`: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("update_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by `--trace 1`: `(name, unit)`. A layer
/// that a workload does not touch reports 0.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("netio.overhead_p50_us", "us"),
    ("netio.backpressure_stalls", "count"),
    ("proto.self_p50_us", "us"),
    ("service.queue_wait_p50_us", "us"),
    ("service.queue_wait_p99_us", "us"),
    ("service.merge_p50_us", "us"),
    ("service.rejected", "count"),
    ("engine.parse_p50_us", "us"),
    ("engine.simplify_p50_us", "us"),
    ("engine.simplify_p99_us", "us"),
    ("engine.prepare_p50_us", "us"),
    ("engine.plan_cache_hit_ratio", "ratio"),
    ("result_cache.hit_ratio", "ratio"),
    ("result_cache.lookup_p50_us", "us"),
    ("result_cache.evictions", "count"),
    ("result_cache.invalidated_per_update", "entries/update"),
    ("eval.self_p50_us", "us"),
    ("eval.steps_per_op", "count/op"),
    ("eval.vm_closure_iters_per_op", "count/op"),
    ("eval.product_configs_per_op", "count/op"),
    ("corpus.commit_p50_us", "us"),
    ("store.journal_bytes_per_update", "B/update"),
    ("store.persists", "count"),
    ("store.snapshot_bytes_per_node", "B/node"),
    ("failed_frac", "ratio"),
    ("trace.throughput_ops_s", "ops/s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
}

impl Args {
    /// The measured window(s): one untraced window, or an untraced third
    /// followed by a traced two thirds.
    pub fn windows(&self) -> (Duration, Option<Duration>) {
        let total = Duration::from_secs_f64(self.seconds);
        if self.trace {
            (total / 3, Some(total - total / 3))
        } else {
            (total, None)
        }
    }

    /// How many times set-up runs; `setup_s` is their median. Traced
    /// runs do not report `setup_s` and set up once.
    pub fn setups(&self, untraced: usize) -> usize {
        if self.trace {
            1
        } else {
            untraced
        }
    }
}

/// What a workload hands back: op tallies, every metric of the run's
/// mode, and the extra fields for the info line.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: HashMap<&'static str, f64>,
    pub info: Vec<(&'static str, Json)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn info(&mut self, key: &'static str, value: impl Into<Json>) {
        self.info.push((key, value.into()));
    }

    /// Counts checked ops: `failed` of `ops` went wrong.
    pub fn count(&mut self, ops: u64, failed: u64) {
        self.attempted += ops;
        self.failed += failed;
    }

    /// The end-to-end metrics of an untraced window (all but
    /// `peak_rss_mb`, which is read last).
    pub fn end_to_end(&mut self, setup_s: &[f64], window: &Tally) {
        let rates: Vec<f64> = window
            .slices
            .iter()
            .map(|(ops, wall)| *ops as f64 / wall.as_secs_f64())
            .collect();
        self.set("setup_s", util::median(setup_s));
        self.set("throughput_ops_s", util::median(&rates));
        self.set("latency_p50_us", util::pct_us(&window.latency, 0.5));
        self.set("latency_p99_us", util::pct_us(&window.latency, 0.99));
        self.set("update_p50_us", util::pct_us(&window.updates, 0.5));
        let each: Vec<Json> = setup_s.iter().map(|&s| Json::from(s)).collect();
        self.info("setup_s_each", each);
        self.info("ops", window.ops);
        let rates: Vec<Json> = rates.iter().map(|r| Json::from(r.round())).collect();
        self.info("slice_rates_ops_s", rates);
        self.info("latency_samples", window.latency.len());
        self.info("update_samples", window.updates.len());
    }

    /// Throughput of the traced window, and the untraced one before it
    /// over it: the tracing overhead.
    pub fn tracing_overhead(&mut self, untraced: &Tally, traced: &Tally) {
        self.set("trace.throughput_ops_s", traced.rate());
        self.set(
            "trace.overhead_ratio",
            util::ratio(untraced.rate(), traced.rate()),
        );
    }
}

fn usage() -> String {
    "usage: twx-perfbench --workload serve-hot|serve-live|eval-deep --seed N \
     --seconds S --trace 0|1 [--tiny]"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(usage)?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| usage())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| usage())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage()),
                })
            }
            _ => return Err(usage()),
        }
    }
    let seconds = seconds.ok_or_else(usage)?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    Ok(Args {
        workload: workload.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds,
        trace: trace.ok_or_else(usage)?,
        tiny,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("twx-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = match util::TempDir::new("run") {
        Ok(d) => d,
        Err(e) => {
            eprintln!("twx-perfbench: scratch dir: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "serve-hot" => hot::run(&args),
        "serve-live" => live::run(&args, &scratch),
        "eval-deep" => deep::run(&args),
        other => Err(format!("unknown workload '{other}'\n{}", usage())),
    };
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("twx-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let failed_frac = util::ratio(report.failed as f64, report.attempted as f64);
    if args.trace {
        report.set("failed_frac", failed_frac);
    } else {
        report.set("peak_rss_mb", util::peak_rss_mb());
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Json::obj();
    for (name, unit) in table {
        let Some(&value) = report.metrics.get(name) else {
            eprintln!("twx-perfbench: {} did not produce {name}", args.workload);
            return ExitCode::from(1);
        };
        if !value.is_finite() {
            eprintln!("twx-perfbench: {name} is not a finite number");
            return ExitCode::from(1);
        }
        metrics = metrics.field(name, Json::obj().field("value", value).field("unit", *unit));
    }
    let mut info = Json::obj().field("failed_frac", failed_frac);
    for (key, value) in report.info {
        info = info.field(key, value);
    }
    let tags = util::host_tags(&args, scratch.path());
    println!(
        "{}",
        Json::obj().field("tags", tags).field("info", info).render()
    );
    let attempted = report.attempted.max(1);
    println!(
        "{}",
        Json::obj()
            .field("correct", report.failed == 0 && report.attempted > 0)
            .field("attempted", attempted)
            .field("failed", report.failed)
            .field("metrics", metrics)
            .render()
    );
    ExitCode::SUCCESS
}
