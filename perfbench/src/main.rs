//! Host-performance benchmark for the NoC simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//! ```
//!
//! One run generates the named workload from `--seed`, then repeats
//! *episodes* (build, simulate, checkpoint, settle, check) until
//! `--seconds` have passed, with a warm-up episode first and at least
//! [`MIN_EPISODES`] measured ones after it. Every
//! episode is checked; a failed check prints `!!` and makes the exit code
//! nonzero. The last line of standard output is the result object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end list [`END_TO_END`]; with `--trace 1` the
//! run alternates untraced and traced episodes, adds the cross-policy
//! re-run and the dispatch microbenchmark, and reports [`PER_LAYER`].
//! See `perfbench/README.md` for the workloads and metric definitions.

mod deploy;
mod fleet;
mod gen;
mod trace;

use noc_exp::json::Json;
use noc_sim::par::{par_for_each_mut, ParPolicy, WorkerPool};
use std::time::{Duration, Instant};
use trace::{median, Open, Tracer};

/// The seed the golden fingerprints were recorded with.
pub const DEFAULT_SEED: u64 = 1;

/// Measured episodes per run (after the warm-up), whatever `--seconds`
/// says: the medians need a few samples, and the checkpoint handover
/// alternates between the uninterrupted and the restored deployment.
pub const MIN_EPISODES: usize = 3;

/// Worker lanes of every pooled policy: the load generator never asks for
/// more than two, and never for more than the machine has.
pub fn pool_lanes() -> usize {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    (WorkerPool::global().workers() + 1).min(cpus).min(2)
}

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_cycles_per_s", "cycles/s"),
    ("tenant_cycles_per_s", "tenant-cycles/s"),
    ("setup_s", "s"),
    ("snapshot_restore_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`. A layer the workload does not call
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ccn.map_s", "s"),
    ("ccn.routed_streams", "count"),
    ("ccn.spilled_streams", "count"),
    ("deployment.build_s", "s"),
    ("deployment.run_s", "s"),
    ("deployment.settle_s", "s"),
    ("deployment.settle_cycles", "cycles"),
    ("step.ns_per_router_cycle", "ns"),
    ("step.ns_per_word", "ns"),
    ("hybrid.circuit_words", "count"),
    ("hybrid.spilled_words", "count"),
    ("chiplet.cross_streams", "count"),
    ("chiplet.noi_links", "count"),
    ("chiplet.noi_wait_cycles", "cycles"),
    ("par.dispatch_us", "us"),
    ("par.speedup", "x"),
    ("power.report_s", "s"),
    ("controller.ticks", "count"),
    ("controller.promotions", "count"),
    ("controller.demotions", "count"),
    ("controller.readmissions", "count"),
    ("controller.lost", "count"),
    ("controller.pointless_eviction_ratio", "ratio"),
    ("fleet.admit_s", "s"),
    ("fleet.batch_ms_p50", "ms"),
    ("fleet.batch_ms_p90", "ms"),
    ("fleet.retire_s", "s"),
    ("fleet.snapshot_s", "s"),
    ("fleet.restore_s", "s"),
    ("trace.overhead_ratio", "x"),
];

/// What a workload hands back: its checks and its measurements.
#[derive(Default)]
pub struct Outcome {
    /// Checked units: each episode, plus the generator self-test.
    pub attempted: u64,
    /// Checked units that failed.
    pub failed: u64,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub per_layer: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Count one checked unit; print each of its problems.
    pub fn check(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                println!("!! {what}: {p}");
            }
        }
    }
}

/// How a run is driven, shared by every workload.
pub struct RunCtx {
    pub seed: u64,
    pub budget: Duration,
    pub traced: bool,
    pub tracer: Tracer,
    started: Instant,
    /// Host seconds of every episode, tagged traced or not.
    pub episode_walls: Vec<(bool, f64)>,
}

impl RunCtx {
    /// Whether another episode should run after `measured` of them (the
    /// warm-up not counted). A traced run needs two traced and two
    /// untraced episodes for the overhead ratio.
    pub fn more(&self, measured: usize) -> bool {
        let least = if self.traced { 4 } else { MIN_EPISODES };
        measured < least || self.started.elapsed() < self.budget
    }

    /// Start episode `index` and its enclosing `episode` span. Episode 0
    /// is the warm-up: checked like any other, left out of every metric.
    /// Traced runs alternate untraced (even) and traced (odd) episodes.
    pub fn begin_episode(&mut self, index: usize) -> Open {
        self.tracer.set_episode(index);
        self.tracer.set_enabled(self.traced && index % 2 == 1);
        self.tracer.begin("episode")
    }

    pub fn end_episode(&mut self, index: usize, open: Open) {
        let traced = self.tracer.enabled();
        let took = self.tracer.end(open);
        self.tracer.set_enabled(false);
        if index > 0 {
            self.episode_walls.push((traced, took.as_secs_f64()));
        }
    }

    /// Median traced episode time over median untraced episode time.
    pub fn overhead_ratio(&self) -> f64 {
        let pick = |traced: bool| -> Vec<f64> {
            self.episode_walls
                .iter()
                .filter(|(t, _)| *t == traced)
                .map(|&(_, s)| s)
                .collect()
        };
        median(&pick(true)) / median(&pick(false))
    }
}

/// Median host µs of an empty `par_for_each_mut` over two items under
/// `Threads(2)`: pure pool dispatch and join.
pub fn dispatch_us() -> f64 {
    let mut items = [0u8; 2];
    let policy = ParPolicy::Threads(2);
    let samples: Vec<f64> = (0..4000)
        .map(|_| {
            let t = Instant::now();
            par_for_each_mut(&mut items, policy, |_| {});
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Process high-water resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a over `text`: the fingerprint of a simulated outcome.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Compare an episode's fingerprint with the run's first one and, on the
/// default seed, with the recorded golden value.
pub fn fingerprint_problems(
    seed: u64,
    golden: u64,
    first: &mut Option<u64>,
    fp: u64,
    what: &str,
) -> Vec<String> {
    let mut problems = Vec::new();
    match *first {
        None => *first = Some(fp),
        Some(f) if f != fp => problems.push(format!(
            "{what} fingerprint {fp:016x} differs from the first episode's {f:016x}"
        )),
        Some(_) => {}
    }
    if seed == DEFAULT_SEED && fp != golden {
        problems.push(format!(
            "{what} fingerprint {fp:016x} is not the golden {golden:016x} for seed {DEFAULT_SEED}"
        ));
    }
    problems
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_dir: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let number = |flag: &str| -> Result<u64, String> {
        let v = value(flag).ok_or(format!("missing {flag}"))?;
        v.parse()
            .map_err(|_| format!("{flag} wants a whole number, got {v:?}"))
    };
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: value("--workload").ok_or("missing --workload")?.to_string(),
        seed: number("--seed")?,
        seconds,
        trace,
        trace_dir: value("--trace-dir").map(str::to_string),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Start the pool before anything is timed.
    let lanes = pool_lanes();
    println!(
        "{}",
        Json::obj().with(
            "fingerprint",
            Json::obj()
                .with(
                    "nproc",
                    std::thread::available_parallelism().map_or(1, |n| n.get())
                )
                .with("pool_lanes", lanes)
                .with(
                    "profile",
                    if cfg!(debug_assertions) {
                        "debug"
                    } else {
                        "release"
                    }
                )
                .with("rustc", env_or_unknown("PERFBENCH_RUSTC"))
                .with("git_rev", env_or_unknown("PERFBENCH_GIT_REV"))
                .with("workload", args.workload.as_str())
                .with("seed", args.seed)
        )
    );

    let mut ctx = RunCtx {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        traced: args.trace,
        tracer: Tracer::new(),
        started: Instant::now(),
        episode_walls: Vec::new(),
    };
    let mut outcome = match args.workload.as_str() {
        "flat16-hybrid-saturated" => deploy::run(&deploy::FLAT16, &mut ctx),
        "chiplet32-packet-pooled" => deploy::run(&deploy::CHIPLET32, &mut ctx),
        "fleet-churn" => fleet::run(&fleet::CHURN, &mut ctx),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    outcome.end_to_end.push(("peak_rss_mb", peak_rss_mb()));
    if args.trace {
        outcome.per_layer.push(("par.dispatch_us", dispatch_us()));
        outcome
            .per_layer
            .push(("trace.overhead_ratio", ctx.overhead_ratio()));
        if let Some(dir) = &args.trace_dir {
            write_trace(dir, &args, &ctx.tracer);
        }
    }

    let (declared, measured) = if args.trace {
        (PER_LAYER, &outcome.per_layer)
    } else {
        (END_TO_END, &outcome.end_to_end)
    };
    let mut metrics = Json::obj();
    for &(name, unit) in declared {
        let value = measured
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v);
        metrics.push(name, Json::obj().with("value", value).with("unit", unit));
    }
    for (name, _) in measured {
        assert!(
            declared.iter().any(|(d, _)| d == name),
            "metric {name} is not declared"
        );
    }
    let correct = outcome.failed == 0;
    println!(
        "{}",
        Json::obj()
            .with("correct", correct)
            .with("attempted", outcome.attempted)
            .with("failed", outcome.failed)
            .with("metrics", metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

fn env_or_unknown(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| "unknown".into())
}

/// Write the traced run's spans to `<dir>/<workload>-seed<n>.json`.
fn write_trace(dir: &str, args: &Args, tracer: &Tracer) {
    let path = std::path::Path::new(dir).join(format!("{}-seed{}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json().pretty()));
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("could not write spans to {}: {e}", path.display()),
    }
}
