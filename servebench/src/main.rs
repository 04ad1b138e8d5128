//! The serving benchmark: the paper's trained networks served through the
//! real front door (`dp_net` over loopback TCP → `dp_gateway` → `dp_serve`
//! → `deep_positron` → `dp_emac`), driven by one of three seeded
//! workloads, with every answer checked bit for bit.
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace
//! 1` runs the same workload in slices against untraced and traced stacks,
//! built fresh in pairs, joins the client's spans to the recorders'
//! timelines by wire id, and replays the workload's inputs through each
//! layer's public functions for the per-layer metrics. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (each `{"value", "unit"}`).

mod layers;
mod load;
mod models;
mod stack;
mod stats;

use dp_gateway::TraceConfig;
use load::{Ctx, Outcome, Record, Workload};
use models::{references, Served};
use stack::Stack;
use stats::{interquartile_mean, median, micros, quantile};
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: servebench --workload <iris_single_closed|mushroom_batch_closed|mixed_hol_open> \
                     --seed <n> --seconds <s> --trace <0|1>";
/// First argument of the child processes that time a cold set-up.
const SETUP_PROBE: &str = "--setup-probe";
/// Fresh processes whose set-up time is measured after each part of the
/// window. Spread over the whole run, the probes sample the host's slow
/// and fast spells alike. A cold set-up on a shared host is bimodal (on a
/// 2-CPU VM, 40 probes in a row read about 1.0 or 1.5 ms, in spells of
/// seconds), so the run reports the probes' interquartile mean, not their
/// median, which would jump between the two modes.
const SETUP_PROBES_PER_PART: usize = 2;
/// Samples per tile when the reference answers are cross-checked on the
/// tile datapath: the serving engine's default chunk size.
const CHUNK_SAMPLES: usize = 64;
/// Parts of the measured window, each served by a fresh stack.
const SUB_WINDOWS: u64 = 15;
/// Load before each measured part, so lazy set-up and caches settle.
const WARMUP: Duration = Duration::from_millis(200);

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| bad("unknown workload"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("not an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("must be in (0, 600]"));
                    }
                    seconds = Some(Duration::from_secs_f64(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("must be 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            window: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one run prints.
pub struct Report {
    /// Machine and effective settings, recorded with the result.
    pub config: Vec<(&'static str, String)>,
    pub attempted: usize,
    pub failed: usize,
    /// Reasons the run's answers or trace cannot be trusted; the run
    /// fails if any.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Report {
    fn print(&self) -> ExitCode {
        for m in &self.metrics {
            println!("{:<34} {:>14.3} {}", m.name, m.value, m.unit);
        }
        println!(
            "failed_frac {} ({} of {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for e in &self.errors {
            println!("error: {e}");
        }
        let config: Vec<String> = self
            .config
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        println!("{{\"config\": {{{}}}}}", config.join(", "));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity; a value that is not finite
                // is a harness bug, reported as a failed run below.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_str(m.unit)
                )
            })
            .collect();
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let correct = self.errors.is_empty() && finite && self.attempted > 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Request counts, latencies and throughput of a run. It keeps a few
/// numbers per request, not the requests, so the harness's memory does
/// not depend on the request rate and `peak_rss_mb` measures the stack.
#[derive(Default)]
pub struct Summary {
    pub attempted: usize,
    /// Non-`Ok` statuses plus requests that got no answer.
    pub failed: usize,
    pub refused: usize,
    pub mismatched: usize,
    /// Latencies (µs) of the correct answers, per request size in samples.
    latencies: Vec<(usize, Vec<f64>)>,
    reserve: usize,
    correct_samples: usize,
    first_start: Option<Instant>,
    last_done: Option<Instant>,
}

impl Record for Summary {
    fn with_capacity(requests: usize) -> Self {
        Summary {
            reserve: requests,
            ..Summary::default()
        }
    }

    fn record(&mut self, o: Outcome) {
        self.attempted += 1;
        self.first_start = self.first_start.into_iter().chain([o.start]).min();
        self.last_done = self.last_done.max(o.done);
        let at = match self
            .latencies
            .iter()
            .position(|(n, _)| *n == o.spec.samples)
        {
            Some(at) => at,
            None => {
                let room = Vec::with_capacity(self.reserve);
                self.latencies.push((o.spec.samples, room));
                self.latencies.len() - 1
            }
        };
        match (o.verdict, o.latency()) {
            (Some(load::Verdict::Correct), Some(latency)) => {
                self.correct_samples += o.spec.samples;
                self.latencies[at].1.push(micros(latency));
            }
            (Some(load::Verdict::Mismatch), _) => self.mismatched += 1,
            (Some(load::Verdict::Refused(_)), _) => {
                self.refused += 1;
                self.failed += 1;
            }
            _ => self.failed += 1,
        }
    }

    fn merge(&mut self, other: Self) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.refused += other.refused;
        self.mismatched += other.mismatched;
        self.correct_samples += other.correct_samples;
        self.first_start = self.first_start.into_iter().chain(other.first_start).min();
        self.last_done = self.last_done.max(other.last_done);
        for (samples, mut latencies) in other.latencies {
            match self.latencies.iter_mut().find(|(n, _)| *n == samples) {
                Some((_, mine)) => mine.append(&mut latencies),
                None => self.latencies.push((samples, latencies)),
            }
        }
    }
}

impl Summary {
    pub fn of(outcomes: &[Outcome]) -> Summary {
        let mut summary = Summary::with_capacity(outcomes.len());
        for o in outcomes {
            summary.record(o.clone());
        }
        summary
    }

    /// Latencies (µs) of the workload's largest requests.
    pub fn bulk_us(&self) -> &[f64] {
        self.latencies
            .iter()
            .max_by_key(|(n, _)| *n)
            .map_or(&[], |(_, l)| l)
    }

    /// Latencies (µs) of the workload's smallest requests.
    pub fn short_us(&self) -> &[f64] {
        self.latencies
            .iter()
            .min_by_key(|(n, _)| *n)
            .map_or(&[], |(_, l)| l)
    }

    /// Correctly answered samples per second, from the first send to the
    /// last answer.
    pub fn throughput_sps(&self) -> f64 {
        match (self.first_start, self.last_done) {
            (Some(a), Some(b)) if b > a => self.correct_samples as f64 / (b - a).as_secs_f64(),
            _ => 0.0,
        }
    }

    /// The error a run reports for `mismatched` wrong answers, if any.
    pub fn mismatch_error(mismatched: usize) -> Option<String> {
        (mismatched > 0).then(|| {
            format!("{mismatched} responses, warm-ups included, differ from the reference answers")
        })
    }
}

/// Times `probes` cold set-ups in fresh processes of this same binary.
fn setup_seconds(seed: u64, probes: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    (0..probes)
        .map(|_| {
            let out = Command::new(&exe)
                .args([SETUP_PROBE, &seed.to_string()])
                .output()
                .map_err(|e| format!("running a set-up probe: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            match stdout.lines().last().map(str::parse::<f64>) {
                Some(Ok(s)) if out.status.success() => Ok(s),
                _ => Err(format!(
                    "set-up probe failed ({}): {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr).trim()
                )),
            }
        })
        .collect()
}

/// The child side of [`setup_seconds`]: gateway build, registration of
/// every served variant (table builds included), listener bind, and one
/// request, timed up to its correct answer. The request goes to the
/// gateway in process: the listener's accept thread polls every 5 ms, so
/// a first answer over TCP would time that poll, not the set-up. The
/// answer is checked once the clock has stopped, so the reference
/// computation cannot warm anything the set-up pays for.
fn setup_probe(argv: &[String]) -> ExitCode {
    let Some(seed) = argv.first().and_then(|s| s.parse::<u64>().ok()) else {
        eprintln!("{SETUP_PROBE} needs a seed");
        return ExitCode::from(2);
    };
    let served = Served::train(seed);
    let variant = &served.iris.variants[0];
    let x = served.iris.inputs[0].clone();
    let t = Instant::now();
    let stack = Stack::up(&served, TraceConfig::off());
    let key = dp_serve::ModelKey::new(served.iris.name, variant.format.clone());
    let answer = stack
        .gateway
        .try_submit_classify(&key, vec![x.clone()])
        .handle()
        .map(|h| h.wait());
    let setup = t.elapsed();
    stack.down();
    let expected = variant.model.infer(&x);
    match answer {
        Some(Ok(classes)) if classes == [expected] => {
            println!("{}", setup.as_secs_f64());
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("set-up probe got a wrong first answer: {other:?}");
            ExitCode::FAILURE
        }
    }
}

/// Machine and build facts recorded with every result.
fn machine(args: &Args) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.window.as_secs_f64().to_string()),
        ("trace", args.trace.to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("cpu", cpu),
        ("rustc", env!("SERVEBENCH_RUSTC").to_string()),
        ("git_sha", git_sha()),
        (
            "load",
            format!(
                "closed_loop_depth={} mixed_hol_open.bulk_depth={} \
                 mixed_hol_open.short_rate_rps={} batch_samples={}",
                load::closed_depth(),
                load::mixed_bulk_depth(),
                load::MIXED_SHORT_RATE,
                load::BATCH_SAMPLES
            ),
        ),
    ]
}

/// The checked-out commit; `unknown` outside a git checkout.
fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The end-to-end run: the workload for the measured window with tracing
/// off, and cold set-ups in fresh processes. The window is served in
/// [`SUB_WINDOWS`] consecutive parts, each by a freshly built stack after
/// its own warm-up: request latency on a small machine depends on where
/// the scheduler places the stack's threads, so one run samples several
/// placements and reports the median over them. The set-up probes run
/// between the parts.
fn measured(args: &Args, ctx: &Ctx) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut config = machine(args);
    // Per part: latency p50, p90, short p50, short p90, throughput. Only
    // these numbers outlive a part, so memory does not grow with the run.
    let mut parts: Vec<[f64; 5]> = Vec::new();
    let (mut attempted, mut failed, mut mismatched) = (0, 0, 0);
    for k in 0..SUB_WINDOWS {
        let stack = Stack::up(ctx.served, TraceConfig::off());
        let drive = |phase, window| {
            args.workload
                .drive::<Summary>(stack.server.local_addr(), ctx, args.seed, phase, window)
                .map_err(|e| format!("driving {}: {e}", args.workload.name()))
        };
        mismatched += drive(2 * k, WARMUP)?.mismatched;
        let s = drive(2 * k + 1, args.window / SUB_WINDOWS as u32)?;
        if k == 0 {
            config.push(("stack", stack.describe()));
        }
        stack.down();
        setups.extend(setup_seconds(args.seed, SETUP_PROBES_PER_PART)?);
        attempted += s.attempted;
        failed += s.failed;
        mismatched += s.mismatched;
        parts.push([
            quantile(s.bulk_us(), 0.5),
            quantile(s.bulk_us(), 0.9),
            quantile(s.short_us(), 0.5),
            quantile(s.short_us(), 0.9),
            s.throughput_sps(),
        ]);
    }
    let median_of = |i: usize| median(&parts.iter().map(|p| p[i]).collect::<Vec<_>>());
    let metrics = vec![
        metric("setup_s", interquartile_mean(&setups), "s"),
        metric("latency_p50_us", median_of(0), "us"),
        metric("latency_p90_us", median_of(1), "us"),
        metric("short_latency_p50_us", median_of(2), "us"),
        metric("short_latency_p90_us", median_of(3), "us"),
        metric("throughput_sps", median_of(4), "samples/s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    Ok(Report {
        config,
        attempted,
        failed,
        errors: Summary::mismatch_error(mismatched).into_iter().collect(),
        metrics,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(SETUP_PROBE) {
        return setup_probe(&argv[1..]);
    }
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let served = Served::train(args.seed);
    let refs = match references(&served, CHUNK_SAMPLES) {
        Ok(refs) => refs,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ctx = Ctx {
        served: &served,
        refs: &refs,
    };
    let report = if args.trace {
        layers::traced(&args, &ctx)
    } else {
        measured(&args, &ctx)
    };
    match report {
        Ok(report) => report.print(),
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
