//! `wallbench`: wall-clock benchmark of real PipeTune tuning runs.
//!
//! ```text
//! wallbench --workload <tune_lenet|tune_lstm|service_chaos>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! An untraced run (`--trace 0`) sets up and runs the workload's measured
//! operation several times, checks every result against its digest, and
//! prints the end-to-end metrics. A traced run (`--trace 1`) reruns the
//! job with telemetry and the monitor on, reruns it at two workers, replays
//! the layers, and prints the per-layer metrics. Both end with one JSON
//! line. See `README.md` in this directory.

mod alloc;
mod jobs;
mod layers;
mod replay;
mod traced;
mod util;

use std::process::ExitCode;
use std::time::Instant;

use jobs::{Instr, Workload, WORKERS};
use util::{median, peak_rss_mb, process_cpu_secs, timed};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: wallbench --workload <tune_lenet|tune_lstm|service_chaos> [--seed N] [--seconds S] [--trace 0|1]";

/// Expected digests of untraced operations, keyed by workload and job
/// seed, recorded for the operations of runs seeded 41 and 42.
const DIGESTS: &str = include_str!("../digests.txt");

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 41u64;
    let mut seconds = 25.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("not a seed"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("not a duration"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The expected digest of `workload`'s operation with `job_seed`, when
/// [`DIGESTS`] records one.
pub fn expected_digest(workload: Workload, job_seed: u64) -> Option<u64> {
    DIGESTS
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .find_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            let seed: u64 = f[1].parse().expect("digest table: job seed");
            (f[0] == workload.name() && seed == job_seed).then(|| {
                u64::from_str_radix(f[2].trim_start_matches("0x"), 16)
                    .expect("digest table: hex digest")
            })
        })
}

/// One metric of the final JSON line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run prints last.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Prints every metric with its unit, then the JSON line.
    fn print(&self) {
        for m in &self.metrics {
            println!("  {:<32} {:>14.6} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN/inf; such a value means the layer produced
                // no sample, which the lines above already show.
                let v = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".into()
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Operations an untraced run makes: as many as fit in `seconds` on the
/// reference box, and at least two.
fn planned_ops(workload: Workload, seconds: f64) -> usize {
    ((seconds / workload.nominal_op_secs()).round() as usize).max(2)
}

/// Instrumentation of the measured operation: `service_chaos` runs with
/// telemetry and the monitor on; the `tune_*` workloads with both off.
pub fn measured_instr(workload: Workload) -> Instr {
    match workload {
        Workload::ServiceChaos => Instr::On,
        _ => Instr::Off,
    }
}

/// Checks one operation's result: well formed, traces valid, and equal to
/// the expected digest when one is known. Returns the problems found.
pub fn check_op(op: &jobs::OpResult, expected: Option<u64>) -> Vec<String> {
    let mut problems = op.problems.clone();
    for trace in &op.traces {
        if let Err(e) = trace.validate() {
            problems.push(format!("invalid trace: {e}"));
        }
    }
    if let Some(want) = expected.filter(|&want| want != op.digest) {
        problems.push(format!("digest {:#018x}, expected {want:#018x}", op.digest));
    }
    problems
}

fn untraced(args: &Args, start: Instant) -> Result<Outcome, String> {
    let ops = planned_ops(args.workload, args.seconds);
    println!("untraced run: {ops} operations");
    let mut setups = Vec::new();
    let mut tune = Vec::new();
    let mut cpus = Vec::new();
    let mut rates = Vec::new();
    let mut out = Outcome::default();
    for index in 0..ops {
        let job_seed = jobs::job_seed(args.seed, index);
        let (prepared, setup) = timed(|| {
            jobs::setup(
                args.workload,
                job_seed,
                measured_instr(args.workload),
                WORKERS,
            )
        });
        // The first set-up also covers process start-up.
        setups.push(if index == 0 {
            start.elapsed().as_secs_f64()
        } else {
            setup
        });
        let cpu_before = process_cpu_secs();
        let (result, secs) = timed(|| jobs::run(prepared));
        let cpu = process_cpu_secs() - cpu_before;
        out.attempted += 1;
        let problems = match &result {
            Ok(op) => {
                tune.push(secs);
                cpus.push(cpu);
                rates.push(op.epochs as f64 / secs);
                println!(
                    "op {index}: seed {job_seed} digest {:#018x} epochs {} {secs:.3} s, {cpu:.2} cpu-s",
                    op.digest, op.epochs
                );
                check_op(op, expected_digest(args.workload, job_seed))
            }
            Err(e) => vec![format!("operation failed: {e}")],
        };
        if !problems.is_empty() {
            out.failed += 1;
            println!("op {index}: seed {job_seed} WRONG: {}", problems.join("; "));
        }
    }
    if tune.is_empty() {
        return Err("every operation failed".into());
    }
    out.correct = out.failed == 0;
    out.metric("tune_s", median(&tune), "s");
    out.metric("cpu_s", median(&cpus), "s");
    out.metric("epochs_per_s", median(&rates), "1/s");
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    println!(
        "wrong_results {} ratio ({} of {} operations)",
        out.failed as f64 / out.attempted as f64,
        out.failed,
        out.attempted
    );
    Ok(out)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wallbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (options, profile) = args.workload.options();
    println!(
        "wallbench: workload {} seed {} workers {WORKERS} rerun_workers {} options {profile} \
         (r_max {}, eta {}, epochs {}..{}, scale {}) trace {} available_parallelism {}",
        args.workload.name(),
        args.seed,
        jobs::WORKERS_RERUN,
        options.r_max,
        options.eta,
        options.epochs_range.0,
        options.epochs_range.1,
        options.scale,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let result = if args.trace {
        traced::run(&args)
    } else {
        untraced(&args, start)
    };
    match result {
        Ok(outcome) => {
            outcome.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wallbench: {e}");
            ExitCode::from(1)
        }
    }
}
