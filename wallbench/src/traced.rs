//! The traced run: per-layer metrics, kept apart from the end-to-end runs.
//!
//! It runs the measured operation once as the untraced run does, reruns it
//! with telemetry and the monitor on at one and at two workers (whose
//! digests must match: the determinism contract), and for `service_chaos`
//! runs each policy stream with observability off and on in alternating
//! pairs. It then replays the `workload`, `dnn` and `tensor` layers and
//! times the observability calls. A span around each of these calls is
//! kept in memory and printed at the end.

use std::collections::BTreeSet;
use std::time::Instant;

use pipetune::WorkloadSpec;
use pipetune_insight::TraceReport;
use pipetune_monitor::{MonitorConfig, MonitorEngine};
use pipetune_telemetry::{SpanKind, TelemetrySnapshot};

use crate::jobs::{self, Instr, OpResult, Prepared, Workload, WORKERS, WORKERS_RERUN};
use crate::layers::{replay_workload, sample_configs, tensor_kernels};
use crate::replay::{replay_lenet, replay_lstm, EpochTimes, LenetCapture, LstmCapture};
use crate::util::{mean, median, quantile, timed};
use crate::{check_op, expected_digest, measured_instr, Args, Outcome};

/// Timed epochs per sampled configuration in the `workload` replay: with
/// four configurations per spec this gives at least 40 samples, so the
/// 75th percentile has ten beyond it.
fn replay_epochs(workload: Workload) -> usize {
    match workload {
        Workload::ServiceChaos => 4,
        _ => 10,
    }
}
/// Timed epochs per configuration in the `dnn` replays.
const DNN_EPOCHS: usize = 5;

/// Benchmark-side spans, one per call into a layer: name, start and end
/// seconds since the first span opened. The calls do not nest.
#[derive(Default)]
struct Spans {
    origin: Option<Instant>,
    spans: Vec<(&'static str, f64, f64)>,
}

impl Spans {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let origin = *self.origin.get_or_insert_with(Instant::now);
        let start = origin.elapsed().as_secs_f64();
        let out = f();
        self.spans
            .push((name, start, origin.elapsed().as_secs_f64()));
        out
    }

    /// Duration of the latest span.
    fn last_secs(&self) -> f64 {
        self.spans
            .last()
            .map_or(f64::NAN, |(_, start, end)| end - start)
    }

    fn render(&self) -> String {
        let mut out = format!("{:<28} {:>10} {:>10}\n", "span", "start_ms", "dur_ms");
        for (name, start, end) in &self.spans {
            out.push_str(&format!(
                "{name:<28} {:>10.1} {:>10.1}\n",
                1e3 * start,
                1e3 * (end - start)
            ));
        }
        out
    }
}

/// Runs a prepared operation; returns it with its wall seconds.
fn run_timed(prepared: Prepared) -> Result<(OpResult, f64), String> {
    let (result, secs) = timed(|| jobs::run(prepared));
    Ok((result?, secs))
}

/// Runs one operation after its own set-up.
fn op(
    workload: Workload,
    seed: u64,
    instr: Instr,
    workers: usize,
) -> Result<(OpResult, f64), String> {
    run_timed(jobs::setup(workload, seed, instr, workers))
}

/// Wall seconds of each policy stream with observability on minus off,
/// summed. The streams run in pairs whose order alternates (off-on,
/// on-off, ...), so a drift in machine speed cancels instead of landing
/// on one side. Returns the difference and the problems found.
fn observability_pairs(workload: Workload, seed: u64) -> Result<(f64, Vec<String>), String> {
    let off = jobs::setup(workload, seed, Instr::Off, WORKERS).split_streams();
    let on = jobs::setup(workload, seed, Instr::On, WORKERS).split_streams();
    let mut diff = 0.0;
    let mut found = Vec::new();
    for (i, (off, on)) in off.into_iter().zip(on).enumerate() {
        let ((off, off_s), (on, on_s)) = if i % 2 == 0 {
            let off = run_timed(off)?;
            (off, run_timed(on)?)
        } else {
            let on = run_timed(on)?;
            (run_timed(off)?, on)
        };
        diff += on_s - off_s;
        found.extend(check_op(&off, None));
        found.extend(check_op(&on, None));
        if off.result_digest != on.result_digest {
            found.push(format!(
                "stream {i}: results with observability off differ from on"
            ));
        }
    }
    Ok((diff, found))
}

/// Trials, evaluations and runner counters summed over the traces.
#[derive(Debug, Default)]
struct RunnerCounts {
    trials: usize,
    evals: usize,
    rounds: u64,
    profile: u64,
    probe: u64,
    tuned: u64,
}

fn runner_counts(traces: &[TelemetrySnapshot]) -> RunnerCounts {
    let mut c = RunnerCounts::default();
    for t in traces {
        let run_of = |mut i: usize| loop {
            if t.spans[i].kind == SpanKind::TuningRun {
                return Some(i);
            }
            i = t.spans[i].parent? as usize;
        };
        let mut trials = BTreeSet::new();
        for (i, s) in t.spans.iter().enumerate() {
            match s.kind {
                SpanKind::Trial => {
                    trials.insert((run_of(i), s.label.as_str()));
                    c.evals += 1;
                }
                // The winner is evaluated once more when its run ends.
                SpanKind::TuningRun => c.evals += 1,
                _ => {}
            }
        }
        c.trials += trials.len();
        let m = &t.metrics;
        c.rounds += m.counter(pipetune::observe::ROUNDS);
        c.profile += m.counter(pipetune::observe::EPOCHS_PROFILE);
        c.probe += m.counter(pipetune::observe::EPOCHS_PROBE);
        c.tuned += m.counter(pipetune::observe::EPOCHS_TUNED);
    }
    c
}

/// Median milliseconds of one stage over the replayed epochs.
fn stage_ms(epochs: &[EpochTimes], stage: &str) -> f64 {
    let v: Vec<f64> = epochs
        .iter()
        .map(|e| e.get(stage).copied().unwrap_or(0.0))
        .collect();
    1e3 * median(&v)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let (options, _) = w.options();
    let mut spans = Spans::default();
    let mut out = Outcome::default();
    let mut problems: Vec<String> = Vec::new();

    // The job as the untraced run measures it, then instrumented at one and
    // at two workers. Each operation is checked: the measured one against
    // its stored digest, the instrumented ones against the measured results
    // and each other.
    let (base, base_s) = spans.time("runner.measured", || {
        op(w, args.seed, measured_instr(w), WORKERS)
    })?;
    let (traced, traced_s) =
        spans.time("runner.traced_1w", || op(w, args.seed, Instr::On, WORKERS))?;
    let (rerun, rerun_s) = spans.time("runner.traced_2w", || {
        op(w, args.seed, Instr::On, WORKERS_RERUN)
    })?;
    let mut checks = vec![
        ("measured", check_op(&base, expected_digest(w, args.seed))),
        ("traced_1w", check_op(&traced, None)),
        ("traced_2w", check_op(&rerun, Some(traced.digest))),
    ];
    if traced.result_digest != base.result_digest {
        checks[1]
            .1
            .push("results differ from the measured operation's".into());
    }
    println!(
        "determinism: digest {:#018x} at {WORKERS} worker(s), {:#018x} at {WORKERS_RERUN}",
        traced.digest, rerun.digest
    );
    let obs_overhead_s = if measured_instr(w) == Instr::Off {
        traced_s - base_s
    } else {
        let (diff, found) = spans.time("runner.observability_pairs", || {
            observability_pairs(w, args.seed)
        })?;
        checks.push(("observability_pairs", found));
        diff
    };
    for (name, found) in &checks {
        out.attempted += 1;
        if !found.is_empty() {
            out.failed += 1;
            problems.extend(found.iter().map(|p| format!("{name}: {p}")));
        }
    }

    // groundtruth
    let mut warm = Vec::new();
    for i in 0..3 {
        let env = pipetune::ExperimentEnv::distributed(jobs::job_seed(args.seed, i))
            .with_workers(WORKERS);
        spans
            .time("groundtruth.warm_start", || {
                pipetune::warm_start_ground_truth(&env, &WorkloadSpec::all_type12(), &options)
            })
            .map_err(|e| format!("warm start: {e}"))?;
        warm.push(spans.last_secs());
    }
    let (hits, misses) = traced.outcomes.iter().fold((0, 0), |(h, m), o| {
        (h + o.gt_stats.hits, m + o.gt_stats.misses)
    });

    // workload
    let configs = sample_configs(args.seed, options.epochs_range);
    let wl = spans.time("workload.replay", || {
        replay_workload(&w.specs(), &configs, replay_epochs(w))
    })?;

    // dnn + tensor
    let paper_scale = pipetune::TunerOptions::paper().scale;
    let mut lenet_cap = LenetCapture::default();
    let mut lstm_cap = LstmCapture::default();
    let lenet = spans.time("dnn.lenet", || {
        replay_lenet(paper_scale, &configs, DNN_EPOCHS, &mut lenet_cap)
    })?;
    let lstm = spans.time("dnn.lstm", || {
        replay_lstm(paper_scale, &configs, DNN_EPOCHS, &mut lstm_cap)
    })?;
    let kernels = spans.time("tensor.kernels", || tensor_kernels(&lenet_cap, &lstm_cap));
    let parity = lenet.parity_ok == lenet.parity_checked && lstm.parity_ok == lstm.parity_checked;
    println!(
        "replay parity: lenet {}/{} configurations, lstm {}/{}",
        lenet.parity_ok, lenet.parity_checked, lstm.parity_ok, lstm.parity_checked
    );
    if !parity {
        problems.push("dnn replay is stale: parameters differ from Model::train_epoch".into());
    }

    // monitor + insight, offline over the traced run's traces
    let replayed: usize = spans.time("monitor.replay", || {
        traced
            .traces
            .iter()
            .map(|t| {
                let mut engine = MonitorEngine::new(&MonitorConfig::standard());
                engine.observe_snapshot(t);
                engine.finish(&t.metrics).len()
            })
            .sum()
    });
    let replay_s = spans.last_secs();
    let reports = spans.time("insight.report", || {
        traced
            .traces
            .iter()
            .map(TraceReport::from_snapshot)
            .collect::<Result<Vec<_>, _>>()
    });
    let report_s = spans.last_secs();
    reports.map_err(|e| format!("trace report: {e}"))?;
    println!(
        "monitor: {} alert(s) live, {replayed} replayed offline",
        traced.alerts
    );

    println!("{}", spans.render());
    println!("tensor kernels on captured batch-32 operands:");
    for k in &kernels {
        let gflops = if k.flops.is_finite() {
            format!("{:8.3} GF/s", k.gflops())
        } else {
            String::new()
        };
        println!(
            "  {:<11} {:<40} {:>9.4} ms {gflops}",
            k.name,
            k.shape,
            1e3 * k.secs
        );
    }

    let counts = runner_counts(&traced.traces);
    let inst_ms = 1e3 * median(&wl.instantiate_secs);
    let epoch_ms = 1e3 * median(&wl.epoch_secs);
    let eval_ms = 1e3 * median(&wl.eval_secs);
    // Count-weighted workload time, from the replay's mean costs: the
    // runner's own share is what that estimate leaves unexplained.
    let modelled_ms = 1e3
        * (counts.trials as f64 * mean(&wl.instantiate_secs)
            + traced.epochs as f64 * mean(&wl.epoch_secs)
            + counts.evals as f64 * mean(&wl.eval_secs));

    out.metric("workload.instantiate_ms", inst_ms, "ms");
    out.metric("workload.epoch_ms", epoch_ms, "ms");
    out.metric(
        "workload.epoch_ms_tail",
        1e3 * quantile(&wl.epoch_secs, 0.75),
        "ms",
    );
    out.metric("workload.eval_ms", eval_ms, "ms");
    out.metric(
        "workload.allocs_per_epoch",
        median(&wl.allocs_per_epoch),
        "count",
    );
    out.metric(
        "workload.alloc_bytes_per_epoch",
        median(&wl.bytes_per_epoch),
        "bytes",
    );
    out.metric(
        "workload.allocs_per_eval",
        median(&wl.allocs_per_eval),
        "count",
    );
    for (model, replay, stages) in [
        ("lenet", &lenet, &["conv1", "conv2", "pool", "fc"][..]),
        ("lstm", &lstm, &["embedding", "cell", "fc"][..]),
    ] {
        for stage in stages {
            for dir in ["fwd_ms", "bwd_ms"] {
                let key = format!("{stage}.{dir}");
                out.metric(
                    format!("dnn.{model}.{key}"),
                    stage_ms(&replay.epochs, &key),
                    "ms",
                );
            }
        }
        out.metric(
            format!("dnn.{model}.loss_ms"),
            stage_ms(&replay.epochs, "loss_ms"),
            "ms",
        );
        out.metric(
            format!("dnn.{model}.sgd_ms"),
            stage_ms(&replay.epochs, "sgd_ms"),
            "ms",
        );
    }
    out.metric("dnn.replay_parity", f64::from(u8::from(parity)), "bool");
    let kernel = |name: &str| kernels.iter().find(|k| k.name == name);
    for (metric, name) in [
        ("tensor.lenet.conv1.gflops", "conv1"),
        ("tensor.lenet.conv2.gflops", "conv2"),
        ("tensor.lenet.fc1.gflops", "fc1"),
        ("tensor.lstm.gates.gflops", "lstm.gates"),
    ] {
        out.metric(
            metric,
            kernel(name).map_or(f64::NAN, |k| k.gflops()),
            "GF/s",
        );
    }
    out.metric(
        "tensor.lenet.conv_bwd_ms",
        kernel("conv_bwd").map_or(f64::NAN, |k| 1e3 * k.secs),
        "ms",
    );
    out.metric("runner.trials", counts.trials as f64, "count");
    out.metric("runner.rounds", counts.rounds as f64, "count");
    out.metric("runner.epochs_profile", counts.profile as f64, "count");
    out.metric("runner.epochs_probe", counts.probe as f64, "count");
    out.metric("runner.epochs_tuned", counts.tuned as f64, "count");
    out.metric(
        "runner.self_share",
        1.0 - modelled_ms / (1e3 * traced_s),
        "ratio",
    );
    out.metric("runner.scaling_2w", traced_s / (2.0 * rerun_s), "ratio");
    out.metric("groundtruth.warm_start_ms", 1e3 * median(&warm), "ms");
    out.metric("groundtruth.lookups", (hits + misses) as f64, "count");
    out.metric(
        "groundtruth.hit_ratio",
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
        "ratio",
    );
    if traced.streams.is_empty() {
        println!(
            "service.*: 0 — {} runs PipeTune directly and bypasses the service layer",
            w.name()
        );
    }
    let sum =
        |f: fn(&jobs::StreamStats) -> f64| traced.streams.iter().map(f).fold(0.0, |a, b| a + b);
    out.metric("service.attempts", sum(|s| s.attempts as f64), "count");
    out.metric(
        "service.resubmissions",
        sum(|s| s.resubmissions as f64),
        "count",
    );
    out.metric("service.shed", sum(|s| s.shed as f64), "count");
    let committed = sum(|s| s.service_secs);
    out.metric(
        "service.wasted_epoch_ratio",
        if committed > 0.0 {
            sum(|s| s.lost_service_secs) / committed
        } else {
            0.0
        },
        "ratio",
    );
    out.metric("telemetry.snapshot_ms", 1e3 * traced.snapshot_secs, "ms");
    out.metric("telemetry.export_ms", 1e3 * traced.export_secs, "ms");
    out.metric("telemetry.trace_bytes", traced.trace_bytes as f64, "bytes");
    out.metric("monitor.finish_ms", 1e3 * traced.finish_secs, "ms");
    out.metric("monitor.replay_ms", 1e3 * replay_s, "ms");
    out.metric("monitor.alerts", traced.alerts as f64, "count");
    out.metric("insight.report_ms", 1e3 * report_s, "ms");
    out.metric("trace.overhead_s", traced_s - base_s, "s");
    out.metric("obs.overhead_s", obs_overhead_s, "s");

    for p in &problems {
        println!("WRONG: {p}");
    }
    out.correct = problems.is_empty();
    Ok(out)
}
