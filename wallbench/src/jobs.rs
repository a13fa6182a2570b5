//! The three workloads: their set-up, their measured operation, and the
//! digest each operation's deterministic result must match.

use pipetune::prelude::*;
use pipetune::{warm_start_ground_truth, GroundTruth};
use pipetune_cluster::{PoissonArrivals, ServiceFaultPlan};
use pipetune_service::{JobOutcome, JobSubmission, SchedulingPolicy, ServiceConfig, TuningService};
use pipetune_telemetry::TelemetrySnapshot;

use crate::util::{timed, Digest};

/// Executor workers every measured operation pins, so no run falls back to
/// `available_parallelism()`.
pub const WORKERS: usize = 1;
/// The traced run's determinism check reruns each job at this many workers.
pub const WORKERS_RERUN: usize = 2;

/// `service_chaos`: jobs per stream, Poisson arrival rate and deadline SLO
/// (the `bench_headline --chaos` stream, grown from 6 to 12 jobs).
const SERVICE_JOBS: usize = 12;
const SERVICE_RATE: f64 = 1.0 / 1500.0;
const SERVICE_DEADLINE_SECS: f64 = 20_000.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TuneLenet,
    TuneLstm,
    ServiceChaos,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TuneLenet,
        Workload::TuneLstm,
        Workload::ServiceChaos,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TuneLenet => "tune_lenet",
            Workload::TuneLstm => "tune_lstm",
            Workload::ServiceChaos => "service_chaos",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `TunerOptions` profile and its name.
    pub fn options(self) -> (TunerOptions, &'static str) {
        match self {
            Workload::ServiceChaos => (TunerOptions::fast(), "fast"),
            _ => (TunerOptions::paper(), "paper"),
        }
    }

    /// Workload specs the operation trains, at the profile's data scale.
    pub fn specs(self) -> Vec<WorkloadSpec> {
        let scale = self.options().0.scale;
        let specs = match self {
            Workload::TuneLenet => vec![WorkloadSpec::lenet_mnist()],
            Workload::TuneLstm => vec![WorkloadSpec::lstm_news20()],
            Workload::ServiceChaos => vec![
                WorkloadSpec::lenet_mnist(),
                WorkloadSpec::lstm_news20(),
                WorkloadSpec::cnn_news20(),
            ],
        };
        specs.into_iter().map(|s| s.with_scale(scale)).collect()
    }

    /// Wall seconds one operation takes on the reference box (2-core
    /// x86-64 Linux VM): sizes how many operations fit in `--seconds`.
    pub fn nominal_op_secs(self) -> f64 {
        match self {
            Workload::TuneLenet => 8.3,
            Workload::TuneLstm => 3.3,
            Workload::ServiceChaos => 8.0,
        }
    }
}

/// Seed of the `index`-th operation of a run seeded `seed`. Operation 0
/// uses the run's seed itself; later ones are spread so that a run
/// averages over several inputs.
pub fn job_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_add(1000 * index as u64)
}

/// Whether the operation records telemetry and runs the online monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    Off,
    On,
}

/// Everything one operation needs, built during set-up.
#[allow(clippy::large_enum_variant)] // one live value per operation
pub enum Prepared {
    Tune {
        env: ExperimentEnv,
        spec: WorkloadSpec,
        gt: GroundTruth,
        options: TunerOptions,
    },
    Service {
        streams: Vec<(ExperimentEnv, ServiceConfig)>,
        submissions: Vec<JobSubmission>,
        options: TunerOptions,
    },
}

fn build_env(seed: u64, instr: Instr, workers: usize) -> ExperimentEnv {
    let mut builder = ExperimentEnvBuilder::distributed(seed).workers(workers);
    if instr == Instr::On {
        builder = builder
            .telemetry(TelemetryHandle::enabled())
            .monitor(MonitorHandle::with_config(&MonitorConfig::standard()));
    }
    builder.build().expect("pinned experiment config is valid")
}

impl Prepared {
    /// Splits a `service_chaos` operation into one operation per policy
    /// stream; a `tune_*` operation comes back whole.
    pub fn split_streams(self) -> Vec<Prepared> {
        match self {
            Prepared::Service {
                streams,
                submissions,
                options,
            } => streams
                .into_iter()
                .map(|stream| Prepared::Service {
                    streams: vec![stream],
                    submissions: submissions.clone(),
                    options,
                })
                .collect(),
            tune => vec![tune],
        }
    }
}

/// Builds the environment(s), warm-starts the ground truth (`tune_*`) or
/// generates the submission stream (`service_chaos`).
pub fn setup(workload: Workload, seed: u64, instr: Instr, workers: usize) -> Prepared {
    let (options, _) = workload.options();
    match workload {
        Workload::TuneLenet | Workload::TuneLstm => {
            let env = build_env(seed, instr, workers);
            let gt = warm_start_ground_truth(&env, &WorkloadSpec::all_type12(), &options)
                .expect("warm start on the built-in workloads");
            Prepared::Tune {
                env,
                spec: workload.specs()[0],
                gt,
                options,
            }
        }
        Workload::ServiceChaos => {
            let specs = workload.specs();
            let mut arrivals = PoissonArrivals::new(SERVICE_RATE, seed);
            let submissions = (0..SERVICE_JOBS)
                .map(|i| {
                    JobSubmission::new(
                        arrivals.next_arrival().as_secs_f64(),
                        specs[i % specs.len()],
                    )
                })
                .collect();
            let streams = SchedulingPolicy::ALL
                .into_iter()
                .map(|policy| {
                    let config = ServiceConfig::default()
                        .with_policy(policy)
                        .with_service_faults(ServiceFaultPlan::mixed(seed))
                        .with_deadline(SERVICE_DEADLINE_SECS);
                    (build_env(seed, instr, workers), config)
                })
                .collect();
            Prepared::Service {
                streams,
                submissions,
                options,
            }
        }
    }
}

/// Per-stream service counters (`service_chaos` only).
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    pub attempts: u64,
    pub resubmissions: u64,
    pub shed: u64,
    pub lost_service_secs: f64,
    pub service_secs: f64,
}

/// What one operation produced.
#[derive(Default)]
pub struct OpResult {
    /// Digest of the deterministic results, traces and timelines included.
    pub digest: u64,
    /// Digest of the results alone (independent of instrumentation).
    pub result_digest: u64,
    /// Epochs executed, summed over every tuning run.
    pub epochs: u64,
    /// Failed sanity checks (empty when the results are well formed).
    pub problems: Vec<String>,
    pub outcomes: Vec<TuningOutcome>,
    pub streams: Vec<StreamStats>,
    pub traces: Vec<TelemetrySnapshot>,
    pub trace_bytes: usize,
    pub alerts: usize,
    /// Wall seconds inside `MonitorHandle::finish`, `TelemetryHandle::snapshot`
    /// and the JSON export.
    pub finish_secs: f64,
    pub snapshot_secs: f64,
    pub export_secs: f64,
}

fn tune_digest(d: &mut Digest, o: &TuningOutcome) {
    d.f64(f64::from(o.best_accuracy))
        .f64(o.tuning_secs)
        .f64(o.tuning_energy_j)
        .u64(o.epochs_total)
        .u64(o.best_trial_id);
}

fn check_outcome(o: &TuningOutcome, problems: &mut Vec<String>) {
    if !(0.0..=1.0).contains(&o.best_accuracy) {
        problems.push(format!(
            "{}: accuracy {} outside [0, 1]",
            o.workload, o.best_accuracy
        ));
    }
    if !(o.tuning_secs.is_finite() && o.tuning_secs > 0.0) {
        problems.push(format!("{}: tuning time {}", o.workload, o.tuning_secs));
    }
    if !(o.tuning_energy_j.is_finite() && o.tuning_energy_j > 0.0) {
        problems.push(format!(
            "{}: tuning energy {}",
            o.workload, o.tuning_energy_j
        ));
    }
    if o.epochs_total == 0 {
        problems.push(format!("{}: no epochs", o.workload));
    }
}

/// Finishes the monitor, snapshots and exports the trace of an
/// instrumented environment, folding both into the digest.
fn observe(env: &ExperimentEnv, out: &mut OpResult, d: &mut Digest) {
    let (timeline, finish) = timed(|| env.monitor.finish(&env.telemetry));
    let (snapshot, snap) = timed(|| env.telemetry.snapshot());
    let (Some(timeline), Some(snapshot)) = (timeline, snapshot) else {
        return;
    };
    let (json, export) = timed(|| (snapshot.to_json_string(), timeline.to_json_string()));
    out.finish_secs += finish;
    out.snapshot_secs += snap;
    out.export_secs += export;
    out.trace_bytes += json.0.len();
    out.alerts += timeline.len();
    d.str(&json.0).str(&json.1);
    out.traces.push(snapshot);
}

/// Runs the measured operation.
///
/// # Errors
///
/// Returns the substrate's error message when the tuning run fails.
pub fn run(prepared: Prepared) -> Result<OpResult, String> {
    let mut out = OpResult::default();
    let mut full = Digest::default();
    let mut results = Digest::default();
    match prepared {
        Prepared::Tune {
            env,
            spec,
            gt,
            options,
        } => {
            let outcome = PipeTune::with_ground_truth(options, gt)
                .run(&env, &spec)
                .map_err(|e| e.to_string())?;
            tune_digest(&mut results, &outcome);
            full.u64(results.value());
            observe(&env, &mut out, &mut full);
            out.epochs = outcome.epochs_total;
            out.outcomes.push(outcome);
        }
        Prepared::Service {
            streams,
            submissions,
            options,
        } => {
            for (env, config) in streams {
                let service = TuningService::new(config);
                let outcome = service
                    .run(&env, &submissions, &options)
                    .map_err(|e| e.to_string())?;
                let mut stats = StreamStats {
                    resubmissions: outcome.service_fault_report.resubmissions,
                    shed: outcome.service_fault_report.jobs_shed,
                    lost_service_secs: outcome.service_fault_report.lost_service_secs,
                    ..StreamStats::default()
                };
                results.str(outcome.policy.name());
                for job in outcome.jobs {
                    results.str(job.status.name()).f64(job.response_secs);
                    stats.attempts += u64::from(job.attempts);
                    stats.service_secs += job.service_secs;
                    let completed = job.status == JobOutcome::Completed;
                    if completed && !(job.response_secs.is_finite() && job.response_secs >= 0.0) {
                        out.problems
                            .push(format!("job {}: response {}", job.job, job.response_secs));
                    }
                    match job.outcome {
                        Some(o) => {
                            out.epochs += o.epochs_total;
                            out.outcomes.push(o);
                        }
                        None if completed => {
                            out.problems
                                .push(format!("job {} completed without an outcome", job.job));
                        }
                        None => {}
                    }
                }
                out.streams.push(stats);
                observe(&env, &mut out, &mut full);
            }
            full.u64(results.value());
        }
    }
    for o in &out.outcomes {
        check_outcome(o, &mut out.problems);
    }
    out.digest = full.value();
    out.result_digest = results.value();
    Ok(out)
}
