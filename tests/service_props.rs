//! Property suite for the multi-job tuning service (`pipetune-service`).
//!
//! Three layers:
//!
//! 1. **Real-service checks** — a Poisson stream of genuine PipeTune jobs
//!    runs under every policy, pinning the analytic cross-checks (FIFO and
//!    processor sharing reproduce the oracles `simulate_fifo` /
//!    `simulate_processor_sharing` within 1e-9 s), work conservation
//!    (policy-invariant makespan), slot-pool bounds at every event time,
//!    FIFO ordering, admission control and the single-job degeneration to
//!    a dedicated-cluster run.
//! 2. **A proptest sweep over the scheduling engine** — arbitrary job
//!    streams (simultaneous arrivals, zero-service jobs, empty streams
//!    included) re-checked against the analytic models, with no tuning
//!    runs in the loop, so hundreds of cases stay cheap.
//! 3. **Fixed engine cases** — a hand-built six-job stream against the
//!    oracles, and the scheduling edge cases (simultaneous equal jobs,
//!    zero-service jobs, multi-server FIFO) with closed-form answers.
//!
//! The oracles are closed-form FIFO and processor-sharing queue models
//! written independently of [`PolicyEngine`]; they exist only here.

use pipetune::{ExperimentEnv, PipeTune, PipeTuneError, TunerOptions, TuningOutcome, WorkloadSpec};
use pipetune_cluster::{EventQueue, PoissonArrivals, SimTime};
use pipetune_service::{
    job_seed, AdmissionControl, JobSubmission, PolicyEngine, SchedulingPolicy, ServiceConfig,
    ServiceOutcome, TuningService,
};
use proptest::prelude::*;

// ---- analytic oracles ----

/// One tenant job: arrival time and the service it needs when alone.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SharedJob {
    /// Arrival, simulated seconds.
    arrival_secs: f64,
    /// Dedicated-cluster service time, simulated seconds.
    service_secs: f64,
}

/// Completion record produced by the oracles.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SharedCompletion {
    /// Index into the input job list.
    job: usize,
    /// Completion time, simulated seconds.
    completion_secs: f64,
    /// Response time (completion − arrival).
    response_secs: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    Arrival(usize),
}

/// Shared input validation: arrivals must be finite and non-negative,
/// services finite and non-negative. Zero-service jobs are legal — they
/// complete the instant they arrive (a rejected or trivially warm-started
/// job) — and an empty job list yields an empty completion list.
fn validate_jobs(jobs: &[SharedJob]) -> Result<(), PipeTuneError> {
    for (i, j) in jobs.iter().enumerate() {
        if !(j.arrival_secs.is_finite() && j.service_secs.is_finite())
            || j.arrival_secs < 0.0
            || j.service_secs < 0.0
        {
            return Err(PipeTuneError::InvalidConfig {
                reason: format!("job {i} has invalid arrival/service"),
            });
        }
    }
    Ok(())
}

/// Simulates a FIFO queue served by `servers` identical executors: jobs
/// start in arrival order as servers free up, each running dedicated (no
/// slowdown). `servers = 1` is the paper's §5.1 FIFO; more servers model a
/// cluster split into independent HPT slots.
///
/// Returns completions sorted by completion time.
///
/// # Errors
///
/// Returns [`PipeTuneError::InvalidConfig`] for zero servers or invalid
/// jobs.
fn simulate_fifo(
    jobs: &[SharedJob],
    servers: usize,
) -> Result<Vec<SharedCompletion>, PipeTuneError> {
    if servers == 0 {
        return Err(PipeTuneError::InvalidConfig { reason: "servers must be positive".into() });
    }
    validate_jobs(jobs)?;
    // FIFO by arrival time (stable on ties by index, so simultaneous
    // arrivals are served in submission order).
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        jobs[a]
            .arrival_secs
            .partial_cmp(&jobs[b].arrival_secs)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    // Server free times in exact f64 seconds. An earlier revision rounded
    // these to integer microseconds, which drifted completion times by up
    // to ~5e-7 s per hop — enough to break the 1e-9 cross-check against
    // the event-driven service scheduler. A linear min-scan keeps the
    // lowest-index free server on ties, which is deterministic and matches
    // the service's server tie-break.
    let mut free = vec![0.0f64; servers];
    let mut completions = Vec::with_capacity(jobs.len());
    for id in order {
        let server = free
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .expect("servers > 0");
        let start = free[server].max(jobs[id].arrival_secs);
        let completion = start + jobs[id].service_secs;
        free[server] = completion;
        completions.push(SharedCompletion {
            job: id,
            completion_secs: completion,
            response_secs: completion - jobs[id].arrival_secs,
        });
    }
    completions.sort_by(|a, b| {
        a.completion_secs
            .partial_cmp(&b.completion_secs)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(completions)
}

/// Simulates egalitarian processor sharing of the cluster among overlapping
/// jobs: with `k` active jobs, every job progresses at rate `1/k`.
///
/// Returns completions sorted by completion time.
///
/// # Errors
///
/// Returns [`PipeTuneError::InvalidConfig`] for negative arrivals/services
/// or non-finite inputs.
fn simulate_processor_sharing(
    jobs: &[SharedJob],
) -> Result<Vec<SharedCompletion>, PipeTuneError> {
    validate_jobs(jobs)?;
    let mut queue = EventQueue::new();
    for (i, j) in jobs.iter().enumerate() {
        queue.push(SimTime::from_secs_f64(j.arrival_secs), Event::Arrival(i));
    }
    // Active set: remaining service per job id.
    let mut remaining: Vec<Option<f64>> = vec![None; jobs.len()];
    let mut active = 0usize;
    let mut now = 0.0f64;
    let mut completions = Vec::with_capacity(jobs.len());

    // Advance the fluid model to `target`, draining any jobs that finish on
    // the way (each gets an exact completion instant).
    fn drain(
        remaining: &mut [Option<f64>],
        active: &mut usize,
        now: &mut f64,
        target: f64,
        completions: &mut Vec<SharedCompletion>,
        jobs: &[SharedJob],
    ) {
        while *active > 0 && *now < target {
            let rate = 1.0 / *active as f64;
            // Earliest finisher among active jobs.
            let (next_id, next_rem) = remaining
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.map(|v| (i, v)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("active > 0");
            let finish_at = *now + next_rem / rate;
            if finish_at > target {
                // No completion before the target: progress everyone.
                let progress = (target - *now) * rate;
                for r in remaining.iter_mut().flatten() {
                    *r -= progress;
                }
                *now = target;
                return;
            }
            let progress = next_rem;
            for r in remaining.iter_mut().flatten() {
                *r -= progress;
            }
            remaining[next_id] = None;
            *active -= 1;
            *now = finish_at;
            completions.push(SharedCompletion {
                job: next_id,
                completion_secs: finish_at,
                response_secs: finish_at - jobs[next_id].arrival_secs,
            });
        }
        *now = target.max(*now);
    }

    while let Some((t, Event::Arrival(id))) = queue.pop() {
        drain(&mut remaining, &mut active, &mut now, t.as_secs_f64(), &mut completions, jobs);
        remaining[id] = Some(jobs[id].service_secs);
        active += 1;
    }
    drain(&mut remaining, &mut active, &mut now, f64::INFINITY, &mut completions, jobs);
    Ok(completions)
}

#[test]
fn oracles_validate_their_input() {
    assert!(simulate_fifo(&[], 0).is_err(), "zero servers");
    assert!(simulate_fifo(&[], 3).unwrap().is_empty());
    assert!(simulate_processor_sharing(&[]).unwrap().is_empty());
    let bad = [
        SharedJob { arrival_secs: -1.0, service_secs: 1.0 },
        SharedJob { arrival_secs: 0.0, service_secs: -0.5 },
        SharedJob { arrival_secs: 0.0, service_secs: f64::NAN },
        SharedJob { arrival_secs: f64::INFINITY, service_secs: 1.0 },
    ];
    for job in bad {
        assert!(simulate_fifo(&[job], 1).is_err(), "{job:?}");
        assert!(simulate_processor_sharing(&[job]).is_err(), "{job:?}");
    }
}

// ---- real-service checks ----

const JOBS: usize = 4;
const ARRIVAL_RATE: f64 = 1.0 / 1500.0;
const ARRIVAL_SEED: u64 = 9;

/// The shared submission stream: Poisson arrivals (micro-aligned, like any
/// real trace through `SimTime`), one workload family so the ground truth
/// amortises and runs stay fast.
fn submissions() -> Vec<JobSubmission> {
    let mut arrivals = PoissonArrivals::new(ARRIVAL_RATE, ARRIVAL_SEED);
    (0..JOBS)
        .map(|_| JobSubmission::new(arrivals.next_arrival().as_secs_f64(), WorkloadSpec::lenet_mnist()))
        .collect()
}

fn run_policy(policy: SchedulingPolicy) -> ServiceOutcome {
    let env = ExperimentEnv::distributed(77).with_workers(2);
    let service = TuningService::new(ServiceConfig::default().with_policy(policy));
    service.run(&env, &submissions(), &TunerOptions::fast()).expect("service run succeeds")
}

fn assert_job_outcomes_identical(a: &TuningOutcome, b: &TuningOutcome) {
    assert_eq!(a.best_accuracy.to_bits(), b.best_accuracy.to_bits());
    assert_eq!(a.best_hp, b.best_hp);
    assert_eq!(a.best_system, b.best_system);
    assert_eq!(a.best_trial_id, b.best_trial_id);
    assert_eq!(a.tuning_secs.to_bits(), b.tuning_secs.to_bits());
    assert_eq!(a.tuning_energy_j.to_bits(), b.tuning_energy_j.to_bits());
    assert_eq!(a.epochs_total, b.epochs_total);
}

#[test]
fn real_service_reproduces_analytic_models_and_conserves_work() {
    let fifo = run_policy(SchedulingPolicy::Fifo);
    let ps = run_policy(SchedulingPolicy::ProcessorSharing);
    let srs = run_policy(SchedulingPolicy::ShortestRemainingService);

    // A job's tuning outcome must not depend on how the cluster was
    // scheduled around it: same sub-seed, same slot slice, same result.
    for (a, b) in fifo.jobs.iter().zip(&ps.jobs).chain(fifo.jobs.iter().zip(&srs.jobs)) {
        assert_eq!(a.service_secs.to_bits(), b.service_secs.to_bits());
        assert_job_outcomes_identical(
            a.outcome.as_ref().unwrap(),
            b.outcome.as_ref().unwrap(),
        );
    }

    // Analytic cross-check: the service's FIFO and PS completions must
    // match the closed-form simulations within 1e-9 seconds.
    let stream: Vec<SharedJob> = fifo
        .jobs
        .iter()
        .map(|r| SharedJob { arrival_secs: r.arrival_secs, service_secs: r.service_secs })
        .collect();
    let analytic_fifo = simulate_fifo(&stream, fifo.servers).unwrap();
    for c in &analytic_fifo {
        let rec = &fifo.jobs[c.job];
        assert!(
            (rec.completion_secs - c.completion_secs).abs() < 1e-9,
            "FIFO job {}: service {} vs analytic {}",
            c.job,
            rec.completion_secs,
            c.completion_secs
        );
        assert!((rec.response_secs - c.response_secs).abs() < 1e-9);
    }
    let analytic_ps = simulate_processor_sharing(&stream).unwrap();
    for c in &analytic_ps {
        let rec = &ps.jobs[c.job];
        assert!(
            (rec.completion_secs - c.completion_secs).abs() < 1e-9,
            "PS job {}: service {} vs analytic {}",
            c.job,
            rec.completion_secs,
            c.completion_secs
        );
    }

    // Work conservation: all three policies finish the same work at the
    // same instant.
    assert!((fifo.makespan_secs - ps.makespan_secs).abs() < 1e-9);
    assert!((fifo.makespan_secs - srs.makespan_secs).abs() < 1e-9);

    // FIFO completion order is arrival order (single server).
    let mut by_completion: Vec<&_> = fifo.jobs.iter().collect();
    by_completion.sort_by(|a, b| a.completion_secs.total_cmp(&b.completion_secs));
    let completion_order: Vec<usize> = by_completion.iter().map(|r| r.job).collect();
    let mut arrival_order: Vec<usize> = (0..fifo.jobs.len()).collect();
    arrival_order.sort_by(|&a, &b| {
        fifo.jobs[a].arrival_secs.total_cmp(&fifo.jobs[b].arrival_secs).then(a.cmp(&b))
    });
    assert_eq!(completion_order, arrival_order, "FIFO must complete in arrival order");

    // No slot-pool oversubscription at any event time, under any policy —
    // and whenever work is in service the pool is fully busy (the slot
    // side of work conservation).
    for outcome in [&fifo, &ps, &srs] {
        assert!(!outcome.timeline.is_empty());
        for sample in &outcome.timeline {
            assert!(
                sample.slots_in_use <= outcome.slot_capacity,
                "{:?}: {} slots leased with capacity {}",
                outcome.policy,
                sample.slots_in_use,
                outcome.slot_capacity
            );
            assert!(sample.in_service_jobs <= sample.active_jobs);
            if sample.in_service_jobs > 0 {
                assert_eq!(
                    sample.slots_in_use,
                    outcome.slot_capacity.min(sample.in_service_jobs * outcome.slots_per_job),
                    "{:?} leaves leased slots unaccounted",
                    outcome.policy
                );
            } else {
                assert_eq!(sample.slots_in_use, 0);
            }
        }
        let report = &outcome.fault_report;
        assert!(report.is_clean(), "no fault plan was installed: {report:?}");
    }
}

#[test]
fn single_job_stream_degenerates_to_a_dedicated_run() {
    let env = ExperimentEnv::distributed(31).with_workers(2);
    let sub = JobSubmission::new(5.0, WorkloadSpec::lenet_mnist());
    let service = TuningService::new(ServiceConfig::default());
    let outcome = service.run(&env, &[sub], &TunerOptions::fast()).unwrap();
    assert_eq!(outcome.jobs.len(), 1);
    let rec = &outcome.jobs[0];

    // A dedicated-cluster run with the same derived seed and the full
    // slot pool must agree byte for byte.
    let dedicated_env = env
        .clone()
        .with_seed(job_seed(&env, 0))
        .with_parallel_slots(outcome.slots_per_job);
    let dedicated =
        PipeTune::new(TunerOptions::fast()).run(&dedicated_env, &WorkloadSpec::lenet_mnist()).unwrap();
    let job = rec.outcome.as_ref().expect("admitted job has an outcome");
    assert_job_outcomes_identical(job, &dedicated);
    assert_eq!(outcome.slots_per_job, env.parallel_slots, "lone job gets the whole pool");

    // And the queueing picture is trivial: starts on arrival, no queueing,
    // response = dedicated tuning time.
    assert_eq!(rec.start_secs.to_bits(), rec.arrival_secs.to_bits());
    assert_eq!(rec.queue_secs, 0.0);
    assert_eq!(rec.response_secs.to_bits(), dedicated.tuning_secs.to_bits());
    assert_eq!(rec.completion_secs.to_bits(), (5.0 + dedicated.tuning_secs).to_bits());
    assert_eq!(outcome.makespan_secs.to_bits(), rec.completion_secs.to_bits());
    assert_eq!(outcome.mean_response_secs.to_bits(), rec.response_secs.to_bits());
}

#[test]
fn admission_control_rejects_overflow_and_rejected_jobs_never_run() {
    let env = ExperimentEnv::distributed(13).with_workers(2);
    // Two arrivals one (simulated) second apart; tuning runs last orders
    // of magnitude longer, so the second arrival always finds the single
    // admission slot occupied.
    let subs = [
        JobSubmission::new(0.0, WorkloadSpec::lenet_mnist()),
        JobSubmission::new(1.0, WorkloadSpec::lenet_mnist()),
    ];
    let service = TuningService::new(
        ServiceConfig::default().with_admission(AdmissionControl::bounded(1)),
    );
    let outcome = service.run(&env, &subs, &TunerOptions::fast()).unwrap();
    assert!(outcome.jobs[0].admitted);
    let rejected = &outcome.jobs[1];
    assert!(!rejected.admitted);
    assert!(rejected.outcome.is_none(), "rejected jobs must not run");
    assert_eq!(rejected.slots, 0);
    for t in [
        rejected.service_secs,
        rejected.start_secs,
        rejected.completion_secs,
        rejected.response_secs,
        rejected.queue_secs,
    ] {
        assert!(t.is_nan(), "rejected job times must be NaN: {rejected:?}");
    }
    // The admitted job is unaffected by the rejected visitor.
    assert_eq!(
        outcome.makespan_secs.to_bits(),
        outcome.jobs[0].completion_secs.to_bits()
    );
    assert_eq!(outcome.mean_response_secs.to_bits(), outcome.jobs[0].response_secs.to_bits());
}

// ---- proptest sweep over the scheduling engine (no tuning runs) ----

/// Arbitrary job streams: micro-aligned arrivals (every real trace goes
/// through `SimTime`), services with deliberate mass at zero, and lengths
/// from empty up.
fn job_streams() -> impl Strategy<Value = Vec<SharedJob>> {
    proptest::collection::vec((0u64..200_000_000, 0u64..5_000_000_000), 0..24).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(arrival_micros, service_micros)| SharedJob {
                arrival_secs: arrival_micros as f64 / 1e6,
                // Every fifth draw collapses to a zero-service job, the
                // edge case that used to wedge the analytic models.
                service_secs: if service_micros % 5 == 0 { 0.0 } else { service_micros as f64 / 1e6 },
            })
            .collect()
    })
}

/// Drives a stream through the engine the way the service driver does.
fn run_engine(policy: SchedulingPolicy, servers: usize, jobs: &[SharedJob]) -> Vec<(usize, f64, f64)> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        jobs[a].arrival_secs.total_cmp(&jobs[b].arrival_secs).then(a.cmp(&b))
    });
    let mut engine = PolicyEngine::new(policy, servers);
    let mut done = Vec::new();
    for id in order {
        done.extend(engine.advance_to(jobs[id].arrival_secs));
        engine.insert(id, jobs[id].service_secs);
        // No oversubscription at the engine level either: FIFO and
        // shortest-remaining never serve more jobs than servers.
        let (served, rate) = engine.in_service();
        match policy {
            SchedulingPolicy::ProcessorSharing => assert!(rate <= 1.0),
            _ => assert!(served.len() <= servers),
        }
    }
    done.extend(engine.drain());
    done.into_iter().map(|c| (c.job, c.at_secs, c.start_secs)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fifo_engine_matches_the_analytic_queue(jobs in job_streams(), servers in 1usize..4) {
        let engine = run_engine(SchedulingPolicy::Fifo, servers, &jobs);
        let analytic = simulate_fifo(&jobs, servers).unwrap();
        prop_assert_eq!(engine.len(), analytic.len());
        for (job, at, _) in &engine {
            let a = analytic.iter().find(|a| a.job == *job).unwrap();
            prop_assert!(
                (at - a.completion_secs).abs() < 1e-9,
                "job {} engine {} vs analytic {}", job, at, a.completion_secs
            );
        }
    }

    #[test]
    fn ps_engine_matches_the_analytic_fluid_model(jobs in job_streams()) {
        let engine = run_engine(SchedulingPolicy::ProcessorSharing, 1, &jobs);
        let analytic = simulate_processor_sharing(&jobs).unwrap();
        prop_assert_eq!(engine.len(), analytic.len());
        for (job, at, _) in &engine {
            let a = analytic.iter().find(|a| a.job == *job).unwrap();
            prop_assert!(
                (at - a.completion_secs).abs() < 1e-9,
                "job {} engine {} vs analytic {}", job, at, a.completion_secs
            );
        }
    }

    #[test]
    fn every_policy_conserves_work_and_respects_causality(jobs in job_streams()) {
        let mut makespans = Vec::new();
        for policy in SchedulingPolicy::ALL {
            let done = run_engine(policy, 1, &jobs);
            prop_assert_eq!(done.len(), jobs.len(), "every job completes under {:?}", policy);
            for (job, at, start) in &done {
                let j = &jobs[*job];
                prop_assert!(*start >= j.arrival_secs - 1e-9, "started before arrival");
                prop_assert!(*at >= *start - 1e-9, "completed before starting");
                prop_assert!(
                    *at >= j.arrival_secs + j.service_secs - 1e-9,
                    "job {} finished impossibly fast under {:?}", job, policy
                );
            }
            makespans.push(done.iter().map(|(_, at, _)| *at).fold(0.0, f64::max));
        }
        for m in &makespans[1..] {
            prop_assert!(
                (m - makespans[0]).abs() < 1e-9,
                "work conservation violated: {:?}", makespans
            );
        }
    }

    #[test]
    fn fifo_single_server_completes_in_arrival_order(jobs in job_streams()) {
        let done = run_engine(SchedulingPolicy::Fifo, 1, &jobs);
        let mut arrival_order: Vec<usize> = (0..jobs.len()).collect();
        arrival_order.sort_by(|&a, &b| {
            jobs[a].arrival_secs.total_cmp(&jobs[b].arrival_secs).then(a.cmp(&b))
        });
        let completion_order: Vec<usize> = done.iter().map(|(job, _, _)| *job).collect();
        prop_assert_eq!(completion_order, arrival_order);
    }
}

// ---- fixed engine cases ----

/// Engine completion instant of `job` in a [`run_engine`] result.
fn completion_of(done: &[(usize, f64, f64)], job: usize) -> f64 {
    done.iter().find(|(j, _, _)| *j == job).expect("job completed").1
}

fn jobs_from(pairs: &[(f64, f64)]) -> Vec<SharedJob> {
    pairs
        .iter()
        .map(|&(arrival_secs, service_secs)| SharedJob { arrival_secs, service_secs })
        .collect()
}

#[test]
fn fixed_six_job_stream_matches_both_oracles() {
    // Simultaneous arrivals, a zero-service job and an idle gap in one
    // hand-built stream (micro-aligned, so the PS oracle's SimTime arrival
    // quantisation is a no-op).
    let jobs = jobs_from(&[
        (0.0, 13.25),
        (2.5, 4.0),
        (2.5, 0.75),
        (7.125, 9.5),
        (31.0, 0.0),
        (40.5, 6.25),
    ]);
    let cases = [1usize, 2, 3]
        .map(|servers| (SchedulingPolicy::Fifo, servers, simulate_fifo(&jobs, servers).unwrap()));
    let ps = (SchedulingPolicy::ProcessorSharing, 1, simulate_processor_sharing(&jobs).unwrap());
    for (policy, servers, analytic) in cases.into_iter().chain([ps]) {
        let engine = run_engine(policy, servers, &jobs);
        assert_eq!(engine.len(), analytic.len());
        for a in &analytic {
            let at = completion_of(&engine, a.job);
            assert!(
                (at - a.completion_secs).abs() < 1e-9,
                "{policy:?} servers={servers} job={} engine={at} analytic={}",
                a.job,
                a.completion_secs
            );
        }
    }
}

#[test]
fn simultaneous_equal_jobs_share_from_the_first_instant() {
    // Two equal jobs together under PS take twice as long.
    let two = jobs_from(&[(0.0, 10.0), (0.0, 10.0)]);
    let done = run_engine(SchedulingPolicy::ProcessorSharing, 1, &two);
    assert!(done.iter().all(|(_, at, _)| (at - 20.0).abs() < 1e-9), "{done:?}");
    // Three simultaneous jobs with services 3/6/9 from t = 2: completions
    // at 2 + 3·3 = 11, 11 + 2·3 = 17 and 17 + 3 = 20.
    let three = jobs_from(&[(2.0, 3.0), (2.0, 6.0), (2.0, 9.0)]);
    let done = run_engine(SchedulingPolicy::ProcessorSharing, 1, &three);
    for (job, expected) in [(0, 11.0), (1, 17.0), (2, 20.0)] {
        assert!((completion_of(&done, job) - expected).abs() < 1e-9, "{done:?}");
    }
    // FIFO serves simultaneous arrivals in submission order.
    let same_instant = jobs_from(&[(1.0, 2.0), (1.0, 3.0), (1.0, 1.0)]);
    let fifo = run_engine(SchedulingPolicy::Fifo, 1, &same_instant);
    assert_eq!(fifo.iter().map(|(job, _, _)| *job).collect::<Vec<_>>(), [0, 1, 2]);
    for (job, expected) in [(0, 3.0), (1, 6.0), (2, 7.0)] {
        assert_eq!(completion_of(&fifo, job), expected);
    }
}

#[test]
fn zero_service_jobs_complete_on_arrival_without_delaying_others() {
    let jobs = jobs_from(&[(0.0, 10.0), (4.0, 0.0)]);
    let fifo = run_engine(SchedulingPolicy::Fifo, 2, &jobs);
    assert_eq!(completion_of(&fifo, 1), 4.0);
    let ps = run_engine(SchedulingPolicy::ProcessorSharing, 1, &jobs);
    assert_eq!(completion_of(&ps, 1), 4.0);
    // The zero-service visitor leaves no trace on the long job.
    assert!((completion_of(&ps, 0) - 10.0).abs() < 1e-9, "{ps:?}");
    // An all-zero stream completes everything at its arrival instant.
    let zeros = jobs_from(&[(1.0, 0.0), (1.0, 0.0)]);
    for policy in SchedulingPolicy::ALL {
        let done = run_engine(policy, 1, &zeros);
        assert_eq!(done.len(), 2);
        assert!(done.iter().all(|&(_, at, start)| at == 1.0 && start == 1.0), "{policy:?}");
    }
}

#[test]
fn extra_fifo_servers_absorb_the_queue() {
    let jobs = jobs_from(&[(0.0, 10.0), (1.0, 2.0)]);
    let one = run_engine(SchedulingPolicy::Fifo, 1, &jobs);
    let two = run_engine(SchedulingPolicy::Fifo, 2, &jobs);
    // With one server job 1 queues behind job 0; a second server removes
    // the queueing delay.
    assert!((completion_of(&one, 1) - 12.0).abs() < 1e-9, "{one:?}");
    assert!((completion_of(&two, 1) - 3.0).abs() < 1e-9, "{two:?}");
    assert!((completion_of(&two, 0) - 10.0).abs() < 1e-9, "{two:?}");
}

#[test]
fn fifo_keeps_sub_microsecond_services_exact() {
    // A chain of back-to-back sub-microsecond jobs: integer-microsecond
    // rounding would drift the chain; exact f64 arithmetic reproduces the
    // running sum.
    let service = 3e-7;
    let jobs = jobs_from(&[(0.0, service); 100]);
    let done = run_engine(SchedulingPolicy::Fifo, 1, &jobs);
    let mut expected = 0.0f64;
    for (i, (_, at, _)) in done.iter().enumerate() {
        expected += service;
        assert!((at - expected).abs() < 1e-12, "job {i}: {at} vs {expected}");
    }
}
