//! Scheduler-driven run loop: a real multi-threaded trial executor mapped
//! onto simulated parallel slots.
//!
//! Each scheduler batch is fanned out to [`ExperimentEnv::workers`] OS
//! threads pulling work items off a shared cursor. Determinism contract:
//! the results — accuracies, simulated clocks, ground-truth contents and
//! stats — are byte-identical for every worker count, because
//!
//! 1. every trial draws from its own RNG seeded from
//!    `(env.seed, trial id)`, never from a shared stream;
//! 2. all trials of a batch read one ground-truth snapshot taken at batch
//!    start, and their mutations are buffered and flushed in scheduler
//!    request order ([`crate::SharedGroundTruth`]);
//! 3. batch results are merged back in request order, so completion-time
//!    bookkeeping, best-trial selection and scheduler reports never depend
//!    on which OS thread finished first.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use pipetune_cluster::{observe as cluster_observe, FaultReport};
use pipetune_search::{Config, TrialId, TrialRequest, TrialReport, TrialScheduler};
use pipetune_telemetry::{EventKind, SpanId, SpanKind, COUNT_BUCKETS, RATIO_BUCKETS};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cache::{self, CacheEntry, CacheEvent, CacheKey, CacheSession, CacheStats};
use crate::groundtruth::{GroundTruthAccess, GtSession, SharedGroundTruth};
use crate::objective::Objective;
use crate::observe;
use crate::trial::{SystemTuner, TrialExecution};
use crate::workload::EpochWorkload;
use crate::{ExperimentEnv, GroundTruth, HyperParams, PipeTuneError, WorkloadSpec};

/// Completion record for one trial request (one scheduler rung's worth of
/// epochs for one configuration).
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    /// Scheduler trial id.
    pub id: u64,
    /// Hyperparameters of the trial.
    pub hp: HyperParams,
    /// Held-out accuracy after this request's epochs.
    pub accuracy: f32,
    /// Cumulative trial duration so far (simulated seconds).
    pub trial_secs: f64,
    /// Simulated wall-clock time at which the request finished.
    pub completed_at_secs: f64,
}

/// Greedy FIFO list scheduling onto `slots` parallel executors.
///
/// Returns per-item completion offsets (relative to the round start) and the
/// round makespan. This is how a batch of asynchronous trials shares the
/// cluster: each new trial goes to the least-loaded slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotSchedule;

impl SlotSchedule {
    /// Assigns `durations` (in arrival order) to `slots` executors.
    pub fn assign(durations: &[f64], slots: usize) -> (Vec<f64>, f64) {
        let slots = slots.max(1);
        let mut load = vec![0.0f64; slots];
        let mut completions = Vec::with_capacity(durations.len());
        for &d in durations {
            let (idx, _) = load
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("at least one slot");
            load[idx] += d.max(0.0);
            completions.push(load[idx]);
        }
        let makespan = load.iter().copied().fold(0.0, f64::max);
        (completions, makespan)
    }

    /// Like [`SlotSchedule::assign`], but each slot runs at a relative
    /// `speed` (1.0 = healthy, < 1.0 = straggling slot): a duration `d`
    /// occupies slot `i` for `d / speeds[i]`. Each item goes to the slot
    /// that would finish it earliest, so work is steered away from slow
    /// slots — the re-assignment half of straggler mitigation. With all
    /// speeds at 1.0 this reduces exactly to `assign`.
    pub fn assign_weighted(durations: &[f64], speeds: &[f64]) -> (Vec<f64>, f64) {
        let slots = speeds.len().max(1);
        let mut load = vec![0.0f64; slots];
        let mut completions = Vec::with_capacity(durations.len());
        for &d in durations {
            let d = d.max(0.0);
            let (idx, done) = load
                .iter()
                .enumerate()
                .map(|(i, &l)| {
                    let speed = speeds.get(i).copied().unwrap_or(1.0).max(1e-3);
                    (i, l + d / speed)
                })
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("at least one slot");
            load[idx] = done;
            completions.push(done);
        }
        let makespan = load.iter().copied().fold(0.0, f64::max);
        (completions, makespan)
    }
}

/// Result of driving one scheduler to completion.
#[derive(Debug, Clone)]
pub(crate) struct RunResult {
    pub best_accuracy: f32,
    /// Scheduler trial id of the winner (its workload seed is
    /// `env.subseed(best_trial_id)`).
    pub best_trial_id: u64,
    /// Trained weights of the selected model (None for kernel workloads).
    pub best_weights: Option<Vec<pipetune_tensor::Tensor>>,
    pub best_hp: HyperParams,
    pub best_final_system: pipetune_cluster::SystemConfig,
    pub best_training_secs: f64,
    pub tuning_secs: f64,
    pub tuning_energy_j: f64,
    pub epochs_total: u64,
    pub outcomes: Vec<TrialOutcome>,
    /// Faults injected and recovered from over the whole run (clean when
    /// the environment's fault plan is empty).
    pub fault_report: FaultReport,
    /// Epoch-reuse cache activity this run added (all-zero when the
    /// environment's cache handle is disabled).
    pub cache_stats: CacheStats,
}

/// One trial's executor-side state: the live execution plus its private RNG.
///
/// The RNG is derived from `(env.seed, trial id)` and persists across
/// scheduler rungs, so a trial's stochastic profile noise is a function of
/// its identity alone — never of which worker ran it or what ran before it.
#[derive(Debug)]
struct TrialSlot {
    exec: TrialExecution,
    rng: StdRng,
}

/// Seed of the private RNG of trial `id` (decorrelated from the workload
/// instantiation seed `env.subseed(id)` by the golden-ratio stride). Also
/// one of the epoch-reuse cache's identity components: two trials share a
/// cached prefix only if their RNG streams are identical.
fn trial_rng_seed(env: &ExperimentEnv, id: TrialId) -> u64 {
    env.subseed(0xEE).wrapping_add(id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Derives the private RNG of trial `id`.
fn trial_rng(env: &ExperimentEnv, id: TrialId) -> StdRng {
    StdRng::seed_from_u64(trial_rng_seed(env, id))
}

/// The epoch-reuse cache address of one trial: the hyperparameter-prefix
/// fingerprint extended with everything else that pins the trained state
/// bit for bit — instantiation seed, RNG seed, tuner policy, contention.
/// Computed identically at lookup (fresh trials) and insert (all trials),
/// so a trial always re-addresses its own prefixes, and never anyone
/// else's.
fn cache_identity(
    env: &ExperimentEnv,
    spec: &WorkloadSpec,
    hp: &HyperParams,
    id: TrialId,
    tuner: &SystemTuner,
    contention: f64,
) -> u64 {
    cache::trial_identity(
        cache::fingerprint(spec, hp),
        env.subseed(id.0),
        trial_rng_seed(env, id),
        cache::tuner_policy(tuner),
        contention,
    )
}

/// A claimed unit of work: one scheduler request plus what is needed to run
/// it (`slot` for resumed trials, `tuner` for fresh ones).
struct WorkItem {
    req: TrialRequest,
    slot: Option<TrialSlot>,
    tuner: Option<SystemTuner>,
}

/// What one executed work item hands back to the coordinator.
struct ItemResult<'s, 'a> {
    id: TrialId,
    slot: TrialSlot,
    session: Option<GtSession<'s, 'a>>,
    accuracy: f32,
    score: f64,
    /// Epochs the scheduler requested for this rung.
    epochs: u32,
    delta_secs: f64,
    delta_energy: f64,
    /// Fault counters this rung added to the trial's report.
    faults: FaultReport,
    /// `Some(attempts)` when the trial exhausted its retry budget this
    /// rung and was abandoned (its score is already `NEG_INFINITY`).
    abandoned: Option<u32>,
    /// Buffered epoch-reuse cache events (`None` when the cache is
    /// disabled); the coordinator flushes them in request order.
    cache_session: Option<CacheSession>,
}

/// Trains one work item to completion (worker-thread body).
fn execute_item<'s, 'a>(
    env: &ExperimentEnv,
    spec: &WorkloadSpec,
    objective: Objective,
    contention: f64,
    shared: Option<&'s SharedGroundTruth<'a>>,
    item: WorkItem,
) -> Result<ItemResult<'s, 'a>, PipeTuneError> {
    let WorkItem { req, slot, tuner } = item;
    let was_resumed = slot.is_some();
    let mut cache_session =
        if env.epoch_cache.is_enabled() { Some(CacheSession::default()) } else { None };
    // Epochs already covered by an adopted cache prefix (fresh trials only).
    let mut adopted_epochs = 0u32;
    let mut slot = match slot {
        Some(s) => s,
        None => {
            let hp = HyperParams::from_config(&req.config);
            let mut rng = trial_rng(env, req.id);
            let tuner = tuner.expect("fresh trials carry a tuner");
            // Fresh trial: consult the epoch-reuse cache for the deepest
            // prefix within this rung's budget. `peek` is read-only — the
            // hit/miss bookkeeping is buffered in `cache_session` and
            // applied by the coordinator in request order. The address is
            // the trial's full identity, so a hit only ever serves state
            // this exact trial would have trained itself.
            let fp = cache_session
                .as_ref()
                .map(|_| cache_identity(env, spec, &hp, req.id, &tuner, contention));
            match fp.and_then(|fp| env.epoch_cache.peek(fp, req.epochs)) {
                Some(prefix) => {
                    let session = cache_session.as_mut().expect("cache enabled on hit");
                    session.events.push(CacheEvent::Hit {
                        key: prefix.key,
                        saved_secs: prefix.saved_secs,
                    });
                    adopted_epochs = prefix.key.epochs;
                    // The scheduler-assigned `tuner` is dropped in favour
                    // of the donor's evolved state: the key's policy
                    // discriminant guarantees both started from the same
                    // policy, and the identity components guarantee the
                    // donor evolved exactly as this trial would have.
                    let exec =
                        TrialExecution::from_cached_prefix(env, prefix, req.id.0, &mut rng);
                    TrialSlot { exec, rng }
                }
                None => {
                    let workload = spec.instantiate(&hp, env.subseed(req.id.0))?;
                    let mut exec =
                        TrialExecution::new(workload, tuner).with_trial_id(req.id.0);
                    if let Some(session) = cache_session.as_mut() {
                        session.events.push(CacheEvent::Miss);
                        exec.note_cache_miss(env);
                    }
                    TrialSlot { exec, rng }
                }
            }
        }
    };
    let mut session = shared.map(SharedGroundTruth::session);
    // A fresh trial that adopted a prefix already carries the charged
    // reload time; the whole of it belongs to this rung's slot occupancy.
    let (secs_before, energy_before) = if was_resumed {
        (slot.exec.duration_secs(), slot.exec.energy_j())
    } else {
        (0.0, 0.0)
    };
    let faults_before = slot.exec.fault_report();
    let run = slot.exec.run_epochs(
        env,
        req.epochs - adopted_epochs,
        session.as_mut().map(|s| s as &mut dyn GroundTruthAccess),
        contention,
        &mut slot.rng,
    );
    let abandoned = match run {
        Ok(()) => None,
        Err(PipeTuneError::RetriesExhausted { attempts, .. }) => Some(attempts),
        Err(e) => return Err(e),
    };
    let (accuracy, score) = if abandoned.is_some() {
        // An abandoned trial has no usable measurement: it scores
        // `NEG_INFINITY` so the scheduler never promotes it.
        (f32::NAN, f64::NEG_INFINITY)
    } else {
        let accuracy = slot.exec.accuracy()?;
        (accuracy, objective.score(f64::from(accuracy), slot.exec.duration_secs()))
    };
    let delta_secs = slot.exec.duration_secs() - secs_before;
    let delta_energy = slot.exec.energy_j() - energy_before;
    let faults = slot.exec.fault_report().delta_since(&faults_before);
    if abandoned.is_none() {
        if let Some(cache_session) = cache_session.as_mut() {
            // Remember this trial's state at its new depth. Totals are
            // *trained-equivalent*: charged time plus whatever this trial
            // itself saved by adoption, so chained adoption never compounds
            // the reload discount. The insert address recomputes the same
            // identity the lookup used (the tuner-policy discriminant is
            // invariant over tuner evolution), so resumed trials keep
            // addressing their own prefix line.
            let exec = &slot.exec;
            let key = CacheKey {
                fingerprint: cache_identity(
                    env,
                    exec.workload().spec(),
                    exec.workload().hyperparams(),
                    req.id,
                    exec.tuner(),
                    contention,
                ),
                epochs: exec.workload().epochs_run(),
            };
            cache_session.events.push(CacheEvent::Insert {
                key,
                entry: Box::new(CacheEntry::new(
                    exec.workload().clone(),
                    exec.tuner().clone(),
                    slot.rng.clone(),
                    exec.records().to_vec(),
                    exec.duration_secs() + exec.cache_saved_secs(),
                    exec.energy_j() + exec.cache_saved_energy_j(),
                )),
            });
        }
    }
    Ok(ItemResult {
        id: req.id,
        slot,
        session,
        accuracy,
        score,
        epochs: req.epochs,
        delta_secs,
        delta_energy,
        faults,
        abandoned,
        cache_session,
    })
}

/// Drives `scheduler` to completion for one workload.
///
/// `policy` builds each new trial's [`SystemTuner`] from its configuration
/// (fixed default for V1, fixed per-config system for V2, pipelined for
/// PipeTune). The ground truth, when supplied, is shared across trials (and,
/// via the caller, across jobs). Each batch really executes on
/// `env.workers` threads; see the module docs for the determinism contract.
///
/// `run_label` names the root `tuning_run` telemetry span when
/// [`ExperimentEnv::telemetry`] is enabled; telemetry recording happens
/// entirely on the coordinator (spans) or in per-trial buffers merged in
/// request order (everything inside a trial), so traces are byte-identical
/// for every worker count — `env.workers` is deliberately never recorded.
#[allow(clippy::too_many_arguments)] // crate-internal driver; the three call sites read best flat
pub(crate) fn run_scheduler<F>(
    env: &ExperimentEnv,
    spec: &WorkloadSpec,
    scheduler: &mut dyn TrialScheduler,
    objective: Objective,
    run_label: &str,
    mut policy: F,
    ground_truth: Option<&mut GroundTruth>,
    contention: f64,
) -> Result<RunResult, PipeTuneError>
where
    F: FnMut(&Config) -> SystemTuner,
{
    let shared: Option<SharedGroundTruth<'_>> = ground_truth.map(SharedGroundTruth::new);
    let cache_stats_before = env.epoch_cache.stats().unwrap_or_default();
    let telemetry = &env.telemetry;
    let run_span = telemetry.open_span(
        SpanId::NONE,
        SpanKind::TuningRun,
        run_label,
        0.0,
        vec![
            ("workload", spec.name().into()),
            ("seed", env.seed.into()),
            ("parallel_slots", env.parallel_slots.into()),
        ],
    );
    let mut trials: HashMap<TrialId, TrialSlot> = HashMap::new();
    let mut clock = 0.0f64;
    let mut energy = 0.0f64;
    let mut outcomes = Vec::new();
    let mut best: Option<(f64, TrialId)> = None;
    // Every surviving report in report order, for re-electing a leader
    // that a later round abandoned.
    let mut reported: Vec<(f64, TrialId)> = Vec::new();
    let mut fault_report = FaultReport::default();
    let mut round = 0u64;
    let mut round_guard = 0usize;

    while !scheduler.is_finished() {
        let reqs = scheduler.next_trials();
        if reqs.is_empty() {
            round_guard += 1;
            if round_guard > 10_000 {
                return Err(PipeTuneError::InvalidConfig {
                    reason: "scheduler made no progress for 10000 rounds".into(),
                });
            }
            continue;
        }
        round_guard = 0;

        // Claim the batch in request order. Fresh trials get their tuner
        // from `policy` here on the coordinator (it may be an FnMut);
        // workload instantiation — the expensive part — happens on workers.
        let n = reqs.len();
        let rung_span = telemetry.open_span(
            run_span,
            SpanKind::Rung,
            format!("round {round}"),
            clock,
            vec![("round", round.into()), ("trials", n.into())],
        );
        let batch_span = telemetry.open_span(
            rung_span,
            SpanKind::Batch,
            format!("batch of {n}"),
            clock,
            vec![],
        );
        let mut items: Vec<Mutex<Option<WorkItem>>> = Vec::with_capacity(n);
        for req in reqs {
            let slot = trials.remove(&req.id);
            let tuner = if slot.is_none() { Some(policy(&req.config)) } else { None };
            items.push(Mutex::new(Some(WorkItem { req, slot, tuner })));
        }
        let results: Vec<Mutex<Option<Result<ItemResult<'_, '_>, PipeTuneError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();

        let workers = env.workers.max(1).min(n);
        let run_item = |i: usize| {
            let item = items[i].lock().unwrap_or_else(PoisonError::into_inner).take();
            let item = item.expect("item claimed once");
            let result = execute_item(env, spec, objective, contention, shared.as_ref(), item);
            *results[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
        };
        if workers <= 1 {
            (0..n).for_each(run_item);
        } else {
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        run_item(i);
                    });
                }
            });
        }

        // Merge in request order: first error (if any) in request order,
        // ground-truth flush in request order, fault deltas and reports in
        // request order.
        let mut durations = Vec::with_capacity(n);
        let mut reports = Vec::with_capacity(n);
        let mut sessions: Vec<GtSession<'_, '_>> = Vec::new();
        let mut cache_sessions: Vec<CacheSession> = Vec::new();
        for cell in results {
            let mut item = cell
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every item executed")?;
            durations.push(item.delta_secs);
            energy += item.delta_energy;
            fault_report.merge(&item.faults);
            if telemetry.is_enabled() {
                // Trial span on the trial-cumulative clock, then the
                // worker-local buffer (epoch spans, pipeline events, trial
                // metrics) merged under it — all in request order.
                let end_secs = item.slot.exec.duration_secs();
                let mut attrs = vec![("trial", item.id.0.into()), ("epochs", item.epochs.into())];
                match item.abandoned {
                    None => {
                        attrs.push(("accuracy", item.accuracy.into()));
                        attrs.push(("score", item.score.into()));
                    }
                    Some(attempts) => attrs.push(("abandoned_after_attempts", attempts.into())),
                }
                let trial_span = telemetry.open_span(
                    batch_span,
                    SpanKind::Trial,
                    format!("trial {}", item.id.0),
                    end_secs - item.delta_secs,
                    attrs,
                );
                let faults = item.faults;
                telemetry
                    .with_metrics(|m| cluster_observe::record_fault_report(&faults, m));
                telemetry.merge_buffer(trial_span, item.slot.exec.telemetry_mut());
                telemetry.close_span(trial_span, end_secs);
            }
            reports.push((item.id, item.accuracy, item.score, item.abandoned));
            sessions.extend(item.session);
            cache_sessions.extend(item.cache_session);
            if item.abandoned.is_none() {
                trials.insert(item.id, item.slot);
            }
        }
        if let Some(shared) = shared.as_ref() {
            shared.flush(sessions)?;
        }

        // Slot-level stragglers: this round's simulated executors may run
        // below nominal speed; work is re-assigned to whichever slot would
        // finish it earliest. The unweighted path is kept verbatim so empty
        // plans stay bit-identical to pre-fault builds.
        let slots = env.parallel_slots.max(1);
        let speeds: Vec<f64> = (0..slots).map(|s| env.fault_plan.slot_speed(round, s)).collect();
        let (completions, makespan) = if speeds.iter().all(|&s| s >= 1.0) {
            SlotSchedule::assign(&durations, slots)
        } else {
            let (completions, weighted) = SlotSchedule::assign_weighted(&durations, &speeds);
            let (_, unweighted) = SlotSchedule::assign(&durations, slots);
            let slow = speeds.iter().filter(|&&s| s < 1.0).count() as u64;
            fault_report.injected += slow;
            fault_report.stragglers += slow;
            fault_report.recovered += slow;
            fault_report.wasted_epoch_secs += (weighted - unweighted).max(0.0);
            if telemetry.is_enabled() {
                for (slot, &speed) in speeds.iter().enumerate() {
                    if speed < 1.0 {
                        telemetry.event(
                            rung_span,
                            EventKind::Fault,
                            clock,
                            vec![
                                ("fault", "slot_straggler".into()),
                                ("slot", slot.into()),
                                ("speed", speed.into()),
                            ],
                        );
                    }
                }
                telemetry.with_metrics(|m| {
                    m.counter_add(cluster_observe::FAULTS_INJECTED, slow);
                    m.counter_add(cluster_observe::FAULTS_STRAGGLERS, slow);
                    m.counter_add(cluster_observe::FAULTS_RECOVERED, slow);
                });
            }
            (completions, weighted)
        };
        telemetry.with_metrics(|m| {
            cluster_observe::record_slot_speeds(&speeds, m);
            m.counter_add(observe::ROUNDS, 1);
            m.observe(observe::BATCH_TRIALS, COUNT_BUCKETS, n as f64);
            m.observe(observe::QUEUE_OCCUPANCY, RATIO_BUCKETS, n as f64 / slots as f64);
        });
        round += 1;

        for ((id, accuracy, score, abandoned), offset) in reports.iter().zip(&completions) {
            if abandoned.is_none() {
                let trial = &trials[id].exec;
                outcomes.push(TrialOutcome {
                    id: id.0,
                    hp: *trial.workload().hyperparams(),
                    accuracy: *accuracy,
                    trial_secs: trial.duration_secs(),
                    completed_at_secs: clock + offset,
                });
                if best.as_ref().is_none_or(|(s, _)| *score > *s) {
                    best = Some((*score, *id));
                }
                reported.push((*score, *id));
            }
            scheduler.report(TrialReport { id: *id, score: *score, epochs_run: 0 });
        }
        clock += makespan;
        // Cache mutations land at the post-batch clock, in request order —
        // same discipline as the ground-truth flush above, so contents and
        // LRU stamps never depend on worker timing.
        if !cache_sessions.is_empty() {
            env.epoch_cache.flush(cache_sessions, clock);
        }
        telemetry.close_span(batch_span, clock);
        telemetry.close_span(rung_span, clock);
        // Online monitoring: stream everything this round recorded through
        // the configured detectors. Incremental (cursor-based), and a
        // strict no-op when either handle is disabled — the live scan and
        // an offline replay of the exported trace see the same stream.
        env.monitor.scan(telemetry);
    }

    // Abandoned trials leave `trials`, so a leader abandoned after its
    // winning report is gone: re-run the election over the reports of
    // surviving trials. Runs that keep their leader never take this path.
    if best.is_some_and(|(_, id)| !trials.contains_key(&id)) {
        best = reported.iter().filter(|(_, id)| trials.contains_key(id)).fold(
            None,
            |acc, &(score, id)| {
                if acc.is_none_or(|(s, _)| score > s) {
                    Some((score, id))
                } else {
                    acc
                }
            },
        );
    }
    let (_, best_id) = best.ok_or_else(|| {
        if fault_report.abandoned > 0 {
            PipeTuneError::InvalidConfig {
                reason: format!(
                    "every trial was abandoned under the fault plan \
                     ({} abandoned); relax the plan or raise the retry budget",
                    fault_report.abandoned
                ),
            }
        } else {
            PipeTuneError::InvalidConfig {
                reason: "scheduler finished without any trial".into(),
            }
        }
    })?;
    telemetry.gauge_set(observe::SCHEDULER_EPOCHS, scheduler.epochs_issued() as f64);
    telemetry.gauge_set(cluster_observe::FAULTS_WASTED_SECS, fault_report.wasted_epoch_secs);
    telemetry
        .gauge_set(cluster_observe::FAULTS_RECOVERY_SECS, fault_report.recovery_overhead_secs);
    let cache_stats =
        env.epoch_cache.stats().unwrap_or_default().delta_since(&cache_stats_before);
    if env.epoch_cache.is_enabled() {
        telemetry.with_metrics(|m| {
            m.counter_add(observe::CACHE_HITS, cache_stats.hits);
            m.counter_add(observe::CACHE_MISSES, cache_stats.misses);
            m.counter_add(observe::CACHE_INSERTS, cache_stats.inserts);
            m.counter_add(observe::CACHE_EVICTIONS, cache_stats.evictions);
        });
        if cache_stats.hits > 0 {
            telemetry.gauge_set(observe::CACHE_SAVED_SECS, cache_stats.saved_secs);
        }
    }
    telemetry.close_span(run_span, clock);

    let best_trial = &mut trials.get_mut(&best_id).expect("best trial exists").exec;
    let best_accuracy = best_trial.accuracy()?;
    let best_hp = *best_trial.workload().hyperparams();
    let best_final_system = best_trial.final_system(env);
    let best_training_secs = best_trial.training_time_secs(env, best_hp.epochs);
    let best_weights = best_trial.workload_mut().export_weights();

    Ok(RunResult {
        best_accuracy,
        best_trial_id: best_id.0,
        best_weights,
        best_hp,
        best_final_system,
        best_training_secs,
        tuning_secs: clock,
        tuning_energy_j: energy,
        epochs_total: scheduler.epochs_issued(),
        outcomes,
        fault_report,
        cache_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_schedule_packs_greedily() {
        let (completions, makespan) = SlotSchedule::assign(&[4.0, 3.0, 2.0, 1.0], 2);
        // Slot A: 4 → +1 = 5; Slot B: 3 → +2 = 5.
        assert_eq!(completions, vec![4.0, 3.0, 5.0, 5.0]);
        assert_eq!(makespan, 5.0);
    }

    #[test]
    fn one_slot_serialises() {
        let (completions, makespan) = SlotSchedule::assign(&[1.0, 2.0, 3.0], 1);
        assert_eq!(completions, vec![1.0, 3.0, 6.0]);
        assert_eq!(makespan, 6.0);
    }

    #[test]
    fn empty_and_zero_inputs_are_safe() {
        let (c, m) = SlotSchedule::assign(&[], 4);
        assert!(c.is_empty());
        assert_eq!(m, 0.0);
        let (c, m) = SlotSchedule::assign(&[0.0, -1.0], 0);
        assert_eq!(c.len(), 2);
        assert_eq!(m, 0.0);
    }

    #[test]
    fn more_slots_never_increase_makespan() {
        let d = [5.0, 4.0, 3.0, 2.0, 1.0, 1.0];
        let (_, m1) = SlotSchedule::assign(&d, 1);
        let (_, m2) = SlotSchedule::assign(&d, 2);
        let (_, m4) = SlotSchedule::assign(&d, 4);
        assert!(m1 >= m2 && m2 >= m4);
    }

    #[test]
    fn weighted_assign_with_healthy_slots_matches_assign() {
        let d = [4.0, 3.0, 2.0, 1.0, 0.5, 6.0];
        let (c_plain, m_plain) = SlotSchedule::assign(&d, 3);
        let (c_w, m_w) = SlotSchedule::assign_weighted(&d, &[1.0, 1.0, 1.0]);
        assert_eq!(c_plain, c_w);
        assert_eq!(m_plain, m_w);
    }

    #[test]
    fn weighted_assign_steers_work_away_from_slow_slot() {
        // Slot 1 runs at half speed: the greedy earliest-finish rule should
        // route most work to slot 0 and finish sooner than naive least-load
        // assignment onto the slow slot would.
        let d = [2.0; 8];
        let (completions, makespan) = SlotSchedule::assign_weighted(&d, &[1.0, 0.5]);
        assert_eq!(completions.len(), d.len());
        // Fast slot absorbs ~2/3 of the items: 16 total units of work at
        // combined speed 1.5 bounds the makespan near 16/1.5 ≈ 10.67.
        assert!(makespan < 14.0, "makespan {makespan}");
        // A straggling slot strictly inflates the makespan vs two healthy
        // slots (8.0).
        let (_, healthy) = SlotSchedule::assign_weighted(&d, &[1.0, 1.0]);
        assert!(makespan > healthy);
    }
}
