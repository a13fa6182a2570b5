//! Multi-tenancy experiment driver (§7.4, Figs. 13 & 14).
//!
//! One Poisson trace of tuning jobs is replayed under each approach (Tune
//! V1, Tune V2 and a cold PipeTune). Every job is a full tuning run on a
//! dedicated cluster; its measured tuning time becomes the job's service
//! time in a single-server [`PolicyEngine`], which turns the
//! `(arrival, service)` stream into completions under the chosen
//! [`SchedulingPolicy`]: [`SchedulingPolicy::Fifo`] is the paper's §5.1
//! queue, [`SchedulingPolicy::ProcessorSharing`] Fig. 5's co-location
//! regime.

use pipetune::{
    ExperimentEnv, PipeTune, PipeTuneError, TuneV1, TuneV2, TunerOptions, WorkloadSpec,
};
use pipetune_cluster::PoissonArrivals;
use serde::{Deserialize, Serialize};

use crate::engine::PolicyEngine;
use crate::policy::SchedulingPolicy;

/// Multi-tenancy trace parameters (§7.4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiTenancyOptions {
    /// Number of HPT jobs in the trace.
    pub jobs: usize,
    /// Poisson arrival rate, jobs per (simulated) second.
    pub arrival_rate_per_sec: f64,
    /// Trace seed.
    pub seed: u64,
}

impl Default for MultiTenancyOptions {
    fn default() -> Self {
        MultiTenancyOptions { jobs: 8, arrival_rate_per_sec: 1.0 / 3000.0, seed: 7 }
    }
}

/// Per-approach response-time summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiTenancyOutcome {
    /// `TuneV1`, `TuneV2` or `PipeTune`.
    pub approach: &'static str,
    /// Mean response time (completion − arrival) per workload, seconds,
    /// keyed by workload name.
    pub per_workload_secs: Vec<(String, f64)>,
    /// Mean response time over all jobs, seconds.
    pub overall_secs: f64,
}

/// Runs the multi-tenancy experiment: jobs arrive with exponential
/// interarrival times and share the cluster under `policy`; within a job,
/// trials use the whole cluster. Workloads rotate round-robin over
/// `specs`, so later jobs repeat families seen earlier — the repetition
/// PipeTune's ground truth exploits. The first arrival of each family
/// plays the paper's "unseen job" role (with `specs.len()` families and
/// the default 8-job trace this is ~25 % unseen, close to the paper's
/// 20 %).
///
/// # Errors
///
/// Returns [`PipeTuneError::InvalidConfig`] for an empty `specs`, zero
/// jobs, or an arrival rate that is not finite and positive; propagates
/// substrate and configuration errors from the tuning runs.
pub fn multi_tenancy(
    env: &ExperimentEnv,
    specs: &[WorkloadSpec],
    options: &TunerOptions,
    mt: &MultiTenancyOptions,
    policy: SchedulingPolicy,
) -> Result<Vec<MultiTenancyOutcome>, PipeTuneError> {
    if specs.is_empty() || mt.jobs == 0 {
        return Err(PipeTuneError::InvalidConfig {
            reason: "multi-tenancy needs at least one spec and one job".into(),
        });
    }
    if !(mt.arrival_rate_per_sec.is_finite() && mt.arrival_rate_per_sec > 0.0) {
        return Err(PipeTuneError::InvalidConfig {
            reason: format!(
                "arrival rate must be finite and positive, got {}",
                mt.arrival_rate_per_sec
            ),
        });
    }
    let mut arrivals = PoissonArrivals::new(mt.arrival_rate_per_sec, mt.seed);
    let schedule: Vec<(f64, WorkloadSpec)> = (0..mt.jobs)
        .map(|i| (arrivals.next_arrival().as_secs_f64(), specs[i % specs.len()]))
        .collect();

    let mut results = Vec::new();
    for approach in ["TuneV1", "TuneV2", "PipeTune"] {
        let mut v1 = TuneV1::new(*options);
        let mut v2 = TuneV2::new(*options);
        // PipeTune starts cold here: the ground truth is built *by the
        // trace itself* (§7.4 measures exactly this amortisation).
        let mut pt = PipeTune::new(*options);
        // Arrivals are strictly increasing, so inserting in trace order
        // is the engine's required (arrival, submission) order.
        let mut engine = PolicyEngine::new(policy, 1);
        let mut completion_secs = vec![0.0f64; mt.jobs];
        for (job, (arrival, spec)) in schedule.iter().enumerate() {
            let tuning_secs = match approach {
                "TuneV1" => v1.run(env, spec)?.tuning_secs,
                "TuneV2" => v2.run(env, spec)?.tuning_secs,
                _ => pt.run(env, spec)?.tuning_secs,
            };
            for c in engine.advance_to(*arrival) {
                completion_secs[c.job] = c.at_secs;
            }
            engine.insert(job, tuning_secs);
        }
        for c in engine.drain() {
            completion_secs[c.job] = c.at_secs;
        }

        let mut per: std::collections::BTreeMap<String, (f64, usize)> = Default::default();
        let mut total = 0.0f64;
        for ((arrival, spec), completion) in schedule.iter().zip(&completion_secs) {
            let response = completion - arrival;
            total += response;
            let e = per.entry(spec.name().to_string()).or_insert((0.0, 0));
            e.0 += response;
            e.1 += 1;
        }
        results.push(MultiTenancyOutcome {
            approach,
            per_workload_secs: per.into_iter().map(|(k, (sum, n))| (k, sum / n as f64)).collect(),
            overall_secs: total / mt.jobs as f64,
        });
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_reports_all_three_approaches() {
        let env = ExperimentEnv::distributed(33);
        let specs = [WorkloadSpec::lenet_mnist()];
        let mt = MultiTenancyOptions { jobs: 2, arrival_rate_per_sec: 1.0 / 1000.0, seed: 3 };
        let out = multi_tenancy(&env, &specs, &TunerOptions::fast(), &mt, SchedulingPolicy::Fifo)
            .unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|o| o.overall_secs > 0.0));
        assert!(out.iter().all(|o| o.per_workload_secs.len() == 1));
    }

    #[test]
    fn processor_sharing_also_reports_and_pipetune_wins() {
        let env = ExperimentEnv::distributed(35);
        let specs = [WorkloadSpec::lenet_mnist()];
        let mt = MultiTenancyOptions { jobs: 3, arrival_rate_per_sec: 1.0 / 500.0, seed: 5 };
        let out = multi_tenancy(
            &env,
            &specs,
            &TunerOptions::fast(),
            &mt,
            SchedulingPolicy::ProcessorSharing,
        )
        .unwrap();
        assert_eq!(out.len(), 3);
        let v1 = out.iter().find(|o| o.approach == "TuneV1").unwrap().overall_secs;
        let pt = out.iter().find(|o| o.approach == "PipeTune").unwrap().overall_secs;
        assert!(pt < v1, "sharing should not erase PipeTune's advantage: {pt} vs {v1}");
    }

    #[test]
    fn rejects_empty_traces() {
        let env = ExperimentEnv::distributed(34);
        let mt = MultiTenancyOptions { jobs: 0, ..Default::default() };
        let err = multi_tenancy(
            &env,
            &[WorkloadSpec::bfs()],
            &TunerOptions::fast(),
            &mt,
            SchedulingPolicy::Fifo,
        );
        assert!(matches!(err, Err(PipeTuneError::InvalidConfig { .. })));
        let mt = MultiTenancyOptions::default();
        let err = multi_tenancy(&env, &[], &TunerOptions::fast(), &mt, SchedulingPolicy::Fifo);
        assert!(matches!(err, Err(PipeTuneError::InvalidConfig { .. })));
    }

    #[test]
    fn rejects_bad_arrival_rates_with_a_typed_error() {
        let env = ExperimentEnv::distributed(36);
        for rate in [0.0, -1.0 / 3000.0, f64::NAN, f64::INFINITY] {
            let mt = MultiTenancyOptions { arrival_rate_per_sec: rate, ..Default::default() };
            let err = multi_tenancy(
                &env,
                &[WorkloadSpec::bfs()],
                &TunerOptions::fast(),
                &mt,
                SchedulingPolicy::Fifo,
            );
            assert!(
                matches!(err, Err(PipeTuneError::InvalidConfig { .. })),
                "rate {rate} must be rejected, got {err:?}"
            );
        }
    }
}
