//! Figure 13: multi-tenancy average response time for Type-I and Type-II
//! workloads (grouped by type, plus all together), under Poisson arrivals
//! and FIFO scheduling.

use pipetune::prelude::*;
use pipetune_bench::{pct, secs, tuner_options, Report};
use pipetune_service::{multi_tenancy, MultiTenancyOptions, SchedulingPolicy};

fn main() {
    let mut report = Report::new("fig13_multitenant");
    let options = tuner_options();
    let quick = pipetune_bench::quick_mode();
    let jobs = if quick { 4 } else { 8 };

    let mut all_groups = Vec::new();
    for (label, specs, seed) in [
        ("Type-I", vec![WorkloadSpec::lenet_mnist(), WorkloadSpec::lenet_fashion()], 131u64),
        ("Type-II", vec![WorkloadSpec::cnn_news20(), WorkloadSpec::lstm_news20()], 132),
        ("all", WorkloadSpec::all_type12(), 133),
    ] {
        let env = ExperimentEnvBuilder::distributed(seed).build().expect("valid experiment config");
        let mt = MultiTenancyOptions { jobs, arrival_rate_per_sec: 1.0 / 4000.0, seed };
        let outcomes =
            multi_tenancy(&env, &specs, &options, &mt, SchedulingPolicy::Fifo).expect("trace runs");
        let mut rows = Vec::new();
        for o in &outcomes {
            rows.push(vec![o.approach.to_string(), secs(o.overall_secs)]);
        }
        report.line(&format!("\n{label} ({jobs} jobs):"));
        report.table(&["approach", "avg response time"], &rows);
        let v1 = outcomes.iter().find(|o| o.approach == "TuneV1").unwrap().overall_secs;
        let pt = outcomes.iter().find(|o| o.approach == "PipeTune").unwrap().overall_secs;
        let v2 = outcomes.iter().find(|o| o.approach == "TuneV2").unwrap().overall_secs;
        let red_v1 = -pct(pt, v1);
        let red_v2 = -pct(pt, v2);
        report.line(&format!(
            "PipeTune response-time reduction: {red_v1:.0}% vs V1, {red_v2:.0}% vs V2 (paper: up to 30%)"
        ));
        all_groups.push((label, v1, v2, pt));
    }
    report.json("groups", &all_groups);
    report.finish();

    // PipeTune must reduce the average response time vs V1 in every group.
    for (label, v1, _v2, pt) in &all_groups {
        assert!(pt < v1, "{label}: PipeTune {pt:.0}s should beat V1 {v1:.0}s");
    }
}
