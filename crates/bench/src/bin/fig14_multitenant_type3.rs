//! Figure 14: multi-tenancy average response time for the Type-III kernels
//! on the single-node testbed, per kernel and all together.

use pipetune::prelude::*;
use pipetune_bench::{pct, secs, tuner_options, Report};
use pipetune_service::{multi_tenancy, MultiTenancyOptions, SchedulingPolicy};

fn main() {
    let mut report = Report::new("fig14_multitenant_type3");
    let options = tuner_options();
    let quick = pipetune_bench::quick_mode();
    let jobs_single = if quick { 3 } else { 6 };

    let mut all_groups = Vec::new();
    let singles = [
        ("jacobi", vec![WorkloadSpec::jacobi()], 141u64),
        ("bfs", vec![WorkloadSpec::bfs()], 142),
        ("spkmeans", vec![WorkloadSpec::spkmeans()], 143),
        ("all", WorkloadSpec::all_type3(), 144),
    ];
    for (label, specs, seed) in singles {
        let env = ExperimentEnvBuilder::single_node(seed).build().expect("valid experiment config");
        let mt = MultiTenancyOptions { jobs: jobs_single, arrival_rate_per_sec: 1.0 / 500.0, seed };
        let outcomes =
            multi_tenancy(&env, &specs, &options, &mt, SchedulingPolicy::Fifo).expect("trace runs");
        let mut rows = Vec::new();
        for o in &outcomes {
            rows.push(vec![o.approach.to_string(), secs(o.overall_secs)]);
        }
        report.line(&format!("\n{label} ({jobs_single} jobs, single node):"));
        report.table(&["approach", "avg response time"], &rows);
        let v1 = outcomes.iter().find(|o| o.approach == "TuneV1").unwrap().overall_secs;
        let pt = outcomes.iter().find(|o| o.approach == "PipeTune").unwrap().overall_secs;
        report.line(&format!(
            "PipeTune response-time reduction vs V1: {:.0}% (paper: up to 65%)",
            -pct(pt, v1)
        ));
        all_groups.push((label, v1, pt));
    }
    report.json("groups", &all_groups);
    report.finish();

    // Paper: "the performance gain trends earlier observed become even more
    // evident" — PipeTune must beat V1 overall.
    let (_, v1_all, pt_all) = all_groups.last().unwrap();
    assert!(pt_all < v1_all, "PipeTune {pt_all:.0}s should beat V1 {v1_all:.0}s on the mixed trace");
}
