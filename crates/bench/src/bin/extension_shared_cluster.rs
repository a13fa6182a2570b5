//! Extension: FIFO queueing vs. processor-shared co-location.
//!
//! The paper schedules HPT jobs FIFO (§5.1) but probes co-location effects
//! in Fig. 5. This experiment runs the same Poisson trace under both
//! regimes and compares average response times per approach — PipeTune's
//! shorter service times help in both, but sharing compresses the queueing
//! delay while stretching every job's wall time.

use pipetune::prelude::*;
use pipetune_bench::{pct, secs, tuner_options, Report};
use pipetune_service::{multi_tenancy, MultiTenancyOptions, SchedulingPolicy};

fn main() {
    let mut report = Report::new("extension_shared_cluster");
    let options = tuner_options();
    let specs = [WorkloadSpec::lenet_mnist(), WorkloadSpec::cnn_news20()];
    let mt = MultiTenancyOptions {
        jobs: if pipetune_bench::quick_mode() { 4 } else { 6 },
        arrival_rate_per_sec: 1.0 / 3000.0,
        seed: 470,
    };

    let env = ExperimentEnvBuilder::distributed(470).build().expect("valid experiment config");
    let run = |policy| multi_tenancy(&env, &specs, &options, &mt, policy);
    let fifo = run(SchedulingPolicy::Fifo).expect("fifo trace runs");
    let shared = run(SchedulingPolicy::ProcessorSharing).expect("shared trace runs");

    let mut rows = Vec::new();
    let mut gains = Vec::new();
    for (f, s) in fifo.iter().zip(&shared) {
        assert_eq!(f.approach, s.approach);
        rows.push(vec![
            f.approach.to_string(),
            secs(f.overall_secs),
            secs(s.overall_secs),
            format!("{:+.0}%", pct(s.overall_secs, f.overall_secs)),
        ]);
        gains.push((f.approach, f.overall_secs, s.overall_secs));
    }
    report.table(
        &["approach", "FIFO response", "shared response", "shared vs FIFO"],
        &rows,
    );
    let v1 = gains.iter().find(|g| g.0 == "TuneV1").unwrap();
    let pt = gains.iter().find(|g| g.0 == "PipeTune").unwrap();
    report.line(&format!(
        "\nPipeTune under sharing: {:.0}% vs V1 (FIFO: {:.0}%)",
        -pct(pt.2, v1.2),
        -pct(pt.1, v1.1)
    ));
    report.json("gains", &gains);
    report.finish();

    // PipeTune must keep its advantage in both regimes.
    assert!(pt.1 < v1.1, "FIFO advantage lost");
    assert!(pt.2 < v1.2, "sharing advantage lost");
}
