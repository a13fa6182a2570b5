//! Second property-test suite: clustering density invariants, wire-format
//! round-trips, the processor-sharing scheduling engine, simulated time,
//! arrivals and the dropout/conv layers' stochastic contracts.

use pipetune_cluster::{PoissonArrivals, SimTime};
use pipetune_clustering::{Dbscan, DbscanLabel};
use pipetune_service::{PolicyEngine, SchedulingPolicy};
use pipetune_tsdb::Point;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dbscan_core_points_are_never_noise(
        n_per_blob in 4usize..12,
        sep in 5.0..50.0f64,
    ) {
        let mut data = Vec::new();
        for i in 0..n_per_blob {
            let j = i as f64 * 0.1;
            data.push(vec![j, 0.0]);
            data.push(vec![sep + j, sep]);
        }
        let model = Dbscan::new(1.5, 3).fit(&data).unwrap();
        // Every point sits in a dense blob → no noise at all, two clusters.
        prop_assert_eq!(model.noise_count(), 0);
        prop_assert_eq!(model.num_clusters(), 2);
        // Predictions on training points match their labels.
        for (p, &l) in data.iter().zip(model.labels()) {
            let (pl, _) = model.predict(p);
            prop_assert_eq!(pl, l);
        }
    }

    #[test]
    fn dbscan_labels_are_dense_consecutive_ids(
        seed_jitter in 0.0..0.3f64,
    ) {
        let mut data = Vec::new();
        for b in 0..3 {
            for i in 0..5 {
                data.push(vec![b as f64 * 10.0 + i as f64 * seed_jitter.max(0.01), 0.0]);
            }
        }
        let model = Dbscan::new(1.0, 3).fit(&data).unwrap();
        let max_label = model
            .labels()
            .iter()
            .filter_map(DbscanLabel::cluster)
            .max()
            .unwrap_or(0);
        prop_assert_eq!(max_label + 1, model.num_clusters());
    }

    #[test]
    fn line_protocol_round_trips_arbitrary_points(
        measurement in "[a-zA-Z][a-zA-Z0-9 ,=_-]{0,16}",
        tag_val in "[a-zA-Z0-9 ,=/_-]{0,12}",
        value in -1e12..1e12f64,
        ts in 0u64..u64::MAX / 2,
    ) {
        let p = Point::new(measurement.clone(), ts)
            .tag("k", tag_val.clone())
            .field("v", value);
        let line = p.to_line_protocol();
        let back = Point::from_line_protocol(&line).unwrap();
        prop_assert_eq!(back.measurement(), measurement.as_str());
        prop_assert_eq!(back.tag_value("k"), Some(tag_val.as_str()));
        prop_assert_eq!(back.timestamp_us(), ts);
        let v = back.field_value("v").unwrap();
        prop_assert!((v - value).abs() <= value.abs() * 1e-12 + 1e-12);
    }

    #[test]
    fn processor_sharing_preserves_work_and_ordering(
        arrivals in proptest::collection::vec(0.0..1000.0f64, 1..12),
        services in proptest::collection::vec(1.0..500.0f64, 12),
    ) {
        // Feed the jobs to a one-server processor-sharing engine in arrival
        // order (ties by index), the way the service driver does.
        let mut order: Vec<usize> = (0..arrivals.len()).collect();
        order.sort_by(|&a, &b| arrivals[a].total_cmp(&arrivals[b]).then(a.cmp(&b)));
        let mut engine = PolicyEngine::new(SchedulingPolicy::ProcessorSharing, 1);
        let mut done = Vec::new();
        for id in order {
            done.extend(engine.advance_to(arrivals[id]));
            engine.insert(id, services[id]);
        }
        done.extend(engine.drain());
        prop_assert_eq!(done.len(), arrivals.len());
        // Response at least the dedicated service time; completion ordering
        // is non-decreasing; total busy time conserved.
        let mut total_service = 0.0;
        for c in &done {
            prop_assert!(c.at_secs - arrivals[c.job] >= services[c.job] - 1e-6);
            total_service += services[c.job];
        }
        prop_assert!(done.windows(2).all(|w| w[0].at_secs <= w[1].at_secs + 1e-9));
        let span_end = done.iter().map(|c| c.at_secs).fold(0.0, f64::max);
        let first_arrival = arrivals.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert!(span_end >= first_arrival + total_service / arrivals.len() as f64 - 1e-6);
        prop_assert!(span_end <= first_arrival + total_service + 1000.0 + 1e-6);
    }

    #[test]
    fn simtime_round_trip_is_microsecond_exact(
        secs in 0.0..1e7f64,
    ) {
        let t = SimTime::from_secs_f64(secs);
        prop_assert!((t.as_secs_f64() - secs).abs() < 1e-6);
    }

    #[test]
    fn simtime_plus_minus_are_inverse(
        a in 0u64..1_000_000_000,
        b in 0u64..1_000_000_000,
    ) {
        let ta = SimTime::from_micros(a);
        let tb = SimTime::from_micros(b);
        prop_assert_eq!(ta.plus(tb).minus(tb), ta);
    }

    #[test]
    fn poisson_arrivals_are_strictly_ordered_and_positive(
        rate in 0.001..10.0f64,
        seed in 0u64..500,
    ) {
        let mut p = PoissonArrivals::new(rate, seed);
        let times = p.take_arrivals(50);
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(times[0] > SimTime::ZERO);
    }

    #[test]
    fn dropout_keeps_expectation_for_any_rate(
        rate in 0.0..0.9f32,
        seed in 0u64..200,
    ) {
        use pipetune_dnn::Dropout;
        use pipetune_tensor::Tensor;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut drop = Dropout::new(rate).unwrap();
        let x = Tensor::ones(&[4000]);
        let y = drop.forward(&x, true, &mut rng);
        let mean = f64::from(y.mean());
        // The survivor mean's standard error grows like
        // sqrt(keep·scale² − 1)/sqrt(n); allow 5 sigma.
        let keep = f64::from(1.0 - rate);
        let sigma = ((1.0 / keep - 1.0).max(0.0) / 4000.0).sqrt();
        prop_assert!((mean - 1.0).abs() < 0.05 + 5.0 * sigma, "rate {rate}: mean {mean}");
    }

    #[test]
    fn conv2d_is_linear_in_the_input(
        seed in 0u64..200,
        alpha in -3.0..3.0f32,
    ) {
        use pipetune_tensor::{conv2d, Tensor};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = Tensor::randn(&[1, 1, 6, 6], 1.0, &mut rng);
        let w = Tensor::randn(&[2, 1, 3, 3], 0.5, &mut rng);
        let zero_bias = Tensor::zeros(&[2]);
        let y1 = conv2d(&x.scale(alpha), &w, &zero_bias).unwrap();
        let y2 = conv2d(&x, &w, &zero_bias).unwrap().scale(alpha);
        for (a, b) in y1.data().iter().zip(y2.data()) {
            prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }
}
