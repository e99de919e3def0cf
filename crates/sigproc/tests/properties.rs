//! Property-based tests of the DSP invariants.

use proptest::prelude::*;
use sigproc::filter::moving_average;
use sigproc::frames::{FrameBuilder, FrameSeq};
use sigproc::otsu::otsu_threshold;
use sigproc::series::TimeSeries;
use sigproc::stats::{self, Welford};
use sigproc::unwrap::{unwrap_phase, wrap_phase, StreamingUnwrapper};

proptest! {
    /// Any true phase sequence whose steps stay below π survives the
    /// wrap→unwrap round trip exactly (up to the 2π offset of the start).
    #[test]
    fn unwrap_recovers_bounded_step_sequences(
        start in -20.0f64..20.0,
        steps in prop::collection::vec(-3.0f64..3.0, 1..200),
    ) {
        let mut truth = vec![start];
        for s in &steps {
            let last = *truth.last().unwrap();
            truth.push(last + s);
        }
        let wrapped: Vec<f64> = truth.iter().map(|&p| wrap_phase(p)).collect();
        let unwrapped = unwrap_phase(&wrapped);
        let offset = unwrapped[0] - truth[0];
        // Offset must be a multiple of 2π…
        let cycles = offset / std::f64::consts::TAU;
        prop_assert!((cycles - cycles.round()).abs() < 1e-6);
        // …and the trend must match everywhere.
        for (u, t) in unwrapped.iter().zip(&truth) {
            prop_assert!((u - t - offset).abs() < 1e-6);
        }
    }

    /// Wrapping always lands in [0, 2π) and is idempotent.
    #[test]
    fn wrap_phase_range_and_idempotence(p in -1e4f64..1e4) {
        let w = wrap_phase(p);
        prop_assert!((0.0..std::f64::consts::TAU).contains(&w));
        prop_assert!((wrap_phase(w) - w).abs() < 1e-9);
    }

    /// Streaming unwrapping equals batch unwrapping on any input.
    #[test]
    fn streaming_equals_batch(values in prop::collection::vec(0.0f64..std::f64::consts::TAU, 0..100)) {
        let batch = unwrap_phase(&values);
        let mut s = StreamingUnwrapper::new();
        let streamed: Vec<f64> = values.iter().map(|&v| s.push(v)).collect();
        prop_assert_eq!(batch, streamed);
    }

    /// Otsu's threshold always separates two well-separated clusters.
    #[test]
    fn otsu_separates_clusters(
        lo_count in 5usize..60,
        hi_count in 5usize..60,
        gap in 2.0f64..50.0,
        noise in 0.0f64..0.4,
    ) {
        let mut data = Vec::new();
        for i in 0..lo_count {
            data.push((i as f64 * 0.37).sin() * noise);
        }
        for i in 0..hi_count {
            data.push(gap + (i as f64 * 0.53).cos() * noise);
        }
        let t = otsu_threshold(&data).expect("bimodal data has a threshold");
        prop_assert!(t > noise && t < gap - noise, "threshold {} outside gap", t);
    }

    /// Welford's online accumulator matches batch statistics.
    #[test]
    fn welford_matches_batch(data in prop::collection::vec(-1e3f64..1e3, 2..200)) {
        let mut w = Welford::new();
        for &x in &data {
            w.push(x);
        }
        prop_assert!((w.mean() - stats::mean(&data)).abs() < 1e-6);
        prop_assert!((w.population_variance() - stats::variance(&data)).abs() < 1e-3);
    }

    /// A moving average never exceeds the data's range.
    #[test]
    fn moving_average_bounded(
        data in prop::collection::vec(-100.0f64..100.0, 1..100),
        half in 0usize..8,
    ) {
        let lo = stats::min(&data);
        let hi = stats::max(&data);
        for v in moving_average(&data, half) {
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }

    /// Resampling a series stays inside the original time span and value
    /// envelope (linear interpolation cannot overshoot).
    #[test]
    fn resample_stays_in_envelope(
        n in 2usize..50,
        dt in 0.01f64..0.5,
    ) {
        let ts: TimeSeries = (0..n)
            .map(|i| (i as f64 * 0.13, ((i * 31) % 17) as f64))
            .collect();
        let lo = stats::min(ts.values());
        let hi = stats::max(ts.values());
        let r = ts.resample(dt);
        for (t, v) in r.iter() {
            prop_assert!(t >= ts.start_time().unwrap() - 1e-9);
            prop_assert!(t <= ts.end_time().unwrap() + 1e-9);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }

    /// `window` borrows exactly the samples a `start <= t < end` filter
    /// keeps, for any bounds: inverted, NaN, infinite or outside the
    /// series, over series with repeated timestamps.
    #[test]
    fn window_matches_a_filter_over_all_samples(
        steps in prop::collection::vec(0u8..3, 0..80),
        start_kind in 0u8..8,
        start in -2.0f64..10.0,
        end_kind in 0u8..8,
        end in -2.0f64..10.0,
    ) {
        // Kinds 0–2 pick a special bound; the rest keep the drawn value.
        let bound = |kind: u8, x: f64| match kind {
            0 => f64::NAN,
            1 => f64::NEG_INFINITY,
            2 => f64::INFINITY,
            _ => x,
        };
        let (start, end) = (bound(start_kind, start), bound(end_kind, end));
        let mut t = 0.0;
        let ts: TimeSeries = steps
            .iter()
            .enumerate()
            .map(|(i, &step)| {
                t += f64::from(step) * 0.1;
                (t, i as f64)
            })
            .collect();
        let (times, values) = ts.window(start, end);
        let (want_times, want_values): (Vec<f64>, Vec<f64>) =
            ts.iter().filter(|&(t, _)| t >= start && t < end).unzip();
        prop_assert_eq!(times, &want_times[..]);
        prop_assert_eq!(values, &want_values[..]);
    }

    /// The streaming `FrameBuilder` emits frames **bit-identical** to the
    /// batch `FrameSeq::build_with_floors` for any stream count, sample
    /// interleaving, ragged per-stream spans (including empty frames and
    /// empty streams), noise floors, and a mid-feed intermediate build.
    #[test]
    fn frame_builder_matches_batch_build(
        specs in prop::collection::vec(
            (
                0.0f64..1.0,                                            // stream start offset
                prop::collection::vec((0.0f64..0.15, -5.0f64..5.0), 0..40), // (dt, value) steps
            ),
            1..4,
        ),
        use_floors in any::<bool>(),
        floor_seed in prop::collection::vec(-0.5f64..1.5, 3..4),
        frame_len in 0.05f64..0.3,
        start in 0.0f64..0.3,
        span in 0.0f64..2.5,
    ) {
        let streams: Vec<TimeSeries> = specs
            .iter()
            .map(|(offset, steps)| {
                let mut t = *offset;
                let mut ts = TimeSeries::new();
                for &(dt, v) in steps {
                    ts.push(t, v);
                    t += dt;
                }
                ts
            })
            .collect();
        let floors: Option<Vec<f64>> =
            use_floors.then(|| floor_seed[..streams.len()].to_vec());
        let end = start + span;
        let batch = FrameSeq::build_with_floors(&streams, floors.as_deref(), start, end, frame_len);

        let mut builder = FrameBuilder::new(streams.len(), floors, start, frame_len);
        // Interleave samples in global time order, as a live feed would
        // deliver them; the stable sort keeps each stream's own order.
        let mut samples: Vec<(f64, usize, f64)> = streams
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.iter().map(move |(t, v)| (t, i, v)))
            .collect();
        samples.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN times"));
        let mid = samples.len() / 2;
        for &(t, i, v) in &samples[..mid] {
            builder.push(i, t, v);
        }
        let _ = builder.build(end); // intermediate build must not disturb the final one
        for &(t, i, v) in &samples[mid..] {
            builder.push(i, t, v);
        }
        prop_assert_eq!(builder.build(end), batch);
    }

    /// The cursor-sweep `resample_into` is bit-identical to a per-grid-point
    /// `interpolate` walk (the previous implementation).
    #[test]
    fn resample_into_matches_pointwise_interpolate(
        steps in prop::collection::vec((0.0f64..0.3, -10.0f64..10.0), 2..60),
        dt in 0.01f64..0.5,
    ) {
        let mut t = 0.0;
        let mut ts = TimeSeries::new();
        for &(step, v) in &steps {
            ts.push(t, v);
            t += step;
        }
        let mut reference = TimeSeries::new();
        let start = ts.start_time().expect("nonempty");
        let end = ts.end_time().expect("nonempty");
        let mut g = start;
        while g <= end + 1e-12 {
            if let Some(v) = ts.interpolate(g.min(end)) {
                reference.push(g.min(end), v);
            }
            g += dt;
        }
        let mut out = TimeSeries::new();
        ts.resample_into(dt, &mut out);
        prop_assert_eq!(out, reference);
    }

    /// Percentiles are monotone in the requested quantile.
    #[test]
    fn percentiles_monotone(data in prop::collection::vec(-50.0f64..50.0, 1..100)) {
        let p25 = stats::percentile(&data, 25.0);
        let p50 = stats::percentile(&data, 50.0);
        let p75 = stats::percentile(&data, 75.0);
        prop_assert!(p25 <= p50 + 1e-12);
        prop_assert!(p50 <= p75 + 1e-12);
    }
}
