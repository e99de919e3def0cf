//! Property-based tests of the DSP invariants.

use proptest::prelude::*;
use sigproc::filter::moving_average_into;
use sigproc::frames::{Frame, FrameBuilder, FrameSeq};
use sigproc::otsu::otsu_threshold;
use sigproc::series::TimeSeries;
use sigproc::stats;
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

    /// A moving average never exceeds the data's range.
    #[test]
    fn moving_average_bounded(
        data in prop::collection::vec(-100.0f64..100.0, 1..100),
        half in 0usize..8,
    ) {
        let lo = stats::min(&data);
        let hi = stats::max(&data);
        let mut smoothed = Vec::new();
        moving_average_into(&data, half, &mut smoothed);
        for v in smoothed {
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
        builder.advance(end); // an intermediate advance must not disturb the final one
        for &(t, i, v) in &samples[mid..] {
            builder.push(i, t, v);
        }
        builder.advance(end);
        prop_assert_eq!(&*builder.shared_frames(), &batch);
    }

    /// The count `FrameBuilder::advance` returns is a promise: across
    /// random push/advance sequences the first *count* frames of each
    /// sequence equal the previous sequence's bit for bit, and the whole
    /// sequence equals a batch build over the samples pushed so far. Each
    /// stream is fed in time order, but the streams interleave at random,
    /// so a push often lands in a frame an earlier advance settled.
    #[test]
    fn frame_builder_reports_only_unchanged_frames(
        specs in prop::collection::vec(
            (
                0.0f64..1.0,                                            // stream start offset
                prop::collection::vec((0.0f64..0.15, -5.0f64..5.0), 0..40), // (dt, value) steps
            ),
            1..4,
        ),
        picks in prop::collection::vec((0usize..4, any::<bool>()), 0..160),
        use_floors in any::<bool>(),
        floor_seed in prop::collection::vec(-0.5f64..1.5, 3..4),
        frame_len in 0.05f64..0.3,
        start in 0.0f64..0.3,
    ) {
        let streams: Vec<Vec<(f64, f64)>> = specs
            .iter()
            .map(|(offset, steps)| {
                let mut t = *offset;
                steps
                    .iter()
                    .map(|&(dt, v)| {
                        t += dt;
                        (t - dt, v)
                    })
                    .collect()
            })
            .collect();
        let floors: Option<Vec<f64>> =
            use_floors.then(|| floor_seed[..streams.len()].to_vec());
        let mut builder = FrameBuilder::new(streams.len(), floors.clone(), start, frame_len);
        let mut fed = vec![TimeSeries::new(); streams.len()];
        let mut next = vec![0usize; streams.len()];
        let mut previous: Vec<Frame> = Vec::new();
        let mut newest = start;
        for &(pick, advance) in &picks {
            // The picked stream's next sample, or the next stream's that
            // has one left.
            let Some(i) = (0..streams.len())
                .map(|d| (pick + d) % streams.len())
                .find(|&i| next[i] < streams[i].len())
            else {
                break;
            };
            let (t, v) = streams[i][next[i]];
            next[i] += 1;
            builder.push(i, t, v);
            fed[i].push(t, v);
            newest = newest.max(t);
            if !advance {
                continue;
            }
            let unchanged = builder.advance(newest);
            let shared = builder.shared_frames();
            let frames = shared.frames();
            prop_assert!(unchanged <= previous.len().min(frames.len()));
            for (k, (old, new)) in previous.iter().zip(frames).take(unchanged).enumerate() {
                prop_assert_eq!(frame_bits(old), frame_bits(new), "frame {} of {}", k, unchanged);
            }
            let batch = FrameSeq::build_with_floors(&fed, floors.as_deref(), start, newest, frame_len);
            prop_assert_eq!(&*builder.shared_frames(), &batch);
            previous = frames.to_vec();
        }
    }

    /// Cutting a time prefix off the history in place — `drop_before` the
    /// first remaining sample, then `refill` each stream up to its newest
    /// removed sample, or all of a stream whose kept values were rewritten
    /// — leaves the frames a batch build on the same origin gives over the
    /// remaining samples, from the first remaining sample's frame on, and
    /// later pushes stay bit-identical to it. Frames the cut moved or
    /// revised are not reported unchanged.
    #[test]
    fn frame_builder_cut_matches_batch_build_on_the_same_grid(
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
        split in 0.0f64..1.0,
        cut in 0.0f64..1.0,
        rewrite in 0usize..5,
    ) {
        let streams: Vec<TimeSeries> = specs
            .iter()
            .map(|(offset, steps)| {
                let mut t = start + *offset;
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
        let mut samples: Vec<(f64, usize, f64)> = streams
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.iter().map(move |(t, v)| (t, i, v)))
            .collect();
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        prop_assume!(!samples.is_empty());
        // Feed a prefix of the samples, cut below a time at or before the
        // newest fed one, then feed the rest.
        let fed = ((samples.len() as f64 * split) as usize).max(1);
        let newest = samples[fed - 1].0;
        let cut = start + (newest - start) * cut;
        let mut builder = FrameBuilder::new(streams.len(), floors.clone(), start, frame_len);
        for &(t, i, v) in &samples[..fed] {
            builder.push(i, t, v);
        }
        builder.advance(newest);
        let before = builder.shared_frames().frames().to_vec();
        // What remains of the fed samples, and of every sample; one stream
        // may have its kept values rewritten, as a re-centred tag's are.
        let keep = |i: usize, (t, v): (f64, f64)| {
            (t >= cut).then_some((t, if i == rewrite { v + 1.0 } else { v }))
        };
        let kept: Vec<TimeSeries> = (0..streams.len())
            .map(|i| {
                samples[..fed]
                    .iter()
                    .filter(|s| s.1 == i)
                    .filter_map(|&(t, _, v)| keep(i, (t, v)))
                    .collect()
            })
            .collect();
        let Some(first) = kept.iter().filter_map(|s| s.times().first().copied()).reduce(f64::min) else {
            return Ok(());
        };
        builder.drop_before(first);
        for (i, s) in kept.iter().enumerate() {
            let until = if i == rewrite {
                f64::INFINITY
            } else {
                streams[i].iter().map(|(t, _)| t).filter(|&t| t < cut).fold(f64::NEG_INFINITY, f64::max)
            };
            builder.refill(i, s, until);
        }
        // The count the next advance reports is still a promise.
        let unchanged = builder.advance(newest);
        let after = builder.shared_frames();
        prop_assert_eq!(&after.frames()[..unchanged], &before[..unchanged]);
        drop(after);
        for &(t, i, v) in &samples[fed..] {
            builder.push(i, t, if i == rewrite { v + 1.0 } else { v });
        }
        let end = samples.last().expect("nonempty").0;
        builder.advance(end);
        let remaining: Vec<TimeSeries> = (0..streams.len())
            .map(|i| streams[i].iter().filter_map(|s| keep(i, s)).collect())
            .collect();
        let batch = FrameSeq::build_with_floors(&remaining, floors.as_deref(), start, end, frame_len);
        let from = batch.frames().iter().position(|f| f.end() > first).unwrap_or(batch.len());
        let frames = builder.shared_frames();
        prop_assert_eq!(frames.frames(), &batch.frames()[from..]);
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

/// Every field of a frame, as bits.
fn frame_bits(f: &Frame) -> [u64; 4] {
    [
        f.start.to_bits(),
        f.duration.to_bits(),
        f.rms.to_bits(),
        f.samples as u64,
    ]
}
