//! `sigproc_frames_built_total` counts each frame once, and a cut of the
//! history rebuilds only the frame it falls inside.
//!
//! The counter is process-global, so these checks are a test binary of
//! their own, run in one test: nothing else builds frames while they count.

use sigproc::frames::{FrameBuilder, FrameSeq};
use sigproc::series::TimeSeries;

fn frames_built() -> u64 {
    obs::registry()
        .counter("sigproc_frames_built_total", "", &[])
        .get()
}

#[test]
fn a_build_per_sample_counts_each_settled_frame_once() {
    // 3 s of one stream at 100 Hz, advanced after every sample: a tick per
    // report, the most a live feed asks of the builder.
    let series: TimeSeries = (0..300).map(|i| (i as f64 * 0.01, 1.0)).collect();
    let mut builder = FrameBuilder::new(1, None, 0.0, 0.1);
    let before = frames_built();
    for (t, v) in series.iter() {
        builder.push(0, t, v);
        builder.advance(t);
    }
    let streamed = frames_built() - before;

    // A batch build counts every frame it cuts.
    let before = frames_built();
    let batch = FrameSeq::build(std::slice::from_ref(&series), 0.0, 2.99, 0.1);
    assert_eq!(frames_built() - before, batch.len() as u64);

    // The settled frames are those ending by the newest sample (2.99 s);
    // the live tail frame is cut on every advance but never settles.
    let settled = batch.frames().iter().filter(|f| f.end() <= 2.99).count();
    assert_eq!(settled, 29);
    assert_eq!(streamed, settled as u64);

    // Cutting the first 1.45 s off drops frames 0–13 and rebuilds frame 14
    // alone, once its samples before the cut are gone; the 14 frames after
    // it stand.
    let kept: TimeSeries = series.iter().filter(|&(t, _)| t >= 1.45).collect();
    let before = frames_built();
    builder.drop_before(1.45);
    builder.refill(0, &kept, 1.44);
    builder.advance(2.99);
    assert_eq!(frames_built() - before, 1);
    let batch = FrameSeq::build(&[kept], 0.0, 2.99, 0.1);
    assert_eq!(builder.shared_frames().frames(), &batch.frames()[14..]);
}
