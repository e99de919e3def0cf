//! `sigproc_frames_built_total` counts each frame once.
//!
//! The counter is process-global, so this check is a test binary of its
//! own: no other test builds frames while it counts.

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
    let batch = FrameSeq::build(&[series], 0.0, 2.99, 0.1);
    assert_eq!(frames_built() - before, batch.len() as u64);

    // The settled frames are those ending by the newest sample (2.99 s);
    // the live tail frame is cut on every advance but never settles.
    let settled = batch.frames().iter().filter(|f| f.end() <= 2.99).count();
    assert_eq!(settled, 29);
    assert_eq!(streamed, settled as u64);
}
