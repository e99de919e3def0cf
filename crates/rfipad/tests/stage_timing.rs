//! Every stage that runs on a tick is timed under the default head
//! sampler. This is the only test in its binary, so nothing else advances
//! the process-wide sampler between its decisions.

use rfid_gen2::report::{TagId, TagReport};
use rfipad::prelude::*;

/// A pad nobody writes on: three tags read in turn at 60 reads/s.
fn quiet(step: u64) -> TagReport {
    let tag = step % 3;
    TagReport::synthetic(TagId(tag), step as f64 / 60.0, 1.0 + tag as f64, -45.0)
}

#[test]
fn every_ticking_stage_is_timed_under_the_default_sampler() {
    let layout = ArrayLayout::new(1, 3, (0..3).map(TagId).collect());
    let config = RfipadConfig::default();
    let still: Vec<TagReport> = (0..120).map(quiet).collect();
    let calibration = Calibration::from_observations(&layout, &still, &config).expect("calibrates");
    let recognizer = Recognizer::builder()
        .layout(layout)
        .calibration(calibration)
        .config(config)
        .build()
        .expect("recognizer");
    let mut graph = StageGraph::builder()
        .recognizer(recognizer)
        .build()
        .expect("stage graph");
    // 20 s of reports: about 200 frame ticks, each driving segmentation,
    // motion and letter once. A quiet stream closes no letter, so the
    // grammar stage never runs.
    let mut events = Vec::new();
    for step in 0..1_200 {
        graph.push_into(quiet(step), &mut events);
    }
    graph.finish_into(&mut events);
    assert!(
        events.is_empty(),
        "a quiet stream emits nothing: {events:?}"
    );
    let untimed: Vec<&str> = ["framing", "segmentation", "motion", "letter"]
        .into_iter()
        .filter(|stage| {
            let hop = format!("stage:{stage}");
            obs::registry()
                .histogram(
                    "rfipad_hop_seconds",
                    "",
                    &[("hop", &hop)],
                    obs::metrics::DEFAULT_DURATION_BOUNDS_NS,
                )
                .count()
                == 0
        })
        .collect();
    assert!(untimed.is_empty(), "never timed: {untimed:?}");
}
