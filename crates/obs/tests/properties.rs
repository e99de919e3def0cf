//! Property and concurrency tests for the obs metric primitives, plus
//! hostile-input tests for the strict JSON reader.

use obs::json;
use obs::metrics::{Histogram, SAMPLE_WINDOW};
use proptest::prelude::*;
use std::sync::Arc;

/// The reference percentile definition the histogram window must match:
/// sort and pick `round((len - 1) * p)`, the formula behind every engine
/// session's push-latency percentiles.
fn reference_percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Reference bucketing: count of samples `<=` each bound, cumulatively.
fn reference_buckets(samples: &[u64], bounds: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(bounds.len() + 1);
    for &b in bounds {
        out.push(samples.iter().filter(|&&s| s <= b).count() as u64);
    }
    out.push(samples.len() as u64);
    out
}

/// A valid document with every kind of value, nested like a checkpoint.
const SAMPLE_DOC: &str = r#"{"version":1,"policy":"clamp","bits":18446744073709551615,
 "stages":{"letter":{"pending":[{"bbox":[0,1,0,1],"mask":"010","ok":true}]}},
 "name":"tab\tquote\"\u00e9\ud83d\ude00","neg":-0.5e-3,"none":null,"list":[]}"#;

proptest! {
    /// Arbitrary bytes never panic the reader.
    #[test]
    fn random_bytes_never_panic_parse(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = json::parse(&String::from_utf8_lossy(&bytes));
    }

    /// Flipping, dropping, or inserting one byte of a valid document never
    /// panics the reader.
    #[test]
    fn one_byte_mutations_never_panic_parse(
        op in 0u8..3,
        at in 0usize..SAMPLE_DOC.len(),
        byte in any::<u8>(),
    ) {
        let mut bytes = SAMPLE_DOC.as_bytes().to_vec();
        match op {
            0 => bytes[at] ^= byte | 1,
            1 => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
        let _ = json::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn histogram_matches_sorted_vector_reference(
        samples in prop::collection::vec(0u64..2_000_000, 1..512),
    ) {
        let bounds = [10u64, 100, 1_000, 10_000, 100_000, 1_000_000];
        let h = Histogram::new(&bounds);
        for &s in &samples {
            h.record(s);
        }
        let snap = h.snapshot();

        let mut sorted = samples.clone();
        sorted.sort_unstable();
        prop_assert_eq!(snap.count, samples.len() as u64);
        prop_assert_eq!(snap.sum, samples.iter().sum::<u64>());
        prop_assert_eq!(snap.max, *sorted.last().unwrap());
        prop_assert_eq!(snap.p50, reference_percentile(&sorted, 0.50));
        prop_assert_eq!(snap.p90, reference_percentile(&sorted, 0.90));
        prop_assert_eq!(snap.p99, reference_percentile(&sorted, 0.99));

        let reference = reference_buckets(&samples, &bounds);
        let got: Vec<u64> = snap.buckets.iter().map(|&(_, c)| c).collect();
        prop_assert_eq!(got, reference);

        // Percentiles are ordered and bounded by the observed extremes.
        prop_assert!(snap.p50 <= snap.p90);
        prop_assert!(snap.p90 <= snap.p99);
        prop_assert!(snap.p99 <= snap.max);
        prop_assert!(snap.p50 >= sorted[0]);
    }

    #[test]
    fn window_overflow_keeps_the_most_recent_samples(
        old in prop::collection::vec(1u64..100, 1..64),
        recent_value in 5_000u64..10_000,
    ) {
        let h = Histogram::new(&[1_000_000]);
        for &s in &old {
            h.record(s);
        }
        // Flood a full window of a single recent value: every percentile
        // must land on it exactly.
        for _ in 0..SAMPLE_WINDOW {
            h.record(recent_value);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, (old.len() + SAMPLE_WINDOW) as u64);
        prop_assert_eq!(snap.p50, recent_value);
        prop_assert_eq!(snap.p99, recent_value);
    }
}

#[test]
fn concurrent_counter_increments_are_all_counted() {
    let registry = obs::Registry::new();
    let counter = registry.counter("contended_total", "Contended test counter.", &[]);
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 20_000;
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let counter = Arc::clone(&counter);
            std::thread::spawn(move || {
                for _ in 0..PER_THREAD {
                    counter.inc();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no panic");
    }
    assert_eq!(counter.get(), THREADS as u64 * PER_THREAD);
}

#[test]
fn concurrent_histogram_records_preserve_count_and_sum() {
    let h = Arc::new(Histogram::new(&[10, 100, 1_000]));
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 10_000;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    h.record(t * 7 + i % 50);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("no panic");
    }
    let snap = h.snapshot();
    assert_eq!(snap.count, THREADS * PER_THREAD);
    let expected_sum: u64 = (0..THREADS)
        .map(|t| (0..PER_THREAD).map(|i| t * 7 + i % 50).sum::<u64>())
        .sum();
    assert_eq!(snap.sum, expected_sum);
    // The final bucket is cumulative over everything.
    assert_eq!(snap.buckets.last().unwrap().1, THREADS * PER_THREAD);
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let err = json::parse(&"[".repeat(100_000)).expect_err("nesting cap");
    assert!(err.reason.contains("nesting"), "{err}");
    assert_eq!(err.offset, json::MAX_DEPTH);
    let at_cap = "[".repeat(json::MAX_DEPTH) + &"]".repeat(json::MAX_DEPTH);
    assert!(json::parse(&at_cap).is_ok());
}

#[test]
fn non_rfc_8259_input_is_rejected() {
    assert_eq!(json::parse(SAMPLE_DOC).map(|v| v.text()), Ok(SAMPLE_DOC));
    for bad in [
        r#"{version:1}"#,
        r#"{"a":1,}"#,
        r#"[1,2,]"#,
        r#"{"a":1} {"b":2}"#,
        r#"{"a":1}x"#,
        r#"{"version":+1}"#,
        r#"{"time":NaN}"#,
        r#"{"time":inf}"#,
        r#"{"time":-Infinity}"#,
        "{\"name\":\"tab\there\"}",
        r#"{"tag":1,"tag":2}"#,
        r#"{"a":01}"#,
        r#"{"a":1.}"#,
        r#"{"a":.5}"#,
        r#"{"a":"\x"}"#,
        r#"{"a":"\ud800"}"#,
        r#"{'a':1}"#,
        "",
        "   ",
    ] {
        assert!(json::parse(bad).is_err(), "accepted {bad:?}");
    }
}
