//! Every workload, untraced and traced, on a 2-letter corpus: outputs
//! match their references, the ledger check passes, and the reported
//! metrics are exactly the ones `BENCHMARK.json` declares.

use rfibench::corpus::CorpusSpec;
use rfibench::run::{traced, untraced, Report};
use rfibench::workloads::Workload;

/// The `"name": ..., "unit": ...` pairs `BENCHMARK.json` declares in the
/// section that starts at `key` (sections are listed in file order).
fn declared(key: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text.find(key).expect("section present");
    let section = &text[start..];
    let end = section[1..]
        .find("\"per_layer\"")
        .map_or(section.len(), |e| e + 1);
    section[..end]
        .split("\"name\":")
        .skip(1)
        .filter_map(|item| {
            let name = item.split('"').nth(1)?.to_string();
            let unit = item
                .split("\"unit\":")
                .nth(1)?
                .split('"')
                .nth(1)?
                .to_string();
            Some((name, unit))
        })
        .collect()
}

fn reported(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_workload_runs_untraced_and_traced() {
    let spec = CorpusSpec::tiny();
    let spans_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("rfibench-smoke");
    for w in Workload::ALL {
        let report = untraced(w, &spec, 3, 0.01);
        assert!(report.correct(), "{}: {report:?}", w.name());
        assert_eq!(
            reported(&report),
            declared("\"end_to_end\""),
            "{}",
            w.name()
        );
        for m in &report.metrics {
            assert!(m.value > 0.0, "{} {} is {}", w.name(), m.name, m.value);
        }

        let report = traced(w, &spec, 3, 0.01, &spans_dir);
        assert!(report.correct(), "{}: {report:?}", w.name());
        assert_eq!(reported(&report), declared("\"per_layer\""), "{}", w.name());
        let path = report.spans_path.as_deref().expect("span file");
        assert!(std::fs::metadata(path).is_ok_and(|m| m.len() > 0), "{path}");
    }
}
