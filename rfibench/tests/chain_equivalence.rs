//! The traced run times a stage chain the benchmark drives itself. These
//! tests pin it to `StageGraph`: if the graph's wiring changes, the ledger
//! would otherwise silently measure a different program.

use rfibench::chain::ChainCounts;
use rfibench::corpus::{Corpus, CorpusSpec, References};
use rfibench::spans::Tracer;
use rfibench::workloads::{chain_replay, graph_replay};
use rfipad::engine::normalize_events;
use rfipad::{PipelineEvent, Recognizer};
use std::time::Instant;

fn both(
    recognizer: &Recognizer,
    reports: &[rfid_gen2::report::TagReport],
) -> [Vec<PipelineEvent>; 2] {
    let mut graph = Vec::new();
    graph_replay(recognizer, reports, &mut graph, None);
    let mut chain = Vec::new();
    let mut t = Tracer::new(Instant::now(), 1);
    let counts: ChainCounts = chain_replay(recognizer, reports, 0, &mut chain, &mut t);
    assert_eq!(counts.reports, reports.len() as u64);
    assert!(!t.into_spans().is_empty(), "the chain records spans");
    normalize_events(&mut graph);
    normalize_events(&mut chain);
    [graph, chain]
}

#[test]
fn chain_matches_stage_graph_on_sessions_and_a_kiosk_stream() {
    let (corpus, _) = Corpus::generate(&CorpusSpec::tiny(), 7);
    let refs = References::compute(&corpus);
    for (i, s) in corpus.sessions.iter().enumerate() {
        let [graph, chain] = both(&corpus.benches[s.bench].recognizer, &s.reports);
        assert!(!graph.is_empty(), "session {i} recognizes something");
        assert_eq!(chain, graph, "session {i}");
        assert_eq!(graph, refs.sessions[i], "session {i} against the reference");
    }
    let stream = &corpus.streams[0];
    let [graph, chain] = both(&corpus.benches[stream.bench].recognizer, &stream.reports);
    assert_eq!(chain, graph, "kiosk stream");
    assert_eq!(graph, refs.streams[0], "kiosk stream against the reference");
}

#[test]
fn kiosk_streams_reach_retention_trims() {
    let (corpus, _) = Corpus::generate(&CorpusSpec::tiny(), 7);
    let stream = &corpus.streams[0];
    let mut events = Vec::new();
    let counts = chain_replay(
        &corpus.benches[stream.bench].recognizer,
        &stream.reports,
        0,
        &mut events,
        &mut Tracer::off(),
    );
    assert!(counts.closes >= 1, "letters close: {counts:?}");
    assert!(
        counts.rebuilds > counts.closes,
        "the idle stretch triggers retention trims beyond the letter-close trims: {counts:?}"
    );
}
