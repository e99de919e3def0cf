//! The corpus is a pure function of the seed, and the `sim_trials`
//! workload re-records exactly the corpus reports.

use rfibench::corpus::{Corpus, CorpusSpec};
use rfibench::workloads::{Setup, Traced, Workload};

#[test]
fn same_seed_same_reports_and_another_seed_differs() {
    let spec = CorpusSpec::tiny();
    let (a, _) = Corpus::generate(&spec, 11);
    let (b, _) = Corpus::generate(&spec, 11);
    let (c, _) = Corpus::generate(&spec, 12);
    assert_eq!(a.sessions.len(), b.sessions.len());
    for (x, y) in a.sessions.iter().zip(&b.sessions) {
        assert_eq!(x.reports, y.reports);
        assert_eq!(x.seed, y.seed);
    }
    for (x, y) in a.streams.iter().zip(&b.streams) {
        assert_eq!(x.trace, y.trace);
    }
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_ne!(a.fingerprint(), c.fingerprint());
    assert_ne!(a.sessions[0].reports, c.sessions[0].reports);
}

#[test]
fn sim_trials_reproduce_the_corpus() {
    let mut setup = Setup::new(Workload::SimTrials, &CorpusSpec::tiny(), 11);
    let untraced = setup.pass(false);
    let (traced, _) = setup.traced_pass(
        Traced::Pass(Workload::SimTrials),
        std::time::Instant::now(),
        1,
    );
    for pass in [untraced, traced] {
        assert_eq!(pass.trials, setup.corpus.sessions.len() as u64);
        assert_eq!(
            pass.failed, 0,
            "re-recorded reports and letters equal the corpus"
        );
    }
    setup.shutdown();
}
