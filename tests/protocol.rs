//! Protocol-level integration: the Gen2 MAC reading real scene
//! observations end to end.

use experiments::{Deployment, DeploymentSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfid_gen2::reader::{Gen2Reader, ReaderConfig};
use rfid_gen2::{LinkParams, SearchMode};

#[test]
fn link_profile_changes_sampling_density() {
    let deployment = Deployment::build(DeploymentSpec::default(), 42);
    let mut rng = StdRng::seed_from_u64(3);
    let fast = Gen2Reader::new(ReaderConfig {
        link: LinkParams::fast(),
        ..ReaderConfig::default()
    })
    .run(&deployment.scene, &[], 0.0, 2.0, &mut rng);
    let slow = Gen2Reader::new(ReaderConfig {
        link: LinkParams::dense_reader_m8(),
        ..ReaderConfig::default()
    })
    .run(&deployment.scene, &[], 0.0, 2.0, &mut rng);
    assert!(
        fast.events.len() > 2 * slow.events.len(),
        "FM0 {} vs M8 {}",
        fast.events.len(),
        slow.events.len()
    );
}

#[test]
fn single_target_census_reads_each_tag_once() {
    let deployment = Deployment::build(DeploymentSpec::default(), 42);
    let reader = Gen2Reader::new(ReaderConfig {
        search: SearchMode::SingleTargetA,
        ..ReaderConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(4);
    let run = reader.run(&deployment.scene, &[], 0.0, 3.0, &mut rng);
    let mut per_tag = std::collections::HashMap::new();
    for e in &run.events {
        *per_tag.entry(e.tag).or_insert(0u32) += 1;
    }
    assert_eq!(per_tag.len(), 25, "census covers all tags");
    assert!(per_tag.values().all(|&c| c == 1), "each exactly once");
}
