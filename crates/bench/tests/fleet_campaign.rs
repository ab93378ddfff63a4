//! The fleet-campaign guarantees, end to end: every streamed shard
//! aggregate and metrics registry equals the fold of independently
//! simulated devices over arbitrary populations, a shard resumed from
//! its mid-shard marker folds to the same bytes, and a campaign killed
//! mid-flight by a poisoned shard resumes from its journal to a
//! document byte-identical to an uninterrupted run, on any thread
//! count.

use std::path::PathBuf;

use proptest::prelude::*;
use simty::core::time::SimDuration;
use simty::obs::MetricsRegistry;
use simty_bench::fleet::{fold_reports, run_device};
use simty_bench::journal::JOURNAL_FILE;
use simty_bench::{run_fleet_with, CampaignOptions, FleetConfig, PolicyKind};

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "simty-fleet-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn small_fleet(devices: u64, shards: usize, seed: u64) -> FleetConfig {
    let mut config = FleetConfig::new(devices);
    config.shards = shards;
    config.policies = vec![PolicyKind::Simty];
    config.seed = seed;
    config.duration = SimDuration::from_mins(5);
    config.checkpoint_stride = 2;
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The streaming property behind O(shards) memory: for any
    /// population size, shard count, and fleet seed, each shard's
    /// folded aggregate and metrics registry are bit-identical to
    /// re-simulating its devices one by one and folding their reports
    /// and registries outside the harness.
    #[test]
    fn every_shard_aggregate_equals_the_device_fold(
        devices in 1u64..12,
        shards in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let config = small_fleet(devices, shards.min(devices as usize), seed);
        let results =
            run_fleet_with(&config, &CampaignOptions::with_threads(2)).unwrap();
        prop_assert_eq!(results.devices_completed(), devices);
        for (index, spec) in config.specs().iter().enumerate() {
            let runs: Vec<_> = (spec.start..spec.end)
                .map(|d| run_device(&config, spec.policy, d))
                .collect();
            let mut metrics = MetricsRegistry::new();
            for run in &runs {
                metrics.merge_totals(&run.metrics);
            }
            let shard_metrics = results.shard_metrics(index).unwrap();
            prop_assert_eq!(shard_metrics.to_json(), metrics.to_json());
            prop_assert_eq!(shard_metrics.gauges().count(), 0);
            let mut expected = fold_reports(&spec.label, runs.iter().map(|r| &r.report));
            let shard = results.outcomes()[index].report.as_ref().unwrap();
            // The shard carries its observability registry; the
            // re-fold has none. Everything else must match exactly.
            expected.metrics_json = shard.metrics_json.clone();
            prop_assert_eq!(shard.to_record(), expected.to_record());
        }
    }
}

/// A campaign whose journal is lost resumes every shard from its latest
/// mid-shard marker — the partial report, power histogram and metrics
/// registry the marker carries — and folds to the same deterministic
/// document as the uninterrupted run.
#[test]
fn resume_from_mid_shard_markers_is_byte_identical() {
    let config = small_fleet(9, 3, 11);
    let reference = run_fleet_with(&config, &CampaignOptions::with_threads(1))
        .unwrap()
        .deterministic_json();
    let dir = unique_dir("markers");
    let options = CampaignOptions {
        threads: 2,
        journal_dir: Some(dir.clone()),
        ..CampaignOptions::default()
    };
    let first = run_fleet_with(&config, &options).unwrap();
    assert_eq!(first.deterministic_json(), reference);
    // Drop the journal: no shard restores whole, each resumes from the
    // marker its stride-2 checkpoint left two devices in.
    std::fs::remove_file(dir.join(JOURNAL_FILE)).unwrap();
    assert!(dir.join("shard-002").is_dir());
    let resumed = run_fleet_with(&config, &options).unwrap();
    assert_eq!(resumed.journal_skips(), 0);
    assert_eq!(resumed.deterministic_json(), reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// The acceptance scenario: a fleet whose shard 1 is killed by an
/// injected panic journals its surviving shards; re-running over the
/// same journal restores them, re-simulates only the killed shard, and
/// yields a deterministic document byte-identical to an uninterrupted
/// campaign — on one thread and on three.
#[test]
fn killed_campaign_resumes_byte_identical_across_thread_counts() {
    let config = small_fleet(10, 3, 42);
    let reference = run_fleet_with(&config, &CampaignOptions::with_threads(1))
        .unwrap()
        .deterministic_json();

    for threads in [1usize, 3] {
        let dir = unique_dir(&format!("kill-{threads}"));
        let options = CampaignOptions {
            threads,
            journal_dir: Some(dir.clone()),
            ..CampaignOptions::default()
        };

        let mut wounded = config.clone();
        wounded.inject_panic = Some(1);
        let first = run_fleet_with(&wounded, &options).unwrap();
        assert_eq!(first.harness().poisoned, 1, "threads={threads}");
        assert!(first.outcomes()[1].report.is_none());
        assert!(first.outcomes()[0].report.is_some());
        assert!(first.outcomes()[2].report.is_some());
        // The surviving shards wrote mid-range checkpoint markers.
        assert!(dir.join("shard-000").is_dir());

        let resumed = run_fleet_with(&config, &options).unwrap();
        assert_eq!(resumed.journal_skips(), 2, "threads={threads}");
        assert_eq!(resumed.harness().poisoned, 0, "threads={threads}");
        assert_eq!(
            resumed.deterministic_json(),
            reference,
            "resume must be byte-identical on {threads} thread(s)"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Poisoning is re-injected deterministically: resuming a journaled
/// campaign *with the fault still present* re-poisons the same shard
/// instead of silently healing, and the two wounded documents agree.
#[test]
fn a_still_faulty_resume_re_poisons_the_same_shard() {
    let mut config = small_fleet(8, 4, 7);
    config.inject_panic = Some(2);
    let dir = unique_dir("still-faulty");
    let options = CampaignOptions {
        threads: 2,
        journal_dir: Some(dir.clone()),
        ..CampaignOptions::default()
    };
    let first = run_fleet_with(&config, &options).unwrap();
    let second = run_fleet_with(&config, &options).unwrap();
    assert_eq!(second.harness().poisoned, 1);
    assert!(second.outcomes()[2].report.is_none());
    assert_eq!(second.journal_skips(), 3);
    assert_eq!(first.deterministic_json(), second.deterministic_json());
    std::fs::remove_dir_all(&dir).ok();
}
