//! Soak campaign: long-horizon endurance with reboots and checkpoint
//! corruption.
//!
//! The chaos campaign ([`crate::chaos`]) asks whether the
//! perceptible-window guarantee survives a hostile device; this module
//! asks whether it survives *time* — multi-day connected-standby
//! horizons laced with device reboots — and whether the
//! crash-consistent checkpoint subsystem actually earns its keep: every
//! cell runs straight through with periodic captures, then re-runs from
//! a snapshot (optionally after corrupting the newest snapshots on disk
//! to force the last-good fallback) and asserts the resumed run is
//! byte-identical in trace and report. Results serialize to the
//! `simty-bench-soak/v1` document (`BENCH_soak.json`).

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use simty::core::{SimDuration, SimTime};
use simty::experiments::{PolicyKind, Scenario};
use simty::obs::QuantileSummary;
use simty::sim::json::{json_number, json_string, report_to_json};
use simty::sim::{
    CheckpointStore, OnlineWatchdogConfig, RebootPlan, SimConfig, SimReport, Simulation,
};

use crate::journal::JournalError;
use crate::supervisor::{CellStatus, HarnessStats};
use crate::sweep::{CampaignOptions, JobResult, Sweep};

/// A named endurance adversary: how the device dies and how its
/// snapshots rot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoakProfile {
    /// No reboots: the control cell. Resumes from a mid-run snapshot.
    Steady,
    /// One reboot at 45% of the horizon (5-minute outage).
    SingleReboot,
    /// Periodic reboots, roughly one per fifth of the horizon.
    RebootStorm,
    /// A reboot plus a bit-flipped newest snapshot: restore must detect
    /// the checksum mismatch and fall back to the previous good one.
    BitFlip,
    /// Periodic reboots plus a truncated newest snapshot *and* a
    /// stale-version second-newest: restore must skip both.
    TornStale,
}

impl SoakProfile {
    /// Every profile, in campaign order.
    pub const ALL: [SoakProfile; 5] = [
        SoakProfile::Steady,
        SoakProfile::SingleReboot,
        SoakProfile::RebootStorm,
        SoakProfile::BitFlip,
        SoakProfile::TornStale,
    ];

    /// The profile's CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            SoakProfile::Steady => "steady",
            SoakProfile::SingleReboot => "single-reboot",
            SoakProfile::RebootStorm => "reboot-storm",
            SoakProfile::BitFlip => "bitflip",
            SoakProfile::TornStale => "torn-stale",
        }
    }

    /// Parses a profile name (the inverse of [`name`](Self::name)).
    pub fn parse(name: &str) -> Option<SoakProfile> {
        SoakProfile::ALL.into_iter().find(|p| p.name() == name)
    }

    /// The profile's reboot schedule for a run of `duration`. Outages
    /// are 5 minutes — longer than the shortest catalogue alarm period,
    /// so every reboot strands overdue entries for boot catch-up.
    pub fn reboots(self, seed: u64, duration: SimDuration) -> RebootPlan {
        let outage = SimDuration::from_secs(310);
        let plan = RebootPlan::new(seed);
        match self {
            SoakProfile::Steady => plan,
            SoakProfile::SingleReboot | SoakProfile::BitFlip => plan.with_reboot(
                SimTime::ZERO + SimDuration::from_millis(duration.as_millis() * 45 / 100),
                outage,
            ),
            SoakProfile::RebootStorm | SoakProfile::TornStale => plan.with_periodic(
                SimDuration::from_millis(duration.as_millis() / 5),
                SimDuration::from_mins(7),
                outage,
                duration,
            ),
        }
    }

    /// How many of the newest on-disk snapshots the profile corrupts
    /// before the recovery drill.
    pub fn corrupted(self) -> usize {
        match self {
            SoakProfile::Steady | SoakProfile::SingleReboot | SoakProfile::RebootStorm => 0,
            SoakProfile::BitFlip => 1,
            SoakProfile::TornStale => 2,
        }
    }
}

/// One campaign cell: a policy enduring a scenario under a soak profile
/// and seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoakSpec {
    /// The alignment policy under test.
    pub policy: PolicyKind,
    /// The workload scenario.
    pub scenario: Scenario,
    /// The endurance adversary.
    pub profile: SoakProfile,
    /// RNG seed shared by the workload and the reboot plan.
    pub seed: u64,
    /// Simulated span (soak horizons are typically multi-day).
    pub duration: SimDuration,
}

/// What the recovery drill observed for one cell, alongside its
/// straight-through report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SoakRecovery {
    /// Snapshots captured during the straight-through run.
    pub checkpoints: u64,
    /// Corrupt snapshots the store skipped to reach a good one.
    pub corrupt_skipped: u64,
    /// The resumed run matched the straight-through run byte-for-byte
    /// (trace CSV and report JSON).
    pub resumed_identical: bool,
    /// The drill restored successfully (always required; `false` marks
    /// an unrecoverable cell).
    pub restore_ok: bool,
    /// Host wall-clock time the drill's resume took (snapshot load,
    /// [`Simulation::restore`]'s queue rebuild, and the re-run to the
    /// horizon). Never serialized per cell — only the campaign total
    /// surfaces, as the `resume_wall_ms` header of the soak document.
    pub resume_wall: Duration,
}

impl SoakRecovery {
    /// Encodes the drill outcome as the campaign journal's `extra`
    /// payload, so a journal-restored cell keeps its recovery digest.
    fn to_extra(self) -> String {
        format!(
            "{}:{}:{}:{}:{}",
            self.checkpoints,
            self.corrupt_skipped,
            u8::from(self.resumed_identical),
            u8::from(self.restore_ok),
            self.resume_wall.as_millis()
        )
    }

    /// Reverses [`to_extra`](Self::to_extra).
    fn from_extra(extra: &str) -> Option<SoakRecovery> {
        let fields: Vec<&str> = extra.split(':').collect();
        let [checkpoints, corrupt_skipped, resumed_identical, restore_ok, wall_ms] = fields[..]
        else {
            return None;
        };
        Some(SoakRecovery {
            checkpoints: checkpoints.parse().ok()?,
            corrupt_skipped: corrupt_skipped.parse().ok()?,
            resumed_identical: resumed_identical == "1",
            restore_ok: restore_ok == "1",
            resume_wall: Duration::from_millis(wall_ms.parse().ok()?),
        })
    }
}

impl SoakSpec {
    /// A compact identity for sweep outputs, e.g.
    /// `SIMTY/light/bitflip/seed1/172800s`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/seed{}/{}s",
            self.policy.name(),
            self.scenario.name(),
            self.profile.name(),
            self.seed,
            self.duration.as_millis() / 1_000
        )
    }

    fn fingerprint(sim: &Simulation) -> (Vec<u8>, String) {
        let mut csv = Vec::new();
        sim.trace()
            .write_csv(&mut csv)
            .expect("writing a trace to memory cannot fail");
        (csv, report_to_json(&sim.report()))
    }

    fn build_sim(&self) -> Simulation {
        let workload = self
            .scenario
            .builder()
            .with_seed(self.seed)
            .with_beta(0.96)
            .with_duration(self.duration)
            .build();
        let config = SimConfig::new()
            .with_duration(self.duration)
            .with_checkpoints(SimDuration::from_millis(
                (self.duration.as_millis() / 8).max(1),
            ))
            .with_online_watchdog(OnlineWatchdogConfig::default())
            .with_invariants();
        let mut sim = Simulation::new(self.policy.build(), config);
        for alarm in workload.alarms {
            sim.register(alarm).expect("workload alarm registers cleanly");
        }
        sim.inject_reboots(&self.profile.reboots(self.seed, self.duration));
        sim
    }

    /// Executes the cell: the straight-through run, then the recovery
    /// drill — persist every snapshot, corrupt the newest ones per the
    /// profile, restore from the last good snapshot, run to the end, and
    /// compare bytes. `scratch` hosts the cell's snapshot directory and
    /// is wiped afterwards.
    pub fn run(&self, scratch: &Path) -> (SimReport, SoakRecovery) {
        let mut straight = self.build_sim();
        let report = straight.run();
        let expected = Self::fingerprint(&straight);
        let mut recovery = SoakRecovery {
            checkpoints: straight.checkpoints().len() as u64,
            ..SoakRecovery::default()
        };
        if straight.checkpoints().is_empty() {
            return (report, recovery);
        }

        let dir = scratch.join(self.label().replace('/', "_"));
        let _ = std::fs::remove_dir_all(&dir);
        let drill = || -> Result<(u64, bool, Duration), Box<dyn std::error::Error>> {
            let mut store = CheckpointStore::open(&dir)?;
            for ckpt in straight.checkpoints() {
                store.save(ckpt)?;
            }
            corrupt_newest(&dir, self.profile.corrupted())?;
            let resume_started = Instant::now();
            let (snapshot, skipped) = store.load_latest_good()?;
            let mut resumed = Simulation::restore(self.policy.build(), &snapshot)?;
            resumed.run();
            let wall = resume_started.elapsed();
            Ok((skipped as u64, Self::fingerprint(&resumed) == expected, wall))
        };
        match drill() {
            Ok((skipped, identical, wall)) => {
                recovery.corrupt_skipped = skipped;
                recovery.resumed_identical = identical;
                recovery.restore_ok = true;
                recovery.resume_wall = wall;
            }
            Err(_) => {
                recovery.restore_ok = false;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        (report, recovery)
    }
}

/// Damages the `n` newest snapshots in `dir`, cycling through the
/// corruption taxonomy: the newest gets a truncation, the next a
/// stale-version header, then a bit flip, so multi-file profiles
/// exercise distinct detection paths.
fn corrupt_newest(dir: &Path, n: usize) -> io::Result<()> {
    if n == 0 {
        return Ok(());
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-"))
        })
        .collect();
    files.sort();
    for (i, path) in files.iter().rev().take(n).enumerate() {
        let bytes = std::fs::read(path)?;
        let damaged = match i % 3 {
            0 => bytes[..bytes.len() / 2].to_vec(),
            1 => {
                let body = bytes.splitn(2, |&b| b == b'\n').nth(1).unwrap_or(&[]).to_vec();
                let mut out = b"simty-checkpoint/v0\n".to_vec();
                out.extend_from_slice(&body);
                out
            }
            _ => {
                let mut out = bytes.clone();
                let pos = out.len() * 4 / 5;
                out[pos] ^= 0x10;
                out
            }
        };
        std::fs::write(path, damaged)?;
    }
    Ok(())
}

/// Builds the full campaign grid in deterministic enqueue order
/// (policy-major, then scenario, profile, seed 1..=`seeds`).
pub fn soak_matrix(
    policies: &[PolicyKind],
    scenarios: &[Scenario],
    profiles: &[SoakProfile],
    seeds: u64,
    duration: SimDuration,
) -> Vec<SoakSpec> {
    let mut specs = Vec::new();
    for &policy in policies {
        for &scenario in scenarios {
            for &profile in profiles {
                for seed in 1..=seeds {
                    specs.push(SoakSpec {
                        policy,
                        scenario,
                        profile,
                        seed,
                        duration,
                    });
                }
            }
        }
    }
    specs
}

/// Runs a campaign on `threads` sweep workers and collects the results
/// in matrix order (byte-identical across thread counts). Snapshot
/// directories live under the system temp dir for the drill's duration.
/// Default supervision, no journal.
pub fn run_soak(specs: &[SoakSpec], threads: usize) -> SoakResults {
    run_soak_with(specs, &CampaignOptions::with_threads(threads))
        .expect("a journal-less soak campaign cannot fail to open its journal")
}

/// Runs a campaign under explicit harness [`CampaignOptions`]: cell
/// supervision (panicking or hung cells are quarantined, not fatal) and,
/// when `journal_dir` is set, crash-tolerant resume. The per-cell
/// [`SoakRecovery`] digest rides the journal's `extra` payload, so a
/// restored cell keeps its recovery outcome.
///
/// # Errors
///
/// [`JournalError`] when the journal directory holds a journal for a
/// different campaign kind or grid, or cannot be opened.
pub fn run_soak_with(
    specs: &[SoakSpec],
    options: &CampaignOptions,
) -> Result<SoakResults, JournalError> {
    // One scratch directory per campaign: concurrent campaigns in one
    // process must not share (and remove) each other's snapshots.
    static CAMPAIGNS: AtomicU64 = AtomicU64::new(0);
    let scratch = std::env::temp_dir().join(format!(
        "simty-soak-{}-{}",
        std::process::id(),
        CAMPAIGNS.fetch_add(1, Ordering::Relaxed)
    ));
    let mut sweep = Sweep::new();
    sweep.with_supervisor(options.supervisor);
    if let Some(dir) = &options.journal_dir {
        sweep.with_journal(dir, "soak");
    }
    if let Some(sink) = &options.telemetry {
        sweep.with_telemetry(sink.clone());
    }
    for &spec in specs {
        let scratch = scratch.clone();
        sweep.job(spec.label(), move || {
            let (report, recovery) = spec.run(&scratch);
            JobResult {
                report,
                stages: None,
                extra: Some(recovery.to_extra()),
            }
        });
    }
    let results = sweep.try_run_with_threads(options.threads)?;
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(SoakResults {
        journal_skips: results.journal_skips(),
        cell_walls: results.cell_walls(),
        runs: specs
            .iter()
            .copied()
            .zip(results.outcomes().iter())
            .map(|(spec, o)| {
                let recovery = o.extra.as_deref().and_then(SoakRecovery::from_extra);
                (spec, o.status.clone(), o.report.clone(), recovery)
            })
            .collect(),
    })
}

/// Per-policy endurance aggregate over every cell the policy survived.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyEndurance {
    /// The policy's display name.
    pub policy: String,
    /// How many cells it ran.
    pub runs: u64,
    /// Total reboots endured.
    pub reboots: u64,
    /// Mean outage from kill to boot completion, in ms, weighted by
    /// reboots (the per-reboot recovery time; 0 when nothing rebooted).
    pub mean_recovery_ms: f64,
    /// Queue entries boot catch-up had to deliver late, summed.
    pub catch_up_entries: u64,
    /// Worst catch-up delay at any boot across all cells, in ms.
    pub worst_catch_up_delay_ms: f64,
    /// Total invariant violations (must be zero).
    pub invariant_violations: u64,
    /// Total perceptible-window misses (the headline: must be zero).
    pub perceptible_window_misses: u64,
    /// Snapshots captured across all cells.
    pub checkpoints: u64,
    /// Corrupt snapshots the recovery drills skipped.
    pub corrupt_skipped: u64,
    /// Every cell's resumed run was byte-identical to its
    /// straight-through run.
    pub all_resumed_identical: bool,
    /// Every cell's recovery drill restored successfully.
    pub all_restores_ok: bool,
}

/// A finished campaign: every cell's supervisor status, report, and
/// recovery outcome (both `None` for quarantined cells), in matrix
/// order.
#[derive(Debug, Clone)]
pub struct SoakResults {
    runs: Vec<(SoakSpec, CellStatus, Option<SimReport>, Option<SoakRecovery>)>,
    journal_skips: u64,
    cell_walls: Vec<f64>,
}

impl SoakResults {
    /// The cells, their statuses, reports, and recovery outcomes, in
    /// matrix order.
    pub fn runs(&self) -> &[(SoakSpec, CellStatus, Option<SimReport>, Option<SoakRecovery>)] {
        &self.runs
    }

    /// The completed cells (quarantined cells carry no report). A
    /// completed cell missing its recovery digest counts as an
    /// unrecovered default, never a silent success.
    fn completed(&self) -> impl Iterator<Item = (&SoakSpec, &SimReport, SoakRecovery)> {
        self.runs.iter().filter_map(|(spec, _, report, recovery)| {
            report
                .as_ref()
                .map(|r| (spec, r, recovery.unwrap_or_default()))
        })
    }

    /// Cells restored from the campaign journal instead of executed in
    /// this invocation (zero without `--resume`).
    pub fn journal_skips(&self) -> u64 {
        self.journal_skips
    }

    /// Exact p50/p90/p99/max over the executed cells' wall times (ms);
    /// `None` when every cell was journal-restored. Wall-clock data:
    /// surfaced only in the document header, never in the deterministic
    /// body.
    pub fn cell_wall_quantiles(&self) -> Option<QuantileSummary> {
        QuantileSummary::exact(&self.cell_walls)
    }

    /// Supervisor accounting over the campaign.
    pub fn harness(&self) -> HarnessStats {
        let mut stats = HarnessStats::from_statuses(self.runs.iter().map(|(_, s, _, _)| s));
        stats.journal_skips = self.journal_skips;
        stats
    }

    /// The quarantined cells' `(label, reason)` pairs, in matrix order.
    pub fn poisoned(&self) -> Vec<(String, String)> {
        self.runs
            .iter()
            .filter_map(|(spec, status, _, _)| match status {
                CellStatus::Poisoned { reason, .. } => Some((spec.label(), reason.clone())),
                _ => None,
            })
            .collect()
    }

    /// Total perceptible-window misses across every completed cell.
    pub fn total_misses(&self) -> u64 {
        self.completed()
            .map(|(_, r, _)| r.resilience.perceptible_window_misses)
            .sum()
    }

    /// Total host wall-clock the campaign's checkpoint resumes took
    /// (load + restore + re-run), summed across completed cells.
    pub fn resume_wall(&self) -> Duration {
        self.completed().map(|(_, _, rec)| rec.resume_wall).sum()
    }

    /// Whether every completed cell's recovery drill restored and
    /// matched bytes (quarantined cells are the harness's concern, not
    /// the recovery drill's).
    pub fn all_recovered(&self) -> bool {
        self.completed()
            .all(|(_, _, rec)| rec.restore_ok && rec.resumed_identical)
    }

    /// Per-policy aggregates over the completed cells, sorted by policy
    /// name.
    pub fn aggregates(&self) -> Vec<PolicyEndurance> {
        let mut by_policy: BTreeMap<String, Vec<(&SimReport, SoakRecovery)>> = BTreeMap::new();
        for (spec, report, rec) in self.completed() {
            by_policy
                .entry(spec.policy.name())
                .or_default()
                .push((report, rec));
        }
        by_policy
            .into_iter()
            .map(|(policy, cells)| {
                let reboots: u64 = cells.iter().map(|(r, _)| r.resilience.reboots).sum();
                let recovery_weighted: f64 = cells
                    .iter()
                    .map(|(r, _)| r.resilience.mean_recovery_ms * r.resilience.reboots as f64)
                    .sum();
                PolicyEndurance {
                    policy,
                    runs: cells.len() as u64,
                    reboots,
                    mean_recovery_ms: if reboots > 0 {
                        recovery_weighted / reboots as f64
                    } else {
                        0.0
                    },
                    catch_up_entries: cells
                        .iter()
                        .map(|(r, _)| r.resilience.catch_up_entries)
                        .sum(),
                    worst_catch_up_delay_ms: cells
                        .iter()
                        .map(|(r, _)| r.resilience.worst_catch_up_delay_ms)
                        .fold(0.0, f64::max),
                    invariant_violations: cells
                        .iter()
                        .map(|(r, _)| r.resilience.invariant_violations)
                        .sum(),
                    perceptible_window_misses: cells
                        .iter()
                        .map(|(r, _)| r.resilience.perceptible_window_misses)
                        .sum(),
                    checkpoints: cells.iter().map(|(_, rec)| rec.checkpoints).sum(),
                    corrupt_skipped: cells.iter().map(|(_, rec)| rec.corrupt_skipped).sum(),
                    all_resumed_identical: cells.iter().all(|(_, rec)| rec.resumed_identical),
                    all_restores_ok: cells.iter().all(|(_, rec)| rec.restore_ok),
                }
            })
            .collect()
    }

    /// Serializes the campaign as the `simty-bench-soak/v1` document
    /// body. Fully deterministic: no wall-clock or per-invocation
    /// fields, so parallel, sequential, and journal-resumed campaigns
    /// produce byte-identical bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"schema\":\"simty-bench-soak/v1\"");
        out.push_str(&format!(",\"runs\":{}", self.runs.len()));
        out.push_str(&format!(",\"harness\":{}", self.harness().to_json()));
        out.push_str(",\"results\":[");
        for (i, (spec, status, report, recovery)) in self.runs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let rec = recovery.unwrap_or_default();
            match report {
                Some(report) => out.push_str(&format!(
                    "{{\"label\":{},\"profile\":{},\"seed\":{},\"status\":{},\
                     \"checkpoints\":{},\"corrupt_skipped\":{},\"restore_ok\":{},\
                     \"resumed_identical\":{},\"report\":{}}}",
                    json_string(&spec.label()),
                    json_string(spec.profile.name()),
                    spec.seed,
                    json_string(&status.token()),
                    rec.checkpoints,
                    rec.corrupt_skipped,
                    rec.restore_ok,
                    rec.resumed_identical,
                    report_to_json(report)
                )),
                None => out.push_str(&format!(
                    "{{\"label\":{},\"profile\":{},\"seed\":{},\"status\":{},\
                     \"checkpoints\":null,\"corrupt_skipped\":null,\"restore_ok\":null,\
                     \"resumed_identical\":null,\"report\":null}}",
                    json_string(&spec.label()),
                    json_string(spec.profile.name()),
                    spec.seed,
                    json_string(&status.token()),
                )),
            }
        }
        out.push_str("],\"policies\":[");
        for (i, agg) in self.aggregates().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"policy\":{},\"runs\":{},\"reboots\":{},\"mean_recovery_ms\":{},\
                 \"catch_up_entries\":{},\"worst_catch_up_delay_ms\":{},\
                 \"invariant_violations\":{},\"perceptible_window_misses\":{},\
                 \"checkpoints\":{},\"corrupt_skipped\":{},\
                 \"all_resumed_identical\":{},\"all_restores_ok\":{}}}",
                json_string(&agg.policy),
                agg.runs,
                agg.reboots,
                json_number(agg.mean_recovery_ms),
                agg.catch_up_entries,
                json_number(agg.worst_catch_up_delay_ms),
                agg.invariant_violations,
                agg.perceptible_window_misses,
                agg.checkpoints,
                agg.corrupt_skipped,
                agg.all_resumed_identical,
                agg.all_restores_ok,
            ));
        }
        out.push_str("]}");
        out
    }

    /// The committed `BENCH_soak.json` document: the deterministic
    /// [`to_json`](Self::to_json) body plus the per-invocation header
    /// fields — `resume_wall_ms` (the campaign's total checkpoint-resume
    /// wall-clock), `journal_skips` (cells restored from the journal
    /// by this invocation), and the executed cells' wall-time quantiles.
    /// Kept out of `to_json` itself so determinism suites can keep
    /// byte-diffing that stream.
    pub fn to_json_document(&self) -> String {
        let quantiles = QuantileSummary::exact(&self.cell_walls)
            .map_or_else(|| "null".to_owned(), |q| q.to_json());
        self.to_json().replacen(
            "{\"schema\":\"simty-bench-soak/v1\"",
            &format!(
                "{{\"schema\":\"simty-bench-soak/v1\",\"resume_wall_ms\":{},\"journal_skips\":{},\
                 \"quantiles\":{{\"cell_wall_ms\":{quantiles}}}",
                json_number(self.resume_wall().as_secs_f64() * 1_000.0),
                self.journal_skips
            ),
            1,
        )
    }

    /// Writes [`to_json_document`](Self::to_json_document) to a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json_document())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(profile: SoakProfile, policy: PolicyKind) -> SoakSpec {
        SoakSpec {
            policy,
            scenario: Scenario::Light,
            profile,
            seed: 1,
            duration: SimDuration::from_hours(2),
        }
    }

    #[test]
    fn profile_names_round_trip() {
        for p in SoakProfile::ALL {
            assert_eq!(SoakProfile::parse(p.name()), Some(p));
        }
        assert_eq!(SoakProfile::parse("bogus"), None);
    }

    #[test]
    fn steady_cell_resumes_identically_with_no_reboots() {
        let scratch = std::env::temp_dir().join(format!("simty-soak-t1-{}", std::process::id()));
        let (report, rec) = tiny(SoakProfile::Steady, PolicyKind::Simty).run(&scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        assert_eq!(report.resilience.reboots, 0);
        assert!(rec.checkpoints >= 7, "{rec:?}");
        assert_eq!(rec.corrupt_skipped, 0);
        assert!(rec.restore_ok && rec.resumed_identical, "{rec:?}");
    }

    #[test]
    fn corruption_profiles_fall_back_to_the_last_good_snapshot() {
        let scratch = std::env::temp_dir().join(format!("simty-soak-t2-{}", std::process::id()));
        let (report, rec) = tiny(SoakProfile::BitFlip, PolicyKind::Native).run(&scratch);
        assert_eq!(report.resilience.reboots, 1);
        assert_eq!(rec.corrupt_skipped, 1, "{rec:?}");
        assert!(rec.restore_ok && rec.resumed_identical, "{rec:?}");
        let (_, rec) = tiny(SoakProfile::TornStale, PolicyKind::Simty).run(&scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        assert_eq!(rec.corrupt_skipped, 2, "{rec:?}");
        assert!(rec.restore_ok && rec.resumed_identical, "{rec:?}");
    }

    #[test]
    fn matrix_covers_the_grid_in_order() {
        let specs = soak_matrix(
            &[PolicyKind::Native, PolicyKind::Simty],
            &[Scenario::Light],
            &SoakProfile::ALL,
            2,
            SimDuration::from_hours(24),
        );
        assert_eq!(specs.len(), 2 * 5 * 2);
        assert_eq!(specs[0].label(), "NATIVE/light/steady/seed1/86400s");
        assert!(specs.last().unwrap().label().starts_with("SIMTY/light/torn-stale"));
    }

    #[test]
    fn campaign_aggregates_and_serializes() {
        let specs = soak_matrix(
            &[PolicyKind::Native, PolicyKind::Simty],
            &[Scenario::Light],
            &[SoakProfile::SingleReboot, SoakProfile::BitFlip],
            1,
            SimDuration::from_hours(2),
        );
        let results = run_soak(&specs, 2);
        assert_eq!(results.runs().len(), 4);
        assert!(results
            .runs()
            .iter()
            .all(|(_, status, report, recovery)| *status == CellStatus::Ok
                && report.is_some()
                && recovery.is_some()));
        assert!(results.poisoned().is_empty());
        assert_eq!(results.journal_skips(), 0);
        let harness = results.harness();
        assert_eq!((harness.cells, harness.ok, harness.poisoned), (4, 4, 0));
        assert!(results.all_recovered());
        assert_eq!(results.total_misses(), 0);
        let aggs = results.aggregates();
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].policy, "NATIVE");
        assert!(aggs.iter().all(|a| a.reboots == 2));
        assert!(aggs.iter().all(|a| a.all_resumed_identical && a.all_restores_ok));
        assert!(aggs.iter().all(|a| a.corrupt_skipped == 1));
        let json = results.to_json();
        assert!(json.starts_with("{\"schema\":\"simty-bench-soak/v1\""));
        assert!(json.contains("\"profile\":\"bitflip\""));
        assert!(json.contains("\"status\":\"ok\""));
        assert!(json.contains("\"harness\":{\"cells\":4"));
        assert!(json.contains("\"resumed_identical\":true"));
        assert!(!json.contains("wall"), "soak documents must be deterministic");
        assert!(!json.contains("journal_skips"));
        // The committed document adds only per-invocation header fields
        // on top of the deterministic body.
        let doc = results.to_json_document();
        assert!(doc.starts_with("{\"schema\":\"simty-bench-soak/v1\",\"resume_wall_ms\":"));
        assert!(doc.contains("\"journal_skips\":0"));
        assert!(results.resume_wall() > Duration::ZERO);
        assert_eq!(
            doc.replacen(
                &format!(
                    ",\"resume_wall_ms\":{},\"journal_skips\":0,\"quantiles\":{{\"cell_wall_ms\":{}}}",
                    simty::sim::json::json_number(results.resume_wall().as_secs_f64() * 1_000.0),
                    results.cell_wall_quantiles().unwrap().to_json()
                ),
                "",
                1
            ),
            json
        );
    }

    #[test]
    fn recovery_extra_round_trips() {
        let rec = SoakRecovery {
            checkpoints: 9,
            corrupt_skipped: 2,
            resumed_identical: true,
            restore_ok: true,
            resume_wall: Duration::from_millis(1234),
        };
        assert_eq!(SoakRecovery::from_extra(&rec.to_extra()), Some(rec));
        assert_eq!(SoakRecovery::from_extra(""), None);
        assert_eq!(SoakRecovery::from_extra("1:2:3"), None);
        assert_eq!(SoakRecovery::from_extra("a:0:1:1:0"), None);
    }

    #[test]
    fn parallel_and_sequential_campaigns_are_byte_identical() {
        let specs = soak_matrix(
            &[PolicyKind::Simty],
            &[Scenario::Light],
            &[SoakProfile::SingleReboot],
            2,
            SimDuration::from_hours(1),
        );
        let a = run_soak(&specs, 1).to_json();
        let b = run_soak(&specs, 4).to_json();
        assert_eq!(a, b);
    }
}
