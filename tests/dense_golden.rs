//! Byte pins for the dense path: a 300-app synthetic device over 3 h,
//! the workload `standby run --scenario synthetic:300` simulates. Each
//! cell pins the FNV-1a digest of the JSON report, of every app's
//! attributed energy bits (with the overhead and attributed totals), and
//! of one on-demand checkpoint taken mid-run. Queue, re-arm and ledger
//! optimisations must leave all three unchanged.

use simty::experiments::PolicyKind;
use simty::prelude::*;
use simty::sim::codec::fnv1a64;
use simty::sim::json::report_to_json;

const APPS: usize = 300;
const HOURS: u64 = 3;

/// Builds and runs one dense cell exactly as `standby run` does, taking
/// an on-demand checkpoint at the half-way instant. Returns the report,
/// attribution and checkpoint digests.
fn dense_cell(policy: PolicyKind, seed: u64) -> [u64; 3] {
    let duration = SimDuration::from_hours(HOURS);
    let workload = WorkloadBuilder::synthetic(APPS, seed)
        .with_seed(seed)
        .with_beta(0.96)
        .with_duration(duration)
        .build();
    let mut sim = Simulation::new(policy.build(), SimConfig::new().with_duration(duration));
    for alarm in workload.alarms {
        sim.register(alarm).expect("workload alarm registers cleanly");
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_millis(duration.as_millis() / 2));
    let ckpt = sim.checkpoint();
    sim.run_until(SimTime::ZERO + duration);

    let report = report_to_json(&sim.report());
    let ledger = sim.attribution();
    let mut bits = Vec::new();
    for (app, mj) in ledger.per_app_mj().iter() {
        bits.extend_from_slice(app.as_bytes());
        bits.push(b'=');
        bits.extend_from_slice(&mj.to_bits().to_le_bytes());
    }
    bits.extend_from_slice(&ledger.overhead_mj().to_bits().to_le_bytes());
    bits.extend_from_slice(&ledger.attributed_mj().to_bits().to_le_bytes());
    [
        fnv1a64(report.as_bytes()),
        fnv1a64(&bits),
        fnv1a64(&ckpt.to_bytes()),
    ]
}

/// Alarm ids come from one process-wide counter and appear in the
/// checkpoint bytes, so the pinning test re-runs itself alone in a child
/// process, where the counter starts at 1: this returns `true` inside
/// that child, and in the parent asserts that the child passed.
fn in_own_process(test: &str) -> bool {
    const CHILD: &str = "SIMTY_TEST_OWN_PROCESS";
    if std::env::var_os(CHILD).is_some() {
        return true;
    }
    let status = std::process::Command::new(std::env::current_exe().expect("test binary"))
        .args([test, "--exact", "--test-threads=1"])
        .env(CHILD, "1")
        .status()
        .expect("spawn the test binary");
    assert!(status.success(), "{test} failed in its own process");
    false
}

#[test]
fn dense_digests_are_pinned() {
    if !in_own_process("dense_digests_are_pinned") {
        return;
    }
    let cells: [(PolicyKind, u64, [u64; 3]); 4] = [
        (
            PolicyKind::Native,
            1,
            [0x91f31e3053ccbc60, 0x33332b1c430e8820, 0x0570b975986183d0],
        ),
        (
            PolicyKind::Native,
            7,
            [0x3102917ea7e8279e, 0x28881886f5096410, 0x5c0104bd5e82bddc],
        ),
        (
            PolicyKind::Simty,
            1,
            [0x73b94b70ddce244a, 0x0d43cc5f63036a3b, 0xedec2ed9c23373ba],
        ),
        (
            PolicyKind::Simty,
            7,
            [0x6daeae4a5aff368e, 0x66e55f2c72eb1022, 0xc408e6d5ad1a481c],
        ),
    ];
    let mut failures = Vec::new();
    for (policy, seed, golden) in cells {
        let got = dense_cell(policy, seed);
        if got != golden {
            let hex: Vec<String> = got.iter().map(|d| format!("0x{d:016x}")).collect();
            failures.push(format!("{} seed {seed}: [{}]", policy.name(), hex.join(", ")));
        }
    }
    assert!(failures.is_empty(), "dense digests moved:\n{}", failures.join("\n"));
}
