//! Crash-consistent checkpointing and simulated reboot recovery.
//!
//! The load-bearing guarantee: a run resumed from *any* checkpoint is
//! byte-identical — in trace CSV and report JSON — to the
//! straight-through run, even when the run is laced with faults and
//! reboots. And after a reboot, boot catch-up delivers every missed
//! alarm inside the (outage-widened) perceptible window.

use simty::experiments::{PolicyKind, Scenario};
use simty::prelude::*;
use simty::sim::json::report_to_json;

fn wifi(label: &str, nominal_s: u64, repeat_s: u64) -> Alarm {
    Alarm::builder(label)
        .nominal(SimTime::from_secs(nominal_s))
        .repeating_static(SimDuration::from_secs(repeat_s))
        .window_fraction(0.5)
        .grace_fraction(0.9)
        .hardware(HardwareComponent::Wifi.into())
        .task_duration(SimDuration::from_secs(2))
        .build()
        .expect("valid alarm")
}

fn cell(label: &str, nominal_s: u64, repeat_s: u64) -> Alarm {
    Alarm::builder(label)
        .nominal(SimTime::from_secs(nominal_s))
        .repeating_dynamic(SimDuration::from_secs(repeat_s))
        .window_fraction(0.4)
        .grace_fraction(0.8)
        .hardware(HardwareComponent::Cellular.into())
        .task_duration(SimDuration::from_millis(1_500))
        .build()
        .expect("valid alarm")
}

fn standard_workload(sim: &mut Simulation) {
    sim.register(wifi("Facebook", 60, 300)).unwrap();
    sim.register(wifi("Gmail", 120, 600)).unwrap();
    sim.register(cell("WhatsApp", 90, 240)).unwrap();
    sim.register(cell("Weather", 400, 1_800)).unwrap();
    sim.register(
        Alarm::builder("Clock")
            .nominal(SimTime::from_secs(30))
            .repeating_static(SimDuration::from_secs(900))
            .kind(AlarmKind::NonWakeup)
            .build()
            .unwrap(),
    )
    .unwrap();
}

fn trace_csv(sim: &Simulation) -> Vec<u8> {
    let mut buf = Vec::new();
    sim.trace().write_csv(&mut buf).unwrap();
    buf
}

fn fingerprint(sim: &Simulation) -> (Vec<u8>, String) {
    (trace_csv(sim), report_to_json(&sim.report()))
}

/// Straight-through vs resumed-from-every-checkpoint, plain workload.
#[test]
fn resume_from_any_checkpoint_is_byte_identical() {
    let config = || {
        SimConfig::new()
            .with_duration(SimDuration::from_hours(3))
            .with_checkpoints(SimDuration::from_mins(20))
            .with_invariants()
    };
    let mut straight = Simulation::new(Box::new(SimtyPolicy::new()), config());
    standard_workload(&mut straight);
    let expected = {
        straight.run();
        fingerprint(&straight)
    };
    let checkpoints = straight.checkpoints();
    assert!(
        checkpoints.len() >= 8,
        "expected periodic captures, got {}",
        checkpoints.len()
    );
    for (i, ckpt) in checkpoints.iter().enumerate() {
        let mut resumed =
            Simulation::restore(Box::new(SimtyPolicy::new()), ckpt).expect("restore");
        assert_eq!(resumed.now(), ckpt.captured_at());
        resumed.run();
        let got = fingerprint(&resumed);
        assert_eq!(got.0, expected.0, "trace diverged from checkpoint {i}");
        assert_eq!(got.1, expected.1, "report diverged from checkpoint {i}");
    }
}

/// Same guarantee with faults *and* reboots live — the checkpoint must
/// carry RNG streams, pending fault cursors, and the outage schedule.
#[test]
fn resume_is_byte_identical_under_faults_and_reboots() {
    let faults = FaultPlan::new(0xC0FFEE)
        .with_rtc_jitter(SimDuration::from_millis(400))
        .with_dropped_fires(0.05, SimDuration::from_secs(5))
        .with_task_overruns(0.10, SimDuration::from_secs(3))
        .with_wakelock_leaks(0.02, SimDuration::from_secs(20))
        .with_activation_failures(0.05)
        .with_app_crash(
            "WhatsApp",
            SimTime::from_secs(50 * 60),
            SimDuration::from_mins(4),
        );
    let reboots = RebootPlan::new(7)
        .with_reboot(SimTime::from_secs(35 * 60), SimDuration::from_secs(45))
        .with_reboot(SimTime::from_secs(95 * 60), SimDuration::from_secs(90));
    let build = || {
        let mut sim = Simulation::new(
            Box::new(NativePolicy::new()),
            SimConfig::new()
                .with_duration(SimDuration::from_hours(3))
                .with_checkpoints(SimDuration::from_mins(15))
                .with_invariants()
                .with_online_watchdog(OnlineWatchdogConfig::default()),
        );
        standard_workload(&mut sim);
        sim.inject_faults(&faults);
        sim.inject_reboots(&reboots);
        sim
    };
    let mut straight = build();
    straight.run();
    let expected = fingerprint(&straight);
    assert!(
        straight
            .trace()
            .interventions()
            .iter()
            .any(|iv| matches!(iv.kind, InterventionKind::Reboot { .. })),
        "reboots should have landed"
    );
    for (i, ckpt) in straight.checkpoints().iter().enumerate() {
        let mut resumed =
            Simulation::restore(Box::new(NativePolicy::new()), ckpt).expect("restore");
        resumed.run();
        let got = fingerprint(&resumed);
        assert_eq!(got.0, expected.0, "trace diverged from checkpoint {i}");
        assert_eq!(got.1, expected.1, "report diverged from checkpoint {i}");
    }
}

/// A checkpoint survives the disk round trip (store → file → restore).
#[test]
fn resume_through_the_store_is_byte_identical() {
    let dir = std::env::temp_dir().join(format!(
        "simty-recovery-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = CheckpointStore::open(&dir).unwrap();

    let mut straight = Simulation::new(
        Box::new(SimtyPolicy::new()),
        SimConfig::new()
            .with_duration(SimDuration::from_hours(2))
            .with_checkpoints(SimDuration::from_mins(30)),
    );
    standard_workload(&mut straight);
    straight.run();
    let expected = fingerprint(&straight);
    for ckpt in straight.checkpoints() {
        store.save(ckpt).unwrap();
    }
    let (latest, skipped) = store.load_latest_good().unwrap();
    assert_eq!(skipped, 0);
    let mut resumed =
        Simulation::restore(Box::new(SimtyPolicy::new()), &latest).expect("restore");
    resumed.run();
    assert_eq!(fingerprint(&resumed), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Boot catch-up keeps every missed delivery inside the outage-widened
/// perceptible window: strict invariants panic on violation, so this
/// test passing *is* the assertion.
#[test]
fn reboot_recovery_meets_the_widened_perceptible_window() {
    // The outage covers the shortest alarm period, so every reboot is
    // guaranteed to strand at least one overdue entry for boot catch-up.
    let reboots = RebootPlan::new(11)
        .with_periodic(
            SimDuration::from_mins(40),
            SimDuration::from_mins(5),
            SimDuration::from_secs(310),
            SimDuration::from_hours(3),
        );
    for policy in [
        Box::new(NativePolicy::new()) as Box<dyn AlignmentPolicy>,
        Box::new(SimtyPolicy::new()),
    ] {
        let mut sim = Simulation::new(
            policy,
            SimConfig::new()
                .with_duration(SimDuration::from_hours(3))
                .with_strict_invariants(),
        );
        standard_workload(&mut sim);
        sim.inject_reboots(&reboots);
        let report = sim.run();
        assert_eq!(
            sim.invariants().map(|m| m.violations().len()),
            Some(0),
            "recovery broke the perceptible-window guarantee"
        );
        assert!(report.resilience.reboots >= 4, "reboots should have landed");
        assert!(
            report.resilience.catch_up_entries > 0,
            "outages should have forced boot catch-up"
        );
    }
}

/// Restoring with the wrong policy is refused, not silently wrong.
#[test]
fn restore_rejects_a_mismatched_policy() {
    let mut sim = Simulation::new(
        Box::new(SimtyPolicy::new()),
        SimConfig::new().with_duration(SimDuration::from_hours(1)),
    );
    standard_workload(&mut sim);
    sim.run_until(SimTime::from_secs(10 * 60));
    let ckpt = sim.checkpoint();
    let err = Simulation::restore(Box::new(NativePolicy::new()), &ckpt).unwrap_err();
    assert!(matches!(err, CheckpointError::PolicyMismatch { .. }));
}

/// Alarms registered after a resume get fresh ids — never a collision
/// with ids minted before the checkpoint.
#[test]
fn ids_minted_after_resume_do_not_collide() {
    let mut sim = Simulation::new(
        Box::new(SimtyPolicy::new()),
        SimConfig::new().with_duration(SimDuration::from_hours(1)),
    );
    standard_workload(&mut sim);
    sim.run_until(SimTime::from_secs(5 * 60));
    let ckpt = sim.checkpoint();
    let mut resumed = Simulation::restore(Box::new(SimtyPolicy::new()), &ckpt).unwrap();
    let existing: Vec<AlarmId> = resumed
        .manager()
        .wakeup_queue()
        .entries()
        .iter()
        .chain(resumed.manager().non_wakeup_queue().entries())
        .flat_map(|e| e.alarms().iter().map(|a| a.id()))
        .collect();
    let fresh = resumed.register(wifi("latecomer", 600, 600)).unwrap();
    assert!(!existing.contains(&fresh), "fresh id collided after resume");
}

/// The body of a checkpoint: its persisted bytes minus the envelope.
fn body_of(ckpt: &Checkpoint) -> String {
    let text = String::from_utf8(ckpt.to_bytes()).expect("checkpoints are UTF-8");
    let body_start = text.match_indices('\n').nth(2).expect("envelope").0 + 1;
    text[body_start..].to_owned()
}

/// Wraps `body` in a valid `simty-checkpoint/v1` envelope (length and
/// checksum recomputed), so a doctored body reaches the decoder.
fn seal(body: &str) -> Vec<u8> {
    let mut bytes = format!(
        "simty-checkpoint/v1\nlen={}\nsum={:016x}\n",
        body.len(),
        simty::sim::codec::fnv1a64(body.as_bytes())
    )
    .into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// The observability level persists as an optional `obs=` line right
/// after the capacities: absent means `Spans` and `obs=0` means `Off`
/// (the two layouts v1 already had), and `obs=metrics` means `Metrics`.
/// Restore rebuilds the layer at the recorded level, and an unknown
/// level is a typed error.
#[test]
fn obs_level_key_decodes_to_its_level() {
    let mut bodies = Vec::new();
    for (level, key) in [
        (ObsLevel::Spans, None),
        (ObsLevel::Off, Some("obs=0")),
        (ObsLevel::Metrics, Some("obs=metrics")),
    ] {
        let mut sim = Simulation::new(
            Box::new(SimtyPolicy::new()),
            SimConfig::new()
                .with_duration(SimDuration::from_hours(1))
                .with_obs(level),
        );
        standard_workload(&mut sim);
        sim.run_until(SimTime::from_secs(1_800));
        let ckpt = sim.checkpoint();
        let body = body_of(&ckpt);
        let lines: Vec<&str> = body.lines().collect();
        let after_caps = lines
            .iter()
            .position(|l| l.starts_with("audit_capacity="))
            .expect("capacity line")
            + 1;
        let obs_lines: Vec<&str> =
            lines.iter().copied().filter(|l| l.starts_with("obs=")).collect();
        assert_eq!(obs_lines, key.into_iter().collect::<Vec<_>>(), "{level:?}");
        if let Some(key) = key {
            assert_eq!(lines[after_caps], key, "{level:?}");
        }
        let restored =
            Simulation::restore(Box::new(SimtyPolicy::new()), &ckpt).expect("restore");
        assert_eq!(restored.obs().level(), level);
        bodies.push(body);
    }

    // An `Off` layer captures an empty registry; the other levels the
    // same registry section.
    let registry_of = |body: &str| {
        let start = body.find("obs_counters=").expect("registry section");
        let end = body.find("obs_audit_dropped=").expect("audit section");
        body[start..end].to_owned()
    };
    assert_eq!(registry_of(&bodies[1]), "obs_counters=0\nobs_gauges=0\nobs_hists=0\n");
    assert_eq!(registry_of(&bodies[0]), registry_of(&bodies[2]));

    // A level this version does not know is rejected, not guessed.
    let bogus = bodies[2].replace("obs=metrics", "obs=audit");
    let ckpt = Checkpoint::from_bytes(&seal(&bogus)).expect("envelope is valid");
    assert!(matches!(
        Simulation::restore(Box::new(SimtyPolicy::new()), &ckpt),
        Err(CheckpointError::Malformed { .. })
    ));
}

/// A `standby soak` cell: the soak config (online watchdog, invariants,
/// a scheduled capture every horizon/8) over a 48 h scenario workload,
/// optionally under the `reboot-storm` profile's reboot plan.
fn soak_cell(policy: PolicyKind, scenario: Scenario, reboot_storm: bool) -> Simulation {
    let seed = 1;
    let duration = SimDuration::from_hours(48);
    let config = SimConfig::new()
        .with_duration(duration)
        .with_checkpoints(SimDuration::from_millis(duration.as_millis() / 8))
        .with_online_watchdog(OnlineWatchdogConfig::default())
        .with_invariants();
    let mut sim = Simulation::new(policy.build(), config);
    let workload = scenario
        .builder()
        .with_seed(seed)
        .with_beta(0.96)
        .with_duration(duration)
        .build();
    for alarm in workload.alarms {
        sim.register(alarm).expect("workload alarms register cleanly");
    }
    if reboot_storm {
        sim.inject_reboots(&RebootPlan::new(seed).with_periodic(
            SimDuration::from_millis(duration.as_millis() / 5),
            SimDuration::from_mins(7),
            SimDuration::from_secs(310),
            duration,
        ));
    }
    sim
}

/// The instant between the fourth and fifth scheduled captures of a
/// [`soak_cell`], where the tests take an on-demand capture.
fn between_captures() -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(SimDuration::from_hours(48).as_millis() * 9 / 16)
}

/// Alarm ids come from one process-wide counter, so the bytes of a
/// capture depend on which tests minted ids before it. A byte-pinning
/// test therefore re-runs itself alone in a child process, where the
/// counter starts at 1: this returns `true` inside that child, and in
/// the parent asserts that the child passed and returns `false`.
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

fn digest(ckpt: &Checkpoint) -> u64 {
    simty::sim::codec::fnv1a64(&ckpt.to_bytes())
}

/// Pins the `simty-checkpoint/v1` bytes: the FNV-1a digest of every
/// scheduled capture of two soak cells, then of one on-demand
/// `checkpoint()` taken between scheduled ones. Any change to the
/// encoder that moves a single byte fails here.
#[test]
fn golden_v1_bytes_of_soak_cells() {
    if !in_own_process("golden_v1_bytes_of_soak_cells") {
        return;
    }
    let cells: [(PolicyKind, Scenario, bool, [u64; 9]); 2] = [
        (
            PolicyKind::Simty,
            Scenario::Heavy,
            true,
            [
                0xf2d1d6e3a94d61f5, 0x711e5296443df517, 0xff5787d5b569ee04,
                0xdd53266005ea53e9, 0x5a7b7360a938d6a6, 0x147d8889153cdb80,
                0x9b9bcf8c9c887f27, 0xada8a5fc3a01d6a2, 0xd847052ef9b62f5d,
            ],
        ),
        (
            PolicyKind::Native,
            Scenario::Light,
            false,
            [
                0x5f72dead362a1d9b, 0x664e620f0ee60dfe, 0xc20d49584920e8e6,
                0x2111699c0027d1fc, 0x67ceba6369aca505, 0x1cfbc1c3480d1b3d,
                0x6def49ed6d95315f, 0x5574f97841d775a6, 0x7f59105e65317e72,
            ],
        ),
    ];
    for (policy, scenario, reboot_storm, golden) in cells {
        let mut sim = soak_cell(policy, scenario, reboot_storm);
        sim.run_until(between_captures());
        let on_demand = sim.checkpoint();
        sim.run();
        let mut got: Vec<u64> = sim.checkpoints().iter().map(digest).collect();
        got.push(digest(&on_demand));
        let hex: Vec<String> = got.iter().map(|d| format!("0x{d:016x}")).collect();
        assert_eq!(
            got,
            golden,
            "{} on {}: v1 bytes moved; digests now [{}]",
            policy.name(),
            scenario.name(),
            hex.join(", ")
        );
    }
}

/// A record count the body cannot back is a typed error, not an abort
/// on a huge allocation or a capacity-overflow panic: each doctored body
/// carries a valid checksum, so it gets past `from_bytes` to the
/// decoder, which must refuse the count before reserving for it.
#[test]
fn hostile_record_counts_are_malformed_not_fatal() {
    let mut sim = Simulation::new(
        Box::new(SimtyPolicy::new()),
        SimConfig::new().with_duration(SimDuration::from_hours(1)),
    );
    standard_workload(&mut sim);
    sim.run_until(SimTime::from_secs(1_800));
    let body = body_of(&sim.checkpoint());
    for (key, count) in [
        ("events", "100000000000"),
        ("obs_spans", "4000000000"),
        ("events", "18446744073709551615"),
    ] {
        let doctored: String = body
            .lines()
            .map(|line| match line.split_once('=') {
                Some((k, _)) if k == key => format!("{key}={count}\n"),
                _ => format!("{line}\n"),
            })
            .collect();
        assert_ne!(doctored, body, "{key} line not found");
        let ckpt = Checkpoint::from_bytes(&seal(&doctored)).expect("the envelope is resealed");
        match Simulation::restore(Box::new(SimtyPolicy::new()), &ckpt) {
            Err(CheckpointError::Malformed { message, .. }) => {
                assert!(message.contains("exceeds"), "{key}={count}: {message}");
            }
            Err(other) => panic!("{key}={count}: expected Malformed, got {other}"),
            Ok(_) => panic!("{key}={count}: restored a body with a hostile count"),
        }
    }
}

/// A run restored from any scheduled capture starts with an empty trace
/// cache and rebuilds it: every later scheduled capture it takes is
/// byte-identical to the straight-through run's.
#[test]
fn resumed_runs_recapture_the_straight_through_bytes() {
    let mut straight = soak_cell(PolicyKind::Simty, Scenario::Heavy, true);
    straight.run();
    let captures = straight.checkpoints();
    assert_eq!(captures.len(), 8);
    for (k, ckpt) in captures.iter().enumerate() {
        let mut resumed =
            Simulation::restore(Box::new(SimtyPolicy::new()), ckpt).expect("restore");
        resumed.run();
        assert!(
            resumed.checkpoints() == &captures[k + 1..],
            "captures after a resume from capture {k} differ from the straight run's"
        );
    }
}

/// An on-demand capture past the last scheduled one reuses the cached
/// trace lines and encodes only the tail; it must equal the capture of
/// a simulation restored from that scheduled capture (whose cache is
/// empty) and run to the same instant.
#[test]
fn on_demand_capture_past_the_cache_matches_an_uncached_one() {
    let build = || {
        let mut sim = Simulation::new(
            Box::new(SimtyPolicy::new()),
            SimConfig::new()
                .with_duration(SimDuration::from_hours(12))
                .with_checkpoints(SimDuration::from_hours(5))
                .with_online_watchdog(OnlineWatchdogConfig::default())
                .with_invariants(),
        );
        standard_workload(&mut sim);
        sim
    };
    let instant = SimTime::from_secs(11 * 3_600);
    let mut cached = build();
    cached.run_until(instant);
    let last = cached.checkpoints().last().expect("scheduled captures").clone();
    assert!(last.captured_at() < instant);
    let mut fresh = Simulation::restore(Box::new(SimtyPolicy::new()), &last).expect("restore");
    fresh.run_until(instant);
    assert!(fresh.checkpoints().is_empty(), "no scheduled capture past the last one");
    assert_eq!(cached.checkpoint(), fresh.checkpoint());
}

/// The trace cache lives next to the simulation without interior
/// mutability, so a simulation still moves and shares across threads.
#[test]
fn simulation_stays_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Simulation>();
}
