//! Crash-consistent checkpointing and simulated reboot recovery.
//!
//! The load-bearing guarantee: a run resumed from *any* checkpoint is
//! byte-identical — in trace CSV and report JSON — to the
//! straight-through run, even when the run is laced with faults and
//! reboots. And after a reboot, boot catch-up delivers every missed
//! alarm inside the (outage-widened) perceptible window.

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

/// The observability level persists as an optional `obs=` line right
/// after the capacities: absent means `Spans` and `obs=0` means `Off`
/// (the two layouts v1 already had), and `obs=metrics` means `Metrics`.
/// Restore rebuilds the layer at the recorded level, and an unknown
/// level is a typed error.
#[test]
fn obs_level_key_decodes_to_its_level() {
    let body_of = |ckpt: &Checkpoint| {
        let bytes = ckpt.to_bytes();
        let text = String::from_utf8(bytes).expect("checkpoints are UTF-8");
        let body_start = text.match_indices('\n').nth(2).expect("envelope").0 + 1;
        text[body_start..].to_owned()
    };
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
    let mut bytes = format!(
        "simty-checkpoint/v1\nlen={}\nsum={:016x}\n",
        bogus.len(),
        simty::sim::codec::fnv1a64(bogus.as_bytes())
    )
    .into_bytes();
    bytes.extend_from_slice(bogus.as_bytes());
    let ckpt = Checkpoint::from_bytes(&bytes).expect("envelope is valid");
    assert!(matches!(
        Simulation::restore(Box::new(SimtyPolicy::new()), &ckpt),
        Err(CheckpointError::Malformed { .. })
    ));
}
