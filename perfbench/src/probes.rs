//! `perfbench trace`: the traced run.
//!
//! It composes the layers' public calls — catalog sample → workload
//! build → `Simulation::new`/`register`/`run` → `fold_report` — with a
//! span around each call, and checks that the composition reproduces
//! the untraced `standby fleet` document's per-policy aggregates byte
//! for byte. Device-level metrics come from the fleet population and,
//! under `dense.` names, from a few 300-app devices; checkpoint,
//! journal, HTTP and live-scheduler probes follow.

use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use simty::apps::{DeviceMix, ScenarioCatalog, WorkloadBuilder};
use simty::core::{SimDuration, SimTime};
use simty::experiments::{PolicyKind, Scenario};
use simty::obs::Stage;
use simty::sim::json::report_to_json;
use simty::sim::{
    Checkpoint, CheckpointStore, OnlineWatchdogConfig, SimConfig, SimReport, Simulation,
};
use simty_bench::fleet::{empty_report, fold_report, FLEET_AUDIT_CAPACITY, FLEET_SPAN_CAPACITY};
use simty_bench::{CampaignJournal, CellStatus, JsonValue};
use simty_serve::http::{HttpConn, Limits, Response};
use simty_serve::live::{LiveScheduler, RegisterOutcome, RegisterRequest};

use crate::metrics::Metrics;
use crate::serve::{decode_recording, fixed_step_seed, LIGHT_RPS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::traffic::{derive, schedule, session_plan, Book, Op, Route, REPEATING_BETA};
use crate::Args;

const POLICIES: [PolicyKind; 2] = [PolicyKind::Native, PolicyKind::Simty];
const STAGES: [Stage; 5] = [
    Stage::QueueSearch,
    Stage::Selection,
    Stage::EventDispatch,
    Stage::Delivery,
    Stage::CheckpointIo,
];
/// Apps on each `dense` device.
pub const DENSE_APPS: usize = 300;
/// Devices per policy in the `dense` population.
pub const DENSE_DEVICES: u64 = 2;

/// The `standby fleet` invocation the traced run must reproduce.
#[derive(Debug, Clone, Copy)]
struct FleetShape {
    devices: u64,
    shards: u64,
    seed: u64,
    minutes: u64,
}

/// Per-device measurements gathered while a population runs.
#[derive(Debug, Default)]
struct Population {
    devices: u64,
    alarms: u64,
    queue_entries: u64,
    deliveries: u64,
    span_evictions: u64,
    audit_evictions: u64,
    stage_ns: [u64; 5],
    stage_calls: [u64; 5],
}

/// One device: build, create, register, run — each call in a span.
fn run_device(
    tr: &mut Tracer,
    pop: &mut Population,
    policy: PolicyKind,
    builder: &WorkloadBuilder,
    config: SimConfig,
) -> SimReport {
    let workload = tr.time("apps.build", || builder.build());
    let mut sim = tr.time("sim.new", || Simulation::new(policy.build(), config));
    pop.alarms += workload.alarms.len() as u64;
    for alarm in workload.alarms {
        tr.time("core.register", || sim.register(alarm))
            .expect("workload alarms register cleanly");
    }
    pop.queue_entries += sim.manager().wakeup_queue().len() as u64;
    let report = tr.time("sim.run", || sim.run());
    pop.devices += 1;
    pop.deliveries += report.total_deliveries;
    pop.span_evictions += sim.obs().spans().dropped();
    pop.audit_evictions += sim.obs().audit_dropped();
    let profile = sim.stage_profile();
    for (i, stage) in STAGES.into_iter().enumerate() {
        pop.stage_ns[i] += profile.nanos(stage);
        pop.stage_calls[i] += profile.calls(stage);
    }
    report
}

fn fleet_builder(shape: &FleetShape, catalog: &ScenarioCatalog, device: u64) -> WorkloadBuilder {
    let seed = ScenarioCatalog::device_seed(shape.seed, device);
    let builder = match catalog.sample(shape.seed, device) {
        DeviceMix::Light => WorkloadBuilder::light(),
        DeviceMix::Heavy => WorkloadBuilder::heavy(),
        DeviceMix::Synthetic(n) => WorkloadBuilder::synthetic(n, seed),
    };
    builder
        .with_seed(seed)
        .with_beta(0.96)
        .with_duration(SimDuration::from_mins(shape.minutes))
}

fn fleet_config(shape: &FleetShape) -> SimConfig {
    SimConfig::new()
        .with_duration(SimDuration::from_mins(shape.minutes))
        .with_span_capacity(FLEET_SPAN_CAPACITY)
        .with_audit_capacity(FLEET_AUDIT_CAPACITY)
}

/// The fleet composed from public calls: devices fold into shards in
/// index order, shards into per-policy aggregates.
fn fleet_pass(tr: &mut Tracer, pop: &mut Population, shape: &FleetShape) -> Vec<SimReport> {
    let catalog = ScenarioCatalog::paper_mix();
    let mut aggregates = Vec::new();
    for policy in POLICIES {
        let mut aggregate = empty_report(&policy.name());
        for k in 0..shape.shards {
            let (start, end) = (
                shape.devices * k / shape.shards,
                shape.devices * (k + 1) / shape.shards,
            );
            let mut shard = empty_report(&format!("{}/shard{k:02}", policy.name()));
            for device in start..end {
                let span = tr.enter("bench.device");
                let builder = tr.time("apps.catalog", || fleet_builder(shape, &catalog, device));
                let report = run_device(tr, pop, policy, &builder, fleet_config(shape));
                tr.time("bench.fold", || fold_report(&mut shard, &report));
                tr.exit(span);
            }
            fold_report(&mut aggregate, &shard);
        }
        aggregates.push(aggregate);
    }
    aggregates
}

fn soak_config(hours: u64) -> SimConfig {
    let duration = SimDuration::from_hours(hours);
    SimConfig::new()
        .with_duration(duration)
        .with_checkpoints(SimDuration::from_millis((duration.as_millis() / 8).max(1)))
        .with_online_watchdog(OnlineWatchdogConfig::default())
        .with_invariants()
}

fn soak_builder(scenario: Scenario, seed: u64, hours: u64) -> WorkloadBuilder {
    scenario
        .builder()
        .with_seed(seed)
        .with_beta(0.96)
        .with_duration(SimDuration::from_hours(hours))
}

fn dense_builder(seed: u64, device: u64) -> WorkloadBuilder {
    let seed = derive(seed, device);
    WorkloadBuilder::synthetic(DENSE_APPS, seed)
        .with_seed(seed)
        .with_beta(0.96)
        .with_duration(SimDuration::from_hours(3))
}

/// The `dense` population: a few 300-app devices per policy.
fn dense_cases(seed: u64) -> Vec<(PolicyKind, WorkloadBuilder, SimConfig)> {
    let mut cases = Vec::new();
    for policy in POLICIES {
        for d in 0..DENSE_DEVICES {
            let config = SimConfig::new().with_duration(SimDuration::from_hours(3));
            cases.push((policy, dense_builder(seed, d), config));
        }
    }
    cases
}

/// The first devices of the fleet population, for the obs probe.
fn fleet_cases(
    shape: &FleetShape,
    per_policy: u64,
) -> Vec<(PolicyKind, WorkloadBuilder, SimConfig)> {
    let catalog = ScenarioCatalog::paper_mix();
    let mut cases = Vec::new();
    for policy in POLICIES {
        for device in 0..shape.devices.min(per_policy) {
            cases.push((
                policy,
                fleet_builder(shape, &catalog, device),
                fleet_config(shape),
            ));
        }
    }
    cases
}

/// Host time of `run()` for the same devices with the observability
/// layer on (the given config) and off (`without_obs()`), as the
/// fraction it adds.
fn obs_overhead(cases: &[(PolicyKind, WorkloadBuilder, SimConfig)]) -> f64 {
    let mut with = Duration::ZERO;
    let mut without = Duration::ZERO;
    for (policy, builder, config) in cases {
        for (obs, total) in [(true, &mut with), (false, &mut without)] {
            let config = if obs {
                config.clone()
            } else {
                config.clone().without_obs()
            };
            let mut sim = Simulation::new(policy.build(), config);
            for alarm in builder.build().alarms {
                sim.register(alarm)
                    .expect("workload alarms register cleanly");
            }
            let t0 = Instant::now();
            std::hint::black_box(sim.run());
            *total += t0.elapsed();
        }
    }
    with.as_secs_f64() / without.as_secs_f64() - 1.0
}

/// Device-level metrics of one population, read from its own spans.
/// `infix` names the population (`""` for fleet, `"dense."`).
fn device_metrics(m: &mut Metrics, infix: &str, tr: &Tracer, pop: &Population, obs_overhead: f64) {
    let per_device = |x: u64| x as f64 / pop.devices.max(1) as f64;
    let run_ns: f64 = tr.durations("sim.run").iter().sum();
    m.set(
        format!("apps.{infix}build_us"),
        mean_us(tr, "apps.build"),
        "us",
    );
    m.set(
        format!("apps.{infix}alarms_per_device"),
        per_device(pop.alarms),
        "count",
    );
    m.set(
        format!("core.{infix}register_us"),
        mean_us(tr, "core.register"),
        "us",
    );
    m.set(
        format!("core.{infix}queue_entries"),
        per_device(pop.queue_entries),
        "count",
    );
    m.set(format!("sim.{infix}new_us"), mean_us(tr, "sim.new"), "us");
    m.set(
        format!("sim.{infix}run_ms"),
        mean_us(tr, "sim.run") / 1e3,
        "ms",
    );
    m.set(
        format!("sim.{infix}ns_per_delivery"),
        run_ns / pop.deliveries.max(1) as f64,
        "ns",
    );
    m.set(
        format!("sim.{infix}deliveries_per_device"),
        per_device(pop.deliveries),
        "count",
    );
    for (i, stage) in STAGES.into_iter().enumerate() {
        m.set(
            format!("sim.{infix}stage.{}_ns", stage.as_str()),
            per_device(pop.stage_ns[i]),
            "ns",
        );
    }
    m.set(format!("obs.{infix}overhead_frac"), obs_overhead, "ratio");
}

fn mean_us(tr: &Tracer, name: &str) -> f64 {
    let d = tr.durations(name);
    d.iter().sum::<f64>() / d.len().max(1) as f64 / 1e3
}

fn median_ms(tr: &Tracer, name: &str) -> f64 {
    median(&tr.durations(name)).unwrap_or(f64::NAN) / 1e6
}

/// Checkpoint capture, encode, save, load and restore, repeated on a
/// heavy soak device stopped half-way; a restored copy must finish
/// byte-identical to the original.
fn checkpoint_probe(
    tr: &mut Tracer,
    m: &mut Metrics,
    seed: u64,
    hours: u64,
    dir: &Path,
) -> Result<(), String> {
    let policy = PolicyKind::Simty;
    let build = || {
        let mut sim = Simulation::new(policy.build(), soak_config(hours));
        for alarm in soak_builder(Scenario::Heavy, seed, hours).build().alarms {
            sim.register(alarm)
                .expect("workload alarms register cleanly");
        }
        sim
    };
    let mut sim = build();
    sim.run_until(SimTime::ZERO + SimDuration::from_hours(hours) / 2);
    let mut bytes_len = 0;
    let mut restored = None;
    for rep in 0..5 {
        let store_dir = dir.join(format!("ckpt-{rep}"));
        let _ = std::fs::remove_dir_all(&store_dir);
        let mut store = CheckpointStore::open(&store_dir).map_err(|e| e.to_string())?;
        let ckpt = tr.time("checkpoint.capture", || sim.checkpoint());
        let bytes = tr.time("checkpoint.encode", || ckpt.to_bytes());
        bytes_len = bytes.len();
        tr.time("checkpoint.decode", || Checkpoint::from_bytes(&bytes))
            .map_err(|e| e.to_string())?;
        tr.time("checkpoint.save", || store.save(&ckpt))
            .map_err(|e| e.to_string())?;
        let (loaded, _) = tr
            .time("checkpoint.load", || store.load_latest_good())
            .map_err(|e| e.to_string())?;
        restored = Some(
            tr.time("checkpoint.restore", || {
                Simulation::restore(policy.build(), &loaded)
            })
            .map_err(|e| e.to_string())?,
        );
    }
    let mut restored = restored.expect("at least one repetition");
    let straight = report_to_json(&sim.run());
    if report_to_json(&restored.run()) != straight {
        m.problem("checkpoint: a restored run diverged from the straight-through run");
    }
    m.set("checkpoint.bytes", bytes_len as f64, "B");
    for (metric, span) in [
        ("checkpoint.capture_ms", "checkpoint.capture"),
        ("checkpoint.encode_ms", "checkpoint.encode"),
        ("checkpoint.decode_ms", "checkpoint.decode"),
        ("checkpoint.save_ms", "checkpoint.save"),
        ("checkpoint.load_ms", "checkpoint.load"),
        ("checkpoint.restore_ms", "checkpoint.restore"),
    ] {
        m.set(metric, median_ms(tr, span), "ms");
    }
    Ok(())
}

fn journal_probe(
    tr: &mut Tracer,
    m: &mut Metrics,
    reports: &[SimReport],
    dir: &Path,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let labels: Vec<String> = (0..reports.len() * 4)
        .map(|i| format!("cell{i:03}"))
        .collect();
    let (journal, _) = CampaignJournal::open(dir, "fleet", &labels).map_err(|e| e.to_string())?;
    for (i, _) in labels.iter().enumerate() {
        let report = &reports[i % reports.len()];
        tr.time("bench.journal_record", || {
            journal.record(i, &CellStatus::Ok, report, Some("devices=1"))
        })
        .map_err(|e| e.to_string())?;
    }
    m.set(
        "bench.journal_record_ms",
        median_ms(tr, "bench.journal_record"),
        "ms",
    );
    Ok(())
}

/// `1 − Σ cell wall / (threads × total wall)` of the untraced fleet.
fn idle_frac(doc: &JsonValue) -> Option<f64> {
    let threads = doc.get("threads")?.as_num()?;
    let total = doc.get("total_wall_ms")?.as_num()?;
    let JsonValue::Arr(cells) = doc.get("cells")? else {
        return None;
    };
    let busy: f64 = cells
        .iter()
        .filter_map(|c| c.get("wall_ms").and_then(JsonValue::as_num))
        .sum();
    Some(1.0 - busy / (threads * total))
}

fn to_register(op: &Op) -> Option<RegisterRequest> {
    let Op::Register {
        tenant,
        nominal_ms,
        now_ms,
        repeat_ms,
    } = op
    else {
        return None;
    };
    let mut req = RegisterRequest::simple(tenant, *nominal_ms);
    req.now_ms = Some(*now_ms);
    req.repeat_ms = *repeat_ms;
    req.beta = repeat_ms.map(|_| REPEATING_BETA);
    Some(req)
}

/// Replays the light step's seeded request stream straight into a
/// `LiveScheduler`, one span per call, and encodes each answer.
fn live_probe(tr: &mut Tracer, m: &mut Metrics, seed: u64, requests: usize) {
    let step_seed = fixed_step_seed(seed, 0, 0);
    let sessions = schedule(step_seed, LIGHT_RPS, requests).len();
    let mut live = LiveScheduler::new("simty").expect("simty is a serve policy");
    let mut book = Book::new();
    let mut failures = 0u64;
    for session in 0..sessions as u64 {
        let (mut rng, draws) = session_plan(step_seed, session);
        for draw in draws {
            let op = book.next_op(draw, &mut rng);
            let body = match &op {
                Op::Register { nominal_ms, .. } => {
                    let req = to_register(&op).expect("a register op");
                    match tr.time("serve.live.register", || live.register(&req)) {
                        RegisterOutcome::Admitted {
                            ordinal,
                            id,
                            deferred_to_ms,
                        } => {
                            book.admitted(&op, ordinal, deferred_to_ms.unwrap_or(*nominal_ms));
                            Some(format!(
                                "{{\"ordinal\":{ordinal},\"id\":{id},\"deferred_to_ms\":null}}"
                            ))
                        }
                        _ => None,
                    }
                }
                Op::Query { tenant } => {
                    tr.time("serve.live.query", || live.query(tenant))
                        .map(|(stats, views)| {
                            format!("{{\"live\":{},\"alarms\":{}}}", stats.live, views.len())
                        })
                }
                Op::Cancel { tenant, ordinal } => tr
                    .time("serve.live.cancel", || live.cancel(tenant, *ordinal))
                    .then(|| "{\"cancelled\":true}".to_owned()),
                Op::Advance { now_ms } => {
                    let n = tr.time("serve.live.advance", || live.advance(*now_ms));
                    Some(format!("{{\"delivered\":{n},\"now_ms\":{now_ms}}}"))
                }
            };
            match body {
                Some(body) => {
                    let response = Response::ok_json(body);
                    std::hint::black_box(tr.time("serve.http.encode", || response.to_bytes()));
                }
                None => failures += 1,
            }
        }
    }
    if failures > 0 {
        m.problem(format!(
            "serve.live: {failures} replayed requests did not succeed"
        ));
    }
    if !live.verify().is_empty() {
        m.problem("serve.live: the scheduler failed its consistency audit");
    }
    for route in Route::ALL {
        let name = route.name();
        m.set(
            format!("serve.live.{name}_us"),
            mean_us(tr, &format!("serve.live.{name}")),
            "us",
        );
    }
    m.set("serve.live.alarms", live.alarm_count() as f64, "count");
    let payload = tr.time("serve.live.snapshot", || live.snapshot_payload());
    std::hint::black_box(payload);
    m.set(
        "serve.live.snapshot_ms",
        median_ms(tr, "serve.live.snapshot"),
        "ms",
    );
    m.set(
        "serve.http.encode_us",
        mean_us(tr, "serve.http.encode"),
        "us",
    );
}

fn parse_probe(tr: &mut Tracer, m: &mut Metrics, path: &Path) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let requests = decode_recording(&bytes)?;
    if requests.is_empty() {
        return Err("no recorded requests to parse".into());
    }
    for request in requests {
        let mut conn = HttpConn::new(Cursor::new(request), Limits::default());
        if tr.time("serve.http.parse", || conn.read_request()).is_err() {
            m.problem("serve.http: a recorded request failed to parse");
        }
    }
    m.set("serve.http.parse_us", mean_us(tr, "serve.http.parse"), "us");
    Ok(())
}

/// The traced run; prints the per-layer metrics as JSON.
pub fn main(args: &Args) -> Result<String, String> {
    let seed: u64 = args.get("seed")?;
    let scratch = PathBuf::from(args.str("scratch")?);
    let hours: u64 = args.get("soak-hours")?;
    let shape = FleetShape {
        devices: args.get("fleet-devices")?,
        shards: args.get("fleet-shards")?,
        seed,
        minutes: args.get("fleet-minutes")?,
    };
    let fleet_doc_text =
        std::fs::read_to_string(args.str("fleet-json")?).map_err(|e| e.to_string())?;
    let fleet_doc = JsonValue::parse(&fleet_doc_text)?;
    let mut m = Metrics::new();

    // Untraced, then traced: the same composition with the tracer off
    // and on gives the tracing overhead.
    let mut untraced_pop = Population::default();
    let t0 = Instant::now();
    let untraced = fleet_pass(&mut Tracer::new(false), &mut untraced_pop, &shape);
    let untraced_wall = t0.elapsed();
    let mut tr = Tracer::new(true);
    let mut fleet_pop = Population::default();
    let t0 = Instant::now();
    let traced = fleet_pass(&mut tr, &mut fleet_pop, &shape);
    let traced_wall = t0.elapsed();
    m.set(
        "trace.overhead_frac",
        traced_wall.as_secs_f64() / untraced_wall.as_secs_f64() - 1.0,
        "ratio",
    );
    m.attempted += 2 * fleet_pop.devices;
    for (agg, twin) in traced.iter().zip(&untraced) {
        let json = report_to_json(agg);
        if !fleet_doc_text.contains(&format!("\"report\":{json}")) || json != report_to_json(twin) {
            m.failed += fleet_pop.devices / 2;
            m.problem(format!(
                "trace: the composed {} aggregate differs from the untraced fleet document",
                agg.policy
            ));
        }
    }
    m.set("bench.fold_us", mean_us(&tr, "bench.fold"), "us");
    m.set("apps.catalog_us", mean_us(&tr, "apps.catalog"), "us");

    // Device-level metrics of the fleet population (from the traced
    // pass) and of the dense population (from its own pass).
    device_metrics(
        &mut m,
        "",
        &tr,
        &fleet_pop,
        obs_overhead(&fleet_cases(&shape, 200)),
    );
    let per_device = |x: u64| x as f64 / fleet_pop.devices.max(1) as f64;
    for (i, stage) in STAGES.into_iter().enumerate() {
        m.set(
            format!("sim.stage.{}.calls", stage.as_str()),
            per_device(fleet_pop.stage_calls[i]),
            "count",
        );
    }
    m.set(
        "obs.span_evictions_per_device",
        per_device(fleet_pop.span_evictions),
        "count",
    );
    m.set(
        "obs.audit_evictions_per_device",
        per_device(fleet_pop.audit_evictions),
        "count",
    );
    let mut dense = Tracer::new(true);
    let mut dense_pop = Population::default();
    let cases = dense_cases(seed);
    for (policy, builder, config) in &cases {
        run_device(&mut dense, &mut dense_pop, *policy, builder, config.clone());
    }
    m.attempted += dense_pop.devices;
    device_metrics(&mut m, "dense.", &dense, &dense_pop, obs_overhead(&cases));
    tr.absorb(dense);

    checkpoint_probe(&mut tr, &mut m, seed, hours, &scratch.join("checkpoint"))?;
    journal_probe(&mut tr, &mut m, &traced, &scratch.join("journal"))?;
    m.set(
        "bench.idle_frac",
        idle_frac(&fleet_doc).ok_or("fleet document lacks threads/cells/wall")?,
        "ratio",
    );
    parse_probe(&mut tr, &mut m, Path::new(args.str("serve-record")?))?;
    live_probe(&mut tr, &mut m, seed, args.get("requests")?);

    // Self time per layer: span time minus the time child spans cover.
    let mut layers = std::collections::BTreeMap::<String, u64>::new();
    for (name, self_ns) in tr.self_ns() {
        let layer = match name.rsplit_once('.') {
            Some((layer, _)) => layer,
            None => name,
        };
        *layers.entry(layer.to_owned()).or_default() += self_ns;
    }
    for layer in [
        "apps",
        "bench",
        "checkpoint",
        "core",
        "serve.http",
        "serve.live",
        "sim",
    ] {
        m.set(
            format!("{layer}.self_ms"),
            layers.get(layer).copied().unwrap_or(0) as f64 / 1e6,
            "ms",
        );
    }
    m.set("trace.spans", tr.spans().len() as f64, "count");
    let spans_out = args.str("spans-out")?;
    std::fs::write(spans_out, tr.to_chrome_json()).map_err(|e| format!("{spans_out}: {e}"))?;
    Ok(m.to_json())
}
