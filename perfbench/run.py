#!/usr/bin/env python3
"""One benchmark for the SIMTY stack.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fleet|serve \
        --seed N --seconds S --trace 0|1

It builds the release `standby` binary and the `perfbench` helper from
source (into $CARGO_TARGET_DIR, default `.bench_build`), then drives
them as users run them. Every run measures four parts -- fleet, dense,
soak and serve -- so that every end-to-end metric is reported on every
workload; the named workload gets a larger share of the time and sets
`setup_s`. With `--trace 1` it instead makes the traced run and reports
the per-layer metrics. See perfbench/README.md.

The last line of standard output is one JSON object:
{"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
A failed output check makes the exit code non-zero.
"""

import argparse
import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("fleet", "serve")
CPUS = sorted(os.sched_getaffinity(0))
THREADS = len(CPUS)

# fleet: a paper-mix population, 10 simulated minutes per device.
FLEET_DEVICES = 2000
FLEET_TRACE_DEVICES = 1000
FLEET_SHARDS = 4
FLEET_MINUTES = 10
FLEET_CKPT_STRIDE = 250
# dense: synthetic devices of this many apps, 3 simulated hours each;
# the samples cycle over DENSE_DEVICES device seeds (see Batch.dense).
DENSE_APPS = 300
DENSE_HOURS = 3
DENSE_DEVICES = 4
# soak: 48 simulated hours per cell, shifted by the seed (see soak_hours).
SOAK_HOURS = 48
# serve: requests per ladder step at scale 1, and per fixed-rate window
# of the traced run; a p99 needs 1 000 (rates, windows and the ladder
# are constants of perfbench/src/serve.rs).
SERVE_STEP_REQUESTS = 1000
SERVE_WINDOW_REQUESTS = 1100
# setup_s: launches per group; three groups spread over the run.
SETUP_REPEATS = 17


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


class Problems:
    """Operation counts and failed output checks of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what, failed_ops=1):
        if not ok:
            self.failed += failed_ops
            self.notes.append(what)
            log("CHECK FAILED:", what)


PERFBENCH = None  # the helper binary, once built


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "simty-cli", "--bin", "standby"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(ROOT, "perfbench", "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise SystemExit(f"run.py: build failed: {' '.join(cmd)}")
    standby = os.path.join(target, "release", "standby")
    perfbench = os.path.join(target, "release", "perfbench")
    for path in (standby, perfbench):
        if not os.path.isfile(path):
            raise SystemExit(f"run.py: build produced no {path}")
    return standby, perfbench


def rss_wrapped(cmd, rss_path):
    """cmd run through `perfbench rss`, which records its wall time and
    peak RSS (see perfbench/src/rss.rs for why a wrapper)."""
    return [PERFBENCH, "rss", "--out", rss_path, "--"] + cmd


def measured(cmd, stdout_path=None, cpu=None):
    """Runs cmd to completion, pinned to one CPU when cpu is given;
    returns (wall s, exit code, stdout text, peak RSS MB)."""
    rss_path = os.path.join(OUT, "rss.json")
    if os.path.exists(rss_path):
        os.remove(rss_path)
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    with open(stdout_path or os.devnull, "wb") as out:
        subprocess.run(rss_wrapped(cmd, rss_path), cwd=OUT, stdout=out, preexec_fn=pin)
    with open(rss_path) as f:
        usage = json.load(f)
    text = ""
    if stdout_path:
        with open(stdout_path) as f:
            text = f.read()
    return usage["wall_s"], usage["exit"], text, usage["peak_rss_mb"]


def fresh(name):
    path = os.path.join(OUT, name)
    shutil.rmtree(path, ignore_errors=True)
    return path


def median(values):
    return statistics.median(values) if values else float("nan")


# ---------------------------------------------------------------- fleet

def fleet_cmd(standby, seed, devices, journal, doc):
    return [standby, "fleet", "--devices", str(devices), "--shards", str(FLEET_SHARDS),
            "--minutes", str(FLEET_MINUTES), "--threads", str(THREADS), "--seed", str(seed),
            "--ckpt-stride", str(FLEET_CKPT_STRIDE), "--resume", journal, "--json", doc]


def deterministic_fleet(doc):
    cells = [{k: v for k, v in c.items() if k != "wall_ms"} for c in doc["cells"]]
    return json.dumps([doc["aggregates"], cells, doc["harness"]], sort_keys=True)


def check_fleet(doc, probs, devices):
    agg = {a["policy"]: a for a in doc["aggregates"]}
    runs = 2 * devices
    probs.attempted += runs
    poisoned = sum(a["shards_poisoned"] for a in doc["aggregates"])
    probs.check(poisoned == 0, f"fleet: {poisoned} poisoned shards",
                failed_ops=runs * poisoned // (2 * FLEET_SHARDS))
    for name, a in agg.items():
        violations = a["report"]["resilience"]["invariant_violations"]
        probs.check(violations == 0, f"fleet: {name} has {violations} invariant violations")
    native = agg["NATIVE"]["report"]["energy_mj"]["total"]
    simty = agg["SIMTY"]["report"]["energy_mj"]["total"]
    probs.check(simty < native, f"fleet: SIMTY energy {simty} is not below NATIVE {native}")


def fleet_setup(standby):
    return [standby, "fleet", "--devices", "1", "--shards", "1", "--minutes", "1",
            "--threads", "1", "--policies", "native"]


# ---------------------------------------------------------------- dense

def dense_cmd(standby, policy, device_seed):
    return [standby, "run", "--scenario", f"synthetic:{DENSE_APPS}", "--policy", policy,
            "--hours", str(DENSE_HOURS), "--seed", str(device_seed), "--json"]


# ----------------------------------------------------------------- soak

def soak_hours(seed):
    """48 h shifted by -2..+2 h with the seed, so each seed has its own
    reboot plans and snapshot times."""
    return SOAK_HOURS - 2 + seed % 5


class Batch:
    """The three batch parts; every method call returns samples, each
    (rate, peak RSS MB) of user-visible invocations, with their outputs
    checked."""

    def __init__(self, standby, seed, probs):
        self.standby, self.seed, self.probs = standby, seed, probs
        self.calls = 0
        self.dense_calls = 0
        self.fleet_payloads = set()

    def _name(self, part):
        self.calls += 1
        return f"{part}-{self.calls}"

    def fleet(self, devices=FLEET_DEVICES, doc_path=None):
        """One fleet campaign: [(device-runs per second, peak RSS MB)]."""
        name = self._name("fleet")
        doc_path = doc_path or os.path.join(OUT, f"{name}.json")
        wall, code, _, peak = measured(
            fleet_cmd(self.standby, self.seed, devices, fresh(f"{name}-journal"), doc_path))
        self.probs.check(code == 0, f"fleet: exit code {code}")
        with open(doc_path) as f:
            doc = json.load(f)
        check_fleet(doc, self.probs, devices)
        if devices == FLEET_DEVICES:
            self.fleet_payloads.add(deterministic_fleet(doc))
            self.probs.check(len(self.fleet_payloads) == 1,
                             "fleet: deterministic payload differs between runs")
        return [(2 * devices / wall, peak)]

    def dense(self, warmup=False):
        """One dense device under both policies, then both again (each
        report must be identical to its first run): two samples of
        (deliveries per second, peak RSS MB), one per pass. Devices
        cycle over the same DENSE_DEVICES device seeds in the same
        order, so a run that fits more rounds measures more of the same
        devices, not other ones; the warm-up uses a device of its own.

        A dense run is single-threaded, and the vCPUs of a virtual
        machine can differ in speed for minutes at a time (by 1.4x on
        the machine of the README). So each run is pinned to a CPU, and
        the two policies of a pass, and a policy's two runs, go to
        different CPUs: every sample mixes the CPUs alike."""
        k = DENSE_DEVICES if warmup else self.dense_calls % DENSE_DEVICES
        device_seed = self.seed * 1000 + k
        self.dense_calls += 0 if warmup else 1
        first, samples = {}, []
        for rep in range(2):
            deliveries, walls, rss = 0, 0.0, 0.0
            for i, policy in enumerate(("native", "simty")):
                wall, code, text, peak = measured(
                    dense_cmd(self.standby, policy, device_seed), os.path.join(OUT, "dense.json"),
                    cpu=CPUS[(rep + i) % len(CPUS)])
                self.probs.attempted += 1
                self.probs.check(code == 0, f"dense: exit code {code}")
                report = json.loads(text)
                deliveries += report["total_deliveries"]
                walls += wall
                rss = max(rss, peak)
                self.probs.check(report["resilience"]["invariant_violations"] == 0,
                                 f"dense: invariant violations on device {device_seed}")
                self.probs.check(first.setdefault(policy, text) == text,
                                 f"dense: {policy} device {device_seed} differs across repeats")
            samples.append((deliveries / walls, rss))
        return samples

    def soak(self):
        """One soak campaign over the full cell grid: [(simulated
        device-hours per second, peak RSS MB)]."""
        name = self._name("soak")
        hours = soak_hours(self.seed)
        doc_path = os.path.join(OUT, f"{name}.json")
        wall, code, _, peak = measured(
            [self.standby, "soak", "--threads", str(THREADS), "--seeds", "1",
             "--hours", str(hours), "--resume", fresh(f"{name}-journal"), "--json", doc_path])
        self.probs.check(code == 0, f"soak: exit code {code}")
        with open(doc_path) as f:
            doc = json.load(f)
        sim_h = 0.0
        for cell in doc["results"]:
            self.probs.attempted += 1
            ok = (cell["status"] == "ok" and cell["restore_ok"] and cell["resumed_identical"]
                  and cell["report"]["resilience"]["perceptible_window_misses"] == 0)
            self.probs.check(ok, f"soak: cell {cell['label']} failed recovery")
            # Snapshots are taken every hours/8; the resumed run covers
            # the snapshots the drill had to skip.
            sim_h += hours * (1 + cell["corrupt_skipped"] / 8)
        for pol in doc["policies"]:
            self.probs.check(pol["all_restores_ok"] and pol["all_resumed_identical"]
                             and pol["perceptible_window_misses"] == 0,
                             f"soak: {pol['policy']} endurance checks failed")
        return [(sim_h / wall, peak)]


# ---------------------------------------------------------------- serve

class Server:
    """A `standby serve` child on an ephemeral port."""

    def __init__(self, standby, rss_path=None, probe_delay=0.0):
        """With rss_path the server runs under `perfbench rss`. The
        first /healthz goes out probe_delay seconds after the server
        says it listens; that idle wait is not counted in setup_s."""
        self.rss_path = rss_path
        cmd = [standby, "serve", "--addr", "127.0.0.1:0", "--workers", str(THREADS)]
        if rss_path:
            cmd = rss_wrapped(cmd, rss_path)
        self.t0 = time.perf_counter()
        # A session of its own, so stop_now reaches the wrapped server too.
        self.proc = subprocess.Popen(cmd, cwd=OUT, stdout=subprocess.PIPE, text=True,
                                     start_new_session=True)
        line = self.proc.stdout.readline()
        if not line.startswith("listening on "):
            self.stop_now()
            raise SystemExit(f"run.py: serve did not start: {line!r}")
        listening = time.perf_counter()
        self.addr = line.split()[-1]
        host, port = self.addr.rsplit(":", 1)
        time.sleep(probe_delay)
        probing = time.perf_counter()
        deadline = probing + 10
        while True:
            try:
                conn = http.client.HTTPConnection(host, int(port), timeout=2)
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    conn.close()
                    break
                conn.close()
            except OSError:
                pass
            if time.perf_counter() > deadline:
                self.stop_now()
                raise SystemExit("run.py: serve never answered /healthz")
            time.sleep(0.0002)
        self.setup_s = (listening - self.t0) + (time.perf_counter() - probing)

    def drain(self, probs):
        """Drains the server; checks its report; returns its peak RSS
        in MB when it ran under `perfbench rss`."""
        host, port = self.addr.rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=5)
        conn.request("POST", "/admin/drain", body="")
        conn.getresponse().read()
        conn.close()
        report_line = self.proc.stdout.read()
        self.proc.stdout.close()
        code = self.proc.wait()
        probs.check(code == 0, f"serve: exit code {code}")
        peak = float("nan")
        if self.rss_path:
            with open(self.rss_path) as f:
                peak = json.load(f)["peak_rss_mb"]
        try:
            drain = json.loads(report_line.strip().splitlines()[-1])
        except (ValueError, IndexError):
            probs.check(False, "serve: no drain report")
            return peak
        probs.check(drain["invariant_violations"] == 0,
                    f"serve: {drain['invariant_violations']} invariant violations at drain")
        probs.check(drain["accepted"] == drain["completed"],
                    f"serve: accepted {drain['accepted']} != completed {drain['completed']}")
        return peak

    def stop_now(self):
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()


# `standby serve` polls its listener every 5 ms. Whether the first
# /healthz lands just before a poll or just after the server's first
# empty poll is a race that one host state settles one way and another
# state the other way (setup_s about 2 ms or about 7 ms). Sending it at
# phases spread evenly over the poll instead makes setup_s the
# launch-to-answer time of a client that arrives at an arbitrary moment.
ACCEPT_POLL_S = 0.005


def serve_setup(standby, probs, probe_delay):
    server = Server(standby, probe_delay=probe_delay)
    try:
        server.drain(probs)
    finally:
        server.stop_now()
    return server.setup_s


def run_serve(standby, perfbench, seed, scale, probs, trace=False):
    """The rate ladder, its steps stretched by `scale`; in the traced run
    the light and busy fixed-rate windows instead, recording request
    bytes for the parser probe."""
    server = Server(standby, os.path.join(OUT, "serve-rss.json"))
    requests = SERVE_WINDOW_REQUESTS if trace else round(SERVE_STEP_REQUESTS * scale)
    record = os.path.join(OUT, "serve-requests.bin")
    cmd = [perfbench, "serve", "--addr", server.addr, "--seed", str(seed),
           "--threads", str(THREADS), "--requests", str(requests)]
    if trace:
        cmd += ["--record", record]
    try:
        done = subprocess.run(cmd, cwd=OUT, stdout=subprocess.PIPE, text=True)
        peak = server.drain(probs)
    finally:
        server.stop_now()
    probs.check(done.returncode == 0, f"perfbench serve: exit code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    probs.attempted += result["attempted"]
    probs.failed += result["failed"]
    for note in result["problems"]:
        probs.check(False, note, failed_ops=0)
    metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
    return metrics, peak, (record, requests)


# ----------------------------------------------------------------- main

def setup_launches(workload, standby, probs, times, rng):
    """SETUP_REPEATS launches, each timed from launch until the first
    operation can run, appended to times[cpu]. Serve launches probe at
    evenly spaced phases of the accept poll, in a seeded order. The
    one-device fleet launch is single-threaded, so its launches take
    turns over the CPUs (see Batch.dense for why); a serve launch uses
    every CPU and is not pinned (cpu None)."""
    phases = list(range(SETUP_REPEATS))
    rng.shuffle(phases)
    offset = rng.random()
    for phase in phases:
        if workload == "serve":
            delay = (phase + offset) / SETUP_REPEATS * ACCEPT_POLL_S
            times.setdefault(None, []).append(serve_setup(standby, probs, delay))
            continue
        cpu = CPUS[phase % len(CPUS)]
        wall, code, _, _ = measured(fleet_setup(standby), cpu=cpu)
        probs.check(code == 0, f"{workload} setup: exit code {code}")
        times.setdefault(cpu, []).append(wall)


# Seconds of a run: the batch parts (fleet, dense, soak) run in rounds,
# half before and half after serve, so a slow spell of the host cannot
# hold all of one part's samples; the named workload gets EXTRA_S more
# (two fleet samples per round, or longer ladder steps). The serve
# ladder takes about SERVE_S at scale 1.
BATCH_S = 24.0
SERVE_S = 20.0
EXTRA_S = 4.0
BATCH = ("fleet", "dense", "soak")


def untraced(workload, seed, seconds, standby, perfbench, probs):
    scale = seconds / (BATCH_S + SERVE_S + EXTRA_S)
    batch_s = scale * (BATCH_S + (EXTRA_S if workload in BATCH else 0))
    serve_scale = scale * (1 + (EXTRA_S / SERVE_S if workload == "serve" else 0))
    # setup_s is taken over three groups of launches: at the start,
    # after the serve part and at the end, so one slow spell of the host
    # holds at most a third of them.
    setup_times, rng = {}, random.Random(seed)
    setup_launches(workload, standby, probs, setup_times, rng)
    batch = Batch(standby, seed, probs)
    samples = {part: [] for part in BATCH}

    def rounds(budget):
        # The first campaigns after the serve part or a pause run slowly
        # (cold caches and memory): one fleet and one dense sample warm
        # up and are dropped.
        batch.fleet()
        batch.dense(warmup=True)
        t0 = time.perf_counter()
        while True:
            start = time.perf_counter()
            for part in BATCH:
                for _ in range(2 if part == workload else 1):
                    samples[part].extend(getattr(batch, part)())
            # Start another round only if it fits the budget.
            now = time.perf_counter()
            if now + (now - start) > t0 + budget:
                return

    rounds(batch_s / 2)
    m, _, _ = run_serve(standby, perfbench, seed, serve_scale, probs)
    setup_launches(workload, standby, probs, setup_times, rng)
    rounds(batch_s / 2)
    setup_launches(workload, standby, probs, setup_times, rng)
    # The mean over CPUs of each CPU's median launch.
    setup_s = statistics.fmean(median(t) for t in setup_times.values())
    metrics = {"setup_s": (setup_s, "s"), "serve.max_rps": m["serve.max_rps"]}
    rate = {part: median([r for r, _ in samples[part]]) for part in BATCH}
    metrics["fleet.devices_per_s"] = (rate["fleet"], "1/s")
    metrics["fleet.peak_rss_mb"] = (median([m for _, m in samples["fleet"]]), "MB")
    metrics["dense.deliveries_per_s"] = (rate["dense"], "1/s")
    metrics["soak.sim_h_per_s"] = (rate["soak"], "1/s")
    log("samples per part:", {part: len(v) for part, v in samples.items()})
    return metrics


def traced(workload, seed, standby, perfbench, probs):
    metrics = {}
    batch = Batch(standby, seed, probs)
    fleet_doc = os.path.join(OUT, "fleet-trace.json")
    [(_, fleet_rss)] = batch.fleet(FLEET_TRACE_DEVICES, fleet_doc)
    dense_rss = max(rss for _, rss in batch.dense())
    [(_, soak_rss)] = batch.soak()
    serve_metrics, serve_rss, (record, requests) = run_serve(
        standby, perfbench, seed, 0, probs, trace=True)
    for name, value in serve_metrics.items():
        if name.startswith(("serve.route.", "serve.status.", "serve.server.", "serve.light.",
                            "serve.busy.")):
            metrics[name] = value
    for part, rss in (("fleet", fleet_rss), ("dense", dense_rss), ("soak", soak_rss),
                      ("serve", serve_rss)):
        metrics[f"mem.{part}.peak_rss_mb"] = (rss, "MB")
    spans = os.path.join(OUT, f"spans-{workload}-{seed}.json")
    trace_out = os.path.join(OUT, "trace.json")
    _, code, text, trace_rss = measured(
        [perfbench, "trace", "--seed", str(seed),
         "--scratch", fresh("trace-scratch"), "--soak-hours", str(soak_hours(seed)),
         "--fleet-devices", str(FLEET_TRACE_DEVICES), "--fleet-shards", str(FLEET_SHARDS),
         "--fleet-minutes", str(FLEET_MINUTES), "--fleet-json", fleet_doc,
         "--serve-record", record, "--requests", str(requests),
         "--spans-out", spans], trace_out)
    probs.check(code == 0, f"perfbench trace: exit code {code}")
    result = json.loads(text.strip().splitlines()[-1])
    probs.attempted += result["attempted"]
    probs.failed += result["failed"]
    for note in result["problems"]:
        probs.check(False, note, failed_ops=0)
    metrics.update({k: (v["value"], v["unit"]) for k, v in result["metrics"].items()})
    metrics["mem.trace.peak_rss_mb"] = (trace_rss, "MB")
    log(f"spans written to {spans}")
    return metrics


def finite(value):
    return value if isinstance(value, (int, float)) and value == value else None


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[kind]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    global PERFBENCH
    standby, perfbench = build()
    PERFBENCH = perfbench
    os.makedirs(OUT, exist_ok=True)
    probs = Problems()
    if args.trace:
        metrics = traced(args.workload, args.seed, standby, perfbench, probs)
        names = declared("per_layer")
    else:
        metrics = untraced(args.workload, args.seed, args.seconds, standby, perfbench, probs)
        names = declared("end_to_end")
    missing = [n for n in names if n not in metrics]
    probs.check(not missing, f"metrics not measured: {missing}", failed_ops=0)
    undeclared = sorted(set(metrics) - set(names))
    if undeclared:
        log("measured but not declared in BENCHMARK.json:", undeclared)
    for name in names:
        value = metrics.get(name, (float("nan"),))[0]
        if value is None or value != value:
            probs.check(False, f"metric {name} has no value", failed_ops=0)
    correct = not probs.notes and probs.failed == 0
    result = {
        "correct": correct,
        "attempted": max(probs.attempted, 1),
        "failed": probs.failed,
        "metrics": {n: {"value": finite(metrics[n][0]), "unit": metrics[n][1]}
                    for n in names if n in metrics},
    }
    for name, entry in result["metrics"].items():
        log(f"{name} = {entry['value']} {entry['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
