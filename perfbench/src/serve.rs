//! `perfbench serve`: the rate ladder, or the fixed-rate windows,
//! against a running `standby serve`.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Mutex;

use crate::load::{run_step, Step, StepRecord, STATUS_IO};
use crate::metrics::Metrics;
use crate::stats::{
    climb, lag_growing, median, percentile, supports, tail_percentile, Ladder, LadderLimits,
    StepOutcome,
};
use crate::stub::Stub;
use crate::traffic::{derive, Book, Route};
use crate::Args;

/// Status codes every route reports a count for, present or not.
/// Any other code observed is reported under its own number too (and
/// fails the run, as every non-200 does).
pub const STATUS_CODES: [u16; 8] = [STATUS_IO, 200, 400, 404, 408, 429, 500, 503];

/// Highest failed share a ladder step may have.
pub const MAX_FAIL_FRAC: f64 = 0.01;

fn status_token(code: u16) -> String {
    if code == STATUS_IO {
        "io".to_owned()
    } else {
        code.to_string()
    }
}

/// Writes the recorded request byte strings, each as `<len>\n<bytes>`.
pub fn encode_recording(requests: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in requests {
        out.extend_from_slice(format!("{}\n", r.len()).as_bytes());
        out.extend_from_slice(r);
    }
    out
}

/// Reverses [`encode_recording`].
pub fn decode_recording(mut bytes: &[u8]) -> Result<Vec<Vec<u8>>, String> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let nl = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or("recording: missing length line")?;
        let len: usize = std::str::from_utf8(&bytes[..nl])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or("recording: bad length")?;
        let body = bytes
            .get(nl + 1..nl + 1 + len)
            .ok_or("recording: truncated request")?;
        out.push(body.to_vec());
        bytes = &bytes[nl + 1 + len..];
    }
    Ok(out)
}

/// Seed of fixed-rate window `window` of level `level` (0 light,
/// 1 busy); the traced run replays light window 0 from it.
pub fn fixed_step_seed(seed: u64, level: usize, window: usize) -> u64 {
    derive(seed, 100 * (level as u64 + 1) + window as u64)
}

fn outcome(rate: f64, record: &StepRecord, limit_ms: f64) -> StepOutcome {
    let lat = record.sorted_latencies_ms(None);
    let p = tail_percentile(lat.len()).unwrap_or(100.0).min(99.0);
    StepOutcome {
        rate_rps: rate,
        p99_ms: percentile(&lat, p).unwrap_or(f64::INFINITY),
        fail_frac: record.failed() as f64 / record.attempted().max(1) as f64,
        lag_growing: lag_growing(&record.lags_ms, limit_ms / 2.0),
    }
}

/// Offered rate of the `light` level: about a quarter of the ~800 rps
/// a 2-worker server sustains on 2 cores under [`P99_LIMIT_MS`].
pub const LIGHT_RPS: f64 = 220.0;
/// Offered rate of the `busy` level: about two thirds of it.
pub const BUSY_RPS: f64 = 500.0;
/// Alternating windows per fixed rate (median over windows).
pub const WINDOWS: usize = 3;
/// The rate ladder: from below [`LIGHT_RPS`] up by half a rate at a
/// time until a rate fails, then three geometric bisections (about
/// 5 % apart); a failing start steps down instead. The ceiling only
/// stops a climb that nothing fails, and is reported as a problem.
pub const LADDER: Ladder = Ladder {
    start: 200.0,
    factor: 1.5,
    floor: 40.0,
    ceiling: 20_000.0,
    refine: 3,
};
/// The ladder's tail-latency limit.
pub const P99_LIMIT_MS: f64 = 20.0;
/// Requests of the untimed warm-up step.
pub const WARMUP_REQUESTS: usize = 500;

/// Drives a running server: after a warm-up step, either the rate
/// ladder (the end-to-end run) or, with `--record FILE` (the traced
/// run), the light and busy fixed-rate windows, recording the first
/// light window's request bytes to FILE for the parser probe.
/// `--requests` sizes each ladder step or window. Returns the metrics
/// JSON.
pub fn main(args: &Args) -> Result<String, String> {
    let addr: SocketAddr = args
        .str("addr")?
        .to_socket_addrs()
        .map_err(|e| format!("--addr: {e}"))?
        .next()
        .ok_or("--addr resolves to nothing")?;
    let seed: u64 = args.get("seed")?;
    let threads: usize = args.get("threads")?;
    let requests: usize = args.get("requests")?;
    let book = Mutex::new(Book::new());
    let step_at = |addr: SocketAddr, book: &Mutex<Book>, step_seed: u64, rate: f64, record| {
        let step = Step {
            rate_rps: rate,
            requests,
            seed: step_seed,
            threads,
            record,
        };
        run_step(addr, &step, book)
    };
    let run =
        |step_seed: u64, rate: f64, record: usize| step_at(addr, &book, step_seed, rate, record);

    let mut m = Metrics::new();
    // Warm the server (thread stacks, tenant maps, allocator) before
    // anything is timed; this step's requests still count as attempts.
    let warmup = Step {
        rate_rps: BUSY_RPS,
        requests: WARMUP_REQUESTS,
        seed: derive(seed, 1),
        threads,
        record: 0,
    };
    let mut all = vec![run_step(addr, &warmup, &book)];
    match args.str("record") {
        Ok(path) => fixed_windows(&run, seed, requests, path, &mut m, &mut all)?,
        Err(_) => {
            let stub = Stub::start().map_err(|e| format!("stub server: {e}"))?;
            let stub_book = Mutex::new(Book::new());
            let on_stub =
                |step_seed: u64, rate: f64| step_at(stub.addr(), &stub_book, step_seed, rate, 0);
            ladder(&run, &on_stub, seed, &mut m, &mut all);
        }
    }

    // Status counts and failures over every step.
    let mut counts = std::collections::BTreeMap::<(Route, u16), u64>::new();
    for route in Route::ALL {
        for code in STATUS_CODES {
            counts.insert((route, code), 0);
        }
    }
    for record in &all {
        m.attempted += record.attempted() as u64;
        m.failed += record.failed() as u64;
        for s in &record.samples {
            *counts.entry((s.route, s.status)).or_default() += 1;
        }
    }
    for ((route, code), n) in counts {
        let name = format!("serve.status.{}.{}", route.name(), status_token(code));
        m.set(name, n as f64, "count");
    }
    Ok(m.to_json())
}

/// The rate ladder: `serve.max_rps`. Each step logs the rate the
/// generator achieved. When the climb stops, the rate that failed is
/// offered once more to a stub server that answers at once: if the
/// generator misses the limits there too, the ceiling is the client's,
/// not the server's, and the run reports a problem.
fn ladder(
    run: &dyn Fn(u64, f64, usize) -> StepRecord,
    on_stub: &dyn Fn(u64, f64) -> StepRecord,
    seed: u64,
    m: &mut Metrics,
    all: &mut Vec<StepRecord>,
) {
    let limits = LadderLimits {
        p99_ms: P99_LIMIT_MS,
        max_fail_frac: MAX_FAIL_FRAC,
    };
    let mut achieved: f64 = 0.0;
    let found = climb(&LADDER, &limits, |rate| {
        let record = run(derive(seed, 1_000 + all.len() as u64), rate, 0);
        let o = outcome(rate, &record, P99_LIMIT_MS);
        eprintln!(
            "perfbench: ladder {rate:.0} rps: achieved {:.0} rps, p99 {:.2} ms, failed {:.4}, \
             lag growing {}",
            record.achieved_rps(),
            o.p99_ms,
            o.fail_frac,
            o.lag_growing
        );
        achieved = achieved.max(record.achieved_rps());
        all.push(record);
        o
    });
    m.set("serve.ladder.steps", found.steps.len() as f64, "count");
    m.set("serve.ladder.achieved_rps", achieved, "1/s");
    match found.failed {
        Some(rate) => {
            let mut stub_ok = false;
            for attempt in 0..2 {
                let record = on_stub(derive(seed, 2_000 + attempt), rate);
                let o = outcome(rate, &record, P99_LIMIT_MS);
                eprintln!(
                    "perfbench: stub server at {rate:.0} rps: achieved {:.0} rps, p99 {:.2} ms, \
                     failed {:.4}, lag growing {}",
                    record.achieved_rps(),
                    o.p99_ms,
                    o.fail_frac,
                    o.lag_growing
                );
                m.set(
                    "serve.ladder.stub_achieved_rps",
                    record.achieved_rps(),
                    "1/s",
                );
                if o.passes(&limits) {
                    stub_ok = true;
                    break;
                }
            }
            if !stub_ok {
                m.problem(format!(
                    "serve.max_rps: the generator cannot offer {rate:.0} rps even to a stub \
                     server, so the ladder measured the client"
                ));
            }
        }
        None => m.problem(format!(
            "serve.max_rps: nothing failed up to the ladder's ceiling of {:.0} rps",
            LADDER.ceiling
        )),
    }
    match found.best {
        Some(rate) => m.set("serve.max_rps", rate, "1/s"),
        None => {
            m.problem(format!(
                "serve.max_rps: even the ladder's floor of {:.0} rps missed the limit",
                LADDER.floor
            ));
            m.set("serve.max_rps", f64::NAN, "1/s");
        }
    }
}

/// The light and busy fixed rates, run as alternating windows (light,
/// busy, light, ...) so a slow spell of the host hits both; each level
/// reports the median over its windows of the window's p50 and p99.
/// Per-route, accept-wait and generator-lag views cover every window.
fn fixed_windows(
    run: &dyn Fn(u64, f64, usize) -> StepRecord,
    seed: u64,
    requests: usize,
    record_to: &str,
    m: &mut Metrics,
    all: &mut Vec<StepRecord>,
) -> Result<(), String> {
    let levels = [("light", LIGHT_RPS), ("busy", BUSY_RPS)];
    let mut per_level: [Vec<(f64, f64)>; 2] = [Vec::new(), Vec::new()];
    let mut joined = StepRecord::default();
    for w in 0..WINDOWS {
        for (li, (level, rate)) in levels.into_iter().enumerate() {
            let recording = w == 0 && li == 0;
            let record = run(
                fixed_step_seed(seed, li, w),
                rate,
                if recording { requests } else { 0 },
            );
            let lat = record.sorted_latencies_ms(None);
            if !supports(lat.len(), 99.0) {
                m.problem(format!(
                    "serve.{level}: {} samples cannot support a p99",
                    lat.len()
                ));
            }
            per_level[li].push((
                percentile(&lat, 50.0).unwrap_or(f64::NAN),
                percentile(&lat, 99.0).unwrap_or(f64::NAN),
            ));
            if recording {
                std::fs::write(record_to, encode_recording(&record.recorded))
                    .map_err(|e| format!("{record_to}: {e}"))?;
            }
            joined.samples.extend(record.samples.iter().copied());
            joined.lags_ms.extend(record.lags_ms.iter().copied());
            joined
                .accept_wait_ms
                .extend(record.accept_wait_ms.iter().copied());
            all.push(record);
        }
    }
    for (li, (level, _)) in levels.into_iter().enumerate() {
        let p50s: Vec<f64> = per_level[li].iter().map(|w| w.0).collect();
        let p99s: Vec<f64> = per_level[li].iter().map(|w| w.1).collect();
        m.set(
            format!("serve.{level}.p50_ms"),
            median(&p50s).unwrap_or(f64::NAN),
            "ms",
        );
        m.set(
            format!("serve.{level}.p99_ms"),
            median(&p99s).unwrap_or(f64::NAN),
            "ms",
        );
    }
    let tail_of = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        let pct = tail_percentile(v.len()).unwrap_or(100.0).min(99.0);
        (
            percentile(&v, 50.0).unwrap_or(f64::NAN),
            percentile(&v, pct).unwrap_or(f64::NAN),
            pct,
            v.len() as f64,
        )
    };
    let (p50, tail, pct, n) = tail_of(joined.accept_wait_ms.clone());
    m.set("serve.server.accept_wait_p50_ms", p50, "ms");
    m.set("serve.server.accept_wait_tail_ms", tail, "ms");
    m.set("serve.server.accept_wait_tail_pct", pct, "%");
    m.set("serve.server.accept_wait_samples", n, "count");
    let (_, tail, pct, _) = tail_of(joined.lags_ms.clone());
    m.set("serve.server.gen_lag_ms", tail, "ms");
    m.set("serve.server.gen_lag_pct", pct, "%");
    for route in Route::ALL {
        let name = route.name();
        let (p50, tail, pct, n) = tail_of(joined.sorted_latencies_ms(Some(route)));
        m.set(format!("serve.route.{name}.p50_ms"), p50, "ms");
        m.set(format!("serve.route.{name}.tail_ms"), tail, "ms");
        m.set(format!("serve.route.{name}.tail_pct"), pct, "%");
        m.set(format!("serve.route.{name}.samples"), n, "count");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_round_trips() {
        let reqs = vec![
            b"GET / HTTP/1.1\r\n\r\n".to_vec(),
            b"x\ny".to_vec(),
            Vec::new(),
        ];
        assert_eq!(decode_recording(&encode_recording(&reqs)).unwrap(), reqs);
        assert!(decode_recording(b"5\nabc").is_err());
    }

    #[test]
    fn status_tokens_name_transport_errors() {
        assert_eq!(status_token(STATUS_IO), "io");
        assert_eq!(status_token(429), "429");
    }
}
