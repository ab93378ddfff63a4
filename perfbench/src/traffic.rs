//! The seeded, under-quota request stream the serve workload sends.
//!
//! Sessions arrive on a Poisson schedule; each carries 1–4 requests
//! drawn 70 % register, 15 % query, 10 % cancel and 5 % advance.
//! Registrations take the shapes of the repository's own `standby
//! serve-load` generator: due 60–600 s ahead, half of them repeating
//! every 120–1 200 s with grace fraction β = 0.5, so advances re-arm
//! repeating alarms. The stream stays inside every admission budget: registrations rotate over
//! [`TENANTS`] tenants while the simulated clock (`now_ms`) moves
//! [`CLOCK_STEP_MS`] per registration, so one tenant registers once per
//! `TENANTS × CLOCK_STEP_MS` of simulated time — slower than the
//! slowest token bucket refills. Cancels and queries only name alarms
//! and tenants the [`Book`] knows are live, so on a correct server every
//! request succeeds.

use std::time::Duration;

/// Tenants registrations rotate over.
pub const TENANTS: u64 = 32;
/// Simulated milliseconds the clock moves per registration.
pub const CLOCK_STEP_MS: u64 = 2_000;

// The slowest default token bucket (deferrable: one token per 60 s)
// must refill before a tenant's next registration.
const _: () = assert!(TENANTS * CLOCK_STEP_MS >= 60_000);
/// A cancel only names a one-shot alarm due this far past the clock,
/// so no concurrent advance can deliver it first. A repeating alarm is
/// re-armed on delivery and stays cancellable until cancelled.
pub const CANCEL_MARGIN_MS: u64 = 120_000;

/// Share of registrations that repeat (as in `standby serve-load`).
pub const REPEATING_SHARE: f64 = 0.5;
/// Live repeating alarms a tenant holds at most; past it, a tenant's
/// registrations are one-shot. Repeating alarms never expire, so
/// without a cap the server's state would grow with every request and
/// each ladder step would meet a larger scheduler than the one before.
pub const MAX_REPEATING_PER_TENANT: usize = 4;
/// Grace fraction β of a repeating registration.
pub const REPEATING_BETA: f64 = 0.5;

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

/// Mixes a stream seed with an index into an independent seed.
pub fn derive(seed: u64, index: u64) -> u64 {
    Rng::new(seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// Due offsets (from the step start) of a step's sessions: Poisson
/// arrivals at `rate_rps / MEAN_REQUESTS_PER_SESSION` sessions per
/// second, until the sessions planned carry at least `requests`
/// requests. Sizing steps by requests rather than time gives every
/// step the samples its percentiles need.
pub fn schedule(step_seed: u64, rate_rps: f64, requests: usize) -> Vec<Duration> {
    let mut rng = Rng::new(derive(step_seed, u64::MAX));
    let sessions_per_s = rate_rps / MEAN_REQUESTS_PER_SESSION;
    let mut t = 0.0_f64;
    let mut due = Vec::new();
    let mut planned = 0;
    while planned < requests {
        t += -(1.0 - rng.unit()).ln() / sessions_per_s;
        planned += session_plan(step_seed, due.len() as u64).1.len();
        due.push(Duration::from_secs_f64(t));
    }
    due
}

/// Mean requests per session (uniform 1–4).
pub const MEAN_REQUESTS_PER_SESSION: f64 = 2.5;

/// The API route a request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Route {
    /// `POST /v1/register`
    Register,
    /// `GET /v1/query`
    Query,
    /// `POST /v1/cancel`
    Cancel,
    /// `POST /v1/advance`
    Advance,
}

impl Route {
    /// Every route, in reporting order.
    pub const ALL: [Route; 4] = [Route::Register, Route::Query, Route::Cancel, Route::Advance];

    /// The metric-name token.
    pub fn name(self) -> &'static str {
        match self {
            Route::Register => "register",
            Route::Query => "query",
            Route::Cancel => "cancel",
            Route::Advance => "advance",
        }
    }
}

/// One concrete request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Register an alarm for `tenant`.
    Register {
        /// Tenant name.
        tenant: String,
        /// Nominal delivery time.
        nominal_ms: u64,
        /// Simulated clock the request carries.
        now_ms: u64,
        /// Repeating interval (with grace fraction
        /// [`REPEATING_BETA`]); `None` for a one-shot alarm.
        repeat_ms: Option<u64>,
    },
    /// Query a tenant known to have registered.
    Query {
        /// Tenant name.
        tenant: String,
    },
    /// Cancel an alarm known to be live.
    Cancel {
        /// Tenant name.
        tenant: String,
        /// Tenant-local ordinal from the register response.
        ordinal: u64,
    },
    /// Advance the clock and deliver what is due.
    Advance {
        /// The new clock.
        now_ms: u64,
    },
}

impl Op {
    /// The route this request targets.
    pub fn route(&self) -> Route {
        match self {
            Op::Register { .. } => Route::Register,
            Op::Query { .. } => Route::Query,
            Op::Cancel { .. } => Route::Cancel,
            Op::Advance { .. } => Route::Advance,
        }
    }

    /// The HTTP/1.1 request bytes; `close` asks the server to close
    /// the connection after answering.
    pub fn to_http(&self, close: bool) -> Vec<u8> {
        let connection = if close { "close" } else { "keep-alive" };
        let post = |path: &str, body: String| {
            format!(
                "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
                 content-length: {}\r\nconnection: {connection}\r\n\r\n{body}",
                body.len()
            )
        };
        let text = match self {
            Op::Register {
                tenant,
                nominal_ms,
                now_ms,
                repeat_ms,
            } => {
                let repeat = repeat_ms.map_or(String::new(), |ms| {
                    format!(",\"repeat_ms\":{ms},\"beta\":{REPEATING_BETA}")
                });
                post(
                    "/v1/register",
                    format!(
                        "{{\"tenant\":\"{tenant}\",\"nominal_ms\":{nominal_ms},\
                         \"now_ms\":{now_ms}{repeat}}}"
                    ),
                )
            }
            Op::Query { tenant } => format!(
                "GET /v1/query?tenant={tenant} HTTP/1.1\r\nhost: bench\r\nconnection: {connection}\r\n\r\n"
            ),
            Op::Cancel { tenant, ordinal } => post(
                "/v1/cancel",
                format!("{{\"tenant\":\"{tenant}\",\"ordinal\":{ordinal}}}"),
            ),
            Op::Advance { now_ms } => post("/v1/advance", format!("{{\"now_ms\":{now_ms}}}")),
        };
        text.into_bytes()
    }
}

/// A registered alarm the generator may cancel.
#[derive(Debug, Clone, Copy)]
struct Live {
    tenant: u64,
    ordinal: u64,
    nominal_ms: u64,
    repeating: bool,
}

/// What the generator knows about server state: the registration
/// sequence (which sets tenant and clock), the live alarms it may
/// cancel, the tenants it may query, and the highest advance sent.
#[derive(Debug, Default)]
pub struct Book {
    registrations: u64,
    live: Vec<Live>,
    known_tenants: Vec<u64>,
    advanced_to: u64,
}

fn tenant_name(t: u64) -> String {
    format!("bench-{t:02}")
}

impl Book {
    /// An empty book.
    pub fn new() -> Self {
        Book::default()
    }

    /// The simulated clock: it moves with every registration issued.
    pub fn clock_ms(&self) -> u64 {
        self.registrations * CLOCK_STEP_MS
    }

    /// Picks the next request of a session. `draw` is the session's
    /// own uniform draw deciding the route; a cancel or query with no
    /// valid target falls back to a registration.
    pub fn next_op(&mut self, draw: f64, rng: &mut Rng) -> Op {
        if draw < 0.15 {
            if let Some(op) = self.pick_query(rng) {
                return op;
            }
        } else if draw < 0.25 {
            if let Some(op) = self.pick_cancel(rng) {
                return op;
            }
        } else if draw < 0.30 {
            let now_ms = self.clock_ms();
            self.advanced_to = self.advanced_to.max(now_ms);
            // One-shot alarms due by now are delivered: forget them.
            let to = self.advanced_to;
            self.live.retain(|a| a.repeating || a.nominal_ms > to);
            return Op::Advance { now_ms };
        }
        self.registrations += 1;
        let seq = self.registrations;
        let now_ms = seq * CLOCK_STEP_MS;
        let nominal_ms = now_ms + rng.range(60_000, 600_000);
        let tenant = seq % TENANTS;
        let repeat_ms = (rng.unit() < REPEATING_SHARE).then(|| rng.range(120_000, 1_200_000));
        let held = self
            .live
            .iter()
            .filter(|a| a.repeating && a.tenant == tenant)
            .count();
        Op::Register {
            tenant: tenant_name(tenant),
            nominal_ms,
            now_ms,
            repeat_ms: repeat_ms.filter(|_| held < MAX_REPEATING_PER_TENANT),
        }
    }

    fn pick_query(&mut self, rng: &mut Rng) -> Option<Op> {
        if self.known_tenants.is_empty() {
            return None;
        }
        let t = self.known_tenants[rng.range(0, self.known_tenants.len() as u64) as usize];
        Some(Op::Query {
            tenant: tenant_name(t),
        })
    }

    fn pick_cancel(&mut self, rng: &mut Rng) -> Option<Op> {
        let floor = self.clock_ms() + CANCEL_MARGIN_MS;
        for _ in 0..8 {
            if self.live.is_empty() {
                return None;
            }
            let i = rng.range(0, self.live.len() as u64) as usize;
            let alarm = self.live[i];
            if !alarm.repeating && alarm.nominal_ms <= self.advanced_to {
                // Delivered (or about to be): forget it.
                self.live.swap_remove(i);
                continue;
            }
            if alarm.repeating || alarm.nominal_ms > floor {
                self.live.swap_remove(i);
                return Some(Op::Cancel {
                    tenant: tenant_name(alarm.tenant),
                    ordinal: alarm.ordinal,
                });
            }
        }
        None
    }

    /// Records a successful answer to `op`, a registration: the
    /// tenant-local `ordinal` and the nominal time it got.
    pub fn admitted(&mut self, op: &Op, ordinal: u64, nominal_ms: u64) {
        let Op::Register {
            tenant, repeat_ms, ..
        } = op
        else {
            return;
        };
        let Some(t) = tenant
            .strip_prefix("bench-")
            .and_then(|n| n.parse::<u64>().ok())
        else {
            return;
        };
        if !self.known_tenants.contains(&t) {
            self.known_tenants.push(t);
        }
        self.live.push(Live {
            tenant: t,
            ordinal,
            nominal_ms,
            repeating: repeat_ms.is_some(),
        });
    }
}

/// A session's request count (1–4) and per-request route draws.
pub fn session_plan(seed: u64, session: u64) -> (Rng, Vec<f64>) {
    let mut rng = Rng::new(derive(seed, session));
    let n = rng.range(1, 5) as usize;
    let draws = (0..n).map(|_| rng.unit()).collect();
    (rng, draws)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_sized_by_requests_and_near_rate() {
        let a = schedule(7, 1_000.0, 5_000);
        assert_eq!(a, schedule(7, 1_000.0, 5_000));
        assert_ne!(a, schedule(8, 1_000.0, 5_000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let planned: usize = (0..a.len() as u64)
            .map(|i| session_plan(7, i).1.len())
            .sum();
        assert!((5_000..5_004).contains(&planned), "{planned}");
        // 5 000 requests at 1 000 rps arrive over about five seconds.
        let span = a.last().unwrap().as_secs_f64();
        assert!((4.5..5.5).contains(&span), "{span}");
    }

    #[test]
    fn route_mix_matches_the_plan() {
        let mut book = Book::new();
        let mut counts = [0u32; 4];
        for s in 0..4_000 {
            let (mut rng, draws) = session_plan(3, s);
            for d in draws {
                let op = book.next_op(d, &mut rng);
                if let Op::Register { nominal_ms, .. } = &op {
                    book.admitted(&op, s, *nominal_ms);
                }
                counts[op.route() as usize] += 1;
            }
        }
        let total: u32 = counts.iter().sum();
        let share = |i: usize| f64::from(counts[i]) / f64::from(total);
        assert!((0.66..0.76).contains(&share(0)), "{counts:?}");
        assert!((0.12..0.18).contains(&share(1)), "{counts:?}");
        assert!((0.06..0.12).contains(&share(2)), "{counts:?}");
        assert!((0.03..0.07).contains(&share(3)), "{counts:?}");
    }

    #[test]
    fn registrations_follow_the_serve_load_shapes() {
        let mut book = Book::new();
        let mut rng = Rng::new(9);
        let mut repeating = 0;
        for _ in 0..2_000 {
            let Op::Register {
                nominal_ms,
                now_ms,
                repeat_ms,
                ..
            } = book.next_op(0.9, &mut rng)
            else {
                panic!("a draw of 0.9 registers");
            };
            assert!((60_000..600_000).contains(&(nominal_ms - now_ms)));
            if let Some(ms) = repeat_ms {
                assert!((120_000..1_200_000).contains(&ms));
                repeating += 1;
            }
        }
        assert!((900..1_100).contains(&repeating), "{repeating}");
        let op = Op::Register {
            tenant: "bench-01".into(),
            nominal_ms: 70_000,
            now_ms: 2_000,
            repeat_ms: Some(300_000),
        };
        let text = String::from_utf8(op.to_http(false)).unwrap();
        assert!(text.ends_with(
            "{\"tenant\":\"bench-01\",\"nominal_ms\":70000,\"now_ms\":2000,\
             \"repeat_ms\":300000,\"beta\":0.5}"
        ));
    }

    #[test]
    fn repeating_alarms_are_capped_per_tenant() {
        let mut book = Book::new();
        let mut rng = Rng::new(4);
        for i in 0..4_000 {
            let op = book.next_op(0.9, &mut rng);
            if let Op::Register { nominal_ms, .. } = op {
                book.admitted(&op, i, nominal_ms);
            }
        }
        for t in 0..TENANTS {
            let held = book
                .live
                .iter()
                .filter(|a| a.repeating && a.tenant == t)
                .count();
            assert_eq!(held, MAX_REPEATING_PER_TENANT, "tenant {t}");
        }
    }

    #[test]
    fn cancels_only_name_alarms_that_are_still_live() {
        let mut book = Book::new();
        let mut rng = Rng::new(1);
        for i in 0..50 {
            let op = book.next_op(0.9, &mut rng);
            if let Op::Register { nominal_ms, .. } = op {
                book.admitted(&op, i, nominal_ms);
            }
        }
        // Advance far past every nominal time: only repeating alarms,
        // re-armed on delivery, may still be cancelled.
        book.advanced_to = u64::MAX / 2;
        let repeating = book.live.iter().filter(|a| a.repeating).count();
        assert!(repeating > 10, "{repeating}");
        let mut cancelled = 0;
        for _ in 0..100 {
            if let Some(Op::Cancel { .. }) = book.pick_cancel(&mut rng) {
                cancelled += 1;
            }
        }
        assert_eq!(cancelled, repeating);
        assert!(book.live.is_empty());
        // A one-shot alarm inside the margin is never named.
        let op = book.next_op(0.9, &mut rng);
        book.advanced_to = 0;
        if let Op::Register { now_ms, .. } = op {
            book.admitted(
                &Op::Register {
                    tenant: "bench-03".into(),
                    nominal_ms: now_ms + CANCEL_MARGIN_MS,
                    now_ms,
                    repeat_ms: None,
                },
                1,
                now_ms + CANCEL_MARGIN_MS,
            );
        }
        assert!(book.pick_cancel(&mut rng).is_none());
        assert_eq!(book.live.len(), 1);
    }

    #[test]
    fn requests_are_well_formed_http() {
        let op = Op::Cancel {
            tenant: "bench-01".into(),
            ordinal: 4,
        };
        let text = String::from_utf8(op.to_http(true)).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("POST /v1/cancel HTTP/1.1"));
        assert!(head.contains(&format!("content-length: {}", body.len())));
        assert!(head.contains("connection: close"));
    }
}
