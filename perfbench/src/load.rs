//! Open-loop session generator against a running `standby serve`.
//!
//! Sessions are due on a seeded Poisson schedule. A fixed pool of
//! client threads takes sessions in due order; each waits for its due
//! time, opens a fresh connection and sends the session's keep-alive
//! requests one after another. A session's first request is timed from
//! its due time, so a generator that falls behind charges the wait to
//! latency; each later request is timed from the previous response.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::traffic::{schedule, session_plan, Book, Op, Route};

/// Client-side deadline for one request.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(2);

/// Status recorded for a transport error or timeout.
pub const STATUS_IO: u16 = 0;

/// One answered (or failed) request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Route requested.
    pub route: Route,
    /// HTTP status, or [`STATUS_IO`].
    pub status: u16,
    /// Latency from the request's due time, µs.
    pub latency_us: f64,
    /// Whether this was its session's first request.
    #[cfg_attr(not(test), allow(dead_code))]
    pub first: bool,
    /// Session index within the step.
    #[cfg_attr(not(test), allow(dead_code))]
    pub session: usize,
}

/// Everything one step produced.
#[derive(Debug, Default)]
pub struct StepRecord {
    /// Every request, in completion order per thread.
    pub samples: Vec<Sample>,
    /// Generator lag per session (start minus due), ms, in due order.
    pub lags_ms: Vec<f64>,
    /// First-request latency minus mean keep-alive latency, ms, for
    /// sessions with keep-alive requests.
    pub accept_wait_ms: Vec<f64>,
    /// Request bytes sent, when recording was asked for.
    pub recorded: Vec<Vec<u8>>,
    /// Seconds from the step's start to its last answer.
    pub wall_s: f64,
}

impl StepRecord {
    /// Requests the generator got through per second of the step: at a
    /// step that keeps its latency limit, about the offered rate.
    pub fn achieved_rps(&self) -> f64 {
        self.attempted() as f64 / self.wall_s.max(f64::MIN_POSITIVE)
    }

    /// Requests sent.
    pub fn attempted(&self) -> usize {
        self.samples.len()
    }

    /// Requests answered with anything but 200.
    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| s.status != 200).count()
    }

    /// Latencies in ms, ascending, with every failure at +inf so it
    /// misses any limit.
    pub fn sorted_latencies_ms(&self, route: Option<Route>) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| route.is_none_or(|r| s.route == r))
            .map(|s| {
                if s.status == 200 {
                    s.latency_us / 1_000.0
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Parameters of one fixed-rate step.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Offered request rate.
    pub rate_rps: f64,
    /// Requests the step's sessions carry (at least).
    pub requests: usize,
    /// Seed of this step's schedule and sessions.
    pub seed: u64,
    /// Client threads (and so at most this many open connections).
    pub threads: usize,
    /// Keep the first this-many request byte strings.
    pub record: usize,
}

/// Runs one open-loop step against `addr`, sharing `book` with any
/// earlier step so cancels and queries keep naming live state.
pub fn run_step(addr: SocketAddr, step: &Step, book: &Mutex<Book>) -> StepRecord {
    let schedule = schedule(step.seed, step.rate_rps, step.requests);
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let per_thread: Vec<ThreadOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..step.threads.max(1))
            .map(|_| scope.spawn(|| client_thread(addr, step, &schedule, &next, started, book)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut record = StepRecord::default();
    let mut lags = vec![0.0; schedule.len()];
    for out in per_thread {
        record.samples.extend(out.samples);
        record.accept_wait_ms.extend(out.accept_wait_ms);
        for (session, lag) in out.lags {
            lags[session] = lag;
        }
        record.recorded.extend(out.recorded);
    }
    record.recorded.truncate(step.record);
    record.lags_ms = lags;
    record.wall_s = started.elapsed().as_secs_f64();
    record
}

#[derive(Default)]
struct ThreadOut {
    samples: Vec<Sample>,
    lags: Vec<(usize, f64)>,
    accept_wait_ms: Vec<f64>,
    recorded: Vec<Vec<u8>>,
}

fn client_thread(
    addr: SocketAddr,
    step: &Step,
    schedule: &[Duration],
    next: &AtomicUsize,
    started: Instant,
    book: &Mutex<Book>,
) -> ThreadOut {
    let mut out = ThreadOut::default();
    loop {
        let session = next.fetch_add(1, Ordering::Relaxed);
        let Some(&offset) = schedule.get(session) else {
            return out;
        };
        let due = started + offset;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let begin = Instant::now();
        out.lags.push((
            session,
            begin.saturating_duration_since(due).as_secs_f64() * 1_000.0,
        ));
        run_session(addr, step, session, due, begin, book, &mut out);
    }
}

fn run_session(
    addr: SocketAddr,
    step: &Step,
    session: usize,
    due: Instant,
    begin: Instant,
    book: &Mutex<Book>,
    out: &mut ThreadOut,
) {
    let (mut rng, draws) = session_plan(step.seed, session as u64);
    let mut conn = Conn::open(addr);
    let mut from = due;
    let mut first_own_ms = None;
    let mut keepalive_ms = Vec::new();
    let last = draws.len() - 1;
    for (i, draw) in draws.into_iter().enumerate() {
        let op = book.lock().expect("book lock").next_op(draw, &mut rng);
        let wire = op.to_http(i == last);
        if out.recorded.len() < step.record {
            out.recorded.push(wire.clone());
        }
        let sent = Instant::now();
        let answer = match conn.as_mut() {
            Ok(c) => c.exchange(&wire),
            Err(e) => Err(io::Error::new(e.kind(), "connect failed")),
        };
        let (status, body) = answer.unwrap_or((STATUS_IO, String::new()));
        let done = Instant::now();
        if status == 200 {
            note_success(&op, &body, book);
        }
        out.samples.push(Sample {
            route: op.route(),
            status,
            latency_us: done.saturating_duration_since(from).as_secs_f64() * 1e6,
            first: i == 0,
            session,
        });
        let own_ms = done
            .saturating_duration_since(if i == 0 { begin } else { sent })
            .as_secs_f64()
            * 1e3;
        if i == 0 {
            first_own_ms = Some(own_ms);
        } else {
            keepalive_ms.push(own_ms);
        }
        if status == STATUS_IO {
            // The connection is unusable; the session's remaining
            // requests are not sent (and not counted).
            break;
        }
        from = done;
    }
    if let (Some(first), false) = (first_own_ms, keepalive_ms.is_empty()) {
        let mean = keepalive_ms.iter().sum::<f64>() / keepalive_ms.len() as f64;
        out.accept_wait_ms.push(first - mean);
    }
}

fn note_success(op: &Op, body: &str, book: &Mutex<Book>) {
    if let Op::Register { nominal_ms, .. } = op {
        if let Some(ordinal) = json_u64(body, "ordinal") {
            let nominal = json_u64(body, "deferred_to_ms").unwrap_or(*nominal_ms);
            book.lock()
                .expect("book lock")
                .admitted(op, ordinal, nominal);
        }
    }
}

/// The unsigned integer value of `"key":` in a flat JSON object.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = body.find(&pat)? + pat.len();
    let digits: String = body[start..]
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects with the client deadline armed.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request and reads its response: status and body.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<(u16, String)> {
        self.writer.write_all(request)?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad length"))?;
                }
            }
        }
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn json_u64_reads_flat_fields() {
        let body = "{\"ordinal\":12,\"id\":7,\"deferred_to_ms\":null}";
        assert_eq!(json_u64(body, "ordinal"), Some(12));
        assert_eq!(json_u64(body, "id"), Some(7));
        assert_eq!(json_u64(body, "deferred_to_ms"), None);
        assert_eq!(json_u64(body, "missing"), None);
    }

    /// A server that answers every request after a fixed stall: the
    /// open-loop clock must charge queueing behind the stall to the
    /// requests that were due during it.
    #[test]
    fn latency_is_measured_from_the_due_time() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for stream in listener.incoming() {
                let mut stream = stream.unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                let mut length = 0usize;
                loop {
                    line.clear();
                    if reader.read_line(&mut line).unwrap() == 0 {
                        break;
                    }
                    if let Some(v) = line.trim_end().strip_prefix("content-length: ") {
                        length = v.parse().unwrap();
                    }
                    if line == "\r\n" {
                        let mut body = vec![0; length];
                        reader.read_exact(&mut body).unwrap();
                        length = 0;
                        std::thread::sleep(Duration::from_millis(20));
                        let _ = stream
                            .write_all(b"HTTP/1.1 404 Not Found\r\ncontent-length: 2\r\n\r\n{}");
                    }
                }
            }
        });
        // 20 sessions due within the first few ms, one client thread:
        // each later session waits behind the earlier ones' stalls.
        let step = Step {
            rate_rps: 20_000.0,
            requests: 50,
            seed: 5,
            threads: 1,
            record: 0,
        };
        let book = Mutex::new(Book::new());
        let record = run_step(addr, &step, &book);
        // The stub server blocks in accept for good; it ends with the
        // test process.
        drop(server);
        let n = record.lags_ms.len();
        assert!(n >= 5, "{n} sessions");
        // Latency of a session's first request includes its lag.
        let firsts: Vec<&Sample> = record.samples.iter().filter(|s| s.first).collect();
        for s in &firsts {
            let lag = record.lags_ms[s.session];
            assert!(s.latency_us / 1_000.0 >= lag + 19.0, "{s:?} lag {lag}");
        }
        // The generator fell behind: the last session started late.
        assert!(record.lags_ms[n - 1] > 20.0 * (n as f64 - 2.0));
        assert!(crate::stats::lag_growing(&record.lags_ms, 5.0));
    }
}
