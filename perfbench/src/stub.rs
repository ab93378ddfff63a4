//! A stand-in server that answers every request at once with a 200, so
//! the load generator's own ceiling can be told apart from the
//! server's capacity.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running stub; dropping it stops it and waits for its threads.
pub struct Stub {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Stub {
    /// Listens on an ephemeral loopback port, one thread per connection.
    pub fn start() -> io::Result<Stub> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let accept = std::thread::spawn(move || {
            let ordinals = AtomicU64::new(0);
            std::thread::scope(|scope| {
                for stream in listener.incoming() {
                    if flag.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        let ordinals = &ordinals;
                        scope.spawn(move || {
                            let _ = answer(stream, ordinals);
                        });
                    }
                }
            });
        });
        Ok(Stub {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// Where the stub listens.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for Stub {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop so it sees the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// Answers requests on one connection until the client closes it or
/// asks to. Every answer is `200` with a fresh `ordinal`, which is all
/// the generator reads back.
fn answer(stream: TcpStream, ordinals: &AtomicU64) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        let (mut length, mut close) = (0usize, false);
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Ok(());
            }
            let header = line.trim_end().to_ascii_lowercase();
            if header.is_empty() {
                break;
            }
            if let Some(v) = header.strip_prefix("content-length:") {
                length = v.trim().parse().unwrap_or(0);
            }
            close |= header == "connection: close";
        }
        let mut body = vec![0; length];
        reader.read_exact(&mut body)?;
        let reply = format!(
            "{{\"ordinal\":{}}}",
            ordinals.fetch_add(1, Ordering::Relaxed)
        );
        // One write, so no part of an answer waits on Nagle's rule.
        let response = format!(
            "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n{reply}",
            reply.len()
        );
        writer.write_all(response.as_bytes())?;
        if close {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::{run_step, Step};
    use crate::stats::{lag_growing, percentile};
    use crate::traffic::Book;
    use std::sync::Mutex;

    /// The two-thread generator must be able to offer well more than
    /// the ~800 rps a 2-worker `standby serve` sustains, or the ladder
    /// would measure the client.
    #[test]
    fn generator_offers_2000_rps_to_a_stub() {
        let stub = Stub::start().unwrap();
        let book = Mutex::new(Book::new());
        let step = Step {
            rate_rps: 2_000.0,
            requests: 2_000,
            seed: 3,
            threads: 2,
            record: 0,
        };
        let record = run_step(stub.addr(), &step, &book);
        assert_eq!(record.failed(), 0);
        let p99 = percentile(&record.sorted_latencies_ms(None), 99.0).unwrap();
        assert!(p99 <= 20.0, "p99 {p99} ms");
        assert!(!lag_growing(&record.lags_ms, 10.0));
        assert!(record.achieved_rps() > 1_600.0, "{}", record.achieved_rps());
    }
}
