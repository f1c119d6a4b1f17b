//! A load generator for the serve workload: two sender threads, each with
//! at most one connection in flight.
//!
//! In the open loop every request has a due time. A sender that is free
//! before a request is due sleeps until then; how late it wakes is the
//! generator's own lag. A sender that is still busy when the next request
//! falls due sends it late, and the wait counts in that request's latency,
//! which is always measured from the due time. In the closed loop each
//! sender sends its next request as soon as the previous one completes,
//! until the phase's time is up.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Sender threads, and so connections in flight.
pub const SENDERS: usize = 2;

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Request {
    /// HTTP method.
    pub method: &'static str,
    /// Request path.
    pub path: &'static str,
    /// JSONL body.
    pub body: String,
    /// Due time, from the start of the phase (ignored in the closed loop).
    pub due: Duration,
}

/// What happened to one request. Times are milliseconds from the phase
/// start.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// When the request was due (its send time in the closed loop).
    pub due_ms: f64,
    /// When it was sent.
    pub sent_ms: f64,
    /// When its response was complete.
    pub done_ms: f64,
    /// How late the sender woke for it, if the sender was idle before it
    /// was due; `None` when the sender was busy at the due time.
    pub lag_ms: Option<f64>,
    /// HTTP status, or 0 if the exchange failed.
    pub status: u16,
    /// Response body (empty on failure).
    pub body: String,
}

impl Outcome {
    /// Latency from the due time.
    pub fn latency_ms(&self) -> f64 {
        self.done_ms - self.due_ms
    }
}

/// One request over a fresh connection: `(status, body)`.
pub fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_nodelay(true)?;
    // One write: a request split over several small segments would wait
    // on delayed acknowledgements.
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("malformed response: {response:.80}")))?;
    let body = response.split_once("\r\n\r\n").map_or("", |(_, b)| b).to_string();
    Ok((status, body))
}

/// Sends `requests` and returns one outcome per request sent, in request
/// order. `closed_for = None` runs the open loop over every request;
/// `Some(d)` runs the closed loop until `d` has passed and returns the
/// prefix of `requests` that was sent.
pub fn run(addr: SocketAddr, requests: &[Request], closed_for: Option<Duration>) -> Vec<Outcome> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut out: Vec<(usize, Outcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SENDERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        if closed_for.is_some_and(|d| start.elapsed() >= d) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(req) = requests.get(i) else { break };
                        let (due, lag_ms) = if closed_for.is_some() {
                            (start.elapsed(), None)
                        } else {
                            let free_at = start.elapsed();
                            if free_at < req.due {
                                std::thread::sleep(req.due - free_at);
                                (req.due, Some(ms(start.elapsed().saturating_sub(req.due))))
                            } else {
                                (req.due, None)
                            }
                        };
                        let sent = start.elapsed();
                        let (status, body) = http(addr, req.method, req.path, &req.body)
                            .unwrap_or((0, String::new()));
                        let done = start.elapsed();
                        mine.push((
                            i,
                            Outcome {
                                due_ms: ms(due),
                                sent_ms: ms(sent),
                                done_ms: ms(done),
                                lag_ms,
                                status,
                                body,
                            },
                        ));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a load-generator thread panicked"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, o)| o).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A server answering `n` connections with `200` and the request path.
    fn echo_server(n: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            for stream in listener.incoming().take(n) {
                let mut stream = stream.expect("accept");
                let mut buf = [0u8; 4096];
                let got = stream.read(&mut buf).expect("read");
                let head = String::from_utf8_lossy(&buf[..got]).to_string();
                let path = head.split(' ').nth(1).unwrap_or("").to_string();
                write!(stream, "HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{path}")
                    .expect("write");
            }
        });
        (addr, handle)
    }

    #[test]
    fn open_loop_sends_every_request_no_earlier_than_due() {
        let (addr, server) = echo_server(6);
        let reqs: Vec<Request> = (0..6)
            .map(|i| Request {
                method: "POST",
                path: "/link",
                body: String::new(),
                due: Duration::from_millis(10 * i),
            })
            .collect();
        let out = run(addr, &reqs, None);
        server.join().expect("server thread");
        assert_eq!(out.len(), 6);
        for (i, o) in out.iter().enumerate() {
            assert_eq!((o.status, o.body.as_str()), (200, "/link"));
            assert!(o.sent_ms >= o.due_ms, "request {i} sent before it was due");
            assert!((o.due_ms - 10.0 * i as f64).abs() < 1e-9);
            assert!(o.latency_ms() >= 0.0);
        }
    }

    #[test]
    fn failed_exchange_reports_status_zero() {
        let addr = TcpListener::bind("127.0.0.1:0").expect("bind").local_addr().expect("addr");
        let reqs = [Request { method: "GET", path: "/", body: String::new(), due: Duration::ZERO }];
        let out = run(addr, &reqs, None);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].status, 0);
    }
}
