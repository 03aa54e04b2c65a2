//! Open-loop TCP load generator for the overload ablation.
//!
//! Closed-loop clients (like [`crate::run_web_load`]) slow down when
//! the server does, so they can never push a server past saturation —
//! exactly the regime overload control exists for. This generator is
//! **open-loop**: request arrivals fire on a fixed schedule whether or
//! not earlier requests completed, so a server at 2x capacity really
//! sees 2x capacity, and latency is measured from the *scheduled*
//! arrival (queueing at the client counts against the server, the
//! standard open-loop convention).
//!
//! It is also a connection-scale harness: one thread holds `conns`
//! TCP connections (mostly idle — the C1M shape), of which `active`
//! cycle keep-alive requests, multiplexed over the platform-default
//! [`flux_net::Poller`] (epoll on Linux) whatever backend the server
//! under test runs. Nothing here spawns
//! a thread per connection, so the held-connection count is bounded by
//! fds, not threads.

#![cfg(unix)]

use crate::percentile_ns;
use flux_net::{create_poller, Interest, PollerBackend, PollerEvent};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

/// Configuration for one open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Server address, e.g. `127.0.0.1:4242`.
    pub addr: String,
    /// Connections to hold open (idle ones included).
    pub conns: usize,
    /// How many of `conns` actively cycle requests.
    pub active: usize,
    /// Offered arrival rate, requests/second, across the active set.
    pub rate: f64,
    /// Measurement window.
    pub duration: Duration,
    /// Warm-up before measurement starts.
    pub warmup: Duration,
    /// Request path (keep-alive GETs).
    pub path: String,
    /// Client-side arrival-backlog bound: past it new arrivals are
    /// counted as `abandoned` instead of queueing without bound.
    pub queue_cap: usize,
}

/// What one open-loop run measured.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    pub conns_requested: usize,
    /// Connections actually held (clamped to the fd budget).
    pub conns_held: usize,
    /// Arrivals fired during the measurement window.
    pub offered: u64,
    /// 2xx responses (admitted and served).
    pub ok: u64,
    /// 503s — the server's shed path, observed end to end.
    pub rejected: u64,
    /// Resets, unexpected EOFs, malformed responses.
    pub errors: u64,
    /// Arrivals dropped at the client queue cap (open-loop overrun).
    pub abandoned: u64,
    pub duration: Duration,
    /// Per-request latency (ns) of **admitted** requests only, from
    /// scheduled arrival to response completion.
    pub latencies_ns: Vec<u64>,
}

impl OpenLoopReport {
    /// Served (2xx) responses per second — the goodput.
    pub fn goodput_rps(&self) -> f64 {
        self.ok as f64 / self.duration.as_secs_f64()
    }

    /// Offered arrivals per second.
    pub fn offered_rps(&self) -> f64 {
        self.offered as f64 / self.duration.as_secs_f64()
    }

    /// Latency quantile (`0..=1`) of admitted requests.
    pub fn percentile(&self, q: f64) -> Duration {
        let mut lat = self.latencies_ns.clone();
        percentile_ns(&mut lat, q)
    }
}

/// Per-connection protocol state. One outstanding request per
/// connection (HTTP/1.1 keep-alive without pipelining).
struct Client {
    stream: TcpStream,
    fd: RawFd,
    busy: bool,
    /// Unsent request bytes (short writes against a full socket).
    out: Vec<u8>,
    /// Response accumulation.
    inbuf: Vec<u8>,
    /// Once headers parse: (status, total response bytes expected
    /// — head + content-length, close?).
    head: Option<(u16, usize, bool)>,
    /// Scheduled arrival time of the in-flight request.
    t_arrival: Instant,
}

impl Client {
    /// Bounded connect: under overload the server sheds by closing, so
    /// clients reconnect in bursts that can overflow the listen
    /// backlog; a dropped SYN must cost a bounded timeout here, not a
    /// full kernel retransmission cycle stalling the event loop.
    fn connect(addr: &std::net::SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect_timeout(addr, Duration::from_millis(250))?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let fd = stream.as_raw_fd();
        Ok(Client {
            stream,
            fd,
            busy: false,
            out: Vec::new(),
            inbuf: Vec::new(),
            head: None,
            t_arrival: Instant::now(),
        })
    }
}

/// Parses a response head out of `buf`, returning
/// `(status, header_len, content_length, close)` once the blank line
/// has arrived.
fn parse_head(buf: &[u8]) -> Option<(u16, usize, usize, bool)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split_whitespace().nth(1)?.parse().ok()?;
    let mut content_length = 0usize;
    let mut close = false;
    for line in lines {
        let Some((k, v)) = line.split_once(':') else {
            continue;
        };
        let k = k.trim().to_ascii_lowercase();
        let v = v.trim();
        if k == "content-length" {
            content_length = v.parse().ok()?;
        } else if k == "connection" {
            close = v.eq_ignore_ascii_case("close");
        }
    }
    Some((status, head_end, content_length, close))
}

/// The soft fd limit, from `/proc/self/limits` (fallback 1024).
pub fn fd_limit() -> usize {
    let Ok(limits) = std::fs::read_to_string("/proc/self/limits") else {
        return 1024;
    };
    limits
        .lines()
        .find(|l| l.starts_with("Max open files"))
        .and_then(|l| l.split_whitespace().nth(3))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1024)
}

/// Resident set size in MiB, from `/proc/self/status` (0.0 if absent).
/// In-process benches cover client and server together.
pub fn rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmRSS"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one open-loop load phase. Single-threaded: a connect sweep,
/// then an epoll loop interleaving the arrival schedule with response
/// processing until `warmup + duration` elapses.
pub fn run_open_loop(cfg: &OpenLoopConfig) -> OpenLoopReport {
    // Hold `conns` connections, clamped to the fd budget: every
    // loopback connection costs two fds in-process (client + server
    // end), plus headroom for the server's listener/reactor/docroot.
    let budget = (fd_limit().saturating_sub(256)) * 9 / 20;
    let held = cfg.conns.min(budget.max(16));
    let active = cfg.active.min(held).max(1);

    let addr: std::net::SocketAddr = cfg.addr.parse().expect("open-loop addr must be ip:port");
    let mut clients: Vec<Client> = Vec::with_capacity(held);
    for _ in 0..held {
        match Client::connect(&addr) {
            Ok(c) => clients.push(c),
            Err(_) => break,
        }
    }
    let held = clients.len();
    let active = active.min(held);

    let mut poller = create_poller(PollerBackend::default());
    // Idle holders are never registered: they exist to occupy server
    // slots and memory. Only the active prefix is polled.
    let mut idle: VecDeque<usize> = (0..active).collect();

    let interval = Duration::from_secs_f64(1.0 / cfg.rate.max(1.0));
    let t_start = Instant::now();
    let t_measure = t_start + cfg.warmup;
    let t_end = t_measure + cfg.duration;
    let mut next_arrival = t_start;
    let mut backlog: VecDeque<Instant> = VecDeque::new();

    let (mut offered, mut ok, mut rejected, mut errors, mut abandoned) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut latencies: Vec<u64> = Vec::new();
    let mut events: Vec<PollerEvent> = Vec::new();
    let request = format!(
        "GET {} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n",
        cfg.path
    )
    .into_bytes();

    loop {
        let now = Instant::now();
        if now >= t_end {
            break;
        }
        let measuring = now >= t_measure;

        // Fire due arrivals onto the backlog (open loop: the schedule
        // does not wait for completions).
        while next_arrival <= now {
            if backlog.len() >= cfg.queue_cap {
                if measuring {
                    abandoned += 1;
                    offered += 1;
                }
            } else {
                backlog.push_back(next_arrival);
                if measuring {
                    offered += 1;
                }
            }
            next_arrival += interval;
        }

        // Assign backlog to idle connections.
        while let (Some(&arrival), Some(&ci)) = (backlog.front(), idle.front()) {
            let _ = backlog.pop_front();
            let _ = idle.pop_front();
            let c = &mut clients[ci];
            c.busy = true;
            c.t_arrival = arrival;
            c.inbuf.clear();
            c.head = None;
            c.out.clear();
            let mut interest = Interest::READ;
            match c.stream.write(&request) {
                Ok(n) if n == request.len() => {}
                Ok(n) => {
                    c.out.extend_from_slice(&request[n..]);
                    interest.write = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    c.out.extend_from_slice(&request);
                    interest.write = true;
                }
                Err(_) => {
                    if measuring {
                        errors += 1;
                    }
                    reconnect(c, &addr, &mut idle, ci, poller.as_mut());
                    continue;
                }
            }
            let _ = poller.modify(c.fd, interest);
        }

        // Wait for readiness, bounded by the next scheduled arrival.
        let wait = next_arrival
            .saturating_duration_since(Instant::now())
            .min(Duration::from_millis(2));
        let _ = poller.wait(&mut events, wait);
        // PollerEvent is Copy; `events` keeps its capacity across
        // rounds and is free again once this pass ends.
        for &ev in &events {
            let Some(ci) = clients.iter().position(|c| c.fd == ev.fd) else {
                continue;
            };
            let measuring = Instant::now() >= t_measure;
            let c = &mut clients[ci];
            if !c.busy {
                continue;
            }
            let mut dead = false;
            if ev.writable && !c.out.is_empty() {
                let out = std::mem::take(&mut c.out);
                match c.stream.write(&out) {
                    Ok(n) => c.out.extend_from_slice(&out[n..]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => c.out = out,
                    Err(_) => dead = true,
                }
            }
            if ev.readable && !dead {
                let mut chunk = [0u8; 4096];
                loop {
                    match c.stream.read(&mut chunk) {
                        Ok(0) => {
                            dead = true;
                            break;
                        }
                        Ok(n) => c.inbuf.extend_from_slice(&chunk[..n]),
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(_) => {
                            dead = true;
                            break;
                        }
                    }
                }
            }
            if c.head.is_none() {
                if let Some((status, head_len, len, close)) = parse_head(&c.inbuf) {
                    c.head = Some((status, head_len + len, close));
                }
            }
            if let Some((status, expected, close)) = c.head {
                if c.inbuf.len() >= expected {
                    // Response complete.
                    if measuring {
                        if status < 400 {
                            ok += 1;
                            latencies.push(c.t_arrival.elapsed().as_nanos() as u64);
                        } else if status == 503 {
                            rejected += 1;
                        } else {
                            errors += 1;
                        }
                    }
                    c.busy = false;
                    c.inbuf.clear();
                    c.head = None;
                    if close || dead {
                        reconnect(c, &addr, &mut idle, ci, poller.as_mut());
                    } else {
                        let _ = poller.delete(c.fd);
                        idle.push_back(ci);
                    }
                    continue;
                }
            }
            if dead {
                if measuring {
                    errors += 1;
                }
                reconnect(c, &addr, &mut idle, ci, poller.as_mut());
            } else if c.busy {
                let mut interest = Interest::READ;
                interest.write = !c.out.is_empty();
                let _ = poller.modify(c.fd, interest);
            }
        }
    }

    OpenLoopReport {
        conns_requested: cfg.conns,
        conns_held: held,
        offered,
        ok,
        rejected,
        errors,
        abandoned,
        duration: cfg.duration,
        latencies_ns: latencies,
    }
}

/// Replaces a broken/closed connection and returns its slot to the
/// idle pool (a failed reconnect leaves the old socket in place; the
/// next assignment will fail fast and retry).
fn reconnect(
    c: &mut Client,
    addr: &std::net::SocketAddr,
    idle: &mut VecDeque<usize>,
    ci: usize,
    poller: &mut dyn flux_net::Poller,
) {
    let _ = poller.delete(c.fd);
    if let Ok(fresh) = Client::connect(addr) {
        *c = fresh;
    } else {
        c.busy = false;
        c.inbuf.clear();
        c.head = None;
        c.out.clear();
    }
    c.busy = false;
    idle.push_back(ci);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_parser_handles_keepalive_and_close() {
        let buf = b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\ntiny";
        let (status, head_len, len, close) = parse_head(buf).unwrap();
        assert_eq!((status, len, close), (200, 4, false));
        assert_eq!(head_len + len, buf.len());
        let buf =
            b"HTTP/1.1 503 Service Unavailable\r\nConnection: close\r\nContent-Length: 0\r\n\r\n";
        let (status, _, len, close) = parse_head(buf).unwrap();
        assert_eq!((status, len, close), (503, 0, true));
        assert_eq!(parse_head(b"HTTP/1.1 200 OK\r\nContent-"), None);
    }

    #[test]
    fn fd_budget_and_rss_are_readable() {
        assert!(fd_limit() >= 256);
        assert!(rss_mb() > 0.0);
    }
}
