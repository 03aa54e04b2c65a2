//! The load generator's shared pieces: the open-loop arrival schedule
//! with its lateness accounting, the per-phase tally every generator
//! thread fills in, and a buffered HTTP/1.1 client.
//!
//! Closed loop: each connection sends its next request once the
//! previous reply has fully arrived. Open loop: arrivals fall due at a
//! fixed rate whatever the server does; a generator thread whose
//! connection is free sleeps until the next arrival is due, and one
//! whose connection was busy sends the overdue arrival at once. Latency
//! is always timed from when the request was due, so a stall is charged
//! to every request it delays. Only the first case measures the
//! generator itself: how late it woke ([`Tally::late_ms`]).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Resolution at which completions are counted for windowing.
pub const BUCKET: Duration = Duration::from_millis(10);

/// Arrivals the generator lets fall behind before it drops one (each
/// drop counts as a failed request).
pub const BACKLOG_CAP: u64 = 1000;

/// A fixed-rate arrival schedule shared by the generator threads of one
/// open-loop phase.
pub struct Schedule {
    start: Instant,
    end: Instant,
    interval: Duration,
    next: AtomicU64,
    dropped: AtomicU64,
}

impl Schedule {
    /// Arrivals every `1 / rate` seconds from `start` until `end`.
    pub fn new(start: Instant, end: Instant, rate: f64) -> Schedule {
        Schedule {
            start,
            end,
            interval: Duration::from_secs_f64(1.0 / rate),
            next: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    fn due(&self, index: u64) -> Instant {
        self.start + self.interval.mul_f64(index as f64)
    }

    /// Claims the next arrival and returns when it is due, or `None`
    /// once arrivals fall due at or after the end of the phase. Arrivals
    /// more than [`BACKLOG_CAP`] behind the schedule at `now` are dropped
    /// and counted.
    pub fn claim(&self, now: Instant) -> Option<Instant> {
        loop {
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            let due = self.due(index);
            if due >= self.end {
                return None;
            }
            let behind =
                now.saturating_duration_since(due).as_secs_f64() / self.interval.as_secs_f64();
            if behind > BACKLOG_CAP as f64 {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            return Some(due);
        }
    }

    /// Arrivals dropped at the backlog cap.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Waits until `due` when it lies ahead and returns how late the
/// generator woke (its own lateness). An arrival already overdue is
/// backlog the server caused: it is sent at once and yields no
/// lateness sample.
pub fn wait_until(due: Instant) -> Option<Duration> {
    let now = Instant::now();
    if now >= due {
        return None;
    }
    std::thread::sleep(due - now);
    Some(Instant::now().saturating_duration_since(due))
}

/// Draws per stratified block.
pub const STRATA: usize = 256;

/// An `Rng` for inverse-CDF samplers (`Zipf::sample`, `WebSet::sample`),
/// which turn one `next_u64` into one uniform in [0, 1): every block of
/// [`STRATA`] values puts exactly one uniform in each of the block's
/// equal strata, at an offset and in an order the seed decides. Each
/// rank then gets its exact share of every block, so what a run measures
/// does not swing with how many rare, expensive requests (900 KB files,
/// large JPEG encodes) one seed happens to draw, while requests still
/// follow the sampler's distribution.
pub struct Stratified {
    order: Vec<u32>,
    pos: usize,
    rng: StdRng,
}

impl Stratified {
    pub fn new(rng: StdRng) -> Stratified {
        Stratified {
            order: (0..STRATA as u32).collect(),
            pos: STRATA,
            rng,
        }
    }
}

impl Rng for Stratified {
    fn next_u64(&mut self) -> u64 {
        if self.pos == self.order.len() {
            self.order.shuffle(&mut self.rng);
            self.pos = 0;
        }
        let stratum = self.order[self.pos] as f64;
        self.pos += 1;
        let u = (stratum + self.rng.gen::<f64>()) / STRATA as f64;
        // The inverse of the 53-bit mantissa mapping `gen::<f64>` uses.
        ((u * (1u64 << 53) as f64) as u64) << 11
    }
}

/// Milliseconds between two instants (zero when `to` precedes `from`).
pub fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// A request as the client saw it, for the span join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientReq {
    /// The client's local port (the server sees it as the peer port).
    pub port: u16,
    /// The request's ordinal on its connection, from zero.
    pub ordinal: u64,
    /// When the request's first byte was handed to the socket.
    pub sent: Instant,
    /// When its last response byte arrived.
    pub done: Instant,
}

/// What one generator thread observed in one phase.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests (or publishes) issued, plus arrivals dropped.
    pub attempted: u64,
    /// Correct responses.
    pub ok: u64,
    /// Every failure: wrong or malformed responses, bad statuses,
    /// resets, early EOF, failed connects, unreflected publishes and
    /// dropped arrivals.
    pub failed: u64,
    /// The subset of `failed` that are wrong answers, not load errors.
    pub wrong: u64,
    /// Correct responses per [`BUCKET`] since the phase began, for the
    /// phase's measurement windows.
    pub done: Vec<u64>,
    /// Open loop only: one sample per correct response, when its last
    /// byte arrived and its latency in ms from when it was due. (Closed
    /// loops keep no samples, so the generator's memory does not grow
    /// with the server's throughput.)
    pub lat: Vec<(Instant, f64)>,
    /// How late the generator woke for each arrival it waited for, ms.
    pub late_ms: Vec<f64>,
    /// From `connect()` to the first response byte of a connection's
    /// first request, ms.
    pub first_byte_ms: Vec<f64>,
    /// Client side of every request, for the span join (traced runs).
    pub reqs: Vec<ClientReq>,
    /// CPU time of the generator threads, nanoseconds.
    pub gen_cpu_ns: u64,
    /// Where the first wrong answer went wrong.
    pub first_error: Option<String>,
}

impl Tally {
    /// Folds another thread's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.wrong += other.wrong;
        if self.done.len() < other.done.len() {
            self.done.resize(other.done.len(), 0);
        }
        for (a, b) in self.done.iter_mut().zip(&other.done) {
            *a += b;
        }
        self.lat.extend(other.lat);
        self.late_ms.extend(other.late_ms);
        self.first_byte_ms.extend(other.first_byte_ms);
        self.reqs.extend(other.reqs);
        self.gen_cpu_ns += other.gen_cpu_ns;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    /// Counts a correct response completed at `at` in a phase that began
    /// at `start`, with its latency when the phase is an open loop.
    pub fn complete(&mut self, start: Instant, at: Instant, lat_ms: Option<f64>) {
        self.ok += 1;
        let b = (at.saturating_duration_since(start).as_nanos() / BUCKET.as_nanos()) as usize;
        if self.done.len() <= b {
            self.done.resize(b + 1, 0);
        }
        self.done[b] += 1;
        if let Some(ms) = lat_ms {
            self.lat.push((at, ms));
        }
    }

    /// Counts a load failure (not a wrong answer).
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(why.into());
        }
    }

    /// Counts a wrong answer.
    pub fn wrong(&mut self, why: impl Into<String>) {
        self.wrong += 1;
        self.fail(why);
    }
}

/// One parsed HTTP response.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    /// When the first byte of the response arrived.
    pub first_byte: Instant,
    /// When the last byte arrived.
    pub done: Instant,
}

/// A blocking HTTP/1.1 client over one TCP connection, reading through
/// its own buffer so the generator makes few `recv` calls.
pub struct HttpClient {
    stream: TcpStream,
    pub port: u16,
    /// When `connect()` was called.
    pub connected_at: Instant,
    /// Requests sent on this connection so far.
    pub sent: u64,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// The last response's body.
    pub body: Vec<u8>,
}

impl HttpClient {
    pub fn connect(addr: &str) -> io::Result<HttpClient> {
        let connected_at = Instant::now();
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let port = stream.local_addr()?.port();
        Ok(HttpClient {
            stream,
            port,
            connected_at,
            sent: 0,
            buf: vec![0; 64 * 1024],
            start: 0,
            end: 0,
            body: Vec::new(),
        })
    }

    /// Sends one request head and returns when it was handed to the
    /// socket.
    pub fn send(&mut self, head: &[u8]) -> io::Result<Instant> {
        let at = Instant::now();
        self.stream.write_all(head)?;
        self.sent += 1;
        Ok(at)
    }

    fn fill(&mut self) -> io::Result<usize> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.end == self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let n = self.stream.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Reads one response; the body lands in [`HttpClient::body`].
    pub fn recv(&mut self) -> Result<Reply, String> {
        let mut first_byte = None;
        let head_end = loop {
            if let Some(i) = find(&self.buf[self.start..self.end], b"\r\n\r\n") {
                break self.start + i + 4;
            }
            if self.end - self.start == self.buf.len() {
                return Err("response head too large".into());
            }
            match self.fill() {
                Ok(0) => return Err("early EOF before response head".into()),
                Ok(_) => {
                    first_byte.get_or_insert_with(Instant::now);
                }
                Err(e) => return Err(format!("read: {e}")),
            }
        };
        let first_byte = first_byte.unwrap_or_else(Instant::now);
        let head = std::str::from_utf8(&self.buf[self.start..head_end])
            .map_err(|_| "non-UTF-8 response head".to_string())?;
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or("malformed status line")?;
        let len: usize = head
            .lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .ok_or("no Content-Length")?;
        self.start = head_end;
        self.body.clear();
        while self.body.len() < len {
            if self.start == self.end {
                match self.fill() {
                    Ok(0) => return Err("early EOF inside body".into()),
                    Ok(_) => {}
                    Err(e) => return Err(format!("read: {e}")),
                }
            }
            let take = (len - self.body.len()).min(self.end - self.start);
            self.body
                .extend_from_slice(&self.buf[self.start..self.start + take]);
            self.start += take;
        }
        Ok(Reply {
            status,
            first_byte,
            done: Instant::now(),
        })
    }

    /// True when the server closed the connection cleanly with nothing
    /// left unread.
    pub fn at_eof(&mut self) -> bool {
        self.start == self.end && matches!(self.fill(), Ok(0))
    }
}

/// Position of `needle` in `hay`.
pub fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Spawns a named generator thread whose tally records the thread's
/// own CPU time.
pub fn spawn<T: Send + 'static>(
    name: &str,
    f: impl FnOnce() -> (Tally, T) + Send + 'static,
) -> std::thread::JoinHandle<(Tally, T)> {
    std::thread::Builder::new()
        .name(format!("{}{name}", crate::procstat::GEN_PREFIX))
        .spawn(move || {
            let cpu0 = crate::procstat::thread_cpu_ns();
            let (mut tally, out) = f();
            tally.gen_cpu_ns += crate::procstat::thread_cpu_ns().saturating_sub(cpu0);
            (tally, out)
        })
        .expect("spawn generator thread")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spaces_arrivals_and_stops_at_the_end() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, t0 + Duration::from_millis(10), 1000.0);
        let mut dues = Vec::new();
        while let Some(due) = s.claim(t0) {
            dues.push(due - t0);
        }
        assert_eq!(dues.len(), 10);
        assert_eq!(dues[3], Duration::from_millis(3));
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn arrivals_past_the_backlog_cap_are_dropped() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, t0 + Duration::from_secs(10), 1000.0);
        // At 2.5005 s the schedule is 2500.5 arrivals in: arrivals
        // 0..=1500 are more than BACKLOG_CAP behind and are dropped.
        let due = s.claim(t0 + Duration::from_micros(2_500_500));
        assert_eq!(due, Some(t0 + Duration::from_millis(1501)));
        assert_eq!(s.dropped(), 1501);
    }

    #[test]
    fn lateness_counts_only_arrivals_the_generator_waited_for() {
        // Overdue: backlog, sent at once, no lateness sample.
        assert_eq!(wait_until(Instant::now() - Duration::from_millis(5)), None);
        // Ahead: the generator sleeps and reports how late it woke.
        let due = Instant::now() + Duration::from_millis(2);
        let late = wait_until(due).expect("waited");
        assert!(Instant::now() >= due);
        assert!(late < Duration::from_millis(500));
    }

    #[test]
    fn stratified_uniforms_fill_every_stratum_once_per_block() {
        use rand::SeedableRng;
        let mut r = Stratified::new(StdRng::seed_from_u64(3));
        for _ in 0..2 {
            let mut hits = vec![0; STRATA];
            for _ in 0..STRATA {
                let u: f64 = r.gen_range(0.0..1.0);
                assert!((0.0..1.0).contains(&u));
                hits[(u * STRATA as f64) as usize] += 1;
            }
            assert!(hits.iter().all(|&h| h == 1));
        }
        // An inverse-CDF sampler gets its exact shares: rank 0 of a
        // Zipf over four ranks has probability 12/25.
        let zipf = flux_bench::Zipf::new(4, 1.0);
        let zeros = (0..STRATA).filter(|_| zipf.sample(&mut r) == 0).count();
        assert!((zeros as f64 - STRATA as f64 * zipf.prob(0)).abs() <= 1.0);
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        let due = Instant::now();
        let sent = due + Duration::from_millis(30);
        let done = sent + Duration::from_millis(2);
        // The 30 ms the request waited for a connection counts.
        assert!((ms(due, done) - 32.0).abs() < 1e-9);
        assert_eq!(ms(done, due), 0.0);
    }
}
