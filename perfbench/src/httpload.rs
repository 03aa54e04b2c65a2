//! Closed- and open-loop HTTP load over real TCP connections, shared by
//! the `web_static` and `image_cache` workloads; each supplies a
//! [`Mix`] that picks requests and checks bodies.

use crate::gen::{self, ms, wait_until, ClientReq, HttpClient, Schedule, Tally};
use crate::spans;
use crate::tracenet::Tracer;
use crate::workload::{host_cores, Phase};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Draws request paths for one generator thread.
pub type Picker = Box<dyn FnMut() -> String + Send>;

/// A workload's request mix and its correctness check.
pub trait Mix: Send + Sync {
    /// A path sampler seeded for one generator thread.
    fn picker(&self, rng: StdRng) -> Picker;
    /// Requests per connection before the client asks the server to
    /// close it (`None`: keep the connection for the whole phase).
    fn per_conn(&self) -> Option<u64>;
    /// Checks one response body.
    fn check(&self, path: &str, body: &[u8]) -> Result<(), String>;
}

/// One generator thread's connection state and tally.
struct Worker {
    addr: String,
    mix: Arc<dyn Mix>,
    pick: Picker,
    trace: bool,
    /// When the phase began.
    start: Instant,
    client: Option<HttpClient>,
    tally: Tally,
}

impl Worker {
    /// Issues one request; latency runs from `due` (open loop) or from
    /// the send (closed loop).
    fn request(&mut self, due: Option<Instant>) {
        self.tally.attempted += 1;
        if self.client.is_none() {
            match HttpClient::connect(&self.addr) {
                Ok(c) => self.client = Some(c),
                Err(e) => return self.tally.fail(format!("connect: {e}")),
            }
        }
        let c = self.client.as_mut().expect("connected above");
        let path = (self.pick)();
        let ordinal = c.sent;
        let last = self.mix.per_conn().is_some_and(|n| ordinal + 1 >= n);
        let head = format!(
            "GET {path} HTTP/1.1\r\nHost: bench\r\n{}\r\n",
            if last { "Connection: close\r\n" } else { "" }
        );
        let sent = match c.send(head.as_bytes()) {
            Ok(at) => at,
            Err(e) => {
                self.client = None;
                return self.tally.fail(format!("send: {e}"));
            }
        };
        let reply = match c.recv() {
            Ok(r) => r,
            Err(e) => {
                self.client = None;
                return self.tally.fail(e);
            }
        };
        if ordinal == 0 {
            self.tally
                .first_byte_ms
                .push(ms(c.connected_at, reply.first_byte));
        }
        if self.trace {
            self.tally.reqs.push(ClientReq {
                port: c.port,
                ordinal,
                sent,
                done: reply.done,
            });
        }
        if reply.status != 200 {
            self.client = None;
            return self.tally.fail(format!("{path}: status {}", reply.status));
        }
        match self.mix.check(&path, &c.body) {
            Ok(()) => {
                let lat = due.map(|d| ms(d, reply.done));
                self.tally.complete(self.start, reply.done, lat);
            }
            Err(why) => self.tally.wrong(why),
        }
        if last {
            // The server closes first after `Connection: close`.
            if !c.at_eof() {
                self.tally
                    .fail("connection still open after Connection: close");
            }
            self.client = None;
        }
    }
}

/// Runs one generator thread per host core, each with one connection,
/// until `dur` has passed (no `rate`: closed loop) or the arrival
/// schedule ends (open loop), and merges their tallies. With a
/// `tracer`, the client's requests are joined with the server's spans.
pub fn run(
    addr: &str,
    mix: &Arc<dyn Mix>,
    seed: u64,
    dur: Duration,
    rate: Option<f64>,
    tracer: Option<&Tracer>,
) -> Phase {
    let trace = tracer.is_some();
    let start = Instant::now();
    let end = start + dur;
    let schedule = rate.map(|r| Arc::new(Schedule::new(start, end, r)));
    let handles: Vec<_> = (0..host_cores())
        .map(|i| {
            let rng =
                StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(i as u64 + 1));
            let mut w = Worker {
                addr: addr.to_string(),
                mix: mix.clone(),
                pick: mix.picker(rng),
                trace,
                start,
                client: None,
                tally: Tally::default(),
            };
            let schedule = schedule.clone();
            gen::spawn(&format!("http-{i}"), move || {
                match schedule {
                    None => {
                        while Instant::now() < end {
                            w.request(None);
                        }
                    }
                    Some(s) => {
                        while let Some(due) = s.claim(Instant::now()) {
                            if let Some(late) = wait_until(due) {
                                w.tally.late_ms.push(late.as_secs_f64() * 1e3);
                            }
                            w.request(Some(due));
                        }
                    }
                }
                (w.tally, Instant::now())
            })
        })
        .collect();
    let mut tally = Tally::default();
    let mut last = start;
    for h in handles {
        let (t, done) = h.join().expect("generator thread panicked");
        tally.merge(t);
        last = last.max(done);
    }
    if let Some(s) = schedule {
        let dropped = s.dropped();
        tally.attempted += dropped;
        tally.failed += dropped;
    }
    let parts = tracer.map(|t| spans::join_http(&tally.reqs, &t.records()));
    Phase {
        tally,
        start,
        elapsed: last - start,
        parts,
    }
}

/// One request on a fresh connection: the end of a server's set-up.
/// The request is the same whatever the run's seed, so set-up does the
/// same work in every run.
pub fn first_response(addr: &str, mix: &Arc<dyn Mix>) -> Result<(), String> {
    let mut w = Worker {
        addr: addr.to_string(),
        mix: mix.clone(),
        pick: mix.picker(StdRng::seed_from_u64(0)),
        trace: false,
        start: Instant::now(),
        client: None,
        tally: Tally::default(),
    };
    w.request(None);
    match w.tally.ok {
        1 => Ok(()),
        _ => Err(w.tally.first_error.unwrap_or_default()),
    }
}
