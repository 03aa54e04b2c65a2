//! A transparent counting and timing wrapper around the server's
//! transport (`TcpAcceptor` / `TcpConn`), used by traced runs only.
//!
//! Every `Listener` and `Conn` method is forwarded, the defaulted ones
//! too: a wrapper that fell back to a trait default would change what
//! is measured — without `raw_fd` the driver could not register the
//! socket with its reactor and would park a helper thread per
//! connection instead. The wrapper counts calls and bytes, and records
//! the server's end of each request span: when the request's first and
//! last bytes were read and when the first byte of its answer was
//! written. Spans are joined with the client's records afterwards
//! (see `spans`).

use flux_net::{Conn, Listener, SharedPayload, WriteProgress};
use parking_lot::Mutex;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the wrapper finds request and response boundaries in the bytes
/// it forwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// HTTP/1.1 without request bodies: a request ends at its blank
    /// line; the first write after a request head starts its response
    /// (clients never pipeline).
    Http,
    /// The pub/sub line protocol: `PUB <topic> <value>` lines in, where
    /// the value starts with the publish's ordinal on its topic, and
    /// `MSG <topic> <seq> ...` lines out.
    PubSub,
}

/// Server-side span records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// One HTTP request, keyed by the client's port and the request's
    /// ordinal on its connection.
    Http {
        port: u16,
        ordinal: u64,
        first_read: Instant,
        last_read: Instant,
        first_write: Instant,
    },
    /// One publish as read by the server.
    Pub {
        topic: String,
        ordinal: u64,
        first_read: Instant,
        last_read: Instant,
    },
    /// One `MSG` line as handed to the transport.
    Msg {
        topic: String,
        seq: u64,
        at: Instant,
    },
}

/// Call counters, summed over every wrapped connection.
#[derive(Debug, Default)]
pub struct Counters {
    pub accepts: AtomicU64,
    pub read_calls: AtomicU64,
    pub read_bytes: AtomicU64,
    /// Calls that hand bytes to the transport: `write`,
    /// `enqueue_write` and `enqueue_write_shared`.
    pub write_calls: AtomicU64,
    /// Of those, the `enqueue_*` calls...
    pub enqueues: AtomicU64,
    /// ...and the ones that left bytes buffered (`Pending`).
    pub enqueue_pending: AtomicU64,
    pub drain_calls: AtomicU64,
}

/// A plain copy of [`Counters`] at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct CounterSnap {
    pub accepts: u64,
    pub read_calls: u64,
    pub read_bytes: u64,
    pub write_calls: u64,
    pub enqueues: u64,
    pub enqueue_pending: u64,
    pub drain_calls: u64,
}

impl CounterSnap {
    /// Counts accrued between `before` and `self`.
    pub fn since(&self, before: &CounterSnap) -> CounterSnap {
        CounterSnap {
            accepts: self.accepts - before.accepts,
            read_calls: self.read_calls - before.read_calls,
            read_bytes: self.read_bytes - before.read_bytes,
            write_calls: self.write_calls - before.write_calls,
            enqueues: self.enqueues - before.enqueues,
            enqueue_pending: self.enqueue_pending - before.enqueue_pending,
            drain_calls: self.drain_calls - before.drain_calls,
        }
    }
}

/// Shared state of one traced server: its counters and span records.
#[derive(Debug)]
pub struct Tracer {
    protocol: Protocol,
    counters: Counters,
    records: Mutex<Vec<Record>>,
}

impl Tracer {
    pub fn new(protocol: Protocol) -> Arc<Tracer> {
        Arc::new(Tracer {
            protocol,
            counters: Counters::default(),
            records: Mutex::new(Vec::new()),
        })
    }

    /// Wraps a listener so every accepted connection is traced.
    pub fn wrap(self: &Arc<Self>, inner: Box<dyn Listener>) -> Box<dyn Listener> {
        Box::new(TracedListener {
            inner,
            tracer: self.clone(),
        })
    }

    pub fn snapshot(&self) -> CounterSnap {
        let c = &self.counters;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        CounterSnap {
            accepts: get(&c.accepts),
            read_calls: get(&c.read_calls),
            read_bytes: get(&c.read_bytes),
            write_calls: get(&c.write_calls),
            enqueues: get(&c.enqueues),
            enqueue_pending: get(&c.enqueue_pending),
            drain_calls: get(&c.drain_calls),
        }
    }

    /// Every span record so far.
    pub fn records(&self) -> Vec<Record> {
        self.records.lock().clone()
    }

    fn push(&self, r: Record) {
        self.records.lock().push(r);
    }
}

struct TracedListener {
    inner: Box<dyn Listener>,
    tracer: Arc<Tracer>,
}

impl Listener for TracedListener {
    fn accept(&self) -> io::Result<Box<dyn Conn>> {
        let conn = self.inner.accept()?;
        self.tracer.counters.accepts.fetch_add(1, Ordering::Relaxed);
        let port = conn
            .peer_addr()
            .rsplit(':')
            .next()
            .and_then(|p| p.parse().ok())
            .unwrap_or(0);
        Ok(Box::new(TracedConn {
            inner: conn,
            tracer: self.tracer.clone(),
            state: Arc::new(Mutex::new(ConnState::new(port))),
        }))
    }

    fn set_accept_timeout(&self, d: Option<Duration>) {
        self.inner.set_accept_timeout(d)
    }

    fn local_addr(&self) -> String {
        self.inner.local_addr()
    }
}

/// Framing state of one connection, shared by its cloned handles.
#[derive(Debug)]
struct ConnState {
    port: u16,
    /// The last four bytes read (HTTP head-end detector).
    window: u32,
    /// When the first byte of the request being read arrived.
    started: Option<Instant>,
    /// HTTP: request heads completed and responses started.
    heads: u64,
    responses: u64,
    /// HTTP: completed heads awaiting their first response write.
    awaiting: std::collections::VecDeque<(u64, Instant, Instant)>,
    /// Pub/sub: the partial line being read.
    line: Vec<u8>,
}

impl ConnState {
    fn new(port: u16) -> ConnState {
        ConnState {
            port,
            window: 0,
            started: None,
            heads: 0,
            responses: 0,
            awaiting: Default::default(),
            line: Vec::new(),
        }
    }

    fn on_read(&mut self, bytes: &[u8], now: Instant, tracer: &Tracer) {
        for &b in bytes {
            let started = *self.started.get_or_insert(now);
            match tracer.protocol {
                Protocol::Http => {
                    self.window = (self.window << 8) | b as u32;
                    if self.window == u32::from_be_bytes(*b"\r\n\r\n") {
                        self.awaiting.push_back((self.heads, started, now));
                        self.heads += 1;
                        self.started = None;
                        self.window = 0;
                    }
                }
                Protocol::PubSub => {
                    if b != b'\n' {
                        self.line.push(b);
                        continue;
                    }
                    if let Some((topic, ordinal)) = parse_pub(&self.line) {
                        tracer.push(Record::Pub {
                            topic,
                            ordinal,
                            first_read: started,
                            last_read: now,
                        });
                    }
                    self.line.clear();
                    self.started = None;
                }
            }
        }
    }

    fn on_write(&mut self, bytes: &[u8], now: Instant, tracer: &Tracer) {
        if bytes.is_empty() {
            return;
        }
        match tracer.protocol {
            Protocol::Http => {
                if self.responses < self.heads {
                    if let Some((ordinal, first_read, last_read)) = self.awaiting.pop_front() {
                        tracer.push(Record::Http {
                            port: self.port,
                            ordinal,
                            first_read,
                            last_read,
                            first_write: now,
                        });
                    }
                    self.responses += 1;
                }
            }
            Protocol::PubSub => {
                for line in bytes.split(|&b| b == b'\n') {
                    if let Some((topic, seq)) = parse_msg(line) {
                        tracer.push(Record::Msg {
                            topic,
                            seq,
                            at: now,
                        });
                    }
                }
            }
        }
    }
}

/// `PUB <topic> <ordinal>-<stamp>` → (topic, ordinal).
fn parse_pub(line: &[u8]) -> Option<(String, u64)> {
    let line = std::str::from_utf8(line).ok()?.trim_end_matches('\r');
    let mut w = line.split(' ');
    (w.next()? == "PUB").then_some(())?;
    let topic = w.next()?;
    let ordinal = w.next()?.split('-').next()?.parse().ok()?;
    Some((topic.to_string(), ordinal))
}

/// `MSG <topic> <seq> ...` → (topic, seq).
fn parse_msg(line: &[u8]) -> Option<(String, u64)> {
    let line = std::str::from_utf8(line).ok()?;
    let mut w = line.split(' ');
    (w.next()? == "MSG").then_some(())?;
    let topic = w.next()?;
    let seq = w.next()?.parse().ok()?;
    Some((topic.to_string(), seq))
}

struct TracedConn {
    inner: Box<dyn Conn>,
    tracer: Arc<Tracer>,
    state: Arc<Mutex<ConnState>>,
}

impl TracedConn {
    fn wrote(&self, bytes: &[u8], at: Instant) {
        self.tracer
            .counters
            .write_calls
            .fetch_add(1, Ordering::Relaxed);
        self.state.lock().on_write(bytes, at, &self.tracer);
    }

    fn enqueued(&self, bytes: &[u8], at: Instant, r: &io::Result<WriteProgress>) {
        let c = &self.tracer.counters;
        c.enqueues.fetch_add(1, Ordering::Relaxed);
        if matches!(r, Ok(WriteProgress::Pending)) {
            c.enqueue_pending.fetch_add(1, Ordering::Relaxed);
        }
        self.wrote(bytes, at);
    }
}

impl Read for TracedConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        let c = &self.tracer.counters;
        c.read_calls.fetch_add(1, Ordering::Relaxed);
        c.read_bytes.fetch_add(n as u64, Ordering::Relaxed);
        if n > 0 {
            self.state
                .lock()
                .on_read(&buf[..n], Instant::now(), &self.tracer);
        }
        Ok(n)
    }
}

impl Write for TracedConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let at = Instant::now();
        let n = self.inner.write(buf)?;
        self.wrote(&buf[..n], at);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Conn for TracedConn {
    fn peer_addr(&self) -> String {
        self.inner.peer_addr()
    }

    fn set_read_timeout(&mut self, d: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(d)
    }

    fn wait_readable(&self, timeout: Option<Duration>) -> io::Result<bool> {
        self.inner.wait_readable(timeout)
    }

    fn set_read_watch(&self, watch: Box<dyn FnOnce() + Send>) -> bool {
        self.inner.set_read_watch(watch)
    }

    #[cfg(unix)]
    fn raw_fd(&self) -> Option<std::os::fd::RawFd> {
        self.inner.raw_fd()
    }

    fn enqueue_write(&mut self, bytes: &[u8]) -> io::Result<WriteProgress> {
        let at = Instant::now();
        let r = self.inner.enqueue_write(bytes);
        self.enqueued(bytes, at, &r);
        r
    }

    fn enqueue_write_shared(&mut self, payload: &SharedPayload) -> io::Result<WriteProgress> {
        let at = Instant::now();
        let r = self.inner.enqueue_write_shared(payload);
        self.enqueued(payload, at, &r);
        r
    }

    fn pending_out(&self) -> usize {
        self.inner.pending_out()
    }

    fn drain_out(&mut self) -> io::Result<WriteProgress> {
        self.tracer
            .counters
            .drain_calls
            .fetch_add(1, Ordering::Relaxed);
        self.inner.drain_out()
    }

    fn try_clone(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(TracedConn {
            inner: self.inner.try_clone()?,
            tracer: self.tracer.clone(),
            state: self.state.clone(),
        }))
    }

    fn shutdown_write(&mut self) -> io::Result<()> {
        self.inner.shutdown_write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn http_framing_records_one_span_per_request() {
        let tracer = Tracer::new(Protocol::Http);
        let mut st = ConnState::new(4242);
        let t = Instant::now();
        let at = |ms| t + Duration::from_millis(ms);
        // Request 0 arrives in three reads, request 1 in one.
        st.on_read(b"GET / HTTP/1.1\r\n", at(1), &tracer);
        st.on_read(b"Host: x\r\n", at(2), &tracer);
        st.on_read(b"\r\n", at(3), &tracer);
        st.on_write(b"HTTP/1.1 200 OK\r\n", at(5), &tracer);
        st.on_write(b"body", at(6), &tracer);
        st.on_read(b"GET /b HTTP/1.1\r\n\r\n", at(9), &tracer);
        st.on_write(b"HTTP/1.1 200 OK\r\n", at(12), &tracer);
        assert_eq!(
            tracer.records(),
            vec![
                Record::Http {
                    port: 4242,
                    ordinal: 0,
                    first_read: at(1),
                    last_read: at(3),
                    first_write: at(5),
                },
                Record::Http {
                    port: 4242,
                    ordinal: 1,
                    first_read: at(9),
                    last_read: at(9),
                    first_write: at(12),
                },
            ]
        );
    }

    /// Serves `requests` keep-alive GETs from a web server whose
    /// listener is (or is not) wrapped; returns the resolved poller
    /// backend and the reactor events per request.
    fn serve(wrapped: bool, requests: u64) -> (&'static str, f64) {
        use flux_http::DocRoot;
        use flux_net::TcpAcceptor;
        use flux_servers::web::{self, WebSpec};
        use std::io::{Read as _, Write as _};

        let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
        let addr = acceptor.local_addr();
        let tracer = Tracer::new(Protocol::Http);
        let listener: Box<dyn Listener> = if wrapped {
            tracer.wrap(Box::new(acceptor))
        } else {
            Box::new(acceptor)
        };
        let mut docroot = DocRoot::new();
        docroot.insert("/a.html", "alpha");
        let server = flux_servers::ServerBuilder::new(WebSpec::new(listener, docroot))
            .runtime(crate::workload::runtime())
            .spawn();
        let driver = server.ctx.driver.clone();
        let mut client = std::net::TcpStream::connect(&addr).expect("connect");
        let mut reply = [0u8; 4096];
        let before = driver.reactor_events();
        for _ in 0..requests {
            client
                .write_all(b"GET /a.html HTTP/1.1\r\nHost: t\r\n\r\n")
                .expect("send");
            let mut got = Vec::new();
            while !got.ends_with(b"alpha") {
                let n = client.read(&mut reply).expect("read");
                assert!(n > 0, "server closed");
                got.extend_from_slice(&reply[..n]);
            }
        }
        let events = driver.reactor_events() - before;
        let backend = driver.poller_backend();
        web::stop(server);
        if wrapped {
            let c = tracer.snapshot();
            assert_eq!(c.accepts, 1);
            assert!(c.read_calls > 0 && c.write_calls >= requests);
        }
        (backend, events as f64 / requests as f64)
    }

    #[test]
    fn wrapped_server_stays_on_the_reactor() {
        let (plain_backend, plain) = serve(false, 200);
        let (traced_backend, traced) = serve(true, 200);
        assert_eq!(plain_backend, traced_backend);
        // One readable event per request either way; a wrapper that lost
        // `raw_fd` would move the connection to a helper thread and the
        // reactor would see no events at all.
        assert!(
            plain >= 0.9 && traced >= 0.9,
            "events/request {plain} vs {traced}"
        );
        assert!(
            (traced - plain).abs() / plain < 0.1,
            "events/request {plain} vs {traced}"
        );
    }

    #[test]
    fn pubsub_framing_parses_publishes_and_messages() {
        let tracer = Tracer::new(Protocol::PubSub);
        let mut st = ConnState::new(1);
        let t = Instant::now();
        let at = |ms| t + Duration::from_millis(ms);
        st.on_read(b"PUB t1 7-123\nPUB t2 ", at(1), &tracer);
        st.on_read(b"3-9\n", at(2), &tracer);
        st.on_write(b"MSG t1 7 7 a:1 7-123\n", at(4), &tracer);
        st.on_write(b"+OK t1\n", at(5), &tracer);
        assert_eq!(
            tracer.records(),
            vec![
                Record::Pub {
                    topic: "t1".into(),
                    ordinal: 7,
                    first_read: at(1),
                    last_read: at(1),
                },
                Record::Pub {
                    topic: "t2".into(),
                    ordinal: 3,
                    first_read: at(1),
                    last_read: at(2),
                },
                Record::Msg {
                    topic: "t1".into(),
                    seq: 7,
                    at: at(4),
                },
            ]
        );
    }
}
