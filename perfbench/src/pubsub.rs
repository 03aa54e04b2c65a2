//! `pubsub_stream`: one publisher connection and one subscriber
//! connection subscribed to 64 topics.
//!
//! Publishes go round-robin over the topics. Each value is
//! `<ordinal>-<stamp>`: the publish's ordinal on its topic (which is the
//! `seq` the server gives it) and its send time in µs since the session
//! began; the server echoes the triggering value back in `<last>`. A
//! streaming push workload: the server writes as much as it reads and
//! never accepts a connection mid-phase, reads arrive as chunks of
//! several commands, and it drives topic-pinned routing, window
//! aggregation and the `SharedPayload` write path.
//!
//! The closed loop keeps [`CREDITS`] publishes in flight: a publish is
//! "answered" when a delivered `MSG` covers it (its topic's `seq`
//! reaches the publish's ordinal).

use crate::gen::{self, ms, wait_until, Schedule, Tally};
use crate::report::Metrics;
use crate::server::{Running, ServerView};
use crate::spans::{self, ClientPub};
use crate::tracenet::{Protocol, Tracer};
use crate::workload::{runtime, Phase, Session, Workload};
use flux_net::{Listener, TcpAcceptor};
use flux_servers::pubsub::{self, PubSubCtx, PubSubFlow, PubSubSpec};
use flux_servers::ServerBuilder;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Topics the subscriber follows.
const TOPICS: usize = 64;
/// The server's sliding window (the `PubSubSpec` default).
const WINDOW: u64 = 64;
/// Closed loop: publishes in flight.
const CREDITS: u64 = 64;
/// How long the subscriber waits after the last publish for the rest to
/// be reflected; any still missing then count as failures.
const DRAIN: Duration = Duration::from_secs(2);
/// Open-loop rate, publishes/s: about half the saturation throughput on
/// the reference host (2 cores).
const RATE: f64 = 20000.0;

pub struct PubSubStream;

impl Workload for PubSubStream {
    fn rate(&self) -> f64 {
        RATE
    }

    fn flux_src(&self) -> &'static str {
        pubsub::FLUX_SRC
    }

    fn tracer(&self) -> Arc<Tracer> {
        Tracer::new(Protocol::PubSub)
    }

    fn start(&self, tracer: Option<Arc<Tracer>>) -> Box<dyn Session> {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind loopback listener");
        let addr = acceptor.local_addr();
        let listener: Box<dyn Listener> = match &tracer {
            Some(t) => t.wrap(Box::new(acceptor)),
            None => Box::new(acceptor),
        };
        let server = ServerBuilder::new(PubSubSpec::new(listener))
            .runtime(runtime())
            .profile(tracer.is_some())
            .spawn();
        let driver = server.ctx.driver.clone();
        Box::new(PubSubSession {
            running: Running::new(server, driver, pubsub::stop),
            addr,
            tracer,
            published: vec![0; TOPICS],
            epoch: Instant::now(),
        })
    }
}

struct PubSubSession {
    running: Running<PubSubFlow, Arc<PubSubCtx>>,
    addr: String,
    tracer: Option<Arc<Tracer>>,
    /// Publishes per topic so far on this server: the next publish's
    /// ordinal is one more.
    published: Vec<u64>,
    epoch: Instant,
}

/// What the publisher sent to one topic in the current phase.
#[derive(Default)]
struct TopicLog {
    /// Publishes before this phase (their `seq`s are not expected).
    base: u64,
    /// The send stamp of each publish of this phase, by ordinal.
    stamp: Vec<u64>,
    /// Due and send times of the publishes not yet reflected, oldest
    /// first.
    pending: VecDeque<(Instant, Instant)>,
    /// Highest `seq` delivered so far.
    seen: u64,
}

impl TopicLog {
    fn published(&self) -> u64 {
        self.base + self.stamp.len() as u64
    }
}

struct Log {
    /// When the phase began, and whether it is an open loop.
    start: Instant,
    open_loop: bool,
    topics: Vec<TopicLog>,
    sent: u64,
    /// Publishes covered by a correct `MSG`.
    reflected: u64,
    publisher_done: bool,
}

impl Log {
    /// A log for a phase on a server that has seen `published` publishes
    /// per topic.
    fn new(published: &[u64], start: Instant, open_loop: bool) -> Log {
        Log {
            start,
            open_loop,
            topics: published
                .iter()
                .map(|&base| TopicLog {
                    base,
                    seen: base,
                    ..TopicLog::default()
                })
                .collect(),
            sent: 0,
            reflected: 0,
            publisher_done: false,
        }
    }
}

struct Shared {
    log: Mutex<Log>,
    /// Signalled on every reflection (closed-loop credits) and when
    /// the publisher finishes.
    cv: Condvar,
}

/// Checks one `MSG` line against what was published and records the
/// publishes it reflects. Returns an error for a wrong message.
fn on_msg(
    log: &mut Log,
    line: &str,
    now: Instant,
    tally: &mut Tally,
    mut pubs: Option<&mut Vec<ClientPub>>,
) -> Result<(), String> {
    let (start, open_loop) = (log.start, log.open_loop);
    let mut w = line.split(' ');
    let (Some("MSG"), Some(topic), Some(seq), Some(count), Some(_topk), Some(last), None) = (
        w.next(),
        w.next(),
        w.next(),
        w.next(),
        w.next(),
        w.next(),
        w.next(),
    ) else {
        return Err(format!("malformed line {line:?}"));
    };
    let idx: usize = topic
        .strip_prefix('t')
        .and_then(|i| i.parse().ok())
        .filter(|&i| i < TOPICS)
        .ok_or_else(|| format!("unknown topic in {line:?}"))?;
    let seq: u64 = seq.parse().map_err(|_| format!("bad seq in {line:?}"))?;
    let count: u64 = count
        .parse()
        .map_err(|_| format!("bad count in {line:?}"))?;
    let t = &mut log.topics[idx];
    if seq <= t.seen || seq > t.published() {
        return Err(format!(
            "{topic}: seq {seq} after {}, {} published",
            t.seen,
            t.published()
        ));
    }
    if count != seq.min(WINDOW) {
        return Err(format!("{topic}: count {count} at seq {seq}"));
    }
    let sent_last = last
        .split_once('-')
        .and_then(|(k, s)| Some((k.parse::<u64>().ok()?, s.parse::<u64>().ok()?)))
        .filter(|&(k, _)| k > t.base && k <= t.published())
        .is_some_and(|(k, s)| t.stamp[(k - t.base - 1) as usize] == s);
    if !sent_last {
        return Err(format!("{topic}: <last> {last:?} was not published to it"));
    }
    let first = t.seen.max(t.base) + 1;
    t.seen = seq;
    for ordinal in first..=seq {
        let (due, sent) = t
            .pending
            .pop_front()
            .expect("one pending entry per unreflected publish");
        tally.complete(start, now, open_loop.then(|| ms(due, now)));
        if let Some(p) = pubs.as_deref_mut() {
            p.push(ClientPub {
                topic: topic.to_string(),
                ordinal,
                sent,
                done: now,
                seq,
            });
        }
    }
    log.reflected += seq + 1 - first;
    Ok(())
}

/// Reads `MSG` lines until every publish is reflected or the drain
/// window closes.
fn subscribe_loop(mut sub: TcpStream, shared: Arc<Shared>, trace: bool) -> (Tally, Vec<ClientPub>) {
    let mut tally = Tally::default();
    let mut pubs = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut filled = 0;
    let mut deadline: Option<Instant> = None;
    loop {
        {
            let log = shared.log.lock();
            if log.publisher_done {
                if log.reflected == log.sent {
                    break;
                }
                let d = *deadline.get_or_insert_with(|| Instant::now() + DRAIN);
                if Instant::now() >= d {
                    break;
                }
            }
        }
        let n = match sub.read(&mut buf[filled..]) {
            Ok(0) => {
                tally.fail("subscriber connection closed");
                break;
            }
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(e) => {
                tally.fail(format!("subscriber read: {e}"));
                break;
            }
        };
        let now = Instant::now();
        filled += n;
        let mut consumed = 0;
        let mut log = shared.log.lock();
        while let Some(nl) = buf[consumed..filled].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&buf[consumed..consumed + nl]).into_owned();
            consumed += nl + 1;
            if let Err(why) = on_msg(&mut log, &line, now, &mut tally, trace.then_some(&mut pubs)) {
                tally.wrong(why);
            }
        }
        drop(log);
        shared.cv.notify_all();
        buf.copy_within(consumed..filled, 0);
        filled -= consumed;
        if filled == buf.len() {
            tally.wrong("line longer than the read buffer");
            break;
        }
    }
    (tally, pubs)
}

/// Appends `count` round-robin publishes to `out`, logging them.
fn publish(
    log: &mut Log,
    next: &mut usize,
    count: u64,
    due: Option<Instant>,
    epoch: Instant,
    out: &mut Vec<u8>,
) {
    let now = Instant::now();
    let stamp = now.duration_since(epoch).as_micros() as u64;
    for _ in 0..count {
        let idx = *next;
        *next = (idx + 1) % TOPICS;
        let t = &mut log.topics[idx];
        let ordinal = t.published() + 1;
        t.pending.push_back((due.unwrap_or(now), now));
        t.stamp.push(stamp);
        out.extend_from_slice(format!("PUB t{idx} {ordinal}-{stamp}\n").as_bytes());
    }
    log.sent += count;
}

/// The publisher: closed loop with [`CREDITS`] in flight, or open loop
/// on `schedule`.
fn publish_loop(
    mut conn: TcpStream,
    shared: Arc<Shared>,
    end: Instant,
    schedule: Option<Arc<Schedule>>,
    epoch: Instant,
) -> (Tally, ()) {
    let mut tally = Tally::default();
    let mut next = 0;
    let mut out = Vec::new();
    loop {
        out.clear();
        match &schedule {
            None => {
                let mut log = shared.log.lock();
                while log.sent - log.reflected >= CREDITS && Instant::now() < end {
                    shared.cv.wait_for(&mut log, Duration::from_millis(50));
                }
                if Instant::now() >= end {
                    break;
                }
                let free = CREDITS - (log.sent - log.reflected);
                publish(&mut log, &mut next, free, None, epoch, &mut out);
            }
            Some(s) => {
                let Some(due) = s.claim(Instant::now()) else {
                    break;
                };
                if let Some(late) = wait_until(due) {
                    tally.late_ms.push(late.as_secs_f64() * 1e3);
                }
                publish(
                    &mut shared.log.lock(),
                    &mut next,
                    1,
                    Some(due),
                    epoch,
                    &mut out,
                );
            }
        }
        if let Err(e) = conn.write_all(&out) {
            tally.fail(format!("publish: {e}"));
            break;
        }
    }
    shared.log.lock().publisher_done = true;
    shared.cv.notify_all();
    (tally, ())
}

impl PubSubSession {
    /// Connects a subscriber to every topic and waits for the acks.
    fn subscriber(&self) -> Result<TcpStream, String> {
        let mut sub = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        sub.set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        let subs: String = (0..TOPICS).map(|i| format!("SUB t{i}\n")).collect();
        sub.write_all(subs.as_bytes())
            .map_err(|e| format!("subscribe: {e}"))?;
        let want: String = (0..TOPICS).map(|i| format!("+OK t{i}\n")).collect();
        let mut got = vec![0u8; want.len()];
        sub.read_exact(&mut got)
            .map_err(|e| format!("subscribe acks: {e}"))?;
        // Acks may arrive in any order: compare as sets of lines.
        let mut lines: Vec<&[u8]> = got.split(|&b| b == b'\n').collect();
        let mut want_lines: Vec<&[u8]> = want.as_bytes().split(|&b| b == b'\n').collect();
        lines.sort();
        want_lines.sort();
        if lines != want_lines {
            return Err("wrong subscribe acks".into());
        }
        sub.set_read_timeout(Some(Duration::from_millis(100)))
            .map_err(|e| e.to_string())?;
        Ok(sub)
    }

    fn phase(&mut self, dur: Duration, rate: Option<f64>, trace: bool) -> Phase {
        let (sub, publisher) = match (self.subscriber(), TcpStream::connect(&self.addr)) {
            (Ok(s), Ok(p)) => (s, p),
            (Err(e), _) => return failed_phase(e),
            (_, Err(e)) => return failed_phase(format!("connect: {e}")),
        };
        let start = Instant::now();
        let shared = Arc::new(Shared {
            log: Mutex::new(Log::new(&self.published, start, rate.is_some())),
            cv: Condvar::new(),
        });
        let end = start + dur;
        let schedule = rate.map(|r| Arc::new(Schedule::new(start, end, r)));
        let sub_thread = {
            let shared = shared.clone();
            gen::spawn("sub", move || subscribe_loop(sub, shared, trace))
        };
        let pub_thread = {
            let (shared, schedule, epoch) = (shared.clone(), schedule.clone(), self.epoch);
            gen::spawn("pub", move || {
                publish_loop(publisher, shared, end, schedule, epoch)
            })
        };
        let (mut tally, ()) = pub_thread.join().expect("publisher thread panicked");
        let (sub_tally, pubs) = sub_thread.join().expect("subscriber thread panicked");
        let elapsed = start.elapsed();
        tally.merge(sub_tally);
        let log = shared.log.lock();
        for (p, t) in self.published.iter_mut().zip(&log.topics) {
            *p = t.published();
        }
        let dropped = schedule.map_or(0, |s| s.dropped());
        tally.attempted = log.sent + dropped;
        // Every publish not reflected by a correct message fails (lost,
        // dropped at the backlog cap, or covered only by a wrong
        // message), and so does every wrong message.
        tally.failed = tally.attempted - tally.ok + tally.wrong;
        let parts = match (&self.tracer, trace) {
            (Some(t), true) => Some(spans::join_pubsub(&pubs, &t.records())),
            _ => None,
        };
        Phase {
            tally,
            start,
            elapsed,
            parts,
        }
    }
}

fn failed_phase(why: String) -> Phase {
    let mut tally = Tally {
        attempted: 1,
        ..Tally::default()
    };
    tally.fail(why);
    Phase {
        tally,
        start: Instant::now(),
        elapsed: Duration::ZERO,
        parts: None,
    }
}

impl Session for PubSubSession {
    fn view(&self) -> &dyn ServerView {
        &self.running
    }

    /// Set-up's end: subscribe, publish once to the first topic, and
    /// wait for the `MSG` that reflects it.
    fn first_response(&mut self) -> Result<(), String> {
        let mut sub = self.subscriber()?;
        sub.set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        let mut publisher = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        let mut log = Log::new(&self.published, Instant::now(), false);
        let mut out = Vec::new();
        publish(&mut log, &mut 0, 1, None, self.epoch, &mut out);
        publisher
            .write_all(&out)
            .map_err(|e| format!("publish: {e}"))?;
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        while byte[0] != b'\n' {
            sub.read_exact(&mut byte)
                .map_err(|e| format!("first MSG: {e}"))?;
            line.push(byte[0]);
        }
        let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
        let mut tally = Tally::default();
        on_msg(&mut log, &line, Instant::now(), &mut tally, None)?;
        self.published[0] += 1;
        Ok(())
    }

    fn saturate(&mut self, dur: Duration, trace: bool) -> Phase {
        self.phase(dur, None, trace)
    }

    fn open_loop(&mut self, dur: Duration, rate: f64) -> Phase {
        self.phase(dur, Some(rate), false)
    }

    fn server_layers(&self, m: &mut Metrics) {
        let c = self.running.counters();
        m.add(
            "pubsub.deliveries_per_publish",
            crate::stats::ratio(c.deliveries as f64, c.publishes as f64),
            "count",
        );
        m.add(
            "pubsub.coalesced_share",
            crate::stats::ratio(c.coalesced as f64, (c.publishes + c.coalesced) as f64),
            "fraction",
        );
    }

    fn offline_layers(&self, _m: &mut Metrics) {}

    fn stop(self: Box<Self>) {
        self.running.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(published: &[(usize, u64)]) -> Log {
        let mut log = Log::new(&[0; TOPICS], Instant::now(), false);
        let epoch = Instant::now();
        for &(idx, n) in published {
            for _ in 0..n {
                publish(&mut log, &mut idx.clone(), 1, None, epoch, &mut Vec::new());
            }
        }
        log
    }

    #[test]
    fn a_message_reflects_every_publish_up_to_its_seq() {
        let mut log = log_with(&[(3, 3)]);
        let stamp = log.topics[3].stamp[1];
        let mut tally = Tally::default();
        on_msg(
            &mut log,
            &format!("MSG t3 2 2 x:1 2-{stamp}"),
            Instant::now(),
            &mut tally,
            None,
        )
        .expect("correct message");
        assert_eq!((tally.ok, log.reflected, log.topics[3].seen), (2, 2, 2));
    }

    #[test]
    fn wrong_messages_are_refused() {
        let mut log = log_with(&[(0, 2)]);
        let s = log.topics[0].stamp[1];
        let mut tally = Tally::default();
        let now = Instant::now();
        // Count must equal min(seq, window).
        assert!(on_msg(
            &mut log,
            &format!("MSG t0 2 1 - 2-{s}"),
            now,
            &mut tally,
            None
        )
        .is_err());
        // <last> must be a value published to that topic.
        assert!(on_msg(
            &mut log,
            &format!("MSG t0 2 2 - 2-{}", s + 1),
            now,
            &mut tally,
            None
        )
        .is_err());
        assert!(on_msg(
            &mut log,
            &format!("MSG t0 2 2 - 3-{s}"),
            now,
            &mut tally,
            None
        )
        .is_err());
        // A seq never published.
        assert!(on_msg(
            &mut log,
            &format!("MSG t0 3 3 - 2-{s}"),
            now,
            &mut tally,
            None
        )
        .is_err());
        on_msg(
            &mut log,
            &format!("MSG t0 2 2 - 2-{s}"),
            now,
            &mut tally,
            None,
        )
        .expect("correct");
        // Seq must increase.
        assert!(on_msg(
            &mut log,
            &format!("MSG t0 2 2 - 2-{s}"),
            now,
            &mut tally,
            None
        )
        .is_err());
        assert_eq!(tally.ok, 2);
    }
}
