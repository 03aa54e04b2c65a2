//! A Haboob-like staged event-driven web server (substitute for SEDA's
//! Haboob, the slower comparator in Figure 3).
//!
//! A miniature SEDA: the request path is decomposed into *stages*
//! (parse → handle → send), each with its own bounded event queue and
//! its own small thread pool. Events carry the connection between
//! stages; every hop costs an enqueue/dequeue and usually a context
//! switch — the architectural overhead that makes Haboob trail knot and
//! Flux in the paper's Figure 3.

use crossbeam::channel::{bounded, Receiver, Sender};
use flux_http::{read_request_buffered, DocRoot, ParseError, Request, Response};
use flux_net::{Conn, Listener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A connection travelling between stages with its read carry (bytes
/// read past the current request, e.g. a pipelined request).
type Connection = (Box<dyn Conn>, Vec<u8>);

/// Events flowing between stages.
enum StageEvent {
    /// A connection ready for request parsing.
    Parse(Connection),
    /// A parsed request awaiting handling.
    Handle(Connection, Request),
    /// A response ready to send.
    Send(Connection, Request, Response),
}

/// Stats comparable with the other web servers.
#[derive(Default)]
pub struct SedaStats {
    pub requests: AtomicU64,
    pub bytes_out: AtomicU64,
    /// Events dropped due to full stage queues (overload shedding).
    pub shed: AtomicU64,
}

/// A running mini-SEDA server.
pub struct SedaServer {
    pub stats: Arc<SedaStats>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

/// Per-stage thread count.
#[derive(Debug, Clone, Copy)]
pub struct SedaConfig {
    pub parse_threads: usize,
    pub handle_threads: usize,
    pub send_threads: usize,
    pub queue_depth: usize,
}

impl Default for SedaConfig {
    fn default() -> Self {
        SedaConfig {
            parse_threads: 2,
            handle_threads: 4,
            send_threads: 2,
            queue_depth: 1024,
        }
    }
}

impl SedaServer {
    /// Starts the staged pipeline behind an acceptor.
    pub fn start(listener: Box<dyn Listener>, docroot: DocRoot, config: SedaConfig) -> SedaServer {
        let stats = Arc::new(SedaStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let docroot = Arc::new(docroot);
        let (parse_tx, parse_rx) = bounded::<StageEvent>(config.queue_depth);
        let (handle_tx, handle_rx) = bounded::<StageEvent>(config.queue_depth);
        let (send_tx, send_rx) = bounded::<StageEvent>(config.queue_depth);
        let mut threads = Vec::new();

        // Parse stage.
        for _ in 0..config.parse_threads.max(1) {
            let rx: Receiver<StageEvent> = parse_rx.clone();
            let next: Sender<StageEvent> = handle_tx.clone();
            let stats = stats.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("seda-parse".into())
                    .spawn(move || {
                        while let Ok(ev) = rx.recv() {
                            let StageEvent::Parse((mut conn, mut carry)) = ev else {
                                continue;
                            };
                            match read_request_buffered(&mut *conn, &mut carry) {
                                Ok(req) => {
                                    stats.requests.fetch_add(1, Ordering::Relaxed);
                                    let ev = StageEvent::Handle((conn, carry), req);
                                    if next.try_send(ev).is_err() {
                                        stats.shed.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                Err(ParseError::ConnectionClosed) => {}
                                Err(_) => {
                                    let _ = Response::error(400).write_to(&mut *conn, false);
                                }
                            }
                        }
                    })
                    .expect("spawn seda parse"),
            );
        }

        // Handle stage.
        for _ in 0..config.handle_threads.max(1) {
            let rx = handle_rx.clone();
            let next = send_tx.clone();
            let docroot = docroot.clone();
            let stats = stats.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("seda-handle".into())
                    .spawn(move || {
                        while let Ok(ev) = rx.recv() {
                            let StageEvent::Handle(conn, req) = ev else {
                                continue;
                            };
                            let resp = crate::knot::handle_request(
                                &req.path,
                                &req.query_params(),
                                &docroot,
                            );
                            if next.try_send(StageEvent::Send(conn, req, resp)).is_err() {
                                stats.shed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    })
                    .expect("spawn seda handle"),
            );
        }

        // Send stage: writes, then recycles keep-alive connections back
        // into the parse queue.
        for _ in 0..config.send_threads.max(1) {
            let rx = send_rx.clone();
            let back: Sender<StageEvent> = parse_tx.clone();
            let stats = stats.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("seda-send".into())
                    .spawn(move || {
                        while let Ok(ev) = rx.recv() {
                            let StageEvent::Send((mut conn, carry), req, resp) = ev else {
                                continue;
                            };
                            let keep = req.keep_alive();
                            if resp.write_to(&mut *conn, keep).is_ok() {
                                stats
                                    .bytes_out
                                    .fetch_add(resp.wire_len(keep) as u64, Ordering::Relaxed);
                                let ev = StageEvent::Parse((conn, carry));
                                if keep && back.try_send(ev).is_err() {
                                    stats.shed.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    })
                    .expect("spawn seda send"),
            );
        }

        // Acceptor.
        {
            let stop = stop.clone();
            let stats = stats.clone();
            listener.set_accept_timeout(Some(Duration::from_millis(50)));
            threads.push(
                std::thread::Builder::new()
                    .name("seda-accept".into())
                    .spawn(move || loop {
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        match listener.accept() {
                            Ok(conn) => {
                                let ev = StageEvent::Parse((conn, Vec::new()));
                                if parse_tx.try_send(ev).is_err() {
                                    stats.shed.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::TimedOut => continue,
                            Err(_) => return,
                        }
                    })
                    .expect("spawn seda accept"),
            );
        }

        SedaServer {
            stats,
            stop,
            threads,
        }
    }

    /// Stops the server.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Dropping our ends does not close stage channels (clones live in
        // threads); the acceptor exit starves parse, which starves the
        // rest once queues drain. Joining the acceptor then detaching
        // stage threads keeps shutdown simple; for tests the process
        // exits anyway.
        for t in self.threads {
            if t.thread().name() == Some("seda-accept") {
                let _ = t.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_http::read_response;
    use flux_net::MemNet;
    use std::io::Write as _;

    #[test]
    fn staged_pipeline_serves_requests() {
        let mut docroot = DocRoot::new();
        docroot.insert("/index.html", "<h1>seda</h1>");
        docroot.insert("/c.fxs", "<?fx echo 2 + 2; ?>");
        let net = MemNet::new();
        let listener = net.listen("seda").unwrap();
        let server = SedaServer::start(Box::new(listener), docroot, SedaConfig::default());

        let mut conn = net.connect("seda").unwrap();
        write!(
            conn,
            "GET /index.html HTTP/1.1\r\nConnection: keep-alive\r\n\r\n"
        )
        .unwrap();
        let (status, body) = read_response(&mut conn).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"<h1>seda</h1>");

        // Keep-alive: the connection is recycled through the stages.
        write!(conn, "GET /c.fxs HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let (status, body) = read_response(&mut conn).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"4");

        assert_eq!(server.stats.requests.load(Ordering::Relaxed), 2);
        server.stop();
    }

    #[test]
    fn missing_file_404s() {
        let net = MemNet::new();
        let listener = net.listen("seda2").unwrap();
        let server = SedaServer::start(Box::new(listener), DocRoot::new(), SedaConfig::default());
        let mut conn = net.connect("seda2").unwrap();
        write!(conn, "GET /x HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let (status, _) = read_response(&mut conn).unwrap();
        assert_eq!(status, 404);
        server.stop();
    }
}
