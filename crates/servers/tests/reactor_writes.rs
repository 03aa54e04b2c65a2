//! Acceptance test for the reactor write path: `Write` nodes never
//! occupy an I/O worker — responses, including partial writes against a
//! full TCP socket buffer, are drained by the reactor via `POLLOUT`.
//!
//! The behavioural proof: the server runs with **one** I/O worker and a
//! client that requests a multi-megabyte file and then refuses to read.
//! A blocking write path would park that worker in `write_all` until
//! the client drains, starving every other connection's
//! `ReadRequest`; with reactor writes the pool stays free
//! and other clients are served while the slow reader's response sits
//! in the reactor's `POLLOUT` drain.

use flux_http::{read_response, DocRoot};
use flux_net::{Listener as _, TcpAcceptor, TcpConn};
use flux_runtime::RuntimeKind;
use flux_servers::web;
use std::io::{Read as _, Write as _};
use std::time::{Duration, Instant};

const BIG_LEN: usize = 8 * 1024 * 1024;

fn docroot() -> DocRoot {
    let mut root = DocRoot::new();
    let big: Vec<u8> = (0..BIG_LEN).map(|i| (i % 249) as u8).collect();
    root.insert("/big.bin", big);
    root.insert("/small.txt", "tiny");
    root
}

/// The compiled web program no longer declares `Write` blocking, so the
/// event runtime never routes it to the I/O pool (structural half of
/// the guarantee; the debug_assert inside the node enforces it at run
/// time in every debug/test build).
#[test]
fn write_node_is_not_blocking_in_the_graph() {
    let program = flux_core::compile(web::FLUX_SRC).unwrap();
    let (_, info) = program.graph.node("Write").expect("Write node exists");
    assert!(
        !info.blocking,
        "reactor-mode Write must not be declared blocking"
    );
    // ReadRequest still is: reads genuinely park a worker.
    let (_, info) = program.graph.node("ReadRequest").unwrap();
    assert!(info.blocking);
}

#[test]
fn slow_reader_never_occupies_the_io_pool() {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr();
    let server = flux_servers::ServerBuilder::new(web::WebSpec::new(Box::new(acceptor), docroot()))
        // One I/O worker: a single blocking write would wedge the pool.
        .runtime(RuntimeKind::event_driven_sharded(2, 1))
        .spawn();

    // Slow reader: request the big file, read nothing yet. The response
    // overruns the socket buffers, so the reactor is left holding a
    // partially drained output buffer.
    let mut slow = TcpConn::connect(&addr).unwrap();
    write!(
        slow,
        "GET /big.bin HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let t0 = Instant::now();
    let counters = loop {
        let c = server
            .handle
            .server()
            .stats
            .net_counters()
            .expect("web server installs net counters");
        if c.write_would_block() > 0 {
            break c;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "the big response never hit WouldBlock — socket buffers \
             swallowed {BIG_LEN} bytes?"
        );
        std::thread::sleep(Duration::from_millis(10));
    };

    // While that response is parked on the reactor, the single I/O
    // worker must still service other connections' blocking reads.
    for _ in 0..5 {
        let mut conn = TcpConn::connect(&addr).unwrap();
        write!(
            conn,
            "GET /small.txt HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let (status, body) = read_response(&mut conn).unwrap();
        assert_eq!((status, body.as_slice()), (200, b"tiny".as_ref()));
    }

    // Now drain the slow reader: the reactor finishes the partial write
    // via POLLOUT and the deferred close delivers EOF afterwards.
    let (status, body) = read_response(&mut slow).unwrap();
    assert_eq!(status, 200);
    assert_eq!(body.len(), BIG_LEN, "full payload despite partial writes");
    assert!(body.iter().enumerate().all(|(i, &b)| b == (i % 249) as u8));
    let mut rest = [0u8; 16];
    assert_eq!(slow.read(&mut rest).unwrap(), 0, "EOF after deferred close");

    assert!(
        counters.writes_drained() >= 6,
        "all six responses drained through the driver write path \
         (got {})",
        counters.writes_drained()
    );
    web::stop(server);
}
