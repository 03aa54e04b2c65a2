//! The connection read carry, end to end: requests pipelined into one
//! client write are all answered, in order, by the web and image
//! servers over TCP and over the in-memory transport; bytes a closed
//! connection left unread never reach the next connection; and the
//! image server answers each request with exactly one write.

use flux_http::{read_response, DocRoot};
use flux_net::{Conn, Listener, MemNet, TcpAcceptor, TcpConn};
use flux_runtime::RuntimeKind;
use flux_servers::image::{CompressMode, ImageConfig, ImageSource};
use flux_servers::{image, web, ServerBuilder};
use std::io::{Read as _, Write as _};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Source image width; scale `s` (eighths) serves a JPEG `WIDTH * s / 8`
/// pixels wide, which identifies the response.
const WIDTH: usize = 64;

const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Client-side transport under test.
enum Transport {
    Tcp,
    Mem(Arc<MemNet>),
}

impl Transport {
    fn listen(&self) -> (Box<dyn Listener>, String) {
        match self {
            Transport::Tcp => {
                let l = TcpAcceptor::bind("127.0.0.1:0").unwrap();
                let addr = l.local_addr();
                (Box::new(l), addr)
            }
            Transport::Mem(net) => (Box::new(net.listen("srv").unwrap()), "srv".into()),
        }
    }

    /// A client whose reads fail after 10 s, so a lost response fails
    /// the test instead of hanging it.
    fn connect(&self, addr: &str) -> Box<dyn Conn> {
        let mut conn: Box<dyn Conn> = match self {
            Transport::Tcp => Box::new(TcpConn::connect(addr).unwrap()),
            Transport::Mem(net) => Box::new(net.connect(addr).unwrap()),
        };
        conn.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        conn
    }
}

fn transports() -> [Transport; 2] {
    [Transport::Tcp, Transport::Mem(MemNet::new())]
}

/// `n` GETs in one buffer; the last asks to close.
fn pipeline(paths: &[String]) -> Vec<u8> {
    let mut wire = Vec::new();
    for (i, p) in paths.iter().enumerate() {
        let connection = if i + 1 == paths.len() {
            "close"
        } else {
            "keep-alive"
        };
        write!(
            wire,
            "GET {p} HTTP/1.1\r\nHost: t\r\nConnection: {connection}\r\n\r\n"
        )
        .unwrap();
    }
    wire
}

fn docroot() -> DocRoot {
    let mut root = DocRoot::new();
    for i in 0..5 {
        root.insert(&format!("/p{i}.txt"), format!("page {i}"));
    }
    root
}

fn web_server(t: &Transport) -> (web::WebServer, String) {
    let (listener, addr) = t.listen();
    let server = ServerBuilder::new(web::WebSpec::new(listener, docroot()))
        .runtime(RuntimeKind::event_driven_sharded(2, 2))
        .spawn();
    (server, addr)
}

fn image_server(t: &Transport) -> (image::ImageServer, String) {
    let (listener, addr) = t.listen();
    let server = ServerBuilder::new(ImageConfig {
        source: ImageSource::Net(listener),
        compress: CompressMode::Real { quality: 60 },
        images: 2,
        image_size: WIDTH,
        cache_bytes: 1 << 20,
    })
    .runtime(RuntimeKind::event_driven_sharded(2, 2))
    .spawn();
    (server, addr)
}

#[test]
fn web_server_answers_pipelined_requests_in_order() {
    for t in transports() {
        let (server, addr) = web_server(&t);
        for n in [2, 5] {
            let paths: Vec<String> = (0..n).map(|i| format!("/p{i}.txt")).collect();
            let mut conn = t.connect(&addr);
            conn.write_all(&pipeline(&paths)).unwrap();
            for i in 0..n {
                let (status, body) = read_response(&mut conn).unwrap();
                assert_eq!(status, 200);
                assert_eq!(
                    body,
                    format!("page {i}").into_bytes(),
                    "response {i} of {n}"
                );
            }
        }
        web::stop(server);
    }
}

#[test]
fn image_server_answers_pipelined_requests_in_order() {
    for t in transports() {
        let (server, addr) = image_server(&t);
        for n in [2u32, 5] {
            let paths: Vec<String> = (1..=n).map(|s| format!("/img{}-{s}.jpg", s % 2)).collect();
            let mut conn = t.connect(&addr);
            conn.write_all(&pipeline(&paths)).unwrap();
            for s in 1..=n as usize {
                let (status, body) = read_response(&mut conn).unwrap();
                assert_eq!(status, 200);
                let info = flux_image::jpeg_probe(&body).expect("a real JPEG");
                assert_eq!(info.width, WIDTH * s / 8, "response {s} of {n}");
            }
        }
        image::stop(server);
    }
}

/// A connection that closes with unparsed bytes in its carry frees its
/// slot; the next connection (which reuses the slot) is parsed from a
/// clean carry, so its request is answered rather than garbled.
#[test]
fn carried_bytes_never_reach_the_next_connection() {
    for t in transports() {
        let (server, addr) = web_server(&t);
        for round in 0..3 {
            let mut first = t.connect(&addr);
            let mut wire = pipeline(&["/p0.txt".to_string()]);
            // The start of a head that never ends: were it carried over,
            // the next request would parse as a request for /p0.txt.
            wire.extend_from_slice(b"GET /p0.txt HTTP/1.1\r\nX-Partial: ");
            first.write_all(&wire).unwrap();
            let (status, body) = read_response(&mut first).unwrap();
            assert_eq!((status, body), (200, b"page 0".to_vec()));
            // EOF: the server has removed the connection, so its slot is
            // free for the next one.
            let mut rest = Vec::new();
            first.read_to_end(&mut rest).unwrap();
            assert!(rest.is_empty());

            let mut next = t.connect(&addr);
            next.write_all(&pipeline(&["/p1.txt".to_string()])).unwrap();
            let (status, body) = read_response(&mut next).unwrap();
            assert_eq!((status, body), (200, b"page 1".to_vec()), "round {round}");
        }
        web::stop(server);
    }
}

/// Head and JPEG leave in one driver submission per response, hits and
/// misses alike.
#[test]
fn image_server_submits_one_write_per_response() {
    let (server, addr) = image_server(&Transport::Tcp);
    let driver = server.ctx.driver.clone().expect("net mode");
    let mut conn = Transport::Tcp.connect(&addr);
    let requests = 12;
    for i in 0..requests {
        let path = format!("/img{}-{}.jpg", i % 2, i % 3 + 1);
        let connection = if i + 1 == requests {
            "close"
        } else {
            "keep-alive"
        };
        write!(
            conn,
            "GET {path} HTTP/1.1\r\nConnection: {connection}\r\n\r\n"
        )
        .unwrap();
        let (status, body) = read_response(&mut conn).unwrap();
        assert_eq!(status, 200);
        flux_image::jpeg_probe(&body).expect("a real JPEG");
    }
    let counters = driver.counters();
    assert_eq!(
        counters.writes_submitted.load(Ordering::Relaxed),
        requests as u64
    );
    image::stop(server);
}
