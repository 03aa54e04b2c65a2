//! HTTP/1.1 request parsing and response serialization.
//!
//! Implements the subset the paper's web server needs: GET/POST/HEAD,
//! header parsing, `Content-Length` bodies, keep-alive semantics
//! (HTTP/1.1 defaults to persistent connections; `Connection: close`
//! or HTTP/1.0 without `keep-alive` closes), and standard responses.

use std::collections::HashMap;
use std::io::{self, IoSlice, Read, Write};

/// Hard limits protecting the parser.
const MAX_HEAD_BYTES: usize = 64 * 1024;
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// An HTTP request method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Get,
    Head,
    Post,
    Other,
}

impl Method {
    fn parse(s: &str) -> Method {
        match s {
            "GET" => Method::Get,
            "HEAD" => Method::Head,
            "POST" => Method::Post,
            _ => Method::Other,
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: Method,
    /// Decoded path without the query string (e.g. `/images/cat.ppm`).
    pub path: String,
    /// Raw query string (without `?`), empty if none.
    pub query: String,
    /// `true` for HTTP/1.1, `false` for 1.0.
    pub http11: bool,
    /// Header names are lower-cased.
    pub headers: HashMap<String, String>,
    pub body: Vec<u8>,
}

impl Request {
    /// Query parameters as key/value pairs (no percent-decoding beyond
    /// `%XX` and `+`).
    pub fn query_params(&self) -> Vec<(String, String)> {
        self.query
            .split('&')
            .filter(|s| !s.is_empty())
            .map(|kv| match kv.split_once('=') {
                Some((k, v)) => (percent_decode(k), percent_decode(v)),
                None => (percent_decode(kv), String::new()),
            })
            .collect()
    }

    /// Whether the connection should stay open after this exchange.
    pub fn keep_alive(&self) -> bool {
        match self
            .headers
            .get("connection")
            .map(|s| s.to_ascii_lowercase())
        {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// Why parsing failed.
#[derive(Debug)]
pub enum ParseError {
    /// The peer closed before sending a complete request.
    ConnectionClosed,
    /// Malformed request line or headers.
    Malformed(&'static str),
    /// Request exceeded a size limit.
    TooLarge,
    /// Underlying transport error.
    Io(io::Error),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::ConnectionClosed => write!(f, "connection closed"),
            ParseError::Malformed(why) => write!(f, "malformed request: {why}"),
            ParseError::TooLarge => write!(f, "request too large"),
            ParseError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Bytes asked of the transport per `read` while the carry holds no
/// complete request head.
const READ_CHUNK: usize = 4 * 1024;

/// Reads and parses one request from `r`: a one-shot helper for callers
/// without a per-connection buffer. Bytes the transport delivers past
/// the end of the request (the start of a pipelined request) are
/// discarded; keep-alive servers use [`read_request_buffered`].
pub fn read_request(r: &mut dyn Read) -> Result<Request, ParseError> {
    read_request_buffered(r, &mut Vec::new())
}

/// Reads and parses the next request on a connection whose carry buffer
/// is `carry`.
///
/// **The carry contract.** `carry` holds bytes already read from the
/// connection but not yet parsed. The head is taken from `carry` first;
/// `r` is read, in chunks of up to 4 KiB appended to `carry`, only while
/// `carry` holds no complete head, and a `Content-Length` body takes its
/// bytes from `carry` before reading `r`. Bytes past the request stay in
/// `carry` for the next call, so a head that arrives in one segment
/// costs one `read` and pipelined requests are never lost. The caller
/// keeps one carry per connection for the connection's lifetime and
/// never hands it to another connection. A head ends at the first
/// `\r\n\r\n` or `\n\n`.
pub fn read_request_buffered(r: &mut dyn Read, carry: &mut Vec<u8>) -> Result<Request, ParseError> {
    let head_len = read_head(r, carry)?;
    let parsed = parse_head(&carry[..head_len]);
    carry.drain(..head_len);
    let (mut req, body_len) = parsed?;
    let from_carry = body_len.min(carry.len());
    req.body.extend(carry.drain(..from_carry));
    req.body.resize(body_len, 0);
    let mut read = from_carry;
    while read < body_len {
        match r.read(&mut req.body[read..]) {
            Ok(0) => return Err(ParseError::Malformed("eof inside body")),
            Ok(n) => read += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ParseError::Io(e)),
        }
    }
    Ok(req)
}

/// Reads from `r` into `carry` until `carry` starts with a complete
/// request head; returns the head's length, terminator included.
fn read_head(r: &mut dyn Read, carry: &mut Vec<u8>) -> Result<usize, ParseError> {
    let mut scanned = 0;
    loop {
        if let Some(end) = head_end(carry, scanned) {
            return if end > MAX_HEAD_BYTES {
                Err(ParseError::TooLarge)
            } else {
                Ok(end)
            };
        }
        if carry.len() > MAX_HEAD_BYTES {
            return Err(ParseError::TooLarge);
        }
        scanned = carry.len();
        carry.resize(scanned + READ_CHUNK, 0);
        let got = r.read(&mut carry[scanned..]);
        carry.truncate(scanned + got.as_ref().map_or(0, |n| *n));
        match got {
            Ok(0) => {
                return Err(if carry.is_empty() {
                    ParseError::ConnectionClosed
                } else {
                    ParseError::Malformed("eof inside request head")
                });
            }
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ParseError::Io(e)),
        }
    }
}

/// Length of the first head in `buf`: the shortest prefix ending in
/// `\r\n\r\n` or `\n\n`. No prefix shorter than `from` + 1 ends in
/// one (an earlier scan ruled them out).
fn head_end(buf: &[u8], from: usize) -> Option<usize> {
    (from..buf.len())
        .find(|&i| {
            buf[i] == b'\n' && (buf[..=i].ends_with(b"\n\n") || buf[..=i].ends_with(b"\r\n\r\n"))
        })
        .map(|i| i + 1)
}

/// Parses a complete request head; returns the request (body empty)
/// and its `Content-Length`.
fn parse_head(head: &[u8]) -> Result<(Request, usize), ParseError> {
    let head_str = std::str::from_utf8(head).map_err(|_| ParseError::Malformed("non-utf8 head"))?;
    let mut lines = head_str.split("\r\n").flat_map(|l| l.split('\n'));
    let request_line = lines.next().ok_or(ParseError::Malformed("empty head"))?;
    let mut parts = request_line.split_whitespace();
    let method = Method::parse(parts.next().ok_or(ParseError::Malformed("no method"))?);
    let target = parts.next().ok_or(ParseError::Malformed("no target"))?;
    let version = parts.next().unwrap_or("HTTP/1.0");
    let http11 = version == "HTTP/1.1";

    let (raw_path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q.to_string()),
        None => (target, String::new()),
    };
    let path = sanitize_path(&percent_decode(raw_path))
        .ok_or(ParseError::Malformed("path escapes root"))?;

    let mut headers = HashMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (k, v) = line
            .split_once(':')
            .ok_or(ParseError::Malformed("header without colon"))?;
        headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
    }

    let body_len = match headers.get("content-length") {
        Some(len) => len
            .parse()
            .map_err(|_| ParseError::Malformed("bad content-length"))?,
        None => 0,
    };
    if body_len > MAX_BODY_BYTES {
        return Err(ParseError::TooLarge);
    }
    let req = Request {
        method,
        path,
        query,
        http11,
        headers,
        body: Vec::new(),
    };
    Ok((req, body_len))
}

/// Decodes `%XX` escapes and `+` as space.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = |b: u8| -> Option<u8> {
                    match b {
                        b'0'..=b'9' => Some(b - b'0'),
                        b'a'..=b'f' => Some(b - b'a' + 10),
                        b'A'..=b'F' => Some(b - b'A' + 10),
                        _ => None,
                    }
                };
                if i + 2 < bytes.len() {
                    if let (Some(h), Some(l)) = (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                        out.push(h * 16 + l);
                        i += 3;
                        continue;
                    }
                }
                out.push(b'%');
                i += 1;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Normalizes a request path, rejecting traversal outside the root.
pub fn sanitize_path(p: &str) -> Option<String> {
    let mut stack: Vec<&str> = Vec::new();
    for seg in p.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                stack.pop()?;
            }
            s => stack.push(s),
        }
    }
    Ok::<_, ()>(()).ok()?;
    Some(format!("/{}", stack.join("/")))
}

/// An HTTP response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub reason: &'static str,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    /// 200 with a content type.
    pub fn ok(content_type: &str, body: Vec<u8>) -> Response {
        Response {
            status: 200,
            reason: "OK",
            headers: vec![("Content-Type".into(), content_type.into())],
            body,
        }
    }

    /// A standard error page.
    pub fn error(status: u16) -> Response {
        let reason = reason_for(status);
        Response {
            status,
            reason,
            headers: vec![("Content-Type".into(), "text/html".into())],
            body: format!(
                "<html><head><title>{status} {reason}</title></head>\
                 <body><h1>{status} {reason}</h1></body></html>"
            )
            .into_bytes(),
        }
    }

    /// The classic 404, used by the paper's `FourOhFour` node.
    pub fn not_found() -> Response {
        Response::error(404)
    }

    /// Adds a header.
    pub fn header(mut self, k: &str, v: &str) -> Response {
        self.headers.push((k.into(), v.into()));
        self
    }

    /// Appends the status line, the headers (adding `Content-Length:
    /// body_len`, `Connection` and `Server`) and the blank line to
    /// `out`. Callers that own the body elsewhere append it themselves.
    pub fn write_head(&self, out: &mut Vec<u8>, body_len: usize, keep_alive: bool) {
        write!(out, "HTTP/1.1 {} {}\r\n", self.status, self.reason)
            .expect("Vec writes cannot fail");
        for (k, v) in &self.headers {
            out.extend_from_slice(k.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(v.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        write!(out, "Content-Length: {body_len}\r\n").expect("Vec writes cannot fail");
        out.extend_from_slice(b"Server: flux-rs/0.1\r\n");
        out.extend_from_slice(if keep_alive {
            b"Connection: keep-alive\r\n"
        } else {
            b"Connection: close\r\n"
        });
        out.extend_from_slice(b"\r\n");
    }

    /// Serializes the head ([`Response::write_head`]) and the body with
    /// one vectored write, so a response that fits the transport's
    /// buffer leaves in a single `writev` (no Nagle wait between head
    /// and body). Short writes are resumed where they stopped.
    pub fn write_to(&self, w: &mut dyn Write, keep_alive: bool) -> io::Result<()> {
        let mut head = Vec::with_capacity(160);
        self.write_head(&mut head, self.body.len(), keep_alive);
        let mut slices = [IoSlice::new(&head), IoSlice::new(&self.body)];
        let mut rest = &mut slices[..];
        while !rest.is_empty() {
            match w.write_vectored(rest) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "transport accepted zero bytes",
                    ))
                }
                Ok(n) => IoSlice::advance_slices(&mut rest, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        w.flush()
    }

    /// Total bytes `write_to` will emit (for throughput accounting).
    pub fn wire_len(&self, keep_alive: bool) -> usize {
        let mut n = format!("HTTP/1.1 {} {}\r\n", self.status, self.reason).len();
        for (k, v) in &self.headers {
            n += k.len() + 2 + v.len() + 2;
        }
        n += format!("Content-Length: {}\r\n", self.body.len()).len();
        n += "Server: flux-rs/0.1\r\n".len();
        n += if keep_alive {
            "Connection: keep-alive\r\n".len()
        } else {
            "Connection: close\r\n".len()
        };
        n += 2 + self.body.len();
        n
    }
}

/// Standard reason phrases.
pub fn reason_for(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        301 => "Moved Permanently",
        302 => "Found",
        304 => "Not Modified",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Reads one full response (for test clients): returns (status, body).
pub fn read_response(r: &mut dyn Read) -> Result<(u16, Vec<u8>), ParseError> {
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) => return Err(ParseError::ConnectionClosed),
            Ok(_) => {
                head.push(byte[0]);
                if head.len() > MAX_HEAD_BYTES {
                    return Err(ParseError::TooLarge);
                }
                if head.ends_with(b"\r\n\r\n") {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ParseError::Io(e)),
        }
    }
    let head_str =
        std::str::from_utf8(&head).map_err(|_| ParseError::Malformed("non-utf8 head"))?;
    let status: u16 = head_str
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(ParseError::Malformed("no status"))?;
    let mut content_length = 0usize;
    for line in head_str.lines().skip(1) {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_length = v
                    .trim()
                    .parse()
                    .map_err(|_| ParseError::Malformed("bad content-length"))?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    let mut read = 0;
    while read < content_length {
        match r.read(&mut body[read..]) {
            Ok(0) => return Err(ParseError::Malformed("eof inside body")),
            Ok(n) => read += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ParseError::Io(e)),
        }
    }
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> Result<Request, ParseError> {
        let mut cursor = io::Cursor::new(raw.to_vec());
        read_request(&mut cursor)
    }

    #[test]
    fn parses_simple_get() {
        let req = parse(b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/index.html");
        assert!(req.http11);
        assert!(req.keep_alive());
        assert_eq!(req.headers["host"], "x");
    }

    #[test]
    fn parses_query_string() {
        let req = parse(b"GET /page.fxs?n=5&name=a+b%21 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/page.fxs");
        let params = req.query_params();
        assert_eq!(params[0], ("n".into(), "5".into()));
        assert_eq!(params[1], ("name".into(), "a b!".into()));
    }

    #[test]
    fn connection_close_overrides_11() {
        let req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive());
    }

    #[test]
    fn http10_defaults_to_close() {
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive());
        let req = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.keep_alive());
    }

    #[test]
    fn reads_post_body() {
        let req = parse(b"POST /submit HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn rejects_traversal() {
        assert!(matches!(
            parse(b"GET /../etc/passwd HTTP/1.1\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn sanitize_keeps_inner_dotdot_safe() {
        assert_eq!(sanitize_path("/a/b/../c"), Some("/a/c".into()));
        assert_eq!(sanitize_path("/a/./b"), Some("/a/b".into()));
        assert_eq!(sanitize_path("/.."), None);
    }

    #[test]
    fn closed_before_any_bytes() {
        assert!(matches!(parse(b""), Err(ParseError::ConnectionClosed)));
    }

    #[test]
    fn eof_mid_request() {
        assert!(matches!(parse(b"GET / HT"), Err(ParseError::Malformed(_))));
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::ok("text/plain", b"body!".to_vec()).header("X-Test", "1");
        let mut wire = Vec::new();
        resp.write_to(&mut wire, true).unwrap();
        assert_eq!(wire.len(), resp.wire_len(true));
        let mut cursor = io::Cursor::new(wire);
        let (status, body) = read_response(&mut cursor).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"body!");
    }

    #[test]
    fn error_pages_have_reason() {
        let resp = Response::not_found();
        assert_eq!(resp.status, 404);
        assert!(String::from_utf8_lossy(&resp.body).contains("404 Not Found"));
    }

    #[test]
    fn pipelined_requests_stay_in_the_carry() {
        let wire = b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyzGET /c HTTP/1.1\n\n";
        let mut r = SplitReader::new(wire.to_vec(), vec![usize::MAX], 0);
        let mut carry = Vec::new();
        let a = read_request_buffered(&mut r, &mut carry).unwrap();
        assert_eq!(
            (a.path.as_str(), r.reads),
            ("/a", 1),
            "one read for the whole stream"
        );
        let b = read_request_buffered(&mut r, &mut carry).unwrap();
        assert_eq!(
            (b.path.as_str(), b.body.as_slice()),
            ("/b", b"xyz".as_ref())
        );
        let c = read_request_buffered(&mut r, &mut carry).unwrap();
        assert_eq!(
            (c.path.as_str(), r.reads),
            ("/c", 1),
            "no read while the carry has a head"
        );
        assert!(carry.is_empty());
        assert!(matches!(
            read_request_buffered(&mut r, &mut carry),
            Err(ParseError::ConnectionClosed)
        ));
    }

    #[test]
    fn oversized_head_is_too_large() {
        let mut raw = b"GET / HTTP/1.1\r\nX: ".to_vec();
        raw.resize(MAX_HEAD_BYTES + 10, b'a');
        raw.extend_from_slice(b"\r\n\r\n");
        assert!(matches!(parse(&raw), Err(ParseError::TooLarge)));
    }

    /// A `Write` that counts calls and takes at most `cap` bytes each.
    struct CountingWriter {
        out: Vec<u8>,
        calls: usize,
        cap: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let before = self.out.len();
            for b in bufs {
                let room = self.cap - (self.out.len() - before);
                self.out.extend_from_slice(&b[..b.len().min(room)]);
            }
            Ok(self.out.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_to_is_one_vectored_write() {
        let resp = Response::ok("text/plain", b"a body of some length".to_vec());
        let mut expected = Vec::new();
        resp.write_head(&mut expected, resp.body.len(), true);
        expected.extend_from_slice(&resp.body);
        assert_eq!(expected.len(), resp.wire_len(true));

        let mut w = CountingWriter {
            out: Vec::new(),
            calls: 0,
            cap: usize::MAX,
        };
        resp.write_to(&mut w, true).unwrap();
        assert_eq!((w.calls, &w.out), (1, &expected));

        for cap in [1, 7, expected.len() - resp.body.len(), expected.len() - 1] {
            let mut w = CountingWriter {
                out: Vec::new(),
                calls: 0,
                cap,
            };
            resp.write_to(&mut w, true).unwrap();
            assert_eq!(w.out, expected, "short writes of {cap} bytes");
            assert_eq!(w.calls, expected.len().div_ceil(cap));
        }
    }

    /// A reader that hands out `data` in reads of the given sizes
    /// (cycled), failing every `interrupt_every`-th call with
    /// `Interrupted` (0: never).
    struct SplitReader {
        data: Vec<u8>,
        pos: usize,
        sizes: Vec<usize>,
        interrupt_every: usize,
        reads: usize,
    }

    impl SplitReader {
        fn new(data: Vec<u8>, sizes: Vec<usize>, interrupt_every: usize) -> Self {
            SplitReader {
                data,
                pos: 0,
                sizes,
                interrupt_every,
                reads: 0,
            }
        }
    }

    impl Read for SplitReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            if self.interrupt_every > 0 && self.reads.is_multiple_of(self.interrupt_every) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let size = self.sizes[self.reads % self.sizes.len()];
            let n = size.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// The byte-at-a-time framing the chunked reader replaced: one
    /// `read` per head byte, then the body straight from `r`. Kept as
    /// the oracle for the carry contract.
    fn read_request_bytewise(r: &mut dyn Read) -> Result<Request, ParseError> {
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            match r.read(&mut byte) {
                Ok(0) => {
                    return Err(if head.is_empty() {
                        ParseError::ConnectionClosed
                    } else {
                        ParseError::Malformed("eof inside request head")
                    });
                }
                Ok(_) => {
                    head.push(byte[0]);
                    if head.len() > MAX_HEAD_BYTES {
                        return Err(ParseError::TooLarge);
                    }
                    if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ParseError::Io(e)),
            }
        }
        let (mut req, len) = parse_head(&head)?;
        req.body.resize(len, 0);
        let mut read = 0;
        while read < len {
            match r.read(&mut req.body[read..]) {
                Ok(0) => return Err(ParseError::Malformed("eof inside body")),
                Ok(n) => read += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ParseError::Io(e)),
            }
        }
        Ok(req)
    }

    /// Every field of a request, comparable; errors by their message.
    type Outcome = Result<(Method, String, String, bool, Vec<(String, String)>, Vec<u8>), String>;

    fn outcome(r: Result<Request, ParseError>) -> Outcome {
        r.map(|req| {
            let mut headers: Vec<_> = req.headers.into_iter().collect();
            headers.sort();
            (
                req.method, req.path, req.query, req.http11, headers, req.body,
            )
        })
        .map_err(|e| e.to_string())
    }

    /// Requests read from `r` up to and including the first error.
    fn drain(mut next: impl FnMut() -> Result<Request, ParseError>) -> Vec<Outcome> {
        let mut seen = Vec::new();
        loop {
            let o = outcome(next());
            let done = o.is_err();
            seen.push(o);
            if done {
                return seen;
            }
        }
    }

    /// (method, path+query, HTTP/1.1?, headers, LF-only line ends?, body)
    type Spec = (usize, String, bool, Vec<(String, String)>, bool, String);

    fn encode(spec: &Spec) -> Vec<u8> {
        let (method, target, http11, headers, lf_only, body) = spec;
        let eol = if *lf_only { "\n" } else { "\r\n" };
        if *method == 3 {
            return format!("BOGUS{eol}{eol}").into_bytes();
        }
        let name = ["GET", "HEAD", "POST"][*method];
        let minor = if *http11 { 1 } else { 0 };
        let mut s = format!("{name} /{target} HTTP/1.{minor}{eol}");
        for (k, v) in headers {
            s.push_str(&format!("{k}: {v}{eol}"));
        }
        if *method == 2 {
            s.push_str(&format!("Content-Length: {}{eol}{eol}{body}", body.len()));
        } else {
            s.push_str(eol);
        }
        s.into_bytes()
    }

    mod carry_properties {
        use super::*;
        use proptest::prelude::*;

        fn spec() -> BoxedStrategy<Spec> {
            (
                prop_oneof![
                    Just(0usize),
                    Just(1usize),
                    Just(2usize),
                    Just(2usize),
                    0usize..4
                ],
                "[a-z]{1,6}[?a-z0-9=&]{0,6}",
                any::<bool>(),
                proptest::collection::vec(("[A-Za-z]{1,6}", "[a-z0-9 ]{0,8}"), 0..3),
                any::<bool>(),
                "[a-z\r\n]{0,24}",
            )
                .boxed()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Any split of a request stream into reads yields exactly
            /// the requests and the error the byte-at-a-time reader
            /// yields.
            #[test]
            fn chunked_reads_match_bytewise_oracle(
                specs in proptest::collection::vec(spec(), 1..6),
                cut in any::<usize>(),
                truncate in any::<bool>(),
                sizes in proptest::collection::vec(1usize..48, 1..6),
                interrupt_every in prop_oneof![Just(0usize), 2usize..5],
            ) {
                let mut wire: Vec<u8> = specs.iter().flat_map(encode).collect();
                if truncate {
                    wire.truncate(cut % wire.len());
                }
                let mut oracle_reader = io::Cursor::new(wire.clone());
                let want = drain(|| read_request_bytewise(&mut oracle_reader));
                let mut r = SplitReader::new(wire, sizes, interrupt_every);
                let mut carry = Vec::new();
                let got = drain(|| read_request_buffered(&mut r, &mut carry));
                prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn percent_decode_edge_cases() {
        assert_eq!(percent_decode("a%20b"), "a b");
        assert_eq!(percent_decode("a%2"), "a%2");
        assert_eq!(percent_decode("a%zzb"), "a%zzb");
        assert_eq!(percent_decode("100%"), "100%");
    }
}
