//! Real TCP/UDP transports over `std::net`. The examples, the
//! interoperability tests and the repository benchmark (`perfbench`,
//! over loopback) run the servers on them; unit tests and the ablation
//! harness mostly use the in-memory transport.

use crate::pool::{OutBuf, SharedPayload};
use crate::traits::{Conn, Datagram, Listener, WriteProgress};
use parking_lot::Mutex;
use std::io;
use std::net::{TcpListener, TcpStream, UdpSocket};
use std::time::{Duration, Instant};

/// A TCP connection implementing [`Conn`].
///
/// Besides the plain blocking [`io::Write`] path, the connection keeps a
/// per-handle output buffer behind [`Conn::enqueue_write`]: writes that
/// would block are buffered and drained with non-blocking partial
/// writes, so the reactor can finish them on `POLLOUT` without ever
/// parking a thread in `send(2)`. The buffer is a segment queue
/// ([`OutBuf`]): plain writes copy their unwritten tail, shared fan-out
/// payloads ([`Conn::enqueue_write_shared`]) buffer a refcounted
/// reference instead of a per-subscriber copy.
pub struct TcpConn {
    stream: TcpStream,
    peer: String,
    /// Output segment queue for reactor-drained writes.
    out: OutBuf,
}

impl TcpConn {
    pub fn new(stream: TcpStream) -> Self {
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".into());
        TcpConn {
            stream,
            peer,
            out: OutBuf::new(),
        }
    }

    /// Connects to `addr` (e.g. `127.0.0.1:8080`).
    pub fn connect(addr: &str) -> io::Result<Self> {
        Ok(TcpConn::new(TcpStream::connect(addr)?))
    }

    /// Non-blocking drain of the output buffer.
    fn drain_nonblocking(&mut self) -> io::Result<WriteProgress> {
        while let Some(front) = self.out.front() {
            let n = nb_write(&self.stream, front)?;
            let partial = n < front.len();
            self.out.advance(n);
            if partial {
                return Ok(WriteProgress::Pending);
            }
        }
        Ok(WriteProgress::Complete)
    }
}

/// Writes as much of `buf` as the socket accepts without blocking,
/// returning the number of bytes taken. One `send(2)` with
/// `MSG_DONTWAIT` per call: the socket's file mode is never touched, so
/// a blocking read on a `try_clone`d handle (which shares the open file
/// description) never sees a non-blocking socket. A short send means
/// the socket buffer is full, so it returns without a second try.
#[cfg(unix)]
fn nb_write(stream: &TcpStream, buf: &[u8]) -> io::Result<usize> {
    use crate::poller::sys;
    use std::os::fd::AsRawFd;
    loop {
        let flags = sys::MSG_DONTWAIT | sys::MSG_NOSIGNAL;
        // SAFETY: `buf` is a live slice of `buf.len()` readable bytes and
        // the fd is owned by `stream`, which outlives the call.
        let n = unsafe { sys::send(stream.as_raw_fd(), buf.as_ptr().cast(), buf.len(), flags) };
        if n >= 0 {
            return match n as usize {
                0 if !buf.is_empty() => Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "socket accepted zero bytes",
                )),
                n => Ok(n),
            };
        }
        let e = io::Error::last_os_error();
        match e.kind() {
            io::ErrorKind::WouldBlock => return Ok(0),
            io::ErrorKind::Interrupted => continue,
            _ => return Err(e),
        }
    }
}

/// Without `MSG_DONTWAIT` the write blocks (the trait's portable
/// fallback; only Unix hosts run the reactor that relies on `Pending`).
#[cfg(not(unix))]
fn nb_write(stream: &TcpStream, buf: &[u8]) -> io::Result<usize> {
    use std::io::Write as _;
    (&mut &*stream).write_all(buf)?;
    Ok(buf.len())
}

impl io::Read for TcpConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.read(buf)
    }
}

impl io::Write for TcpConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.write(buf)
    }

    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        self.stream.write_vectored(bufs)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

impl Conn for TcpConn {
    fn peer_addr(&self) -> String {
        self.peer.clone()
    }

    fn set_read_timeout(&mut self, d: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(d)
    }

    fn wait_readable(&self, timeout: Option<Duration>) -> io::Result<bool> {
        // `peek` blocks until at least one byte is available or the peer
        // closes (returns 0); the read timeout bounds the wait. The
        // caller-configured timeout is restored afterwards so the wait
        // does not clobber subsequent reads.
        let previous = self.stream.read_timeout()?;
        self.stream.set_read_timeout(timeout)?;
        let mut byte = [0u8; 1];
        let result = match self.stream.peek(&mut byte) {
            Ok(_) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(false),
            Err(e) if e.kind() == io::ErrorKind::TimedOut => Ok(false),
            Err(e) => Err(e),
        };
        self.stream.set_read_timeout(previous)?;
        result
    }

    #[cfg(unix)]
    fn raw_fd(&self) -> Option<std::os::fd::RawFd> {
        use std::os::fd::AsRawFd;
        Some(self.stream.as_raw_fd())
    }

    fn enqueue_write(&mut self, bytes: &[u8]) -> io::Result<WriteProgress> {
        if self.out.is_empty() {
            // Fast path: nothing buffered, write straight from the
            // caller's slice and keep only the unwritten tail.
            let n = nb_write(&self.stream, bytes)?;
            if n >= bytes.len() {
                return Ok(WriteProgress::Complete);
            }
            self.out.push_owned(bytes, n);
            return Ok(WriteProgress::Pending);
        }
        self.out.push_owned(bytes, 0);
        self.drain_nonblocking()
    }

    fn enqueue_write_shared(&mut self, payload: &SharedPayload) -> io::Result<WriteProgress> {
        if self.out.is_empty() {
            let n = nb_write(&self.stream, payload)?;
            if n >= payload.len() {
                return Ok(WriteProgress::Complete);
            }
            self.out.push_shared(payload, n);
            return Ok(WriteProgress::Pending);
        }
        self.out.push_shared(payload, 0);
        self.drain_nonblocking()
    }

    fn pending_out(&self) -> usize {
        self.out.len()
    }

    fn drain_out(&mut self) -> io::Result<WriteProgress> {
        self.drain_nonblocking()
    }

    fn try_clone(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(TcpConn::new(self.stream.try_clone()?)))
    }

    fn shutdown_write(&mut self) -> io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Write)
    }
}

/// A TCP listener implementing [`Listener`]. The listening socket is
/// non-blocking; `accept` waits for it in `poll(2)`, so a connection is
/// taken the moment it arrives and an accept timeout costs one syscall.
pub struct TcpAcceptor {
    listener: TcpListener,
    timeout: Mutex<Option<Duration>>,
}

impl TcpAcceptor {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    pub fn bind(addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        #[cfg(unix)]
        listener.set_nonblocking(true)?;
        Ok(TcpAcceptor {
            listener,
            timeout: Mutex::new(None),
        })
    }

    /// Raises the kernel listen backlog above the std default (128).
    ///
    /// Under overload, clients whose connections were shed reconnect in
    /// bursts; on a saturated host the acceptor thread drains the
    /// backlog in scheduling slices, and a 128-deep queue overflows
    /// between slices — dropped SYNs then stall each client in a
    /// full retransmission timeout. A deeper backlog absorbs the burst
    /// so reconnects fail fast (governor) or get served, never hang.
    /// On Linux, `listen(2)` on an already-listening socket just
    /// updates the backlog.
    #[cfg(unix)]
    pub fn set_backlog(&self, backlog: u32) -> io::Result<()> {
        use std::os::fd::AsRawFd;
        extern "C" {
            fn listen(sockfd: std::ffi::c_int, backlog: std::ffi::c_int) -> std::ffi::c_int;
        }
        let rc = unsafe {
            listen(
                self.listener.as_raw_fd(),
                backlog.min(i32::MAX as u32) as std::ffi::c_int,
            )
        };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// Waits up to `timeout` (`None`: forever) for the listener to become
    /// readable. `Ok(false)` on timeout or on a signal (the caller
    /// re-checks its deadline).
    #[cfg(unix)]
    fn wait_acceptable(&self, timeout: Option<Duration>) -> io::Result<bool> {
        use crate::poller::sys;
        use std::os::fd::AsRawFd;
        let ms = timeout.map_or(-1, |d| {
            d.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32
        });
        let mut pfd = sys::pollfd {
            fd: self.listener.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        };
        // SAFETY: `pfd` is one valid, exclusively borrowed `pollfd`
        // (nfds = 1) naming the listener's fd, which `self` keeps open.
        match unsafe { sys::poll(&mut pfd, 1, ms) } {
            rc if rc > 0 => Ok(true),
            0 => Ok(false),
            _ => {
                let e = io::Error::last_os_error();
                match e.kind() {
                    io::ErrorKind::Interrupted => Ok(false),
                    _ => Err(e),
                }
            }
        }
    }
}

impl Listener for TcpAcceptor {
    /// With a timeout set, waits in `poll(2)` for the remaining time and
    /// fails with `TimedOut` once it has passed. Off Unix the listener
    /// stays blocking and the timeout is not honoured.
    fn accept(&self) -> io::Result<Box<dyn Conn>> {
        #[cfg(unix)]
        {
            let deadline = self.timeout.lock().map(|d| Instant::now() + d);
            loop {
                let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
                if left == Some(Duration::ZERO) {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "accept timed out"));
                }
                if !self.wait_acceptable(left)? {
                    continue;
                }
                match self.listener.accept() {
                    Ok((s, _)) => {
                        // Linux sockets never inherit the listener's
                        // O_NONBLOCK; other Unixes do.
                        #[cfg(not(target_os = "linux"))]
                        s.set_nonblocking(false)?;
                        return Ok(Box::new(TcpConn::new(s)));
                    }
                    // Readable, but another accept (or a reset) took it.
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => return Err(e),
                }
            }
        }
        #[cfg(not(unix))]
        {
            let (s, _) = self.listener.accept()?;
            Ok(Box::new(TcpConn::new(s)))
        }
    }

    fn set_accept_timeout(&self, d: Option<Duration>) {
        *self.timeout.lock() = d;
    }

    fn local_addr(&self) -> String {
        self.listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".into())
    }
}

/// A UDP socket implementing [`Datagram`].
pub struct UdpDatagram {
    socket: UdpSocket,
}

impl UdpDatagram {
    pub fn bind(addr: &str) -> io::Result<Self> {
        Ok(UdpDatagram {
            socket: UdpSocket::bind(addr)?,
        })
    }
}

impl Datagram for UdpDatagram {
    fn send_to(&self, buf: &[u8], addr: &str) -> io::Result<usize> {
        self.socket.send_to(buf, addr)
    }

    fn recv_from(
        &self,
        buf: &mut [u8],
        timeout: Option<Duration>,
    ) -> io::Result<Option<(usize, String)>> {
        self.socket.set_read_timeout(timeout)?;
        match self.socket.recv_from(buf) {
            Ok((n, from)) => Ok(Some((n, from.to_string()))),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    fn local_addr(&self) -> String {
        self.socket
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::thread;

    #[test]
    fn tcp_round_trip() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        let t = thread::spawn(move || {
            let mut c = TcpConn::connect(&addr).unwrap();
            c.write_all(b"ping").unwrap();
            let mut buf = [0u8; 4];
            c.read_exact(&mut buf).unwrap();
            buf
        });
        let mut server = acceptor.accept().unwrap();
        let mut buf = [0u8; 4];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        server.write_all(b"pong").unwrap();
        assert_eq!(&t.join().unwrap(), b"pong");
    }

    #[test]
    fn tcp_accept_timeout() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        acceptor.set_accept_timeout(Some(Duration::from_millis(30)));
        let err = acceptor.accept().err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn tcp_wait_readable() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        let t = thread::spawn(move || {
            let mut c = TcpConn::connect(&addr).unwrap();
            thread::sleep(Duration::from_millis(30));
            c.write_all(b"!").unwrap();
            thread::sleep(Duration::from_millis(50));
        });
        let server = acceptor.accept().unwrap();
        assert!(!server
            .wait_readable(Some(Duration::from_millis(5)))
            .unwrap());
        assert!(server.wait_readable(Some(Duration::from_secs(2))).unwrap());
        t.join().unwrap();
    }

    #[test]
    fn udp_round_trip() {
        let a = UdpDatagram::bind("127.0.0.1:0").unwrap();
        let b = UdpDatagram::bind("127.0.0.1:0").unwrap();
        a.send_to(b"tick", &b.local_addr()).unwrap();
        let mut buf = [0u8; 16];
        let (n, from) = b
            .recv_from(&mut buf, Some(Duration::from_secs(1)))
            .unwrap()
            .unwrap();
        assert_eq!(&buf[..n], b"tick");
        assert_eq!(from, a.local_addr());
    }

    #[test]
    fn udp_timeout_returns_none() {
        let a = UdpDatagram::bind("127.0.0.1:0").unwrap();
        let mut buf = [0u8; 4];
        assert!(a
            .recv_from(&mut buf, Some(Duration::from_millis(20)))
            .unwrap()
            .is_none());
    }
}
