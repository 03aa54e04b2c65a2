//! Shutdown regression: `ConnDriver::stop` must not leak connection
//! state: a `remove_when_flushed` still in flight when the reactor
//! stops can never complete its drain, so `stop` removes the
//! connection (dropping its buffered output) itself. Every scenario
//! runs once per `Poller` backend.
//!
//! The thread-join check lives in `shutdown_threads.rs`, a binary with
//! a single test, because it scans the whole process.

#![cfg(unix)]

mod util;

use flux_net::{DriverEvent, TcpAcceptor, TcpConn};
use std::time::Duration;
use util::{backends, driver_on};

/// `stop` during an in-flight `remove_when_flushed`: the reactor is
/// gone, so the deferred close can never drain — the connection (and
/// its still-buffered multi-megabyte response) must not stay registered
/// in the driver, and the doomed submission must still get its
/// completion event.
#[test]
fn stop_does_not_leak_pending_flush() {
    use flux_net::Listener as _;

    for backend in backends() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        let driver = driver_on(backend);
        driver.spawn_acceptor(Box::new(acceptor));
        let _client = TcpConn::connect(&addr).unwrap();
        let DriverEvent::Incoming(token) = driver.next_event(Duration::from_secs(2)).unwrap()
        else {
            panic!()
        };
        // A write far past the socket buffers stays partially buffered
        // (the client never reads), so the close is deferred...
        assert!(driver.submit_write(token, &vec![7u8; 8 * 1024 * 1024]));
        assert!(driver.pending_out(token) > 0, "{backend:?}");
        driver.remove_when_flushed(token);
        assert!(
            driver.get(token).is_some(),
            "close deferred while draining ({backend:?})"
        );
        // ...and stop() arrives before the drain completes.
        driver.stop();
        assert!(
            driver.get(token).is_none(),
            "stop must remove a conn whose deferred close was pending ({backend:?})"
        );
        assert!(
            driver.is_empty(),
            "no token may stay registered after stop ({backend:?})"
        );
        assert_eq!(driver.pending_out(token), 0, "{backend:?}");
        // The submission's completion contract survives shutdown: the
        // removal fails the pending write.
        let ev = driver.next_event(Duration::from_millis(100));
        assert_eq!(
            ev,
            Some(DriverEvent::WriteFailed(token)),
            "pending submission failed, not stranded ({backend:?})"
        );
    }
}
