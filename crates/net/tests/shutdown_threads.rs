//! Shutdown regression: `ConnDriver::stop` must join every driver
//! thread (acceptor, reactor, fallback watches) so none can outlive the
//! server and fire into a dropped channel.
//!
//! This is its own integration-test binary with exactly one test. The
//! check scans `/proc/self/task` across the whole process, so any other
//! test running in parallel in the same binary would show its own
//! `flux-net-*` threads. Keep this file to a single test.

#![cfg(target_os = "linux")]

mod util;

use flux_net::{DriverEvent, TcpAcceptor, TcpConn};
use std::io::Write as _;
use std::time::Duration;
use util::{backends, driver_on};

/// Names of live `flux-net-*` threads (Linux; comm is truncated to 15
/// chars by the kernel).
fn net_threads() -> Vec<String> {
    let mut names = Vec::new();
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for t in tasks.flatten() {
            if let Ok(comm) = std::fs::read_to_string(t.path().join("comm")) {
                if comm.trim_end().starts_with("flux-net") {
                    names.push(comm.trim_end().to_string());
                }
            }
        }
    }
    names
}

#[test]
fn stop_joins_all_driver_threads() {
    use flux_net::Listener as _;

    for backend in backends() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        let driver = driver_on(backend);
        driver.spawn_acceptor(Box::new(acceptor));
        let mut client = TcpConn::connect(&addr).unwrap();
        let DriverEvent::Incoming(token) = driver.next_event(Duration::from_secs(2)).unwrap()
        else {
            panic!()
        };
        driver.arm(token); // reactor thread spins up
        client.write_all(b"x").unwrap();
        assert_eq!(
            driver.next_event(Duration::from_secs(2)),
            Some(DriverEvent::Readable(token))
        );
        assert!(
            !net_threads().is_empty(),
            "driver threads exist while running ({backend:?})"
        );
        driver.stop();
        assert_eq!(
            net_threads(),
            Vec::<String>::new(),
            "stop() must join acceptor, reactor and watch threads ({backend:?})"
        );
    }
}
