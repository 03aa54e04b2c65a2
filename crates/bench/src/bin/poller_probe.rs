//! Prints the readiness backend that `NetConfig::default().backend`
//! (the platform default, or the `FLUX_POLLER` env var when set)
//! resolves to on this host after the fallback chain — one word on
//! stdout: `poll`, `epoll`, `uring`, or `none` (non-unix). An
//! unrecognised `FLUX_POLLER` value panics instead.
//!
//! CI's poller-backend matrix runs this as a setup step so a leg can
//! *assert* the backend it is about to measure: a runner whose kernel
//! or seccomp profile refuses io_uring skips the uring leg with a
//! notice instead of silently re-testing epoll under a uring label.

fn main() {
    #[cfg(unix)]
    {
        let backend = flux_net::create_poller(flux_net::NetConfig::default().backend);
        println!("{}", backend.name());
    }
    #[cfg(not(unix))]
    println!("none");
}
