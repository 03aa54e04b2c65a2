//! Bounded soak for the adaptive shard controller: park/wake churn
//! under TCP connection churn, with hard invariants.
//!
//! The CI `adaptive-soak` job runs this in release for ~30 s
//! (`FLUX_SOAK_SECS` caps the run, the same bounded-run idea as
//! `FLUX_BENCH_QUICK`). The controller is tuned to thrash — 500 µs
//! ticks, parks after 2 idle ticks, wakes at depth 1 — and the load
//! alternates short idle gaps (every one long enough to park) with
//! bursts of fresh TCP connections (every one a wake + accept + slab
//! insert + reactor register/deregister cycle). Any lost event, wrong
//! response, stranded queue or unbalanced park/wake book fails the
//! process with a non-zero exit, so controller races fail CI fast
//! instead of shipping.
//!
//! ```sh
//! FLUX_SOAK_SECS=30 cargo run --release -p flux-bench --bin adaptive_soak
//! ```

use flux_bench::env_or;
use flux_net::{Listener as _, TcpAcceptor, TcpConn};
use flux_runtime::{AdaptiveConfig, AdaptivePolicy, OverloadPolicy, RuntimeKind};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 4;

fn main() {
    let secs: f64 = env_or("FLUX_SOAK_SECS", 30.0);
    let mut docroot = flux_http::DocRoot::new();
    docroot.insert("/soak.html", "adaptive soak page");
    docroot.insert("/echo.fxs", "<?fx echo \"n=\" . $n; ?>");
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind loopback");
    let addr = acceptor.local_addr();
    let server = flux_servers::ServerBuilder::new(flux_servers::web::WebSpec::new(
        Box::new(acceptor),
        docroot,
    ))
    .runtime(RuntimeKind::EventDriven {
        shards: SHARDS,
        io_workers: 4,
        adaptive: AdaptivePolicy::Adaptive(AdaptiveConfig {
            min_shards: 1,
            sample_every: Duration::from_micros(500),
            park_after: 2,
            park_below: 0,
            wake_depth: 1,
        }),
        overload: OverloadPolicy::Unbounded,
    })
    .spawn();

    let sent = Arc::new(AtomicU64::new(0));
    let ok = Arc::new(AtomicU64::new(0));
    let transient = Arc::new(AtomicU64::new(0));
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut cycles = 0u64;
    while Instant::now() < deadline {
        // Burst: 8 client threads, each churning fresh connections
        // (connect → one request → close), so every cycle exercises
        // accept, slab insert, reactor register/deregister and the
        // wake path at once.
        let mut joins = Vec::new();
        for t in 0..8u64 {
            let sent = sent.clone();
            let ok = ok.clone();
            let transient = transient.clone();
            let addr = addr.clone();
            joins.push(std::thread::spawn(move || {
                for i in 0..5u64 {
                    let Ok(mut conn) = TcpConn::connect(&addr) else {
                        // A transient connect failure under deliberate
                        // churn is not a lost response — count it
                        // separately; the final check bounds the rate,
                        // so a server that stops accepting still fails.
                        sent.fetch_add(1, Ordering::SeqCst);
                        transient.fetch_add(1, Ordering::SeqCst);
                        return;
                    };
                    let dynamic = (t + i).is_multiple_of(2);
                    let path = if dynamic {
                        format!("/echo.fxs?n={i}")
                    } else {
                        "/soak.html".to_string()
                    };
                    sent.fetch_add(1, Ordering::SeqCst);
                    if write!(
                        conn,
                        "GET {path} HTTP/1.1\r\nHost: soak\r\nConnection: close\r\n\r\n"
                    )
                    .is_err()
                    {
                        transient.fetch_add(1, Ordering::SeqCst);
                        continue;
                    }
                    let Ok((status, body)) = flux_http::read_response(&mut conn) else {
                        transient.fetch_add(1, Ordering::SeqCst);
                        continue;
                    };
                    let text = String::from_utf8_lossy(&body);
                    assert_eq!(status, 200, "{path} -> {status}: {text}");
                    if dynamic {
                        assert_eq!(text, format!("n={i}"), "{path} body corrupted");
                    } else {
                        assert_eq!(text, "adaptive soak page", "{path} body corrupted");
                    }
                    ok.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }
        for j in joins {
            j.join().expect("soak client panicked");
        }
        // Idle gap: long enough (≥ 2 controller ticks + margin) that
        // the controller parks, so the next burst exercises the wake
        // handshake again. Vary the gap so parks land at different
        // points of the connection-churn cycle.
        std::thread::sleep(Duration::from_millis(5 + (cycles % 8) * 10));
        cycles += 1;
    }

    // Stop first: joining the runtime (controller included) makes the
    // park/wake books a consistent snapshot instead of racing a live
    // controller tick between the two counter loads.
    let flux_srv = server.handle.server().clone();
    let requests = server.ctx.requests.load(Ordering::SeqCst);
    flux_servers::web::stop(server);
    let stats = &flux_srv.stats;
    let ast = &stats.adaptive;
    let parks = ast.parks.load(Ordering::SeqCst);
    let wakes = ast.wakes.load(Ordering::SeqCst);
    let active = ast.active_shards.load(Ordering::SeqCst);
    let sent = sent.load(Ordering::SeqCst);
    let ok = ok.load(Ordering::SeqCst);
    let transient = transient.load(Ordering::SeqCst);
    println!(
        "soak: {cycles} cycles, {sent} requests ({ok} ok, {transient} transient), {}",
        ast.describe()
    );

    // Hard invariants — any failure is a controller race escaping.
    // Every request is accounted for as either a verified-correct
    // response or a counted transient socket-level failure, and
    // transients must stay rare (< 1%): a runtime that drops or
    // corrupts events panics in the client threads above, a server
    // that stops accepting blows the rate bound.
    assert!(
        sent > 0 && ok + transient == sent,
        "lost responses: {ok}+{transient}/{sent}"
    );
    assert!(
        transient * 100 <= sent,
        "transient failure rate over 1%: {transient}/{sent}"
    );
    assert!(
        parks > 0 && wakes > 0,
        "controller never churned (parks {parks}, wakes {wakes}) — tuning broken"
    );
    // wakes <= parks always (a shard must park before it can wake), so
    // this order cannot underflow even under overflow checks.
    assert_eq!(
        SHARDS as u64 + wakes - parks,
        active,
        "park/wake books don't balance"
    );
    let shard_stats = stats.shard_stats().expect("sharded runtime ran");
    assert!(
        requests >= ok,
        "server counted {requests} < {ok} client oks"
    );
    println!("soak passed: {parks} parks / {wakes} wakes over {cycles} cycles");
    // Post-stop: nothing stranded on any shard queue, parked or not.
    for (i, st) in shard_stats.iter().enumerate() {
        assert_eq!(
            st.depth.load(Ordering::SeqCst),
            0,
            "shard {i} ended with queued events"
        );
    }
}
