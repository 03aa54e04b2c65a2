//! Integration tests for the sharded event-driven runtime: session
//! affinity, work stealing, per-shard stats, adaptive shard
//! parking/waking, and clean shutdown with non-empty shard queues.

use flux_runtime::{
    shard_index, start, AdaptiveConfig, AdaptivePolicy, FluxServer, NodeOutcome, NodeRegistry,
    OverloadPolicy, RuntimeKind, SourceOutcome,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SESSION_SRC: &str = "
    Gen () => (int sid);
    Work (int sid) => (int sid);
    Out (int sid) => ();
    Flow = Work -> Out;
    source Gen => Flow;
    atomic Work: {state(session)};
";

/// Builds a server producing `total` flows whose session ids cycle
/// through `sessions`.
fn session_server(total: u64, sessions: Arc<Vec<u64>>) -> Arc<FluxServer<u64>> {
    let program = flux_core::compile(SESSION_SRC).unwrap();
    let produced = AtomicU64::new(0);
    let mut reg: NodeRegistry<u64> = NodeRegistry::new();
    let s2 = sessions.clone();
    reg.source("Gen", move || {
        let i = produced.fetch_add(1, Ordering::SeqCst);
        if i >= total {
            SourceOutcome::Shutdown
        } else {
            SourceOutcome::New(s2[(i % s2.len() as u64) as usize])
        }
    });
    reg.session("Gen", |sid: &u64| *sid);
    reg.node("Work", |_| NodeOutcome::Ok);
    reg.node("Out", |_| NodeOutcome::Ok);
    Arc::new(FluxServer::new(program, reg).unwrap())
}

/// Session ids that all hash to shard 0 under `shards` shards.
fn sessions_on_shard_zero(shards: usize, count: usize) -> Vec<u64> {
    (0u64..)
        .filter(|&k| shard_index(k, shards) == 0)
        .take(count)
        .collect()
}

#[test]
fn routing_hash_is_deterministic_and_spreads() {
    for shards in [1usize, 2, 4, 8] {
        let mut hits = vec![0u64; shards];
        for key in 0..4096u64 {
            let a = shard_index(key, shards);
            assert_eq!(a, shard_index(key, shards), "deterministic");
            assert!(a < shards);
            hits[a] += 1;
        }
        // No shard is starved or dominant (within 2x of uniform).
        let uniform = 4096 / shards as u64;
        for (s, &h) in hits.iter().enumerate() {
            assert!(
                h > uniform / 2 && h < uniform * 2,
                "shard {s}/{shards} got {h} of 4096"
            );
        }
    }
}

/// Same-session cursors are always submitted to their home shard: when
/// every session hashes to shard 0, no other shard ever receives an
/// affine (session-carrying) submission — events reach other cores only
/// by stealing.
#[test]
fn same_session_cursors_land_on_home_shard() {
    const SHARDS: usize = 4;
    let sessions = Arc::new(sessions_on_shard_zero(SHARDS, 3));
    let server = session_server(600, sessions);
    let handle = start(server.clone(), RuntimeKind::event_driven_sharded(SHARDS, 1));
    handle.join();
    assert_eq!(server.stats.finished(), 600);
    let stats = server.stats.shard_stats().expect("sharded runtime ran");
    assert_eq!(stats.len(), SHARDS);
    assert!(
        stats[0].affine.load(Ordering::Relaxed) >= 600,
        "all session submissions routed to home shard 0"
    );
    for (i, st) in stats.iter().enumerate().skip(1) {
        assert_eq!(
            st.affine.load(Ordering::Relaxed),
            0,
            "shard {i} must receive no affine submissions"
        );
    }
}

/// When one shard is saturated (every session homes there), the other
/// shards steal and the backlog still completes.
#[test]
fn work_stealing_makes_progress_from_saturated_shard() {
    const SHARDS: usize = 4;
    let sessions = Arc::new(sessions_on_shard_zero(SHARDS, 8));
    let program = flux_core::compile(
        "
        Gen () => (int sid);
        Spin (int sid) => ();
        Flow = Spin;
        source Gen => Flow;
        ",
    )
    .unwrap();
    let total = 400u64;
    let produced = AtomicU64::new(0);
    let mut reg: NodeRegistry<u64> = NodeRegistry::new();
    let s2 = sessions.clone();
    reg.source("Gen", move || {
        let i = produced.fetch_add(1, Ordering::SeqCst);
        if i >= total {
            SourceOutcome::Shutdown
        } else {
            SourceOutcome::New(s2[(i % s2.len() as u64) as usize])
        }
    });
    reg.session("Gen", |sid: &u64| *sid);
    reg.node("Spin", |_| {
        let t0 = std::time::Instant::now();
        while t0.elapsed() < Duration::from_micros(200) {
            std::hint::spin_loop();
        }
        NodeOutcome::Ok
    });
    let server = Arc::new(FluxServer::new(program, reg).unwrap());
    let handle = start(server.clone(), RuntimeKind::event_driven_sharded(SHARDS, 1));
    handle.join();
    assert_eq!(server.stats.finished(), total);
    assert!(
        server.stats.total_steals() > 0,
        "idle shards must steal from the saturated one"
    );
}

/// Steal batching: a thief takes half the victim's queue per steal, so
/// under a saturated home shard the bulk-transfer counter moves and
/// every event still completes exactly once.
#[test]
fn steals_take_half_the_victims_queue() {
    const SHARDS: usize = 4;
    let sessions = Arc::new(sessions_on_shard_zero(SHARDS, 8));
    let program = flux_core::compile(
        "
        Gen () => (int sid);
        Spin (int sid) => ();
        Flow = Spin;
        source Gen => Flow;
        ",
    )
    .unwrap();
    // A burst far larger than the per-steal unit: with every session
    // homed on shard 0, thieves must move work in bulk to drain it.
    let total = 2_000u64;
    let produced = AtomicU64::new(0);
    let mut reg: NodeRegistry<u64> = NodeRegistry::new();
    let s2 = sessions.clone();
    reg.source("Gen", move || {
        let i = produced.fetch_add(1, Ordering::SeqCst);
        if i >= total {
            SourceOutcome::Shutdown
        } else {
            SourceOutcome::New(s2[(i % s2.len() as u64) as usize])
        }
    });
    reg.session("Gen", |sid: &u64| *sid);
    reg.node("Spin", |_| {
        let t0 = std::time::Instant::now();
        while t0.elapsed() < Duration::from_micros(100) {
            std::hint::spin_loop();
        }
        NodeOutcome::Ok
    });
    let server = Arc::new(FluxServer::new(program, reg).unwrap());
    let handle = start(server.clone(), RuntimeKind::event_driven_sharded(SHARDS, 1));
    handle.join();
    assert_eq!(server.stats.finished(), total, "no event lost or doubled");
    let stats = server.stats.shard_stats().unwrap();
    let steals: u64 = stats.iter().map(|s| s.stolen.load(Ordering::Relaxed)).sum();
    let batched: u64 = stats
        .iter()
        .map(|s| s.stolen_batch.load(Ordering::Relaxed))
        .sum();
    assert!(steals > 0, "thieves must steal from the saturated shard");
    assert!(
        batched > 0,
        "with a deep victim queue, steals must bulk-transfer extra events \
         (steals {steals}, batched {batched})"
    );
    // Conservation: everything dequeued somewhere, queues empty.
    for (i, st) in stats.iter().enumerate() {
        assert_eq!(st.depth.load(Ordering::Relaxed), 0, "shard {i} drained");
    }
}

/// Batch delivery ordering: a source that hands over bursts via
/// `SourceOutcome::Batch` keeps exact FIFO execution order on a single
/// shard — a burst is appended intact under one queue lock, and
/// cross-batch order follows submission order.
#[test]
fn batched_submission_preserves_fifo_on_single_shard() {
    let program = flux_core::compile(
        "
        Gen () => (int v);
        Work (int v) => ();
        Flow = Work;
        source Gen => Flow;
        ",
    )
    .unwrap();
    let total = 600u64;
    let produced = AtomicU64::new(0);
    let mut reg: NodeRegistry<u64> = NodeRegistry::new();
    reg.source("Gen", move || {
        let start = produced.load(Ordering::SeqCst);
        if start >= total {
            return SourceOutcome::Shutdown;
        }
        // Varying batch sizes 1..=7, covering the New/Batch boundary.
        let k = (start % 7 + 1).min(total - start);
        produced.fetch_add(k, Ordering::SeqCst);
        if k == 1 {
            SourceOutcome::New(start)
        } else {
            SourceOutcome::Batch((start..start + k).collect())
        }
    });
    let order: Arc<parking_lot::Mutex<Vec<u64>>> = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let o2 = order.clone();
    reg.node("Work", move |v: &mut u64| {
        o2.lock().push(*v);
        NodeOutcome::Ok
    });
    let server = Arc::new(FluxServer::new(program, reg).unwrap());
    let handle = start(server.clone(), RuntimeKind::event_driven_sharded(1, 1));
    handle.join();
    assert_eq!(server.stats.finished(), total);
    let order = order.lock();
    let expect: Vec<u64> = (0..total).collect();
    assert_eq!(*order, expect, "single-shard execution is exact FIFO");
    let stats = server.stats.shard_stats().unwrap();
    assert!(
        stats[0].batch_events.load(Ordering::Relaxed) >= total,
        "every event travelled through a batched append"
    );
    assert!(
        stats[0].batches.load(Ordering::Relaxed) < total,
        "bursts amortize: fewer appends than events"
    );
}

/// Batched routing composes with work stealing (the stolen-batch FIFO
/// prepend from PR 3): with every session homed on one shard and the
/// source submitting bursts, thieves bulk-transfer backlog and every
/// event still completes exactly once, leaving all queues empty.
#[test]
fn batched_routing_survives_stealing() {
    const SHARDS: usize = 4;
    let sessions = Arc::new(sessions_on_shard_zero(SHARDS, 8));
    let program = flux_core::compile(
        "
        Gen () => (int sid);
        Spin (int sid) => ();
        Flow = Spin;
        source Gen => Flow;
        ",
    )
    .unwrap();
    let total = 2_000u64;
    let produced = AtomicU64::new(0);
    let mut reg: NodeRegistry<u64> = NodeRegistry::new();
    let s2 = sessions.clone();
    reg.source("Gen", move || {
        let start = produced.load(Ordering::SeqCst);
        if start >= total {
            return SourceOutcome::Shutdown;
        }
        let k = (start % 5 + 1).min(total - start);
        produced.fetch_add(k, Ordering::SeqCst);
        SourceOutcome::Batch(
            (start..start + k)
                .map(|i| s2[(i % s2.len() as u64) as usize])
                .collect(),
        )
    });
    reg.session("Gen", |sid: &u64| *sid);
    reg.node("Spin", |_| {
        let t0 = std::time::Instant::now();
        while t0.elapsed() < Duration::from_micros(100) {
            std::hint::spin_loop();
        }
        NodeOutcome::Ok
    });
    let server = Arc::new(FluxServer::new(program, reg).unwrap());
    let handle = start(server.clone(), RuntimeKind::event_driven_sharded(SHARDS, 1));
    handle.join();
    assert_eq!(server.stats.finished(), total, "no event lost or doubled");
    let stats = server.stats.shard_stats().unwrap();
    let batched: u64 = stats
        .iter()
        .map(|s| s.batch_events.load(Ordering::Relaxed))
        .sum();
    assert!(batched >= total, "all submissions took the batched path");
    assert!(
        server.stats.total_steals() > 0,
        "thieves must steal from the saturated home shard"
    );
    for (i, st) in stats.iter().enumerate() {
        assert_eq!(st.depth.load(Ordering::Relaxed), 0, "shard {i} drained");
    }
}

/// An aggressive controller tuning for tests: ticks of 200 µs, parks
/// after `park_after` idle ticks, wakes at depth 1 — maximum park/wake
/// churn, so races in the handshake surface fast.
fn aggressive(park_after: u32) -> AdaptivePolicy {
    AdaptivePolicy::Adaptive(AdaptiveConfig {
        min_shards: 1,
        sample_every: Duration::from_micros(200),
        park_after,
        park_below: 1,
        wake_depth: 1,
    })
}

/// Deterministic park-then-burst scenario. Phase 1: the source idles
/// (Skip) until the controller has parked down from 4 dispatchers.
/// Phase 2: the source floods spin events; the controller must wake
/// parked shards (the wake rule triggers on the first sampling tick
/// that observes standing depth) and every event must complete.
#[test]
fn controller_parks_idle_shards_and_wakes_on_burst() {
    const SHARDS: usize = 4;
    const TOTAL: u64 = 800;
    let program = flux_core::compile(
        "
        Gen () => (int v);
        Spin (int v) => ();
        Flow = Spin;
        source Gen => Flow;
        ",
    )
    .unwrap();
    let burst = Arc::new(AtomicU64::new(0)); // 0 = idle, 1 = burst, 2 = done
    let produced = AtomicU64::new(0);
    let mut reg: NodeRegistry<u64> = NodeRegistry::new();
    let b2 = burst.clone();
    reg.source("Gen", move || match b2.load(Ordering::SeqCst) {
        0 => {
            std::thread::sleep(Duration::from_millis(1));
            SourceOutcome::Skip
        }
        _ => {
            let start = produced.load(Ordering::SeqCst);
            if start >= TOTAL {
                return SourceOutcome::Shutdown;
            }
            let k = 8.min(TOTAL - start);
            produced.fetch_add(k, Ordering::SeqCst);
            SourceOutcome::Batch((start..start + k).collect())
        }
    });
    reg.node("Spin", |_| {
        let t0 = std::time::Instant::now();
        while t0.elapsed() < Duration::from_micros(50) {
            std::hint::spin_loop();
        }
        NodeOutcome::Ok
    });
    let server = Arc::new(FluxServer::new(program, reg).unwrap());
    let handle = start(
        server.clone(),
        RuntimeKind::EventDriven {
            shards: SHARDS,
            io_workers: 1,
            adaptive: aggressive(4),
            overload: OverloadPolicy::Unbounded,
        },
    );

    // Phase 1: with no load, the controller must park below the
    // configured count (and, given time, down to the floor of 1).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let ast = &server.stats.adaptive;
    while ast.active_shards.load(Ordering::SeqCst) > 1 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        ast.active_shards.load(Ordering::SeqCst),
        1,
        "idle server must park down to min_shards ({})",
        ast.describe()
    );
    let parks_before_burst = ast.parks.load(Ordering::SeqCst);
    assert!(
        parks_before_burst >= (SHARDS - 1) as u64,
        "{}",
        ast.describe()
    );

    // Phase 2: burst. The wake rule fires on the first tick that sees
    // standing depth, so with a 200 µs tick the ramp-up is bounded by
    // milliseconds; the generous deadline only absorbs CI scheduling
    // noise, and the burst is sized to outlast the ramp even on a
    // slow host.
    burst.store(1, Ordering::SeqCst);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while ast.wakes.load(Ordering::SeqCst) == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(200));
    }
    assert!(
        ast.wakes.load(Ordering::SeqCst) > 0,
        "burst must wake parked dispatchers within the controller's \
         sampling cadence ({})",
        ast.describe()
    );

    handle.join();
    assert_eq!(server.stats.finished(), TOTAL, "{}", ast.describe());
    let stats = server.stats.shard_stats().unwrap();
    for (i, st) in stats.iter().enumerate() {
        assert_eq!(st.depth.load(Ordering::Relaxed), 0, "shard {i} drained");
    }
}

/// A server whose load dies and returns repeatedly under an aggressive
/// controller: parks and wakes interleave with live traffic, and the
/// accounting still balances.
#[test]
fn controller_survives_alternating_idle_and_load() {
    const SHARDS: usize = 3;
    let program = flux_core::compile(
        "
        Gen () => (int v);
        Work (int v) => ();
        Flow = Work;
        source Gen => Flow;
        ",
    )
    .unwrap();
    // 12 cycles of (idle 3 ms, burst of 40): each idle gap is ~15
    // controller ticks, enough to park; each burst must wake and drain.
    let cycle = AtomicU64::new(0);
    let mut reg: NodeRegistry<u64> = NodeRegistry::new();
    reg.source("Gen", move || {
        let c = cycle.fetch_add(1, Ordering::SeqCst);
        if c >= 12 {
            return SourceOutcome::Shutdown;
        }
        std::thread::sleep(Duration::from_millis(3));
        SourceOutcome::Batch((0..40).collect())
    });
    reg.node("Work", |_| NodeOutcome::Ok);
    let server = Arc::new(FluxServer::new(program, reg).unwrap());
    let handle = start(
        server.clone(),
        RuntimeKind::EventDriven {
            shards: SHARDS,
            io_workers: 1,
            adaptive: aggressive(2),
            overload: OverloadPolicy::Unbounded,
        },
    );
    handle.join();
    assert_eq!(server.stats.finished(), 12 * 40);
    let ast = &server.stats.adaptive;
    assert!(
        ast.parks.load(Ordering::SeqCst) > 0,
        "3 ms idle gaps must trigger parks ({})",
        ast.describe()
    );
    let stats = server.stats.shard_stats().unwrap();
    for (i, st) in stats.iter().enumerate() {
        assert_eq!(st.depth.load(Ordering::Relaxed), 0, "shard {i} drained");
    }
}

/// Requesting shutdown while shard queues are non-empty drains cleanly:
/// every started flow finishes, none is lost in a queue.
#[test]
fn clean_shutdown_drains_non_empty_queues() {
    let program = flux_core::compile(
        "
        Gen () => (int v);
        Slow (int v) => ();
        Flow = Slow;
        source Gen => Flow;
        ",
    )
    .unwrap();
    let mut reg: NodeRegistry<u64> = NodeRegistry::new();
    // Open-loop source: floods the queues far faster than 1 ms nodes
    // drain them, so queues are guaranteed non-empty at shutdown.
    let produced = Arc::new(AtomicU64::new(0));
    let p2 = produced.clone();
    reg.source("Gen", move || {
        p2.fetch_add(1, Ordering::SeqCst);
        SourceOutcome::New(0)
    });
    reg.node("Slow", |_| {
        std::thread::sleep(Duration::from_millis(1));
        NodeOutcome::Ok
    });
    let server = Arc::new(FluxServer::new(program, reg).unwrap());
    let handle = start(server.clone(), RuntimeKind::event_driven_sharded(4, 2));
    // Let a backlog build, then stop: sources quit, shards must drain.
    while produced.load(Ordering::SeqCst) < 200 {
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.stop();
    let started = server.stats.started.load(Ordering::SeqCst);
    assert!(started >= 200);
    assert_eq!(
        server.stats.finished(),
        started,
        "every queued flow must finish during drain"
    );
}

/// Per-shard depth accounting: high-water marks are recorded and the
/// final depth is zero everywhere.
#[test]
fn shard_stats_track_depth_and_drain_to_zero() {
    let sessions = Arc::new((0u64..32).collect::<Vec<_>>());
    let server = session_server(2_000, sessions);
    let handle = start(server.clone(), RuntimeKind::event_driven_sharded(4, 1));
    handle.join();
    assert_eq!(server.stats.finished(), 2_000);
    let stats = server.stats.shard_stats().unwrap();
    let max: u64 = stats
        .iter()
        .map(|s| s.max_depth.load(Ordering::Relaxed))
        .sum();
    assert!(max > 0, "some queueing must have been observed");
    for (i, st) in stats.iter().enumerate() {
        assert_eq!(st.depth.load(Ordering::Relaxed), 0, "shard {i} drained");
    }
    let executed: u64 = stats
        .iter()
        .map(|s| s.executed.load(Ordering::Relaxed) + s.stolen.load(Ordering::Relaxed))
        .sum();
    assert!(executed >= 2_000, "every event dequeued somewhere");
}

/// Restarting the same server with a different (larger) shard count
/// must not read the first run's smaller counter block: each run
/// installs fresh per-shard stats.
#[test]
fn restart_with_more_shards_installs_fresh_stats() {
    let total_per_run = 300u64;
    let sessions = Arc::new((0u64..16).collect::<Vec<_>>());
    let server = session_server(total_per_run, sessions.clone());
    let handle = start(server.clone(), RuntimeKind::event_driven_sharded(2, 1));
    handle.join();
    assert_eq!(server.stats.finished(), total_per_run);
    assert_eq!(server.stats.shard_stats().unwrap().len(), 2);

    // Second run on the same server, more shards. The source fn is
    // exhausted (returns Shutdown immediately), but every shard and
    // source thread must still start, route and exit cleanly.
    let handle = start(server.clone(), RuntimeKind::event_driven_sharded(8, 1));
    handle.join();
    assert_eq!(
        server.stats.shard_stats().unwrap().len(),
        8,
        "second run must publish its own 8-shard block"
    );
}

/// The sharded runtime preserves single-dispatcher outcome accounting
/// for random shard counts, loads and session mixes (property test).
mod properties {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// Runs one generated submission script on a single shard and
    /// returns the execution order. Each script entry is one source
    /// poll: a batch of session ids, submitted as `New` when it holds
    /// one event and as `Batch` otherwise. Events are numbered in
    /// submission order.
    fn run_script(script: Arc<Vec<Vec<u64>>>) -> Vec<u64> {
        let program = flux_core::compile(
            "
            Gen () => (int v);
            Work (int v) => ();
            Flow = Work;
            source Gen => Flow;
            ",
        )
        .unwrap();
        let sessions: Arc<Vec<u64>> = Arc::new(script.iter().flatten().copied().collect());
        let total = sessions.len() as u64;
        let polls = AtomicU64::new(0);
        let next_id = AtomicU64::new(0);
        let mut reg: NodeRegistry<u64> = NodeRegistry::new();
        reg.source("Gen", move || {
            let Some(batch) = script.get(polls.fetch_add(1, Ordering::SeqCst) as usize) else {
                return SourceOutcome::Shutdown;
            };
            let n = batch.len() as u64;
            let first = next_id.fetch_add(n, Ordering::SeqCst);
            if n == 1 {
                SourceOutcome::New(first)
            } else {
                SourceOutcome::Batch((first..first + n).collect())
            }
        });
        let s2 = sessions.clone();
        reg.session("Gen", move |v: &u64| s2[*v as usize]);
        let order: Arc<parking_lot::Mutex<Vec<u64>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let o2 = order.clone();
        reg.node("Work", move |v: &mut u64| {
            o2.lock().push(*v);
            NodeOutcome::Ok
        });
        let server = Arc::new(FluxServer::new(program, reg).unwrap());
        let handle = start(server.clone(), RuntimeKind::event_driven_sharded(1, 1));
        handle.join();
        assert_eq!(server.stats.finished(), total, "lost events");
        let v = order.lock().clone();
        v
    }

    /// The sequential model of one shard: a single `VecDeque` that every
    /// submission appends to and the dispatcher pops from the front.
    fn fifo_model(script: &[Vec<u64>]) -> Vec<u64> {
        let mut queue: VecDeque<u64> = VecDeque::new();
        let mut next_id = 0u64;
        for batch in script {
            for _ in batch {
                queue.push_back(next_id);
                next_id += 1;
            }
        }
        queue.into_iter().collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn sharded_accounting_matches_for_any_shape(
            shards in 1usize..6,
            io_workers in 1usize..4,
            total in 1u64..300,
            sessions in 1u64..12,
        ) {
            let ids = Arc::new((0..sessions).collect::<Vec<_>>());
            let server = session_server(total, ids);
            let handle = start(
                server.clone(),
                RuntimeKind::event_driven_sharded(shards, io_workers),
            );
            handle.join();
            prop_assert_eq!(server.stats.finished(), total);
            let stats = server.stats.shard_stats().unwrap();
            prop_assert_eq!(stats.len(), shards);
            // Conservation: every submitted event is dequeued exactly
            // once (own-queue pops + steals cover all submissions).
            for (i, st) in stats.iter().enumerate() {
                prop_assert_eq!(st.depth.load(Ordering::Relaxed), 0, "shard {} drained", i);
            }
        }

        /// Random enqueue/steal/park/wake interleavings: an aggressive
        /// adaptive controller (200 µs ticks, parks after 1–4 idle
        /// ticks, wakes at depth 1) churns the dispatcher set while
        /// sources submit skewed session traffic. No event may be lost,
        /// doubled, executed on a parked shard, or stranded behind one.
        #[test]
        fn adaptive_interleaving_loses_no_events(
            shards in 2usize..6,
            io_workers in 1usize..3,
            total in 1u64..400,
            sessions in 1u64..12,
            park_after in 1u32..5,
            min_shards in 1usize..3,
        ) {
            let ids = Arc::new((0..sessions).collect::<Vec<_>>());
            let server = session_server(total, ids);
            let handle = start(
                server.clone(),
                RuntimeKind::EventDriven {
                    shards,
                    io_workers,
                    adaptive: AdaptivePolicy::Adaptive(AdaptiveConfig {
                        min_shards,
                        sample_every: Duration::from_micros(200),
                        park_after,
                        park_below: 1,
                        wake_depth: 1,
                    }),
                    overload: OverloadPolicy::Unbounded,
                },
            );
            handle.join();
            // Conservation: every flow finished exactly once.
            prop_assert_eq!(server.stats.finished(), total, "lost events");
            let stats = server.stats.shard_stats().unwrap();
            prop_assert_eq!(stats.len(), shards);
            // Nothing stranded on any shard — in particular not on a
            // shard that ended the run parked: a parked dispatcher
            // forwards every straggler before blocking, so a non-zero
            // final depth there would mean an event was delivered to a
            // permanently-parked shard.
            let active = server.stats.adaptive.active_shards.load(Ordering::SeqCst) as usize;
            prop_assert!(active >= min_shards.min(shards) && active <= shards);
            for (i, st) in stats.iter().enumerate() {
                prop_assert_eq!(
                    st.depth.load(Ordering::Relaxed),
                    0,
                    "shard {} (active prefix {}) must end drained", i, active
                );
            }
            // The controller's books balance: it can't have woken more
            // shards than it parked, and the active count is exactly
            // configured - parks + wakes.
            let parks = server.stats.adaptive.parks.load(Ordering::SeqCst);
            let wakes = server.stats.adaptive.wakes.load(Ordering::SeqCst);
            prop_assert!(wakes <= parks, "wakes {} > parks {}", wakes, parks);
            prop_assert_eq!(
                shards as u64 + wakes - parks,
                active as u64,
                "active count must equal configured - parks + wakes"
            );
        }

        /// Oracle: on one shard, the execution order of any generated
        /// submission script equals the sequential `VecDeque` model of
        /// that script — exact global FIFO across `New`/`Batch`
        /// boundaries and session ids.
        #[test]
        fn single_shard_order_matches_fifo_model(
            script in proptest::collection::vec(
                proptest::collection::vec(0u64..6, 1..8usize),
                1..40usize,
            ),
        ) {
            let expected = fifo_model(&script);
            let order = run_script(Arc::new(script));
            prop_assert_eq!(order, expected, "execution order diverged from the FIFO model");
        }
    }
}
