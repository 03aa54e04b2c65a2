//! Property tests for pinned session affinity
//! ([`NodeRegistry::session_pinned`]): every event of a pinned session
//! must *execute* on the session's home shard — across bursts, work
//! stealing (a thief that claims a pinned event forwards it home
//! instead of running it) and adaptive park/wake resizes of the
//! routing prefix.
//!
//! This is the property the pub/sub server's topic-keyed windows rely
//! on: with the session key a hash of the topic, pinning makes the
//! per-topic state effectively shard-local, so its stripe lock is
//! uncontended on the steady-state path.

use flux_runtime::{
    shard_index, start, AdaptiveConfig, AdaptivePolicy, FluxServer, NodeOutcome, NodeRegistry,
    OverloadPolicy, RuntimeKind, SourceOutcome,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SRC: &str = "
    Gen () => (int sid);
    Work (int sid) => (int sid);
    Out (int sid) => ();
    Flow = Work -> Out;
    source Gen => Flow;
    atomic Work: {state(session)};
";

/// The shard index of the dispatcher thread we are running on, parsed
/// from its `flux-shard-<n>` name; `None` off the dispatcher threads.
fn current_shard() -> Option<usize> {
    std::thread::current()
        .name()
        .and_then(|n| n.strip_prefix("flux-shard-"))
        .and_then(|n| n.parse().ok())
}

/// Builds a pinned-session server over `sessions`, producing `total`
/// spinning events in bursts of `burst`, recording every affinity
/// violation the `Work` node observes via `check`.
fn pinned_server(
    total: u64,
    burst: u64,
    sessions: Arc<Vec<u64>>,
    check: impl Fn(u64, usize) -> bool + Send + Sync + 'static,
) -> (Arc<FluxServer<u64>>, Arc<AtomicU64>) {
    let program = flux_core::compile(SRC).unwrap();
    let produced = AtomicU64::new(0);
    let mut reg: NodeRegistry<u64> = NodeRegistry::new();
    let s2 = sessions.clone();
    reg.source("Gen", move || {
        let start = produced.load(Ordering::SeqCst);
        if start >= total {
            return SourceOutcome::Shutdown;
        }
        let k = burst.min(total - start);
        produced.fetch_add(k, Ordering::SeqCst);
        let flows: Vec<u64> = (start..start + k)
            .map(|i| s2[(i % s2.len() as u64) as usize])
            .collect();
        if flows.len() == 1 {
            SourceOutcome::New(flows[0])
        } else {
            SourceOutcome::Batch(flows)
        }
    });
    reg.session_pinned("Gen", |sid: &u64| *sid);
    let violations = Arc::new(AtomicU64::new(0));
    let v2 = violations.clone();
    reg.node("Work", move |sid: &mut u64| {
        // Spin long enough that a saturated home shard builds backlog
        // and the other shards go hunting for work to steal.
        let t0 = std::time::Instant::now();
        while t0.elapsed() < Duration::from_micros(50) {
            std::hint::spin_loop();
        }
        if let Some(shard) = current_shard() {
            if !check(*sid, shard) {
                v2.fetch_add(1, Ordering::Relaxed);
            }
        }
        NodeOutcome::Ok
    });
    reg.node("Out", |_| NodeOutcome::Ok);
    (Arc::new(FluxServer::new(program, reg).unwrap()), violations)
}

/// Session ids that all hash to shard 0 under `shards` shards.
fn sessions_on_shard_zero(shards: usize, count: usize) -> Vec<u64> {
    (0u64..)
        .filter(|&k| shard_index(k, shards) == 0)
        .take(count)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Static prefix, every session homed on shard 0, enough spinning
    /// backlog that the other shards steal constantly: pinned events
    /// must still only ever *execute* on shard 0 — a thief claiming one
    /// forwards it home (visible in `pinned_rerouted`) instead of
    /// running session state off its shard.
    #[test]
    fn stealing_never_executes_pinned_events_off_home(
        session_count in 1usize..8,
        burst in 1u64..32,
    ) {
        const SHARDS: usize = 4;
        const TOTAL: u64 = 800;
        let sessions = Arc::new(sessions_on_shard_zero(SHARDS, session_count));
        let (server, violations) =
            pinned_server(TOTAL, burst, sessions, |_, shard| shard == 0);
        let handle = start(server.clone(), RuntimeKind::event_driven_sharded(SHARDS, 1));
        handle.join();
        prop_assert_eq!(server.stats.finished(), TOTAL, "no event lost or doubled");
        prop_assert_eq!(
            violations.load(Ordering::Relaxed),
            0,
            "pinned events executed off their home shard"
        );
        // The saturated home shard plus spinning work makes stealing (and
        // therefore forwarding) all but certain; if this ever flakes the
        // spin budget above is the knob.
        prop_assert!(
            server.stats.total_pinned_rerouted() > 0,
            "expected thieves to claim and forward pinned events"
        );
    }

    /// Adaptive controller with maximum park/wake churn: the routing
    /// prefix resizes while pinned bursts are in flight. At the instant
    /// an event executes, its shard is its session's home under the
    /// *current* prefix — so the executing shard must always be one of
    /// the session's possible homes over prefix sizes 1..=SHARDS, and
    /// nothing is lost across resizes.
    #[test]
    fn adaptive_park_wake_keeps_pinned_events_on_possible_homes(
        session_count in 1usize..8,
        burst in 1u64..32,
        seed in any::<u64>(),
    ) {
        const SHARDS: usize = 4;
        const TOTAL: u64 = 600;
        let sessions: Arc<Vec<u64>> =
            Arc::new((0..session_count as u64).map(|i| seed ^ (i * 0x9E37)).collect());
        let (server, violations) = pinned_server(TOTAL, burst, sessions, |sid, shard| {
            (1..=SHARDS).any(|p| shard_index(sid, p) == shard)
        });
        let handle = start(
            server.clone(),
            RuntimeKind::EventDriven {
                shards: SHARDS,
                io_workers: 1,
                adaptive: AdaptivePolicy::Adaptive(AdaptiveConfig {
                    min_shards: 1,
                    sample_every: Duration::from_micros(200),
                    park_after: 2,
                    park_below: 1,
                    wake_depth: 1,
                }),
                overload: OverloadPolicy::Unbounded,
            },
        );
        handle.join();
        prop_assert_eq!(server.stats.finished(), TOTAL, "no event lost across resizes");
        prop_assert_eq!(
            violations.load(Ordering::Relaxed),
            0,
            "pinned event executed on a shard that is no session home"
        );
    }
}
