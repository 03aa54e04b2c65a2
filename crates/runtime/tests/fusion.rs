//! Integration tests for stage fusion on the sharded event-driven
//! runtime: the `fused_execs` accounting and completion under both
//! interpreters.

use flux_runtime::{
    start, FluxServer, FusionMode, NodeOutcome, NodeRegistry, RuntimeKind, SourceOutcome,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const CHAIN_SRC: &str = "
    Gen () => (int v);
    A (int v) => (int v);
    B (int v) => (int v);
    C (int v) => ();
    Flow = A -> B -> C;
    source Gen => Flow;
";

fn chain_server(total: u64, fusion: FusionMode) -> Arc<FluxServer<u64>> {
    let program = flux_core::compile(CHAIN_SRC).unwrap();
    let produced = AtomicU64::new(0);
    let mut reg: NodeRegistry<u64> = NodeRegistry::new();
    reg.source("Gen", move || {
        let i = produced.fetch_add(1, Ordering::SeqCst);
        if i >= total {
            SourceOutcome::Shutdown
        } else {
            SourceOutcome::New(i)
        }
    });
    for n in ["A", "B", "C"] {
        reg.node(n, |_| NodeOutcome::Ok);
    }
    Arc::new(FluxServer::with_options(program, reg, false, fusion).unwrap())
}

/// On the sharded runtime, fused execution completes every flow, the
/// per-shard `fused_execs` counter records the chain executions, and
/// `ServerStats::describe` surfaces them.
#[test]
fn sharded_runtime_counts_fused_execs() {
    const TOTAL: u64 = 300;
    let server = chain_server(TOTAL, FusionMode::On);
    let handle = start(server.clone(), RuntimeKind::event_driven_sharded(2, 1));
    handle.join();
    assert_eq!(server.stats.finished(), TOTAL);
    // Every flow's A -> B -> C runs as one 3-exec segment.
    assert_eq!(server.stats.total_fused_execs(), TOTAL * 3);
    let desc = server.stats.describe();
    assert!(
        desc.contains(&format!("fused execs {}", TOTAL * 3)),
        "{desc}"
    );

    // The unfused oracle completes identically but records none.
    let server = chain_server(TOTAL, FusionMode::Off);
    let handle = start(server.clone(), RuntimeKind::event_driven_sharded(2, 1));
    handle.join();
    assert_eq!(server.stats.finished(), TOTAL);
    assert_eq!(server.stats.total_fused_execs(), 0);
}
