//! # flux-runtime — runtime systems for Flux programs
//!
//! Executes programs compiled by `flux-core` on any of the paper's three
//! runtime systems (thread-per-flow, thread-pool, event-driven), with the
//! atomicity-constraint lock manager and optional Ball–Larus path
//! profiling.
//!
//! The sharded event-driven runtime's steady-state event path is
//! **batched and allocation-free**: sources may return a whole burst of
//! flows per poll ([`SourceOutcome::Batch`] — the web server hands over
//! one reactor round's readiness batch at a time), and the runtime
//! routes the burst to its home shards with one queue lock and at most
//! one condvar notify per destination shard (`route_home_batch`). A
//! per-shard *parked* flag, maintained under the shard's queue lock,
//! lets enqueuers skip the notify entirely when the dispatcher is
//! provably awake. [`ShardStat::batches`]/[`ShardStat::batch_events`]
//! expose the amortization factor, and on multi-core hosts each
//! `flux-shard-N` thread pins itself to core `N mod host_cores`
//! (`flux_net::affinity`; opt out with `FLUX_PIN=0`), with the
//! resulting state recorded in [`ServerStats::pinning`].
//!
//! The dispatcher set is also **elastic**: with
//! [`AdaptivePolicy::Adaptive`], a controller loop samples every
//! shard's depth/steal/batch counters into a [`ShardLoadWindow`] each
//! tick, parks the highest-indexed dispatcher after a full idle window
//! and wakes a parked one within a single tick of observing standing
//! queue depth. The controller's invariants — parks commit only after
//! the shard drain-forwards its queue to active siblings, enqueuers
//! can't race a park because the routing prefix and the shard's
//! deactivated flag change under the same queue lock they hold, and
//! session routing only ever targets active shards — are spelled out in
//! the [`runtimes`] module docs ("Adaptive shard scaling").
//! [`AdaptivePolicy::Static`] (the default) keeps the paper's fixed
//! dispatcher set, and [`ServerStats::adaptive`] reports the active
//! count plus cumulative park/wake totals either way.
//!
//! Each shard's run queue is one `Mutex<VecDeque>` under a condvar:
//! one FIFO per dispatcher, as in the paper's event runtime.
//!
//! ## Overload invariants
//!
//! Past saturation a staged pipeline is only as robust as the bounds on
//! each stage's queue, so the sharded runtime can run under
//! [`OverloadPolicy::Bounded`]: a hard depth cap on every shard queue.
//! The rules for where shedding may and may not happen:
//!
//! * **Shedding happens only at the source-submission boundary**
//!   (`route_home_batch`, the path that admits a source's burst into
//!   the shard queues). A group whose destination shard stands at the
//!   cap is truncated; the overflow payloads are counted in
//!   [`ShardStat::shed`] and handed to the registry's
//!   [`NodeRegistry::on_shed`] handler on the source thread, *before*
//!   they enter any queue — servers answer a cheap prebuilt 503/BUSY
//!   there instead of queueing doomed work.
//! * **Admitted events are never dropped.** Requeues
//!   (`Step::WouldBlock`, fairness budgets), I/O-pool completions,
//!   work-steal transfers and a parking shard's drain-forward all move
//!   events that already passed admission; none of those paths consults
//!   the cap, so a flow that entered the graph always reaches an `End`.
//! * **Every shed is counted.** The conservation invariant `offered ==
//!   admitted + shed` is exposed through
//!   [`ServerStats::overload`](stats::OverloadStat) /
//!   [`ServerStats::total_shed`] and proptested across random
//!   interleavings.
//! * [`OverloadPolicy::Unbounded`] (the default) is the paper's
//!   semantics: no cap, no shedding, queues grow with demand.
//!
//! Edge admission (accept governing, idle reaping) lives one layer
//! down, in `flux-net`'s `ConnDriver` — see that crate's "Overload
//! invariants" docs.
//!
//! ## Fusion boundaries
//!
//! By default ([`server::FusionMode::On`], builder knob + `FLUX_FUSE`
//! env) the server executes *fused segments*: maximal straight-line
//! `Exec`/`Release` chains, computed by `flux-core`'s fusion pass and
//! re-fused here with the registry's [`NodeRegistry::node_blocking`]
//! knowledge, run as **one queue turn** per segment instead of one per
//! vertex. Segments never cross a semantic boundary — dispatch arms,
//! error-handler entries, constraint `Acquire`s, blocking nodes (which
//! must stay visible to the I/O off-load check) and join points all
//! break the chain — so a mid-segment [`NodeOutcome::Err`] still
//! releases held locks and lands on the flow's `on_err` vertex exactly
//! as the unfused walk would, and Ball–Larus path sums are
//! bit-identical (each fused transition replays the original
//! profiling edge). Dispatcher fairness generalizes from the old
//! one-exec-per-turn latch to a *step budget* (`FLUX_FUSE_BUDGET`,
//! default = the longest segment's execution count): a turn may spend
//! that many node executions before the event is re-queued.
//! [`server::FusionMode::Off`] (or `FLUX_FUSE=0`) keeps the per-vertex
//! interpreter as the semantic oracle and ablation baseline, and
//! [`ShardStat::fused_execs`] / [`ServerStats::describe`] report how
//! many node executions rode inside fused segments.
//!
//! ```
//! use flux_runtime::{NodeOutcome, NodeRegistry, SourceOutcome, FluxServer};
//! use std::sync::atomic::{AtomicU32, Ordering};
//!
//! const PROGRAM: &str = "
//!     Gen () => (int v);
//!     Double (int v) => (int v);
//!     Print (int v) => ();
//!     Flow = Double -> Print;
//!     source Gen => Flow;
//! ";
//!
//! struct Payload { v: u32 }
//!
//! let program = flux_core::compile(PROGRAM).unwrap();
//! let mut reg: NodeRegistry<Payload> = NodeRegistry::new();
//! let n = AtomicU32::new(0);
//! reg.source("Gen", move || {
//!     match n.fetch_add(1, Ordering::SeqCst) {
//!         0..=9 => SourceOutcome::New(Payload { v: n.load(Ordering::SeqCst) }),
//!         _ => SourceOutcome::Shutdown,
//!     }
//! });
//! reg.node("Double", |p: &mut Payload| { p.v *= 2; NodeOutcome::Ok });
//! reg.node("Print", |_p: &mut Payload| NodeOutcome::Ok);
//!
//! let server = std::sync::Arc::new(FluxServer::new(program, reg).unwrap());
//! let handle = flux_runtime::start(
//!     server.clone(),
//!     flux_runtime::RuntimeKind::ThreadPool { workers: 2 },
//! );
//! handle.join();
//! assert_eq!(server.stats.finished(), 10);
//! ```

pub mod locks;
pub mod profile;
pub mod profile_socket;
pub mod registry;
pub mod runtimes;
pub mod server;
pub mod stats;
pub mod testutil;

pub use locks::{FlowId, LockManager, ReentrantRwLock};
pub use profile::{HotOrder, HotPath, PathProfiler};
pub use profile_socket::handle_profile_conn;
pub use registry::{NodeOutcome, NodeRegistry, SourceOutcome};
pub use runtimes::{
    shard_index, start, AdaptiveConfig, AdaptivePolicy, OverloadConfig, OverloadPolicy,
    RuntimeKind, ServerHandle,
};
pub use server::{FlowCursor, FluxServer, FusionMode, LockWait, Step};
pub use stats::{
    AdaptiveStat, CachePadded, FanoutStat, LatencyHistogram, NetCounters, OverloadStat,
    PinningStat, ServerStats, ShardLoadWindow, ShardSample, ShardStat,
};
