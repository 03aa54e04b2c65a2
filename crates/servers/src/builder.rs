//! One typed construction surface for all five servers.
//!
//! The paper's runtime-independence claim says the same Flux program
//! runs on any concurrency substrate; this module makes the *public
//! API* reflect that. Before it, each server exposed its own divergent
//! `spawn(config, runtime, profile)` signature; now every server,
//! example, bench harness and test constructs through one
//! [`ServerBuilder`]:
//!
//! ```ignore
//! let server = ServerBuilder::new(WebSpec::new(listener, docroot))
//!     .runtime(RuntimeKind::event_driven_sharded(4, 4))
//!     .net(NetConfig::default())   // backend, max_pending_out, io_timeout
//!     .profile(true)
//!     .spawn();
//! ```
//!
//! The builder owns the glue every server shared but re-implemented:
//! compiling the program and binding the registry (via the server's
//! [`ServerSpec`]), toggling path profiling, installing the network
//! driver's counters into [`flux_runtime::ServerStats`], and starting
//! the chosen [`RuntimeKind`]. The [`NetConfig`] travels into the
//! spec's `build`, so the readiness backend (poll/epoll), the
//! per-connection output-buffer bound and the event-poll timeout are
//! decided in exactly one place.

use flux_core::CompiledProgram;
use flux_net::{ConnDriver, NetConfig};
use flux_runtime::{AdaptivePolicy, FusionMode, NodeRegistry, OverloadPolicy, RuntimeKind};
use std::sync::Arc;

/// What a server kind must provide to be built: its compiled program,
/// bound node registry and shared context, plus access to its network
/// driver (when it has one) for stats installation.
pub trait ServerSpec {
    /// The per-flow payload type.
    type Flow: Send + 'static;
    /// The shared server context handed back to the caller
    /// (`Arc<WebCtx>`, `Arc<BtCtx>`, ...).
    type Ctx;

    /// Compiles the Flux program, binds the node implementations and
    /// builds the shared context, constructing any [`ConnDriver`]
    /// through `net`.
    fn build(self, net: &NetConfig) -> (CompiledProgram, NodeRegistry<Self::Flow>, Self::Ctx);

    /// The context's network driver, when the server has one (used to
    /// publish [`flux_net::DriverCounters`] into the runtime stats).
    fn driver(ctx: &Self::Ctx) -> Option<Arc<ConnDriver>>;

    /// The context's fan-out counter block, when the server is a
    /// streaming (pub/sub) server. The builder shares it into
    /// [`flux_runtime::ServerStats::fanout`] so `describe()` reports
    /// publishes/deliveries/coalesced next to the flow counters.
    fn fanout(ctx: &Self::Ctx) -> Option<Arc<flux_runtime::FanoutStat>> {
        let _ = ctx;
        None
    }
}

/// A running server: the runtime handle plus the server's shared
/// context. The per-server aliases (`web::WebServer`, `bt::BtServer`,
/// `image::ImageServer`, `game::GameServer`, `pubsub::PubSubServer`)
/// are instantiations of this one type.
pub struct RunningServer<P: Send + 'static, C> {
    pub handle: flux_runtime::ServerHandle<P>,
    pub ctx: C,
}

/// The one typed builder behind all five servers (see module docs).
pub struct ServerBuilder<S: ServerSpec> {
    spec: S,
    runtime: RuntimeKind,
    /// Set by [`ServerBuilder::adaptive`]; applied to the event-driven
    /// runtime at [`ServerBuilder::spawn`], so `.adaptive(...)` and
    /// `.runtime(...)` compose in either order.
    adaptive: Option<AdaptivePolicy>,
    /// Set by [`ServerBuilder::fusion`]; [`FusionMode::On`] (segment
    /// execution) when unset.
    fusion: Option<FusionMode>,
    /// Set by [`ServerBuilder::overload`]; applied at
    /// [`ServerBuilder::spawn`] like `adaptive`, so it composes with
    /// `.runtime(...)` in either order.
    overload: Option<OverloadPolicy>,
    net: NetConfig,
    profile: bool,
    stats: bool,
}

impl<S: ServerSpec> ServerBuilder<S> {
    /// A builder with the defaults: the paper's event-driven runtime
    /// (one dispatcher shard, four I/O workers), the default
    /// [`NetConfig`] (epoll on Linux with poll fallback, honouring
    /// `FLUX_POLLER`), profiling off, stats on.
    pub fn new(spec: S) -> Self {
        ServerBuilder {
            spec,
            runtime: RuntimeKind::event_driven_sharded(1, 4),
            adaptive: None,
            fusion: None,
            overload: None,
            net: NetConfig::default(),
            profile: false,
            stats: true,
        }
    }

    /// Which runtime executes the flows (paper §3.2).
    pub fn runtime(mut self, kind: RuntimeKind) -> Self {
        self.runtime = kind;
        self
    }

    /// Sets the adaptive shard policy of the event-driven runtime:
    /// [`AdaptivePolicy::Adaptive`] runs the controller loop that parks
    /// idle dispatchers and wakes them on burst,
    /// [`AdaptivePolicy::Static`] (the default) keeps the paper's fixed
    /// dispatcher set. Applied at [`ServerBuilder::spawn`], so it
    /// composes with [`ServerBuilder::runtime`] in either call order;
    /// ignored by the non-event runtimes, and inert when the
    /// event-driven runtime has a single shard (one dispatcher is
    /// already the controller's floor — `stats.adaptive.describe()`
    /// reports which state is actually running).
    pub fn adaptive(mut self, policy: AdaptivePolicy) -> Self {
        self.adaptive = Some(policy);
        self
    }

    /// Selects the flow interpreter: [`FusionMode::On`] (the default)
    /// executes fused straight-line segments in one queue turn,
    /// [`FusionMode::Off`] runs the per-vertex interpreter, the oracle
    /// fusion is tested against.
    /// The `FLUX_FUSE` env var overrides either choice at start.
    pub fn fusion(mut self, mode: FusionMode) -> Self {
        self.fusion = Some(mode);
        self
    }

    /// Sets the overload policy of the event-driven runtime:
    /// [`OverloadPolicy::Bounded`] enforces hard per-shard queue depth
    /// caps with shed-at-source (servers answer a prebuilt 503/BUSY via
    /// their registered shed handler), [`OverloadPolicy::Unbounded`]
    /// (the default) is the paper's grow-without-limit semantics.
    /// Applied at [`ServerBuilder::spawn`] so it composes with
    /// [`ServerBuilder::runtime`] in either call order; ignored by the
    /// non-event runtimes.
    pub fn overload(mut self, policy: OverloadPolicy) -> Self {
        self.overload = Some(policy);
        self
    }

    /// Replaces the whole network configuration.
    pub fn net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Selects the readiness backend (poll or epoll) for this server's
    /// driver.
    #[cfg(unix)]
    pub fn backend(mut self, backend: flux_net::PollerBackend) -> Self {
        self.net.backend = backend;
        self
    }

    /// Caps each connection's output buffer on the non-blocking write
    /// path.
    pub fn max_pending_out(mut self, bytes: usize) -> Self {
        self.net.max_pending_out = bytes;
        self
    }

    /// How long the server's `Listen` source blocks per event poll
    /// before re-checking shutdown.
    pub fn io_timeout(mut self, timeout: std::time::Duration) -> Self {
        self.net.io_timeout = timeout;
        self
    }

    /// Caps live connections on this server's driver: past the cap the
    /// acceptor closes fresh sockets immediately (counted in
    /// `accepts_governed`) instead of registering them. `0` (the
    /// default) is unlimited.
    pub fn max_conns(mut self, n: usize) -> Self {
        self.net.max_conns = n;
        self
    }

    /// Bounds the accept rate (connections/second token bucket with a
    /// one-second burst). `0` (the default) is unlimited.
    pub fn accept_rate(mut self, per_sec: u32) -> Self {
        self.net.accept_rate = per_sec;
        self
    }

    /// Arms idle/slow-loris reaping: connections with no application
    /// progress for `timeout` are swept out by the reactor tick,
    /// releasing their slab slot and poller watch. `None` (the
    /// default) disables reaping.
    pub fn idle_timeout(mut self, timeout: Option<std::time::Duration>) -> Self {
        self.net.idle_timeout = timeout;
        self
    }

    /// Enables Ball–Larus path profiling (paper §5.2).
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Publishes the network driver's counters into
    /// [`flux_runtime::ServerStats`] (on by default).
    pub fn stats(mut self, on: bool) -> Self {
        self.stats = on;
        self
    }

    /// Compiles, binds and starts the server.
    pub fn spawn(mut self) -> RunningServer<S::Flow, S::Ctx> {
        if let (Some(policy), RuntimeKind::EventDriven { adaptive, .. }) =
            (self.adaptive, &mut self.runtime)
        {
            *adaptive = policy;
        }
        if let (Some(policy), RuntimeKind::EventDriven { overload, .. }) =
            (self.overload, &mut self.runtime)
        {
            *overload = policy;
        }
        let (program, registry, ctx) = self.spec.build(&self.net);
        let mut server = flux_runtime::FluxServer::with_options(
            program,
            registry,
            self.profile,
            self.fusion.unwrap_or_default(),
        )
        .expect("registry satisfies the program");
        if let Some(fanout) = S::fanout(&ctx) {
            server.stats.fanout = fanout;
        }
        if self.stats {
            if let Some(driver) = S::driver(&ctx) {
                server
                    .stats
                    .install_net(Arc::new(crate::DriverNetCounters(driver.counters())));
            }
        }
        let handle = flux_runtime::start(Arc::new(server), self.runtime);
        RunningServer { handle, ctx }
    }
}
