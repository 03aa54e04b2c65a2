//! What every workload provides to the run driver in `main`.

use crate::gen::Tally;
use crate::report::Metrics;
use crate::server::ServerView;
use crate::spans::Parts;
use crate::tracenet::Tracer;
use flux_runtime::RuntimeKind;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One measured phase.
pub struct Phase {
    pub tally: Tally,
    /// When the phase began.
    pub start: Instant,
    /// From the phase's start to its last completion.
    pub elapsed: Duration,
    /// Span parts, for a traced saturation phase.
    pub parts: Option<Parts>,
}

/// A running server plus the client state that outlives one phase.
pub trait Session {
    fn view(&self) -> &dyn ServerView;
    /// Sends the first request of a fresh server and checks the answer:
    /// the end of set-up.
    fn first_response(&mut self) -> Result<(), String>;
    /// Closed loop for `dur`; with `trace`, the server's span records
    /// are joined with the client's.
    fn saturate(&mut self, dur: Duration, trace: bool) -> Phase;
    /// Open loop at `rate` arrivals per second for `dur`.
    fn open_loop(&mut self, dur: Duration, rate: f64) -> Phase;
    /// Workload-specific layer metrics read from the server.
    fn server_layers(&self, m: &mut Metrics);
    /// Timed calls into public layer functions on this session's
    /// inputs.
    fn offline_layers(&self, m: &mut Metrics);
    fn stop(self: Box<Self>);
}

/// A workload: how to start its server and drive it.
pub trait Workload {
    /// The open-loop arrival rate, per second: set once to about half of
    /// the workload's `throughput_rps` on the reference host and never
    /// derived per run.
    fn rate(&self) -> f64;
    /// The server's Flux program (timed by `core.compile_ms`).
    fn flux_src(&self) -> &'static str;
    /// Builds the content and spawns the server; with a tracer, the
    /// server's listener is wrapped and path profiling is on.
    fn start(&self, tracer: Option<Arc<Tracer>>) -> Box<dyn Session>;
    /// A tracer speaking this workload's protocol.
    fn tracer(&self) -> Arc<Tracer>;
}

/// The only runtime configuration the benchmark sets: the sharded event
/// runtime with one dispatcher shard per host core and four I/O
/// workers. Everything else is the shipped default.
pub fn runtime() -> RuntimeKind {
    RuntimeKind::event_driven_sharded(host_cores(), 4)
}

/// `available_parallelism`, recorded with every result.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
